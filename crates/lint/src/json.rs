//! Hand-rolled JSON emission for [`LintReport`] (the build is offline, so
//! no serialization dependency is available — the format is small enough
//! to write directly and is pinned by a golden test, `tests/lint_golden.rs`
//! at the workspace root). String escaping is
//! the shared [`spike_core::json`] writer, so the whole workspace has one
//! escaping bug surface.

use std::fmt::Write as _;

use spike_core::json::escape_into as escape;

use crate::diag::{Diagnostic, LintReport};

fn finding(d: &Diagnostic, out: &mut String) {
    out.push_str("{\"check\":");
    escape(d.check.name(), out);
    out.push_str(",\"severity\":");
    escape(d.severity.name(), out);
    out.push_str(",\"routine\":");
    escape(&d.routine, out);
    out.push_str(",\"addr\":");
    match d.addr {
        Some(a) => {
            let _ = write!(out, "{a}");
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"reg\":");
    match d.reg {
        Some(r) => escape(r.name(), out),
        None => out.push_str("null"),
    }
    out.push_str(",\"slot\":");
    match d.slot {
        Some(off) => {
            let _ = write!(out, "{off}");
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"message\":");
    escape(&d.message, out);
    out.push_str(",\"witness\":[");
    for (i, a) in d.witness.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{a}");
    }
    out.push_str("],\"note\":");
    match &d.note {
        Some(n) => escape(n, out),
        None => out.push_str("null"),
    }
    out.push('}');
}

/// An upper estimate of the bytes [`finding`] writes for `d` when nothing
/// needs escaping: the keys, punctuation and widest scalars are under 160
/// bytes, a witness hop under 11.
fn finding_len(d: &Diagnostic) -> usize {
    160 + d.routine.len()
        + d.message.len()
        + d.note.as_ref().map_or(0, String::len)
        + 11 * d.witness.len()
}

impl LintReport {
    /// Renders the report as a single JSON object. `image` is the path the
    /// program was loaded from, when one exists.
    ///
    /// Schema (stable; drift is caught by a golden test and the CI dogfood
    /// job): `{tool, version, image, summary: {errors, warnings},
    /// findings: [{check, severity, routine, addr, reg, slot, message,
    /// witness, note}]}`.
    pub fn to_json(&self, image: Option<&str>) -> String {
        // Reserved up front so a large report is written without regrowth
        // copies (and a trailing newline still fits, see `lint_report`).
        let findings: usize = self.diagnostics().iter().map(finding_len).sum();
        let mut out = String::with_capacity(160 + image.map_or(0, str::len) + findings);
        out.push_str("{\"tool\":\"spike-lint\",\"version\":");
        escape(env!("CARGO_PKG_VERSION"), &mut out);
        out.push_str(",\"image\":");
        match image {
            Some(p) => escape(p, &mut out),
            None => out.push_str("null"),
        }
        let _ = write!(
            out,
            ",\"summary\":{{\"errors\":{},\"warnings\":{}}},\"findings\":[",
            self.errors(),
            self.warnings()
        );
        for (i, d) in self.diagnostics().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            finding(d, &mut out);
        }
        out.push_str("]}");
        out
    }
}
