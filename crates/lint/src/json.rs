//! Hand-rolled JSON emission for [`LintReport`] (the build is offline, so
//! no serialization dependency is available — the format is small enough
//! to write directly and is pinned by a golden test, `tests/lint_golden.rs`
//! at the workspace root). String escaping is
//! the shared [`spike_core::json`] writer, so the whole workspace has one
//! escaping bug surface.
//!
//! Each finding's message is written from its record by the same code as
//! the human text (`text.rs`), straight into the output. Only the strings
//! that can hold any byte go through the escaper: routine names (once per
//! run of findings in one routine), a loader text and a note, which may
//! name a routine. Every other message is fixed words, register names and
//! numbers.

use std::fmt::Write as _;

use spike_core::json::escape_into as escape;
use spike_program::RoutineId;

use crate::diag::{Check, Diagnostic, LintReport, Note};

/// The escaped, quoted name of the routine the last finding was in:
/// findings come grouped by routine, so each run escapes its name once.
struct NameCache {
    routine: Option<Option<RoutineId>>,
    json: String,
}

fn finding(report: &LintReport, d: &Diagnostic, name: &mut NameCache, out: &mut String) {
    out.push_str("{\"check\":\"");
    out.push_str(d.check.name());
    out.push_str("\",\"severity\":\"");
    out.push_str(d.severity.name());
    out.push_str("\",\"routine\":");
    if name.routine != Some(d.routine) {
        name.routine = Some(d.routine);
        name.json.clear();
        escape(report.routine(d), &mut name.json);
    }
    out.push_str(&name.json);
    out.push_str(",\"addr\":");
    match d.addr {
        Some(a) => {
            let _ = write!(out, "{a}");
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"reg\":");
    match d.reg {
        Some(r) => {
            out.push('"');
            out.push_str(r.name());
            out.push('"');
        }
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
    if d.check == Check::MalformedImage {
        escape(report.loader_text(), out);
    } else {
        out.push('"');
        report.write_message(d, out);
        out.push('"');
    }
    out.push_str(",\"witness\":[");
    for (i, &a) in report.witness(d).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{a}");
    }
    out.push_str("],\"note\":");
    match report.note_of(d) {
        Note::None => out.push_str("null"),
        note => {
            // A note may name a routine, whose name may need escaping.
            let mut text = String::new();
            report.write_note(d, note, &mut text);
            escape(&text, out);
        }
    }
    out.push('}');
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
        // copies (and a trailing newline still fits, see `lint_report`):
        // the keys and punctuation take under 160 bytes a finding.
        let findings: usize = self.diagnostics().iter().map(|d| 160 + self.text_bound(d)).sum();
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
        let mut name = NameCache { routine: None, json: String::new() };
        for (i, d) in self.diagnostics().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            finding(self, d, &mut name, &mut out);
        }
        out.push_str("]}");
        out
    }
}
