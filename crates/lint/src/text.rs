//! The human text of a report: every message, note and line, written at
//! render time straight into the output buffer from a finding's record
//! and the report's tables. The JSON writer (`json.rs`) writes its
//! messages and notes with the same functions.

use std::fmt::Write as _;

use spike_core::AccessKind;

use crate::diag::{Callee, Check, Diagnostic, LintReport, Note, Operands};

impl LintReport {
    /// Appends finding `d`'s message. Only a `malformed-image` message can
    /// hold bytes JSON must escape: the others are fixed words, register
    /// names and numbers.
    pub(crate) fn write_message(&self, d: &Diagnostic, out: &mut String) {
        let reg = d.reg.map_or("?", |r| r.name());
        let slot = d.slot.unwrap_or(0);
        let addr = d.addr.unwrap_or(0);
        let operands = self.detail(d).map_or(Operands::None, |x| x.operands);
        match d.check {
            Check::UninitRead => {
                out.push_str("register ");
                out.push_str(reg);
                out.push_str(" may be read before it is initialized");
            }
            Check::CalleeSavedClobber => {
                out.push_str("callee-saved register ");
                out.push_str(reg);
                out.push_str(
                    " is overwritten on a path that returns, without a matching save and restore",
                );
            }
            Check::DeadStore => {
                out.push_str("the value written to ");
                out.push_str(reg);
                out.push_str(" is never read on any valid path");
            }
            Check::DeadArgument => {
                out.push_str("argument register ");
                out.push_str(reg);
                out.push_str(" is set, but the call ending this block does not read it");
            }
            Check::UnreachableRoutine => out.push_str(
                "no known call path from the program entry or an exported routine reaches this \
                 routine",
            ),
            Check::UnreachableBlock => {
                out.push_str("no path from a routine entrance reaches this block")
            }
            Check::EmptyJumpTable => {
                let _ = write!(
                    out,
                    "the jump table for the multiway jump at {addr:#x} is empty: \
                     the jump has no successors and code after it is lost"
                );
            }
            Check::DuplicateJumpTargets => {
                let Operands::Duplicate { target, count } = operands else {
                    unreachable!("a duplicate-jump-targets finding has its operands")
                };
                let _ = write!(
                    out,
                    "the jump table at {addr:#x} lists target {target:#x} {count} times"
                );
            }
            Check::MalformedImage => out.push_str(self.loader_text()),
            Check::UninitStackRead => {
                let Operands::StackRead(width) = operands else {
                    unreachable!("an uninit-stack-read finding has its width")
                };
                let _ = write!(
                    out,
                    "{}-byte stack slot at entry-SP{slot:+} may be read before any store reaches it",
                    width.bytes()
                );
            }
            Check::OutOfFrameAccess => {
                let Operands::OutOfFrame { kind, sp_disp } = operands else {
                    unreachable!("an out-of-frame-access finding has its operands")
                };
                out.push_str(match kind {
                    AccessKind::Load => "stack read",
                    AccessKind::Store => "stack store",
                });
                let _ = write!(
                    out,
                    " at entry-SP{slot:+} lies outside the live frame [SP{sp_disp:+}, entry SP)"
                );
            }
            Check::DeadStackStore => {
                let _ = write!(
                    out,
                    "store to stack slot at entry-SP{slot:+} is never read on any valid path"
                );
            }
        }
    }

    /// Finding `d`'s note, [`Note::None`] when it has none.
    pub(crate) fn note_of(&self, d: &Diagnostic) -> Note {
        self.detail(d).map_or(Note::None, |x| x.note)
    }

    /// Appends the words of `note`, finding `d`'s note. A callee it names
    /// is written as is.
    pub(crate) fn write_note(&self, d: &Diagnostic, note: Note, out: &mut String) {
        match note {
            Note::None => {}
            Note::Demoted => {
                out.push_str("demoted to a warning: the routine contains an unknown-target jump")
            }
            Note::ReturnValue(callee) => {
                out.push_str("return value expected from the call to ");
                out.push_str(match callee {
                    Callee::Routine(r) => self.routine_name(r),
                    Callee::Indirect => "an indirect callee",
                });
                out.push_str(", which does not always define ");
                out.push_str(d.reg.map_or("?", |r| r.name()));
            }
        }
    }

    /// Appends finding `d`'s human line, without a newline:
    /// `severity[check] routine+addr: message (path: …); note: …`.
    pub(crate) fn write_line(&self, d: &Diagnostic, out: &mut String) {
        out.push_str(d.severity.name());
        out.push('[');
        out.push_str(d.check.name());
        out.push(']');
        let routine = self.routine(d);
        if !routine.is_empty() {
            out.push(' ');
            out.push_str(routine);
        }
        if let Some(addr) = d.addr {
            let _ = write!(out, "+{addr:#x}");
        }
        out.push_str(": ");
        self.write_message(d, out);
        if let Some((first, rest)) = self.witness(d).split_first() {
            let _ = write!(out, " (path: {first:#x}");
            for a in rest {
                let _ = write!(out, " -> {a:#x}");
            }
            out.push(')');
        }
        let note = self.note_of(d);
        if note != Note::None {
            out.push_str("; note: ");
            self.write_note(d, note, out);
        }
    }

    /// An upper bound on the bytes finding `d`'s human line takes, and on
    /// what its routine name, message, witness and note take in JSON when
    /// nothing needs escaping: the line's prefix is under 64 bytes, the
    /// longest message other than a loader text under 128, a note's words
    /// under 100 and a path hop under 16.
    pub(crate) fn text_bound(&self, d: &Diagnostic) -> usize {
        let mut n = 192 + self.routine(d).len();
        if let Some(x) = self.detail(d) {
            n += 100 + 16 * self.witness(d).len();
            if let Note::ReturnValue(Callee::Routine(r)) = x.note {
                n += self.routine_name(r).len();
            }
        }
        if d.check == Check::MalformedImage {
            n += self.loader_text().len();
        }
        n
    }

    /// The human report: one line per finding, then
    /// `[image: ]E error(s), W warning(s)` with no trailing newline.
    /// `Display` writes it without an image name.
    pub fn to_human(&self, image: Option<&str>) -> String {
        let findings: usize = self.diagnostics().iter().map(|d| self.text_bound(d)).sum();
        let mut out = String::with_capacity(64 + image.map_or(0, str::len) + findings);
        for d in self.diagnostics() {
            self.write_line(d, &mut out);
            out.push('\n');
        }
        if let Some(image) = image {
            out.push_str(image);
            out.push_str(": ");
        }
        let _ = write!(out, "{} error(s), {} warning(s)", self.errors(), self.warnings());
        out
    }

    /// Finding `d`'s line of the human report, without a newline.
    pub fn line(&self, d: &Diagnostic) -> String {
        let mut out = String::new();
        self.write_line(d, &mut out);
        out
    }
}
