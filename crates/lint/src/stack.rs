//! Stack-slot checks: `uninit-stack-read`, `out-of-frame-access` and
//! `dead-stack-store`, driven by the interprocedural stack-slot
//! analysis (`spike_core::StackAnalysis`).
//!
//! The analysis classifies every SP-relative access of every
//! non-escaped routine; this module only phrases the findings:
//!
//! * a `Load` inside the frame whose slot is not MUST-defined on some
//!   path is an uninitialized read (error) — witnessed by a block path
//!   from an entrance that avoids every block certainly storing the
//!   slot, exactly like the register `uninit-read` witness;
//! * an access outside the live frame region `[sp, entry_sp)` (error) —
//!   it touches caller memory or below-SP garbage, the same bounds the
//!   per-slot shadow simulator faults on;
//! * a `Store` whose slot no valid path reads before it is popped or
//!   overwritten (warning) — the slot analogue of a dead register
//!   store, and exactly what the optimizer's stack DSE deletes.
//!
//! Escaped frames produce no findings: the model cannot judge them, and
//! soundness there is the shadow oracle's job alone.

use spike_core::{AccessKind, Analysis};
use spike_program::Program;

use crate::diag::{Check, Diagnostic, LintReport, Note, Operands};
use crate::frame::witness;

pub(crate) fn check(program: &Program, analysis: &Analysis, report: &mut LintReport) {
    for (rid, _) in program.iter() {
        let rs = analysis.stack.routine(rid);
        if rs.frame.escaped {
            continue;
        }
        for access in analysis.stack.accesses(program, &analysis.cfg, rid) {
            let finding = |check| {
                let mut d = Diagnostic::new(check, Some(rid), Some(access.addr));
                d.slot = Some(access.entry_off);
                d
            };
            if !access.in_frame {
                let operands = Operands::OutOfFrame { kind: access.kind, sp_disp: access.sp_disp };
                report.push_detailed(finding(Check::OutOfFrameAccess), operands, &[], Note::None);
            } else if access.kind == AccessKind::Load && !access.defined_before {
                // A block path from an entrance that avoids every block
                // whose forward *gen* mask certainly stores the slot
                // (directly or via a callee KILL): along it, the load
                // really does observe an unwritten slot.
                let path = match rs.frame.slot_at(access.entry_off) {
                    Some(slot) => {
                        let cfg = analysis.cfg.routine_cfg(rid);
                        let entries = cfg.entries().iter().copied();
                        witness(cfg, entries, access.block, |b| {
                            analysis.stack.block_gen(program, &analysis.cfg, rid, b).contains(slot)
                        })
                    }
                    None => Vec::new(),
                };
                let operands = Operands::StackRead(access.width);
                report.push_detailed(finding(Check::UninitStackRead), operands, &path, Note::None);
            } else if access.kind == AccessKind::Store && !access.live_after {
                report.push(finding(Check::DeadStackStore));
            }
        }
    }
}
