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

use spike_core::{AccessKind, Analysis, StackAccess};
use spike_program::Program;

use crate::diag::{Check, Diagnostic, LintReport};
use crate::frame::witness;

pub(crate) fn check(program: &Program, analysis: &Analysis, report: &mut LintReport) {
    for (rid, routine) in program.iter() {
        let rs = analysis.stack.routine(rid);
        if rs.frame.escaped {
            continue;
        }
        for access in analysis.stack.accesses(program, &analysis.cfg, rid) {
            if !access.in_frame {
                let mut d = Diagnostic::new(
                    Check::OutOfFrameAccess,
                    routine.name(),
                    format!(
                        "{} at entry-SP{:+} lies outside the live frame [SP{:+}, entry SP)",
                        verb(&access),
                        access.entry_off,
                        access.sp_disp,
                    ),
                );
                d.addr = Some(access.addr);
                d.slot = Some(access.entry_off);
                report.push(d);
            } else if access.kind == AccessKind::Load && !access.defined_before {
                let mut d = Diagnostic::new(
                    Check::UninitStackRead,
                    routine.name(),
                    format!(
                        "{}-byte stack slot at entry-SP{:+} may be read before any store reaches it",
                        access.width.bytes(),
                        access.entry_off,
                    ),
                );
                d.addr = Some(access.addr);
                d.slot = Some(access.entry_off);
                // A block path from an entrance that avoids every block
                // whose forward *gen* mask certainly stores the slot
                // (directly or via a callee KILL): along it, the load
                // really does observe an unwritten slot.
                if let Some(slot) = rs.frame.slot_at(access.entry_off) {
                    let cfg = analysis.cfg.routine_cfg(rid);
                    let entries = cfg.entries().iter().copied();
                    d.witness = witness(cfg, entries, access.block, |b| {
                        analysis.stack.block_gen(program, &analysis.cfg, rid, b).contains(slot)
                    });
                }
                report.push(d);
            } else if access.kind == AccessKind::Store && !access.live_after {
                let mut d = Diagnostic::new(
                    Check::DeadStackStore,
                    routine.name(),
                    format!(
                        "store to stack slot at entry-SP{:+} is never read on any valid path",
                        access.entry_off,
                    ),
                );
                d.addr = Some(access.addr);
                d.slot = Some(access.entry_off);
                report.push(d);
            }
        }
    }
}

fn verb(access: &StackAccess) -> &'static str {
    match access.kind {
        AccessKind::Load => "stack read",
        AccessKind::Store => "stack store",
    }
}
