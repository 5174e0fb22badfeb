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

use std::collections::VecDeque;

use spike_cfg::BlockId;
use spike_core::{AccessKind, Analysis, StackAccess};
use spike_program::{Program, RoutineId};

use crate::diag::{Check, Diagnostic, LintReport};
use crate::frame::LintFrame;

pub(crate) fn check(
    program: &Program,
    analysis: &Analysis,
    frame: &LintFrame,
    report: &mut LintReport,
) {
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
                d.witness = witness_path(program, analysis, frame, rid, &access);
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

/// A block path from a routine entrance to the offending load that
/// avoids every block whose forward *gen* mask certainly stores the
/// slot — along it, the load really does observe an unwritten slot.
fn witness_path(
    program: &Program,
    analysis: &Analysis,
    frame: &LintFrame,
    rid: RoutineId,
    access: &StackAccess,
) -> Vec<u32> {
    let rs = analysis.stack.routine(rid);
    let Some(slot) = rs.frame.slot_at(access.entry_off) else {
        return Vec::new();
    };
    let cfg = analysis.cfg.routine_cfg(rid);
    let arcs = &frame.routine(rid).arcs;
    let nb = cfg.blocks().len();
    let target = access.block;
    let mut parent: Vec<Option<BlockId>> = vec![None; nb];
    let mut visited = vec![false; nb];
    let mut q = VecDeque::new();
    for &b in cfg.entries() {
        if !visited[b.index()] {
            visited[b.index()] = true;
            q.push_back(b);
        }
    }
    let mut found = false;
    while let Some(b) = q.pop_front() {
        if b == target {
            found = true;
            break;
        }
        // Every path through this block stores the slot (directly or
        // via a callee KILL): it stops witnessing.
        if analysis.stack.block_gen(program, &analysis.cfg, rid, b).contains(slot) {
            continue;
        }
        for &s in arcs.succs(b) {
            if !visited[s.index()] {
                visited[s.index()] = true;
                parent[s.index()] = Some(b);
                q.push_back(s);
            }
        }
    }
    if !found {
        return vec![cfg.block(target).start()];
    }
    let mut path = Vec::new();
    let mut cur = Some(target);
    while let Some(b) = cur {
        path.push(cfg.block(b).start());
        cur = parent[b.index()];
    }
    path.reverse();
    path
}

fn verb(access: &StackAccess) -> &'static str {
    match access.kind {
        AccessKind::Load => "stack read",
        AccessKind::Store => "stack store",
    }
}
