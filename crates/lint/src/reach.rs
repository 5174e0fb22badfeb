//! Unreachable-code warnings: routines no known call path reaches, and
//! blocks no intra-routine path from an entrance reaches.

use spike_callgraph::CallGraph;
use spike_core::Analysis;
use spike_program::{Program, RoutineId};

use crate::diag::{Check, Diagnostic, LintReport};

/// Flags routines not reachable in the may-call graph from the program
/// entry or any exported routine. Unknown-target indirect calls could in
/// principle reach anything, so this stays a warning: "no *known* call
/// path".
pub(crate) fn check_routines(program: &Program, callgraph: &CallGraph, report: &mut LintReport) {
    let roots: Vec<RoutineId> = std::iter::once(program.entry())
        .chain(program.iter().filter(|(_, r)| r.exported()).map(|(rid, _)| rid))
        .collect();
    let reached = callgraph.callee_closure(&roots);
    for (rid, r) in program.iter() {
        if !reached[rid.index()] {
            report.push(Diagnostic::new(Check::UnreachableRoutine, Some(rid), Some(r.addr())));
        }
    }
}

/// Flags blocks no path from a routine entrance reaches. Routines with an
/// unknown-target jump are skipped: the jump may land on any block.
pub(crate) fn check_blocks(program: &Program, analysis: &Analysis, report: &mut LintReport) {
    for (rid, _) in program.iter() {
        let cfg = analysis.cfg.routine_cfg(rid);
        if !cfg.unknown_jumps().is_empty() {
            continue;
        }
        let live = cfg.flow().reachable_from(cfg.entries());
        for (bi, block) in cfg.blocks().iter().enumerate() {
            if !live[bi] {
                report.push(Diagnostic::new(
                    Check::UnreachableBlock,
                    Some(rid),
                    Some(block.start()),
                ));
            }
        }
    }
}
