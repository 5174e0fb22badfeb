//! Replays the `Program` counterexample recorded in
//! `prop_invariants.proptest-regressions`.
//!
//! The regression file's comment embeds the complete `Debug` rendering of
//! the shrunken failing program. This test parses that text back into a
//! validated [`Program`] and checks the same CFG/PSG structural invariants
//! as `prop_invariants.rs`, so the recorded counterexample keeps running
//! even under test harnesses that do not replay proptest seed files.

use std::collections::BTreeMap;

use spike::cfg::{BlockId, ProgramCfg, TermKind};
use spike::core::{analyze_with, AnalysisOptions, EdgeId, EdgeKind, NodeId, NodeKind};
use spike::isa::{AluOp, BranchCond, Instruction, MemWidth, Reg};
use spike::program::{IndirectTargets, Program, Routine, RoutineId};

// The Debug-format parser lives in common/ so the forensic example can
// reuse it.
include!("common/regression_parse.rs");

fn recorded_program() -> Program {
    let text = include_str!("prop_invariants.proptest-regressions");
    let marker = "shrinks to program = ";
    let start = text.find(marker).expect("regression file records a program") + marker.len();
    parse_program(text[start..].trim_end())
}

// ---------------------------------------------------------------------------
// The invariants from prop_invariants.rs, as plain assertions
// ---------------------------------------------------------------------------

fn check_cfg_invariants(program: &Program) {
    let pcfg = ProgramCfg::build(program);
    for (rid, routine) in program.iter() {
        let cfg = pcfg.routine_cfg(rid);

        let mut expected = routine.addr();
        for b in cfg.blocks() {
            assert_eq!(b.start(), expected, "{}: blocks tile the routine", routine.name());
            assert!(!b.is_empty());
            expected = b.end();
        }
        assert_eq!(expected, routine.end_addr());

        for (bi, b) in cfg.blocks().iter().enumerate() {
            let me = BlockId::from_index(bi);
            for &s in cfg.succs(me) {
                assert!(cfg.flow().preds(s).contains(&me), "succ/pred duality");
            }
            for &p in cfg.flow().preds(me) {
                assert!(cfg.flow().succs(p).contains(&me), "pred/succ duality");
            }
            match b.term() {
                TermKind::Call { return_to, .. } => {
                    assert!(cfg.succs(me).is_empty());
                    assert!(return_to.is_some());
                }
                TermKind::Ret | TermKind::Halt | TermKind::UnknownJump => {
                    assert!(cfg.succs(me).is_empty());
                }
                TermKind::Branch | TermKind::FallThrough => {
                    assert_eq!(cfg.succs(me).len(), 1);
                }
                TermKind::CondBranch => {
                    assert!(!cfg.succs(me).is_empty() && cfg.succs(me).len() <= 2);
                }
                TermKind::MultiwayJump => {
                    assert!(!cfg.succs(me).is_empty());
                }
            }
        }

        let rets: Vec<_> = cfg
            .blocks()
            .iter()
            .enumerate()
            .filter(|(_, b)| matches!(b.term(), TermKind::Ret))
            .map(|(i, _)| BlockId::from_index(i))
            .collect();
        assert_eq!(cfg.exits(), &rets[..]);
    }
}

fn check_psg_invariants(program: &Program) {
    let analysis = analyze_with(program, &AnalysisOptions::default());
    let psg = &analysis.psg;

    for (ei, edge) in psg.edges().iter().enumerate() {
        let e = EdgeId::from_index(ei);
        let from = psg.node(edge.from());
        let to = psg.node(edge.to());
        assert_eq!(from.routine(), to.routine(), "edges are intraprocedural");
        assert!(psg.out_edges(edge.from()).contains(&e));
        assert!(psg.in_edges(edge.to()).contains(&e));
        match edge.kind() {
            EdgeKind::CallReturn => {
                assert!(
                    matches!(from, NodeKind::Call { .. }) && matches!(to, NodeKind::Return { .. }),
                    "call-return edge endpoints: {from:?} -> {to:?}"
                );
            }
            EdgeKind::FlowSummary => {
                assert!(!matches!(from, NodeKind::Exit { .. }), "exits are sinks");
            }
        }
    }

    for (ni, kind) in psg.nodes().iter().enumerate() {
        let n = NodeId::from_index(ni);
        if matches!(kind, NodeKind::Call { .. }) {
            assert_eq!(psg.out_edges(n).len(), 1, "call nodes have exactly one out-edge");
            assert_eq!(psg.edge(psg.out_edges(n)[0]).kind(), EdgeKind::CallReturn);
        }
    }

    for (rid, _) in program.iter() {
        let cfg = analysis.cfg.routine_cfg(rid);
        let rn = psg.routine_nodes(rid);
        assert_eq!(rn.entries().len(), cfg.entries().len());
        assert_eq!(rn.exits().len(), cfg.exits().len());
        assert_eq!(rn.calls().len(), cfg.call_count());
    }

    let caller_saved = analysis.summary.calling_standard().caller_saved();
    for (rid, r) in program.iter() {
        let s = analysis.summary.routine(rid);
        for (d, k) in s.call_defined.iter().zip(&s.call_killed) {
            assert!(
                d.is_subset(*k) || caller_saved.is_subset(*d),
                "{}: must-def ⊄ may-def and not vacuous: {} vs {}",
                r.name(),
                d,
                k
            );
        }
    }
}

#[test]
fn recorded_counterexample_parses_to_twenty_routines() {
    let program = recorded_program();
    assert_eq!(program.routines().len(), 20);
    assert_eq!(program.entry(), RoutineId::from_index(0));
}

#[test]
fn recorded_counterexample_satisfies_cfg_invariants() {
    check_cfg_invariants(&recorded_program());
}

#[test]
fn recorded_counterexample_satisfies_psg_invariants() {
    check_psg_invariants(&recorded_program());
}

#[test]
fn recorded_counterexample_round_trips_through_debug() {
    let text = include_str!("prop_invariants.proptest-regressions");
    let marker = "shrinks to program = ";
    let start = text.find(marker).expect("regression file records a program") + marker.len();
    let recorded = text[start..].trim_end();
    let reparsed = format!("{:?}", recorded_program());
    assert_eq!(reparsed, recorded, "parser must reconstruct the recorded program exactly");
}
