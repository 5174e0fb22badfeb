//! Structural invariants of the CFG and PSG, property-tested over the
//! synthetic generators.

use proptest::prelude::*;

use spike::cfg::{ProgramCfg, TermKind};
use spike::core::{analyze_with, AnalysisOptions, EdgeKind, NodeKind};
use spike::program::Program;

fn arb_program() -> impl Strategy<Value = Program> {
    (any::<u64>(), prop_oneof![Just("li"), Just("perl"), Just("vortex"), Just("sqlservr")])
        .prop_map(|(seed, name)| {
            let p = spike::synth::profile(name).expect("known benchmark");
            spike::synth::generate(&p, 20.0 / p.routines as f64, seed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Blocks tile each routine exactly; successor and predecessor lists
    /// are duals; terminator kinds imply the right successor shapes.
    #[test]
    fn cfg_structure_is_consistent(program in arb_program()) {
        let pcfg = ProgramCfg::build(&program);
        for (rid, routine) in program.iter() {
            let cfg = pcfg.routine_cfg(rid);

            // Partition: blocks cover [addr, end) contiguously.
            let mut expected = routine.addr();
            for b in cfg.blocks() {
                prop_assert_eq!(b.start(), expected);
                prop_assert!(!b.is_empty());
                expected = b.end();
            }
            prop_assert_eq!(expected, routine.end_addr());

            // Duality: a ∈ succs(b) ⇔ b ∈ preds(a).
            for (bi, b) in cfg.blocks().iter().enumerate() {
                let me = spike::cfg::BlockId::from_index(bi);
                for &s in cfg.succs(me) {
                    prop_assert!(cfg.flow().preds(s).contains(&me));
                }
                for &p in cfg.flow().preds(me) {
                    prop_assert!(cfg.flow().succs(p).contains(&me));
                }

                // Terminator shape.
                match b.term() {
                    TermKind::Call { return_to, .. } => {
                        prop_assert!(cfg.succs(me).is_empty());
                        prop_assert!(return_to.is_some());
                    }
                    TermKind::Ret | TermKind::Halt | TermKind::UnknownJump => {
                        prop_assert!(cfg.succs(me).is_empty());
                    }
                    TermKind::Branch | TermKind::FallThrough => {
                        prop_assert_eq!(cfg.succs(me).len(), 1);
                    }
                    TermKind::CondBranch => {
                        prop_assert!(!cfg.succs(me).is_empty() && cfg.succs(me).len() <= 2);
                    }
                    TermKind::MultiwayJump => {
                        prop_assert!(!cfg.succs(me).is_empty());
                    }
                }
            }

            // Exits are exactly the Ret blocks.
            let rets: Vec<_> = cfg
                .blocks()
                .iter()
                .enumerate()
                .filter(|(_, b)| matches!(b.term(), TermKind::Ret))
                .map(|(i, _)| spike::cfg::BlockId::from_index(i))
                .collect();
            prop_assert_eq!(cfg.exits(), &rets[..]);
        }
    }

    /// PSG wiring: flow edges stay within one routine, call-return edges
    /// connect a call node to its own return node, adjacency lists are
    /// duals, and node inventories match the CFG.
    #[test]
    fn psg_structure_is_consistent(program in arb_program()) {
        let analysis = analyze_with(&program, &AnalysisOptions::default());
        let psg = &analysis.psg;

        for (ei, edge) in psg.edges().iter().enumerate() {
            let e = spike::core::EdgeId::from_index(ei);
            let from = psg.node(edge.from());
            let to = psg.node(edge.to());
            prop_assert_eq!(from.routine(), to.routine(), "edges are intraprocedural");
            prop_assert!(psg.out_edges(edge.from()).contains(&e));
            prop_assert!(psg.in_edges(edge.to()).contains(&e));
            match edge.kind() {
                EdgeKind::CallReturn => {
                    let ok = matches!(from, NodeKind::Call { .. })
                        && matches!(to, NodeKind::Return { .. });
                    prop_assert!(ok, "call-return edge endpoints: {from:?} -> {to:?}");
                }
                EdgeKind::FlowSummary => {
                    prop_assert!(!matches!(from, NodeKind::Exit { .. }),
                        "exits are sinks");
                }
            }
        }

        // Each call node has exactly one outgoing edge: its call-return
        // edge (§3.1).
        for (ni, kind) in psg.nodes().iter().enumerate() {
            let n = spike::core::NodeId::from_index(ni);
            if matches!(kind, NodeKind::Call { .. }) {
                prop_assert_eq!(psg.out_edges(n).len(), 1);
                let e = psg.edge(psg.out_edges(n)[0]);
                prop_assert_eq!(e.kind(), EdgeKind::CallReturn);
            }
        }

        // Node inventory matches the CFG.
        for (rid, _) in program.iter() {
            let cfg = analysis.cfg.routine_cfg(rid);
            let rn = psg.routine_nodes(rid);
            prop_assert_eq!(rn.entries().len(), cfg.entries().len());
            prop_assert_eq!(rn.exits().len(), cfg.exits().len());
            prop_assert_eq!(rn.calls().len(), cfg.call_count());
        }

        // Summary sanity: call-defined ⊆ call-killed (must ⊆ may) — except
        // for routines with no returning path, whose MUST-DEF is vacuously
        // ⊤ (see DESIGN.md on halt/diverge sinks). The vacuous case is
        // recognizable: it contains every caller-saved register at once.
        let caller_saved = analysis.summary.calling_standard().caller_saved();
        for (rid, r) in program.iter() {
            let s = analysis.summary.routine(rid);
            for (d, k) in s.call_defined.iter().zip(&s.call_killed) {
                prop_assert!(
                    d.is_subset(*k) || caller_saved.is_subset(*d),
                    "{}: must-def ⊄ may-def and not vacuous: {} vs {}",
                    r.name(),
                    d,
                    k
                );
            }
        }
    }

    /// The whole analysis is deterministic: same program, same results.
    #[test]
    fn analysis_is_deterministic(seed in any::<u64>()) {
        let p = spike::synth::profile("go").expect("known benchmark");
        let program = spike::synth::generate(&p, 15.0 / p.routines as f64, seed);
        let a = analyze_with(&program, &AnalysisOptions::default());
        let b = analyze_with(&program, &AnalysisOptions::default());
        for (rid, _) in program.iter() {
            prop_assert_eq!(a.summary.routine(rid), b.summary.routine(rid));
        }
        prop_assert_eq!(a.stats.memory_bytes, b.stats.memory_bytes);
        prop_assert_eq!(a.psg.stats().edges, b.psg.stats().edges);
    }
}
