//! Brute-force sweep of the CFG/PSG structural invariants over the
//! synthetic generator, far past the 16 cases the property tests run.
//!
//! Usage: `cargo run --release --example invariant_sweep [seeds-per-profile]`
//!
//! Prints the first failing (profile, seed) pair and panics, or reports a
//! clean sweep. Used to hunt generator-shape-dependent construction bugs.

use spike::cfg::{BlockId, ProgramCfg, TermKind};
use spike::core::{analyze_with, AnalysisOptions, EdgeId, EdgeKind, NodeId, NodeKind};
use spike::program::Program;

fn check_cfg(program: &Program) {
    let pcfg = ProgramCfg::build(program);
    for (rid, routine) in program.iter() {
        let cfg = pcfg.routine_cfg(rid);
        let mut expected = routine.addr();
        for b in cfg.blocks() {
            assert_eq!(b.start(), expected, "blocks tile {}", routine.name());
            assert!(!b.is_empty());
            expected = b.end();
        }
        assert_eq!(expected, routine.end_addr());
        for (bi, b) in cfg.blocks().iter().enumerate() {
            let me = BlockId::from_index(bi);
            for &s in cfg.succs(me) {
                assert!(cfg.flow().preds(s).contains(&me));
            }
            for &p in cfg.flow().preds(me) {
                assert!(cfg.flow().succs(p).contains(&me));
            }
            match b.term() {
                TermKind::Call { return_to, .. } => {
                    assert!(cfg.succs(me).is_empty());
                    assert!(return_to.is_some());
                }
                TermKind::Ret | TermKind::Halt | TermKind::UnknownJump => {
                    assert!(cfg.succs(me).is_empty());
                }
                TermKind::Branch | TermKind::FallThrough => assert_eq!(cfg.succs(me).len(), 1),
                TermKind::CondBranch => {
                    assert!(!cfg.succs(me).is_empty() && cfg.succs(me).len() <= 2);
                }
                TermKind::MultiwayJump => assert!(!cfg.succs(me).is_empty()),
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

fn check_psg(program: &Program) {
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
                    "call-return endpoints {from:?} -> {to:?}"
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
            assert_eq!(psg.out_edges(n).len(), 1, "call node out-degree");
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

fn main() {
    let per_profile: u64 = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(500);
    for name in ["li", "perl", "vortex", "sqlservr"] {
        let p = spike::synth::profile(name).expect("known benchmark");
        let scale = 20.0 / p.routines as f64;
        for seed in 0..per_profile {
            let program = std::panic::catch_unwind(|| spike::synth::generate(&p, scale, seed))
                .unwrap_or_else(|_| panic!("GENERATE PANIC at profile={name} seed={seed}"));
            let r = std::panic::catch_unwind(|| {
                check_cfg(&program);
                check_psg(&program);
            });
            if r.is_err() {
                eprintln!("FAILURE at profile={name} seed={seed}");
                std::process::exit(1);
            }
        }
        println!("profile {name}: {per_profile} seeds clean");
    }
    println!("sweep clean");
}
