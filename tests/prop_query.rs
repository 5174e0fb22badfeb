//! Equivalence of query answers with the whole-program fixpoint.
//!
//! A query ([`spike::core::AnalysisCache::query`]) is a read of the
//! analysis; a cold cache solves the register layers first. These
//! properties pin down the contract: every answer is the bit-identical
//! slice of the whole-program solution, on every paper profile; only the
//! first question on a cache analyzes anything; `reaches` is call-graph
//! reachability; and the single-routine `uninit` check agrees with the
//! full lint pass routine by routine. (What a later `reanalyze` makes of
//! a cache a query warmed is in `tests/prop_incremental.rs`.)

use std::collections::HashSet;

use proptest::prelude::*;

use spike::core::{analyze_with, AnalysisCache, AnalysisOptions, Query, QueryAnswer, QueryStats};
use spike::lint::{Diagnostic, LintReport};
use spike::program::{Program, RoutineId};

/// All sixteen Table-2 profiles, scaled to ~20 routines so that 16 cases
/// sweep every profile shape without analysis dominating the suite.
const PROFILES: [&str; 16] = [
    "compress", "gcc", "go", "ijpeg", "li", "m88ksim", "perl", "vortex", "acad", "excel", "maxeda",
    "sqlservr", "texim", "ustation", "vc", "winword",
];

fn arb_program() -> impl Strategy<Value = Program> {
    (any::<u64>(), 0usize..PROFILES.len()).prop_map(|(seed, i)| {
        let p = spike::synth::profile(PROFILES[i]).expect("known benchmark");
        spike::synth::generate(&p, 20.0 / p.routines as f64, seed)
    })
}

/// A deterministic spread of routine ids across the program.
fn sample_routines(program: &Program) -> Vec<RoutineId> {
    let n = program.routines().len();
    let mut picks: Vec<usize> = vec![0, n / 3, (2 * n) / 3, n - 1, program.entry().index()];
    picks.sort_unstable();
    picks.dedup();
    picks.into_iter().map(RoutineId::from_index).collect()
}

/// Routine-level call-graph reachability (≥ 1 call edge), the ground
/// truth for `Query::Reaches`, computed independently of the cache.
fn reaches_by_dfs(
    program: &Program,
    cfg: &spike::cfg::ProgramCfg,
    from: RoutineId,
) -> HashSet<usize> {
    let graph = spike::callgraph::CallGraph::build(program, cfg);
    let mut seen = HashSet::new();
    let mut stack: Vec<RoutineId> = graph.callees(from).to_vec();
    while let Some(r) = stack.pop() {
        if seen.insert(r.index()) {
            stack.extend(graph.callees(r).iter().copied());
        }
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every query answer equals the corresponding slice of the
    /// whole-program solution, bit for bit, and only the first question
    /// on a cold cache analyzes anything.
    #[test]
    fn queries_match_the_whole_program_slice(program in arb_program()) {
        let options = AnalysisOptions::default();
        let scratch = analyze_with(&program, &options);
        let mut cache = AnalysisCache::new(options);
        for (i, rid) in sample_routines(&program).into_iter().enumerate() {
            let s = scratch.summary.routine(rid);
            let (answer, stats) = cache.query(&program, &Query::Summary(rid));
            let analyzed = if i == 0 { program.routines().len() } else { 0 };
            prop_assert_eq!(stats.routines_analyzed, analyzed);
            let QueryAnswer::Summary { call_used, call_defined, call_killed, saved_restored } =
                answer
            else {
                panic!("summary query must return a summary answer");
            };
            prop_assert_eq!(&call_used, &s.call_used);
            prop_assert_eq!(&call_defined, &s.call_defined);
            prop_assert_eq!(&call_killed, &s.call_killed);
            prop_assert_eq!(saved_restored, s.saved_restored);

            let (answer, _) = cache.query(&program, &Query::LiveAtEntry(rid));
            let QueryAnswer::LiveAtEntry { live_at_entry, live_at_exit } = answer else {
                panic!("liveness query must return a liveness answer");
            };
            prop_assert_eq!(&live_at_entry, &s.live_at_entry);
            prop_assert_eq!(&live_at_exit, &s.live_at_exit);

            // Asking again analyzes nothing.
            let (_, stats) = cache.query(&program, &Query::LiveAtEntry(rid));
            prop_assert_eq!(stats, QueryStats::default());
        }
    }

    /// `Query::Reaches` agrees with an independent DFS over the call
    /// graph, including the self-reach-only-via-a-cycle case.
    #[test]
    fn reaches_matches_call_graph_reachability(program in arb_program()) {
        let options = AnalysisOptions::default();
        let scratch = analyze_with(&program, &options);
        let mut cache = AnalysisCache::new(options);
        for caller in sample_routines(&program) {
            let truth = reaches_by_dfs(&program, &scratch.cfg, caller);
            for callee in sample_routines(&program) {
                let (answer, _) =
                    cache.query(&program, &Query::Reaches { caller, callee });
                prop_assert_eq!(
                    answer,
                    QueryAnswer::Reaches(truth.contains(&callee.index())),
                    "reaches({}, {})",
                    caller.index(),
                    callee.index()
                );
            }
        }
    }

    /// The single-routine `uninit` query finds exactly the full lint
    /// pass's uninit findings for that routine — on programs with a
    /// planted defect, so the equality is about real findings, not just
    /// mutual emptiness.
    #[test]
    fn uninit_query_matches_the_full_check(seed in any::<u64>()) {
        let (program, _) = spike::synth::generate_executable_with_defect(
            seed,
            6,
            spike::synth::DefectKind::UninitRead,
        );
        let analysis = analyze_with(&program, &AnalysisOptions::default());
        let full = spike::lint::lint_with(
            &program,
            &analysis,
            &spike::lint::LintOptions {
                uninit: true,
                clobber: false,
                dead: false,
                reach: false,
                tables: false,
                stack: false,
            },
        );
        for (rid, r) in program.iter() {
            let solo =
                spike::lint::uninit_routine(&program, &analysis.cfg, &analysis.summary, rid);
            // A finding's record and its rendered line: the line holds its
            // message, witness and note.
            let finding = |report: &LintReport, d: &Diagnostic| {
                (d.check, d.severity, d.routine, d.addr, d.reg, d.slot, report.line(d))
            };
            let expected: Vec<_> = full
                .diagnostics()
                .iter()
                .filter(|d| full.routine(d) == r.name())
                .map(|d| finding(&full, d))
                .collect();
            prop_assert_eq!(
                solo.diagnostics().iter().map(|d| finding(&solo, d)).collect::<Vec<_>>(),
                expected,
                "routine {}",
                r.name()
            );
        }
    }
}
