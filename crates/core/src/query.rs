//! Demand-driven queries: solve only the cone of the call graph a
//! single question actually depends on.
//!
//! The whole-program engine ([`crate::analyze_with`]) always converges
//! both phases over every routine, so an interactive question about one
//! routine — its entry summary, its liveness, one lint check — pays the
//! full gcc-scale solve. But the two phases have *strictly directional*
//! interprocedural flow over the call-graph condensation:
//!
//! * **Phase 1** (summaries, §3.2) flows callee→caller only: a
//!   routine's `MAY-USE`/`MAY-DEF`/`MUST-DEF` entry values depend on
//!   nothing outside the *callee closure* of its component.
//! * **Phase 2** (liveness, §3.3) flows caller→callee only: a
//!   routine's `LIVE` values depend on the *caller closure* of its
//!   component — plus, because phase 2 warm-starts from the phase-1
//!   `MAY-USE` fixpoint and reads call-return labels, on phase 1 over
//!   the callee closure of that caller closure.
//!
//! [`QueryEngine`] therefore builds the front end once (CFGs, PSG,
//! call-graph [`Condensation`] and the PSG's node partition by
//! component) and then solves *on demand*: a query walks the
//! condensation to collect its cone, runs the one phase solver
//! ([`crate::dataflow`]) scoped to the components of the cone that no
//! earlier query has solved, and memoizes the result per component.
//!
//! **Exactness.** A scoped run writes only the values of in-scope nodes
//! and the labels of call-return edges whose call node is in scope.
//! Everything it reads across the scope boundary is final: a phase-1
//! scope is callee-closed over solved components, so the source entries
//! its call-return labels are pulled from are in scope or converged; a
//! phase-2 scope is caller-closed over solved components, so the return
//! nodes replayed into its exits are too. The scoped system is therefore
//! the whole-program system restricted to the scope with its inputs at
//! their final values, and — the least fixpoint of a monotone system
//! being unique — every solved component holds exactly the values the
//! whole-program fixpoint assigns it. Query answers are bit-identical to
//! the corresponding slice of [`crate::analyze_with`]'s solution
//! (property-tested in `tests/prop_query.rs`). For the same reason a
//! fully drained engine promotes into a whole-program [`Analysis`] via
//! [`QueryEngine::into_analysis`], which is how
//! [`AnalysisCache::reanalyze`](crate::AnalysisCache::reanalyze)
//! reuses memoized components instead of re-solving from scratch.

use std::fmt;
use std::time::{Duration, Instant};

use spike_callgraph::Condensation;
use spike_cfg::{ProgramCfg, RoutineCfg};
use spike_isa::{CallingStandard, CloneExact, HeapSize, RegSet};
use spike_program::{Program, RoutineId};

use crate::analysis::{exported_exit_seeds, Analysis, AnalysisOptions, AnalysisStats, Calls};
use crate::build::build_psg;
use crate::dataflow::{run_phase1_seeded, run_phase2_seeded};
use crate::parallel::{par_for_each_mut, par_map, resolve_threads};
use crate::psg::{NodeId, Psg};
use crate::summary::ProgramSummary;

/// One demand-driven question about the analyzed program.
///
/// The uninitialized-read check is also answerable on demand, but it
/// lives in `spike-lint`; see
/// [`AnalysisCache::with_uninit_facts`](crate::AnalysisCache::with_uninit_facts)
/// for the entry point that hands the lint check exactly the cone of
/// facts it needs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Query {
    /// The routine's phase-1 entry summary: `call-used`,
    /// `call-defined`, `call-killed` per entrance, and the §3.4
    /// saved/restored set. Needs phase 1 over the callee closure.
    Summary(RoutineId),
    /// The routine's liveness: `live-at-entry` per entrance and
    /// `live-at-exit` per exit. Needs phase 2 over the caller closure
    /// (and phase 1 over that closure's callee closure).
    LiveAtEntry(RoutineId),
    /// Whether `caller` transitively calls `callee` (a call path of at
    /// least one edge). Pure condensation reachability; solves nothing.
    Reaches {
        /// The routine the path starts from.
        caller: RoutineId,
        /// The routine the path must reach.
        callee: RoutineId,
    },
}

/// The answer to a [`Query`], sliced bit-identically from the
/// whole-program fixpoint.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum QueryAnswer {
    /// Answer to [`Query::Summary`], one entry per entrance.
    Summary {
        /// `MAY-USE` at each entrance, saved/restored filtered.
        call_used: Vec<RegSet>,
        /// `MUST-DEF` at each entrance, saved/restored filtered.
        call_defined: Vec<RegSet>,
        /// `MAY-DEF` at each entrance, saved/restored filtered.
        call_killed: Vec<RegSet>,
        /// The §3.4 saved-and-restored set.
        saved_restored: RegSet,
    },
    /// Answer to [`Query::LiveAtEntry`].
    LiveAtEntry {
        /// Liveness at each entrance.
        live_at_entry: Vec<RegSet>,
        /// Liveness at each exit.
        live_at_exit: Vec<RegSet>,
    },
    /// Answer to [`Query::Reaches`].
    Reaches(bool),
}

/// Effort accounting for one query: how big its cone was and how much
/// of it actually had to be solved (the rest was memoized). A repeated
/// query reports zero components solved and zero visits.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct QueryStats {
    /// Components in the query's phase-1 dependency cone (solved by
    /// this query or memoized by an earlier one).
    pub phase1_cone_components: usize,
    /// Components in the query's phase-2 dependency cone.
    pub phase2_cone_components: usize,
    /// Routines in the phase-1 cone.
    pub cone_routines: usize,
    /// Components whose phase-1 fixpoint this query solved.
    pub phase1_components_solved: usize,
    /// Components whose phase-2 fixpoint this query solved.
    pub phase2_components_solved: usize,
    /// PSG node evaluations this query performed.
    pub visits: usize,
    /// The answer was sliced from an already converged whole-program
    /// analysis; no demand machinery ran.
    pub answered_from_full: bool,
}

/// The demand-driven engine: the analysis front end plus per-component
/// memoized fixpoints.
///
/// Construction pays the front end (CFG build, `DEF`/`UBD`
/// initialization, PSG build, condensation); each
/// [`query`](Self::query) then solves only the unsolved part of its
/// cone. All values live in the one shared [`Psg`], so memoization is
/// free: a solved component's values simply stay put.
pub struct QueryEngine {
    cfg: ProgramCfg,
    psg: Psg,
    cond: Condensation,
    /// Per component: the PSG nodes its routines own, ascending.
    comp_nodes: Vec<Vec<NodeId>>,
    /// Precomputed at construction (needs only PSG structure), so
    /// phase-2 component initialization and promotion are
    /// program-free.
    exit_seeds: Vec<(NodeId, RegSet)>,
    /// Per routine: whether it directly calls itself. The condensation
    /// drops self-loops, so singleton-component reachability needs it.
    self_call: Vec<bool>,
    /// Per component: phase-1 fixpoint converged. Invariant: solved
    /// implies every callee component solved.
    p1_solved: Vec<bool>,
    /// Per component: phase-2 fixpoint converged (and its liveness
    /// initialized). Invariant: solved implies every caller component
    /// solved.
    p2_solved: Vec<bool>,
    calling_standard: CallingStandard,
    /// The stack-slot layer, computed eagerly at construction (the
    /// engine keeps no program reference, and the layer is front-end
    /// cheap next to the register phases); promotion moves it out.
    stack: crate::stack::StackAnalysis,
    stack_stats: crate::stack::StackStats,
    stack_build: Duration,
    // Accumulated effort, reported by `into_analysis` as the promoted
    // run's stats.
    front_end_workers: usize,
    cfg_build: Duration,
    init: Duration,
    psg_build: Duration,
    phase1_time: Duration,
    phase2_time: Duration,
    phase1_visits: usize,
    phase2_visits: usize,
}

impl QueryEngine {
    /// Builds the engine: the same front end as
    /// [`crate::analyze_with`] (bit-identical CFGs and PSG) and the
    /// call-graph condensation — but no fixpoint solving at all.
    pub fn new(program: &Program, options: &AnalysisOptions) -> QueryEngine {
        let n_routines = program.routines().len();
        let workers = resolve_threads(options.threads).clamp(1, n_routines.max(1));

        let t = Instant::now();
        let mut cfgs: Vec<RoutineCfg> = par_map(n_routines, workers, |i| {
            RoutineCfg::build_structure(program, RoutineId::from_index(i))
        });
        let cfg_build = t.elapsed();

        let t = Instant::now();
        par_for_each_mut(&mut cfgs, workers, |c| c.init_def_ubd(program));
        let init = t.elapsed();
        let cfg = ProgramCfg::from_cfgs(cfgs);

        let t = Instant::now();
        let psg = build_psg(program, &cfg, options, workers);
        let psg_build = t.elapsed();

        let t = Instant::now();
        let calls = Calls::of(program, &cfg);
        let graph = &calls.graph;
        let cond = calls.sccs.condense(graph);
        let comp_nodes = psg.partition_by_component(cond.sccs());
        let exit_seeds = exported_exit_seeds(program, &psg, options);
        let self_call: Vec<bool> = (0..n_routines)
            .map(|i| {
                let r = RoutineId::from_index(i);
                graph.callees(r).contains(&r)
            })
            .collect();
        let phase1_time = t.elapsed();

        let t = Instant::now();
        let (stack, stack_stats) = crate::stack::analyze_stack_over(program, &cfg, &calls);
        let stack_build = t.elapsed();

        let components = comp_nodes.len();
        QueryEngine {
            cfg,
            psg,
            cond,
            comp_nodes,
            exit_seeds,
            self_call,
            p1_solved: vec![false; components],
            p2_solved: vec![false; components],
            calling_standard: options.calling_standard,
            stack,
            stack_stats,
            stack_build,
            front_end_workers: workers,
            cfg_build,
            init,
            psg_build,
            phase1_time,
            phase2_time: Duration::ZERO,
            phase1_visits: 0,
            phase2_visits: 0,
        }
    }

    /// The number of routines the engine was built over.
    pub fn routines(&self) -> usize {
        self.psg.all_routine_nodes().len()
    }

    /// Deterministic heap estimate (CFGs + PSG), for byte-budgeted
    /// caches. Solving mutates values in place, so this is constant
    /// over the engine's lifetime.
    pub fn heap_bytes(&self) -> usize {
        self.cfg.heap_bytes() + self.psg.heap_bytes() + self.stack.heap_bytes()
    }

    /// The control-flow graphs the engine analyzes over.
    pub fn cfg(&self) -> &ProgramCfg {
        &self.cfg
    }

    /// Answers one query, solving the unsolved part of its cone.
    pub fn query(&mut self, query: &Query) -> (QueryAnswer, QueryStats) {
        let mut stats = QueryStats::default();
        let answer = match *query {
            Query::Summary(r) => {
                let c = self.cond.sccs().component_of(r);
                self.ensure_phase1(&[c], &mut stats);
                let rn = self.psg.routine_nodes(r);
                let csr = rn.saved_restored();
                let entries = rn.entries().to_vec();
                QueryAnswer::Summary {
                    call_used: entries.iter().map(|&n| self.psg.may_use(n) - csr).collect(),
                    call_defined: entries.iter().map(|&n| self.psg.must_def(n) - csr).collect(),
                    call_killed: entries.iter().map(|&n| self.psg.may_def(n) - csr).collect(),
                    saved_restored: csr,
                }
            }
            Query::LiveAtEntry(r) => {
                let c = self.cond.sccs().component_of(r);
                self.ensure_phase2(c, &mut stats);
                let rn = self.psg.routine_nodes(r);
                QueryAnswer::LiveAtEntry {
                    live_at_entry: rn.entries().iter().map(|&n| self.psg.live(n)).collect(),
                    live_at_exit: rn.exits().iter().map(|&n| self.psg.live(n)).collect(),
                }
            }
            Query::Reaches { caller, callee } => QueryAnswer::Reaches(self.reaches(caller, callee)),
        };
        (answer, stats)
    }

    /// Ensures phase-1 facts for every routine whose `call-defined`
    /// summary the single-routine uninitialized-read check of `routine`
    /// reads: phase 1 over the callee closure of `routine`'s caller
    /// closure. The check itself runs in `spike-lint`; this makes the
    /// facts it pulls exact.
    pub fn ensure_uninit(&mut self, routine: RoutineId) -> QueryStats {
        let mut stats = QueryStats::default();
        let callers = self.caller_closure(self.cond.sccs().component_of(routine));
        stats.phase2_cone_components = callers.len();
        self.ensure_phase1(&callers, &mut stats);
        stats
    }

    /// A summary snapshot extracted from the current PSG values. Only
    /// the slice covered by previously ensured cones is meaningful;
    /// everything else holds unconverged intermediate values.
    pub fn summary_snapshot(&self) -> ProgramSummary {
        ProgramSummary::from_psg(&self.psg, self.calling_standard)
    }

    /// Solves both phases over everything not yet solved and promotes
    /// the engine into a whole-program [`Analysis`] — bit-identical
    /// (summaries, PSG, `memory_bytes`) to a from-scratch
    /// [`crate::analyze_with`] run, with the accumulated demand effort
    /// as its stats.
    pub fn into_analysis(mut self) -> Analysis {
        let n_routines = self.routines();
        let components = self.comp_nodes.len();
        let rest1: Vec<usize> = (0..components).filter(|&c| !self.p1_solved[c]).collect();
        self.solve_phase1(&rest1);
        let rest2: Vec<usize> = (0..components).filter(|&c| !self.p2_solved[c]).collect();
        self.solve_phase2(&rest2);

        let summary = ProgramSummary::from_psg(&self.psg, self.calling_standard);
        let memory_bytes = self.cfg.heap_bytes()
            + self.psg.heap_bytes()
            + summary.heap_bytes()
            + self.stack.heap_bytes();
        Analysis {
            psg: self.psg,
            summary,
            stack: self.stack,
            cfg: self.cfg,
            stats: AnalysisStats {
                cfg_build: self.cfg_build,
                init: self.init,
                psg_build: self.psg_build,
                phase1: self.phase1_time,
                phase2: self.phase2_time,
                stack_build: self.stack_build,
                phase1_visits: self.phase1_visits,
                phase2_visits: self.phase2_visits,
                stack_forward_visits: self.stack_stats.forward_visits,
                stack_backward_visits: self.stack_stats.backward_visits,
                stack_summary_evals: self.stack_stats.summary_evals,
                front_end_workers: self.front_end_workers,
                waves: 0,
                routines_reanalyzed: n_routines,
                routines_reused: 0,
                memory_bytes,
            },
        }
    }

    /// Walks the full phase-1 cone (callee closure) of `targets`,
    /// counts it into `stats`, and solves its unsolved components. The
    /// solved-implies-callees-solved invariant holds because the whole
    /// unsolved part of the callee closure is solved together.
    fn ensure_phase1(&mut self, targets: &[usize], stats: &mut QueryStats) {
        let mut seen = vec![false; self.comp_nodes.len()];
        let mut stack: Vec<usize> = targets.to_vec();
        let mut need: Vec<usize> = Vec::new();
        while let Some(c) = stack.pop() {
            if seen[c] {
                continue;
            }
            seen[c] = true;
            stats.phase1_cone_components += 1;
            stats.cone_routines += self.cond.sccs().components()[c].len();
            if !self.p1_solved[c] {
                need.push(c);
            }
            stack.extend_from_slice(self.cond.callee_components(c));
        }
        // The condensation numbers callees before callers, so ascending
        // component index seeds the worklist bottom-up.
        need.sort_unstable();
        stats.visits += self.solve_phase1(&need);
        stats.phase1_components_solved += need.len();
    }

    /// Solves phase 2 over the unsolved part of the caller closure of
    /// `target`, after ensuring the phase-1 prerequisite over the
    /// closure's callee closure (the call-return labels phase 2 reads).
    fn ensure_phase2(&mut self, target: usize, stats: &mut QueryStats) {
        let callers = self.caller_closure(target);
        stats.phase2_cone_components = callers.len();
        self.ensure_phase1(&callers, stats);

        let need: Vec<usize> = callers.into_iter().filter(|&c| !self.p2_solved[c]).collect();
        stats.visits += self.solve_phase2(&need);
        stats.phase2_components_solved += need.len();
    }

    /// The node mask of the listed components.
    fn scope_of(&self, comps: &[usize]) -> Vec<bool> {
        let mut scope = vec![false; self.psg.nodes().len()];
        for &c in comps {
            for &x in &self.comp_nodes[c] {
                scope[x.index()] = true;
            }
        }
        scope
    }

    /// Runs phase 1 scoped to `comps` (ascending, callee-closed over the
    /// solved components) and marks them solved. Returns the visits.
    fn solve_phase1(&mut self, comps: &[usize]) -> usize {
        if comps.is_empty() {
            return 0;
        }
        let t = Instant::now();
        let scope = self.scope_of(comps);
        // Within a component sinks first, as in the whole-program seed
        // order: backward flow settles most nodes on their first visit.
        let seed: Vec<NodeId> =
            comps.iter().flat_map(|&c| self.comp_nodes[c].iter().rev().copied()).collect();
        let visits = run_phase1_seeded(&mut self.psg, &seed, Some(&scope));
        for &c in comps {
            self.p1_solved[c] = true;
        }
        self.phase1_time += t.elapsed();
        self.phase1_visits += visits;
        visits
    }

    /// Runs phase 2 scoped to `comps` (caller-closed over the solved
    /// components, phase 1 converged over their callee closure) and
    /// marks them solved. Returns the visits.
    fn solve_phase2(&mut self, comps: &[usize]) -> usize {
        if comps.is_empty() {
            return 0;
        }
        let t = Instant::now();
        let scope = self.scope_of(comps);
        let visits = run_phase2_seeded(&mut self.psg, &self.exit_seeds, Some(&scope));
        for &c in comps {
            self.p2_solved[c] = true;
        }
        self.phase2_time += t.elapsed();
        self.phase2_visits += visits;
        visits
    }

    /// The caller closure of component `target`, including itself.
    fn caller_closure(&self, target: usize) -> Vec<usize> {
        let mut seen = vec![false; self.comp_nodes.len()];
        let mut stack = vec![target];
        let mut closure = Vec::new();
        while let Some(c) = stack.pop() {
            if seen[c] {
                continue;
            }
            seen[c] = true;
            closure.push(c);
            stack.extend_from_slice(self.cond.caller_components(c));
        }
        closure
    }

    /// Whether a call path of at least one edge leads from `caller` to
    /// `callee`.
    fn reaches(&self, caller: RoutineId, callee: RoutineId) -> bool {
        let cond = &self.cond;
        let from = cond.sccs().component_of(caller);
        let to = cond.sccs().component_of(callee);
        if from == to {
            // Inside one SCC every member calls (transitively) every
            // other; only a singleton needs the dropped self-loop.
            return cond.sccs().components()[from].len() > 1 || self.self_call[caller.index()];
        }
        let mut seen = vec![false; self.comp_nodes.len()];
        let mut stack = vec![from];
        seen[from] = true;
        while let Some(c) = stack.pop() {
            for &d in cond.callee_components(c) {
                if d == to {
                    return true;
                }
                if !seen[d] {
                    seen[d] = true;
                    stack.push(d);
                }
            }
        }
        false
    }
}

impl Clone for QueryEngine {
    /// Clones the engine's values exactly ([`CloneExact`] on the PSG
    /// and CFGs, so a later [`Self::into_analysis`] still reports
    /// scratch-identical `memory_bytes`).
    fn clone(&self) -> QueryEngine {
        QueryEngine {
            cfg: self.cfg.clone_exact(),
            psg: self.psg.clone_exact(),
            cond: self.cond.clone(),
            comp_nodes: self.comp_nodes.clone(),
            exit_seeds: self.exit_seeds.clone(),
            self_call: self.self_call.clone(),
            p1_solved: self.p1_solved.clone(),
            p2_solved: self.p2_solved.clone(),
            calling_standard: self.calling_standard,
            stack: self.stack.clone_exact(),
            stack_stats: self.stack_stats,
            stack_build: self.stack_build,
            front_end_workers: self.front_end_workers,
            cfg_build: self.cfg_build,
            init: self.init,
            psg_build: self.psg_build,
            phase1_time: self.phase1_time,
            phase2_time: self.phase2_time,
            phase1_visits: self.phase1_visits,
            phase2_visits: self.phase2_visits,
        }
    }
}

impl fmt::Debug for QueryEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryEngine")
            .field("routines", &self.routines())
            .field("components", &self.comp_nodes.len())
            .field("phase1_solved", &self.p1_solved.iter().filter(|&&s| s).count())
            .field("phase2_solved", &self.p2_solved.iter().filter(|&&s| s).count())
            .field("phase1_visits", &self.phase1_visits)
            .field("phase2_visits", &self.phase2_visits)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze_with;
    use spike_isa::Reg;
    use spike_program::ProgramBuilder;

    fn sample() -> Program {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::T0).def(Reg::A0).call("leaf").call("mid").put_int().halt();
        b.routine("mid").def(Reg::T1).def(Reg::A0).call("leaf").ret();
        b.routine("leaf").copy(Reg::A0, Reg::V0).ret();
        b.routine("orphan").def(Reg::A0).call("leaf").ret();
        b.build().unwrap()
    }

    fn assert_summary_matches(program: &Program, engine: &mut QueryEngine, full: &Analysis) {
        for (rid, r) in program.iter() {
            let (answer, _) = engine.query(&Query::Summary(rid));
            let s = full.summary.routine(rid);
            let QueryAnswer::Summary { call_used, call_defined, call_killed, saved_restored } =
                answer
            else {
                panic!("summary query returns a summary answer");
            };
            assert_eq!(call_used, s.call_used, "call-used of {}", r.name());
            assert_eq!(call_defined, s.call_defined, "call-defined of {}", r.name());
            assert_eq!(call_killed, s.call_killed, "call-killed of {}", r.name());
            assert_eq!(saved_restored, s.saved_restored, "saved/restored of {}", r.name());
        }
    }

    #[test]
    fn queries_match_the_whole_program_slice() {
        let p = sample();
        let options = AnalysisOptions::default();
        let full = analyze_with(&p, &options);
        let mut engine = QueryEngine::new(&p, &options);
        assert_summary_matches(&p, &mut engine, &full);
        for (rid, r) in p.iter() {
            let (answer, _) = engine.query(&Query::LiveAtEntry(rid));
            let s = full.summary.routine(rid);
            assert_eq!(
                answer,
                QueryAnswer::LiveAtEntry {
                    live_at_entry: s.live_at_entry.clone(),
                    live_at_exit: s.live_at_exit.clone(),
                },
                "liveness of {}",
                r.name()
            );
        }
    }

    #[test]
    fn query_order_does_not_change_answers() {
        // Liveness first (forcing the phase-1 prerequisite through the
        // phase-2 path), then summaries on the memoized engine.
        let p = sample();
        let options = AnalysisOptions::default();
        let full = analyze_with(&p, &options);
        let mut engine = QueryEngine::new(&p, &options);
        let main = p.routine_by_name("main").unwrap();
        engine.query(&Query::LiveAtEntry(main));
        assert_summary_matches(&p, &mut engine, &full);
    }

    #[test]
    fn repeated_queries_are_memoized() {
        let p = sample();
        let mut engine = QueryEngine::new(&p, &AnalysisOptions::default());
        let leaf = p.routine_by_name("leaf").unwrap();
        let (first_answer, first) = engine.query(&Query::LiveAtEntry(leaf));
        assert!(first.phase1_components_solved > 0);
        let (again_answer, again) = engine.query(&Query::LiveAtEntry(leaf));
        assert_eq!(first_answer, again_answer);
        assert_eq!(again.phase1_components_solved, 0);
        assert_eq!(again.phase2_components_solved, 0);
        assert_eq!(again.visits, 0);
        assert_eq!(again.phase1_cone_components, first.phase1_cone_components);
    }

    #[test]
    fn summary_query_solves_only_the_callee_cone() {
        let p = sample();
        let mut engine = QueryEngine::new(&p, &AnalysisOptions::default());
        let leaf = p.routine_by_name("leaf").unwrap();
        let (_, stats) = engine.query(&Query::Summary(leaf));
        // `leaf` calls nothing: its phase-1 cone is its own component.
        assert_eq!(stats.phase1_cone_components, 1);
        assert_eq!(stats.cone_routines, 1);
        assert_eq!(stats.phase1_components_solved, 1);
        assert_eq!(stats.phase2_components_solved, 0);
    }

    #[test]
    fn reaches_follows_call_paths() {
        let p = sample();
        let mut engine = QueryEngine::new(&p, &AnalysisOptions::default());
        let id = |name: &str| p.routine_by_name(name).unwrap();
        let reaches =
            |e: &mut QueryEngine, a, b| match e.query(&Query::Reaches { caller: a, callee: b }) {
                (QueryAnswer::Reaches(r), _) => r,
                _ => unreachable!(),
            };
        assert!(reaches(&mut engine, id("main"), id("leaf")));
        assert!(reaches(&mut engine, id("main"), id("mid")));
        assert!(reaches(&mut engine, id("mid"), id("leaf")));
        assert!(!reaches(&mut engine, id("leaf"), id("main")));
        assert!(!reaches(&mut engine, id("mid"), id("main")));
        assert!(!reaches(&mut engine, id("main"), id("orphan")));
        // No self loop: a routine does not reach itself without a call.
        assert!(!reaches(&mut engine, id("main"), id("main")));
    }

    #[test]
    fn recursive_routines_reach_themselves() {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::A0).call("loop").halt();
        b.routine("loop").def(Reg::A0).call("loop").ret();
        let p = b.build().unwrap();
        let mut engine = QueryEngine::new(&p, &AnalysisOptions::default());
        let lp = p.routine_by_name("loop").unwrap();
        let main = p.routine_by_name("main").unwrap();
        let ask =
            |e: &mut QueryEngine, a, b| match e.query(&Query::Reaches { caller: a, callee: b }) {
                (QueryAnswer::Reaches(r), _) => r,
                _ => unreachable!(),
            };
        assert!(ask(&mut engine, lp, lp));
        assert!(ask(&mut engine, main, lp));
        assert!(!ask(&mut engine, main, main));
    }

    #[test]
    fn a_drained_engine_promotes_to_the_scratch_analysis() {
        let p = sample();
        let options = AnalysisOptions::default();
        let scratch = analyze_with(&p, &options);

        // Promote after partial demand solving.
        let mut engine = QueryEngine::new(&p, &options);
        engine.query(&Query::LiveAtEntry(p.routine_by_name("mid").unwrap()));
        let promoted = engine.into_analysis();
        assert_eq!(promoted.summary, scratch.summary);
        assert_eq!(promoted.psg, scratch.psg);
        assert_eq!(promoted.stats.memory_bytes, scratch.stats.memory_bytes);

        // And after no demand solving at all.
        let cold = QueryEngine::new(&p, &options).into_analysis();
        assert_eq!(cold.summary, scratch.summary);
        assert_eq!(cold.psg, scratch.psg);
        assert_eq!(cold.stats.memory_bytes, scratch.stats.memory_bytes);
    }

    #[test]
    fn co_sources_solved_by_separate_queries_promote_to_the_scratch_analysis() {
        // `main`'s call-return label meets over both targets. Each target
        // is solved by its own query, so when `main` is finally solved
        // neither entry changes again and no broadcast reaches the label:
        // the cone solve has to pull it from the (final) source entries.
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::A0).jsr_known(Reg::PV, &["a", "b"]).put_int().halt();
        b.routine("a").copy(Reg::A0, Reg::V0).def(Reg::T0).ret();
        b.routine("b").copy(Reg::A1, Reg::V0).def(Reg::T1).ret();
        let p = b.build().unwrap();
        let options = AnalysisOptions::default();
        let scratch = analyze_with(&p, &options);

        let mut engine = QueryEngine::new(&p, &options);
        for name in ["a", "b"] {
            let (_, stats) = engine.query(&Query::Summary(p.routine_by_name(name).unwrap()));
            assert_eq!(stats.phase1_components_solved, 1, "{name} is its own cone");
        }
        let promoted = engine.into_analysis();
        assert_eq!(promoted.psg, scratch.psg);
        assert_eq!(promoted.summary, scratch.summary);
        assert_eq!(promoted.stats.memory_bytes, scratch.stats.memory_bytes);
    }

    #[test]
    fn clones_answer_and_promote_identically() {
        let p = sample();
        let options = AnalysisOptions::default();
        let scratch = analyze_with(&p, &options);
        let mut engine = QueryEngine::new(&p, &options);
        let main = p.routine_by_name("main").unwrap();
        engine.query(&Query::Summary(main));
        let mut fork = engine.clone();
        let (a, _) = engine.query(&Query::LiveAtEntry(main));
        let (b, _) = fork.query(&Query::LiveAtEntry(main));
        assert_eq!(a, b);
        let promoted = fork.into_analysis();
        assert_eq!(promoted.summary, scratch.summary);
        assert_eq!(promoted.stats.memory_bytes, scratch.stats.memory_bytes);
    }
}
