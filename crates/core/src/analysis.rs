//! The analysis pipeline: CFG build → initialization → PSG build →
//! phase 1 → phase 2, with per-stage timing and memory accounting.

use std::sync::Arc;
use std::time::{Duration, Instant};

use spike_callgraph::{CallGraph, CallGraphStats, Sccs};
use spike_cfg::{ProgramCfg, RoutineCfg};
use spike_isa::{CallingStandard, HeapSize, Reg, RegSet};
use spike_program::{Program, RoutineId};

use crate::build::build_psg;
use crate::dataflow::{run_phase1, run_phase2};
use crate::psg::{NodeId, Psg};
use crate::stack::{reanalyze_stack_over, StackAnalysis};
use crate::summary::ProgramSummary;

spike_isa::analysis_struct! {
    /// Tuning knobs for the analysis, mirroring the paper's design choices.
    #[derive(Clone, Debug)]
    pub struct AnalysisOptions {
        /// Insert branch nodes at multiway branches (§3.6). Disabling this is
        /// the Table 4 ablation: the PSG grows up to 80% more edges.
        pub branch_nodes: bool,
        /// Filter saved-and-restored callee-saved registers out of routine
        /// summaries (§3.4).
        pub callee_saved_filter: bool,
        /// Register roles used for callee-saved filtering and unknown-target
        /// assumptions (§3.5).
        pub calling_standard: CallingStandard,
        /// Registers assumed live at the exits of externally callable routines
        /// (exported routines and the program entry), whose callers are
        /// outside the program.
        pub exported_live_at_exit: RegSet,
        /// Ignored; the front end is serial. Kept so the `benchmark/`
        /// package compiles (`benchmark/src/serve.rs` sets it).
        pub threads: usize,
    }
}

impl Default for AnalysisOptions {
    fn default() -> AnalysisOptions {
        let calling_standard = CallingStandard::alpha_nt();
        // An unseen caller may read the return values, expects callee-saved
        // registers preserved, and needs the stack and global pointers.
        let exported_live_at_exit = calling_standard.return_value()
            | calling_standard.callee_saved()
            | RegSet::of(&[Reg::SP, Reg::GP]);
        AnalysisOptions {
            branch_nodes: true,
            callee_saved_filter: true,
            calling_standard,
            exported_live_at_exit,
            threads: 0,
        }
    }
}

spike_isa::analysis_struct! {
    /// Wall-clock time and effort per pipeline stage (Figure 13 of the paper)
    /// plus the deterministic memory footprint (Table 2 / Figure 15).
    #[derive(Clone, Copy, Debug, Default)]
    pub struct AnalysisStats {
        /// Time building block structure for every routine (*CFG Build*).
        pub cfg_build: Duration,
        /// Time computing per-block `DEF`/`UBD` sets (*Initialization*).
        pub init: Duration,
        /// Time creating PSG nodes and labeling edges (*PSG Build*).
        pub psg_build: Duration,
        /// Time for the first dataflow phase.
        pub phase1: Duration,
        /// Time for the second dataflow phase.
        pub phase2: Duration,
        /// Time for the interprocedural stack-slot analysis (frame models,
        /// stack summaries, and both slot dataflows).
        pub stack_build: Duration,
        /// Node evaluations performed by phase 1.
        pub phase1_visits: usize,
        /// Node evaluations performed by phase 2.
        pub phase2_visits: usize,
        /// Block evaluations of the forward MUST-defined stack-slot solver.
        pub stack_forward_visits: usize,
        /// Block evaluations of the backward MAY-live stack-slot solver.
        pub stack_backward_visits: usize,
        /// Routines whose instructions the stack layer scanned: all of
        /// them in a from-scratch solve, once each; in a catch-up only
        /// the edited ones and those the slot dataflows re-solved.
        pub stack_scans: usize,
        /// Always `0`: the one phase solver is a flat FIFO worklist with no
        /// condensation waves. The field stays because the standalone
        /// benchmark package reads it (`core.waves` in
        /// `benchmark/src/oracle.rs`).
        pub waves: usize,
        /// Routines whose CFG and `DEF`/`UBD` sets were rebuilt by this run.
        /// A from-scratch analysis rebuilds every routine; an incremental
        /// re-analysis rebuilds only the dirty ones, even when one of them
        /// changed shape and the PSG had to be built anew over them.
        pub routines_reanalyzed: usize,
        /// Routines whose cached CFG was reused, at most rebased (always `0`
        /// for a from-scratch analysis).
        pub routines_reused: usize,
        /// Bytes of analysis structures (CFGs + PSG + summaries), counted
        /// deterministically via [`HeapSize`].
        pub memory_bytes: usize,
        /// `memory_bytes` split over the layers, each measured by its own
        /// [`HeapSize`] when the run finished it; the layers sum to
        /// `memory_bytes`.
        pub layer_bytes: LayerBytes,
        /// The call graph of the analyzed program, as the run that
        /// analyzed it built it.
        pub call_graph: CallGraphStats,
        /// Registers whose phase-1/2 values this run re-solved: all 64
        /// for a from-scratch run (and an incremental one that had to
        /// rebuild the PSG), the registers whose equations an edit
        /// changed for an incremental run that kept it, and 0 when no
        /// equation changed and neither phase ran.
        pub registers_resolved: usize,
    }
}

spike_isa::analysis_struct! {
    /// [`AnalysisStats::memory_bytes`] per layer, the paper's Table 2
    /// yardstick split the way `spike analyze` prints it.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct LayerBytes {
        /// The control-flow graphs.
        pub cfg: usize,
        /// The Program Summary Graph.
        pub psg: usize,
        /// The stack layer; 0 while it is unsolved or behind.
        pub stack: usize,
        /// The routine summaries.
        pub summaries: usize,
    }
}

impl LayerBytes {
    /// Measures the register layers of a finished run; the stack layer is
    /// added when it is solved ([`Analysis::catch_up_stack`]).
    pub(crate) fn of_registers(
        cfg: &ProgramCfg,
        psg: &Psg,
        summary: &ProgramSummary,
    ) -> LayerBytes {
        LayerBytes {
            cfg: cfg.heap_bytes(),
            psg: psg.heap_bytes(),
            stack: 0,
            summaries: summary.heap_bytes(),
        }
    }

    /// The sum of the layers.
    pub fn total(&self) -> usize {
        self.cfg + self.psg + self.stack + self.summaries
    }
}

impl AnalysisStats {
    /// Total analysis time across all stages.
    pub fn total(&self) -> Duration {
        self.cfg_build + self.init + self.psg_build + self.phase1 + self.phase2 + self.stack_build
    }
}

spike_isa::analysis_struct! {
    /// The result of analyzing a program: the converged PSG, the extracted
    /// summaries, the per-routine CFGs (retained for the optimizer), and the
    /// stage statistics.
    ///
    /// An `Analysis` is plain owned data — `Send + Sync` (checked below) and
    /// `Clone` — so a long-running service can hold converged analyses in a
    /// shared cache, hand them to worker threads, and fork one as the warm
    /// starting point of an incremental re-analysis
    /// ([`AnalysisCache::from_analysis`](crate::AnalysisCache::from_analysis)).
    /// Every layer is built at its exact length, so a clone holds the
    /// [`HeapSize`] bytes its source holds and
    /// [`AnalysisStats::memory_bytes`] (a capacity count) survives the fork.
    #[derive(Clone, Debug)]
    pub struct Analysis {
        /// The converged Program Summary Graph.
        pub psg: Psg,
        /// Per-routine summaries and call-site resolution.
        pub summary: ProgramSummary,
        /// The interprocedural stack-slot analysis (frame models, slot
        /// dataflows, and stack summaries).
        pub stack: StackAnalysis,
        /// The control-flow graphs the analysis was computed over.
        pub cfg: ProgramCfg,
        /// Stage timings, effort counters and memory footprint.
        pub stats: AnalysisStats,
    }
}

impl Analysis {
    /// The register layers alone — what phases 1–2 computed, without the
    /// stack layer. This is all the register-only consumers (spill
    /// elimination, reallocation, dead code, liveness) read, and the
    /// type [`AnalysisCache::reanalyze_registers`](crate::AnalysisCache::reanalyze_registers)
    /// answers with, so that a pass handed it cannot reach a stack layer
    /// that was not brought up to date for it.
    pub fn registers(&self) -> RegisterFacts<'_> {
        RegisterFacts { summary: &self.summary, cfg: &self.cfg, stats: &self.stats }
    }

    /// Brings a stack layer that is unsolved or behind up to `program`,
    /// the program the register layers describe: `behind` marks the
    /// routines edited since the layer was solved, and `calls` is the
    /// call graph of `(program, self.cfg)`. Books the solve's effort and
    /// adds the layer's share of `memory_bytes`, which a lagging layer
    /// is left out of.
    pub(crate) fn catch_up_stack(&mut self, program: &Program, calls: &Calls, behind: &[bool]) {
        let t = Instant::now();
        let prev = std::mem::replace(&mut self.stack, StackAnalysis::unsolved());
        let (stack, stats) = reanalyze_stack_over(program, &self.cfg, calls, prev, behind);
        self.stats.stack_build = t.elapsed();
        self.stats.stack_forward_visits = stats.forward_visits;
        self.stats.stack_backward_visits = stats.backward_visits;
        self.stats.stack_scans = stats.scans;
        self.stats.layer_bytes.stack = stack.heap_bytes();
        self.stats.memory_bytes += self.stats.layer_bytes.stack;
        self.stack = stack;
    }
}

/// A borrowed view of an analysis's register layers: the summaries and
/// the control-flow graphs they were computed over. See
/// [`Analysis::registers`].
#[derive(Clone, Copy, Debug)]
pub struct RegisterFacts<'a> {
    /// Per-routine summaries and call-site resolution.
    pub summary: &'a ProgramSummary,
    /// The control-flow graphs the summaries were computed over.
    pub cfg: &'a ProgramCfg,
    /// Effort of the run that produced them. After a register-only run
    /// the stack counters are zero and `memory_bytes` leaves the stack
    /// layer out.
    pub stats: &'a AnalysisStats,
}

// The cross-request cache in `spike-serve` shares analyses across worker
// threads; keep the thread-safety of the result types a compile-time fact.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Analysis>();
    assert_send_sync::<crate::AnalysisCache>();
};

/// Analyzes `program` with default options.
///
/// ```
/// use spike_isa::Reg;
/// use spike_program::ProgramBuilder;
///
/// let mut b = ProgramBuilder::new();
/// b.routine("main").def(Reg::A0).call("id").put_int().halt();
/// b.routine("id").copy(Reg::A0, Reg::V0).ret();
/// let program = b.build()?;
///
/// let analysis = spike_core::analyze(&program);
/// let id = program.routine_by_name("id").unwrap();
/// let s = analysis.summary.routine(id);
/// assert!(s.call_used[0].contains(Reg::A0));
/// assert!(s.call_defined[0].contains(Reg::V0));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn analyze(program: &Program) -> Analysis {
    analyze_with(program, &AnalysisOptions::default())
}

/// Analyzes `program` with explicit [`AnalysisOptions`].
pub fn analyze_with(program: &Program, options: &AnalysisOptions) -> Analysis {
    let (mut analysis, calls) = analyze_registers(program, options);
    analysis.catch_up_stack(program, &calls, &[]);
    analysis
}

/// [`analyze_with`] short of the stack layer, which is left unsolved
/// (see [`solve_registers`]), with the call graph the run built.
pub(crate) fn analyze_registers(program: &Program, options: &AnalysisOptions) -> (Analysis, Calls) {
    let front = FrontEnd::build(program);
    let calls = Calls::of(program, &front.cfg);
    (solve_registers(program, front, options, &calls), calls)
}

/// The call graph of one `(program, cfg)` and its condensation, built
/// once per analysis run: the phase-1 seed order and the stack layer's
/// bottom-up solve both read it.
pub(crate) struct Calls {
    pub graph: CallGraph,
    pub sccs: Sccs,
}

impl Calls {
    pub fn of(program: &Program, cfg: &ProgramCfg) -> Calls {
        let graph = CallGraph::build(program, cfg);
        let sccs = graph.sccs();
        Calls { graph, sccs }
    }

    pub fn stats(&self) -> CallGraphStats {
        self.graph.stats_over(&self.sccs)
    }
}

/// What a run's front end produced: the CFGs with their `DEF`/`UBD`
/// sets, and what building them cost.
pub(crate) struct FrontEnd {
    pub cfg: ProgramCfg,
    pub cfg_build: Duration,
    pub init: Duration,
    /// Routines whose CFG this run built; an incremental run hands the
    /// rest over from its cache.
    pub rebuilt: usize,
}

impl FrontEnd {
    /// Builds every routine's CFG and `DEF`/`UBD` sets.
    fn build(program: &Program) -> FrontEnd {
        let n_routines = program.routines().len();

        let t = Instant::now();
        let mut cfgs: Vec<Arc<RoutineCfg>> = (0..n_routines)
            .map(|i| Arc::new(RoutineCfg::build_structure(program, RoutineId::from_index(i))))
            .collect();
        let cfg_build = t.elapsed();

        let t = Instant::now();
        for c in &mut cfgs {
            Arc::get_mut(c).expect("a CFG just built is not shared").init_def_ubd(program);
        }
        let init = t.elapsed();
        FrontEnd { cfg: ProgramCfg::from_cfgs(cfgs), cfg_build, init, rebuilt: n_routines }
    }
}

/// The register layers over a finished front end: PSG build, both
/// phases from their initial values, summary extraction. The one tail
/// of every solve that starts from an empty PSG — [`analyze_with`], and
/// an incremental run whose edit changed a routine's shape.
///
/// The stack layer of the result is unsolved and left out of
/// `memory_bytes`; see [`Analysis::catch_up_stack`].
pub(crate) fn solve_registers(
    program: &Program,
    front: FrontEnd,
    options: &AnalysisOptions,
    calls: &Calls,
) -> Analysis {
    let FrontEnd { cfg, cfg_build, init, rebuilt } = front;
    let n_routines = program.routines().len();

    let t = Instant::now();
    let mut psg = build_psg(program, &cfg, options);
    let psg_build = t.elapsed();

    let t = Instant::now();
    let seed_order = phase1_seed_order(&calls.sccs, &psg);
    let phase1_visits = run_phase1(&mut psg, &seed_order);
    let phase1 = t.elapsed();

    let t = Instant::now();
    let exit_seeds = exported_exit_seeds(program, &psg, options);
    let phase2_visits = run_phase2(&mut psg, &exit_seeds);
    let phase2 = t.elapsed();

    let summary = ProgramSummary::from_psg(&psg, options.calling_standard);
    let layer_bytes = LayerBytes::of_registers(&cfg, &psg, &summary);

    Analysis {
        psg,
        summary,
        stack: StackAnalysis::unsolved(),
        cfg,
        stats: AnalysisStats {
            cfg_build,
            init,
            psg_build,
            phase1,
            phase2,
            phase1_visits,
            phase2_visits,
            routines_reanalyzed: rebuilt,
            routines_reused: n_routines - rebuilt,
            memory_bytes: layer_bytes.total(),
            layer_bytes,
            call_graph: calls.stats(),
            registers_resolved: RegSet::ALL.len(),
            ..AnalysisStats::default()
        },
    }
}

/// The phase-1 worklist seed order: routines bottom-up in call-graph SCC
/// order (callees before callers), and within a routine the nodes in
/// reverse creation order (sinks before the entry). Most call-return
/// edges then carry their final callee summary the first time their call
/// node is evaluated.
pub(crate) fn phase1_seed_order(sccs: &Sccs, psg: &Psg) -> Vec<NodeId> {
    let mut order = Vec::with_capacity(psg.nodes().len());
    for component in sccs.bottom_up() {
        for &rid in component {
            let rn = psg.routine_nodes(rid);
            let mut nodes: Vec<NodeId> = rn
                .entries()
                .iter()
                .chain(rn.exits())
                .copied()
                .chain(rn.calls().iter().flat_map(|&(_, c, r)| [c, r]))
                .chain(rn.branches().iter().map(|&(_, n)| n))
                .collect();
            nodes.sort_unstable();
            nodes.reverse();
            order.extend(nodes);
        }
    }
    // Halt/unknown-jump/diverge sinks are pinned and never evaluated, but
    // the worklist seed must still cover every node.
    for i in 0..psg.nodes().len() {
        let n = NodeId::from_index(i);
        if psg.pinned[i] {
            order.push(n);
        }
    }
    debug_assert_eq!(order.len(), psg.nodes().len());
    order
}

/// Liveness seeds for the exits of routines callable from outside the
/// program: exported routines and the program entry routine.
pub(crate) fn exported_exit_seeds(
    program: &Program,
    psg: &Psg,
    options: &AnalysisOptions,
) -> Vec<(NodeId, RegSet)> {
    let mut seeds = Vec::new();
    for (id, r) in program.iter() {
        if r.exported() || id == program.entry() {
            for &exit in psg.routine_nodes(id).exits() {
                seeds.push((exit, options.exported_live_at_exit));
            }
        }
    }
    seeds
}
