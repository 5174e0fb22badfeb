//! Incremental re-analysis: reuse the converged analysis of a program
//! across small edits.
//!
//! The optimizer edits a handful of routines per pass; rebuilding every
//! routine's CFG and the entire PSG to re-converge the two dataflow
//! phases wastes almost all of that work. [`AnalysisCache`] keeps the
//! previous [`Analysis`] and [`AnalysisCache::reanalyze`] patches it in
//! place:
//!
//! 1. **Front end** — only *dirty* routines (those that received an
//!    edit, as reported by `Rewriter::finish`) get their CFG, `DEF`/`UBD`
//!    sets, §3.4 saved/restored scan, and PSG node/edge plans rebuilt.
//!    Clean routines are *content-identical modulo layout*: they may have
//!    moved, and a `bsr` displacement or a relocated `lda` immediate in
//!    them may have been relinked, but every cached structure names call
//!    targets as `(routine, entry)` and blocks by address, so shifting
//!    them to their new base with [`RoutineCfg::rebase`] is all they
//!    need; their PSG structures are reused verbatim.
//! 2. **Structural validation** — most of the optimizer's edits preserve
//!    each routine's control-flow shape (terminators are never deleted,
//!    replacements keep targets, call identities survive relinking), so
//!    a dirty routine's fresh node/edge plan usually matches the cached
//!    PSG node-for-node and edge-for-edge, and only its labels are
//!    overwritten from the fresh plan. An edit that does change shape (a
//!    LICM preheader adds a block, a deletion can empty one) is caught
//!    right after the CFG rebuild — the node plan needs block structure
//!    only. The cached PSG is then dropped, but the front end is not:
//!    the rebuilt dirty CFGs and the rebased clean ones go through the
//!    PSG build and both phases from their initial values, the same tail
//!    a from-scratch analysis runs.
//! 3. **Seeded fixpoint** — with the PSG kept, phases 1–2 rerun only
//!    for the registers whose equations the patch changed (R), over a
//!    *reset subspace* (the routines where they changed plus everything
//!    those changes can influence), while every other bit keeps its
//!    converged value; with R = ∅ neither phase runs. The reset
//!    closures and the argument that this reproduces the from-scratch
//!    solution exactly — bit-identical summaries, `memory_bytes`, and
//!    PSG — are documented in DESIGN.md ("Incremental re-analysis");
//!    debug builds assert the equality against an actual from-scratch
//!    run.
//! 4. **Stack layer, on demand** — only LICM, dead-stack-store
//!    elimination, the lint and the daemon read it.
//!    [`AnalysisCache::reanalyze_registers`] answers with the register
//!    layers alone and lets the stack layer fall behind, remembering
//!    which routines were edited since it was solved;
//!    [`AnalysisCache::reanalyze`] (all layers) catches it up with one
//!    [`reanalyze_stack`](crate::reanalyze_stack) over that accumulated
//!    set.

use std::sync::Arc;
use std::time::{Duration, Instant};

use spike_cfg::{ProgramCfg, RoutineCfg};
use spike_isa::{HeapSize, RegSet};
use spike_program::{Program, RoutineId};

use crate::analysis::{
    analyze_registers, exported_exit_seeds, phase1_seed_order, solve_registers, Analysis,
    AnalysisOptions, AnalysisStats, Calls, FrontEnd, LayerBytes, RegisterFacts,
};
use crate::build::{plan_routine_edges, plan_routine_nodes, RoutineEdgePlan};
use crate::callee_saved::saved_restored_registers;
use crate::dataflow::{run_phase1_seeded, run_phase2_seeded};
use crate::flow::FlowScratch;
use crate::psg::{EdgeKind, NodeId, Psg};
use crate::query::{Query, QueryAnswer, QueryStats};
use crate::summary::ProgramSummary;

/// A reusable analysis: the converged [`Analysis`] of the last program
/// seen, plus the options every (re)run uses.
///
/// ```
/// use spike_isa::Reg;
/// use spike_program::{ProgramBuilder, Rewriter};
///
/// let mut b = ProgramBuilder::new();
/// b.routine("main").def(Reg::T0).def(Reg::A0).call("id").put_int().halt();
/// b.routine("id").copy(Reg::A0, Reg::V0).ret();
/// let program = b.build()?;
///
/// let mut cache = spike_core::AnalysisCache::new(spike_core::AnalysisOptions::default());
/// cache.analyze(&program);
///
/// // Delete the dead `def t0`; only `main` changed, so only `main` is
/// // re-analyzed — `id`'s front-end structures are reused.
/// let addr = program.routines()[0].addr();
/// let (edited, dirty) = Rewriter::new(&program).delete(addr).finish()?;
/// let analysis = cache.reanalyze(&edited, &dirty);
/// assert_eq!(analysis.stats.routines_reanalyzed, 1);
/// assert_eq!(analysis.stats.routines_reused, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct AnalysisCache {
    options: AnalysisOptions,
    /// The analysis of the last program seen. Its register layers (PSG,
    /// summaries, CFGs) are always that program's; its stack layer is
    /// only as current as `stack_behind` says, so a reference to it
    /// leaves this module only while `stack_behind` is `None`.
    state: Option<Analysis>,
    /// `Some` while `state`'s stack layer lags its register layers: the
    /// routines edited since the layer was solved (all of them over the
    /// never-solved layer of a cold register-only run), and
    /// `state.stats.memory_bytes` leaves the layer out. `None`: every
    /// layer is current.
    stack_behind: Option<Vec<bool>>,
    /// Times the stack layer was solved or caught up, over the cache's
    /// lifetime.
    stack_solves: usize,
}

impl AnalysisCache {
    /// Creates an empty cache; the first [`analyze`](Self::analyze) or
    /// [`reanalyze`](Self::reanalyze) fills it with a from-scratch run.
    pub fn new(options: AnalysisOptions) -> AnalysisCache {
        AnalysisCache { options, state: None, stack_behind: None, stack_solves: 0 }
    }

    /// Creates a cache already warmed with a converged `analysis` of some
    /// program. The next [`reanalyze`](Self::reanalyze) over an edited
    /// copy of that program re-solves only the dirty routines, exactly as
    /// if this cache had computed `analysis` itself — the entry point a
    /// long-running service uses to fork a cached analysis into the warm
    /// starting point for a diffed re-submission.
    ///
    /// A shared analysis is forked with a plain `Clone`: no layer holds
    /// capacity slack, so the copy's `heap_bytes` — and with it the
    /// `memory_bytes` of the next `reanalyze` — are the source's.
    pub fn from_analysis(options: AnalysisOptions, analysis: Analysis) -> AnalysisCache {
        AnalysisCache { state: Some(analysis), ..AnalysisCache::new(options) }
    }

    /// Consumes the cache, returning the converged analysis if a run
    /// over all layers has completed. `None` for an empty cache and for
    /// one whose last run was register-only
    /// ([`reanalyze_registers`](Self::reanalyze_registers), or a
    /// [`query`](Self::query) on a cold cache): catching the stack layer
    /// up needs the program, so ask [`reanalyze`](Self::reanalyze) first.
    pub fn into_analysis(self) -> Option<Analysis> {
        self.state.filter(|_| self.stack_behind.is_none())
    }

    /// A deterministic estimate of the heap the cached analysis retains
    /// (its CFGs, PSG, summaries and stack layer, via [`HeapSize`]
    /// accounting), for byte-budgeted eviction decisions in caches of
    /// caches. An empty cache is free.
    pub fn heap_bytes(&self) -> usize {
        match &self.state {
            Some(a) if self.stack_behind.is_some() => a.stats.memory_bytes + a.stack.heap_bytes(),
            Some(a) => a.stats.memory_bytes,
            None => 0,
        }
    }

    /// The options every analysis run through this cache uses.
    pub fn options(&self) -> &AnalysisOptions {
        &self.options
    }

    /// The cached analysis, if a run over all layers has completed and
    /// no register-only run has left the stack layer behind since.
    pub fn analysis(&self) -> Option<&Analysis> {
        self.state.as_ref().filter(|_| self.stack_behind.is_none())
    }

    /// How many times this cache solved the stack layer — from scratch
    /// or by catching it up — since it was created. Register-only runs
    /// ([`reanalyze_registers`](Self::reanalyze_registers)) do not count,
    /// nor does a [`reanalyze`](Self::reanalyze) that found the layer
    /// current.
    pub fn stack_solves(&self) -> usize {
        self.stack_solves
    }

    /// Drops the cached analysis; the next call re-analyzes from scratch.
    pub fn invalidate(&mut self) {
        self.state = None;
        self.stack_behind = None;
    }

    /// Analyzes `program` from scratch, all layers, and caches the
    /// result.
    pub fn analyze(&mut self, program: &Program) -> &Analysis {
        self.invalidate();
        self.reanalyze(program, &[])
    }

    /// Answers one [`Query`] about `program` by reading its analysis.
    ///
    /// A cache that already holds the program's register layers answers
    /// from them. A cold one first runs the register-only solve of
    /// [`reanalyze_registers`](Self::reanalyze_registers) — no query
    /// reads the stack layer, so it is left for the next
    /// [`reanalyze`](Self::reanalyze) to catch up — and the stats say
    /// what that cost. Either way the answer is bit-identical to the same
    /// slice of [`analyze`](Self::analyze)'s result.
    ///
    /// As with `reanalyze`, `program` must be the program the cache last
    /// saw (or the first program, on a cold cache); a routine-count
    /// change drops the stale state.
    ///
    /// # Panics
    ///
    /// Panics if the query names a routine outside `program`.
    pub fn query(&mut self, program: &Program, query: &Query) -> (QueryAnswer, QueryStats) {
        self.advance_registers(program, &[]);
        let a = self.state.as_ref().expect("advance_registers fills the cache");
        (query_analysis(a, program, query), QueryStats::of_run(&a.stats))
    }

    /// Re-analyzes `program` after an edit that changed (at most) the
    /// routines in `dirty`, reusing the cached front-end structures and
    /// converged dataflow values of every clean routine. All layers: the
    /// stack layer is caught up too, over `dirty` plus whatever earlier
    /// [`reanalyze_registers`](Self::reanalyze_registers) runs left it
    /// behind by.
    ///
    /// `dirty` must contain every routine whose *content* differs from
    /// the program the cache last saw — every routine that received an
    /// edit, exactly the set `Rewriter::finish` returns. Layout is not
    /// content: a routine that merely moved to a new base address, in
    /// which a `bsr` displacement was recomputed across a shifted gap, or
    /// in which a relocated `lda` immediate names the new address of
    /// moved code need not be listed, as long as its calls still resolve
    /// to the same `(routine, entry)` and its relocations to the same
    /// instruction; such a routine is only rebased. An empty cache, or
    /// one for a program of another routine count, is filled by a
    /// from-scratch analysis. A `dirty` routine whose control-flow shape
    /// changed (its summary points no longer match the cached PSG node
    /// for node) costs a PSG rebuild and full phases, but still only its
    /// own CFG.
    ///
    /// The result is bit-identical to [`analyze`](Self::analyze) on
    /// `program`: same summaries, same `memory_bytes`, same PSG, same
    /// stack layer. Only the timing/effort counters and the
    /// `routines_reanalyzed` / `routines_reused` pair differ. Debug
    /// builds assert the equality.
    pub fn reanalyze(&mut self, program: &Program, dirty: &[RoutineId]) -> &Analysis {
        let calls = self.advance_registers(program, dirty);
        if let Some(behind) = self.stack_behind.take() {
            let a = self.state.as_mut().expect("advance_registers fills the cache");
            let calls = calls.unwrap_or_else(|| Calls::of(program, &a.cfg));
            a.catch_up_stack(program, &calls, &behind);
            self.stack_solves += 1;
        }
        self.state.as_ref().expect("advance_registers fills the cache")
    }

    /// [`reanalyze`](Self::reanalyze) for a consumer that reads register
    /// facts only: brings the PSG, the summaries and the CFGs up to date
    /// and leaves the stack layer for the next `reanalyze` to catch up,
    /// in one solve over everything edited in between. Same contract for
    /// `dirty`, same bit-identity for what the view exposes.
    pub fn reanalyze_registers(
        &mut self,
        program: &Program,
        dirty: &[RoutineId],
    ) -> RegisterFacts<'_> {
        self.advance_registers(program, dirty);
        self.state.as_ref().expect("advance_registers fills the cache").registers()
    }

    /// Brings `state`'s register layers up to `program` and records in
    /// `stack_behind` what that leaves the stack layer behind by.
    /// Returns the call graph of the new state when it had to build one.
    fn advance_registers(&mut self, program: &Program, dirty: &[RoutineId]) -> Option<Calls> {
        let n_routines = program.routines().len();
        let mut dirty: Vec<RoutineId> = dirty.to_vec();
        dirty.sort_unstable();
        dirty.dedup();
        let cached = self
            .state
            .take()
            .filter(|a| a.psg.all_routine_nodes().len() == n_routines)
            .filter(|_| dirty.last().is_none_or(|r| r.index() < n_routines));
        let Some(mut cached) = cached else {
            self.invalidate();
            let (analysis, calls) = analyze_registers(program, &self.options);
            self.state = Some(analysis);
            self.stack_behind = Some(vec![true; n_routines]);
            return Some(calls);
        };
        if dirty.is_empty() {
            // Nothing changed: the cached solution is the solution. Reset
            // the effort counters so callers see this run did no work.
            cached.stats = AnalysisStats {
                routines_reused: n_routines,
                memory_bytes: cached.stats.memory_bytes,
                layer_bytes: cached.stats.layer_bytes,
                call_graph: cached.stats.call_graph,
                ..AnalysisStats::default()
            };
            self.state = Some(cached);
            return None;
        }

        let behind = self.stack_behind.get_or_insert_with(|| vec![false; n_routines]);
        for &r in &dirty {
            behind[r.index()] = true;
        }
        let (analysis, calls) = advance_register_layers(cached, program, &self.options, &dirty);
        self.state = Some(analysis);
        #[cfg(debug_assertions)]
        self.assert_matches_scratch(program);
        Some(calls)
    }

    /// The debug cross-check of an incremental run: every layer equals a
    /// from-scratch run. The stack layer is behind at this point, so it
    /// is caught up on a copy — the check sees exactly what the next
    /// demand will compute from this state, and the cache itself does
    /// the work a release build does.
    #[cfg(debug_assertions)]
    fn assert_matches_scratch(&self, program: &Program) {
        let incremental = self.state.as_ref().expect("checked after a run");
        let scratch = crate::analyze_with(program, &self.options);
        assert_eq!(
            scratch.clone().heap_bytes(),
            scratch.heap_bytes(),
            "a from-scratch run must hold no capacity slack"
        );
        assert_eq!(
            scratch.summary, incremental.summary,
            "incremental summaries must equal a from-scratch run"
        );
        assert_eq!(scratch.psg, incremental.psg, "incremental PSG must equal a from-scratch run");
        let behind = self.stack_behind.as_ref().expect("an incremental run leaves it behind");
        let prev = incremental.stack.clone();
        let (stack, _) = crate::reanalyze_stack(program, &incremental.cfg, prev, behind);
        assert_eq!(
            scratch.stack, stack,
            "incremental stack-slot analysis must equal a from-scratch run"
        );
        assert_eq!(
            scratch.stats.memory_bytes,
            incremental.stats.memory_bytes + stack.heap_bytes(),
            "incremental memory accounting must equal a from-scratch run"
        );
        // `spike analyze` prints every layer's share, and the daemon's
        // report must match a local one byte for byte.
        let layers = |a: &Analysis, stack: usize| {
            [a.cfg.heap_bytes(), a.psg.heap_bytes(), a.summary.heap_bytes(), stack]
        };
        assert_eq!(
            layers(&scratch, scratch.stack.heap_bytes()),
            layers(incremental, stack.heap_bytes()),
            "incremental memory must split over the layers as a from-scratch run's does"
        );
    }
}

/// Answers `query` by slicing `analysis`, the converged analysis of
/// `program`: a pure read of its register layers. This is how every
/// query is answered — [`AnalysisCache::query`] calls it on its own
/// state, and a holder of a shared `&Analysis` (the daemon's cache
/// entries) calls it directly.
///
/// # Panics
///
/// Panics if the query names a routine outside `program`.
pub fn query_analysis(analysis: &Analysis, program: &Program, query: &Query) -> QueryAnswer {
    match *query {
        Query::Summary(r) => {
            let s = analysis.summary.routine(r);
            QueryAnswer::Summary {
                call_used: s.call_used.clone(),
                call_defined: s.call_defined.clone(),
                call_killed: s.call_killed.clone(),
                saved_restored: s.saved_restored,
            }
        }
        Query::LiveAtEntry(r) => {
            let s = analysis.summary.routine(r);
            QueryAnswer::LiveAtEntry {
                live_at_entry: s.live_at_entry.clone(),
                live_at_exit: s.live_at_exit.clone(),
            }
        }
        Query::Reaches { caller, callee } => {
            // A call path of at least one edge: the closure starts at
            // `caller`'s callees, not at `caller`.
            let graph = spike_callgraph::CallGraph::build(program, &analysis.cfg);
            QueryAnswer::Reaches(graph.callee_closure(graph.callees(caller))[callee.index()])
        }
    }
}

/// The incremental pipeline over the register layers. Consumes the
/// cached analysis — its PSG is patched in place, or dropped when an
/// edit changed a routine's shape — and hands its stack layer through
/// unsolved-for-this-program, for the caller to catch up. Also returns
/// the call graph it built for the seed order.
fn advance_register_layers(
    cached: Analysis,
    program: &Program,
    options: &AnalysisOptions,
    dirty: &[RoutineId],
) -> (Analysis, Calls) {
    let n_routines = program.routines().len();
    let Analysis { mut psg, summary: cached_summary, stack, cfg, stats: _ } = cached;

    let mut dirty_mask = vec![false; n_routines];
    for &r in dirty {
        dirty_mask[r.index()] = true;
    }

    // --- Front end, dirty routines only. ---
    let t = Instant::now();
    let mut rebuilt: Vec<RoutineCfg> =
        dirty.iter().map(|&r| RoutineCfg::build_structure(program, r)).collect();
    let cfg_build = t.elapsed();
    let mut delta = EquationDelta { regs: RegSet::EMPTY, routines: vec![false; n_routines] };

    // Detect a shape change early. The node plan needs block structure
    // only, so it is validated (and the cached node state patched) here:
    // an edit that moved a node-bearing block — a LICM preheader, a block
    // a deletion emptied — is known before any edge of the cached PSG is
    // planned against. A vanished block behind the last call, branch and
    // halt block renumbers nothing a node names and passes.
    let t = Instant::now();
    let mut same_shape = rebuilt
        .iter()
        .all(|c| patch_routine_nodes(&mut psg, program, c, options, &mut delta).is_ok());
    let node_patch = t.elapsed();

    let t = Instant::now();
    for c in &mut rebuilt {
        c.init_def_ubd(program);
    }
    let mut cfgs = cfg.into_cfgs();
    for c in rebuilt {
        let i = c.routine().index();
        cfgs[i] = Arc::new(c);
    }
    // Clean routines kept their content (modulo relinked displacements
    // and relocated immediates, which no cached structure holds) but may
    // have shifted when an earlier routine shrank; follow the move. A CFG
    // shared with another analysis (the daemon's donor) is copied only
    // when it actually moves.
    for (i, c) in cfgs.iter_mut().enumerate() {
        let base = program.routines()[i].addr();
        if !dirty_mask[i] && c.base() != base {
            Arc::make_mut(c).rebase(base);
        }
    }
    let init = t.elapsed();
    let cfg = ProgramCfg::from_cfgs(cfgs);
    let calls = Calls::of(program, &cfg);
    let call_graph = calls.stats();

    // --- Patch the PSG's dirty routines in place (nodes: done above). ---
    let t = Instant::now();
    if same_shape {
        let edge_ranges = routine_edge_ranges(&psg, n_routines);
        let mut scratch = FlowScratch::default();
        same_shape = dirty.iter().all(|&r| {
            let plan = plan_routine_edges(&psg, cfg.routine_cfg(r), options, &mut scratch);
            let (lo, hi) = edge_ranges[r.index()];
            patch_routine_edges(&mut psg, r, &plan, lo, hi, &mut delta).is_ok()
        });
    }
    if !same_shape {
        // The cached PSG no longer fits, the front end still does: the
        // dirty CFGs are built and the clean ones rebased, so only the
        // PSG and the phases start over.
        drop(psg);
        let failed_patch = node_patch + t.elapsed();
        let front = FrontEnd { cfg, cfg_build, init, rebuilt: dirty.len() };
        let mut analysis = solve_registers(program, front, options, &calls);
        analysis.stats.psg_build += failed_patch;
        analysis.stack = stack;
        return (analysis, calls);
    }
    let psg_build = node_patch + t.elapsed();
    // A comparable program keeps its exports and its entry, so the exit
    // seeds are the ones the cached fixpoint already holds.
    debug_assert!(
        exported_exit_seeds(program, &psg, options)
            .iter()
            .all(|&(exit, live)| live.is_subset(psg.live[exit.index()])),
        "an incremental run must not change the exported exit seeds"
    );

    // --- Seeded fixpoint: the changed registers over the reset subspace. ---
    // With no equation changed the cached values are the fixpoint, and
    // so is the summary read from them.
    let (mut phase1, mut phase2) = (Duration::ZERO, Duration::ZERO);
    let (mut phase1_visits, mut phase2_visits) = (0, 0);
    let summary = if delta.regs.is_empty() {
        cached_summary
    } else {
        let t = Instant::now();
        let (reset1, reset2) = reset_masks(&psg, &delta.routines);
        let seed: Vec<NodeId> = phase1_seed_order(&calls.sccs, &psg)
            .into_iter()
            .filter(|n| reset1[n.index()])
            .collect();
        phase1_visits = run_phase1_seeded(&mut psg, &seed, Some(&reset1), delta.regs);
        phase1 = t.elapsed();

        let t = Instant::now();
        let exit_seeds = exported_exit_seeds(program, &psg, options);
        phase2_visits = run_phase2_seeded(&mut psg, &exit_seeds, Some(&reset2), delta.regs);
        phase2 = t.elapsed();
        ProgramSummary::from_psg(&psg, options.calling_standard)
    };
    let layer_bytes = LayerBytes::of_registers(&cfg, &psg, &summary);

    let analysis = Analysis {
        psg,
        summary,
        stack,
        cfg,
        stats: AnalysisStats {
            cfg_build,
            init,
            psg_build,
            phase1,
            phase2,
            phase1_visits,
            phase2_visits,
            routines_reanalyzed: dirty.len(),
            routines_reused: n_routines - dirty.len(),
            memory_bytes: layer_bytes.total(),
            layer_bytes,
            call_graph,
            registers_resolved: delta.regs.len(),
            ..AnalysisStats::default()
        },
    };
    (analysis, calls)
}

/// What a same-shape patch changed in the phase-1/2 equations: the
/// registers whose equations differ (R) and the routines they differ in.
/// Only the inputs of the equations count — flow-summary labels, static
/// call-return labels, `uj_live`, §3.4 saved/restored sets and pinned
/// flags — never a known-target call-return label, which phase 1 writes.
struct EquationDelta {
    regs: RegSet,
    routines: Vec<bool>,
}

impl EquationDelta {
    /// Records that an input of `routine`'s equations went from `old` to
    /// `new`.
    fn note(&mut self, routine: RoutineId, old: RegSet, new: RegSet) {
        let changed = old ^ new;
        if !changed.is_empty() {
            self.regs |= changed;
            self.routines[routine.index()] = true;
        }
    }
}

/// Re-plans one dirty routine's pass-1 nodes against its rebuilt CFG and
/// patches the cached node state (pinned flags, unknown-jump hints, §3.4
/// saved/restored set), noting every change in `delta`; a flipped pinned
/// flag changes how the solver treats the node in every register. The
/// fresh plan must match the cached directory node-for-node — same
/// count, same kinds, same blocks — or the routine's shape changed and
/// the caller must rebuild from scratch.
fn patch_routine_nodes(
    psg: &mut Psg,
    program: &Program,
    cfg: &RoutineCfg,
    options: &AnalysisOptions,
    delta: &mut EquationDelta,
) -> Result<(), ()> {
    let rid = cfg.routine();
    let planned = plan_routine_nodes(program, cfg, options);

    let rn = &psg.routines[rid.index()];
    let cached_ids: Vec<NodeId> = rn
        .entries
        .iter()
        .chain(&rn.exits)
        .copied()
        .chain(rn.calls.iter().flat_map(|&(_, c, r)| [c, r]))
        .chain(rn.branches.iter().map(|&(_, n)| n))
        .chain(rn.halts.iter().copied())
        .chain(rn.unknown_jumps.iter().copied())
        .collect();
    if planned.len() != cached_ids.len() {
        return Err(());
    }
    for (p, &id) in planned.iter().zip(&cached_ids) {
        if p.kind != psg.nodes[id.index()] {
            return Err(());
        }
    }

    for (p, &id) in planned.iter().zip(&cached_ids) {
        let i = id.index();
        if psg.pinned[i] != p.pinned {
            delta.note(rid, RegSet::EMPTY, RegSet::ALL);
        }
        delta.note(rid, psg.uj_live[i], p.uj_live);
        psg.pinned[i] = p.pinned;
        psg.uj_live[i] = p.uj_live;
    }
    let saved_restored = if options.callee_saved_filter {
        saved_restored_registers(program, cfg, &options.calling_standard)
    } else {
        RegSet::EMPTY
    };
    let cached = &mut psg.routines[rid.index()].saved_restored;
    delta.note(rid, *cached, saved_restored);
    *cached = saved_restored;
    Ok(())
}

/// Validates one dirty routine's fresh edge plan against the cached edges
/// in `[lo, hi)` — same count, endpoints, kinds, and call-return wiring —
/// then overwrites the labels the plan owns, noting every change in
/// `delta`: flow-summary labels and the static labels of unknown/hinted
/// call-return edges. Known-target call-return labels are left alone:
/// for clean callees the cached (converged) label is already final, and
/// for reset callees the seeded phase 1 pulls it afresh from the
/// reinitialized source entries.
fn patch_routine_edges(
    psg: &mut Psg,
    rid: RoutineId,
    plan: &RoutineEdgePlan,
    lo: usize,
    hi: usize,
    delta: &mut EquationDelta,
) -> Result<(), ()> {
    let rn = &psg.routines[rid.index()];
    if plan.needs_diverge != rn.diverge.is_some() || plan.edges.len() != hi - lo {
        return Err(());
    }
    let diverge = rn.diverge;

    for (k, planned) in plan.edges.iter().enumerate() {
        let ei = lo + k;
        let cached = &psg.edges[ei];
        let to = if planned.to_diverge {
            diverge.expect("checked: needs_diverge implies a cached diverge node")
        } else {
            planned.edge.to
        };
        if cached.from != planned.edge.from || cached.to != to || cached.kind != planned.edge.kind {
            return Err(());
        }
        match planned.cr {
            Some(cr) => {
                if psg.cr_sources[ei] != *plan.cr_sources(cr)
                    || psg.return_exit_targets[to.index()] != *plan.cr_exits(cr)
                {
                    return Err(());
                }
            }
            None => {
                if !psg.cr_sources[ei].is_empty() {
                    return Err(());
                }
            }
        }
    }

    for (k, planned) in plan.edges.iter().enumerate() {
        let ei = lo + k;
        let overwrite = match planned.edge.kind {
            EdgeKind::FlowSummary => true,
            EdgeKind::CallReturn => psg.cr_sources[ei].is_empty(),
        };
        if overwrite {
            let e = &mut psg.edges[ei];
            delta.note(rid, e.may_use, planned.edge.may_use);
            delta.note(rid, e.may_def, planned.edge.may_def);
            delta.note(rid, e.must_def, planned.edge.must_def);
            e.may_use = planned.edge.may_use;
            e.may_def = planned.edge.may_def;
            e.must_def = planned.edge.must_def;
        }
    }
    Ok(())
}

/// Per-routine `[lo, hi)` ranges into `psg.edges`. Plans are applied in
/// routine-id order, so each routine's edges are contiguous and the
/// groups appear in routine-id order.
fn routine_edge_ranges(psg: &Psg, n_routines: usize) -> Vec<(usize, usize)> {
    let mut ranges = vec![(0usize, 0usize); n_routines];
    let mut prev = 0usize;
    let mut open: Option<usize> = None;
    for (ei, e) in psg.edges.iter().enumerate() {
        let r = psg.nodes[e.from().index()].routine().index();
        debug_assert!(r >= prev, "edges are grouped by routine in routine-id order");
        if open != Some(r) {
            ranges[r].0 = ei;
            open = Some(r);
        }
        ranges[r].1 = ei + 1;
        prev = r;
    }
    ranges
}

/// Computes the node reset masks for the seeded phases from the routines
/// whose equations changed.
///
/// Phase 1 flows callee→caller, so the reset set is the caller-closure of
/// the changed routines, additionally *promoted* so that every multi-source
/// call-return edge has either all or none of its source routines reset
/// (a half-reset edge could not replay the from-scratch label exactly).
/// Phase 2 flows caller→callee via the return→exit broadcast, so its
/// reset set is the phase-1 set closed under callees.
fn reset_masks(psg: &Psg, changed: &[bool]) -> (Vec<bool>, Vec<bool>) {
    let n_routines = changed.len();
    let routine_of = |n: NodeId| psg.nodes[n.index()].routine().index();

    let mut reset1_r = changed.to_vec();
    loop {
        let mut changed = false;
        // Caller closure: a reset routine's summary feeds the call-return
        // edges at its call sites, which live in its callers.
        for ri in 0..n_routines {
            if !reset1_r[ri] {
                continue;
            }
            for &entry in &psg.routines[ri].entries {
                for &eid in &psg.entry_cr_edges[entry.index()] {
                    let caller = routine_of(psg.edges[eid.index()].from());
                    if !reset1_r[caller] {
                        reset1_r[caller] = true;
                        changed = true;
                    }
                }
            }
        }
        // Co-source promotion: an indirect call's edge label meets over
        // all its target routines; resetting some sources but not others
        // would mix freshly reinitialized values with converged ones.
        for sources in psg.cr_sources.iter() {
            if sources.len() < 2 {
                continue;
            }
            let reset_count = sources.iter().filter(|&&s| reset1_r[routine_of(s)]).count();
            if reset_count > 0 && reset_count < sources.len() {
                for &s in sources {
                    let r = routine_of(s);
                    if !reset1_r[r] {
                        reset1_r[r] = true;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Callee closure for phase 2: a reset routine's return-node liveness
    // broadcasts into the exits of every routine it may call.
    let mut reset2_r = reset1_r.clone();
    loop {
        let mut changed = false;
        for ri in 0..n_routines {
            if !reset2_r[ri] {
                continue;
            }
            for &(_, _, ret) in &psg.routines[ri].calls {
                for &t in &psg.return_exit_targets[ret.index()] {
                    let callee = routine_of(t);
                    if !reset2_r[callee] {
                        reset2_r[callee] = true;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    let n = psg.nodes.len();
    let mut reset1 = vec![false; n];
    let mut reset2 = vec![false; n];
    for i in 0..n {
        let r = psg.nodes[i].routine().index();
        reset1[i] = reset1_r[r];
        reset2[i] = reset2_r[r];
    }
    (reset1, reset2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze_with;
    use spike_isa::{Instruction, Reg};
    use spike_program::{ProgramBuilder, Rewriter};

    fn sample() -> Program {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::T0).def(Reg::A0).call("leaf").call("mid").put_int().halt();
        b.routine("mid").def(Reg::T1).def(Reg::A0).call("leaf").ret();
        b.routine("leaf").copy(Reg::A0, Reg::V0).ret();
        b.build().unwrap()
    }

    #[test]
    fn reanalyze_matches_scratch_after_a_delete() {
        let p = sample();
        let mut cache = AnalysisCache::new(AnalysisOptions::default());
        cache.analyze(&p);

        // Delete the dead `def t0` in main.
        let addr = p.routines()[0].addr();
        let (q, dirty) = Rewriter::new(&p).delete(addr).finish().unwrap();
        assert_eq!(dirty, vec![RoutineId::from_index(0)]);

        let incr = cache.reanalyze(&q, &dirty);
        assert_eq!(incr.stats.routines_reanalyzed, 1);
        assert_eq!(incr.stats.routines_reused, 2);

        let scratch = analyze_with(&q, &AnalysisOptions::default());
        assert_eq!(incr.summary, scratch.summary);
        assert_eq!(incr.stats.memory_bytes, scratch.stats.memory_bytes);
        assert_eq!(incr.psg, scratch.psg);
    }

    /// `main` calls into a recursive pair. In `even`, an add whose
    /// operands may be swapped and a definition of `t0` that the next one
    /// overwrites; in `odd`, a read of `t0`.
    fn recursive_sample() -> Program {
        use spike_isa::AluOp;
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::A0).def(Reg::A1).call("even").put_int().halt();
        b.routine("even")
            .def(Reg::T0)
            .def(Reg::T0)
            .op(AluOp::Add, Reg::A0, Reg::A1, Reg::V0)
            .call("odd")
            .ret();
        b.routine("odd").op(AluOp::Sub, Reg::A0, Reg::T0, Reg::A0).call("even").ret();
        b.build().unwrap()
    }

    /// Reanalyzes `edited` from a cache warmed on `p` and checks every
    /// layer against scratch; returns the run's stats.
    fn reanalyze_against_scratch(
        p: &Program,
        edited: &Program,
        dirty: &[RoutineId],
    ) -> AnalysisStats {
        let mut cache = AnalysisCache::new(AnalysisOptions::default());
        assert_eq!(cache.analyze(p).stats.registers_resolved, 64, "scratch solves every register");
        let a = cache.reanalyze(edited, dirty);
        let scratch = analyze_with(edited, &AnalysisOptions::default());
        assert_eq!(a.summary, scratch.summary);
        assert_eq!(a.psg, scratch.psg);
        assert_eq!(a.stack, scratch.stack);
        assert_eq!(a.stats.memory_bytes, scratch.stats.memory_bytes);
        assert_eq!(a.stats.layer_bytes, scratch.stats.layer_bytes);
        assert_eq!(a.stats.call_graph, scratch.stats.call_graph);
        a.stats
    }

    #[test]
    fn an_operand_swap_solves_nothing() {
        let p = recursive_sample();
        let even = p.routine_by_name("even").unwrap();
        let add = p.routine(even).addr() + 2;
        let Some(&Instruction::Operate { op, ra, rb, rc }) = p.insn_at(add) else {
            panic!("the add is the third instruction of `even`")
        };
        let swapped = Instruction::Operate { op, ra: rb, rb: ra, rc };
        let (q, dirty) = Rewriter::new(&p).replace(add, swapped).finish().unwrap();
        assert_eq!(dirty, vec![even]);
        let stats = reanalyze_against_scratch(&p, &q, &dirty);
        assert_eq!((stats.phase1_visits, stats.phase2_visits), (0, 0));
        assert_eq!(stats.registers_resolved, 0);
    }

    #[test]
    fn a_dead_definition_whose_labels_stay_solves_nothing() {
        // The first `def t0` of `even`: the second one defines `t0` on the
        // same paths, so no label moves, though `odd` shifts behind it.
        let p = recursive_sample();
        let even = p.routine_by_name("even").unwrap();
        let (q, dirty) = Rewriter::new(&p).delete(p.routine(even).addr()).finish().unwrap();
        assert_eq!(dirty, vec![even]);
        let stats = reanalyze_against_scratch(&p, &q, &dirty);
        assert_eq!((stats.phase1_visits, stats.phase2_visits), (0, 0));
        assert_eq!(stats.registers_resolved, 0);
    }

    #[test]
    fn a_changed_label_resolves_only_its_registers() {
        // `odd` reads `t1` instead of `t0`: both registers' equations
        // change, across the recursive pair and up into `main`.
        use spike_isa::AluOp;
        let p = recursive_sample();
        let odd = p.routine_by_name("odd").unwrap();
        let sub = Instruction::Operate { op: AluOp::Sub, ra: Reg::A0, rb: Reg::T1, rc: Reg::A0 };
        let (q, dirty) = Rewriter::new(&p).replace(p.routine(odd).addr(), sub).finish().unwrap();
        let stats = reanalyze_against_scratch(&p, &q, &dirty);
        assert_eq!(stats.registers_resolved, 2);
        assert!(stats.phase1_visits > 0 && stats.phase2_visits > 0);
    }

    #[test]
    fn dirty_callee_resets_its_callers() {
        let p = sample();
        let mut cache = AnalysisCache::new(AnalysisOptions::default());
        cache.analyze(&p);

        // Delete the `copy a0, v0` inside `leaf` — the last routine, so
        // nothing shifts and only `leaf` is dirty. Its summary changes
        // (V0 is no longer call-defined), so the seeded rerun must reach
        // both callers (`main` and `mid`) through the caller closure and
        // still match scratch exactly.
        let leaf = p.routine_by_name("leaf").unwrap();
        let addr = p.routine(leaf).addr();
        let (q, dirty) = Rewriter::new(&p).delete(addr).finish().unwrap();
        assert_eq!(dirty, vec![leaf]);

        let incr = cache.reanalyze(&q, &dirty);
        assert_eq!(incr.stats.routines_reanalyzed, 1);
        assert_eq!(incr.stats.routines_reused, 2);
        let scratch = analyze_with(&q, &AnalysisOptions::default());
        assert_eq!(incr.summary, scratch.summary);
        assert_eq!(incr.psg, scratch.psg);
    }

    #[test]
    fn empty_dirty_set_reuses_everything() {
        let p = sample();
        let mut cache = AnalysisCache::new(AnalysisOptions::default());
        let memory = cache.analyze(&p).stats.memory_bytes;
        let a = cache.reanalyze(&p, &[]);
        assert_eq!(a.stats.routines_reanalyzed, 0);
        assert_eq!(a.stats.routines_reused, 3);
        assert_eq!(a.stats.phase1_visits, 0);
        assert_eq!(a.stats.memory_bytes, memory);
    }

    #[test]
    fn routine_count_change_falls_back_to_scratch() {
        let p = sample();
        let mut cache = AnalysisCache::new(AnalysisOptions::default());
        cache.analyze(&p);

        let mut b = ProgramBuilder::new();
        b.routine("only").def(Reg::A0).put_int().halt();
        let q = b.build().unwrap();
        let a = cache.reanalyze(&q, &[RoutineId::from_index(0)]);
        assert_eq!(a.stats.routines_reanalyzed, 1);
        assert_eq!(a.stats.routines_reused, 0);
        let scratch = analyze_with(&q, &AnalysisOptions::default());
        assert_eq!(a.summary, scratch.summary);
    }

    #[test]
    fn shape_change_keeps_the_front_end() {
        use spike_isa::{AluOp, BranchCond, Instruction};
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::A0).call("spin").put_int().halt();
        b.routine("spin")
            .label("top")
            .op_imm(AluOp::Sub, Reg::A0, 1, Reg::A0)
            .cond(BranchCond::Ne, Reg::A0, "top")
            .call("leaf")
            .ret();
        b.routine("leaf").copy(Reg::A0, Reg::V0).ret();
        let p = b.build().unwrap();
        let mut cache = AnalysisCache::new(AnalysisOptions::default());
        cache.analyze(&p);

        // A preheader in front of the loop: the back edge bypasses it, so
        // `spin` gains a block and the block its `Call`/`Return` nodes
        // name is renumbered.
        let spin = p.routine_by_name("spin").unwrap();
        let top = p.routine(spin).addr();
        let mut rw = Rewriter::new(&p);
        rw.insert_before(top, vec![Instruction::Lda { rd: Reg::T0, base: Reg::ZERO, disp: 1 }]);
        rw.bypass(top + 1);
        let (q, dirty) = rw.finish().unwrap();
        assert_eq!(dirty, vec![spin]);

        // Only `spin`'s CFG is rebuilt; the PSG and the phases start over.
        let a = cache.reanalyze(&q, &dirty);
        assert_eq!((a.stats.routines_reanalyzed, a.stats.routines_reused), (1, 2));
        let scratch = analyze_with(&q, &AnalysisOptions::default());
        assert_eq!(a.summary, scratch.summary);
        assert_eq!(a.psg, scratch.psg);
        assert_eq!(a.stack, scratch.stack);
        assert_eq!(a.stats.memory_bytes, scratch.stats.memory_bytes);
        assert_eq!(a.stats.phase1_visits, scratch.stats.phase1_visits, "full phases");
        assert_eq!(a.stats.registers_resolved, 64);
    }

    #[test]
    fn register_only_runs_leave_the_stack_layer_for_the_next_demand() {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::T0).def(Reg::A0).call("keep").call("leaf").put_int().halt();
        b.routine("keep")
            .def(Reg::T1)
            .lda(Reg::SP, Reg::SP, -16)
            .store(Reg::A0, Reg::SP, 0)
            .call("leaf")
            .load(Reg::A0, Reg::SP, 0)
            .lda(Reg::SP, Reg::SP, 16)
            .ret();
        b.routine("leaf").copy(Reg::A0, Reg::V0).ret();
        let p = b.build().unwrap();
        let options = AnalysisOptions::default();

        // Cold and register-only: no stack solve at all.
        let mut cache = AnalysisCache::new(options.clone());
        let scratch = analyze_with(&p, &options);
        assert_eq!(cache.reanalyze_registers(&p, &[]).summary, &scratch.summary);
        assert_eq!(cache.stack_solves(), 0);
        assert!(cache.analysis().is_none());

        // Two edits, both register-only: delete the dead `def t0` in
        // `main` (shifting everything behind it), then the dead `def t1`
        // in `keep`.
        let (q, dirty) = Rewriter::new(&p).delete(p.routines()[0].addr()).finish().unwrap();
        cache.reanalyze_registers(&q, &dirty);
        let keep = q.routine_by_name("keep").unwrap();
        let (r, dirty) = Rewriter::new(&q).delete(q.routine(keep).addr()).finish().unwrap();
        assert_eq!(dirty, vec![keep]);
        let facts = cache.reanalyze_registers(&r, &dirty);
        assert_eq!((facts.stats.routines_reanalyzed, facts.stats.routines_reused), (1, 2));
        assert_eq!(cache.stack_solves(), 0);
        assert!(cache.clone().into_analysis().is_none(), "the stack layer is behind");

        // The demand: one solve covers everything edited since.
        let scratch = analyze_with(&r, &options);
        let a = cache.reanalyze(&r, &[]);
        assert_eq!(a.stack, scratch.stack);
        assert_eq!(a.summary, scratch.summary);
        assert_eq!(a.stats.memory_bytes, scratch.stats.memory_bytes);
        assert_eq!(cache.stack_solves(), 1);
        assert_eq!(cache.heap_bytes(), scratch.stats.memory_bytes);
        // Current now: asking again solves nothing.
        cache.reanalyze(&r, &[]);
        assert_eq!(cache.stack_solves(), 1);
        assert!(cache.into_analysis().is_some());
    }

    #[test]
    fn query_on_a_full_cache_slices_the_analysis() {
        let p = sample();
        let mut cache = AnalysisCache::new(AnalysisOptions::default());
        cache.analyze(&p);
        let mid = p.routine_by_name("mid").unwrap();
        let (answer, stats) = cache.query(&p, &Query::Summary(mid));
        assert_eq!(stats, QueryStats::default(), "nothing left to analyze");
        let a = cache.analysis().expect("a query leaves a full cache full");
        let s = a.summary.routine(mid);
        assert_eq!(
            answer,
            QueryAnswer::Summary {
                call_used: s.call_used.clone(),
                call_defined: s.call_defined.clone(),
                call_killed: s.call_killed.clone(),
                saved_restored: s.saved_restored,
            }
        );
    }

    #[test]
    fn cold_query_runs_the_register_only_solve() {
        let p = sample();
        let options = AnalysisOptions::default();
        let scratch = analyze_with(&p, &options);
        let mut cache = AnalysisCache::new(options);
        let main = p.routine_by_name("main").unwrap();
        let (answer, stats) = cache.query(&p, &Query::LiveAtEntry(main));
        assert_eq!(answer, query_analysis(&scratch, &p, &Query::LiveAtEntry(main)));
        assert_eq!(stats.routines_analyzed, 3);
        assert_eq!(stats.visits, scratch.stats.phase1_visits + scratch.stats.phase2_visits);
        assert_eq!(stats.cone_routines, 0);
        assert_eq!((cache.stack_solves(), cache.analysis().is_none()), (0, true));
        // The next question finds the register layers in place.
        let (_, again) = cache.query(&p, &Query::Summary(main));
        assert_eq!(again, QueryStats::default());
    }

    #[test]
    fn reaches_needs_a_call_path_of_at_least_one_edge() {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::A0).call("loop").call("mid").halt();
        b.routine("mid").def(Reg::A0).call("leaf").ret();
        b.routine("loop").def(Reg::A0).call("loop").ret();
        b.routine("leaf").copy(Reg::A0, Reg::V0).ret();
        b.routine("orphan").def(Reg::A0).call("leaf").ret();
        let p = b.build().unwrap();
        let mut cache = AnalysisCache::new(AnalysisOptions::default());
        let mut reaches = |caller: &str, callee: &str| {
            let id = |name| p.routine_by_name(name).unwrap();
            let query = Query::Reaches { caller: id(caller), callee: id(callee) };
            cache.query(&p, &query).0 == QueryAnswer::Reaches(true)
        };
        assert!(reaches("main", "mid"));
        assert!(reaches("main", "leaf"), "transitively");
        assert!(!reaches("leaf", "main"));
        assert!(!reaches("main", "orphan"));
        // A routine reaches itself only around a cycle.
        assert!(reaches("loop", "loop"));
        assert!(!reaches("main", "main"));
    }

    #[test]
    fn cold_cache_reanalyze_is_a_full_run() {
        let p = sample();
        let mut cache = AnalysisCache::new(AnalysisOptions::default());
        assert!(cache.analysis().is_none());
        let a = cache.reanalyze(&p, &[RoutineId::from_index(1)]);
        assert_eq!(a.stats.routines_reanalyzed, 3);
        assert_eq!(a.stats.routines_reused, 0);
        cache.invalidate();
        assert!(cache.analysis().is_none());
    }
}
