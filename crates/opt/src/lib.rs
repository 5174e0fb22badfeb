//! # spike-opt
//!
//! The summary-driven post-link optimizations of Figure 1 of the paper —
//! the transformations that motivate Spike's interprocedural dataflow
//! analysis:
//!
//! * **1(a) dead result elimination** — a definition is dead when no
//!   caller reads it on any return (live-at-exit);
//! * **1(b) dead argument elimination** — an argument set up for a call is
//!   dead when the callee never reads it (call-used);
//! * **1(c) spill elimination** — a store/reload of a register around a
//!   call is removable when the call does not kill it (call-killed);
//! * **1(d) callee-saved reallocation** — a value held in a callee-saved
//!   register can move to a caller-saved register the calls do not kill,
//!   deleting the save and restore.
//!
//! All decisions are justified exclusively by the summaries computed by
//! [`spike_core::analyze`]; edits are applied with the relinking
//! [`spike_program::Rewriter`]. Soundness is property-tested by running
//! programs under `spike-sim` before and after optimization.
//!
//! # Example
//!
//! ```
//! use spike_isa::Reg;
//! use spike_program::ProgramBuilder;
//!
//! let mut b = ProgramBuilder::new();
//! b.routine("main")
//!     .def(Reg::A0) // argument f never reads: deleted
//!     .call("f")
//!     .put_int()
//!     .halt();
//! b.routine("f").lda(Reg::V0, Reg::ZERO, 7).ret();
//! let program = b.build()?;
//!
//! let (optimized, report) = spike_opt::optimize(&program)?;
//! assert_eq!(report.dead_deleted, 1);
//! assert_eq!(
//!     optimized.total_instructions(),
//!     program.total_instructions() - 1
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

mod dead;
mod licm;
mod liveness;
mod save_restore;
mod spill;
mod stack_dse;

use std::borrow::Cow;

use spike_core::{Analysis, AnalysisCache, AnalysisOptions, AnalysisStats, RegisterFacts};
use spike_isa::Instruction;
use spike_program::{Program, RewriteError, Rewriter, RoutineId};

pub use liveness::{
    block_liveness, block_must_defined, must_defined_gen, step_back, LivenessScratch,
    RoutineLiveness,
};

/// Bound on [`OptOptions::iterate`] rounds: each round re-runs every
/// enabled pass, and the loop stops early the first round no pass edits
/// anything. Deletions strictly shrink the program, so the loop cannot
/// oscillate — the bound only caps pathological cascades.
const MAX_ROUNDS: usize = 8;

/// Which passes [`optimize_with`] runs, and how the pass manager
/// schedules them.
#[derive(Clone, Debug)]
pub struct OptOptions {
    /// Dead-code elimination (Figure 1(a)/(b)).
    pub dead_code: bool,
    /// Spill elimination around calls (Figure 1(c)).
    pub spills: bool,
    /// Callee-saved register reallocation (Figure 1(d)).
    pub realloc: bool,
    /// Dead-stack-store elimination and frame shrinking, driven by the
    /// interprocedural stack-slot analysis.
    pub stack: bool,
    /// Loop-invariant code motion into synthesized preheaders, guarded
    /// by the interprocedural MOD/REF summaries and register liveness.
    pub licm: bool,
    /// An execution profile of the *input* image. When present (and its
    /// fingerprint matches), LICM weighs hoists by measured execution
    /// counts instead of the static every-iteration rule, and only hoists
    /// code that actually ran hotter than its loop entry.
    pub profile: Option<spike_profile::Profile>,
    /// Loop spills → reallocation → dead code until a whole round finds
    /// nothing to edit (bounded by an internal round cap). The paper's
    /// passes expose each other's opportunities — a removed spill frees a
    /// register reallocation can claim, reallocation strands stores dead
    /// code can delete — so iterating converges to a smaller program.
    pub iterate: bool,
    /// Re-analyze only the routines each pass edited (plus whatever their
    /// changes can influence), reusing the cached front-end structures
    /// and converged dataflow of everything else. The result is
    /// bit-identical to from-scratch analysis between passes; disabling
    /// this exists for benchmarking and belt-and-suspenders comparison.
    pub incremental: bool,
    /// Analysis options used to compute the summaries.
    pub analysis: AnalysisOptions,
}

impl Default for OptOptions {
    fn default() -> OptOptions {
        OptOptions {
            dead_code: true,
            spills: true,
            realloc: true,
            stack: true,
            licm: true,
            profile: None,
            iterate: false,
            incremental: true,
            analysis: AnalysisOptions::default(),
        }
    }
}

/// What the optimizer did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptReport {
    /// Instructions deleted by dead-code elimination.
    pub dead_deleted: usize,
    /// Spill store/reload pairs removed.
    pub spill_pairs_removed: usize,
    /// Dynamic instructions saved by the removed spill pairs: measured
    /// execution counts when a matching profile was supplied, otherwise
    /// the static loop-depth estimate (2 × 10^depth per pair).
    pub spill_dynamic_saved: u64,
    /// Callee-saved registers reallocated to caller-saved homes (or whose
    /// dead save/restore pairs were deleted).
    pub registers_reallocated: usize,
    /// Save/restore instructions deleted by reallocation.
    pub save_restores_deleted: usize,
    /// Dead stack stores deleted by the stack-slot pass.
    pub stack_stores_deleted: usize,
    /// Loop-invariant loads hoisted into preheaders.
    pub loads_hoisted: usize,
    /// Loop-invariant register computations hoisted into preheaders.
    pub ops_hoisted: usize,
    /// Total bytes removed from stack frames by frame shrinking.
    pub frame_bytes_shrunk: usize,
    /// Instruction count before optimization.
    pub instructions_before: usize,
    /// Instruction count after optimization.
    pub instructions_after: usize,
    /// Pass-loop rounds executed (1 unless [`OptOptions::iterate`]).
    pub rounds: usize,
    /// Routines whose front-end analysis structures were rebuilt, summed
    /// over every analysis run the pass manager performed.
    pub routines_reanalyzed: usize,
    /// Routines reused from the analysis cache, summed over every
    /// analysis run (always `0` with `incremental` disabled).
    pub routines_reused: usize,
    /// Times the stack layer of the analysis was solved or caught up:
    /// only loop-invariant code motion and dead-stack-store elimination
    /// read it, so at most once per round for each of the two.
    pub stack_solves: usize,
}

impl OptReport {
    /// Total instructions removed.
    pub fn removed(&self) -> usize {
        self.instructions_before - self.instructions_after
    }
}

/// Optimizes `program` with every pass enabled.
///
/// # Errors
///
/// Returns a [`RewriteError`] if relinking fails (which indicates a bug in
/// a pass, not bad input — any validated program is optimizable).
pub fn optimize(program: &Program) -> Result<(Program, OptReport), RewriteError> {
    optimize_with(program, &OptOptions::default())
}

/// The passes the manager can schedule, in their fixed run order: LICM
/// goes first, both because motion creates the loop-free straight-line
/// shapes the deleting passes understand and because profile counts are
/// only address-valid against the unedited input image; removing a spill
/// next makes its register visibly live across the call, so reallocation
/// cannot claim it; stack DSE runs before register dead-code elimination
/// because a deleted stack store often strands the definition that
/// produced the stored value; dead-code elimination last cleans up
/// whatever the earlier passes expose.
///
/// A pass is typed by the analysis layers it reads, and is handed
/// exactly those: the stack layer is brought up to date only in front of
/// an [`AllLayersPass`], and a [`RegisterPass`] cannot reach it.
#[derive(Clone, Copy, Debug)]
enum Pass {
    AllLayers(AllLayersPass),
    Registers(RegisterPass),
}

/// Passes that read the stack layer next to the register summaries.
#[derive(Clone, Copy, Debug)]
enum AllLayersPass {
    Licm,
    StackDse,
}

/// Passes justified by the register summaries alone.
#[derive(Clone, Copy, Debug)]
enum RegisterPass {
    Spills,
    Realloc,
    Dead,
}

/// The edits one pass wants applied. Collected against a borrowed
/// analysis, applied afterwards; the report counters are claimed while
/// collecting.
#[derive(Default)]
struct PassEdits {
    deletes: Vec<u32>,
    replaces: Vec<(u32, Instruction)>,
    inserts: Vec<(u32, Vec<Instruction>)>,
    bypasses: Vec<u32>,
}

impl PassEdits {
    fn is_empty(&self) -> bool {
        self.deletes.is_empty() && self.replaces.is_empty() && self.inserts.is_empty()
    }
}

impl OptReport {
    /// Books one analysis run of the pass manager.
    fn count_run(&mut self, stats: &AnalysisStats) {
        self.routines_reanalyzed += stats.routines_reanalyzed;
        self.routines_reused += stats.routines_reused;
    }
}

fn all_layers_edits(
    pass: AllLayersPass,
    program: &Program,
    analysis: &Analysis,
    profile: Option<&spike_profile::Profile>,
    report: &mut OptReport,
) -> PassEdits {
    report.count_run(&analysis.stats);
    let mut edits = PassEdits::default();
    match pass {
        AllLayersPass::Licm => {
            let hoists = licm::find_hoists(program, analysis, profile);
            report.loads_hoisted += hoists.loads;
            report.ops_hoisted += hoists.ops;
            for lh in hoists.loops {
                let mut moved = Vec::with_capacity(lh.insns.len());
                for (addr, insn) in lh.insns {
                    edits.deletes.push(addr);
                    moved.push(insn);
                }
                edits.inserts.push((lh.header_addr, moved));
                edits.bypasses.extend_from_slice(&lh.bypasses);
            }
        }
        AllLayersPass::StackDse => {
            let se = stack_dse::find(program, analysis);
            report.stack_stores_deleted += se.stores_deleted;
            report.frame_bytes_shrunk += se.frame_bytes_shrunk;
            edits.deletes.extend_from_slice(&se.deletes);
            edits.replaces.extend_from_slice(&se.replaces);
        }
    }
    edits
}

fn register_edits(
    pass: RegisterPass,
    program: &Program,
    facts: RegisterFacts<'_>,
    profile: Option<&spike_profile::Profile>,
    report: &mut OptReport,
) -> PassEdits {
    report.count_run(facts.stats);
    let mut edits = PassEdits::default();
    match pass {
        RegisterPass::Spills => {
            let pairs = spill::find_spills(program, facts, profile);
            report.spill_pairs_removed += pairs.len();
            for p in &pairs {
                report.spill_dynamic_saved += p.weight;
                edits.deletes.push(p.store_addr);
                edits.deletes.push(p.load_addr);
            }
        }
        RegisterPass::Realloc => {
            for r in &save_restore::find_reallocs(program, facts) {
                report.registers_reallocated += 1;
                report.save_restores_deleted += r.delete.len();
                edits.deletes.extend_from_slice(&r.delete);
                edits.replaces.extend_from_slice(&r.rename);
            }
        }
        RegisterPass::Dead => {
            let dead = dead::find_dead(program, facts);
            report.dead_deleted += dead.len();
            edits.deletes = dead;
        }
    }
    edits
}

/// Optimizes `program` with explicit pass selection.
///
/// A small pass manager threads one [`AnalysisCache`] through the enabled
/// passes (loop-invariant code motion → spills → reallocation → dead
/// stack stores → dead code; the private `Pass` enum documents why that
/// order). Each pass reports the routines it edited, and by default only
/// those — plus whatever their changes can influence — are re-analyzed
/// before the next pass ([`OptOptions::incremental`]); a pass that finds
/// nothing leaves the cached analysis untouched for its successor. The
/// stack layer of the analysis is solved only in front of the two passes
/// that read it, over everything edited since it was last solved
/// ([`OptReport::stack_solves`]). With [`OptOptions::iterate`] the whole
/// sequence loops until a round finds nothing to edit.
///
/// The input program is not cloned until an edit actually lands: a run
/// where every pass is disabled or finds nothing only pays for the final
/// copy out.
///
/// # Errors
///
/// Returns a [`RewriteError`] if relinking fails; see [`optimize`].
pub fn optimize_with(
    program: &Program,
    options: &OptOptions,
) -> Result<(Program, OptReport), RewriteError> {
    let mut report =
        OptReport { instructions_before: program.total_instructions(), ..OptReport::default() };
    report.instructions_after = report.instructions_before;

    let passes: Vec<Pass> = [
        (options.licm, Pass::AllLayers(AllLayersPass::Licm)),
        (options.spills, Pass::Registers(RegisterPass::Spills)),
        (options.realloc, Pass::Registers(RegisterPass::Realloc)),
        (options.stack, Pass::AllLayers(AllLayersPass::StackDse)),
        (options.dead_code, Pass::Registers(RegisterPass::Dead)),
    ]
    .into_iter()
    .filter_map(|(enabled, pass)| enabled.then_some(pass))
    .collect();
    if passes.is_empty() {
        return Ok((program.clone(), report));
    }

    let mut current: Cow<'_, Program> = Cow::Borrowed(program);
    let mut cache = AnalysisCache::new(options.analysis.clone());
    // Routines edited since the cache last saw the program; empty means
    // the cached analysis is still exact and is reused wholesale.
    let mut pending: Vec<RoutineId> = Vec::new();
    let mut edited = false;
    // Profile counts are keyed by address, so they only apply to the
    // image that was profiled: the fingerprint is checked once, against
    // the input, and the profile is dropped at the first landed edit,
    // after which LICM and spill weighting use their static rules.
    let mut profile = options
        .profile
        .as_ref()
        .filter(|p| (options.licm || options.spills) && p.matches(&program.to_image()));

    let max_rounds = if options.iterate { MAX_ROUNDS } else { 1 };
    for _ in 0..max_rounds {
        report.rounds += 1;
        let mut round_edited = false;
        for &pass in &passes {
            if !options.incremental {
                cache.invalidate();
            }
            let dirty = std::mem::take(&mut pending);
            let edits = match pass {
                Pass::AllLayers(pass) => {
                    let analysis = cache.reanalyze(&current, &dirty);
                    all_layers_edits(pass, &current, analysis, profile, &mut report)
                }
                Pass::Registers(pass) => {
                    let facts = cache.reanalyze_registers(&current, &dirty);
                    register_edits(pass, &current, facts, profile, &mut report)
                }
            };
            if edits.is_empty() {
                continue;
            }
            let mut rw = Rewriter::new(&current);
            for &addr in &edits.deletes {
                rw.delete(addr);
            }
            for &(addr, insn) in &edits.replaces {
                rw.replace(addr, insn);
            }
            for (addr, insns) in edits.inserts {
                rw.insert_before(addr, insns);
            }
            for &addr in &edits.bypasses {
                rw.bypass(addr);
            }
            let (next, changed) = rw.finish()?;
            current = Cow::Owned(next);
            pending = changed;
            profile = None;
            edited = true;
            round_edited = true;
        }
        if !round_edited {
            break;
        }
    }

    if edited {
        report.instructions_after = current.total_instructions();
    }
    report.stack_solves = cache.stack_solves();
    Ok((current.into_owned(), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spike_isa::Reg;
    use spike_program::ProgramBuilder;
    use spike_sim::{run, Outcome};

    /// Observable behaviour: the output stream. Step counts are expected
    /// to differ (that is the point of optimizing).
    fn behaviour(p: &Program) -> Vec<i64> {
        match run(p, 5_000_000) {
            Outcome::Halted { output, .. } => output,
            other => panic!("program did not halt: {other:?}"),
        }
    }

    #[test]
    fn figure1a_dead_result() {
        let mut b = ProgramBuilder::new();
        b.routine("main").call("f").halt();
        b.routine("f")
            .lda(Reg::T0, Reg::ZERO, 1)
            .copy(Reg::T0, Reg::V0) // nobody reads v0 on return
            .ret();
        let p = b.build().unwrap();
        let (q, report) = optimize(&p).unwrap();
        assert_eq!(report.dead_deleted, 2);
        assert_eq!(behaviour(&p), behaviour(&q));
    }

    #[test]
    fn figure1b_dead_argument() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .lda(Reg::A0, Reg::ZERO, 5)
            .lda(Reg::A1, Reg::ZERO, 6) // f never reads a1
            .call("f")
            .put_int()
            .halt();
        b.routine("f").copy(Reg::A0, Reg::V0).ret();
        let p = b.build().unwrap();
        let (q, report) = optimize(&p).unwrap();
        assert_eq!(report.dead_deleted, 1);
        assert_eq!(behaviour(&q), vec![5]);
    }

    #[test]
    fn figure1c_spill_elimination() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .lda(Reg::T0, Reg::ZERO, 11)
            .store(Reg::T0, Reg::SP, -8)
            .call("quiet")
            .load(Reg::T0, Reg::SP, -8)
            .copy(Reg::T0, Reg::V0)
            .put_int()
            .halt();
        b.routine("quiet").lda(Reg::int(6), Reg::ZERO, 1).ret();
        let p = b.build().unwrap();
        let (q, report) = optimize(&p).unwrap();
        assert_eq!(report.spill_pairs_removed, 1);
        assert_eq!(behaviour(&p), behaviour(&q));
        // The dead pass then kills quiet's pointless def too.
        assert!(q.total_instructions() <= p.total_instructions() - 2);
    }

    #[test]
    fn figure1d_reallocation_end_to_end() {
        let mut b = ProgramBuilder::new();
        b.routine("main").lda(Reg::A0, Reg::ZERO, 3).call("f").put_int().halt();
        b.routine("f")
            .lda(Reg::SP, Reg::SP, -16)
            .store(Reg::RA, Reg::SP, 8)
            .store(Reg::S0, Reg::SP, 0)
            .copy(Reg::A0, Reg::S0)
            .call("quiet")
            .copy(Reg::S0, Reg::V0)
            .load(Reg::S0, Reg::SP, 0)
            .load(Reg::RA, Reg::SP, 8)
            .lda(Reg::SP, Reg::SP, 16)
            .ret();
        b.routine("quiet").lda(Reg::T0, Reg::ZERO, 1).ret();
        let p = b.build().unwrap();
        let (q, report) = optimize(&p).unwrap();
        assert_eq!(report.registers_reallocated, 1);
        assert_eq!(report.save_restores_deleted, 2);
        assert_eq!(behaviour(&p), behaviour(&q));
        assert_eq!(behaviour(&q), vec![3]);
    }

    #[test]
    fn dead_stack_store_is_deleted_and_the_frame_vanishes() {
        let mut b = ProgramBuilder::new();
        b.routine("main").call("f").put_int().halt();
        b.routine("f")
            .lda(Reg::SP, Reg::SP, -16)
            .lda(Reg::T0, Reg::ZERO, 3)
            .store(Reg::T0, Reg::SP, 8) // nothing ever reads this slot
            .copy(Reg::T0, Reg::V0)
            .lda(Reg::SP, Reg::SP, 16)
            .ret();
        let p = b.build().unwrap();
        let (q, report) = optimize(&p).unwrap();
        assert_eq!(report.stack_stores_deleted, 1);
        // With no surviving access the whole frame goes away too.
        assert_eq!(report.frame_bytes_shrunk, 16);
        assert_eq!(behaviour(&p), behaviour(&q));
        assert_eq!(behaviour(&q), vec![3]);
    }

    #[test]
    fn oversized_frame_is_shrunk_around_surviving_slots() {
        let mut b = ProgramBuilder::new();
        b.routine("main").call("f").put_int().halt();
        b.routine("f")
            .lda(Reg::SP, Reg::SP, -32)
            .lda(Reg::T0, Reg::ZERO, 7)
            .store(Reg::T0, Reg::SP, 24)
            .load(Reg::T1, Reg::SP, 24)
            .copy(Reg::T1, Reg::V0)
            .lda(Reg::SP, Reg::SP, 32)
            .ret();
        let p = b.build().unwrap();
        let (q, report) = optimize(&p).unwrap();
        // The only live slot sits 8 bytes below entry SP; 16 bytes of
        // frame suffice and 16 are returned.
        assert_eq!(report.stack_stores_deleted, 0);
        assert_eq!(report.frame_bytes_shrunk, 16);
        assert_eq!(behaviour(&p), behaviour(&q));
        assert_eq!(behaviour(&q), vec![7]);
    }

    #[test]
    fn red_zone_store_is_left_to_the_spill_pass() {
        // A store below an unadjusted SP (Figure 1(c)'s shape) is an
        // out-of-frame access: the stack DSE must not touch the routine
        // even though nothing reads the slot.
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .lda(Reg::T0, Reg::ZERO, 1)
            .store(Reg::T0, Reg::SP, -8)
            .copy(Reg::T0, Reg::V0)
            .put_int()
            .halt();
        let p = b.build().unwrap();
        let (q, report) = optimize(&p).unwrap();
        assert_eq!(report.stack_stores_deleted, 0);
        assert_eq!(report.frame_bytes_shrunk, 0);
        assert_eq!(behaviour(&p), behaviour(&q));
    }

    #[test]
    fn stack_pass_can_be_disabled() {
        let mut b = ProgramBuilder::new();
        b.routine("main").call("f").halt();
        b.routine("f")
            .lda(Reg::SP, Reg::SP, -16)
            .lda(Reg::T0, Reg::ZERO, 3)
            .store(Reg::T0, Reg::SP, 8)
            .lda(Reg::SP, Reg::SP, 16)
            .ret();
        let p = b.build().unwrap();
        let options = OptOptions { stack: false, ..OptOptions::default() };
        let (q, report) = optimize_with(&p, &options).unwrap();
        assert_eq!(report.stack_stores_deleted, 0);
        assert_eq!(report.frame_bytes_shrunk, 0);
        assert!(q.total_instructions() >= p.total_instructions() - 1); // dead pass may still fire
    }

    #[test]
    fn optimization_reduces_dynamic_instructions() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .lda(Reg::T0, Reg::ZERO, 9)
            .store(Reg::T0, Reg::SP, -8)
            .call("quiet")
            .load(Reg::T0, Reg::SP, -8)
            .copy(Reg::T0, Reg::V0)
            .put_int()
            .halt();
        b.routine("quiet").ret();
        let p = b.build().unwrap();
        let (q, _) = optimize(&p).unwrap();
        let (Outcome::Halted { steps: s0, output: o0 }, Outcome::Halted { steps: s1, output: o1 }) =
            (run(&p, 1_000_000), run(&q, 1_000_000))
        else {
            panic!("both must halt");
        };
        assert_eq!(o0, o1);
        assert!(s1 < s0, "optimization should execute fewer instructions");
    }

    #[test]
    fn passes_can_be_disabled() {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::T0).halt();
        let p = b.build().unwrap();
        let options = OptOptions { dead_code: false, ..OptOptions::default() };
        let (q, report) = optimize_with(&p, &options).unwrap();
        assert_eq!(report.dead_deleted, 0);
        assert_eq!(q, p);
    }

    #[test]
    fn iterate_mode_keeps_behaviour_and_reaches_a_fixpoint() {
        let options = OptOptions { iterate: true, ..OptOptions::default() };
        for seed in 0..10 {
            let p = spike_synth::generate_executable(seed, 5);
            let (single, single_report) = optimize(&p).unwrap();
            let (iterated, report) = optimize_with(&p, &options).unwrap();
            assert!(report.rounds >= 1 && report.rounds <= MAX_ROUNDS);
            assert!(
                report.removed() >= single_report.removed(),
                "seed {seed}: iterating must not lose deletions"
            );
            assert_eq!(behaviour(&p), behaviour(&iterated), "seed {seed} changed behaviour");
            let _ = single;
            if report.rounds < MAX_ROUNDS {
                // The loop stopped because a whole round found nothing, so
                // the result is a fixpoint of the pass sequence.
                let (again, re_report) = optimize_with(&iterated, &options).unwrap();
                assert_eq!(again, iterated, "seed {seed}: fixpoint must be stable");
                assert_eq!(re_report.removed(), 0);
            }
        }
    }

    #[test]
    fn single_round_reuses_clean_routines() {
        // Five routines and three passes: unless every pass edits every
        // routine, the cache must report some reuse.
        let p = spike_synth::generate_executable(7, 5);
        let (_, report) = optimize(&p).unwrap();
        assert!(report.routines_reused > 0, "{report:?}");
        assert!(report.rounds == 1);

        let off = OptOptions { incremental: false, ..OptOptions::default() };
        let (_, report_off) = optimize_with(&p, &off).unwrap();
        assert_eq!(report_off.routines_reused, 0);
    }

    #[test]
    fn generated_executables_keep_their_behaviour() {
        for seed in 0..25 {
            let p = spike_synth::generate_executable(seed, 5);
            let (q, report) = optimize(&p).unwrap();
            assert_eq!(behaviour(&p), behaviour(&q), "seed {seed} changed behaviour ({report:?})");
        }
    }

    #[test]
    fn optimized_profile_programs_stay_valid() {
        let profile = spike_synth::profile("li").unwrap();
        let p = spike_synth::generate(&profile, 30.0 / profile.routines as f64, 5);
        let (q, report) = optimize(&p).unwrap();
        assert!(report.instructions_after <= report.instructions_before);
        // The optimized program re-analyzes cleanly.
        let _ = spike_core::analyze(&q);
    }
}
