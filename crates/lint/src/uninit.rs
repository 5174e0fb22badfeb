//! The interprocedural must-defined analysis and the uninitialized-read
//! check.
//!
//! A read is flagged when, on some path the analysis cannot rule out, the
//! register was never written: the check computes the forward *must*-dual
//! of the paper's may-use sets — registers defined along **every** known
//! path — and flags uses outside it. Definedness is monotone (a write
//! never un-defines a register), so calls only add their must-defined
//! (`call-defined`) sets and the meet over paths is a plain intersection.
//!
//! Soundness contract (proptested at the workspace root): the set computed
//! here under-approximates the registers `spike_sim::run_shadow` considers
//! defined on any executed path, and the per-instruction use sets match
//! [`checked_uses`] exactly — so a lint-clean program can never trap
//! `Fault::UninitRead` in shadow mode.

use spike_callgraph::CallGraph;
use spike_cfg::{BlockId, CallTarget, ProgramCfg, RoutineCfg, TermKind};
use spike_core::worklist::PriorityWorklist;
use spike_core::{Analysis, ProgramSummary};
use spike_isa::{CallingStandard, Instruction, Reg, RegSet};
use spike_opt::{block_must_defined, must_defined_gen};
use spike_program::{Program, RoutineId};

use crate::diag::{Callee, Check, Diagnostic, LintReport, Note, Operands};
use crate::frame::witness;

/// Registers defined before the program's first instruction: the machine
/// initializes the stack pointer and the return address, and the zero
/// registers always read as zero.
fn program_entry_defined() -> RegSet {
    RegSet::of(&[Reg::RA, Reg::SP, Reg::ZERO, Reg::FZERO])
}

/// Registers an external caller is assumed to have defined when entering
/// an exported routine: arguments, the callee-saved set it expects
/// preserved, and the linkage registers.
fn exported_entry_defined(std: &CallingStandard) -> RegSet {
    std.argument()
        | std.callee_saved()
        | RegSet::of(&[Reg::RA, Reg::SP, Reg::GP, Reg::ZERO, Reg::FZERO])
}

/// The registers an instruction must have defined to execute without
/// reading garbage. Store *data* is exempt: storing a register the routine
/// never wrote is the prologue save idiom (§3.4), not a consumption of its
/// value — `spike_sim::run_shadow` uses the identical rule.
pub(crate) fn checked_uses(insn: &Instruction) -> RegSet {
    match *insn {
        Instruction::Store { base, .. } => RegSet::singleton(base),
        _ => insn.uses(),
    }
}

/// The converged interprocedural must-defined solution.
pub(crate) struct MustDefined {
    /// Per routine, per entrance: registers defined on every known path
    /// into the entrance. `RegSet::ALL` (⊤) for entrances with no known
    /// callers — no path, vacuously everything.
    entry: Vec<Vec<RegSet>>,
    /// Per routine, per block: registers defined on every path to the
    /// block's first instruction.
    block_in: Vec<Vec<RegSet>>,
}

/// One in-scope routine's share of the fixpoint system, built once: the
/// structure every solve of the routine runs over, and what the last
/// solve left behind.
///
/// Definedness flows along the CFG's flow table: successors plus the
/// call → return-point arc (definedness flows through the callee). Its
/// forward rank is the pop order: most blocks see their final
/// predecessor facts on the first evaluation, and a change only
/// re-queues the blocks that actually read it.
struct Plan {
    /// Per block, what its flow successors see on top of its own
    /// entry facts: `DEF`, plus `call-defined` for a call block.
    gen: Vec<RegSet>,
    /// Per block, the meet of the entrance values it was solved under:
    /// ⊤ for blocks that are no entrance.
    constraint: Vec<RegSet>,
    /// The call blocks.
    calls: Vec<BlockId>,
    solved: bool,
}

impl Plan {
    fn build(pcfg: &ProgramCfg, summary: &ProgramSummary, rid: RoutineId) -> Plan {
        let gen = must_defined_gen(pcfg, summary, rid);
        let cfg = pcfg.routine_cfg(rid);
        let calls = cfg.call_blocks().collect();
        let constraint = vec![RegSet::ALL; cfg.blocks().len()];
        Plan { gen, constraint, calls, solved: false }
    }

    /// Brings `block_in` to the routine's local fixpoint under the
    /// current entrance values `entry`.
    ///
    /// The first solve starts every block at ⊤ and evaluates them all.
    /// A later one seeds only the entrance blocks whose value shrank and
    /// continues from the `block_in` the previous solve left: that
    /// solution is a post-fixpoint of the shrunken system lying above
    /// its greatest fixpoint, so descending from it reaches the same
    /// fixpoint a restart from ⊤ would. Entrances only shrink, which is
    /// also why accumulating the meet into `constraint` equals
    /// recomputing it.
    fn solve(
        &mut self,
        cfg: &RoutineCfg,
        entry: &[RegSet],
        block_in: &mut [RegSet],
        wl: &mut PriorityWorklist,
    ) {
        let rank = cfg.flow().rank();
        for (&b, &at_entrance) in cfg.entries().iter().zip(entry) {
            let met = self.constraint[b.index()] & at_entrance;
            if met != self.constraint[b.index()] {
                self.constraint[b.index()] = met;
                wl.push(b.index(), rank[b.index()]);
            }
        }
        if !std::mem::replace(&mut self.solved, true) {
            for (i, &r) in rank.iter().enumerate() {
                wl.push(i, r);
            }
        }
        block_must_defined(cfg, &self.constraint, &self.gen, block_in, wl);
    }
}

/// Computes the must-defined solution: the greatest fixpoint of the
/// system whose unknowns are every block's entry facts and every
/// routine entrance, an entrance being the meet of its boundary
/// assumption with what each resolved call site passes in.
///
/// The solve is change-driven at both levels. A routine-level worklist
/// in callers-first order solves a routine ([`Plan::solve`]), then meets
/// the definedness *at the moment the callee starts* — block-in plus
/// the call block's own defs (including `ra` from the call itself),
/// without the callee's effect — into the entrances of its callees, and
/// queues exactly the callees whose entrance shrank. Unknown-target
/// calls contribute no edge: their targets keep their boundary
/// assumption. Every entrance starts at its boundary value and only
/// shrinks, so the iteration descends from ⊤ and terminates at the
/// greatest fixpoint whatever the evaluation order — the same solution
/// as re-solving every routine from ⊤ until no entrance moves.
///
/// With `scope = Some(r)` the fixpoint is restricted to `r`'s transitive
/// *caller closure* — the only routines whose facts can flow into `r`'s
/// entrances. The restriction is exact for every routine in the closure:
/// the closure is caller-closed, so every call edge into a closure
/// routine originates inside it and all of its entrance meets are
/// applied. Equivalently, the restricted system is the projection of
/// the full descending iteration onto the closure, whose coordinates
/// never read the dropped ones. Outside the closure `block_in` is never
/// computed and an entrance has met only its in-closure callers:
/// neither must be read.
pub(crate) fn compute_scoped(
    program: &Program,
    cfg: &ProgramCfg,
    summary: &ProgramSummary,
    callgraph: &CallGraph,
    scope: Option<RoutineId>,
) -> MustDefined {
    let std = summary.calling_standard();
    let mut entry: Vec<Vec<RegSet>> = program
        .iter()
        .map(|(rid, r)| {
            (0..r.entry_offsets().len())
                .map(|e| {
                    let mut v = RegSet::ALL;
                    if r.exported() {
                        v &= exported_entry_defined(std);
                    }
                    if rid == program.entry() && e == 0 {
                        v &= program_entry_defined();
                    }
                    v
                })
                .collect()
        })
        .collect();
    let mut block_in: Vec<Vec<RegSet>> =
        cfg.cfgs().iter().map(|c| vec![RegSet::ALL; c.blocks().len()]).collect();

    // Callers-first order: entrance facts propagate down call chains
    // before the callee is first solved.
    let mut order: Vec<RoutineId> = callgraph.sccs().bottom_up().concat();
    order.reverse();

    // Restrict the iteration to the target's caller closure.
    if let Some(target) = scope {
        let mask = callgraph.caller_closure(&[target]);
        order.retain(|r| mask[r.index()]);
    }

    // A routine's worklist item and rank are both its position in
    // `order`; out-of-scope routines have none.
    let mut position: Vec<Option<usize>> = vec![None; program.routines().len()];
    for (i, &rid) in order.iter().enumerate() {
        position[rid.index()] = Some(i);
    }
    let mut plans: Vec<Plan> = order.iter().map(|&rid| Plan::build(cfg, summary, rid)).collect();
    let mut routines = PriorityWorklist::new(order.len());
    for i in 0..order.len() {
        routines.push(i, i as u32);
    }
    let widest = plans.iter().map(|p| p.constraint.len()).max().unwrap_or(0);
    let mut blocks = PriorityWorklist::new(widest);

    while let Some(i) = routines.pop() {
        let rid = order[i];
        let rcfg = cfg.routine_cfg(rid);
        let plan = &mut plans[i];
        plan.solve(rcfg, &entry[rid.index()], &mut block_in[rid.index()], &mut blocks);

        for &b in &plan.calls {
            let block = rcfg.block(b);
            let TermKind::Call { target, .. } = block.term() else { continue };
            let at_entry = block_in[rid.index()][b.index()] | block.def();
            let mut meet = |callee: RoutineId, e: usize| {
                let slot = &mut entry[callee.index()][e];
                let met = *slot & at_entry;
                if met != *slot {
                    *slot = met;
                    if let Some(j) = position[callee.index()] {
                        routines.push(j, j as u32);
                    }
                }
            };
            match target {
                CallTarget::Direct(callee, e) => meet(*callee, *e),
                CallTarget::IndirectKnown(list) => list.iter().for_each(|&(c, e)| meet(c, e)),
                CallTarget::IndirectUnknown | CallTarget::IndirectHinted { .. } => {}
            }
        }
    }
    MustDefined { entry, block_in }
}

/// The callee of the last call block on the witness path, if any — the
/// one the missing-return-value note names.
fn last_call_on_path(cfg: &RoutineCfg, witness: &[u32]) -> Option<Callee> {
    for &addr in witness.iter().rev() {
        let b = cfg.block_containing(addr)?;
        if let TermKind::Call { target, .. } = cfg.block(b).term() {
            return Some(match target {
                CallTarget::Direct(callee, _) => Callee::Routine(*callee),
                CallTarget::IndirectKnown(list) => Callee::Routine(list.first()?.0),
                CallTarget::IndirectUnknown | CallTarget::IndirectHinted { .. } => Callee::Indirect,
            });
        }
    }
    None
}

/// Flags every use in `rid` not covered by the must-defined solution,
/// one finding per `(routine, register)`. `md` must hold converged facts
/// for `rid` (full solution, or a scoped one targeting `rid`).
fn check_one(
    program: &Program,
    cfg: &ProgramCfg,
    summary: &ProgramSummary,
    md: &MustDefined,
    rid: RoutineId,
    report: &mut LintReport,
) {
    let routine = program.routine(rid);
    let rcfg = cfg.routine_cfg(rid);
    let ret_regs = summary.calling_standard().return_value();
    let mut gen: Option<Vec<RegSet>> = None;
    let mut flagged = RegSet::EMPTY;
    for (bi, block) in rcfg.blocks().iter().enumerate() {
        let mut defined = md.block_in[rid.index()][bi];
        // Checked uses are uses, and a use the block itself does not
        // define first is in `UBD`: with all of `UBD` defined on entry,
        // nothing in the block can be flagged.
        if block.ubd().is_subset(defined) {
            continue;
        }
        for addr in block.start()..block.end() {
            let insn = routine.insn_at(addr).expect("address in routine");
            let missing = checked_uses(insn) - defined;
            for reg in missing.iter() {
                // Treat as defined from here on, so one root cause is
                // not reported at every downstream use.
                defined.insert(reg);
                if flagged.contains(reg) {
                    continue;
                }
                flagged.insert(reg);
                // A path from an entrance `reg` may be missing at, through
                // blocks that do not define it.
                let gen = gen.get_or_insert_with(|| must_defined_gen(cfg, summary, rid));
                let seeds = rcfg.entries().iter().zip(&md.entry[rid.index()]);
                let path = witness(
                    rcfg,
                    seeds.filter(|(_, e)| !e.contains(reg)).map(|(&b, _)| b),
                    BlockId::from_index(bi),
                    |b| gen[b.index()].contains(reg),
                );
                let mut d = Diagnostic::new(Check::UninitRead, Some(rid), Some(addr));
                d.reg = Some(reg);
                let note = if ret_regs.contains(reg) {
                    last_call_on_path(rcfg, &path).map_or(Note::None, Note::ReturnValue)
                } else {
                    Note::None
                };
                report.push_detailed(d, Operands::None, &path, note);
            }
            defined |= insn.defs();
        }
    }
}

/// Flags every use not covered by the must-defined solution, across the
/// whole program.
pub(crate) fn check(
    program: &Program,
    analysis: &Analysis,
    callgraph: &CallGraph,
    report: &mut LintReport,
) {
    let md = compute_scoped(program, &analysis.cfg, &analysis.summary, callgraph, None);
    for (rid, _) in program.iter() {
        check_one(program, &analysis.cfg, &analysis.summary, &md, rid, report);
    }
}

/// Single-routine variant, for `query uninit`: converges the
/// must-defined fixpoint over `rid`'s caller closure only and flags only
/// `rid`'s reads. The findings equal the whole-program
/// [`check`]'s findings for `rid` exactly (see [`compute_scoped`]);
/// `summary` only needs converged `call-defined` facts for the call sites
/// inside the closure.
pub(crate) fn check_routine(
    program: &Program,
    cfg: &ProgramCfg,
    summary: &ProgramSummary,
    rid: RoutineId,
    report: &mut LintReport,
) {
    let callgraph = CallGraph::build(program, cfg);
    let md = compute_scoped(program, cfg, summary, &callgraph, Some(rid));
    check_one(program, cfg, summary, &md, rid, report);
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use spike_program::ProgramBuilder;

    /// The change-driven solver against the sweep-everything reference,
    /// whole-program and scoped to each of `scopes`.
    fn assert_matches_reference(program: &Program, scopes: &[RoutineId]) {
        let analysis = spike_core::analyze(program);
        let (cfg, summary) = (&analysis.cfg, &analysis.summary);
        let callgraph = CallGraph::build(program, cfg);
        for scope in std::iter::once(None).chain(scopes.iter().copied().map(Some)) {
            let new = compute_scoped(program, cfg, summary, &callgraph, scope);
            let (old, _) = reference::compute_scoped(program, cfg, summary, scope);
            assert_eq!(new.entry, old.entry, "entrances, scope {scope:?}");
            assert_eq!(new.block_in, old.block_in, "block facts, scope {scope:?}");
        }
    }

    fn spread(program: &Program) -> Vec<RoutineId> {
        let n = program.routines().len();
        let mut picks = vec![0, n / 3, n / 2, n - 1];
        picks.dedup();
        picks.into_iter().map(RoutineId::from_index).collect()
    }

    #[test]
    fn matches_reference_on_every_profile() {
        for profile in spike_synth::profiles() {
            for seed in 0..2u64 {
                let scale = 40.0 / profile.routines as f64;
                let program = spike_synth::generate(&profile, scale, seed);
                assert_matches_reference(&program, &spread(&program));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn matches_reference_on_random_executables(seed in any::<u64>(), size in 1usize..40) {
            let program = spike_synth::generate_executable(seed, size);
            assert_matches_reference(&program, &spread(&program));
        }
    }

    #[test]
    fn a_deficit_travels_round_a_recursive_cycle() {
        // `main` enters the ring a → b → c → d → a twice: at `c` before
        // t0 is written, at `a` after. The missing t0 has to travel
        // c → d → a → b, one call edge per sweep of the reference, and
        // every member is re-solved from the entrance that shrank.
        let mut b = ProgramBuilder::new();
        b.routine("main").call("c").def(Reg::T0).call("a").halt();
        b.routine("a").call("b").ret();
        b.routine("b").use_reg(Reg::T0).call("c").ret();
        b.routine("c").call("d").ret();
        b.routine("d").call("a").ret();
        let program = b.build().expect("valid program");
        let analysis = spike_core::analyze(&program);
        let (cfg, summary) = (&analysis.cfg, &analysis.summary);
        let (old, sweeps) = reference::compute_scoped(&program, cfg, summary, None);
        assert!(sweeps >= 4, "entrances shrink over three rounds, then one confirms: {sweeps}");

        let callgraph = CallGraph::build(&program, cfg);
        let new = compute_scoped(&program, cfg, summary, &callgraph, None);
        assert_eq!(new.entry, old.entry);
        assert_eq!(new.block_in, old.block_in);
        for name in ["a", "b", "c", "d"] {
            let rid = program.routine_by_name(name).expect("routine exists");
            assert!(
                !new.entry[rid.index()][0].contains(Reg::T0),
                "{name} can be entered without t0"
            );
            assert!(new.entry[rid.index()][0].contains(Reg::SP));
        }
        assert_matches_reference(&program, &spread(&program));

        let mut report = LintReport::default();
        check(&program, &analysis, &callgraph, &mut report);
        report.finish(|r| program.routine(r).name());
        let flagged: Vec<_> =
            report.diagnostics().iter().map(|d| (report.routine(d), d.reg)).collect();
        assert_eq!(flagged, vec![("b", Some(Reg::T0))]);
    }
}
