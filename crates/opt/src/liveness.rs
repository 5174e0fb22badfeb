//! Intra-routine liveness with interprocedural boundary values (§2).
//!
//! The paper's optimization model: replace each call with a call-summary
//! instruction (uses = call-used, defs = call-defined, kills =
//! call-killed), insert an exit instruction using live-at-exit at each
//! `ret`, then run ordinary intraprocedural liveness. This module is that
//! computation, with the call-summary/exit values drawn from a completed
//! [`spike_core::Analysis`]. The forward dual, the register MUST-defined
//! solve behind LICM's operand guard and the lint's `uninit-read`, lives
//! here too, on the same flow arcs and ranks.

use spike_cfg::{BasicBlock, BlockId, FlowArcs, ProgramCfg};
use spike_core::worklist::PriorityWorklist;
use spike_core::{CallSiteSummary, ProgramSummary, RegisterFacts};
use spike_isa::{Instruction, RegSet};
use spike_program::{Program, RoutineId};

/// Per-block liveness for one routine: the registers live at block entry
/// (`live_in`) and immediately after the block's last instruction
/// (`live_end`), with calls summarized by their call-site summaries.
#[derive(Clone, Debug, Default)]
pub struct RoutineLiveness {
    live_in: Vec<RegSet>,
    live_end: Vec<RegSet>,
}

impl RoutineLiveness {
    /// Registers live at the entry of `b`.
    pub fn live_in(&self, b: BlockId) -> RegSet {
        self.live_in[b.index()]
    }

    /// Registers live immediately after the last instruction of `b`
    /// (after the callee's effects, for call blocks).
    pub fn live_end(&self, b: BlockId) -> RegSet {
        self.live_end[b.index()]
    }
}

/// Steps liveness backward over one instruction. For the call terminator
/// of a call block, pass the call-site summary so the callee's effects are
/// applied (the paper's call-summary instruction).
pub fn step_back(live_after: RegSet, insn: &Instruction, call: Option<&CallSiteSummary>) -> RegSet {
    match call {
        Some(cs) => {
            debug_assert!(insn.is_call(), "summary supplied for a non-call");
            // The callee runs after the call instruction's own effects.
            let after_callee = cs.used | (live_after - cs.defined);
            insn.uses() | (after_callee - insn.defs())
        }
        None => insn.uses() | (live_after - insn.defs()),
    }
}

/// Fills `boundary` with what is live after each block that flow leaves
/// the routine through: live-at-exit after a `ret`, the §3.5 hint (or
/// every register) after an unknown-target jump, nothing after any other
/// block.
pub(crate) fn fill_boundary(
    program: &Program,
    facts: RegisterFacts<'_>,
    rid: RoutineId,
    boundary: &mut Vec<RegSet>,
) {
    let cfg = facts.cfg.routine_cfg(rid);
    boundary.clear();
    boundary.resize(cfg.blocks().len(), RegSet::EMPTY);
    for (&b, &live) in cfg.exits().iter().zip(&facts.summary.routine(rid).live_at_exit) {
        boundary[b.index()] = live;
    }
    for &b in cfg.unknown_jumps() {
        let hint = program.jump_hint(cfg.block(b).term_addr());
        boundary[b.index()] = hint.unwrap_or(RegSet::ALL);
    }
}

/// The one block-liveness solver: solves `live_in = gen ∪ (live_end ∩
/// pass)` for the per-block `gen`/`pass` into `live`, as the **least**
/// fixpoint from ∅, where `live_end` is `boundary` joined with the
/// `live_in` of every flow successor.
///
/// `rank` holds the forward reverse-postorder ranks of the routine's flow
/// arcs from its entrances; blocks are popped in the reverse of that
/// order, so successors come before their readers (a call block reads its
/// return point). The solve always restarts from ∅: liveness round a loop
/// sustains itself, so continuing downward from an earlier, larger
/// solution after `gen` shrank would keep registers live that nothing
/// reads any more.
pub(crate) fn solve(
    arcs: &FlowArcs,
    rank: &[u32],
    boundary: &[RegSet],
    gen: &[RegSet],
    pass: &[RegSet],
    live: &mut RoutineLiveness,
    wl: &mut PriorityWorklist,
) {
    let n = rank.len();
    let last = n as u32 - 1;
    for v in [&mut live.live_in, &mut live.live_end] {
        v.clear();
        v.resize(n, RegSet::EMPTY);
    }
    wl.cover(n);
    for (bi, &r) in rank.iter().enumerate() {
        wl.push(bi, last - r);
    }
    while let Some(bi) = wl.pop() {
        let b = BlockId::from_index(bi);
        let end = arcs.succs(b).iter().fold(boundary[bi], |acc, s| acc | live.live_in[s.index()]);
        live.live_end[bi] = end;
        let live_in = gen[bi] | (end & pass[bi]);
        if live_in != live.live_in[bi] {
            live.live_in[bi] = live_in;
            for &p in arcs.preds(b) {
                wl.push(p.index(), last - rank[p.index()]);
            }
        }
    }
}

/// Reusable buffers for [`block_liveness`]: one set serves any number of
/// routines, so a caller walking a whole program allocates them once.
#[derive(Default)]
pub struct LivenessScratch {
    gen: Vec<RegSet>,
    pass: Vec<RegSet>,
    boundary: Vec<RegSet>,
    live: RoutineLiveness,
    wl: PriorityWorklist,
}

/// Per-block liveness of `rid`, equal to [`routine_liveness`] with
/// nothing ignored, over flow arcs and forward reverse-postorder ranks
/// (`arcs.rpo_ranks(cfg.entries())`) the caller already holds.
///
/// It reads each block's transfer off the `DEF`/`UBD` sets the CFG
/// carries instead of scanning instructions: `gen = UBD` and `pass =
/// ¬DEF`, and for a call block, whose callee runs after the block's own
/// instructions, `gen = UBD ∪ (used − DEF)` and `pass = ¬(DEF ∪
/// defined)` with the call-site summary's `used` and `defined`. That is
/// the composition of [`step_back`] over the block: every step is a
/// gen/kill function and `DEF`/`UBD` are its composed kill and gen.
pub fn block_liveness<'s>(
    program: &Program,
    facts: RegisterFacts<'_>,
    rid: RoutineId,
    arcs: &FlowArcs,
    rank: &[u32],
    scratch: &'s mut LivenessScratch,
) -> &'s RoutineLiveness {
    let cfg = facts.cfg.routine_cfg(rid);
    let LivenessScratch { gen, pass, boundary, live, wl } = scratch;
    gen.clear();
    pass.clear();
    for (bi, block) in cfg.blocks().iter().enumerate() {
        let (def, ubd) = (block.def(), block.ubd());
        match facts.summary.call_site(facts.cfg, rid, BlockId::from_index(bi)) {
            Some(cs) => {
                gen.push(ubd | (cs.used - def));
                pass.push(RegSet::ALL - (def | cs.defined));
            }
            None => {
                gen.push(ubd);
                pass.push(RegSet::ALL - def);
            }
        }
    }
    fill_boundary(program, facts, rid, boundary);
    solve(arcs, rank, boundary, gen, pass, live, wl);
    live
}

/// The summary to step the instruction at `addr` of block `bi` back
/// with: the block's call-site summary at its call terminator, nothing
/// anywhere else.
pub(crate) fn call_at(
    facts: RegisterFacts<'_>,
    rid: RoutineId,
    bi: usize,
    block: &BasicBlock,
    addr: u32,
) -> Option<CallSiteSummary> {
    if addr == block.term_addr() {
        facts.summary.call_site(facts.cfg, rid, BlockId::from_index(bi))
    } else {
        None
    }
}

/// Computes per-block liveness for routine `rid`, optionally treating the
/// addresses in `ignore` as deleted (their uses and defs are skipped).
pub fn routine_liveness(
    program: &Program,
    facts: RegisterFacts<'_>,
    rid: RoutineId,
    ignore: &dyn Fn(u32) -> bool,
) -> RoutineLiveness {
    let cfg = facts.cfg.routine_cfg(rid);
    let routine = program.routine(rid);
    let n = cfg.blocks().len();

    // One pass over the instructions (and one call-site lookup per call
    // block) composes each block into `live_in = gen ∪ (live_end ∩ pass)`.
    // Every step is a gen/kill function, so the composition is pinned by
    // its values at ∅ and ⊤.
    let mut gen = vec![RegSet::EMPTY; n];
    let mut pass = vec![RegSet::ALL; n];
    for (bi, block) in cfg.blocks().iter().enumerate() {
        for addr in (block.start()..block.end()).rev() {
            if ignore(addr) {
                continue;
            }
            let insn = routine.insn_at(addr).expect("address in routine");
            let cs = call_at(facts, rid, bi, block, addr);
            gen[bi] = step_back(gen[bi], insn, cs.as_ref());
            pass[bi] = step_back(pass[bi], insn, cs.as_ref());
        }
    }

    let arcs = cfg.flow_arcs();
    let rank = arcs.rpo_ranks(cfg.entries());
    let mut boundary = Vec::new();
    fill_boundary(program, facts, rid, &mut boundary);
    let mut live = RoutineLiveness::default();
    solve(&arcs, &rank, &boundary, &gen, &pass, &mut live, &mut PriorityWorklist::default());
    live
}

/// `DEF ∪ call-defined` for each block of `rid`: what its flow
/// successors see defined on top of its own entry facts — its own
/// writes and, for a call block, the registers the callee must write
/// before returning. The `gen` of [`block_must_defined`].
pub fn must_defined_gen(cfg: &ProgramCfg, summary: &ProgramSummary, rid: RoutineId) -> Vec<RegSet> {
    let blocks = cfg.routine_cfg(rid).blocks();
    (0..blocks.len())
        .map(|bi| {
            let cs = summary.call_site(cfg, rid, BlockId::from_index(bi));
            blocks[bi].def() | cs.map_or(RegSet::EMPTY, |cs| cs.defined)
        })
        .collect()
}

/// The one register MUST-defined block solver: brings `defined_in` to
/// the **greatest** fixpoint of `in[b] = start[b] ∩ ⋂ₚ (in[p] ∪
/// gen[p])` over the flow predecessors `p` of `b`, by popping the blocks
/// queued in `wl` and re-queueing the flow successors of every block
/// whose value moved.
///
/// `rank` holds the forward reverse-postorder ranks of `arcs` from the
/// routine's entrances, so most blocks see their final predecessor
/// facts on the first evaluation. The solve resumes from the values it
/// is handed: a cold solve hands ⊤ everywhere with every block queued;
/// a warm one may hand an earlier solution of a system whose `start`
/// has since shrunk, queueing only the blocks whose `start` moved — it
/// lies above the new greatest fixpoint, so descending from it reaches
/// the same fixpoint a cold solve would.
pub fn block_must_defined(
    arcs: &FlowArcs,
    rank: &[u32],
    start: &[RegSet],
    gen: &[RegSet],
    defined_in: &mut [RegSet],
    wl: &mut PriorityWorklist,
) {
    while let Some(i) = wl.pop() {
        let b = BlockId::from_index(i);
        let mut acc = start[i];
        for &p in arcs.preds(b) {
            acc &= defined_in[p.index()] | gen[p.index()];
        }
        if acc != defined_in[i] {
            defined_in[i] = acc;
            for &s in arcs.succs(b) {
                wl.push(s.index(), rank[s.index()]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spike_cfg::{RoutineCfg, TermKind};
    use spike_core::analyze;
    use spike_isa::Reg;
    use spike_program::ProgramBuilder;

    /// The liveness boundary at the end of `b`, before applying the block's
    /// own instructions.
    fn block_end_live(
        program: &Program,
        facts: RegisterFacts<'_>,
        rid: RoutineId,
        cfg: &RoutineCfg,
        b: BlockId,
        live_in: &[RegSet],
    ) -> RegSet {
        let block = cfg.block(b);
        match block.term() {
            TermKind::Ret => {
                let i = cfg.exits().iter().position(|&x| x == b).expect("exit block");
                facts.summary.routine(rid).live_at_exit[i]
            }
            TermKind::Halt => RegSet::EMPTY,
            TermKind::UnknownJump => program.jump_hint(block.term_addr()).unwrap_or(RegSet::ALL),
            TermKind::Call { return_to, .. } => match return_to {
                Some(rt) => live_in[rt.index()],
                None => RegSet::EMPTY,
            },
            _ => {
                let mut acc = RegSet::EMPTY;
                for &s in block.succs() {
                    acc |= live_in[s.index()];
                }
                acc
            }
        }
    }

    /// The reverse-index sweep to a fixpoint `routine_liveness` replaced,
    /// re-walking every block's instructions on every sweep.
    fn sweep_liveness(
        program: &Program,
        facts: RegisterFacts<'_>,
        rid: RoutineId,
        ignore: &dyn Fn(u32) -> bool,
    ) -> RoutineLiveness {
        let cfg = facts.cfg.routine_cfg(rid);
        let routine = program.routine(rid);
        let n = cfg.blocks().len();
        let mut live_in = vec![RegSet::EMPTY; n];
        let mut live_end = vec![RegSet::EMPTY; n];

        // Iterate to fixpoint; routine CFGs are small and reducible, so a few
        // reverse sweeps suffice.
        let mut changed = true;
        while changed {
            changed = false;
            for bi in (0..n).rev() {
                let b = BlockId::from_index(bi);
                let block = cfg.block(b);
                let end = block_end_live(program, facts, rid, cfg, b, &live_in);

                let mut live = end;
                for addr in (block.start()..block.end()).rev() {
                    if ignore(addr) {
                        continue;
                    }
                    let insn = routine.insn_at(addr).expect("address in routine");
                    let cs = if addr == block.term_addr() && insn.is_call() {
                        facts.summary.call_site(facts.cfg, rid, b)
                    } else {
                        None
                    };
                    live = step_back(live, insn, cs.as_ref());
                }

                if end != live_end[bi] || live != live_in[bi] {
                    live_end[bi] = end;
                    live_in[bi] = live;
                    changed = true;
                }
            }
        }

        RoutineLiveness { live_in, live_end }
    }

    #[test]
    fn argument_live_before_call_result_live_after() {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::A0).call("id").copy(Reg::V0, Reg::T0).halt();
        b.routine("id").copy(Reg::A0, Reg::V0).ret();
        let p = b.build().unwrap();
        let a = analyze(&p);
        let main = p.routine_by_name("main").unwrap();
        let l = routine_liveness(&p, a.registers(), main, &|_| false);

        // After the call (block 1 entry) v0 is live; a0 is not.
        let b1 = BlockId::from_index(1);
        assert!(l.live_in(b1).contains(Reg::V0));
        assert!(!l.live_in(b1).contains(Reg::A0));
        // At the call block's end the callee has run.
        let b0 = BlockId::from_index(0);
        assert_eq!(l.live_end(b0), l.live_in(b1));
    }

    #[test]
    fn ignore_mask_removes_uses() {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::T0).use_reg(Reg::T0).halt();
        let p = b.build().unwrap();
        let a = analyze(&p);
        let main = p.routine_by_name("main").unwrap();
        let base = p.routine(main).addr();

        let l = routine_liveness(&p, a.registers(), main, &|_| false);
        // t0 is not live at entry (defined first).
        assert!(!l.live_in(BlockId::from_index(0)).contains(Reg::T0));

        // Ignoring the def exposes the use: t0 becomes live at entry.
        let l = routine_liveness(&p, a.registers(), main, &|addr| addr == base);
        assert!(l.live_in(BlockId::from_index(0)).contains(Reg::T0));
    }

    #[test]
    fn exit_liveness_comes_from_summary() {
        let mut b = ProgramBuilder::new();
        b.routine("main").call("f").use_reg(Reg::T3).halt();
        b.routine("f").ret();
        let p = b.build().unwrap();
        let a = analyze(&p);
        let f = p.routine_by_name("f").unwrap();
        let l = routine_liveness(&p, a.registers(), f, &|_| false);
        // t3 is used after returning to main, so it is live at f's exit
        // and at its entry.
        assert!(l.live_in(BlockId::from_index(0)).contains(Reg::T3));
    }

    /// `block_liveness`, reading `DEF`/`UBD`, against `routine_liveness`,
    /// stepping every instruction, with one scratch across all routines.
    fn assert_block_liveness_matches(p: &Program) {
        let a = analyze(p);
        let mut scratch = LivenessScratch::default();
        for (rid, routine) in p.iter() {
            let cfg = a.cfg.routine_cfg(rid);
            let arcs = cfg.flow_arcs();
            let rank = arcs.rpo_ranks(cfg.entries());
            let by_insn = routine_liveness(p, a.registers(), rid, &|_| false);
            let by_block = block_liveness(p, a.registers(), rid, &arcs, &rank, &mut scratch);
            assert_eq!(by_block.live_in, by_insn.live_in, "{}", routine.name());
            assert_eq!(by_block.live_end, by_insn.live_end, "{}", routine.name());
        }
    }

    #[test]
    fn block_liveness_equals_routine_liveness() {
        for profile in spike_synth::profiles() {
            assert_block_liveness_matches(&spike_synth::generate(
                &profile,
                30.0 / profile.routines as f64,
                1,
            ));
        }
        for seed in [1u64, 2, 3, 4] {
            assert_block_liveness_matches(&spike_synth::generate_executable(seed, 40));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn block_liveness_equals_routine_liveness_on_random_executables(
            seed in proptest::prelude::any::<u64>(),
            size in 1usize..40,
        ) {
            assert_block_liveness_matches(&spike_synth::generate_executable(seed, size));
        }
    }

    #[test]
    fn worklist_solution_equals_the_sweep_on_every_profile() {
        for profile in spike_synth::profiles() {
            let scale = 30.0 / profile.routines as f64;
            let p = spike_synth::generate(&profile, scale, 11);
            let a = analyze(&p);
            for (rid, routine) in p.iter() {
                // Every third instruction deleted exercises the ignore
                // mask, call terminators included.
                let thinned = |addr: u32| (addr - routine.addr()) % 3 == 1;
                for ignore in [&(|_| false) as &dyn Fn(u32) -> bool, &thinned] {
                    let new = routine_liveness(&p, a.registers(), rid, ignore);
                    let old = sweep_liveness(&p, a.registers(), rid, ignore);
                    assert_eq!(new.live_in, old.live_in, "{} {}", profile.name, routine.name());
                    assert_eq!(new.live_end, old.live_end, "{} {}", profile.name, routine.name());
                }
            }
        }
    }
}
