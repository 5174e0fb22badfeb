//! Spill elimination around calls (Figure 1(c)).
//!
//! Compilers spill caller-saved registers around calls because they must
//! assume the callee clobbers them. The interprocedural summary often
//! proves otherwise: when register `Rt` is **not** in a call's call-killed
//! set, a `store Rt, d(sp)` just before the call paired with a
//! `load Rt, d(sp)` just after it moves a value the call never touched —
//! both instructions can go.
//!
//! The pattern matched is deliberately strict (the value must demonstrably
//! round-trip through an otherwise-unused slot):
//!
//! * the store sits in the call block with no later definition of `Rt` or
//!   `sp` before the call;
//! * the load is in the call's return block, with no earlier definition of
//!   `Rt` or `sp` and no intervening memory write;
//! * `Rt` is not call-killed (nor `ra`, which every call defines);
//! * no other instruction in the routine accesses `d(sp)`, and the
//!   routine never re-points `sp` between frame setup and teardown other
//!   than in prologue/epilogue (checked by requiring the store and load to
//!   share the block pair).
//!
//! Every pair also carries a *placement weight*: the dynamic instructions
//! its removal saves. Statically the weight scales with the call block's
//! loop-nesting depth (a spill inside a loop is worth an order of
//! magnitude more per level, the classic spill-cost heuristic); with an
//! execution profile of the input image the weight is the measured
//! execution count of the two instructions. The weights feed the
//! optimizer's `spill_dynamic_saved` accounting and the `report pgo`
//! tables.

use spike_cfg::{DomTree, LoopForest, TermKind};
use spike_core::RegisterFacts;
use spike_isa::{Instruction, Reg, RegSet};
use spike_profile::Profile;
use spike_program::Program;

/// One removable spill pair, weighted by the dynamic instructions its
/// removal saves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct SpillPair {
    pub store_addr: u32,
    pub load_addr: u32,
    /// Dynamic instructions saved: measured (profile counts of the two
    /// instructions) or estimated (2 executions per visit, ×10 per loop
    /// nesting level of the call block).
    pub weight: u64,
}

/// Counts accesses to `sp+disp` in the whole routine.
fn slot_accesses(program: &Program, rid: spike_program::RoutineId, disp: i16) -> usize {
    let r = program.routine(rid);
    r.insns()
        .iter()
        .filter(|i| match i {
            Instruction::Load { base: Reg::SP, disp: d, .. }
            | Instruction::Store { base: Reg::SP, disp: d, .. } => *d == disp,
            _ => false,
        })
        .count()
}

pub(crate) fn find_spills(
    program: &Program,
    facts: RegisterFacts<'_>,
    profile: Option<&Profile>,
) -> Vec<SpillPair> {
    let mut pairs = Vec::new();

    for (rid, routine) in program.iter() {
        let cfg = facts.cfg.routine_cfg(rid);
        // Loop depth prices the pairs when no profile is available; the
        // forest is only needed then.
        let forest = profile.is_none().then(|| LoopForest::build(cfg, &DomTree::dominators(cfg)));
        for b in cfg.call_blocks() {
            let block = cfg.block(b);
            let TermKind::Call { return_to: Some(rt), .. } = block.term() else {
                continue;
            };
            let Some(cs) = facts.summary.call_site(facts.cfg, rid, b) else {
                continue;
            };
            let ret_block = cfg.block(*rt);

            // Candidate stores in the call block, scanning backward from
            // the call; track what gets defined after each store.
            let mut defined_after =
                routine.insn_at(block.term_addr()).expect("call instruction").defs();
            for addr in (block.start()..block.term_addr()).rev() {
                let insn = routine.insn_at(addr).expect("address in routine");
                if let Instruction::Store { rs, base: Reg::SP, disp, .. } = *insn {
                    let protected = !cs.killed.contains(rs)
                        && rs != Reg::RA
                        && !defined_after.contains(rs)
                        && !defined_after.contains(Reg::SP)
                        && slot_accesses(program, rid, disp) == 2;
                    if protected {
                        if let Some(load_addr) =
                            matching_load(routine, ret_block, rs, disp, cs.defined)
                        {
                            let weight = match (profile, &forest) {
                                (Some(p), _) => {
                                    p.counts.count_at(addr) + p.counts.count_at(load_addr)
                                }
                                (None, Some(f)) => 2 * 10u64.saturating_pow(f.depth_of(b).min(9)),
                                (None, None) => 2,
                            };
                            pairs.push(SpillPair { store_addr: addr, load_addr, weight });
                        }
                    }
                }
                defined_after |= insn.defs();
            }
        }
    }
    pairs
}

/// Finds a reload of `(reg, disp)` in the return block with nothing
/// disturbing the register or slot before it. `call_defined` are the
/// registers the callee wrote; the reloaded register must not be among
/// them (its pre-call value is what survives).
fn matching_load(
    routine: &spike_program::Routine,
    ret_block: &spike_cfg::BasicBlock,
    reg: Reg,
    disp: i16,
    call_defined: RegSet,
) -> Option<u32> {
    if call_defined.contains(reg) {
        return None;
    }
    for addr in ret_block.start()..ret_block.end() {
        let insn = routine.insn_at(addr).expect("address in routine");
        match *insn {
            Instruction::Load { rd, base: Reg::SP, disp: d, .. } if rd == reg && d == disp => {
                return Some(addr);
            }
            Instruction::Store { .. } => return None, // may alias the slot
            _ => {
                if insn.defs().contains(reg) || insn.defs().contains(Reg::SP) {
                    return None;
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use spike_core::analyze;
    use spike_program::ProgramBuilder;

    fn pairs_of(p: &Program) -> Vec<SpillPair> {
        find_spills(p, analyze(p).registers(), None)
    }

    /// Figure 1(c): the callee does not kill t0, so the spill around the
    /// call is removable.
    #[test]
    fn removable_spill_is_found() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .def(Reg::T0)
            .store(Reg::T0, Reg::SP, -8)
            .call("quiet")
            .load(Reg::T0, Reg::SP, -8)
            .copy(Reg::T0, Reg::V0)
            .put_int()
            .halt();
        b.routine("quiet").def(Reg::int(6)).ret(); // touches only t5
        let p = b.build().unwrap();
        let pairs = pairs_of(&p);
        assert_eq!(pairs.len(), 1);
        let base = p.routines()[0].addr();
        assert_eq!(pairs[0].store_addr, base + 1);
        assert_eq!(pairs[0].load_addr, base + 3);
        // Straight-line code: depth 0, so the pair is worth exactly its
        // two instructions per execution.
        assert_eq!(pairs[0].weight, 2);
    }

    /// A spill inside a loop is priced an order of magnitude above one in
    /// straight-line code; a profile replaces the estimate with the
    /// measured counts.
    #[test]
    fn loop_spills_are_weighted_heavier_and_profiles_override() {
        use spike_isa::BranchCond;
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .lda(Reg::T1, Reg::ZERO, 3)
            .label("top")
            .lda(Reg::T0, Reg::ZERO, 11)
            .store(Reg::T0, Reg::SP, -8)
            .call("quiet")
            .load(Reg::T0, Reg::SP, -8)
            .op_imm(spike_isa::AluOp::Sub, Reg::T1, 1, Reg::T1)
            .cond(BranchCond::Ne, Reg::T1, "top")
            .halt();
        b.routine("quiet").lda(Reg::int(6), Reg::ZERO, 1).ret();
        let p = b.build().unwrap();

        let pairs = pairs_of(&p);
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].weight, 20, "depth-1 spill must be priced 2 * 10^1");

        let (_, exec) = spike_sim::run_profiled(&p, 10_000);
        let prof = Profile::collect(&p, &exec);
        let weighed = find_spills(&p, analyze(&p).registers(), Some(&prof));
        assert_eq!(weighed.len(), 1);
        // Three iterations execute the store and the load three times
        // each: six measured dynamic instructions saved.
        assert_eq!(weighed[0].weight, 6);
    }

    /// If the callee kills the register, the spill must stay.
    #[test]
    fn killed_register_keeps_its_spill() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .def(Reg::T0)
            .store(Reg::T0, Reg::SP, -8)
            .call("clobber")
            .load(Reg::T0, Reg::SP, -8)
            .copy(Reg::T0, Reg::V0)
            .put_int()
            .halt();
        b.routine("clobber").def(Reg::T0).ret();
        let p = b.build().unwrap();
        assert!(pairs_of(&p).is_empty());
    }

    /// A slot read somewhere else pins both instructions.
    #[test]
    fn shared_slot_is_not_touched() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .def(Reg::T0)
            .store(Reg::T0, Reg::SP, -8)
            .call("quiet")
            .load(Reg::T0, Reg::SP, -8)
            .load(Reg::T1, Reg::SP, -8) // second reader
            .halt();
        b.routine("quiet").ret();
        let p = b.build().unwrap();
        assert!(pairs_of(&p).is_empty());
    }

    /// An unknown callee kills all temporaries, so nothing fires.
    #[test]
    fn unknown_callee_keeps_spills() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .def(Reg::T0)
            .store(Reg::T0, Reg::SP, -8)
            .lda(Reg::PV, Reg::ZERO, 1)
            .jsr_unknown(Reg::PV)
            .load(Reg::T0, Reg::SP, -8)
            .halt();
        let p = b.build().unwrap();
        assert!(pairs_of(&p).is_empty());
    }

    /// A redefinition between the reload and the store's value kills the
    /// pattern.
    #[test]
    fn redefined_register_keeps_spill() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .def(Reg::T0)
            .store(Reg::T0, Reg::SP, -8)
            .def(Reg::T0) // redefined before the call
            .call("quiet")
            .load(Reg::T0, Reg::SP, -8)
            .halt();
        b.routine("quiet").ret();
        let p = b.build().unwrap();
        assert!(pairs_of(&p).is_empty());
    }
}
