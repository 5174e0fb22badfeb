//! Dead-code elimination across call boundaries (Figure 1(a) and 1(b)).
//!
//! An instruction whose results are never read can be deleted. What makes
//! the post-link version interesting is *which* reads count: with the
//! interprocedural summaries, a value that only flows out of the routine
//! is dead when no caller reads it on return (live-at-exit, Figure 1(a)),
//! and an argument set up for a call is dead when the callee never reads
//! it (call-used, Figure 1(b)). A traditional compiler, seeing one module
//! at a time, must assume both are live.

use spike_cfg::BlockId;
use spike_core::worklist::PriorityWorklist;
use spike_core::RegisterFacts;
use spike_isa::RegSet;
use spike_program::{Program, Routine, RoutineId};

use crate::liveness::{call_at, fill_boundary, solve, step_back, RoutineLiveness};

/// Finds all dead instructions, cascading (a deleted def can make its
/// operands' defs dead) until no more are found. Returns the dead
/// instruction addresses in ascending order; the caller applies them with
/// a [`spike_program::Rewriter`].
///
/// "Deletable given the dead set `D`" is monotone in `D` — deleting more
/// only removes uses, which only shrinks liveness — so the closure the
/// cascade computes is unique whatever order it finds its members in.
/// That is what makes the change-driven rounds of [`routine_dead`] exact.
pub(crate) fn find_dead(program: &Program, facts: RegisterFacts<'_>) -> Vec<u32> {
    let mut dead = Vec::new();
    for (rid, routine) in program.iter() {
        routine_dead(program, facts, rid, routine, &mut dead);
    }
    dead
}

/// The cascade over one routine; appends its dead addresses to `out`.
///
/// Everything that does not depend on the dead set is built once: the
/// flow arcs, their ranks and the boundary liveness, each instruction's
/// backward step as a `gen`/`pass` pair, and the definitions whose
/// deadness makes it deletable. A round then re-solves block liveness
/// over that structure (from ∅ — see [`solve`]), re-scans only the
/// blocks whose `live_end` differs from the one they were last scanned
/// with, and recomposes `gen`/`pass` only for the blocks that gained a
/// deletion. One backward scan takes a block to its local fixpoint for a
/// given `live_end` (a deletion changes what is live *before* it, never
/// after), so a block whose `live_end` did not move has nothing new to
/// offer.
fn routine_dead(
    program: &Program,
    facts: RegisterFacts<'_>,
    rid: RoutineId,
    routine: &Routine,
    out: &mut Vec<u32>,
) {
    let cfg = facts.cfg.routine_cfg(rid);
    let blocks = cfg.blocks();
    let base = routine.addr();
    let arcs = cfg.flow_arcs();
    let rank = arcs.rpo_ranks(cfg.entries());
    let mut boundary = Vec::new();
    fill_boundary(program, facts, rid, &mut boundary);

    // Per instruction: its step `x ↦ gen ∪ (x ∩ pass)` (a gen/kill
    // function is pinned by its values at ∅ and ⊤), and `defs` if it is
    // deletable once they are dead, ∅ if it never is.
    let mut gen = Vec::with_capacity(routine.len());
    let mut pass = Vec::with_capacity(routine.len());
    let mut deletable = Vec::with_capacity(routine.len());
    for (bi, block) in blocks.iter().enumerate() {
        for addr in block.start()..block.end() {
            let insn = &routine.insns()[(addr - base) as usize];
            let cs = call_at(facts, rid, bi, block, addr);
            gen.push(step_back(RegSet::EMPTY, insn, cs.as_ref()));
            pass.push(step_back(RegSet::ALL, insn, cs.as_ref()));
            deletable.push(if insn.is_pure() { insn.defs() } else { RegSet::EMPTY });
        }
    }
    debug_assert_eq!(gen.len(), routine.len(), "blocks partition the routine in address order");
    for &addr in program.relocations().range(base..routine.end_addr()).map(|(a, _)| a) {
        deletable[(addr - base) as usize] = RegSet::EMPTY;
    }

    let mut dead = vec![false; routine.len()];
    let span = |bi: usize| {
        let b = &blocks[bi];
        (b.start() - base) as usize..(b.end() - base) as usize
    };
    // A block's composed step, skipping its dead instructions.
    let compose = |bi: usize, dead: &[bool]| {
        span(bi).rev().filter(|&i| !dead[i]).fold((RegSet::EMPTY, RegSet::ALL), |(g, p), i| {
            (gen[i] | (g & pass[i]), gen[i] | (p & pass[i]))
        })
    };
    let (mut block_gen, mut block_pass): (Vec<RegSet>, Vec<RegSet>) =
        (0..blocks.len()).map(|bi| compose(bi, &dead)).unzip();

    let mut live = RoutineLiveness::default();
    let mut wl = PriorityWorklist::new(blocks.len());
    // The `live_end` each block was last scanned with.
    let mut scanned: Vec<Option<RegSet>> = vec![None; blocks.len()];
    loop {
        solve(&arcs, &rank, &boundary, &block_gen, &block_pass, &mut live, &mut wl);
        let mut found = false;
        for bi in 0..blocks.len() {
            let end = live.live_end(BlockId::from_index(bi));
            if scanned[bi].replace(end) == Some(end) {
                continue;
            }
            let mut l = end;
            let mut gained = false;
            for i in span(bi).rev() {
                if dead[i] {
                    continue;
                }
                if !deletable[i].is_empty() && deletable[i].is_disjoint(l) {
                    // Its uses no longer keep anything live.
                    dead[i] = true;
                    gained = true;
                } else {
                    l = gen[i] | (l & pass[i]);
                }
            }
            if gained {
                (block_gen[bi], block_pass[bi]) = compose(bi, &dead);
                found = true;
            }
        }
        if !found {
            break;
        }
    }
    out.extend(dead.iter().enumerate().filter(|(_, &d)| d).map(|(i, _)| base + i as u32));
}

/// The cascade `find_dead` replaced, kept as the oracle for it: every
/// round re-derives the routine's liveness from nothing with the dead set
/// as an ignore mask and re-scans every block.
#[cfg(test)]
fn find_dead_reference(
    program: &Program,
    facts: RegisterFacts<'_>,
) -> std::collections::BTreeSet<u32> {
    use crate::liveness::routine_liveness;

    let mut dead = std::collections::BTreeSet::new();
    for (rid, routine) in program.iter() {
        let cfg = facts.cfg.routine_cfg(rid);
        loop {
            let live = routine_liveness(program, facts, rid, &|a| dead.contains(&a));
            let mut found = false;

            for (bi, block) in cfg.blocks().iter().enumerate() {
                let b = BlockId::from_index(bi);
                let mut l = live.live_end(b);
                for addr in (block.start()..block.end()).rev() {
                    if dead.contains(&addr) {
                        continue;
                    }
                    let insn = routine.insn_at(addr).expect("address in routine");
                    let defs = insn.defs();
                    if insn.is_pure()
                        && !defs.is_empty()
                        && defs.is_disjoint(l)
                        && !program.relocations().contains_key(&addr)
                    {
                        dead.insert(addr);
                        found = true;
                        continue; // its uses no longer keep anything live
                    }
                    let cs = if addr == block.term_addr() && insn.is_call() {
                        facts.summary.call_site(facts.cfg, rid, b)
                    } else {
                        None
                    };
                    l = step_back(l, insn, cs.as_ref());
                }
            }

            if !found {
                break;
            }
        }
    }
    dead
}

#[cfg(test)]
mod tests {
    use super::*;
    use spike_core::analyze;
    use spike_isa::Reg;
    use spike_program::ProgramBuilder;

    fn dead_count(p: &Program) -> usize {
        find_dead(p, analyze(p).registers()).len()
    }

    /// Figure 1(a): a value defined for the caller but never used on any
    /// return is dead.
    #[test]
    fn dead_return_value_is_found() {
        let mut b = ProgramBuilder::new();
        b.routine("main").call("f").halt(); // never reads v0
        b.routine("f").def(Reg::T0).def(Reg::V0).copy(Reg::T0, Reg::V0).ret();
        let p = b.build().unwrap();
        // def v0 (overwritten) + the whole v0 chain is dead since main
        // ignores it: def t0, def v0, copy are all dead.
        assert_eq!(dead_count(&p), 3);
    }

    /// Figure 1(b): an argument the callee never reads is dead.
    #[test]
    fn dead_argument_is_found() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .def(Reg::A0) // read by f
            .def(Reg::A1) // never read by f: dead
            .call("f")
            .halt();
        b.routine("f").use_reg(Reg::A0).ret();
        let p = b.build().unwrap();
        let dead = find_dead(&p, analyze(&p).registers());
        let base = p.routines()[0].addr();
        assert_eq!(dead, [base + 1]);
    }

    /// Values that feed observable output stay: the argument is call-used
    /// and the result flows into `put_int`.
    #[test]
    fn live_values_are_kept() {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::A0).call("f").put_int().halt();
        b.routine("f").copy(Reg::A0, Reg::V0).ret();
        let p = b.build().unwrap();
        assert_eq!(dead_count(&p), 0);
    }

    #[test]
    fn cascading_deletion() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .def(Reg::T0)
            .op(spike_isa::AluOp::Add, Reg::T0, Reg::T0, Reg::T1) // uses t0
            .op(spike_isa::AluOp::Add, Reg::T1, Reg::T1, Reg::T2) // uses t1
            .halt(); // t2 never used
        let p = b.build().unwrap();
        // t2 dead → t1's def dead → t0's def dead.
        assert_eq!(dead_count(&p), 3);
    }

    #[test]
    fn stores_and_putint_are_never_deleted() {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::T0).store(Reg::T0, Reg::SP, 0).put_int().halt();
        let p = b.build().unwrap();
        assert_eq!(dead_count(&p), 0);
    }

    #[test]
    fn unknown_calls_keep_everything_conservative() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .def(Reg::A0) // assumed used by the unknown callee
            .lda(Reg::PV, Reg::ZERO, 1)
            .jsr_unknown(Reg::PV)
            .halt();
        let p = b.build().unwrap();
        assert_eq!(dead_count(&p), 0);
    }

    #[test]
    fn change_driven_cascade_equals_the_reference() {
        let check = |p: &Program, what: &str| {
            let a = analyze(p);
            let new = find_dead(p, a.registers());
            let reference: Vec<u32> = find_dead_reference(p, a.registers()).into_iter().collect();
            assert!(!reference.is_empty(), "{what}: nothing dead, nothing compared");
            assert!(
                new == reference,
                "{what}: {} dead against the reference's {}, first difference {:?}",
                new.len(),
                reference.len(),
                new.iter().zip(&reference).find(|(a, b)| a != b)
            );
        };
        for profile in spike_synth::profiles() {
            for seed in [3, 17] {
                let p = spike_synth::generate(&profile, 25.0 / profile.routines as f64, seed);
                check(&p, &format!("{} seed {seed}", profile.name));
            }
        }
        for seed in 0..24 {
            check(&spike_synth::generate_executable(seed, 12), &format!("executable seed {seed}"));
        }
    }
}
