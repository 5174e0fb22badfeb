//! The production relinker against its reference.
//!
//! `Rewriter::finish` keeps its address maps as flat per-instruction
//! tables; `common::relink` is the ordered-map relinker it replaced.
//! Random batches of every edit kind — legal ones, and a sprinkling of
//! illegal ones so the error paths are compared too — must give the same
//! `Program` or the same error from both, and the production relinker
//! must report exactly the routines holding an edit.

mod common;

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use common::relink::EditBatch;
use spike::isa::{AluOp, Instruction, Reg};
use spike::program::{Program, Routine, RoutineId};

const PLAIN: Instruction = Instruction::Lda { rd: Reg::T0, base: Reg::ZERO, disp: 7 };

/// A random edit batch over `p`. Roughly `density` of the instructions
/// receive an edit. With `wild` unset every edit is legal on its own;
/// with it set a few are not (deleted terminators, replaced relocations,
/// inserted terminators, bypassed non-branches, addresses outside the
/// program), so that both relinkers must fail the same way.
fn random_batch(p: &Program, rng: &mut StdRng, density: f64, wild: bool) -> EditBatch {
    let mut batch = EditBatch::default();
    for (_, r) in p.iter() {
        let entries: Vec<u32> = r.entry_addrs().collect();
        for (off, insn) in r.insns().iter().enumerate() {
            if !rng.gen_bool(density) {
                continue;
            }
            let addr = r.addr() + off as u32;
            let anchored = insn.is_terminator() || p.relocations().contains_key(&addr);
            // Jump tables, target lists and hints follow `fwd`, so code
            // inserted before their instruction detaches them and
            // validation rejects the result — from either relinker, but a
            // legal batch should exercise the success path.
            let has_aux = p.jump_tables().contains_key(&addr)
                || p.indirect_calls().contains_key(&addr)
                || p.jump_hints().contains_key(&addr);
            let illegal = wild && rng.gen_bool(0.02);
            match rng.gen_range(0..4) {
                // Entrances are never deleted: two entrances forwarded to
                // one survivor would trip `Routine::new`'s assertion in
                // either relinker.
                0 if (!anchored && !entries.contains(&addr)) || illegal => {
                    batch.deleted.insert(addr);
                }
                1 if !anchored || illegal => {
                    batch.replaced.insert(addr, PLAIN);
                }
                2 if !has_aux || illegal => {
                    let n = rng.gen_range(1..4);
                    let mut ins = vec![PLAIN; n];
                    if illegal {
                        ins.push(Instruction::Halt);
                    }
                    batch.inserted.insert(addr, ins);
                }
                3 if matches!(insn, Instruction::Br { .. } | Instruction::CondBranch { .. })
                    || illegal =>
                {
                    batch.bypassed.insert(addr);
                }
                _ => {}
            }
        }
    }
    if wild && rng.gen_bool(0.1) {
        let outside = p.routines().last().expect("programs are non-empty").end_addr() + 5;
        match rng.gen_range(0..4) {
            0 => drop(batch.deleted.insert(outside)),
            1 => drop(batch.replaced.insert(outside, PLAIN)),
            2 => drop(batch.inserted.insert(outside, vec![PLAIN])),
            _ => drop(batch.bypassed.insert(outside)),
        }
    }
    batch
}

/// Both relinkers on one batch: same result, and on success the
/// production `changed` set is exactly the edited routines (the
/// reference's word-comparing set may add relinked callers and omit
/// no-op edits, so only the programs are compared).
fn check(p: &Program, batch: &EditBatch) -> Result<(), TestCaseError> {
    let new = batch.finish(p);
    let reference = batch.finish_reference(p);
    match (new, reference) {
        (Ok((q, changed)), Ok((q_ref, _))) => {
            prop_assert_eq!(&q, &q_ref);
            prop_assert_eq!(changed, batch.edited_routines(p));
        }
        (Err(e), Err(e_ref)) => prop_assert_eq!(e, e_ref),
        (new, reference) => {
            prop_assert!(
                false,
                "relinkers disagree: production {:?}, reference {:?}",
                new.map(|(_, c)| c),
                reference.map(|(_, c)| c)
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_batches_on_executables_match_the_reference(
        seed in any::<u64>(),
        routines in 3usize..24,
        wild in any::<bool>(),
    ) {
        let p = spike::synth::generate_executable(seed, routines);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let density = [0.01, 0.1, 0.5][rng.gen_range(0..3)];
        check(&p, &random_batch(&p, &mut rng, density, wild))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn random_batches_on_every_profile_match_the_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for profile in spike::synth::profiles() {
            let p = spike::synth::generate(&profile, 12.0 / profile.routines as f64, seed);
            let density = [0.01, 0.1, 0.5][rng.gen_range(0..3)];
            let wild = rng.gen_bool(0.25);
            check(&p, &random_batch(&p, &mut rng, density, wild))?;
        }
    }
}

/// Three routines with wide gaps between them, a cross-gap call in each
/// direction, a relocation into another routine, a jump table and an
/// alternate entrance called across a gap.
fn gapped_program() -> Program {
    let (a, b, c) = (0x400u32, 0x1000u32, 0x6000u32);
    let call = |from: u32, to: u32| Instruction::Bsr { disp: to as i32 - (from as i32 + 1) };
    let main = Routine::new(
        "main",
        a,
        vec![
            PLAIN,
            call(a + 1, c + 1), // alternate entrance of `far`
            Instruction::Lda { rd: Reg::T1, base: Reg::ZERO, disp: (b + 2) as i16 },
            call(a + 3, b),
            Instruction::Halt,
        ],
        vec![0],
        true,
    );
    let mid = Routine::new(
        "mid",
        b,
        vec![
            PLAIN,
            Instruction::Jmp { base: Reg::T0 },
            Instruction::Operate { op: AluOp::Add, ra: Reg::T0, rb: Reg::T0, rc: Reg::V0 },
            Instruction::Ret { base: Reg::RA },
        ],
        vec![0],
        false,
    );
    let far = Routine::new(
        "far",
        c,
        vec![PLAIN, call(c + 1, b), PLAIN, Instruction::Ret { base: Reg::RA }],
        vec![0, 1],
        false,
    );
    Program::new(
        vec![main, mid, far],
        BTreeMap::from([(b + 1, vec![b + 2, b + 3])]),
        BTreeMap::new(),
        BTreeMap::new(),
        BTreeMap::from([(a + 2, b + 2)]),
        RoutineId::from_index(0),
    )
    .expect("hand-built program is valid")
}

#[test]
fn address_gaps_cost_no_table_space_and_relink_like_the_reference() {
    let p = gapped_program();
    let (a, b) = (0x400u32, 0x1000u32);

    // The empty batch already closes the gaps.
    let (packed, changed) = EditBatch::default().finish(&p).unwrap();
    assert!(changed.is_empty());
    assert_eq!(packed.routines()[1].addr(), a + 5);
    assert_eq!(packed.routines()[2].addr(), a + 9);

    // Delete in `mid` only: `main` and `far` are relinked across the
    // shift (call displacements, the relocated immediate) but not edited.
    let mut batch = EditBatch::default();
    batch.deleted.insert(b);
    let (q, changed) = batch.finish(&p).unwrap();
    assert_eq!(changed, vec![RoutineId::from_index(1)]);
    assert_eq!(q, batch.finish_reference(&p).unwrap().0);
    let far = RoutineId::from_index(2);
    assert_eq!(q.direct_call_target(q.routines()[0].addr() + 1), Some((far, 1)));
    assert_eq!(q.relocations().values().copied().collect::<Vec<_>>(), [q.routines()[1].addr() + 1]);

    // An address in a gap holds no instruction.
    let mut batch = EditBatch::default();
    batch.deleted.insert(b - 1);
    assert_eq!(batch.finish(&p).unwrap_err(), batch.finish_reference(&p).unwrap_err());
}

#[test]
fn a_batch_touching_every_routine_reports_every_routine() {
    let p = spike::synth::generate_executable(3, 12);
    let mut batch = EditBatch::default();
    for (i, (_, r)) in p.iter().enumerate() {
        // One edit per routine, cycling through the kinds.
        let addr = r.addr();
        let plain = !r.insns()[0].is_terminator() && !p.relocations().contains_key(&addr);
        match i % 3 {
            0 if plain && r.entry_offsets().len() == 1 && r.len() > 1 => {
                // Deleting a single-entrance routine's first instruction
                // forwards the entrance to the second.
                batch.deleted.insert(addr);
            }
            1 if plain => drop(batch.replaced.insert(addr, PLAIN)),
            _ => drop(batch.inserted.insert(addr, vec![PLAIN, PLAIN])),
        }
    }
    let (q, changed) = batch.finish(&p).unwrap();
    assert_eq!(changed.len(), p.routines().len());
    assert_eq!(changed, batch.edited_routines(&p));
    assert_eq!(q, batch.finish_reference(&p).unwrap().0);
}
