//! Property tests for the relinking rewriter: deleting any subset of
//! deletable instructions must yield a valid, correctly-relinked program.

use proptest::prelude::*;
use spike_isa::Instruction;
use spike_program::{Program, Rewriter};

fn deletable_addrs(p: &Program) -> Vec<u32> {
    let mut out = Vec::new();
    for (_, r) in p.iter() {
        for (i, insn) in r.insns().iter().enumerate() {
            let addr = r.addr() + i as u32;
            if !insn.is_terminator() && !p.relocations().contains_key(&addr) {
                out.push(addr);
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any subset of deletable instructions relinks into a valid program
    /// with exactly the expected size, intact routine names and flags,
    /// and consistent auxiliary info (guaranteed by `Program::new`'s
    /// validation inside `finish`).
    #[test]
    fn arbitrary_deletions_relink_validly(
        seed in any::<u64>(),
        mask in any::<u64>(),
    ) {
        let program = spike_synth::generate_executable(seed, 4);
        let candidates = deletable_addrs(&program);

        let mut rw = Rewriter::new(&program);
        let mut deleted = 0usize;
        let mut edited = std::collections::BTreeSet::new();
        for (i, &addr) in candidates.iter().enumerate() {
            if mask & (1 << (i % 64)) != 0 {
                rw.delete(addr);
                deleted += 1;
                edited.insert(program.routine_containing(addr).expect("addr in program"));
            }
        }
        let (q, changed) = rw.finish().expect("relink succeeds");
        prop_assert_eq!(
            q.total_instructions(),
            program.total_instructions() - deleted
        );
        // Exactly the routines with a deletion are reported changed, in
        // routine-id order.
        prop_assert_eq!(&changed, &edited.iter().copied().collect::<Vec<_>>());
        // A routine outside the changed set kept its instruction words
        // modulo relinked call displacements and relocated immediates,
        // and every direct call in it resolves to the same
        // `(routine, entry)`.
        for (id, r) in program.iter() {
            // A routine whose words came out unchanged keeps its array.
            prop_assert_eq!(q.routine(id).shares_insns_with(r), r.insns() == q.routine(id).insns());
            if changed.contains(&id) {
                continue;
            }
            let nr = q.routine(id);
            prop_assert_eq!(r.len(), nr.len());
            for (i, (old, new)) in r.insns().iter().zip(nr.insns()).enumerate() {
                let (oa, na) = (r.addr() + i as u32, nr.addr() + i as u32);
                match (old, new) {
                    (Instruction::Bsr { .. }, Instruction::Bsr { .. }) => {
                        prop_assert_eq!(program.direct_call_target(oa), q.direct_call_target(na));
                    }
                    (
                        Instruction::Lda { rd: ord, base: ob, .. },
                        Instruction::Lda { rd: nrd, base: nb, .. },
                    ) if program.relocations().contains_key(&oa) => {
                        prop_assert_eq!((ord, ob), (nrd, nb));
                        prop_assert!(q.relocations().contains_key(&na));
                    }
                    _ => prop_assert_eq!(old, new),
                }
            }
        }
        for ((_, a), (_, b)) in program.iter().zip(q.iter()) {
            prop_assert_eq!(a.name(), b.name());
            prop_assert_eq!(a.exported(), b.exported());
            prop_assert_eq!(a.entry_offsets().len(), b.entry_offsets().len());
        }
        // The relinked program still round-trips through the image format.
        prop_assert_eq!(Program::from_image(&q.to_image()).expect("loads"), q);
    }

    /// Deleting nothing is the identity and reports no changed routines.
    #[test]
    fn empty_deletion_is_identity(seed in any::<u64>()) {
        let program = spike_synth::generate_executable(seed, 3);
        let (q, changed) = Rewriter::new(&program).finish().expect("relinks");
        prop_assert_eq!(q, program);
        prop_assert!(changed.is_empty());
    }
}
