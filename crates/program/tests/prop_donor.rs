//! Property tests for loading an image against a donor
//! (`Program::from_image_sharing`): the donor-aware load answers what
//! `Program::from_image` answers on the same bytes, `Program` for
//! `Program` and error for error, and a routine shares the donor's
//! instruction array exactly when its words are the donor's.

use proptest::prelude::*;
use spike_isa::{Instruction, Reg};
use spike_program::{Program, Rewriter, Routine};

/// A small paper profile or a runnable executable.
fn arb_program() -> impl Strategy<Value = Program> {
    let names = prop_oneof![Just("compress"), Just("li"), Just("perl"), Just("vortex"), Just("")];
    (any::<u64>(), names).prop_map(|(seed, name)| match spike_synth::profile(name) {
        Some(p) => spike_synth::generate(&p, 20.0 / p.routines as f64, seed),
        None => spike_synth::generate_executable(seed, 12),
    })
}

/// `program` with up to three edits: in place (an operand swap, or a
/// constant load over a plain instruction) or shifting (a delete, or an
/// insertion). `None` when the rewriter refuses them.
fn edited(program: &Program, edits: &[(u16, u8)]) -> Option<Program> {
    let sites: Vec<(u32, Instruction)> = program
        .iter()
        .flat_map(|(_, r)| r.insns().iter().enumerate().map(|(i, x)| (r.addr() + i as u32, *x)))
        .collect();
    let constant = Instruction::Lda { rd: Reg::T0, base: Reg::ZERO, disp: 1 };
    let mut rw = Rewriter::new(program);
    for &(pick, kind) in edits {
        let (addr, insn) = sites[pick as usize % sites.len()];
        let plain = !insn.is_terminator()
            && !matches!(insn, Instruction::Bsr { .. } | Instruction::Jsr { .. })
            && !program.relocations().contains_key(&addr);
        match (kind % 4, insn) {
            (0, Instruction::Operate { op, ra, rb, rc }) => {
                rw.replace(addr, Instruction::Operate { op, ra: rb, rb: ra, rc });
            }
            (1, _) if plain => {
                rw.replace(addr, constant);
            }
            (2, _) if plain => {
                rw.delete(addr);
            }
            (3, _) => {
                rw.insert_before(addr, vec![constant]);
            }
            _ => {}
        }
    }
    rw.finish().ok().map(|(p, _)| p)
}

/// Loads `image` against `donor` (and the image it was loaded from) and
/// plainly, asserts both answers are equal, and returns the program the
/// shared load gave, if any.
fn load_both(
    image: &[u8],
    donor: &Program,
    donor_image: &[u8],
) -> Result<Option<Program>, TestCaseError> {
    let shared = Program::from_image_sharing(image, Some((donor, donor_image)));
    prop_assert_eq!(&shared, &Program::from_image(image));
    Ok(shared.ok())
}

/// Whether two routines hold the same instruction words.
fn same_words(a: &Routine, b: &Routine) -> bool {
    a.len() == b.len() && a.insns().iter().zip(b.insns()).all(|(x, y)| x.encode() == y.encode())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// In-place and shifting edits: equal to the plain load, and a
    /// routine shares the donor's array exactly when its words are
    /// unchanged.
    #[test]
    fn a_donor_load_equals_the_plain_load_on_rewriter_edits(
        program in arb_program(),
        edits in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..4),
    ) {
        let Some(new) = edited(&program, &edits) else { return Ok(()) };
        let donor_image = program.to_image();
        let loaded = load_both(&new.to_image(), &program, &donor_image)?
            .expect("a rewritten program's image loads");
        for (old, r) in program.routines().iter().zip(loaded.routines()) {
            prop_assert_eq!(r.shares_insns_with(old), same_words(old, r), "{}", r.name());
        }
        // The unedited image against itself shares every routine.
        let again = load_both(&donor_image, &program, &donor_image)?.expect("loads");
        prop_assert!(again.routines().iter().zip(program.routines()).all(|(a, b)| a.shares_insns_with(b)));
    }

    /// A donor of another program shares only what happens to be
    /// word-identical at the same index, and changes no answer.
    #[test]
    fn a_donor_from_another_program_changes_nothing(a in arb_program(), b in arb_program()) {
        let loaded = load_both(&b.to_image(), &a, &a.to_image())?.expect("an image loads");
        for (old, r) in a.routines().iter().zip(loaded.routines()) {
            prop_assert_eq!(r.shares_insns_with(old), same_words(old, r));
        }
    }

    /// Truncated and corrupted images fail (or load) as the plain load
    /// does, and so does a load against a truncated donor image.
    #[test]
    fn damaged_images_answer_as_the_plain_load(
        program in arb_program(),
        edits in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..3),
        cut in any::<usize>(),
        flips in proptest::collection::vec((any::<usize>(), 1..=255u8), 1..4),
    ) {
        let new = edited(&program, &edits).unwrap_or_else(|| program.clone());
        let (image, donor_image) = (new.to_image(), program.to_image());
        load_both(&image[..cut % image.len()], &program, &donor_image)?;
        let mut corrupt = image.clone();
        for (at, mask) in &flips {
            let at = at % corrupt.len();
            corrupt[at] ^= mask;
        }
        load_both(&corrupt, &program, &donor_image)?;
        let short = &donor_image[..cut % donor_image.len()];
        let shared = Program::from_image_sharing(&image, Some((&program, short)));
        prop_assert_eq!(shared, Program::from_image(&image));
    }
}
