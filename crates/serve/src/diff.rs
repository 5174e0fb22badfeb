//! Structural diffing of two program images to drive incremental
//! re-analysis.
//!
//! When a client re-submits an image that differs only slightly from one
//! the daemon has already analyzed, the cheap path is
//! [`spike_core::AnalysisCache::reanalyze`] seeded with the cached
//! analysis and the set of changed routines. That is only sound when the
//! "clean" routines really are dataflow-identical between the two
//! programs, so the diff errs relentlessly toward *dirty*: any doubt
//! about a routine marks it changed, and any doubt about the program
//! shape (routine count, names, entry routine) gives up entirely and
//! reports the pair as incomparable.
//!
//! Identity is *content modulo layout*, the rule `Rewriter::finish` and
//! `AnalysisCache::reanalyze` share: a `bsr` is its resolved
//! `(routine, entry)`, not its displacement, and a relocated `lda` is the
//! `(routine, offset)` its record denotes, not its immediate. An edit
//! that shifts code therefore dirties the routine it landed in, not every
//! caller across the shift.
//!
//! The diff costs what the edit touched. When no routine moved, grew or
//! changed its entrances — an in-place edit — every address denotes what
//! it did, so equal words and equal side-table entries are equal content
//! and nothing is resolved. Otherwise each program's side tables are
//! grouped by routine once, and each `bsr` is resolved with one lookup.
//! Routines that share one instruction array (a load against a donor, or
//! a routine `Rewriter::finish` left alone) are never compared word by
//! word: in place they are clean, moved only their `bsr` words count.

use std::collections::{BTreeMap, HashMap};

use spike_isa::Instruction;
use spike_program::{IndirectTargets, Program, Routine, RoutineId};

/// Side-table contents attributed to one routine, with every address
/// rewritten as an offset from the routine base so that a pure layout
/// shift (routines moved, bodies unchanged) compares equal.
#[derive(PartialEq, Default)]
struct RoutineAux {
    /// Jump tables: jump offset → target offsets (targets stay inside the
    /// jump's routine, a `Program` validation invariant).
    jump_tables: Vec<(u32, Vec<u32>)>,
    /// Indirect-call targets: call offset → normalized targets. `Known`
    /// entry addresses are rewritten as `(routine index, entry index)`
    /// via the owning program's entry map.
    indirect: Vec<(u32, NormalizedTargets)>,
    /// Live-register hints on unknown-target jumps: jump offset → set.
    jump_hints: Vec<(u32, spike_isa::RegSet)>,
    /// Address-materialization records: instruction offset → the
    /// instruction the record denotes, as `(routine index, offset)` (or
    /// the raw address under `None` when it lies in no routine).
    relocations: Vec<(u32, (Option<usize>, u32))>,
}

/// [`IndirectTargets`] with `Known` entry addresses made layout-free.
#[derive(PartialEq)]
enum NormalizedTargets {
    Unknown,
    Known(Vec<(usize, usize)>),
    Hinted { used: spike_isa::RegSet, defined: spike_isa::RegSet, killed: spike_isa::RegSet },
}

fn normalize_targets(p: &Program, t: &IndirectTargets) -> NormalizedTargets {
    match t {
        IndirectTargets::Unknown => NormalizedTargets::Unknown,
        IndirectTargets::Known(addrs) => NormalizedTargets::Known(
            addrs
                .iter()
                .map(|&a| {
                    let (rid, ei) = p.entry_at(a).expect("validated known target is an entrance");
                    (rid.index(), ei)
                })
                .collect(),
        ),
        IndirectTargets::Hinted { used, defined, killed } => {
            NormalizedTargets::Hinted { used: *used, defined: *defined, killed: *killed }
        }
    }
}

/// Groups a program's side tables by owning routine (indexed by routine
/// id), normalized to routine-relative offsets. Map iteration is in
/// address order, so the per-routine vectors are deterministically
/// ordered and comparable.
fn aux_by_routine(p: &Program) -> Vec<RoutineAux> {
    let mut out: Vec<RoutineAux> = p.routines().iter().map(|_| RoutineAux::default()).collect();
    let owner = |addr: u32| {
        let rid = p.routine_containing(addr).expect("validated aux info lies in a routine");
        (rid.index(), addr - p.routine(rid).addr())
    };
    for (&addr, targets) in p.jump_tables() {
        let (ri, off) = owner(addr);
        let base = addr - off;
        out[ri].jump_tables.push((off, targets.iter().map(|&t| t - base).collect()));
    }
    for (&addr, targets) in p.indirect_calls() {
        let (ri, off) = owner(addr);
        out[ri].indirect.push((off, normalize_targets(p, targets)));
    }
    for (&addr, &set) in p.jump_hints() {
        let (ri, off) = owner(addr);
        out[ri].jump_hints.push((off, set));
    }
    for (&addr, &target) in p.relocations() {
        let (ri, off) = owner(addr);
        let denotes = match p.routine_containing(target) {
            Some(rid) => (Some(rid.index()), target - p.routine(rid).addr()),
            None => (None, target),
        };
        out[ri].relocations.push((off, denotes));
    }
    out
}

/// A program's entrances by address, `(routine index, entry index)`:
/// built once per shifted diff, since every `bsr` of both programs is
/// resolved through it.
struct Entrances(HashMap<u32, (usize, usize)>);

impl Entrances {
    fn of(p: &Program) -> Entrances {
        let entries = p.iter().flat_map(|(rid, r)| {
            r.entry_addrs().enumerate().map(move |(ei, addr)| (addr, (rid.index(), ei)))
        });
        Entrances(entries.collect())
    }
}

/// The `(routine, entry)` the `bsr` at index `i` of `r` with
/// displacement `disp` calls (among `entrances`, those of `r`'s
/// program), or the outer `None` when `r.addr() + i` overflows. A
/// routine based near the top of the address space can make it wrap,
/// which would compare the wrong address's call target (unsound: a
/// changed callee could look clean), so overflow must read as dirty.
fn callee(
    entrances: &Entrances,
    r: &Routine,
    i: usize,
    disp: i32,
) -> Option<Option<(usize, usize)>> {
    let addr = u32::try_from(i).ok().and_then(|i| r.addr().checked_add(i))?;
    let target = addr.wrapping_add(1).wrapping_add(disp as u32);
    Some(entrances.0.get(&target).copied())
}

/// Whether two routine bodies hold the same instructions modulo layout:
/// word for word, except that a `bsr` may carry another displacement
/// and a relocated `lda` (per `aux`, the side tables of both routines,
/// already found equal) another immediate. Equal displacements are not
/// enough either: a `bsr` displacement is layout-relative, so when the
/// routines around it grow or shrink, an unchanged word can land on
/// another routine (or another entrance of the same one) and a relinked
/// one on the same. So every `bsr` is compared by what it resolves to.
/// What a relocation denotes is compared through the [`RoutineAux`]
/// equality. Routines that share one instruction array hold the same
/// words, so only their `bsr` words are looked at.
fn same_modulo_layout(
    old: &Entrances,
    new: &Entrances,
    or: &Routine,
    nr: &Routine,
    aux: &RoutineAux,
) -> bool {
    let shared = or.shares_insns_with(nr);
    or.len() == nr.len()
        && or.insns().iter().zip(nr.insns()).enumerate().all(|(i, (a, b))| match (a, b) {
            (Instruction::Bsr { disp: ad }, Instruction::Bsr { disp: bd }) => {
                matches!(
                    (callee(old, or, i, *ad), callee(new, nr, i, *bd)),
                    (Some(x), Some(y)) if x == y
                )
            }
            _ if shared || a == b => true,
            (
                Instruction::Lda { rd: ard, base: abase, .. },
                Instruction::Lda { rd: brd, base: bbase, .. },
            ) => {
                (ard, abase) == (brd, bbase)
                    && aux.relocations.binary_search_by_key(&i, |r| r.0 as usize).is_ok()
            }
            _ => false,
        })
}

/// Marks dirty the routine holding every address at which the side table
/// `old` and its counterpart `new` differ. Only sound when no routine
/// moved: then an equal entry denotes what it did.
fn mark_changed_entries<V: PartialEq>(
    p: &Program,
    old: &BTreeMap<u32, V>,
    new: &BTreeMap<u32, V>,
    dirty: &mut [bool],
) {
    if old == new {
        return;
    }
    let changed = old
        .iter()
        .filter(|&(addr, v)| new.get(addr) != Some(v))
        .map(|(addr, _)| addr)
        .chain(new.keys().filter(|addr| !old.contains_key(addr)));
    for &addr in changed {
        let rid = p.routine_containing(addr).expect("validated aux info lies in a routine");
        dirty[rid.index()] = true;
    }
}

/// Computes the set of routines whose analysis facts may differ between
/// `old` and `new`.
///
/// Returns `None` when the programs are structurally incomparable —
/// different routine counts, names, export flags, or entry routine — in
/// which case the caller must analyze `new` from scratch. Otherwise
/// returns the dirty-routine ids (possibly empty, for a byte-level change
/// that turned out to be dataflow-neutral, e.g. a pure layout shift); the
/// set may be a superset of the truly changed routines, never a subset.
///
/// A routine is clean when its content is the same *modulo layout* — the
/// contract of `AnalysisCache::reanalyze`'s dirty set: same entrance
/// offsets, same side tables with every address made routine-relative,
/// and the same instruction words except that a `bsr` may carry another
/// displacement as long as it resolves to the same `(routine, entry)`,
/// and a relocated `lda` another immediate as long as its record denotes
/// the same `(routine, offset)`. Equal words are not enough either way:
/// a call or relocation whose bytes are unchanged but which now denotes
/// something else is dirty.
///
/// When every routine kept its base, length and entrances, every address
/// denotes what it did, and that rule reduces to: equal words and equal
/// side-table entries. Nothing is normalized or resolved then.
///
/// Two routines that share one instruction array
/// ([`Routine::shares_insns_with`]: loaded against a donor, or left
/// unchanged by `Rewriter::finish`) hold equal words by construction:
/// with the same layout they are not compared at all, and after a move
/// only their `bsr` words are resolved.
pub fn diff_for_reanalysis(old: &Program, new: &Program) -> Option<Vec<RoutineId>> {
    if old.routines().len() != new.routines().len() || old.entry().index() != new.entry().index() {
        return None;
    }
    let pairs = || old.routines().iter().zip(new.routines());
    if pairs().any(|(or, nr)| or.name() != nr.name() || or.exported() != nr.exported()) {
        return None;
    }

    let same_layout = pairs().all(|(or, nr)| {
        or.addr() == nr.addr() && or.len() == nr.len() && or.entry_offsets() == nr.entry_offsets()
    });
    let dirty: Vec<bool> = if same_layout {
        let mut dirty: Vec<bool> =
            pairs().map(|(or, nr)| !or.shares_insns_with(nr) && or.insns() != nr.insns()).collect();
        mark_changed_entries(new, old.jump_tables(), new.jump_tables(), &mut dirty);
        mark_changed_entries(new, old.indirect_calls(), new.indirect_calls(), &mut dirty);
        mark_changed_entries(new, old.jump_hints(), new.jump_hints(), &mut dirty);
        mark_changed_entries(new, old.relocations(), new.relocations(), &mut dirty);
        dirty
    } else {
        let (old_aux, new_aux) = (aux_by_routine(old), aux_by_routine(new));
        let (old_entrances, new_entrances) = (Entrances::of(old), Entrances::of(new));
        pairs()
            .zip(old_aux.iter().zip(&new_aux))
            .map(|((or, nr), (oa, na))| {
                or.entry_offsets() != nr.entry_offsets()
                    || oa != na
                    || !same_modulo_layout(&old_entrances, &new_entrances, or, nr, oa)
            })
            .collect()
    };
    Some((0..dirty.len()).filter(|&i| dirty[i]).map(RoutineId::from_index).collect())
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use spike_isa::Reg;
    use spike_program::{ProgramBuilder, Rewriter};

    fn base_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::A0).def(Reg::A1).call("helper").call("leaf").halt();
        b.routine("helper").def(Reg::T0).def(Reg::V0).ret();
        b.routine("leaf").def(Reg::V0).ret();
        b.build().unwrap()
    }

    #[test]
    fn identical_programs_have_no_dirty_routines() {
        let p = base_program();
        assert_eq!(diff_for_reanalysis(&p, &p.clone()), Some(Vec::new()));
    }

    #[test]
    fn deleting_an_instruction_dirties_its_routine() {
        let p = base_program();
        let helper = p.routine_by_name("helper").unwrap();
        let addr = p.routine(helper).addr();
        let (q, changed) = Rewriter::new(&p).delete(addr).finish().unwrap();
        let dirty = diff_for_reanalysis(&p, &q).unwrap();
        assert!(dirty.contains(&helper));
        // Everything the rewriter reports changed must be in our dirty
        // set (ours may be larger, never smaller).
        for rid in changed {
            assert!(dirty.contains(&rid), "{rid} changed but not marked dirty");
        }
    }

    #[test]
    fn renamed_routine_is_incomparable() {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::A0).def(Reg::A1).call("renamed").call("leaf").halt();
        b.routine("renamed").def(Reg::T0).def(Reg::V0).ret();
        b.routine("leaf").def(Reg::V0).ret();
        let q = b.build().unwrap();
        assert_eq!(diff_for_reanalysis(&base_program(), &q), None);
    }

    #[test]
    fn different_routine_count_is_incomparable() {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::A0).halt();
        let q = b.build().unwrap();
        assert_eq!(diff_for_reanalysis(&base_program(), &q), None);
    }

    #[test]
    fn near_overflow_call_addresses_mark_the_routine_dirty() {
        // A routine based at the very top of the address space: the bsr
        // at index 1 makes `base + i` wrap. Such a routine can only come
        // from a corrupt or adversarial image; the diff must answer
        // "cannot prove identical" (dirty), not panic in debug builds or
        // compare a wrapped address's call target in release builds.
        let p = base_program();
        let r = spike_program::Routine::new(
            "edge",
            u32::MAX,
            vec![Instruction::Bsr { disp: 0 }, Instruction::Bsr { disp: 0 }],
            vec![0],
            false,
        );
        let entrances = Entrances::of(&p);
        assert!(!same_modulo_layout(&entrances, &entrances, &r, &r, &RoutineAux::default()));
    }

    #[test]
    fn shifting_delete_dirties_only_the_edited_routine() {
        // `helper` shrinks by one instruction, which shifts `leaf` down:
        // `main`'s call to `leaf` gets a new displacement and its
        // relocated `lda` of `leaf`'s address a new immediate, but both
        // denote what they did, so `main` is clean — the same answer the
        // rewriter gives.
        let mut b = ProgramBuilder::new();
        b.routine("main").lda_routine(Reg::T0, "leaf").call("helper").call("leaf").halt();
        b.routine("helper").def(Reg::T0).def(Reg::V0).ret();
        b.routine("leaf").def(Reg::V0).ret();
        let p = b.build().unwrap();
        let (main, helper) = (p.routine_by_name("main").unwrap(), RoutineId::from_index(1));
        let (q, changed) = Rewriter::new(&p).delete(p.routine(helper).addr()).finish().unwrap();
        assert_ne!(p.routine(main).insns(), q.routine(main).insns(), "main was relinked");
        assert_eq!(diff_for_reanalysis(&p, &q), Some(vec![helper]));
        assert_eq!(changed, vec![helper]);
    }

    /// `main; r1; r2` with hand-chosen tails. `main` is `first`, `second`,
    /// `halt` — the same words whatever follows it — where `first` is
    /// either the relocated `lda t0, <main_end + 1>(zero)` or a plain
    /// constant load with no record.
    fn with_tail(
        relocated: bool,
        second: Instruction,
        r1: Vec<Instruction>,
        r1_entries: Vec<u32>,
        r2: Vec<Instruction>,
    ) -> Program {
        let base = spike_program::BASE_ADDR;
        let target = base + 4;
        let first = Instruction::Lda { rd: Reg::T0, base: Reg::ZERO, disp: target as i16 };
        let r2_addr = base + 3 + r1.len() as u32;
        Program::new(
            vec![
                Routine::new("main", base, vec![first, second, Instruction::Halt], vec![0], true),
                Routine::new("r1", base + 3, r1, r1_entries, false),
                Routine::new("r2", r2_addr, r2, vec![0], false),
            ],
            BTreeMap::new(),
            BTreeMap::new(),
            BTreeMap::new(),
            relocated.then_some((base, target)).into_iter().collect(),
            RoutineId::from_index(0),
        )
        .unwrap()
    }

    #[test]
    fn same_words_denoting_something_else_are_dirty() {
        let ret = Instruction::Ret { base: Reg::RA };
        let def = Instruction::Lda { rd: Reg::V0, base: Reg::ZERO, disp: 1 };
        let main = RoutineId::from_index(0);
        let words = |p: &Program| p.routine(main).insns().to_vec();

        // A retargeted call (and no relocation). Old: `main_end + 1` is
        // `r2`. New: `r1` grew an instruction and an entrance there, so
        // the unchanged `bsr` resolves to `(r1, 1)` instead of `(r2, 0)`.
        let call = Instruction::Bsr { disp: 2 };
        let old = with_tail(false, call, vec![ret], vec![0], vec![def, ret]);
        let new = with_tail(false, call, vec![def, ret], vec![0, 1], vec![def, ret]);
        assert_eq!(words(&old), words(&new));
        assert!(diff_for_reanalysis(&old, &new).unwrap().contains(&main));

        // A relocation whose `(routine, offset)` moved (and no call): the
        // unchanged immediate denoted `(r2, 0)` and now denotes `(r1, 1)`.
        let old = with_tail(true, def, vec![ret], vec![0], vec![def, ret]);
        let new = with_tail(true, def, vec![def, ret], vec![0], vec![def, ret]);
        assert_eq!(words(&old), words(&new));
        assert!(diff_for_reanalysis(&old, &new).unwrap().contains(&main));

        // The control: the same growth of `r1` with neither a call nor a
        // record in `main` leaves `main` clean.
        let old = with_tail(false, def, vec![ret], vec![0], vec![def, ret]);
        let new = with_tail(false, def, vec![def, ret], vec![0], vec![def, ret]);
        assert!(!diff_for_reanalysis(&old, &new).unwrap().contains(&main));
    }

    #[test]
    fn same_layout_compares_side_table_entries() {
        // Same words, same bases, same entrances: only the relocation
        // record of `main`'s first word differs, so `main` alone is dirty,
        // as the modulo-layout rule says.
        let def = Instruction::Lda { rd: Reg::V0, base: Reg::ZERO, disp: 1 };
        let ret = Instruction::Ret { base: Reg::RA };
        let old = with_tail(false, def, vec![ret], vec![0], vec![def, ret]);
        let new = with_tail(true, def, vec![ret], vec![0], vec![def, ret]);
        let main = RoutineId::from_index(0);
        assert_eq!(diff_for_reanalysis(&old, &new), Some(vec![main]));
        assert_eq!(reference::diff_for_reanalysis(&old, &new), Some(vec![main]));
        assert_eq!(diff_for_reanalysis(&new, &old), Some(vec![main]));
    }

    /// A small paper profile or a runnable executable.
    fn arb_program() -> impl Strategy<Value = Program> {
        let names =
            prop_oneof![Just("compress"), Just("li"), Just("perl"), Just("vortex"), Just("")];
        (any::<u64>(), names).prop_map(|(seed, name)| match spike_synth::profile(name) {
            Some(p) => spike_synth::generate(&p, 20.0 / p.routines as f64, seed),
            None => spike_synth::generate_executable(seed, 12),
        })
    }

    /// One edit at the `pick`-th instruction: in place (an operand swap,
    /// or a constant load over a plain instruction) or shifting (a
    /// delete, or an insertion in front of it). Edits the rewriter
    /// refuses are skipped.
    fn edit(rw: &mut Rewriter, p: &Program, pick: usize, kind: u8) {
        let sites: Vec<(u32, Instruction)> = p
            .iter()
            .flat_map(|(_, r)| r.insns().iter().enumerate().map(|(i, x)| (r.addr() + i as u32, *x)))
            .collect();
        let (addr, insn) = sites[pick % sites.len()];
        let plain = !insn.is_terminator()
            && !matches!(insn, Instruction::Bsr { .. } | Instruction::Jsr { .. })
            && !p.relocations().contains_key(&addr);
        let constant = Instruction::Lda { rd: Reg::T0, base: Reg::ZERO, disp: 1 };
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The diff, same layout or shifted, answers what the diff it
        /// replaced answers, both ways round: on the rewriter's output
        /// and on its image loaded against the original, where every
        /// unchanged routine shares the original's instruction array.
        #[test]
        fn diff_matches_the_reference_on_rewriter_edits(
            program in arb_program(),
            edits in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..4),
        ) {
            let mut rw = Rewriter::new(&program);
            for &(pick, kind) in &edits {
                edit(&mut rw, &program, pick as usize, kind);
            }
            let Ok((edited, _)) = rw.finish() else { return Ok(()) };
            let donor = (&program, &program.to_image()[..]);
            let loaded = Program::from_image_sharing(&edited.to_image(), Some(donor))
                .expect("a rewritten program's image loads");
            for (old, new) in
                [(&program, &edited), (&edited, &program), (&program, &loaded), (&loaded, &program)]
            {
                let dirty = diff_for_reanalysis(old, new);
                prop_assert!(dirty.is_some(), "an edit keeps the program comparable");
                prop_assert_eq!(dirty, reference::diff_for_reanalysis(old, new));
            }
        }
    }
}
