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

use std::collections::BTreeMap;

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

/// Groups a program's side tables by owning routine, normalized to
/// routine-relative offsets. Map iteration is in address order, so the
/// per-routine vectors are deterministically ordered and comparable.
fn aux_by_routine(p: &Program) -> BTreeMap<usize, RoutineAux> {
    let mut out: BTreeMap<usize, RoutineAux> = BTreeMap::new();
    let owner = |addr: u32| {
        let rid = p.routine_containing(addr).expect("validated aux info lies in a routine");
        (rid.index(), addr - p.routine(rid).addr())
    };
    for (&addr, targets) in p.jump_tables() {
        let (ri, off) = owner(addr);
        let base = p.routine(RoutineId::from_index(ri)).addr();
        let rel = targets.iter().map(|&t| t - base).collect();
        out.entry(ri).or_default().jump_tables.push((off, rel));
    }
    for (&addr, targets) in p.indirect_calls() {
        let (ri, off) = owner(addr);
        out.entry(ri).or_default().indirect.push((off, normalize_targets(p, targets)));
    }
    for (&addr, &set) in p.jump_hints() {
        let (ri, off) = owner(addr);
        out.entry(ri).or_default().jump_hints.push((off, set));
    }
    for (&addr, &target) in p.relocations() {
        let (ri, off) = owner(addr);
        let denotes = match p.routine_containing(target) {
            Some(rid) => (Some(rid.index()), target - p.routine(rid).addr()),
            None => (None, target),
        };
        out.entry(ri).or_default().relocations.push((off, denotes));
    }
    out
}

/// Whether two routine bodies hold the same instructions modulo layout:
/// word for word, except that a `bsr` may differ in its displacement and
/// an `lda` that `aux` (the side tables of both routines, already found
/// equal) records as relocated in its immediate. What those denote is
/// compared elsewhere — calls by [`calls_resolve_identically`],
/// relocations through that [`RoutineAux`] equality.
fn same_body_modulo_layout(or: &Routine, nr: &Routine, aux: &RoutineAux) -> bool {
    or.len() == nr.len()
        && or.insns().iter().zip(nr.insns()).enumerate().all(|(i, (a, b))| {
            a == b
                || match (a, b) {
                    (Instruction::Bsr { .. }, Instruction::Bsr { .. }) => true,
                    (
                        Instruction::Lda { rd: ard, base: abase, .. },
                        Instruction::Lda { rd: brd, base: bbase, .. },
                    ) => {
                        (ard, abase) == (brd, bbase)
                            && aux.relocations.binary_search_by_key(&i, |r| r.0 as usize).is_ok()
                    }
                    _ => false,
                }
        })
}

/// Whether the direct calls in two routine bodies that are equal modulo
/// layout resolve to the same callees. Neither equal nor different
/// displacements decide this: a `bsr` displacement is layout-relative, so
/// when surrounding routines grow or shrink, an unchanged word can land
/// on a different routine (or a different entrance of the same routine)
/// and a relinked one on the same.
fn calls_resolve_identically(old: &Program, new: &Program, or: &Routine, nr: &Routine) -> bool {
    for (i, insn) in or.insns().iter().enumerate() {
        if let Instruction::Bsr { .. } = insn {
            // A routine based near the top of the address space can make
            // `base + i` wrap, which would panic in debug builds and
            // compare the wrong address's call target in release builds
            // (unsound: a changed callee could look clean). Overflow
            // means we cannot prove the calls identical, so report dirty.
            let insn_addr = |base: u32| u32::try_from(i).ok().and_then(|i| base.checked_add(i));
            let (Some(oa), Some(na)) = (insn_addr(or.addr()), insn_addr(nr.addr())) else {
                return false;
            };
            let ot = old.direct_call_target(oa);
            let nt = new.direct_call_target(na);
            let norm = |t: Option<(RoutineId, usize)>| t.map(|(rid, ei)| (rid.index(), ei));
            if norm(ot) != norm(nt) {
                return false;
            }
        }
    }
    true
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
pub fn diff_for_reanalysis(old: &Program, new: &Program) -> Option<Vec<RoutineId>> {
    if old.routines().len() != new.routines().len() || old.entry().index() != new.entry().index() {
        return None;
    }
    for (or, nr) in old.routines().iter().zip(new.routines()) {
        if or.name() != nr.name() || or.exported() != nr.exported() {
            return None;
        }
    }

    let old_aux = aux_by_routine(old);
    let new_aux = aux_by_routine(new);
    let empty = RoutineAux::default();

    let mut dirty = Vec::new();
    for (i, (or, nr)) in old.routines().iter().zip(new.routines()).enumerate() {
        let (oa, na) = (old_aux.get(&i).unwrap_or(&empty), new_aux.get(&i).unwrap_or(&empty));
        let clean = or.entry_offsets() == nr.entry_offsets()
            && oa == na
            && same_body_modulo_layout(or, nr, oa)
            && calls_resolve_identically(old, new, or, nr);
        if !clean {
            dirty.push(RoutineId::from_index(i));
        }
    }
    Some(dirty)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert!(!calls_resolve_identically(&p, &p, &r, &r));
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
}
