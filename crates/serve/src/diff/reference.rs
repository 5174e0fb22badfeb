//! The image diff as it stood before the same-layout path: every
//! routine compared modulo layout through per-routine side-table maps,
//! and every `bsr` resolved through `Program::direct_call_target` on
//! both sides. Kept as the oracle the tests compare
//! [`super::diff_for_reanalysis`] against — it shares no code with it.

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
pub(super) fn diff_for_reanalysis(old: &Program, new: &Program) -> Option<Vec<RoutineId>> {
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
