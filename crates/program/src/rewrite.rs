//! Post-link program rewriting: delete instructions and relink.
//!
//! Spike's optimizations delete instructions from a linked executable,
//! which moves every later instruction. The [`Rewriter`] performs the
//! relinking a post-link optimizer must do: it compacts each routine,
//! recomputes every branch and call displacement, remaps jump-table
//! targets, indirect-call target lists, entry offsets, and the
//! address-materialization relocations (`lda` immediates holding code
//! addresses).
//!
//! # Example
//!
//! ```
//! use spike_isa::Reg;
//! use spike_program::{ProgramBuilder, Rewriter};
//!
//! let mut b = ProgramBuilder::new();
//! b.routine("main")
//!     .def(Reg::T0) // dead: delete it
//!     .lda(Reg::V0, Reg::ZERO, 9)
//!     .put_int()
//!     .halt();
//! let program = b.build()?;
//!
//! let mut rw = Rewriter::new(&program);
//! rw.delete(program.routines()[0].addr());
//! let (optimized, changed) = rw.finish()?;
//! assert_eq!(optimized.total_instructions(), program.total_instructions() - 1);
//! assert_eq!(changed.len(), 1); // only `main` was touched
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use spike_isa::{Instruction, Reg};

use crate::program::{Program, ProgramError};
use crate::routine::{Routine, RoutineId};
use crate::BASE_ADDR;

/// Error produced by [`Rewriter::finish`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RewriteError {
    /// An address marked for deletion holds no instruction.
    NoSuchInstruction(u32),
    /// The instruction at the address may not be deleted: terminators and
    /// relocated address materializations anchor control flow. Also
    /// returned, naming its first address, for a deleted span that would
    /// leave an entrance with no instruction before the next entrance.
    NotDeletable(u32),
    /// An insertion or bypass request is invalid: inserted instructions
    /// must not transfer control, and only branches can be bypassed.
    NotInsertable(u32),
    /// Deleting would leave a routine empty.
    EmptyRoutine(String),
    /// A relocated address constant no longer fits its immediate field.
    RelocationOverflow { addr: u32 },
    /// The rewritten program failed validation.
    Invalid(ProgramError),
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::NoSuchInstruction(a) => {
                write!(f, "no instruction at {a:#x}")
            }
            RewriteError::NotDeletable(a) => {
                write!(f, "instruction at {a:#x} may not be deleted")
            }
            RewriteError::NotInsertable(a) => {
                write!(f, "invalid insertion or bypass at {a:#x}")
            }
            RewriteError::EmptyRoutine(n) => write!(f, "deleting would empty routine {n}"),
            RewriteError::RelocationOverflow { addr } => {
                write!(f, "relocated constant at {addr:#x} overflows its field")
            }
            RewriteError::Invalid(e) => write!(f, "rewritten program is invalid: {e}"),
        }
    }
}

impl std::error::Error for RewriteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RewriteError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ProgramError> for RewriteError {
    fn from(e: ProgramError) -> RewriteError {
        RewriteError::Invalid(e)
    }
}

/// Deletes instructions from a program and relinks it.
///
/// Collect deletions with [`Rewriter::delete`], then call
/// [`Rewriter::finish`]. Only non-control-flow instructions may be
/// deleted; branch targets that die are forwarded to the next surviving
/// instruction.
#[derive(Debug)]
pub struct Rewriter<'a> {
    program: &'a Program,
    deleted: BTreeSet<u32>,
    replaced: BTreeMap<u32, Instruction>,
    inserted: BTreeMap<u32, Vec<Instruction>>,
    bypassed: BTreeSet<u32>,
}

impl<'a> Rewriter<'a> {
    /// Creates a rewriter over `program` with no pending edits.
    pub fn new(program: &'a Program) -> Rewriter<'a> {
        Rewriter {
            program,
            deleted: BTreeSet::new(),
            replaced: BTreeMap::new(),
            inserted: BTreeMap::new(),
            bypassed: BTreeSet::new(),
        }
    }

    /// Marks the instruction at `addr` for deletion. Idempotent.
    pub fn delete(&mut self, addr: u32) -> &mut Self {
        self.deleted.insert(addr);
        self
    }

    /// Replaces the instruction at `addr` with `insn` (e.g. a register
    /// rename). The replacement must not change control flow:
    /// [`Rewriter::finish`] rejects replacements that alter whether or
    /// where the instruction transfers control.
    pub fn replace(&mut self, addr: u32, insn: Instruction) -> &mut Self {
        self.replaced.insert(addr, insn);
        self
    }

    /// Schedules `insns` for insertion immediately before the instruction
    /// at `addr`. Every control transfer that resolved to `addr` —
    /// branches, jump tables, relocations, entry offsets, and forwarding
    /// from deleted predecessors — resolves to the first inserted
    /// instruction instead, so inserted code runs on every path that
    /// reached `addr`, except through branches marked with
    /// [`Rewriter::bypass`]. Repeated calls for the same address append.
    /// Inserted instructions must not transfer control.
    pub fn insert_before(&mut self, addr: u32, insns: Vec<Instruction>) -> &mut Self {
        if !insns.is_empty() {
            self.inserted.entry(addr).or_default().extend(insns);
        }
        self
    }

    /// Marks the branch at `addr` as *bypassing* insertions at its
    /// target: the branch keeps jumping to the original target
    /// instruction, past any code inserted before it. This is how a loop
    /// back edge skips a synthesized preheader. Only `Br` and
    /// `CondBranch` instructions can be bypassed.
    pub fn bypass(&mut self, addr: u32) -> &mut Self {
        self.bypassed.insert(addr);
        self
    }

    /// Number of pending edits (deletions, replacements, insertion
    /// points and bypasses).
    pub fn pending(&self) -> usize {
        self.deleted.len() + self.replaced.len() + self.inserted.len() + self.bypassed.len()
    }

    /// Compacts and relinks the program.
    ///
    /// Returns the rewritten program together with the routines that
    /// *received an edit* — a deletion, replacement, insertion or bypass
    /// — in routine-id order. That is the set whose analysis-relevant
    /// content may differ; it is what
    /// `spike_core::AnalysisCache::reanalyze` wants as its dirty set.
    ///
    /// A routine outside the set is **content-identical modulo layout**:
    /// it may have moved to a new base address, the displacement of a
    /// `bsr` in it may have been recomputed across a shifted gap, and the
    /// immediate of a relocated `lda` may name the new address of moved
    /// code, but every call still resolves to the same `(routine, entry)`
    /// ([`Program::direct_call_target`]), every relocation still denotes
    /// the same instruction, and no other word differs. None of that
    /// feeds a dataflow fact (a relocated `lda` has base `zero` by
    /// [`Program::new`]'s validation, so its value is a bare constant),
    /// so such a routine is not reported.
    ///
    /// # Errors
    ///
    /// Returns a [`RewriteError`] if a deletion is invalid (missing
    /// instruction, terminator, relocated constant), a routine would
    /// become empty, a relocation overflows, or the relinked program
    /// fails validation.
    pub fn finish(&self) -> Result<(Program, Vec<RoutineId>), RewriteError> {
        let p = self.program;
        let slots = Slots::new(p);
        // One flag byte per instruction slot; everything below tests
        // these instead of searching the edit sets.
        let mut flags = vec![0u8; slots.len()];
        for &addr in p.relocations().keys() {
            let (i, _) = slots.locate(addr).expect("validated relocation lies in a routine");
            flags[i] |= RELOCATED;
        }

        // Validate deletions.
        for &addr in &self.deleted {
            let Some((i, insn)) = slots.locate(addr) else {
                return Err(RewriteError::NoSuchInstruction(addr));
            };
            if insn.is_terminator() || flags[i] & RELOCATED != 0 {
                return Err(RewriteError::NotDeletable(addr));
            }
            flags[i] |= DELETED;
        }
        // Validate replacements: control flow must be untouched.
        for (&addr, new) in &self.replaced {
            let Some((i, old)) = slots.locate(addr) else {
                return Err(RewriteError::NoSuchInstruction(addr));
            };
            if flags[i] & DELETED != 0 {
                return Err(RewriteError::NotDeletable(addr));
            }
            let same_flow = match (old, new) {
                (Instruction::Br { disp: a }, Instruction::Br { disp: b }) => a == b,
                (Instruction::Bsr { disp: a }, Instruction::Bsr { disp: b }) => a == b,
                (
                    Instruction::CondBranch { disp: a, .. },
                    Instruction::CondBranch { disp: b, .. },
                ) => a == b,
                (Instruction::Jmp { .. }, Instruction::Jmp { .. })
                | (Instruction::Jsr { .. }, Instruction::Jsr { .. })
                | (Instruction::Ret { .. }, Instruction::Ret { .. }) => true,
                (a, b) => !a.is_terminator() && !b.is_terminator(),
            };
            if !same_flow || flags[i] & RELOCATED != 0 {
                return Err(RewriteError::NotDeletable(addr));
            }
            flags[i] |= REPLACED;
        }
        // Validate insertions and bypasses.
        for (&addr, ins) in &self.inserted {
            let Some((i, _)) = slots.locate(addr) else {
                return Err(RewriteError::NoSuchInstruction(addr));
            };
            if ins.iter().any(|i| i.is_terminator()) {
                return Err(RewriteError::NotInsertable(addr));
            }
            flags[i] |= INSERTED;
        }
        for &addr in &self.bypassed {
            match slots.locate(addr) {
                None => return Err(RewriteError::NoSuchInstruction(addr)),
                Some((i, Instruction::Br { .. } | Instruction::CondBranch { .. })) => {
                    flags[i] |= BYPASSED;
                }
                Some(_) => return Err(RewriteError::NotInsertable(addr)),
            }
        }

        // Pass 1: assign new addresses. `fwd[i]` is the new address of
        // the first emitted instruction at or after slot `i` (within its
        // routine) — branch targets forward past deleted instructions
        // and *into* code inserted before the target. `skip[i]`, read
        // only at insertion points, is the new address of the original
        // instruction (or its surviving successor), which is where
        // bypassing branches land. The payloads of the edit maps are in
        // address order, which is slot order, so each pass draws them
        // from an iterator as it meets the flagged slots.
        let mut fwd = vec![0u32; slots.len()];
        let mut skip = vec![0u32; slots.len()];
        let mut insertions = self.inserted.values();
        let mut next = BASE_ADDR;
        for (ri, r) in p.routines().iter().enumerate() {
            let new_base = next;
            let (lo, hi) = (slots.prefix[ri], slots.prefix[ri + 1]);
            // Deleted slots from `unresolved` on forward to whatever is
            // emitted next; so does the bypass target of an insertion
            // point whose own instruction was deleted.
            let mut unresolved = lo;
            let mut unresolved_skip = None;
            for i in lo..hi {
                let (inserted, deleted) = (flags[i] & INSERTED != 0, flags[i] & DELETED != 0);
                if deleted && !inserted {
                    continue;
                }
                fwd[unresolved..=i].fill(next);
                if let Some(s) = unresolved_skip.take() {
                    skip[s] = next;
                }
                unresolved = i + 1;
                if inserted {
                    let ins = insertions.next().expect("one payload per insertion point");
                    next += ins.len() as u32;
                    if deleted {
                        unresolved_skip = Some(i);
                        continue;
                    }
                    skip[i] = next;
                }
                next += 1;
            }
            if unresolved != hi || unresolved_skip.is_some() {
                // Trailing deletions are impossible: terminators survive.
                unreachable!("routine cannot end with deleted instructions");
            }
            if next == new_base {
                return Err(RewriteError::EmptyRoutine(r.name().to_string()));
            }
            // Every entrance keeps an instruction of its own: a span
            // deleted whole would merge its entrance with the next.
            for w in r.entry_offsets().windows(2) {
                if fwd[lo + w[0] as usize] == fwd[lo + w[1] as usize] {
                    return Err(RewriteError::NotDeletable(r.addr() + w[0]));
                }
            }
        }
        // Cross-routine targets — calls, relocations, known indirect-call
        // lists — find their slot through the routine table.
        let map = |old: u32| -> u32 {
            fwd[slots.locate(old).expect("validated target is an instruction address").0]
        };

        // Pass 2: rebuild routines with recomputed displacements.
        let mut routines = Vec::with_capacity(p.routines().len());
        let mut relocations = BTreeMap::new();
        let mut changed = Vec::new();
        let mut insertions = self.inserted.values();
        let mut replacements = self.replaced.values();
        let mut relocated = p.relocations().values();
        for (ri, r) in p.routines().iter().enumerate() {
            let lo = slots.prefix[ri];
            // Branch targets stay inside the routine (a validation
            // invariant). Branches marked `bypass` land past any
            // insertion at the target.
            let map_branch = |i: usize, target: u32| -> u32 {
                let t = lo + target.wrapping_sub(r.addr()) as usize;
                if flags[i] & BYPASSED != 0 && flags[t] & INSERTED != 0 {
                    skip[t]
                } else {
                    fwd[t]
                }
            };
            let mut insns = Vec::with_capacity(r.len());
            let mut edits = 0u8;
            // Whether relinking rewrote a displacement or an immediate.
            let mut relinked_any = false;
            for (off, original) in r.insns().iter().enumerate() {
                let i = lo + off;
                let old = r.addr() + off as u32;
                edits |= flags[i];
                if flags[i] & INSERTED != 0 {
                    insns.extend_from_slice(
                        insertions.next().expect("one payload per insertion point"),
                    );
                }
                if flags[i] & DELETED != 0 {
                    continue;
                }
                // With an insertion here, `fwd` points at the inserted
                // code; the original instruction itself sits after it.
                let new_addr = if flags[i] & INSERTED != 0 { skip[i] } else { fwd[i] };
                let insn = if flags[i] & REPLACED != 0 {
                    *replacements.next().expect("one payload per replacement")
                } else {
                    *original
                };
                let target_of = |disp: i32| old.wrapping_add(1).wrapping_add(disp as u32);
                let mut relink_disp = |disp: i32, new_target: u32| {
                    let new = relink(new_target, new_addr);
                    relinked_any |= new != disp;
                    new
                };
                let relinked = match insn {
                    Instruction::Br { disp } => {
                        Instruction::Br { disp: relink_disp(disp, map_branch(i, target_of(disp))) }
                    }
                    Instruction::Bsr { disp } => {
                        Instruction::Bsr { disp: relink_disp(disp, map(target_of(disp))) }
                    }
                    Instruction::CondBranch { cond, ra, disp } => Instruction::CondBranch {
                        cond,
                        ra,
                        disp: relink_disp(disp, map_branch(i, target_of(disp))),
                    },
                    Instruction::Lda { rd, base, disp } if flags[i] & RELOCATED != 0 => {
                        let target = map(*relocated.next().expect("one record per relocated slot"));
                        relocations.insert(new_addr, target);
                        let new = i16::try_from(target)
                            .map_err(|_| RewriteError::RelocationOverflow { addr: old })?;
                        relinked_any |= new != disp;
                        Instruction::Lda { rd, base, disp: new }
                    }
                    other => other,
                };
                insns.push(relinked);
            }
            if edits & EDITED != 0 {
                changed.push(RoutineId::from_index(ri));
            }
            // A routine whose words came out unchanged keeps its array.
            let insns = if edits & EDITED == 0 && !relinked_any {
                Arc::clone(r.shared_insns())
            } else {
                insns.into()
            };
            let new_base = fwd[lo];
            let entry_offsets: Vec<u32> =
                r.entry_offsets().iter().map(|&o| fwd[lo + o as usize] - new_base).collect();
            routines.push(Routine::with_shared_insns(
                r.name(),
                new_base,
                insns,
                entry_offsets,
                r.exported(),
            ));
        }

        // Pass 3: remap auxiliary info.
        let jump_tables = p
            .jump_tables()
            .iter()
            .map(|(&addr, targets)| (map(addr), targets.iter().map(|&t| map(t)).collect()))
            .collect();
        let indirect_calls = p
            .indirect_calls()
            .iter()
            .map(|(&addr, t)| {
                let t = match t {
                    crate::program::IndirectTargets::Known(list) => {
                        crate::program::IndirectTargets::Known(
                            list.iter().map(|&a| map(a)).collect(),
                        )
                    }
                    other => other.clone(),
                };
                (map(addr), t)
            })
            .collect();
        let jump_hints = p.jump_hints().iter().map(|(&addr, &live)| (map(addr), live)).collect();

        let program = Program::new(
            routines,
            jump_tables,
            indirect_calls,
            jump_hints,
            relocations,
            p.entry(),
        )?;
        Ok((program, changed))
    }
}

/// The slot's instruction is marked for deletion.
const DELETED: u8 = 1 << 0;
/// The slot's instruction is replaced.
const REPLACED: u8 = 1 << 1;
/// Code is inserted before the slot.
const INSERTED: u8 = 1 << 2;
/// The slot's branch bypasses insertions at its target.
const BYPASSED: u8 = 1 << 3;
/// The slot holds a relocated `lda` of the input program (not an edit).
const RELOCATED: u8 = 1 << 4;
/// The flags that make a routine *changed*.
const EDITED: u8 = DELETED | REPLACED | INSERTED | BYPASSED;

/// The relinker's instruction numbering: one *slot* per instruction in
/// layout order, routine `r`'s instruction at offset `o` being slot
/// `prefix[r] + o`. Tables indexed by slot are exactly as long as the
/// program has instructions, however far apart its routines lie.
struct Slots<'a> {
    program: &'a Program,
    /// `prefix[r]` = instructions in routines before `r`; one extra entry
    /// holds the total.
    prefix: Vec<usize>,
    /// The routine the last lookup hit. Edit sets arrive in address order
    /// and most targets are near their source, so checking it first
    /// makes the common lookup constant-time; everything else falls back
    /// to [`Program::routine_containing`]'s binary search.
    last: Cell<usize>,
}

impl<'a> Slots<'a> {
    fn new(program: &'a Program) -> Slots<'a> {
        let mut prefix = Vec::with_capacity(program.routines().len() + 1);
        let mut total = 0;
        for r in program.routines() {
            prefix.push(total);
            total += r.len();
        }
        prefix.push(total);
        Slots { program, prefix, last: Cell::new(0) }
    }

    /// Number of slots (instructions in the program).
    fn len(&self) -> usize {
        *self.prefix.last().expect("prefix always holds the total")
    }

    /// The slot and instruction at word address `addr`.
    fn locate(&self, addr: u32) -> Option<(usize, &'a Instruction)> {
        let routines = self.program.routines();
        let mut ri = self.last.get();
        if !routines[ri].contains_addr(addr) {
            ri = self.program.routine_containing(addr)?.index();
            self.last.set(ri);
        }
        let off = (addr - routines[ri].addr()) as usize;
        Some((self.prefix[ri] + off, &routines[ri].insns()[off]))
    }
}

/// Re-expresses a (new) branch target relative to the new pc.
fn relink(new_target: u32, new_addr: u32) -> i32 {
    new_target as i64 as i32 - (new_addr as i32 + 1)
}

// `Reg` is referenced by doc examples above; silence the unused warning
// when docs are not built.
const _: Option<Reg> = None;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use spike_isa::{AluOp, BranchCond};

    #[test]
    fn deleting_shifts_branches_correctly() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .def(Reg::T0) // will be deleted
            .label("top")
            .op_imm(AluOp::Sub, Reg::A0, 1, Reg::A0)
            .def(Reg::T1) // will be deleted
            .cond(BranchCond::Ne, Reg::A0, "top")
            .halt();
        let p = b.build().unwrap();
        let base = p.routines()[0].addr();

        let mut rw = Rewriter::new(&p);
        rw.delete(base).delete(base + 2);
        assert_eq!(rw.pending(), 2);
        let (q, changed) = rw.finish().unwrap();

        assert_eq!(changed, vec![RoutineId::from_index(0)]);
        assert_eq!(q.total_instructions(), 3);
        // The loop branch still targets the subq.
        let r = &q.routines()[0];
        assert_eq!(
            r.insns()[1],
            Instruction::CondBranch { cond: BranchCond::Ne, ra: Reg::A0, disp: -2 }
        );
    }

    #[test]
    fn deleting_a_branch_target_forwards_to_next_survivor() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .cond(BranchCond::Eq, Reg::A0, "skip")
            .def(Reg::T0)
            .label("skip")
            .def(Reg::T1) // the branch target; delete it
            .def(Reg::T2)
            .halt();
        let p = b.build().unwrap();
        let base = p.routines()[0].addr();
        let (q, _) = Rewriter::new(&p).delete(base + 2).finish().unwrap();
        // Branch now lands on `def t2`.
        let r = &q.routines()[0];
        assert_eq!(
            r.insns()[0],
            Instruction::CondBranch { cond: BranchCond::Eq, ra: Reg::A0, disp: 1 }
        );
    }

    #[test]
    fn calls_across_shifted_routines_are_relinked() {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::T0).def(Reg::T1).call("f").halt();
        b.routine("f").def(Reg::V0).ret();
        let p = b.build().unwrap();
        let base = p.routines()[0].addr();
        let (q, changed) = Rewriter::new(&p).delete(base).delete(base + 1).finish().unwrap();
        let main = q.routine_by_name("main").unwrap();
        let f = q.routine_by_name("f").unwrap();
        assert_eq!(q.direct_call_target(q.routine(main).addr()), Some((f, 0)));
        // Only main's instructions changed; f merely shifted down.
        assert_eq!(changed, vec![main]);
    }

    #[test]
    fn jump_tables_and_relocations_are_remapped() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .def(Reg::T2) // deleted
            .lda_label(Reg::T0, "c0")
            .switch(Reg::T0, &["c0", "c1"])
            .label("c0")
            .br("end")
            .label("c1")
            .def(Reg::T1)
            .label("end")
            .halt();
        let p = b.build().unwrap();
        let base = p.routines()[0].addr();
        let (q, _) = Rewriter::new(&p).delete(base).finish().unwrap();

        // Everything shifted down one word; the table and reloc follow.
        let jt: Vec<_> = q.jump_tables().iter().collect();
        assert_eq!(jt.len(), 1);
        assert_eq!(*jt[0].0, base + 1);
        assert_eq!(jt[0].1, &vec![base + 2, base + 3]);
        assert_eq!(q.relocations().get(&base), Some(&(base + 2)));
        match q.insn_at(base) {
            Some(&Instruction::Lda { disp, .. }) => assert_eq!(disp as u32, base + 2),
            other => panic!("expected relocated lda, got {other:?}"),
        }
    }

    #[test]
    fn terminators_are_not_deletable() {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::T0).halt();
        let p = b.build().unwrap();
        let base = p.routines()[0].addr();
        let err = Rewriter::new(&p).delete(base + 1).finish().unwrap_err();
        assert_eq!(err, RewriteError::NotDeletable(base + 1));
    }

    #[test]
    fn emptying_the_span_before_an_alternate_entrance_is_not_deletable() {
        let mut b = ProgramBuilder::new();
        b.routine("f").def(Reg::T0).label("g").alt_entry("g").def(Reg::T1).ret();
        let p = b.build().unwrap();
        let base = p.routines()[0].addr();
        let err = Rewriter::new(&p).delete(base).finish().unwrap_err();
        assert_eq!(err, RewriteError::NotDeletable(base));
        // The span from the alternate entrance on may shrink: `g` then
        // forwards to the `ret`.
        let (q, _) = Rewriter::new(&p).delete(base + 1).finish().unwrap();
        assert_eq!(q.routines()[0].entry_offsets(), &[0, 1]);
    }

    #[test]
    fn relocated_constants_are_not_deletable() {
        let mut b = ProgramBuilder::new();
        b.routine("main").lda_label(Reg::T0, "t").label("t").halt();
        let p = b.build().unwrap();
        let base = p.routines()[0].addr();
        let err = Rewriter::new(&p).delete(base).finish().unwrap_err();
        assert_eq!(err, RewriteError::NotDeletable(base));
    }

    #[test]
    fn unknown_addresses_are_rejected() {
        let mut b = ProgramBuilder::new();
        b.routine("main").halt();
        let p = b.build().unwrap();
        let err = Rewriter::new(&p).delete(0xDEAD).finish().unwrap_err();
        assert_eq!(err, RewriteError::NoSuchInstruction(0xDEAD));
    }

    #[test]
    fn replace_renames_registers() {
        let mut b = ProgramBuilder::new();
        b.routine("main").op(AluOp::Add, Reg::A0, Reg::A1, Reg::S0).halt();
        let p = b.build().unwrap();
        let base = p.routines()[0].addr();
        let mut rw = Rewriter::new(&p);
        rw.replace(
            base,
            Instruction::Operate { op: AluOp::Add, ra: Reg::A0, rb: Reg::A1, rc: Reg::T0 },
        );
        let (q, changed) = rw.finish().unwrap();
        assert_eq!(
            q.insn_at(base),
            Some(&Instruction::Operate { op: AluOp::Add, ra: Reg::A0, rb: Reg::A1, rc: Reg::T0 })
        );
        assert_eq!(changed, vec![RoutineId::from_index(0)]);
    }

    #[test]
    fn replace_rejects_control_flow_changes() {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::T0).halt();
        let p = b.build().unwrap();
        let base = p.routines()[0].addr();
        // Turning a plain instruction into a terminator is rejected.
        let mut rw = Rewriter::new(&p);
        rw.replace(base, Instruction::Ret { base: Reg::RA });
        assert_eq!(rw.finish().unwrap_err(), RewriteError::NotDeletable(base));
        // Changing a branch displacement is rejected.
        let mut b = ProgramBuilder::new();
        b.routine("main").label("t").br("t");
        let p = b.build().unwrap();
        let base = p.routines()[0].addr();
        let mut rw = Rewriter::new(&p);
        rw.replace(base, Instruction::Br { disp: 5 });
        assert!(rw.finish().is_err());
    }

    #[test]
    fn insertion_enters_on_branches_and_fallthrough() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .cond(BranchCond::Eq, Reg::A0, "join")
            .def(Reg::T0)
            .label("join")
            .def(Reg::T1)
            .halt();
        let p = b.build().unwrap();
        let base = p.routines()[0].addr();
        let mut rw = Rewriter::new(&p);
        rw.insert_before(
            base + 2,
            vec![Instruction::Lda { rd: Reg::T2, base: Reg::ZERO, disp: 7 }],
        );
        let (q, changed) = rw.finish().unwrap();
        assert_eq!(changed, vec![RoutineId::from_index(0)]);
        assert_eq!(q.total_instructions(), p.total_instructions() + 1);
        let r = &q.routines()[0];
        // The branch now targets the inserted lda (two insns ahead of the
        // fall-through def, which also runs into it).
        assert_eq!(
            r.insns()[0],
            Instruction::CondBranch { cond: BranchCond::Eq, ra: Reg::A0, disp: 1 }
        );
        assert_eq!(r.insns()[2], Instruction::Lda { rd: Reg::T2, base: Reg::ZERO, disp: 7 });
        assert_eq!(r.insns()[3], p.routines()[0].insns()[2]);
    }

    #[test]
    fn bypassed_back_edge_skips_the_insertion() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .label("top")
            .op_imm(AluOp::Sub, Reg::A0, 1, Reg::A0)
            .cond(BranchCond::Ne, Reg::A0, "top")
            .halt();
        let p = b.build().unwrap();
        let base = p.routines()[0].addr();
        let mut rw = Rewriter::new(&p);
        rw.insert_before(base, vec![Instruction::Lda { rd: Reg::T0, base: Reg::ZERO, disp: 1 }]);
        rw.bypass(base + 1);
        let (q, _) = rw.finish().unwrap();
        let r = &q.routines()[0];
        // Layout: lda (preheader), subq, bne, halt. The back edge jumps
        // to the subq, not the lda.
        assert_eq!(r.insns()[0], Instruction::Lda { rd: Reg::T0, base: Reg::ZERO, disp: 1 });
        assert_eq!(
            r.insns()[2],
            Instruction::CondBranch { cond: BranchCond::Ne, ra: Reg::A0, disp: -2 }
        );
    }

    #[test]
    fn insert_and_delete_at_the_same_address_moves_the_instruction() {
        // The LICM shape: hoist the loop's first instruction into the
        // preheader (insert a copy before it, delete the original).
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .label("top")
            .lda(Reg::T0, Reg::ZERO, 3)
            .op_imm(AluOp::Sub, Reg::A0, 1, Reg::A0)
            .cond(BranchCond::Ne, Reg::A0, "top")
            .halt();
        let p = b.build().unwrap();
        let base = p.routines()[0].addr();
        let mut rw = Rewriter::new(&p);
        rw.insert_before(base, vec![Instruction::Lda { rd: Reg::T0, base: Reg::ZERO, disp: 3 }]);
        rw.delete(base);
        rw.bypass(base + 2);
        let (q, _) = rw.finish().unwrap();
        let r = &q.routines()[0];
        assert_eq!(r.len(), p.routines()[0].len());
        // lda now runs once before the loop; the back edge targets the
        // subq (the deleted original forwards bypasses to the survivor).
        assert_eq!(r.insns()[0], Instruction::Lda { rd: Reg::T0, base: Reg::ZERO, disp: 3 });
        assert_eq!(
            r.insns()[2],
            Instruction::CondBranch { cond: BranchCond::Ne, ra: Reg::A0, disp: -2 }
        );
    }

    #[test]
    fn insertion_shifts_later_routines_and_tables() {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::T0).call("f").halt();
        b.routine("f").def(Reg::V0).ret();
        let p = b.build().unwrap();
        let base = p.routines()[0].addr();
        let mut rw = Rewriter::new(&p);
        rw.insert_before(
            base + 1,
            vec![Instruction::Lda { rd: Reg::T1, base: Reg::ZERO, disp: 2 }],
        );
        let (q, changed) = rw.finish().unwrap();
        let main = q.routine_by_name("main").unwrap();
        let f = q.routine_by_name("f").unwrap();
        // The call still reaches f at its shifted address.
        assert_eq!(q.direct_call_target(q.routine(main).addr() + 2), Some((f, 0)));
        assert_eq!(changed, vec![main]);
    }

    #[test]
    fn inserted_terminators_and_non_branch_bypasses_are_rejected() {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::T0).halt();
        let p = b.build().unwrap();
        let base = p.routines()[0].addr();
        let mut rw = Rewriter::new(&p);
        rw.insert_before(base, vec![Instruction::Halt]);
        assert_eq!(rw.finish().unwrap_err(), RewriteError::NotInsertable(base));
        let mut rw = Rewriter::new(&p);
        rw.bypass(base);
        assert_eq!(rw.finish().unwrap_err(), RewriteError::NotInsertable(base));
        let mut rw = Rewriter::new(&p);
        rw.insert_before(0xDEAD, vec![Instruction::Lda { rd: Reg::T0, base: Reg::ZERO, disp: 0 }]);
        assert_eq!(rw.finish().unwrap_err(), RewriteError::NoSuchInstruction(0xDEAD));
    }

    #[test]
    fn empty_rewrite_is_identity() {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::T0).call("f").halt();
        b.routine("f").def(Reg::V0).ret();
        let p = b.build().unwrap();
        let (q, changed) = Rewriter::new(&p).finish().unwrap();
        assert_eq!(q, p);
        assert!(changed.is_empty());
    }
}
