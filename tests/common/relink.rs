//! The reference relinker: `Rewriter::finish` as it was before the flat
//! address tables, kept (on the public `spike::program` API only) as the
//! oracle the production relinker is property-tested against.
//!
//! It keeps the old→new address maps as ordered maps with one entry per
//! instruction and decides the changed set by comparing instruction
//! words, so it also reports routines in which a call displacement or a
//! relocated immediate was merely relinked; [`EditBatch::edited_routines`]
//! is the set the production relinker promises instead.

use std::collections::{BTreeMap, BTreeSet};

use spike::isa::Instruction;
use spike::program::{
    IndirectTargets, Program, RewriteError, Rewriter, Routine, RoutineId, BASE_ADDR,
};

/// One batch of rewriter edits, applicable to both relinkers.
#[derive(Clone, Debug, Default)]
pub struct EditBatch {
    pub deleted: BTreeSet<u32>,
    pub replaced: BTreeMap<u32, Instruction>,
    pub inserted: BTreeMap<u32, Vec<Instruction>>,
    pub bypassed: BTreeSet<u32>,
}

impl EditBatch {
    /// Runs the batch through the production [`Rewriter`].
    pub fn finish(&self, program: &Program) -> Result<(Program, Vec<RoutineId>), RewriteError> {
        let mut rw = Rewriter::new(program);
        for &a in &self.deleted {
            rw.delete(a);
        }
        for (&a, &i) in &self.replaced {
            rw.replace(a, i);
        }
        for (&a, ins) in &self.inserted {
            rw.insert_before(a, ins.clone());
        }
        for &a in &self.bypassed {
            rw.bypass(a);
        }
        rw.finish()
    }

    /// The routines holding at least one edit of the batch, in id order.
    pub fn edited_routines(&self, program: &Program) -> Vec<RoutineId> {
        let addrs = self
            .deleted
            .iter()
            .chain(self.replaced.keys())
            .chain(self.inserted.keys())
            .chain(&self.bypassed);
        let set: BTreeSet<RoutineId> =
            addrs.filter_map(|&a| program.routine_containing(a)).collect();
        set.into_iter().collect()
    }

    /// The reference relinker. Returns the rewritten program and the
    /// routines whose instruction *words* differ from `p`'s.
    pub fn finish_reference(&self, p: &Program) -> Result<(Program, Vec<RoutineId>), RewriteError> {
        // Validate deletions.
        for &addr in &self.deleted {
            let Some(insn) = p.insn_at(addr) else {
                return Err(RewriteError::NoSuchInstruction(addr));
            };
            if insn.is_terminator() || p.relocations().contains_key(&addr) {
                return Err(RewriteError::NotDeletable(addr));
            }
        }
        // Validate replacements: control flow must be untouched.
        for (&addr, new) in &self.replaced {
            let Some(old) = p.insn_at(addr) else {
                return Err(RewriteError::NoSuchInstruction(addr));
            };
            if self.deleted.contains(&addr) {
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
            if !same_flow || p.relocations().contains_key(&addr) {
                return Err(RewriteError::NotDeletable(addr));
            }
        }
        // Validate insertions and bypasses.
        for (&addr, ins) in &self.inserted {
            if p.insn_at(addr).is_none() {
                return Err(RewriteError::NoSuchInstruction(addr));
            }
            if ins.iter().any(|i| i.is_terminator()) {
                return Err(RewriteError::NotInsertable(addr));
            }
        }
        for &addr in &self.bypassed {
            match p.insn_at(addr) {
                None => return Err(RewriteError::NoSuchInstruction(addr)),
                Some(Instruction::Br { .. } | Instruction::CondBranch { .. }) => {}
                Some(_) => return Err(RewriteError::NotInsertable(addr)),
            }
        }

        // Pass 1: assign new addresses. `fwd` maps every old address to
        // the new address of the first emitted instruction at or after
        // it (within its routine); `skip` maps each insertion address to
        // the new address of the original instruction (or its surviving
        // successor), which is where bypassing branches land.
        let mut fwd: BTreeMap<u32, u32> = BTreeMap::new();
        let mut skip: BTreeMap<u32, u32> = BTreeMap::new();
        let mut next = BASE_ADDR;
        for r in p.routines() {
            let new_base = next;
            let mut pending: Vec<u32> = Vec::new();
            let mut pending_skip: Vec<u32> = Vec::new();
            for old in r.addr()..r.end_addr() {
                let inserted = self.inserted.get(&old);
                if inserted.is_some() || !self.deleted.contains(&old) {
                    for d in pending.drain(..) {
                        fwd.insert(d, next);
                    }
                    for s in pending_skip.drain(..) {
                        skip.insert(s, next);
                    }
                }
                if let Some(ins) = inserted {
                    fwd.insert(old, next);
                    next += ins.len() as u32;
                    if self.deleted.contains(&old) {
                        pending_skip.push(old);
                    } else {
                        skip.insert(old, next);
                        next += 1;
                    }
                } else if self.deleted.contains(&old) {
                    pending.push(old);
                } else {
                    fwd.insert(old, next);
                    next += 1;
                }
            }
            assert!(
                pending.is_empty() && pending_skip.is_empty(),
                "routine cannot end with deleted instructions"
            );
            if next == new_base {
                return Err(RewriteError::EmptyRoutine(r.name().to_string()));
            }
        }
        let map = |old: u32| -> u32 { fwd[&old] };

        // Pass 2: rebuild routines with recomputed displacements.
        let mut routines = Vec::with_capacity(p.routines().len());
        let mut relocations = BTreeMap::new();
        let mut changed = Vec::new();
        let map_branch = |branch: u32, target: u32| -> u32 {
            if self.bypassed.contains(&branch) {
                if let Some(&s) = skip.get(&target) {
                    return s;
                }
            }
            fwd[&target]
        };
        let rel = |target: u32, new_addr: u32| target as i64 as i32 - (new_addr as i32 + 1);
        for (ri, r) in p.routines().iter().enumerate() {
            let mut insns = Vec::with_capacity(r.len());
            for old in r.addr()..r.end_addr() {
                if let Some(ins) = self.inserted.get(&old) {
                    insns.extend(ins.iter().copied());
                }
                if self.deleted.contains(&old) {
                    continue;
                }
                let new_addr = skip.get(&old).copied().unwrap_or_else(|| map(old));
                let insn = self
                    .replaced
                    .get(&old)
                    .copied()
                    .unwrap_or_else(|| *r.insn_at(old).expect("address in routine"));
                let target_of = |disp: i32| old.wrapping_add(1).wrapping_add(disp as u32);
                let relinked = match insn {
                    Instruction::Br { disp } => {
                        Instruction::Br { disp: rel(map_branch(old, target_of(disp)), new_addr) }
                    }
                    Instruction::Bsr { disp } => {
                        Instruction::Bsr { disp: rel(map(target_of(disp)), new_addr) }
                    }
                    Instruction::CondBranch { cond, ra, disp } => Instruction::CondBranch {
                        cond,
                        ra,
                        disp: rel(map_branch(old, target_of(disp)), new_addr),
                    },
                    Instruction::Lda { rd, base, .. } if p.relocations().contains_key(&old) => {
                        let target = map(p.relocations()[&old]);
                        relocations.insert(new_addr, target);
                        Instruction::Lda {
                            rd,
                            base,
                            disp: i16::try_from(target)
                                .map_err(|_| RewriteError::RelocationOverflow { addr: old })?,
                        }
                    }
                    other => other,
                };
                insns.push(relinked);
            }
            if insns.len() != r.len() || insns.iter().ne(r.insns().iter()) {
                changed.push(RoutineId::from_index(ri));
            }
            let entry_offsets: Vec<u32> = r.entry_addrs().map(|a| map(a) - map(r.addr())).collect();
            routines.push(Routine::new(
                r.name(),
                map(r.addr()),
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
                    IndirectTargets::Known(list) => {
                        IndirectTargets::Known(list.iter().map(|&a| map(a)).collect())
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
