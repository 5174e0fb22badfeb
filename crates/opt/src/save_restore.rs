//! Callee-saved register reallocation (Figure 1(d)).
//!
//! A routine that uses callee-saved register `Rs` must save and restore it.
//! If the summaries prove some caller-saved register `Rt` is (a) untouched
//! by every call the routine makes (not call-killed) and (b) dead across
//! every call *to* the routine (not live at any of its exits), the value
//! can live in `Rt` instead: rename `Rs → Rt` throughout the body and
//! delete the save and restores. As a degenerate case, a save/restore of a
//! register the body never touches is deleted outright.

use spike_core::RegisterFacts;
use spike_isa::{Instruction, Reg, RegSet};
use spike_program::{Program, RoutineId};

/// One reallocation decision for a routine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Realloc {
    pub routine: RoutineId,
    /// The callee-saved register freed.
    pub saved: Reg,
    /// The caller-saved register now holding the value, or `None` when the
    /// save/restore pair was simply dead (no body accesses).
    pub replacement: Option<Reg>,
    /// Save/restore instructions to delete.
    pub delete: Vec<u32>,
    /// Register renames to apply: `(addr, new instruction)`.
    pub rename: Vec<(u32, Instruction)>,
}

/// Rewrites every register field of `insn` equal to `from` into `to`.
fn rename_insn(insn: &Instruction, from: Reg, to: Reg) -> Instruction {
    let m = |r: Reg| if r == from { to } else { r };
    match *insn {
        Instruction::Operate { op, ra, rb, rc } => {
            Instruction::Operate { op, ra: m(ra), rb: m(rb), rc: m(rc) }
        }
        Instruction::OperateImm { op, ra, imm, rc } => {
            Instruction::OperateImm { op, ra: m(ra), imm, rc: m(rc) }
        }
        Instruction::Lda { rd, base, disp } => Instruction::Lda { rd: m(rd), base: m(base), disp },
        Instruction::Ldah { rd, base, disp } => {
            Instruction::Ldah { rd: m(rd), base: m(base), disp }
        }
        Instruction::Load { width, rd, base, disp } => {
            Instruction::Load { width, rd: m(rd), base: m(base), disp }
        }
        Instruction::Store { width, rs, base, disp } => {
            Instruction::Store { width, rs: m(rs), base: m(base), disp }
        }
        Instruction::FpOperate { op, fa, fb, fc } => {
            Instruction::FpOperate { op, fa: m(fa), fb: m(fb), fc: m(fc) }
        }
        Instruction::CondBranch { cond, ra, disp } => {
            Instruction::CondBranch { cond, ra: m(ra), disp }
        }
        Instruction::Jmp { base } => Instruction::Jmp { base: m(base) },
        Instruction::Jsr { base } => Instruction::Jsr { base: m(base) },
        Instruction::Ret { base } => Instruction::Ret { base: m(base) },
        other @ (Instruction::Br { .. }
        | Instruction::Bsr { .. }
        | Instruction::Halt
        | Instruction::PutInt) => other,
    }
}

/// The save/restore instructions for `reg` in routine `rid`: the prologue
/// store and the per-exit reloads, as found by the same structural rules
/// the §3.4 detector uses.
fn save_restore_sites(
    program: &Program,
    facts: RegisterFacts<'_>,
    rid: RoutineId,
    reg: Reg,
) -> Option<Vec<u32>> {
    let cfg = facts.cfg.routine_cfg(rid);
    let routine = program.routine(rid);
    let mut sites = Vec::new();

    for &entry in cfg.entries() {
        let block = cfg.block(entry);
        let mut found = false;
        for addr in block.start()..block.end() {
            if let Instruction::Store { rs, base: Reg::SP, .. } =
                routine.insn_at(addr).expect("address in routine")
            {
                if *rs == reg {
                    sites.push(addr);
                    found = true;
                    break;
                }
            }
        }
        if !found {
            return None;
        }
    }
    for &exit in cfg.exits() {
        let block = cfg.block(exit);
        let mut found = false;
        for addr in block.start()..block.end() {
            if let Instruction::Load { rd, base: Reg::SP, .. } =
                routine.insn_at(addr).expect("address in routine")
            {
                if *rd == reg {
                    sites.push(addr);
                    found = true;
                    break;
                }
            }
        }
        if !found {
            return None;
        }
    }
    Some(sites)
}

/// Whether some path from an entrance reaches a body use of `reg` before
/// a body definition of it (`sites` — the save/restore instructions — are
/// ignored). Such a use reads the caller's value.
fn body_reads_before_write(
    program: &Program,
    facts: RegisterFacts<'_>,
    rid: RoutineId,
    reg: Reg,
    sites: &[u32],
) -> bool {
    let cfg = facts.cfg.routine_cfg(rid);
    let routine = program.routine(rid);
    let n = cfg.blocks().len();
    let mut seen = vec![false; n];
    let mut stack: Vec<spike_cfg::BlockId> = cfg.entries().to_vec();
    while let Some(b) = stack.pop() {
        if std::mem::replace(&mut seen[b.index()], true) {
            continue;
        }
        let block = cfg.block(b);
        let mut defined = false;
        for addr in block.start()..block.end() {
            if sites.contains(&addr) {
                continue;
            }
            let insn = routine.insn_at(addr).expect("address in routine");
            if insn.uses().contains(reg) {
                return true;
            }
            if insn.defs().contains(reg) {
                defined = true;
                break;
            }
        }
        if !defined {
            // Flow successors: control also continues at a call's return
            // point.
            stack.extend_from_slice(cfg.flow().succs(b));
        }
    }
    false
}

pub(crate) fn find_reallocs(program: &Program, facts: RegisterFacts<'_>) -> Vec<Realloc> {
    let std = facts.summary.calling_standard();
    let mut out = Vec::new();

    // Replacement registers are claimed *program-wide*: every rename adds
    // kills (and cross-call live ranges) of its replacement that the
    // pre-pass summaries do not know about, so no two decisions in one
    // pass may involve the same replacement register.
    let mut claimed = RegSet::EMPTY;

    for (rid, routine) in program.iter() {
        let summary = facts.summary.routine(rid);
        if summary.saved_restored.is_empty() {
            continue;
        }
        // Two registers of the same routine may be renamed in one pass and
        // can share instructions (e.g. `subq s0, s1, v0`); renames compose
        // through this map so a later rename starts from the earlier one's
        // result instead of the original instruction.
        let mut pending: std::collections::BTreeMap<u32, Instruction> =
            std::collections::BTreeMap::new();
        let cfg = facts.cfg.routine_cfg(rid);

        // Union of call-killed and call-used over every call the routine
        // makes, and of every register the body references.
        let mut killed_by_calls = RegSet::EMPTY;
        let mut used_by_calls = RegSet::EMPTY;
        for b in cfg.call_blocks() {
            if let Some(cs) = facts.summary.call_site(facts.cfg, rid, b) {
                killed_by_calls |= cs.killed;
                used_by_calls |= cs.used;
            }
            killed_by_calls.insert(Reg::RA); // every call defines ra
        }
        let mut referenced = RegSet::EMPTY;
        for insn in routine.insns() {
            referenced |= insn.uses() | insn.defs();
        }
        let live_out_all = summary.live_at_exit.iter().fold(RegSet::EMPTY, |a, &s| a | s);

        for s in summary.saved_restored.iter() {
            let Some(sites) = save_restore_sites(program, facts, rid, s) else {
                continue;
            };
            if sites.iter().any(|a| program.relocations().contains_key(a)) {
                continue;
            }

            // Body accesses = all accesses minus the save/restore sites.
            let body_accesses: Vec<u32> = (routine.addr()..routine.end_addr())
                .filter(|addr| {
                    if sites.contains(addr) {
                        return false;
                    }
                    let i = routine.insn_at(*addr).expect("address in routine");
                    i.uses().contains(s) || i.defs().contains(s)
                })
                .collect();

            if body_accesses.is_empty() {
                // Degenerate Figure 1(d): the save/restore pair is dead.
                out.push(Realloc {
                    routine: rid,
                    saved: s,
                    replacement: None,
                    delete: sites,
                    rename: Vec::new(),
                });
                continue;
            }

            // If some path can *read* s before the body writes it, the
            // value read is the caller's and cannot move to another
            // register. Likewise, a callee that genuinely reads s from its
            // caller would stop seeing this routine's writes.
            if body_reads_before_write(program, facts, rid, s, &sites) || used_by_calls.contains(s)
            {
                continue;
            }

            // A caller-saved home for the value: untouched and unread by
            // the routine's calls, unreferenced in its body, dead at every
            // exit, and not already claimed anywhere in this pass.
            let candidate = std.temporary().iter().find(|&t| {
                !t.is_fp()
                    && !killed_by_calls.contains(t)
                    && !used_by_calls.contains(t)
                    && !referenced.contains(t)
                    && !live_out_all.contains(t)
                    && !claimed.contains(t)
            });
            let Some(t) = candidate else {
                continue;
            };
            claimed.insert(t);

            let rename: Vec<(u32, Instruction)> = body_accesses
                .iter()
                .map(|&addr| {
                    let original = routine.insn_at(addr).expect("address in routine");
                    let base = pending.get(&addr).copied().unwrap_or(*original);
                    let renamed = rename_insn(&base, s, t);
                    pending.insert(addr, renamed);
                    (addr, renamed)
                })
                .collect();
            out.push(Realloc {
                routine: rid,
                saved: s,
                replacement: Some(t),
                delete: sites,
                rename,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spike_core::analyze;
    use spike_isa::AluOp;
    use spike_program::ProgramBuilder;

    /// Figure 1(d): the value held in s0 can live in a temporary the call
    /// does not kill; the save/restore disappears.
    #[test]
    fn reallocates_callee_saved_to_quiet_temp() {
        let mut b = ProgramBuilder::new();
        b.routine("main").call("f").halt();
        b.routine("f")
            .lda(Reg::SP, Reg::SP, -16)
            .store(Reg::RA, Reg::SP, 8)
            .store(Reg::S0, Reg::SP, 0)
            .def(Reg::S0)
            .call("quiet")
            .use_reg(Reg::S0)
            .load(Reg::S0, Reg::SP, 0)
            .load(Reg::RA, Reg::SP, 8)
            .lda(Reg::SP, Reg::SP, 16)
            .ret();
        b.routine("quiet").def(Reg::V0).ret(); // kills only v0 (+ra at the call)
        let p = b.build().unwrap();
        let r = find_reallocs(&p, analyze(&p).registers());
        assert_eq!(r.len(), 1);
        let f = p.routine_by_name("f").unwrap();
        assert_eq!(r[0].routine, f);
        assert_eq!(r[0].saved, Reg::S0);
        let t = r[0].replacement.expect("found a home");
        assert!(analyze(&p).summary.calling_standard().temporary().contains(t));
        assert_eq!(r[0].delete.len(), 2); // store + one reload
        assert_eq!(r[0].rename.len(), 2); // def + use
    }

    /// If every temporary is killed by a call in the routine, s0 stays.
    #[test]
    fn no_home_means_no_change() {
        let mut b = ProgramBuilder::new();
        b.routine("main").call("f").halt();
        b.routine("f")
            .lda(Reg::SP, Reg::SP, -16)
            .store(Reg::RA, Reg::SP, 8)
            .store(Reg::S0, Reg::SP, 0)
            .def(Reg::S0)
            .lda(Reg::PV, Reg::ZERO, 1)
            .jsr_unknown(Reg::PV) // kills all temporaries
            .use_reg(Reg::S0)
            .load(Reg::S0, Reg::SP, 0)
            .load(Reg::RA, Reg::SP, 8)
            .lda(Reg::SP, Reg::SP, 16)
            .ret();
        let p = b.build().unwrap();
        let r = find_reallocs(&p, analyze(&p).registers());
        assert!(r.is_empty(), "{r:?}");
    }

    /// A save/restore with no body accesses is dead outright.
    #[test]
    fn dead_save_restore_is_deleted() {
        let mut b = ProgramBuilder::new();
        b.routine("main").call("f").halt();
        b.routine("f")
            .lda(Reg::SP, Reg::SP, -16)
            .store(Reg::S0, Reg::SP, 0)
            .op(AluOp::Add, Reg::A0, Reg::A0, Reg::V0)
            .load(Reg::S0, Reg::SP, 0)
            .lda(Reg::SP, Reg::SP, 16)
            .ret();
        let p = b.build().unwrap();
        let r = find_reallocs(&p, analyze(&p).registers());
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].replacement, None);
        assert_eq!(r[0].delete.len(), 2);
        assert!(r[0].rename.is_empty());
    }

    #[test]
    fn rename_rewrites_every_field() {
        let i = Instruction::Operate { op: AluOp::Add, ra: Reg::S0, rb: Reg::S0, rc: Reg::S0 };
        assert_eq!(
            rename_insn(&i, Reg::S0, Reg::T0),
            Instruction::Operate { op: AluOp::Add, ra: Reg::T0, rb: Reg::T0, rc: Reg::T0 }
        );
        let st = Instruction::Store {
            width: spike_isa::MemWidth::Q,
            rs: Reg::S0,
            base: Reg::SP,
            disp: 4,
        };
        assert_eq!(
            rename_insn(&st, Reg::S0, Reg::T1),
            Instruction::Store {
                width: spike_isa::MemWidth::Q,
                rs: Reg::T1,
                base: Reg::SP,
                disp: 4
            }
        );
    }
}
