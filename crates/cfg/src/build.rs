//! Per-routine CFG construction.

use std::collections::BTreeSet;
use std::fmt;

use spike_isa::{Instruction, RegSet};
use spike_program::{IndirectTargets, Program, RoutineId};

use crate::block::{BasicBlock, BlockId, CallTarget, TermKind};

spike_isa::analysis_struct! {
    /// The control-flow graph of one routine.
    ///
    /// Built by [`RoutineCfg::build`]. Blocks are stored in address order;
    /// block 0 starts at the routine's first instruction. Every block carries
    /// its `DEF` and `UBD` register sets, so the *Initialization* stage of the
    /// paper's pipeline is folded into construction.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub struct RoutineCfg {
        routine: RoutineId,
        base: u32,
        blocks: Vec<BasicBlock>,
        entries: Vec<BlockId>,
        exits: Vec<BlockId>,
        unknown_jumps: Vec<BlockId>,
        halts: Vec<BlockId>,
    }
}

impl RoutineCfg {
    /// Builds the CFG for `id` including the per-block `DEF`/`UBD` sets.
    ///
    /// Equivalent to [`RoutineCfg::build_structure`] followed by
    /// [`RoutineCfg::init_def_ubd`]; the two stages are exposed separately
    /// so the analysis pipeline can time them as the paper's *CFG Build*
    /// and *Initialization* stages (Figure 13).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to `program`.
    pub fn build(program: &Program, id: RoutineId) -> RoutineCfg {
        let mut cfg = RoutineCfg::build_structure(program, id);
        cfg.init_def_ubd(program);
        cfg
    }

    /// Builds the block structure (leaders, arcs, terminators) for `id`,
    /// leaving every block's `DEF`/`UBD` sets empty.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to `program`. `program` is assumed
    /// validated (as [`Program::new`] guarantees), so intra-routine branch
    /// targets and call targets always resolve.
    pub fn build_structure(program: &Program, id: RoutineId) -> RoutineCfg {
        let r = program.routine(id);
        let base = r.addr();
        let n = r.len() as u32;

        // Pass 1: find leaders (offsets where blocks begin).
        let mut leaders: BTreeSet<u32> = BTreeSet::new();
        leaders.insert(0);
        for &e in r.entry_offsets() {
            leaders.insert(e);
        }
        for (i, insn) in r.insns().iter().enumerate() {
            let off = i as u32;
            let after = off + 1;
            match *insn {
                Instruction::CondBranch { disp, .. } | Instruction::Br { disp } => {
                    let target = off.wrapping_add(1).wrapping_add(disp as u32);
                    leaders.insert(target);
                    if after < n {
                        leaders.insert(after);
                    }
                }
                Instruction::Jmp { .. } => {
                    if let Some(table) = program.jump_table(base + off) {
                        for &t in table {
                            leaders.insert(t - base);
                        }
                    }
                    if after < n {
                        leaders.insert(after);
                    }
                }
                Instruction::Bsr { .. }
                | Instruction::Jsr { .. }
                | Instruction::Ret { .. }
                | Instruction::Halt
                    if after < n =>
                {
                    leaders.insert(after);
                }
                _ => {}
            }
        }

        let starts: Vec<u32> = leaders.into_iter().collect();
        let block_of = |off: u32| -> BlockId {
            match starts.binary_search(&off) {
                Ok(i) => BlockId::from_index(i),
                Err(_) => panic!("offset {off} is not a block leader"),
            }
        };

        // Pass 2: build blocks with successors and DEF/UBD.
        let mut blocks = Vec::with_capacity(starts.len());
        let mut exits = Vec::new();
        let mut unknown_jumps = Vec::new();
        let mut halts = Vec::new();

        for (bi, &start) in starts.iter().enumerate() {
            let end = starts.get(bi + 1).copied().unwrap_or(n);
            debug_assert!(end > start, "empty block at offset {start}");

            let last_off = end - 1;
            let last = r.insns()[last_off as usize];
            let next_block = || {
                debug_assert!(end < n, "fall through past routine end");
                block_of(end)
            };

            let mut succs = Vec::new();
            let term = match last {
                Instruction::CondBranch { disp, .. } => {
                    let taken = block_of(last_off.wrapping_add(1).wrapping_add(disp as u32));
                    let fall = next_block();
                    succs.push(fall);
                    if taken != fall {
                        succs.push(taken);
                    }
                    TermKind::CondBranch
                }
                Instruction::Br { disp } => {
                    succs.push(block_of(last_off.wrapping_add(1).wrapping_add(disp as u32)));
                    TermKind::Branch
                }
                Instruction::Jmp { .. } => match program.jump_table(base + last_off) {
                    Some(table) => {
                        for &t in table {
                            let b = block_of(t - base);
                            if !succs.contains(&b) {
                                succs.push(b);
                            }
                        }
                        TermKind::MultiwayJump
                    }
                    None => {
                        unknown_jumps.push(BlockId::from_index(bi));
                        TermKind::UnknownJump
                    }
                },
                Instruction::Bsr { .. } => {
                    let (rid, entry) = program
                        .direct_call_target(base + last_off)
                        .expect("validated program: bsr resolves");
                    TermKind::Call {
                        target: CallTarget::Direct(rid, entry),
                        return_to: (end < n).then(next_block),
                    }
                }
                Instruction::Jsr { .. } => {
                    let target = match program.indirect_call_targets(base + last_off) {
                        IndirectTargets::Unknown => CallTarget::IndirectUnknown,
                        IndirectTargets::Hinted { used, defined, killed } => {
                            CallTarget::IndirectHinted {
                                used: *used,
                                defined: *defined,
                                killed: *killed,
                            }
                        }
                        IndirectTargets::Known(addrs) => CallTarget::IndirectKnown(
                            addrs
                                .iter()
                                .map(|&a| {
                                    program
                                        .entry_at(a)
                                        .expect("validated program: jsr target is an entrance")
                                })
                                .collect(),
                        ),
                    };
                    TermKind::Call { target, return_to: (end < n).then(next_block) }
                }
                Instruction::Ret { .. } => {
                    exits.push(BlockId::from_index(bi));
                    TermKind::Ret
                }
                Instruction::Halt => {
                    halts.push(BlockId::from_index(bi));
                    TermKind::Halt
                }
                _ => {
                    succs.push(next_block());
                    TermKind::FallThrough
                }
            };

            blocks.push(BasicBlock {
                start: base + start,
                len: end - start,
                succs,
                preds: Vec::new(),
                def: RegSet::new(),
                ubd: RegSet::new(),
                term,
            });
        }

        // Pass 3: predecessor lists.
        for bi in 0..blocks.len() {
            let succs = blocks[bi].succs.clone();
            for s in succs {
                blocks[s.index()].preds.push(BlockId::from_index(bi));
            }
        }

        let entries = r.entry_offsets().iter().map(|&o| block_of(o)).collect();

        RoutineCfg { routine: id, base, blocks, entries, exits, unknown_jumps, halts }
    }

    /// Computes every block's `DEF` (registers defined) and `UBD`
    /// (used-before-defined) sets by scanning its instructions — the
    /// paper's *Initialization* stage. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `program` is not the program this CFG was built from.
    pub fn init_def_ubd(&mut self, program: &Program) {
        let r = program.routine(self.routine);
        assert_eq!(r.addr(), self.base, "CFG/program mismatch");
        for b in &mut self.blocks {
            let mut def = RegSet::new();
            let mut ubd = RegSet::new();
            for off in b.start..b.end() {
                let insn = r.insn_at(off).expect("block address in routine");
                ubd |= insn.uses() - def;
                def |= insn.defs();
            }
            b.def = def;
            b.ubd = ubd;
        }
    }

    /// Moves the CFG to a routine base address of `new_base`, shifting
    /// every block's start address by the same amount.
    ///
    /// Post-link rewriting slides routines up or down without touching
    /// their instructions; a CFG whose routine only moved (no deletions or
    /// replacements inside it) stays structurally identical — block
    /// boundaries, arcs, terminators, and `DEF`/`UBD` sets are all
    /// expressed routine-relatively — so rebasing is all that is needed to
    /// reuse it against the rewritten program.
    pub fn rebase(&mut self, new_base: u32) {
        let delta = new_base.wrapping_sub(self.base);
        if delta == 0 {
            return;
        }
        self.base = new_base;
        for b in &mut self.blocks {
            b.start = b.start.wrapping_add(delta);
        }
    }

    /// The routine this CFG describes.
    #[inline]
    pub fn routine(&self) -> RoutineId {
        self.routine
    }

    /// Word address of the routine's first instruction.
    #[inline]
    pub fn base(&self) -> u32 {
        self.base
    }

    /// All basic blocks in address order.
    #[inline]
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// The block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// Entry blocks, parallel to the routine's
    /// [`entry_offsets`](spike_program::Routine::entry_offsets).
    #[inline]
    pub fn entries(&self) -> &[BlockId] {
        &self.entries
    }

    /// Exit blocks (those ending in `ret`), in address order.
    #[inline]
    pub fn exits(&self) -> &[BlockId] {
        &self.exits
    }

    /// Blocks ending in an indirect jump with no recovered table (§3.5).
    #[inline]
    pub fn unknown_jumps(&self) -> &[BlockId] {
        &self.unknown_jumps
    }

    /// Blocks ending in `halt`.
    #[inline]
    pub fn halts(&self) -> &[BlockId] {
        &self.halts
    }

    /// The block containing word address `addr`, if any.
    pub fn block_containing(&self, addr: u32) -> Option<BlockId> {
        let idx = match self.blocks.binary_search_by_key(&addr, |b| b.start) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        let b = &self.blocks[idx];
        (addr < b.end()).then(|| BlockId::from_index(idx))
    }

    /// Blocks ending in calls, in address order.
    pub fn call_blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.blocks
            .iter()
            .enumerate()
            .filter(|(_, b)| b.is_call_block())
            .map(|(i, _)| BlockId::from_index(i))
    }

    /// Number of call-terminated blocks.
    pub fn call_count(&self) -> usize {
        self.blocks.iter().filter(|b| b.is_call_block()).count()
    }

    /// Number of branch instructions: conditional, unconditional and
    /// multiway (the statistic of Table 3).
    pub fn branch_count(&self) -> usize {
        self.blocks
            .iter()
            .filter(|b| {
                matches!(
                    b.term,
                    TermKind::CondBranch
                        | TermKind::Branch
                        | TermKind::MultiwayJump
                        | TermKind::UnknownJump
                )
            })
            .count()
    }

    /// Number of multiway (jump-table) branches.
    pub fn multiway_count(&self) -> usize {
        self.blocks.iter().filter(|b| matches!(b.term, TermKind::MultiwayJump)).count()
    }

    /// Number of intraprocedural arcs (sum of successor-list lengths).
    pub fn arc_count(&self) -> usize {
        self.blocks.iter().map(|b| b.succs.len()).sum()
    }
}

impl fmt::Display for RoutineCfg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "cfg of {} ({} blocks):", self.routine, self.blocks.len())?;
        for (i, b) in self.blocks.iter().enumerate() {
            writeln!(
                f,
                "  B{i} [{:#x}..{:#x}) def={} ubd={} -> {:?} {:?}",
                b.start,
                b.end(),
                b.def,
                b.ubd,
                b.succs,
                b.term
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spike_isa::{AluOp, BranchCond, Reg};
    use spike_program::ProgramBuilder;

    fn cfg_of(b: &ProgramBuilder, name: &str) -> (Program, RoutineCfg) {
        let p = b.build().unwrap();
        let id = p.routine_by_name(name).unwrap();
        let cfg = RoutineCfg::build(&p, id);
        (p, cfg)
    }

    #[test]
    fn straight_line_routine_is_one_block() {
        let mut b = ProgramBuilder::new();
        b.routine("f").def(Reg::T0).def(Reg::T1).ret();
        let (_, cfg) = cfg_of(&b, "f");
        assert_eq!(cfg.blocks().len(), 1);
        assert_eq!(cfg.exits(), &[BlockId::from_index(0)]);
        assert_eq!(cfg.blocks()[0].def(), RegSet::of(&[Reg::T0, Reg::T1]));
        // `ret` reads the return-address register.
        assert_eq!(cfg.blocks()[0].ubd(), RegSet::of(&[Reg::RA]));
    }

    #[test]
    fn calls_end_blocks() {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::A0).call("f").use_reg(Reg::V0).halt();
        b.routine("f").def(Reg::V0).ret();
        let (p, cfg) = cfg_of(&b, "main");
        assert_eq!(cfg.blocks().len(), 2);
        let b0 = &cfg.blocks()[0];
        assert!(b0.is_call_block());
        // Call blocks have no intraprocedural successors...
        assert!(b0.succs().is_empty());
        // ...but record their return point.
        let f = p.routine_by_name("f").unwrap();
        match b0.term() {
            TermKind::Call { target: CallTarget::Direct(rid, 0), return_to } => {
                assert_eq!(*rid, f);
                assert_eq!(*return_to, Some(BlockId::from_index(1)));
            }
            other => panic!("unexpected terminator {other:?}"),
        }
        // The call instruction's own RA definition lands in the block DEF.
        assert!(b0.def().contains(Reg::RA));
        assert!(b0.def().contains(Reg::A0));
    }

    #[test]
    fn diamond_from_conditional_branch() {
        let mut b = ProgramBuilder::new();
        b.routine("f")
            .cond(BranchCond::Eq, Reg::A0, "else") // B0
            .def(Reg::T0) // B1 (then)
            .br("join")
            .label("else")
            .def(Reg::T1) // B2
            .label("join")
            .ret(); // B3
        let (_, cfg) = cfg_of(&b, "f");
        assert_eq!(cfg.blocks().len(), 4);
        let b0 = &cfg.blocks()[0];
        assert_eq!(b0.succs().len(), 2);
        assert!(matches!(b0.term(), TermKind::CondBranch));
        assert_eq!(cfg.blocks()[1].succs(), &[BlockId::from_index(3)]);
        assert_eq!(cfg.blocks()[2].succs(), &[BlockId::from_index(3)]);
        let preds = cfg.blocks()[3].preds();
        assert_eq!(preds.len(), 2);
        assert_eq!(cfg.branch_count(), 2); // cond + br
        assert_eq!(cfg.arc_count(), 4);
    }

    #[test]
    fn self_loop() {
        let mut b = ProgramBuilder::new();
        b.routine("f")
            .label("top")
            .op_imm(AluOp::Sub, Reg::A0, 1, Reg::A0)
            .cond(BranchCond::Ne, Reg::A0, "top")
            .ret();
        let (_, cfg) = cfg_of(&b, "f");
        assert_eq!(cfg.blocks().len(), 2);
        let b0 = &cfg.blocks()[0];
        assert!(b0.succs().contains(&BlockId::from_index(0)));
        assert!(b0.succs().contains(&BlockId::from_index(1)));
        assert!(b0.preds().contains(&BlockId::from_index(0)));
    }

    #[test]
    fn multiway_jump_with_table() {
        let mut b = ProgramBuilder::new();
        b.routine("f")
            .switch(Reg::T0, &["c0", "c1", "c2"])
            .label("c0")
            .br("end")
            .label("c1")
            .br("end")
            .label("c2")
            .def(Reg::T1)
            .label("end")
            .ret();
        let (_, cfg) = cfg_of(&b, "f");
        let b0 = &cfg.blocks()[0];
        assert!(matches!(b0.term(), TermKind::MultiwayJump));
        assert_eq!(b0.succs().len(), 3);
        assert_eq!(cfg.multiway_count(), 1);
        // UBD of the switch block includes the index register.
        assert!(b0.ubd().contains(Reg::T0));
    }

    #[test]
    fn unknown_jump_has_no_successors() {
        // Hand-assemble: jmp without a table.
        let mut b = ProgramBuilder::new();
        b.routine("f").insn(Instruction::Jmp { base: Reg::T0 }).def(Reg::T1).ret();
        let (_, cfg) = cfg_of(&b, "f");
        let b0 = &cfg.blocks()[0];
        assert!(matches!(b0.term(), TermKind::UnknownJump));
        assert!(b0.succs().is_empty());
        assert_eq!(cfg.unknown_jumps(), &[BlockId::from_index(0)]);
    }

    #[test]
    fn alternate_entries_become_entry_blocks() {
        let mut b = ProgramBuilder::new();
        b.routine("f").def(Reg::T0).label("alt").alt_entry("alt").def(Reg::T1).ret();
        let (_, cfg) = cfg_of(&b, "f");
        assert_eq!(cfg.entries().len(), 2);
        assert_eq!(cfg.entries()[0], BlockId::from_index(0));
        assert_eq!(cfg.entries()[1], BlockId::from_index(1));
        // The entry split also forces a fall-through edge.
        assert_eq!(cfg.blocks()[0].succs(), &[BlockId::from_index(1)]);
        assert!(matches!(cfg.blocks()[0].term(), TermKind::FallThrough));
    }

    #[test]
    fn ubd_tracks_order_within_block() {
        // use after def in the same block: not UBD.
        let mut b = ProgramBuilder::new();
        b.routine("f").def(Reg::T0).op(AluOp::Add, Reg::T0, Reg::A0, Reg::T1).ret();
        let (_, cfg) = cfg_of(&b, "f");
        let blk = &cfg.blocks()[0];
        assert!(!blk.ubd().contains(Reg::T0));
        assert!(blk.ubd().contains(Reg::A0));
        assert!(blk.ubd().contains(Reg::RA)); // used by ret
        assert_eq!(blk.def(), RegSet::of(&[Reg::T0, Reg::T1]));
    }

    #[test]
    fn block_containing_resolves_addresses() {
        let mut b = ProgramBuilder::new();
        b.routine("f").def(Reg::T0).call("g").def(Reg::T1).ret();
        b.routine("g").ret();
        let (p, cfg) = cfg_of(&b, "f");
        let base = p.routines()[0].addr();
        assert_eq!(cfg.block_containing(base), Some(BlockId::from_index(0)));
        assert_eq!(cfg.block_containing(base + 1), Some(BlockId::from_index(0)));
        assert_eq!(cfg.block_containing(base + 2), Some(BlockId::from_index(1)));
        assert_eq!(cfg.block_containing(base + 4), None);
        assert_eq!(cfg.block_containing(base.wrapping_sub(1)), None);
    }

    #[test]
    fn rebase_shifts_block_addresses_only() {
        let mut b = ProgramBuilder::new();
        b.routine("f")
            .cond(BranchCond::Eq, Reg::A0, "else")
            .def(Reg::T0)
            .br("join")
            .label("else")
            .def(Reg::T1)
            .label("join")
            .ret();
        let (_, cfg) = cfg_of(&b, "f");
        let mut moved = cfg.clone();
        let new_base = cfg.base() + 17;
        moved.rebase(new_base);
        assert_eq!(moved.base(), new_base);
        for (a, b) in cfg.blocks().iter().zip(moved.blocks()) {
            assert_eq!(b.start(), a.start() + 17);
            assert_eq!(b.len(), a.len());
            assert_eq!(b.succs(), a.succs());
            assert_eq!(b.preds(), a.preds());
            assert_eq!(b.def(), a.def());
            assert_eq!(b.ubd(), a.ubd());
            assert_eq!(b.term(), a.term());
        }
        // Address lookups follow the shift.
        assert_eq!(moved.block_containing(cfg.base()), None);
        assert_eq!(moved.block_containing(new_base), Some(BlockId::from_index(0)));
        // Rebasing back restores the original exactly.
        moved.rebase(cfg.base());
        assert_eq!(moved, cfg);
    }

    #[test]
    fn halt_blocks_are_recorded() {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::V0).halt();
        let (_, cfg) = cfg_of(&b, "main");
        assert_eq!(cfg.halts().len(), 1);
        assert!(cfg.exits().is_empty());
    }
}
