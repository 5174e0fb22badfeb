//! Loop-invariant code motion into synthesized preheaders, guarded by
//! the interprocedural summaries.
//!
//! For every reducible natural loop (detected over the execution-graph
//! dominator tree, so dispatch loops whose iterations call out still
//! count), pure instructions whose operands nothing in the loop can
//! change are moved to a *preheader*: a run of instructions inserted
//! immediately before the header, entered by every edge into the loop
//! and skipped by every back edge (the back-edge branches are re-pointed
//! past the insertion with [`spike_program::Rewriter::bypass`]).
//!
//! What makes the post-link version interesting is, as everywhere in
//! Spike, *which* facts justify the motion:
//!
//! * loads stay hoistable in loops that call out, because the
//!   interprocedural summaries bound what every callee can write: the
//!   register `call-defined`/`call-killed` sets, and the stack layer's
//!   `opaque` bit (a callee that is not opaque writes nothing at or
//!   above its entry SP);
//! * the register-liveness and MUST-defined guards are exactly strong
//!   enough that the shadow oracles cannot tell the difference: a hoisted
//!   instruction never clobbers a live register, never reads a register
//!   the routine has not provably defined on every path to the header,
//!   and an SP-relative load only moves when its slot is MUST-defined at
//!   the header (`spike_core`'s forward slot dataflow).
//!
//! Profitability is weighted by loop depth (static mode) or by measured
//! execution counts when an [`spike_profile::Profile`] of this exact
//! image is supplied: an instruction is then hoisted only when it
//! executed more often than its loop was entered.

use std::collections::{BTreeMap, BTreeSet};

use spike_cfg::{BlockId, DomTree, LoopForest, RoutineCfg, TermKind};
use spike_core::worklist::PriorityWorklist;
use spike_core::{AccessKind, Analysis};
use spike_isa::{Instruction, Reg, RegSet};
use spike_profile::Profile;
use spike_program::{Program, RoutineId};

use crate::liveness::{block_liveness, block_must_defined, must_defined_gen, LivenessScratch};

/// The hoists of one loop: instructions to move (delete at their old
/// address, insert before the header) and the back-edge branches that
/// must skip the insertion.
pub(crate) struct LoopHoist {
    /// First address of the header block — the insertion point.
    pub header_addr: u32,
    /// `(original address, instruction)` in address order.
    pub insns: Vec<(u32, Instruction)>,
    /// Back-edge branch addresses to re-point past the insertion.
    pub bypasses: Vec<u32>,
}

/// Everything the LICM pass wants to do.
#[derive(Default)]
pub(crate) struct Hoists {
    pub loops: Vec<LoopHoist>,
    /// Memory loads hoisted.
    pub loads: usize,
    /// Pure register computations hoisted.
    pub ops: usize,
}

/// The taken target of a branch instruction at `addr`.
fn branch_target(addr: u32, disp: i32) -> u32 {
    (addr as i64 + 1 + disp as i64) as u32
}

/// Forward MUST-defined register sets at each block's entry: registers
/// written on *every* path from the routine's entries, starting from the
/// set the shadow oracle treats as defined at program start (`ra`, `sp`,
/// and the zero registers). Callee effects are applied through the
/// call-summary `defined` (must-write) sets, so definedness flows
/// through calls interprocedurally. An under-approximation: registers
/// the caller defined before entry are not counted.
fn must_defined_in(
    analysis: &Analysis,
    rid: RoutineId,
    cfg: &RoutineCfg,
    wl: &mut PriorityWorklist,
) -> Vec<RegSet> {
    let rank = cfg.flow().rank();
    let n = rank.len();
    let mut start = vec![RegSet::ALL; n];
    for &e in cfg.entries() {
        start[e.index()] = RegSet::of(&[Reg::RA, Reg::SP, Reg::ZERO, Reg::FZERO]);
    }
    let gen = must_defined_gen(&analysis.cfg, &analysis.summary, rid);
    let mut defined_in = vec![RegSet::ALL; n];
    wl.cover(n);
    for (i, &r) in rank.iter().enumerate() {
        wl.push(i, r);
    }
    block_must_defined(cfg, &start, &gen, &mut defined_in, wl);
    defined_in
}

/// What one loop body can touch, accumulated over every block.
struct BodyEffects {
    /// Registers any body instruction or callee may write.
    defs: RegSet,
    /// Registers written by more than one body instruction.
    multi_defs: RegSet,
    /// Registers any callee in the body may write.
    call_defs: RegSet,
    /// The body contains a memory store instruction.
    stores: bool,
    /// The body contains a call block.
    calls: bool,
    /// Every callee in the body provably leaves the caller's stack alone
    /// (not opaque, target known).
    callees_spare_stack: bool,
    /// Every body block has a tracked SP displacement, so the stack
    /// access list covers the whole body.
    sp_tracked: bool,
    /// Frame entry offsets written by body stores.
    stored_offs: BTreeSet<i64>,
}

fn body_effects(
    program: &Program,
    analysis: &Analysis,
    rid: spike_program::RoutineId,
    cfg: &RoutineCfg,
    body: impl Iterator<Item = BlockId>,
    store_offs: &BTreeMap<u32, i64>,
) -> BodyEffects {
    let routine = program.routine(rid);
    let rs = analysis.stack.routine(rid);
    let mut e = BodyEffects {
        defs: RegSet::EMPTY,
        multi_defs: RegSet::EMPTY,
        call_defs: RegSet::EMPTY,
        stores: false,
        calls: false,
        callees_spare_stack: true,
        sp_tracked: !rs.frame.escaped && !rs.summary.unbalanced,
        stored_offs: BTreeSet::new(),
    };
    let mut seen = RegSet::EMPTY;
    for b in body {
        let block = cfg.block(b);
        if rs.frame.escaped || rs.sp_disp_in.get(b.index()).copied().flatten().is_none() {
            e.sp_tracked = false;
        }
        for addr in block.start()..block.end() {
            let insn = routine.insn_at(addr).expect("address in routine");
            if matches!(insn, Instruction::Store { .. }) {
                e.stores = true;
                if let Some(&off) = store_offs.get(&addr) {
                    e.stored_offs.insert(off);
                }
            }
            let defs = insn.defs();
            e.multi_defs |= defs & seen;
            seen |= defs;
            e.defs |= defs;
        }
        if block.is_call_block() {
            e.calls = true;
            let cs =
                analysis.summary.call_site(&analysis.cfg, rid, b).expect("a call block's summary");
            e.defs |= cs.defined | cs.killed;
            e.call_defs |= cs.defined | cs.killed;
            match block.term() {
                TermKind::Call { target: spike_cfg::CallTarget::Direct(callee, _), .. } => {
                    if analysis.stack.routine(*callee).summary.opaque {
                        e.callees_spare_stack = false;
                    }
                }
                TermKind::Call {
                    target: spike_cfg::CallTarget::IndirectKnown(targets), ..
                } => {
                    for &(callee, _) in targets {
                        if analysis.stack.routine(callee).summary.opaque {
                            e.callees_spare_stack = false;
                        }
                    }
                }
                _ => e.callees_spare_stack = false,
            }
        }
    }
    e
}

/// Finds every legal, profitable hoist in `program`. `profile`, when
/// present, must already be verified against this exact image — its
/// counts replace the static "hoist only what runs every iteration"
/// rule with measured execution counts.
pub(crate) fn find_hoists(
    program: &Program,
    analysis: &Analysis,
    profile: Option<&Profile>,
) -> Hoists {
    let mut out = Hoists::default();
    let mut liveness = LivenessScratch::default();
    let mut wl = PriorityWorklist::default();

    for (rid, routine) in program.iter() {
        let cfg = analysis.cfg.routine_cfg(rid);
        let dom = DomTree::dominators(cfg);
        let forest = LoopForest::build(cfg, &dom);
        if forest.loops().is_empty() {
            continue;
        }
        let live = block_liveness(program, analysis.registers(), rid, &mut liveness);
        let must_regs = must_defined_in(analysis, rid, cfg, &mut wl);
        let rs = analysis.stack.routine(rid);
        // Per-address stack facts: entry offset of every store, and
        // (offset, MUST-defined-at-header usable) for every load.
        let accesses = analysis.stack.accesses(program, &analysis.cfg, rid);
        let store_offs: BTreeMap<u32, i64> = accesses
            .iter()
            .filter(|a| a.kind == AccessKind::Store)
            .map(|a| (a.addr, a.entry_off))
            .collect();
        // Per in-frame load: its slot's entry offset and the SP
        // displacement the access runs at.
        let load_offs: BTreeMap<u32, (i64, i64)> = accesses
            .iter()
            .filter(|a| a.kind == AccessKind::Load && a.in_frame)
            .map(|a| (a.addr, (a.entry_off, a.sp_disp)))
            .collect();

        let mut claimed: BTreeSet<u32> = BTreeSet::new();
        // Innermost loops first, so a nested invariant lands in the
        // innermost preheader that wants it.
        let mut order: Vec<usize> = (0..forest.loops().len()).collect();
        order.sort_by_key(|&i| forest.loops()[i].body.count());

        for li in order {
            let l = &forest.loops()[li];
            if l.irreducible || cfg.entries().contains(&l.header) {
                continue;
            }
            let header = l.header;
            let haddr = cfg.block(header).start();

            // Every back edge must be an explicit branch whose taken
            // target is the header — those can be re-pointed past the
            // preheader. A fall-through back edge cannot skip it.
            let mut bypasses: Vec<u32> = Vec::new();
            let mut back_edges_ok = true;
            for &be in &l.back_edges {
                let ta = cfg.block(be).term_addr();
                match routine.insn_at(ta) {
                    Some(&Instruction::Br { disp }) if branch_target(ta, disp) == haddr => {
                        bypasses.push(ta);
                    }
                    Some(&Instruction::CondBranch { disp, .. })
                        if branch_target(ta, disp) == haddr && ta + 1 != haddr =>
                    {
                        bypasses.push(ta);
                    }
                    _ => back_edges_ok = false,
                }
            }
            if !back_edges_ok {
                continue;
            }

            let effects = body_effects(program, analysis, rid, cfg, l.body.iter(), &store_offs);
            let header_live = live.live_in(header);
            let header_must = must_regs[header.index()];
            let header_slots = &rs.must_defined_in[header.index()];

            // Loop-entry count under a profile: times the header ran
            // minus times a back edge re-entered it.
            let entries = profile.map(|p| {
                let back: u64 = bypasses.iter().map(|&ta| p.counts.edge(ta, haddr)).sum();
                p.counts.count_at(haddr).saturating_sub(back)
            });

            let mut insns: Vec<(u32, Instruction)> = Vec::new();
            for b in l.body.iter() {
                let block = cfg.block(b);
                for addr in block.start()..block.end() {
                    if claimed.contains(&addr) {
                        continue;
                    }
                    // Only pure instructions move (stores, control flow
                    // and `put_int` never do); each writes one register,
                    // none when it targets a zero register.
                    let insn = routine.insn_at(addr).expect("address in routine");
                    let pure = insn.is_pure();
                    let Some(dest) = insn.defs().iter().next().filter(|_| pure) else { continue };
                    if program.relocations().contains_key(&addr) {
                        continue;
                    }
                    // The destination: not a register the machine
                    // depends on, written nowhere else in the loop, and
                    // dead at the header (so the early write clobbers
                    // nothing an entry path still needs).
                    if dest == Reg::SP
                        || dest == Reg::RA
                        || header_live.contains(dest)
                        || effects.multi_defs.contains(dest)
                        || effects.call_defs.contains(dest)
                    {
                        continue;
                    }
                    // Operands: nothing in the loop (instruction or
                    // callee) may write them, and every one is
                    // MUST-defined at the header so the preheader read
                    // is a read the shadow oracle already accepts.
                    //
                    // SP is exempt for frame loads taking the SP-facts
                    // path below: framed callees do write SP (it lands in
                    // their call-killed set), but the stack analysis has
                    // proved a fixed SP displacement for every body block,
                    // so SP's *value* at the load is loop-invariant even
                    // though the register is written and restored inside.
                    let uses = insn.uses();
                    let sp_facts = matches!(insn, Instruction::Load { base: Reg::SP, .. })
                        && effects.sp_tracked
                        && effects.callees_spare_stack;
                    let checked = if sp_facts { uses - RegSet::singleton(Reg::SP) } else { uses };
                    if !(checked & effects.defs).is_empty() || !(checked - header_must).is_empty() {
                        continue;
                    }
                    // Loads additionally need the loaded memory
                    // invariant across the loop.
                    if matches!(insn, Instruction::Load { .. }) {
                        if sp_facts {
                            let Some(&(off, at_disp)) = load_offs.get(&addr) else { continue };
                            let Some(slot) = rs.frame.slot_at(off) else { continue };
                            // The hoisted copy runs at the header's SP
                            // displacement; it reads the same slot only if
                            // the load already sat at that displacement.
                            if rs.sp_disp_in[header.index()] != Some(at_disp)
                                || effects.stored_offs.contains(&off)
                                || !header_slots.contains(slot)
                            {
                                continue;
                            }
                        } else if effects.stores || effects.calls {
                            continue;
                        }
                    }
                    // Profitability: measured counts when the profile
                    // actually observed this loop running — an
                    // instruction pays for its preheader copy exactly
                    // when it executed more often than the loop was
                    // entered. Loops the profiling run never reached
                    // (and unprofiled builds) fall back to the static
                    // rule: hoist only what runs on every iteration (it
                    // dominates the back edges), so the preheader copy
                    // can never run more often than the original did.
                    let profitable = match (profile, entries) {
                        (Some(p), Some(entries)) if p.counts.count_at(haddr) > 0 => {
                            p.counts.count_at(addr) > entries
                        }
                        _ => l.back_edges.iter().all(|&be| dom.dominates(b, be)),
                    };
                    if !profitable {
                        continue;
                    }
                    insns.push((addr, *insn));
                }
            }
            if insns.is_empty() {
                continue;
            }
            insns.sort_by_key(|&(addr, _)| addr);
            for &(addr, insn) in &insns {
                claimed.insert(addr);
                if matches!(insn, Instruction::Load { .. }) {
                    out.loads += 1;
                } else {
                    out.ops += 1;
                }
            }
            out.loops.push(LoopHoist { header_addr: haddr, insns, bypasses });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spike_core::analyze;
    use spike_isa::{AluOp, BranchCond};
    use spike_program::ProgramBuilder;

    fn hoists(p: &Program) -> Hoists {
        find_hoists(p, &analyze(p), None)
    }

    /// The round-robin sweep [`must_defined_in`] replaced, kept as its
    /// oracle: its own successor lists, and every instruction re-scanned on
    /// every sweep until no block's entry set moves.
    fn must_defined_in_reference(
        program: &Program,
        analysis: &Analysis,
        rid: spike_program::RoutineId,
        cfg: &RoutineCfg,
    ) -> Vec<RegSet> {
        let routine = program.routine(rid);
        let n = cfg.blocks().len();
        let entry_defined = RegSet::of(&[Reg::RA, Reg::SP, Reg::ZERO, Reg::FZERO]);
        let mut defined_in = vec![RegSet::ALL; n];
        for &e in cfg.entries() {
            defined_in[e.index()] = entry_defined;
        }

        // Execution-graph successors: block arcs plus call→return.
        let mut succs: Vec<Vec<BlockId>> =
            (0..n).map(|b| cfg.succs(BlockId::from_index(b)).to_vec()).collect();
        for (bi, block) in cfg.blocks().iter().enumerate() {
            if let TermKind::Call { return_to: Some(rt), .. } = block.term() {
                succs[bi].push(*rt);
            }
        }

        let mut changed = true;
        while changed {
            changed = false;
            for bi in 0..n {
                let b = BlockId::from_index(bi);
                let block = cfg.block(b);
                let mut out = defined_in[bi];
                for addr in block.start()..block.end() {
                    out |= routine.insn_at(addr).expect("address in routine").defs();
                }
                if block.is_call_block() {
                    let cs = analysis
                        .summary
                        .call_site(&analysis.cfg, rid, b)
                        .unwrap_or_else(|| analysis.summary.unknown_call_summary());
                    out |= cs.defined;
                }
                for &s in &succs[bi] {
                    let met = defined_in[s.index()] & out;
                    if met != defined_in[s.index()] {
                        defined_in[s.index()] = met;
                        changed = true;
                    }
                }
            }
        }
        defined_in
    }

    /// [`must_defined_in`] against the round-robin reference, one
    /// worklist across all routines.
    fn assert_must_defined_matches(p: &Program) {
        let a = analyze(p);
        let mut wl = PriorityWorklist::default();
        for (rid, routine) in p.iter() {
            let cfg = a.cfg.routine_cfg(rid);
            let solved = must_defined_in(&a, rid, cfg, &mut wl);
            let swept = must_defined_in_reference(p, &a, rid, cfg);
            assert_eq!(solved, swept, "{}", routine.name());
        }
    }

    #[test]
    fn must_defined_in_equals_the_round_robin_sweep() {
        for profile in spike_synth::profiles() {
            assert_must_defined_matches(&spike_synth::generate(
                &profile,
                30.0 / profile.routines as f64,
                1,
            ));
        }
        for seed in [1u64, 2, 3, 4] {
            assert_must_defined_matches(&spike_synth::generate_executable(seed, 40));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn must_defined_in_equals_the_round_robin_sweep_on_random_executables(
            seed in proptest::prelude::any::<u64>(),
            size in 1usize..40,
        ) {
            assert_must_defined_matches(&spike_synth::generate_executable(seed, size));
        }
    }

    /// store t0 → slot; loop { load t1 ← slot; use; dec; branch } — the
    /// classic invariant-load shape the synthesizer plants.
    fn invariant_load_loop() -> Program {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .lda(Reg::SP, Reg::SP, -16)
            .lda(Reg::T0, Reg::ZERO, 42)
            .store(Reg::T0, Reg::SP, 8)
            .lda(Reg::A0, Reg::ZERO, 5)
            .label("top")
            .load(Reg::T1, Reg::SP, 8)
            .op(AluOp::Add, Reg::T1, Reg::A0, Reg::V0)
            .op_imm(AluOp::Sub, Reg::A0, 1, Reg::A0)
            .cond(BranchCond::Ne, Reg::A0, "top")
            .put_int()
            .lda(Reg::SP, Reg::SP, 16)
            .halt();
        b.build().unwrap()
    }

    #[test]
    fn invariant_stack_load_is_hoisted() {
        let p = invariant_load_loop();
        let h = hoists(&p);
        assert_eq!(h.loads, 1, "the slot load is invariant");
        assert_eq!(h.loops.len(), 1);
        let lh = &h.loops[0];
        assert_eq!(lh.bypasses.len(), 1);
        assert!(matches!(lh.insns[0].1, Instruction::Load { rd: Reg::T1, .. }));
    }

    #[test]
    fn store_in_loop_blocks_the_load() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .lda(Reg::SP, Reg::SP, -16)
            .lda(Reg::T0, Reg::ZERO, 1)
            .store(Reg::T0, Reg::SP, 8)
            .lda(Reg::A0, Reg::ZERO, 5)
            .label("top")
            .load(Reg::T1, Reg::SP, 8)
            .store(Reg::T1, Reg::SP, 8) // the slot is written each trip
            .op_imm(AluOp::Sub, Reg::A0, 1, Reg::A0)
            .cond(BranchCond::Ne, Reg::A0, "top")
            .lda(Reg::SP, Reg::SP, 16)
            .halt();
        let p = b.build().unwrap();
        assert_eq!(hoists(&p).loads, 0);
    }

    #[test]
    fn operand_defined_in_loop_is_not_invariant() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .lda(Reg::A0, Reg::ZERO, 5)
            .label("top")
            .op_imm(AluOp::Add, Reg::A0, 3, Reg::T1) // uses the counter
            .op_imm(AluOp::Sub, Reg::A0, 1, Reg::A0)
            .cond(BranchCond::Ne, Reg::A0, "top")
            .halt();
        let p = b.build().unwrap();
        assert_eq!(hoists(&p).ops, 0);
    }

    #[test]
    fn pure_op_on_preloop_values_is_hoisted() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .lda(Reg::T0, Reg::ZERO, 7)
            .lda(Reg::A0, Reg::ZERO, 5)
            .label("top")
            .op_imm(AluOp::Add, Reg::T0, 3, Reg::T1) // t0 never changes
            .op_imm(AluOp::Sub, Reg::A0, 1, Reg::A0)
            .cond(BranchCond::Ne, Reg::A0, "top")
            .halt();
        let p = b.build().unwrap();
        let h = hoists(&p);
        assert_eq!(h.ops, 1);
    }

    #[test]
    fn call_in_loop_blocks_only_what_the_callee_touches() {
        // The callee defines v0 (call-defined), so computations reading
        // v0 stay; ones reading an untouched register hoist.
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .lda(Reg::S0, Reg::ZERO, 9)
            .lda(Reg::A0, Reg::ZERO, 5)
            .label("top")
            .call("f")
            .op_imm(AluOp::Add, Reg::S0, 1, Reg::T2) // s0: callee leaves it
            .op_imm(AluOp::Add, Reg::V0, 1, Reg::T3) // v0: callee writes it
            .op_imm(AluOp::Sub, Reg::A0, 1, Reg::A0)
            .cond(BranchCond::Ne, Reg::A0, "top")
            .put_int()
            .halt();
        b.routine("f").lda(Reg::V0, Reg::ZERO, 1).ret();
        let p = b.build().unwrap();
        let h = hoists(&p);
        assert_eq!(h.ops, 1, "only the s0 computation is invariant");
        assert!(matches!(h.loops[0].insns[0].1, Instruction::OperateImm { rc: Reg::T2, .. }));
    }

    #[test]
    fn guarded_instruction_is_not_hoisted_statically() {
        // The invariant computation sits on one side of a branch inside
        // the loop: it does not dominate the back edge, so without a
        // profile the static rule refuses (it may run on no iteration).
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .lda(Reg::T0, Reg::ZERO, 7)
            .lda(Reg::A0, Reg::ZERO, 5)
            .label("top")
            .cond(BranchCond::Eq, Reg::A0, "skip")
            .op_imm(AluOp::Add, Reg::T0, 3, Reg::T1)
            .label("skip")
            .op_imm(AluOp::Sub, Reg::A0, 1, Reg::A0)
            .cond(BranchCond::Ne, Reg::A0, "top")
            .halt();
        let p = b.build().unwrap();
        assert_eq!(hoists(&p).ops, 0);
    }

    #[test]
    fn profile_counts_overrule_the_static_guard() {
        // Same guarded shape, but a measured profile shows the guarded
        // instruction runs every trip — the counts unlock the hoist.
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .lda(Reg::T0, Reg::ZERO, 7)
            .lda(Reg::A0, Reg::ZERO, 5)
            .label("top")
            .cond(BranchCond::Ne, Reg::ZERO, "skip") // never taken
            .op_imm(AluOp::Add, Reg::T0, 3, Reg::T1)
            .label("skip")
            .op_imm(AluOp::Sub, Reg::A0, 1, Reg::A0)
            .cond(BranchCond::Ne, Reg::A0, "top")
            .halt();
        let p = b.build().unwrap();
        let (_, exec) = spike_sim::run_profiled(&p, 100_000);
        let prof = Profile::collect(&p, &exec);
        assert_eq!(find_hoists(&p, &analyze(&p), None).ops, 0);
        assert_eq!(find_hoists(&p, &analyze(&p), Some(&prof)).ops, 1);
    }

    #[test]
    fn frame_load_hoists_out_of_a_call_bearing_loop() {
        // The dispatch shape: a loop that calls a framed, stack-balanced
        // callee each trip and reloads an invariant frame slot. The
        // callee writes SP (it is call-killed), but the proved SP
        // displacements make the slot's address loop-invariant — the
        // interprocedural MOD summary (no mods above the callee's frame)
        // is what licenses the motion.
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .lda(Reg::SP, Reg::SP, -32)
            .store(Reg::RA, Reg::SP, 24)
            .lda(Reg::T0, Reg::ZERO, 42)
            .store(Reg::T0, Reg::SP, 8)
            .lda(Reg::S0, Reg::ZERO, 5)
            .label("top")
            .load(Reg::S1, Reg::SP, 8) // invariant: callee spares our frame
            .call("f")
            .op_imm(AluOp::Sub, Reg::S0, 1, Reg::S0)
            .cond(BranchCond::Ne, Reg::S0, "top")
            .load(Reg::RA, Reg::SP, 24)
            .lda(Reg::SP, Reg::SP, 32)
            .halt();
        b.routine("f")
            .lda(Reg::SP, Reg::SP, -16)
            .store(Reg::S1, Reg::SP, 0)
            .lda(Reg::S1, Reg::ZERO, 9)
            .copy(Reg::S1, Reg::V0)
            .load(Reg::S1, Reg::SP, 0)
            .lda(Reg::SP, Reg::SP, 16)
            .ret();
        let p = b.build().unwrap();
        let h = hoists(&p);
        assert_eq!(h.loads, 1, "the frame load must hoist across the call");
        assert!(matches!(h.loops[0].insns[0].1, Instruction::Load { rd: Reg::S1, .. }));
    }

    #[test]
    fn live_at_header_destination_blocks_the_hoist() {
        // t1 carries a value into the loop that the loop reads before
        // redefining it — writing it in the preheader would clobber it.
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .lda(Reg::T0, Reg::ZERO, 7)
            .lda(Reg::T1, Reg::ZERO, 1)
            .lda(Reg::A0, Reg::ZERO, 5)
            .label("top")
            .op(AluOp::Add, Reg::T1, Reg::A0, Reg::T2) // reads the incoming t1
            .op_imm(AluOp::Add, Reg::T0, 3, Reg::T1) // then redefines it
            .op_imm(AluOp::Sub, Reg::A0, 1, Reg::A0)
            .cond(BranchCond::Ne, Reg::A0, "top")
            .halt();
        let p = b.build().unwrap();
        let h = hoists(&p);
        assert!(
            h.loops.iter().all(|lh| lh.insns.iter().all(|(_, i)| !i.defs().contains(Reg::T1))),
            "the t1 redefinition must stay in the loop"
        );
    }
}
