//! The stack layer's phases A and B as plain iterations, kept as the
//! oracle the tests compare the production solver against.
//!
//! Phase A: every round re-scans every member's instructions and
//! re-composes its summary from them and the callees' current
//! summaries, until no member's summary changes. It shares no code with
//! [`super::Digest`] or `Solver::phase_a`.
//!
//! Phase B: both slot dataflows as round-robin sweeps over the blocks in
//! index order, from the same block masks the production solver builds,
//! until a sweep changes nothing. They walk the CFG's successors and
//! call → return arcs themselves and keep no worklist, so they share no
//! code with the production fixpoints.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use super::*;

/// Everything the per-routine scan learns before the dataflows run.
struct LocalScan {
    tracked: bool,
    escaped: bool,
    balanced: bool,
    has_unknown_call: bool,
    /// Some tracked access addresses an offset at or above the entry SP.
    touches_callers: bool,
    frame_size: i64,
    slots: Vec<Slot>,
    sp_disp_in: Vec<Option<i64>>,
}

fn local_scan(
    program: &Program,
    pcfg: &ProgramCfg,
    rid: RoutineId,
    summaries: &[StackSummary],
) -> LocalScan {
    let routine = program.routine(rid);
    let cfg = pcfg.routine_cfg(rid);
    let nb = cfg.blocks().len();

    // Pass 1: per-block SP delta, running minimum, and escape flags.
    let mut delta = vec![0i64; nb];
    let mut min_rel = vec![0i64; nb];
    let mut leaked = false;
    let mut tracked = true;
    let mut has_unknown_call = false;
    for (bi, block) in cfg.blocks().iter().enumerate() {
        let mut rel = 0i64;
        for addr in block.start()..block.end() {
            let insn = routine.insn_at(addr).expect("address in routine");
            match sp_effect(insn) {
                SpEffect::Adjust(d) => {
                    rel += d;
                    min_rel[bi] = min_rel[bi].min(rel);
                }
                SpEffect::Untracked => tracked = false,
                SpEffect::Leak => leaked = true,
                SpEffect::Neutral => {}
            }
        }
        delta[bi] = rel;
        if let TermKind::Call { target, .. } = block.term() {
            // An unbalanced callee clobbers the caller's displacement:
            // viral loss of tracking. Unknown-target calls are assumed
            // balanced (the calling standard) but make us opaque.
            match target {
                CallTarget::Direct(c, _) => {
                    if summaries[c.index()].unbalanced {
                        tracked = false;
                    }
                }
                CallTarget::IndirectKnown(list) => {
                    for (c, _) in list {
                        if summaries[c.index()].unbalanced {
                            tracked = false;
                        }
                    }
                }
                CallTarget::IndirectUnknown | CallTarget::IndirectHinted { .. } => {
                    has_unknown_call = true;
                }
            }
        }
    }

    // Pass 2: propagate entry-relative displacements over flow arcs
    // (successors plus the call → return-point arc the CFG omits). A
    // disagreement at a join loses tracking for the whole routine.
    let mut sp_disp_in: Vec<Option<i64>> = vec![None; nb];
    if tracked {
        let mut conflict = false;
        let mut stack: Vec<BlockId> = Vec::new();
        for &e in cfg.entries() {
            if sp_disp_in[e.index()].is_none() {
                sp_disp_in[e.index()] = Some(0);
                stack.push(e);
            }
        }
        while let Some(b) = stack.pop() {
            let bi = b.index();
            let d_out = sp_disp_in[bi].expect("queued blocks have a displacement") + delta[bi];
            let block = cfg.block(b);
            let mut flow = |s: BlockId| match sp_disp_in[s.index()] {
                None => {
                    sp_disp_in[s.index()] = Some(d_out);
                    stack.push(s);
                }
                Some(v) if v == d_out => {}
                Some(_) => conflict = true,
            };
            for &s in cfg.succs(b) {
                flow(s);
            }
            if let TermKind::Call { return_to: Some(rt), .. } = block.term() {
                flow(*rt);
            }
            if conflict {
                break;
            }
        }
        if conflict {
            tracked = false;
            sp_disp_in.fill(None);
        }
    }

    // Slot discovery, frame size, and exit balance over tracked blocks.
    let mut width_conflict = false;
    let mut slot_map: BTreeMap<i64, MemWidth> = BTreeMap::new();
    let mut min_disp = 0i64;
    // Balance defaults to the calling-standard assumption; only a
    // tracked path into a `Ret` can refute it.
    let mut balanced = true;
    let mut touches_callers = false;
    if tracked {
        for (bi, block) in cfg.blocks().iter().enumerate() {
            let Some(d0) = sp_disp_in[bi] else { continue };
            min_disp = min_disp.min(d0 + min_rel[bi]);
            let mut rel = d0;
            for addr in block.start()..block.end() {
                let insn = routine.insn_at(addr).expect("address in routine");
                if let Some((_, width, disp)) = sp_access(insn) {
                    touches_callers |= rel + disp as i64 >= 0;
                    match slot_map.entry(rel + disp as i64) {
                        Entry::Vacant(v) => {
                            v.insert(width);
                        }
                        Entry::Occupied(o) => {
                            if *o.get() != width {
                                width_conflict = true;
                            }
                        }
                    }
                } else if let SpEffect::Adjust(d) = sp_effect(insn) {
                    rel += d;
                }
            }
            if matches!(block.term(), TermKind::Ret) && rel != 0 {
                balanced = false;
            }
        }
    }

    let slots: Vec<Slot> =
        slot_map.iter().map(|(&entry_off, &width)| Slot { entry_off, width }).collect();
    LocalScan {
        tracked,
        escaped: leaked || !tracked || width_conflict,
        balanced,
        has_unknown_call,
        touches_callers,
        frame_size: (-min_disp).max(0),
        slots,
        sp_disp_in,
    }
}

/// The summary of `rid`: what its own scan says, ORed with the current
/// summary of every routine a call of it may target.
fn compose_summary(
    pcfg: &ProgramCfg,
    rid: RoutineId,
    local: &LocalScan,
    summaries: &[StackSummary],
) -> StackSummary {
    let mut unbalanced = !local.balanced;
    let mut opaque = local.escaped || local.has_unknown_call || local.touches_callers;
    for block in pcfg.routine_cfg(rid).blocks() {
        let TermKind::Call { target, .. } = block.term() else { continue };
        let mut add = |c: RoutineId| {
            unbalanced |= summaries[c.index()].unbalanced;
            opaque |= summaries[c.index()].opaque;
        };
        match target {
            CallTarget::Direct(c, _) => add(*c),
            CallTarget::IndirectKnown(list) => {
                for &(c, _) in list {
                    add(c);
                }
            }
            CallTarget::IndirectUnknown | CallTarget::IndirectHinted { .. } => {}
        }
    }
    StackSummary { unbalanced, opaque: opaque || unbalanced }
}

/// The iterate-everything phase A over one component. Returns the
/// members' scans under the converged summaries.
fn phase_a(
    program: &Program,
    pcfg: &ProgramCfg,
    component: &[RoutineId],
    summaries: &mut [StackSummary],
) -> Vec<LocalScan> {
    for &rid in component {
        summaries[rid.index()] = StackSummary::default();
    }
    loop {
        let mut locals: Vec<LocalScan> = Vec::with_capacity(component.len());
        let mut changed = false;
        for &rid in component {
            let local = local_scan(program, pcfg, rid, summaries);
            let s = compose_summary(pcfg, rid, &local, summaries);
            if s != summaries[rid.index()] {
                summaries[rid.index()] = s;
                changed = true;
            }
            locals.push(local);
        }
        if !changed {
            return locals;
        }
    }
}

/// The greatest fixpoint of the forward MUST-defined slot dataflow and
/// the least fixpoint of the backward MAY-live one over `cfg`, by
/// round-robin sweeps: per block, the slots defined at entry and the
/// slots live at exit.
fn sweep_phase_b(
    cfg: &RoutineCfg,
    masks: &[BlockMasks],
    slots: &[Slot],
) -> (Vec<SlotSet>, Vec<SlotSet>) {
    let nb = cfg.blocks().len();
    let n = slots.len();
    let (empty, full) = (SlotSet::empty(n), SlotSet::full(n));
    let succs: Vec<Vec<BlockId>> = (0..nb)
        .map(|bi| {
            let b = BlockId::from_index(bi);
            let mut s = cfg.succs(b).to_vec();
            if let TermKind::Call { return_to: Some(rt), .. } = cfg.block(b).term() {
                s.push(*rt);
            }
            s
        })
        .collect();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); nb];
    for (bi, ss) in succs.iter().enumerate() {
        for s in ss {
            preds[s.index()].push(bi);
        }
    }

    // Forward, from ⊤: nothing is defined at an entrance.
    let mut must_in = vec![full.clone(); nb];
    loop {
        let mut changed = false;
        for bi in 0..nb {
            let mut acc = if cfg.entries().contains(&BlockId::from_index(bi)) {
                empty.clone()
            } else {
                full.clone()
            };
            for &p in &preds[bi] {
                let mut out = must_in[p].clone();
                out.subtract(&masks[p].clear);
                out.union_with(&masks[p].gen);
                acc.intersect_with(&out);
            }
            if acc != must_in[bi] {
                must_in[bi] = acc;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Backward, from ∅: a return leaves the slots at or above the entry
    // SP live for the caller, an unknown jump every slot.
    let mut above = empty.clone();
    for (i, slot) in slots.iter().enumerate() {
        if slot.entry_off >= 0 {
            above.insert(i);
        }
    }
    let mut live_in = vec![empty.clone(); nb];
    let mut live_out = vec![empty.clone(); nb];
    loop {
        let mut changed = false;
        for bi in 0..nb {
            let mut out = match cfg.blocks()[bi].term() {
                _ if !succs[bi].is_empty() => empty.clone(),
                TermKind::Ret => above.clone(),
                TermKind::UnknownJump => full.clone(),
                _ => empty.clone(),
            };
            for s in &succs[bi] {
                out.union_with(&live_in[s.index()]);
            }
            let mut entry = out.clone();
            entry.subtract(&masks[bi].def);
            entry.union_with(&masks[bi].used);
            live_out[bi] = out;
            if entry != live_in[bi] {
                live_in[bi] = entry;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    (must_in, live_out)
}

/// [`analyze_stack`] with the reference phase A in place of the
/// production one. Also checks, member by member, that the frame the
/// digest yields under the converged summaries is the one the
/// instruction re-scan finds, that the digest's own verdict is what
/// the re-scan says of a member no callee untracks, and that the
/// production phase B reaches the fixpoints the round-robin sweeps do.
pub(super) fn analyze_stack_reference(
    program: &Program,
    cfg: &ProgramCfg,
) -> (StackAnalysis, StackStats) {
    let cg = CallGraph::build(program, cfg);
    let sccs = cg.sccs();
    let mut solver = Solver::new(program, cfg, &cg);
    for component in sccs.bottom_up() {
        let digests = solver.scan(component);
        let locals = phase_a(program, cfg, component, &mut solver.summaries);
        for ((local, digest), &rid) in locals.iter().zip(&digests).zip(component) {
            let callee_unbalanced =
                cg.callees(rid).iter().any(|c| solver.summaries[c.index()].unbalanced);
            let frame = digest.frame_under(callee_unbalanced);
            assert_eq!(local.tracked, frame.is_some());
            assert_eq!(local.escaped, digest.escaped(frame));
            assert_eq!(local.balanced, frame.is_none_or(|f| f.balanced));
            assert_eq!(local.frame_size, frame.map_or(0, |f| f.frame_size));
            assert_eq!(local.slots, frame.map_or(Vec::new(), |f| f.slots.clone()));
            let nb = cfg.routine_cfg(rid).blocks().len();
            assert_eq!(local.sp_disp_in, frame.map_or(vec![None; nb], |f| f.sp_disp_in.clone()));
            if !callee_unbalanced {
                let own =
                    compose_summary(cfg, rid, local, &vec![StackSummary::default(); cg.len()]);
                assert_eq!(digest.own, own);
            }
        }
        for ((local, digest), &rid) in locals.iter().zip(&digests).zip(component) {
            let solved = solver.phase_b(rid, digest);
            let rcfg = cfg.routine_cfg(rid);
            let nb = rcfg.blocks().len();
            let (must, live) = if local.escaped {
                let empty = SlotSet::empty(local.slots.len());
                (vec![empty.clone(); nb], vec![empty; nb])
            } else {
                let masks: Vec<BlockMasks> = rcfg
                    .blocks()
                    .iter()
                    .enumerate()
                    .map(|(bi, block)| {
                        build_masks(
                            digest.events(bi),
                            block.term(),
                            local.sp_disp_in[bi],
                            &local.slots,
                            |c| solver.summaries[c.index()].opaque,
                        )
                    })
                    .collect();
                sweep_phase_b(rcfg, &masks, &local.slots)
            };
            assert_eq!(solved.must_defined_in, must, "must-defined slots of {rid:?}");
            assert_eq!(solved.live_out, live, "live slots of {rid:?}");
            solver.routines[rid.index()] = Some(Arc::new(solved));
        }
    }
    solver.finish()
}
