//! The must-defined solver as it was before it became change-driven:
//! a global loop that re-solves *every* in-scope routine from ⊤ — and
//! rebuilds its arc lists, ranks and call-defined table — on every
//! sweep, then re-meets every entrance from its boundary value, until
//! no entrance moves. Kept as the oracle the tests compare
//! [`super::compute_scoped`] against; it shares nothing with the
//! production solver but the boundary assumptions.

use spike_cfg::{BlockId, CallTarget, ProgramCfg, TermKind};
use spike_core::worklist::PriorityWorklist;
use spike_core::ProgramSummary;
use spike_isa::RegSet;
use spike_program::{Program, RoutineId};

use super::{exported_entry_defined, program_entry_defined, MustDefined};

/// `call-defined` for each call block of `rid` (empty for non-call
/// blocks), i.e. the registers the callee must write before returning.
fn call_defined_per_block(
    cfg: &ProgramCfg,
    summary: &ProgramSummary,
    rid: RoutineId,
) -> Vec<RegSet> {
    let nb = cfg.routine_cfg(rid).blocks().len();
    (0..nb)
        .map(|i| {
            summary
                .call_site(cfg, rid, BlockId::from_index(i))
                .map_or(RegSet::EMPTY, |cs| cs.defined)
        })
        .collect()
}

/// One intra-routine forward pass to a local fixpoint, given the current
/// entrance values. Resets and refills `block_in[rid]`.
///
/// Driven by a [`PriorityWorklist`] in reverse postorder over the
/// definedness arcs (fall-through/branch successors plus the
/// call→return-point arc the CFG itself omits): most blocks see their
/// final predecessor facts on the first evaluation, and a change only
/// re-queues the blocks that actually read it. The fixpoint of the
/// monotone meet system is unique, so the result is identical to the
/// round-robin sweep this replaces.
fn intra(
    pcfg: &ProgramCfg,
    summary: &ProgramSummary,
    rid: RoutineId,
    entry: &[Vec<RegSet>],
    block_in: &mut [RegSet],
) {
    let cfg = pcfg.routine_cfg(rid);
    let nb = cfg.blocks().len();

    // The CFG has no call → return-point successor edges; definedness
    // flows through the callee, entering as `block out ∪ call-defined`.
    // `fwd` is the full reader relation, `call_ret` its call-arc inverse.
    let mut call_ret: Vec<Vec<BlockId>> = vec![Vec::new(); nb];
    let mut fwd: Vec<Vec<u32>> = vec![Vec::new(); nb];
    for (i, readers) in fwd.iter_mut().enumerate() {
        let block = cfg.block(BlockId::from_index(i));
        if let TermKind::Call { return_to: Some(rt), .. } = block.term() {
            call_ret[rt.index()].push(BlockId::from_index(i));
            readers.push(rt.index() as u32);
        }
        readers.extend(block.succs().iter().map(|s| s.index() as u32));
    }
    let cs_defined = call_defined_per_block(pcfg, summary, rid);

    let mut constraint = vec![RegSet::ALL; nb];
    for (e, &b) in cfg.entries().iter().enumerate() {
        constraint[b.index()] &= entry[rid.index()][e];
    }

    // Reverse postorder from the entrances; blocks unreachable along
    // definedness arcs still get evaluated, ranked after the rest.
    let mut rank = vec![u32::MAX; nb];
    let mut next = 0u32;
    let mut state = vec![0u8; nb];
    let mut postorder: Vec<u32> = Vec::with_capacity(nb);
    let mut dfs: Vec<(u32, u32)> = Vec::new();
    for &b in cfg.entries() {
        if state[b.index()] != 0 {
            continue;
        }
        state[b.index()] = 1;
        dfs.push((b.index() as u32, 0));
        while let Some(frame) = dfs.last_mut() {
            let (x, k) = (frame.0 as usize, frame.1 as usize);
            if k < fwd[x].len() {
                frame.1 += 1;
                let y = fwd[x][k] as usize;
                if state[y] == 0 {
                    state[y] = 1;
                    dfs.push((y as u32, 0));
                }
            } else {
                dfs.pop();
                postorder.push(x as u32);
            }
        }
    }
    for &x in postorder.iter().rev() {
        rank[x as usize] = next;
        next += 1;
    }
    for r in rank.iter_mut() {
        if *r == u32::MAX {
            *r = next;
            next += 1;
        }
    }

    block_in.fill(RegSet::ALL);
    let mut wl = PriorityWorklist::new(nb);
    for (i, &r) in rank.iter().enumerate() {
        wl.push(i, r);
    }
    while let Some(i) = wl.pop() {
        let block = cfg.block(BlockId::from_index(i));
        let mut acc = constraint[i];
        for &p in block.preds() {
            acc &= block_in[p.index()] | cfg.block(p).def();
        }
        for &c in &call_ret[i] {
            acc &= block_in[c.index()] | cfg.block(c).def() | cs_defined[c.index()];
        }
        if acc != block_in[i] {
            block_in[i] = acc;
            for &s in &fwd[i] {
                wl.push(s as usize, rank[s as usize]);
            }
        }
    }
}

/// Computes the must-defined solution: alternating intra-routine passes
/// with a re-meet of every callee entrance over its resolved call sites,
/// to a global fixpoint. Entrance sets start at their boundary
/// assumptions and only shrink, so termination is immediate from
/// monotonicity.
///
/// With `scope = Some(r)` the fixpoint is restricted to `r`'s transitive
/// *caller closure* — the only routines whose facts can flow into `r`'s
/// entrances. The restriction is exact for every routine in the closure:
/// the closure is caller-closed, so every call edge into a closure
/// routine originates inside it and all of its entrance meets are
/// applied; routines outside the closure simply keep their boundary
/// assumption on both sides of the convergence compare. Equivalently,
/// the restricted system is the projection of the full descending Kleene
/// iteration onto the closure, whose coordinates never read the dropped
/// ones. `block_in` outside the closure is meaningless (never computed)
/// and must not be read.
///
/// Also returns the number of global sweeps made.
pub(super) fn compute_scoped(
    program: &Program,
    cfg: &ProgramCfg,
    summary: &ProgramSummary,
    scope: Option<RoutineId>,
) -> (MustDefined, usize) {
    let std = summary.calling_standard();
    let boundary: Vec<Vec<RegSet>> = program
        .iter()
        .map(|(rid, r)| {
            (0..r.entry_offsets().len())
                .map(|e| {
                    let mut v = RegSet::ALL;
                    if r.exported() {
                        v &= exported_entry_defined(std);
                    }
                    if rid == program.entry() && e == 0 {
                        v &= program_entry_defined();
                    }
                    v
                })
                .collect()
        })
        .collect();

    let mut entry = boundary.clone();
    let mut block_in: Vec<Vec<RegSet>> =
        cfg.cfgs().iter().map(|c| vec![RegSet::ALL; c.blocks().len()]).collect();

    // Callers-first order: entrance facts propagate down call chains in
    // few global passes.
    let callgraph = spike_callgraph::CallGraph::build(program, cfg);
    let mut order: Vec<RoutineId> = callgraph.sccs().bottom_up().concat();
    order.reverse();

    // Restrict the iteration to the target's caller closure.
    let in_scope: Option<Vec<bool>> = scope.map(|target| {
        let mut mask = vec![false; program.routines().len()];
        let mut stack = vec![target];
        mask[target.index()] = true;
        while let Some(r) = stack.pop() {
            for &c in callgraph.callers(r) {
                if !mask[c.index()] {
                    mask[c.index()] = true;
                    stack.push(c);
                }
            }
        }
        mask
    });
    if let Some(mask) = &in_scope {
        order.retain(|r| mask[r.index()]);
    }

    let mut sweeps = 0;
    loop {
        sweeps += 1;
        for &rid in &order {
            intra(cfg, summary, rid, &entry, &mut block_in[rid.index()]);
        }

        // Re-meet every entrance over its call edges. The value flowing
        // into the callee is the caller's definedness *at the moment the
        // callee starts*: block-in plus the caller block's own defs
        // (including `ra` from the call itself), without the callee's
        // effect. Unknown-target calls contribute no edge — their targets
        // keep their boundary assumption.
        let mut next = boundary.clone();
        for (rid, _) in program.iter() {
            if in_scope.as_ref().is_some_and(|m| !m[rid.index()]) {
                continue;
            }
            let rcfg = cfg.routine_cfg(rid);
            for b in rcfg.call_blocks() {
                let block = rcfg.block(b);
                let TermKind::Call { target, .. } = block.term() else { continue };
                let at_entry = block_in[rid.index()][b.index()] | block.def();
                match target {
                    CallTarget::Direct(callee, e) => next[callee.index()][*e] &= at_entry,
                    CallTarget::IndirectKnown(list) => {
                        for &(callee, e) in list {
                            next[callee.index()][e] &= at_entry;
                        }
                    }
                    CallTarget::IndirectUnknown | CallTarget::IndirectHinted { .. } => {}
                }
            }
        }
        if next == entry {
            break;
        }
        entry = next;
    }
    (MustDefined { entry, block_in }, sweeps)
}
