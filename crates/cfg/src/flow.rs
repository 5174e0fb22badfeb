//! The routine-local *flow* table: CFG successors plus the
//! call → return-point arcs the CFG convention omits.
//!
//! [`crate::TermKind::Call`] deliberately has no CFG successor: paths from
//! a call to its return point exist only through the callee, which is
//! what the PSG models. Every routine-local consumer that treats a call as
//! an opaque step — the must-defined and stack-slot solvers, the lint
//! reachability checks, execution-order dominators and loops — needs the
//! arc back. [`crate::RoutineCfg::build_structure`] builds the relation once per
//! routine, in compressed-sparse-row form, together with its inverse and
//! the forward reverse-postorder rank the worklist solvers order blocks
//! by. Every consumer borrows it through [`crate::RoutineCfg::flow`];
//! [`crate::RoutineCfg::succs`] is the CFG view over the same table.

use crate::block::BlockId;
#[cfg(test)]
use crate::block::TermKind;
#[cfg(test)]
use crate::build::RoutineCfg;
use crate::csr::Csr;

/// Blocks reachable from `roots` along `rel`.
fn reachable_from(rel: &Csr<BlockId>, roots: &[BlockId]) -> Vec<bool> {
    let mut seen = vec![false; rel.rows()];
    let mut stack: Vec<BlockId> = Vec::new();
    for &r in roots {
        if !std::mem::replace(&mut seen[r.index()], true) {
            stack.push(r);
        }
    }
    while let Some(b) = stack.pop() {
        for &s in rel.row(b.index()) {
            if !std::mem::replace(&mut seen[s.index()], true) {
                stack.push(s);
            }
        }
    }
    seen
}

/// Reverse-postorder ranks of a depth-first search from `roots` along
/// `rel`; unreached blocks get the tail ranks, in block order.
fn rpo_ranks(rel: &Csr<BlockId>, roots: &[BlockId]) -> Vec<u32> {
    let n = rel.rows();
    let mut rank = vec![u32::MAX; n];
    let mut seen = vec![false; n];
    let mut postorder: Vec<BlockId> = Vec::with_capacity(n);
    let mut dfs: Vec<(BlockId, u32)> = Vec::new();
    for &r in roots {
        if std::mem::replace(&mut seen[r.index()], true) {
            continue;
        }
        dfs.push((r, 0));
        while let Some(frame) = dfs.last_mut() {
            let (x, k) = (frame.0, frame.1 as usize);
            if let Some(&y) = rel.row(x.index()).get(k) {
                frame.1 += 1;
                if !std::mem::replace(&mut seen[y.index()], true) {
                    dfs.push((y, 0));
                }
            } else {
                dfs.pop();
                postorder.push(x);
            }
        }
    }
    let mut next = 0u32;
    for x in postorder.iter().rev() {
        rank[x.index()] = next;
        next += 1;
    }
    for r in rank.iter_mut().filter(|r| **r == u32::MAX) {
        *r = next;
        next += 1;
    }
    rank
}

spike_isa::analysis_struct! {
    /// The flow arcs of one routine, their inverse and the forward rank;
    /// see the module docs.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub struct FlowArcs {
        succs: Csr<BlockId>,
        /// The inverse relation; each row lists its sources in ascending
        /// block order.
        preds: Csr<BlockId>,
        /// Reverse-postorder rank from the entrances.
        rank: Vec<u32>,
    }
}

impl FlowArcs {
    /// Completes a table from its successor rows: the inverse by one
    /// counting sort, and the forward ranks from `entries`.
    pub(crate) fn new(succs: Csr<BlockId>, entries: &[BlockId]) -> FlowArcs {
        let preds = Csr::from_pairs(
            succs.rows(),
            (0..succs.rows()).flat_map(|b| {
                succs.row(b).iter().map(move |s| (s.index(), BlockId::from_index(b)))
            }),
        );
        let rank = rpo_ranks(&succs, entries);
        FlowArcs { succs, preds, rank }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.succs.rows()
    }

    /// Whether the routine has no blocks (never true once built).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The blocks control can reach next from `b`: its CFG successors,
    /// or the return point for a returning call.
    #[inline]
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        self.succs.row(b.index())
    }

    /// The blocks control can arrive at `b` from, ascending.
    #[inline]
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        self.preds.row(b.index())
    }

    /// Reverse-postorder rank of every block along flow arcs from the
    /// routine's entrances — the priority order for forward solvers.
    /// Blocks no entrance reaches get the tail ranks, in block order.
    #[inline]
    pub fn rank(&self) -> &[u32] {
        &self.rank
    }

    /// Blocks reachable from `roots` along flow arcs.
    pub fn reachable_from(&self, roots: &[BlockId]) -> Vec<bool> {
        reachable_from(&self.succs, roots)
    }

    /// Blocks from which some block of `roots` is reachable.
    pub fn reaching(&self, roots: &[BlockId]) -> Vec<bool> {
        reachable_from(&self.preds, roots)
    }

    /// Reverse-postorder ranks of a depth-first search from `roots` over
    /// the inverse relation — the priority order for backward solvers,
    /// rooted at the blocks flow ends in. Blocks the search does not
    /// reach get the tail ranks, in block order.
    pub fn rpo_ranks_backward(&self, roots: &[BlockId]) -> Vec<u32> {
        rpo_ranks(&self.preds, roots)
    }
}

/// The flow table as the CFG once derived it from per-block successor
/// lists: each block's return point (for a returning call) then its CFG
/// successors, the inverse by a counting sort, and ranks from the
/// entrances. The equivalence tests compare `RoutineCfg::flow` against
/// it.
#[cfg(test)]
pub(crate) fn reference_flow(cfg: &RoutineCfg, cfg_succs: &[Vec<BlockId>]) -> FlowArcs {
    let mut offsets = vec![0u32];
    let mut items = Vec::new();
    for (block, succs) in cfg.blocks().iter().zip(cfg_succs) {
        if let TermKind::Call { return_to: Some(rt), .. } = block.term() {
            items.push(*rt);
        }
        items.extend_from_slice(succs);
        offsets.push(items.len() as u32);
    }
    let succs = Csr { offsets, items };
    let n = succs.rows();
    let mut offsets = vec![0u32; n + 1];
    for t in &succs.items {
        offsets[t.index() + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut next = offsets.clone();
    let mut items = vec![BlockId::from_index(0); succs.items.len()];
    for b in 0..n {
        for t in succs.row(b) {
            items[next[t.index()] as usize] = BlockId::from_index(b);
            next[t.index()] += 1;
        }
    }
    let preds = Csr { offsets, items };
    let rank = rpo_ranks(&succs, cfg.entries());
    FlowArcs { succs, preds, rank }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spike_isa::{BranchCond, Reg};
    use spike_program::ProgramBuilder;

    fn ids(v: &[usize]) -> Vec<BlockId> {
        v.iter().map(|&i| BlockId::from_index(i)).collect()
    }

    /// B0 `cond → B2`, B1 `call f` (returns to B2), B2 `cond → B0`, B3 `ret`.
    fn looped_call() -> RoutineCfg {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .label("top")
            .cond(BranchCond::Eq, Reg::A0, "after")
            .call("f")
            .label("after")
            .cond(BranchCond::Ne, Reg::A1, "top")
            .ret();
        b.routine("f").ret();
        let p = b.build().expect("valid program");
        RoutineCfg::build(&p, p.routine_by_name("main").expect("main exists"))
    }

    #[test]
    fn call_blocks_flow_to_their_return_point() {
        let cfg = looped_call();
        let arcs = cfg.flow();
        assert_eq!(arcs.len(), 4);
        assert!(cfg.succs(BlockId::from_index(1)).is_empty());
        assert_eq!(arcs.succs(BlockId::from_index(1)), ids(&[2]));
        assert_eq!(arcs.preds(BlockId::from_index(2)), ids(&[0, 1]));
        assert_eq!(arcs.preds(BlockId::from_index(0)), ids(&[2]));
        for b in 0..4 {
            let b = BlockId::from_index(b);
            for &s in arcs.succs(b) {
                assert!(arcs.preds(s).contains(&b), "inverse holds {b} -> {s}");
            }
        }
    }

    #[test]
    fn ranks_order_flow_before_readers_and_number_every_block() {
        let cfg = looped_call();
        let arcs = cfg.flow();
        let fwd = arcs.rank();
        assert_eq!(fwd[0], 0);
        assert!(fwd[1] < fwd[2] && fwd[2] < fwd[3]);
        let bwd = arcs.rpo_ranks_backward(cfg.exits());
        assert_eq!(bwd[3], 0);
        assert!(bwd[2] < bwd[1] && bwd[2] < bwd[0]);
        let mut sorted = bwd.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        // No roots: every block is "unreached" and ranked in block order.
        assert_eq!(arcs.rpo_ranks_backward(&[]), vec![0, 1, 2, 3]);
    }

    #[test]
    fn reachability_runs_both_ways() {
        let mut b = ProgramBuilder::new();
        b.routine("main").br("end").def(Reg::T0).label("end").call("f").halt();
        b.routine("f").ret();
        let p = b.build().expect("valid program");
        let cfg = RoutineCfg::build(&p, p.routine_by_name("main").expect("main exists"));
        let arcs = cfg.flow();
        // B0 br, B1 dead def, B2 call, B3 halt.
        assert_eq!(arcs.reachable_from(cfg.entries()), vec![true, false, true, true]);
        assert_eq!(arcs.reaching(&ids(&[3])), vec![true, true, true, true]);
        assert_eq!(arcs.reaching(&ids(&[0])), vec![true, false, false, false]);
    }
}
