//! The routine-local *flow* graph: block successors plus the
//! call → return-point arcs the CFG itself omits.
//!
//! [`crate::TermKind::Call`] deliberately has no successor: paths from a
//! call to its return point exist only through the callee, which is what
//! the PSG models. Every routine-local consumer that treats a call as an
//! opaque step — the must-defined and stack-slot solvers, the lint
//! reachability checks, execution-order dominators and loops — needs the
//! arc back, so [`RoutineCfg::flow_arcs`] builds the relation once, in
//! compressed-sparse-row form, together with its inverse and the
//! traversal orders the worklist solvers rank blocks by.

use crate::block::{BlockId, TermKind};
use crate::build::RoutineCfg;
use crate::csr::Csr;

/// The inverse of `rel`, by a counting sort over its items; each row
/// lists its sources in ascending block order.
fn inverse(rel: &Csr<BlockId>) -> Csr<BlockId> {
    let n = rel.rows();
    let mut offsets = vec![0u32; n + 1];
    for t in &rel.items {
        offsets[t.index() + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut next = offsets.clone();
    let mut items = vec![BlockId::from_index(0); rel.items.len()];
    for b in 0..n {
        for t in rel.row(b) {
            items[next[t.index()] as usize] = BlockId::from_index(b);
            next[t.index()] += 1;
        }
    }
    Csr { offsets, items }
}

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

/// The flow arcs of one routine and their inverse; see the module docs.
#[derive(Clone, Debug)]
pub struct FlowArcs {
    succs: Csr<BlockId>,
    /// The inverse relation; each row lists its sources in ascending
    /// block order.
    preds: Csr<BlockId>,
}

impl FlowArcs {
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
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        self.succs.row(b.index())
    }

    /// The blocks control can arrive at `b` from, ascending.
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        self.preds.row(b.index())
    }

    /// Blocks reachable from `roots` along flow arcs.
    pub fn reachable_from(&self, roots: &[BlockId]) -> Vec<bool> {
        reachable_from(&self.succs, roots)
    }

    /// Blocks from which some block of `roots` is reachable.
    pub fn reaching(&self, roots: &[BlockId]) -> Vec<bool> {
        reachable_from(&self.preds, roots)
    }

    /// Reverse-postorder ranks of a depth-first search from `roots`
    /// along flow arcs — the priority order for forward solvers. Blocks
    /// the search does not reach get the tail ranks, in block order.
    pub fn rpo_ranks(&self, roots: &[BlockId]) -> Vec<u32> {
        rpo_ranks(&self.succs, roots)
    }

    /// [`FlowArcs::rpo_ranks`] over the inverse relation — the priority
    /// order for backward solvers, rooted at the blocks flow ends in.
    pub fn rpo_ranks_backward(&self, roots: &[BlockId]) -> Vec<u32> {
        rpo_ranks(&self.preds, roots)
    }
}

impl RoutineCfg {
    /// Builds the routine's flow arcs.
    pub fn flow_arcs(&self) -> FlowArcs {
        let mut offsets = Vec::with_capacity(self.blocks().len() + 1);
        let mut items = Vec::with_capacity(self.arc_count() + self.call_count());
        offsets.push(0);
        for block in self.blocks() {
            if let TermKind::Call { return_to: Some(rt), .. } = block.term() {
                items.push(*rt);
            }
            items.extend_from_slice(block.succs());
            offsets.push(items.len() as u32);
        }
        let succs = Csr { offsets, items };
        let preds = inverse(&succs);
        FlowArcs { succs, preds }
    }
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
        let arcs = cfg.flow_arcs();
        assert_eq!(arcs.len(), 4);
        assert!(cfg.block(BlockId::from_index(1)).succs().is_empty());
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
        let arcs = cfg.flow_arcs();
        let fwd = arcs.rpo_ranks(cfg.entries());
        assert_eq!(fwd[0], 0);
        assert!(fwd[1] < fwd[2] && fwd[2] < fwd[3]);
        let bwd = arcs.rpo_ranks_backward(cfg.exits());
        assert_eq!(bwd[3], 0);
        assert!(bwd[2] < bwd[1] && bwd[2] < bwd[0]);
        let mut sorted = bwd.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        // No roots: every block is "unreached" and ranked in block order.
        assert_eq!(arcs.rpo_ranks(&[]), vec![0, 1, 2, 3]);
    }

    #[test]
    fn reachability_runs_both_ways() {
        let mut b = ProgramBuilder::new();
        b.routine("main").br("end").def(Reg::T0).label("end").call("f").halt();
        b.routine("f").ret();
        let p = b.build().expect("valid program");
        let cfg = RoutineCfg::build(&p, p.routine_by_name("main").expect("main exists"));
        let arcs = cfg.flow_arcs();
        // B0 br, B1 dead def, B2 call, B3 halt.
        assert_eq!(arcs.reachable_from(cfg.entries()), vec![true, false, true, true]);
        assert_eq!(arcs.reaching(&ids(&[3])), vec![true, true, true, true]);
        assert_eq!(arcs.reaching(&ids(&[0])), vec![true, false, false, false]);
    }
}
