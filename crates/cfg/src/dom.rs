//! Dominance over a routine's flow table: dominator trees and dominance
//! frontiers — the foundation of the loop-aware optimizations
//! (natural-loop detection in [`crate::loops`], LICM and spill placement
//! in `spike-opt`).
//!
//! The construction is the Cooper–Harvey–Kennedy iterative algorithm
//! ("A Simple, Fast Dominance Algorithm"): immediate dominators by
//! intersection walks over postorder numbers, dominance frontiers from
//! the join points' predecessor runs. Routines may have multiple
//! entrances (alternate entry points, §2 of the paper), so the build runs
//! from a *virtual root* fanning out to the root set; a root's immediate
//! dominator is `None`.
//!
//! A naive iterative reference (`dom[b] = {b} ∪ ⋂ dom[preds(b)]` to a
//! fixpoint over full bit-matrices) lives in the test module and pins the
//! CHK results on handwritten CFGs — irreducible loops, alternate
//! entrances, self-loops — and on every routine of a generated program.

use crate::block::BlockId;
use crate::build::RoutineCfg;

/// A dominator tree plus dominance frontiers for one routine, built by
/// [`DomTree::dominators`].
#[derive(Clone, Debug)]
pub struct DomTree {
    /// Immediate dominator per block; `None` for roots (their parent is
    /// the virtual root) and for blocks unreachable from the root set.
    idom: Vec<Option<BlockId>>,
    /// Reachability from the root set along the direction of the build.
    reachable: Vec<bool>,
    /// Dominance frontier per block, ascending and deduplicated.
    frontiers: Vec<Vec<BlockId>>,
}

impl DomTree {
    /// Builds the dominator tree and frontiers of `cfg` over its
    /// *execution* graph ([`RoutineCfg::flow`]), rooted at its entrance
    /// blocks. Every call block flows to its return point there, modeling
    /// the callee as an opaque straight-line step: the PSG convention
    /// omits these arcs (interprocedural paths run through the callee),
    /// but loop detection and loop-invariant code motion need the
    /// routine-local execution order, where a call-and-return inside a
    /// loop body keeps the body connected. With several entrances, "a
    /// dominates b" means every path from *any* entrance to `b` passes
    /// through `a`.
    pub fn dominators(cfg: &RoutineCfg) -> DomTree {
        let arcs = cfg.flow();
        let blocks = (0..arcs.len()).map(BlockId::from_index);
        let succs: Vec<&[BlockId]> = blocks.clone().map(|b| arcs.succs(b)).collect();
        let preds: Vec<&[BlockId]> = blocks.map(|b| arcs.preds(b)).collect();
        build(cfg.entries(), &succs, &preds)
    }

    /// The immediate dominator of `b`, or `None` when `b` is a root or
    /// unreachable from the root set.
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom[b.index()]
    }

    /// Whether `b` is reachable from the root set.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.reachable[b.index()]
    }

    /// Whether `a` dominates `b` (reflexively). Unreachable blocks are
    /// dominated by nothing and dominate nothing (except themselves).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if a == b {
            return true;
        }
        if !self.reachable[a.index()] || !self.reachable[b.index()] {
            return false;
        }
        let mut x = b;
        while let Some(d) = self.idom[x.index()] {
            if d == a {
                return true;
            }
            x = d;
        }
        false
    }

    /// The dominance frontier of `b`: the blocks where `b`'s dominance
    /// ends — `b` dominates a predecessor of each but does not strictly
    /// dominate the block itself. Join placement for sparse analyses
    /// reads exactly this set.
    pub fn frontier(&self, b: BlockId) -> &[BlockId] {
        &self.frontiers[b.index()]
    }
}

/// The CHK core over an explicit adjacency, with a virtual root (index
/// `n`) fanning out to `roots` so multi-entrance routines need no
/// special cases.
fn build(roots: &[BlockId], succs: &[&[BlockId]], preds: &[&[BlockId]]) -> DomTree {
    let n = succs.len();
    let vroot = n as u32;

    // Postorder numbering by iterative DFS from the virtual root.
    let mut post = vec![u32::MAX; n + 1];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut visited = vec![false; n + 1];
    let mut stack: Vec<(u32, usize)> = vec![(vroot, 0)];
    visited[n] = true;
    let mut next_post = 0u32;
    while let Some(&mut (x, ref mut i)) = stack.last_mut() {
        let out: &[BlockId] = if x == vroot { roots } else { succs[x as usize] };
        if *i < out.len() {
            let y = out[*i].index();
            *i += 1;
            if !visited[y] {
                visited[y] = true;
                stack.push((y as u32, 0));
            }
        } else {
            stack.pop();
            post[x as usize] = next_post;
            if x != vroot {
                order.push(x);
            }
            next_post += 1;
        }
    }
    let reachable: Vec<bool> = visited[..n].to_vec();

    // Immediate dominators: process in reverse postorder, intersecting
    // the doms of processed predecessors, until a full pass changes
    // nothing. `idom[vroot] = vroot` anchors the intersection walks.
    let mut idom = vec![u32::MAX; n + 1];
    idom[n] = vroot;
    let is_root = {
        let mut m = vec![false; n];
        for &r in roots {
            m[r.index()] = true;
        }
        m
    };
    let intersect = |idom: &[u32], mut a: u32, mut b: u32| -> u32 {
        while a != b {
            while post[a as usize] < post[b as usize] {
                a = idom[a as usize];
            }
            while post[b as usize] < post[a as usize] {
                b = idom[b as usize];
            }
        }
        a
    };
    let mut changed = true;
    while changed {
        changed = false;
        for &x in order.iter().rev() {
            let xi = x as usize;
            let mut new = if is_root[xi] { vroot } else { u32::MAX };
            for &p in preds[xi] {
                let pi = p.index();
                if idom[pi] != u32::MAX {
                    new =
                        if new == u32::MAX { pi as u32 } else { intersect(&idom, new, pi as u32) };
                }
            }
            debug_assert_ne!(new, u32::MAX, "a reachable block has a processed predecessor");
            if idom[xi] != new {
                idom[xi] = new;
                changed = true;
            }
        }
    }

    // Dominance frontiers: for each join point, run each predecessor's
    // idom chain up to (exclusive) the join's idom. A root with real
    // predecessors is a join too — the virtual root is its other
    // predecessor — which is what places frontiers at entry blocks
    // targeted by back edges.
    let mut frontiers: Vec<Vec<BlockId>> = vec![Vec::new(); n];
    for &x in &order {
        let xi = x as usize;
        let real: Vec<usize> =
            preds[xi].iter().map(|p| p.index()).filter(|&p| idom[p] != u32::MAX).collect();
        let npreds = real.len() + usize::from(is_root[xi]);
        if npreds < 2 {
            continue;
        }
        for &p in &real {
            let mut runner = p as u32;
            while runner != idom[xi] && runner != vroot {
                frontiers[runner as usize].push(BlockId::from_index(xi));
                runner = idom[runner as usize];
            }
        }
    }
    for f in &mut frontiers {
        f.sort_unstable();
        f.dedup();
    }

    let idom = (0..n)
        .map(|x| match idom[x] {
            d if d == u32::MAX || d == vroot => None,
            d => Some(BlockId::from_index(d as usize)),
        })
        .collect();
    DomTree { idom, reachable, frontiers }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spike_isa::{BranchCond, Reg};
    use spike_program::{Program, ProgramBuilder};

    /// The naive iterative reference: full dominator sets as bit rows,
    /// `dom[b] = {b} ∪ ⋂ dom[preds(b)]` from ⊤ to a fixpoint. Returns
    /// one row per block; unreachable blocks get an empty row.
    struct NaiveDoms {
        dom: Vec<Vec<bool>>,
        reachable: Vec<bool>,
    }

    impl NaiveDoms {
        fn build(roots: &[BlockId], succs: &[&[BlockId]], preds: &[&[BlockId]]) -> NaiveDoms {
            let n = succs.len();
            let mut reachable = vec![false; n];
            let mut stack: Vec<usize> = roots.iter().map(|r| r.index()).collect();
            for &r in roots {
                reachable[r.index()] = true;
            }
            while let Some(x) = stack.pop() {
                for &y in succs[x] {
                    if !reachable[y.index()] {
                        reachable[y.index()] = true;
                        stack.push(y.index());
                    }
                }
            }
            let is_root = {
                let mut m = vec![false; n];
                for &r in roots {
                    m[r.index()] = true;
                }
                m
            };
            let mut dom: Vec<Vec<bool>> = (0..n)
                .map(|x| {
                    if !reachable[x] {
                        vec![false; n]
                    } else if is_root[x] {
                        let mut row = vec![false; n];
                        row[x] = true;
                        row
                    } else {
                        vec![true; n]
                    }
                })
                .collect();
            let mut changed = true;
            while changed {
                changed = false;
                for x in 0..n {
                    if !reachable[x] || is_root[x] {
                        continue;
                    }
                    let mut row = vec![true; n];
                    let mut any = false;
                    for &p in preds[x] {
                        if !reachable[p.index()] {
                            continue;
                        }
                        any = true;
                        for (r, d) in row.iter_mut().zip(&dom[p.index()]) {
                            *r &= d;
                        }
                    }
                    // A reachable non-root may also be entered straight
                    // from a root's virtual edge only if it *is* a root;
                    // otherwise its doms come from real predecessors.
                    assert!(any, "reachable non-root has a reachable predecessor");
                    row[x] = true;
                    if row != dom[x] {
                        dom[x] = row;
                        changed = true;
                    }
                }
            }
            NaiveDoms { dom, reachable }
        }

        fn dominates(&self, a: BlockId, b: BlockId) -> bool {
            a == b || (self.reachable[b.index()] && self.dom[b.index()][a.index()])
        }

        /// DF(a) = { b : a dominates some predecessor of b, and a does
        /// not strictly dominate b } — computed straight from the sets.
        fn frontier(&self, a: BlockId, preds: &[&[BlockId]]) -> Vec<BlockId> {
            let mut out = Vec::new();
            for (b, bp) in preds.iter().enumerate() {
                if !self.reachable[b] {
                    continue;
                }
                let bid = BlockId::from_index(b);
                // The virtual root edge into a real root is a predecessor
                // `a` never dominates, so it can only create joins; a
                // real predecessor must carry `a`'s dominance.
                let dominates_a_pred =
                    bp.iter().any(|&p| self.reachable[p.index()] && self.dominates(a, p));
                let strictly = a != bid && self.dominates(a, bid);
                if dominates_a_pred && !strictly {
                    out.push(bid);
                }
            }
            out
        }
    }

    /// Compares CHK against the naive reference on every block pair of
    /// one routine, both over its flow arcs.
    fn check_routine(cfg: &RoutineCfg) {
        let n = cfg.blocks().len();
        let arcs = cfg.flow();
        let succs: Vec<&[BlockId]> = (0..n).map(|b| arcs.succs(BlockId::from_index(b))).collect();
        let preds: Vec<&[BlockId]> = (0..n).map(|b| arcs.preds(BlockId::from_index(b))).collect();
        let tree = DomTree::dominators(cfg);
        let naive = NaiveDoms::build(cfg.entries(), &succs, &preds);
        for a in 0..n {
            let aid = BlockId::from_index(a);
            assert_eq!(tree.is_reachable(aid), naive.reachable[a], "reachability of {aid:?}");
            for b in 0..n {
                let bid = BlockId::from_index(b);
                assert_eq!(
                    tree.dominates(aid, bid),
                    naive.dominates(aid, bid),
                    "dominates({aid:?}, {bid:?})"
                );
            }
            if tree.is_reachable(aid) {
                assert_eq!(tree.frontier(aid), naive.frontier(aid, &preds), "frontier({aid:?})");
            }
        }
    }

    fn routine_cfg(program: &Program, name: &str) -> RoutineCfg {
        RoutineCfg::build(program, program.routine_by_name(name).unwrap())
    }

    #[test]
    fn straight_line() {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::A0).put_int().halt();
        let program = b.build().unwrap();
        let cfg = routine_cfg(&program, "main");
        check_routine(&cfg);
        let dom = DomTree::dominators(&cfg);
        assert_eq!(dom.idom(cfg.entries()[0]), None);
    }

    #[test]
    fn diamond_frontier_at_join() {
        // entry → (then | else) → join: the frontier of both arms is the
        // join block; the join's idom is the entry.
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .def(Reg::A0)
            .cond(BranchCond::Eq, Reg::A0, "then")
            .def(Reg::T0)
            .br("join")
            .label("then")
            .def(Reg::T1)
            .label("join")
            .put_int()
            .halt();
        let program = b.build().unwrap();
        let cfg = routine_cfg(&program, "main");
        check_routine(&cfg);

        let dom = DomTree::dominators(&cfg);
        let entry = cfg.entries()[0];
        // Identify the two arms (the blocks whose single pred is entry)
        // and the join (two preds).
        let join = (0..cfg.blocks().len())
            .map(BlockId::from_index)
            .find(|&x| cfg.flow().preds(x).len() == 2)
            .expect("diamond has a join");
        assert_eq!(dom.idom(join), Some(entry));
        for &arm in cfg.flow().succs(entry) {
            assert_eq!(dom.idom(arm), Some(entry));
            assert_eq!(dom.frontier(arm), [join]);
        }
        assert!(dom.frontier(entry).is_empty());
    }

    #[test]
    fn single_block_loop_is_its_own_frontier() {
        // A block branching back to itself dominates itself only; the
        // self edge puts it in its own dominance frontier.
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .def(Reg::A0)
            .label("spin")
            .def(Reg::T0)
            .cond(BranchCond::Ne, Reg::T0, "spin")
            .put_int()
            .halt();
        let program = b.build().unwrap();
        let cfg = routine_cfg(&program, "main");
        check_routine(&cfg);

        let dom = DomTree::dominators(&cfg);
        let spin = (0..cfg.blocks().len())
            .map(BlockId::from_index)
            .find(|&x| cfg.flow().succs(x).contains(&x))
            .expect("self-loop block");
        assert!(dom.frontier(spin).contains(&spin), "self-loop joins at itself");
    }

    #[test]
    fn irreducible_loop() {
        // Two loop headers entered from outside each other: the classic
        // irreducible shape. Neither header dominates the other, and the
        // naive reference pins the frontier answers.
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .def(Reg::A0)
            .cond(BranchCond::Eq, Reg::A0, "h2")
            .label("h1")
            .def(Reg::T0)
            .cond(BranchCond::Eq, Reg::T0, "h2")
            .br("out")
            .label("h2")
            .def(Reg::T1)
            .cond(BranchCond::Eq, Reg::T1, "h1")
            .label("out")
            .put_int()
            .halt();
        let program = b.build().unwrap();
        let cfg = routine_cfg(&program, "main");
        check_routine(&cfg);

        let dom = DomTree::dominators(&cfg);
        // Find the two headers: blocks with two predecessors that reach
        // each other. Neither may dominate the other.
        let joins: Vec<BlockId> = (0..cfg.blocks().len())
            .map(BlockId::from_index)
            .filter(|&x| cfg.flow().preds(x).len() >= 2)
            .collect();
        assert!(joins.len() >= 2, "irreducible shape has two join headers");
        assert!(!dom.dominates(joins[0], joins[1]) || !dom.dominates(joins[1], joins[0]));
    }

    #[test]
    fn multi_entry_alt_entrance() {
        // A routine with an alternate entrance: blocks reachable from
        // either entrance are dominated by neither, so the shared tail's
        // idom is None only if it is a root — here it is a join of the
        // two entrance paths with no single dominator.
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::A0).call("f").call("f:alt").put_int().halt();
        b.routine("f")
            .def(Reg::T0)
            .br("tail")
            .label("alt")
            .alt_entry("alt")
            .def(Reg::T1)
            .label("tail")
            .def(Reg::V0)
            .ret();
        let program = b.build().unwrap();
        let cfg = routine_cfg(&program, "f");
        assert!(cfg.entries().len() >= 2, "alt entrance produces a second entry block");
        check_routine(&cfg);

        let dom = DomTree::dominators(&cfg);
        // The tail joins paths from both entrances: dominated by neither
        // entrance, and its idom is None (virtual root).
        let tail = (0..cfg.blocks().len())
            .map(BlockId::from_index)
            .find(|&x| cfg.flow().preds(x).len() >= 2)
            .expect("shared tail join");
        for &e in cfg.entries() {
            assert!(!dom.dominates(e, tail), "{e:?} must not dominate the shared tail");
        }
        assert_eq!(dom.idom(tail), None);
    }

    #[test]
    fn generated_program_agrees_with_naive_reference() {
        // A mixed program off the builder: calls, switches, loops.
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .def(Reg::A0)
            .call("work")
            .switch(Reg::V0, &["a", "b", "c"])
            .label("a")
            .def(Reg::T0)
            .br("done")
            .label("b")
            .def(Reg::T1)
            .br("done")
            .label("c")
            .def(Reg::T2)
            .label("done")
            .put_int()
            .halt();
        b.routine("work")
            .def(Reg::T0)
            .label("loop")
            .use_reg(Reg::T0)
            .cond(BranchCond::Ne, Reg::T0, "loop")
            .def(Reg::V0)
            .ret();
        let program = b.build().unwrap();
        for (id, _) in program.iter() {
            let cfg = RoutineCfg::build(&program, id);
            check_routine(&cfg);
        }
    }
}
