//! Natural-loop detection over the dominator tree: the loop forest the
//! profile-guided optimizations consume.
//!
//! A *natural loop* is identified by a back edge `b → h` where the
//! target `h` dominates the source `b`; its body is `h` plus every block
//! that reaches `b` without passing through `h`. Back edges with the
//! same header are merged into one loop, loops nest by body inclusion,
//! and every block gets a nesting depth (0 = not in any loop) — the
//! static "hotness" weight when no execution profile is available.
//!
//! Loops are detected over the *execution* graph ([`RoutineCfg::flow`],
//! the arcs [`DomTree::dominators`] reads): a call inside a loop flows
//! to its return point, so dispatch loops whose iterations call out remain
//! cycles. Irreducible regions — cycles entered other than through a
//! dominating header, detected as DFS retreating edges whose target does
//! not dominate the source — are demoted: their blocks are flagged so
//! loop optimizations leave them alone, and any natural loop overlapping
//! such a region is marked [`NaturalLoop::irreducible`].

use crate::block::BlockId;
use crate::blockset::BlockSet;
use crate::build::RoutineCfg;
use crate::dom::DomTree;
use crate::flow::FlowArcs;

/// One natural loop of a routine.
#[derive(Clone, Debug)]
pub struct NaturalLoop {
    /// The loop header: dominates every block in the body, and the only
    /// block through which the loop can be entered (when reducible).
    pub header: BlockId,
    /// Every block in the loop, including the header.
    pub body: BlockSet,
    /// The sources of the back edges (blocks branching to the header).
    pub back_edges: Vec<BlockId>,
    /// Index of the innermost enclosing loop in [`LoopForest::loops`].
    pub parent: Option<usize>,
    /// Nesting depth: 1 for an outermost loop.
    pub depth: u32,
    /// The loop overlaps an irreducible region (a cycle with a side
    /// entrance); optimizations must not treat the header as the sole
    /// entry.
    pub irreducible: bool,
}

/// The loop forest of one routine; see the module docs.
#[derive(Clone, Debug)]
pub struct LoopForest {
    loops: Vec<NaturalLoop>,
    /// Per block: how many loops contain it.
    depth: Vec<u32>,
    /// Per block: index of the innermost containing loop.
    innermost: Vec<Option<u32>>,
    /// Per block: member of an irreducible cycle.
    demoted: Vec<bool>,
    irreducible_edges: usize,
}

impl LoopForest {
    /// Detects the natural loops of `cfg`. `dom` must be the dominator
    /// tree of the same routine ([`DomTree::dominators`]).
    pub fn build(cfg: &RoutineCfg, dom: &DomTree) -> LoopForest {
        let n = cfg.blocks().len();
        let arcs = cfg.flow();

        // Retreating edges via DFS from the entries: an edge to a block
        // still on the DFS stack closes a cycle. If the target dominates
        // the source it is a natural back edge; otherwise the cycle is
        // irreducible.
        let mut back_edges: Vec<(BlockId, BlockId)> = Vec::new(); // (source, header)
        let mut irreducible_edges: Vec<(BlockId, BlockId)> = Vec::new();
        let mut color = vec![0u8; n]; // 0 white, 1 gray, 2 black
        let mut stack: Vec<(u32, usize)> = Vec::new();
        for &e in cfg.entries() {
            if color[e.index()] != 0 {
                continue;
            }
            color[e.index()] = 1;
            stack.push((e.index() as u32, 0));
            while let Some(&mut (x, ref mut i)) = stack.last_mut() {
                let xi = x as usize;
                if let Some(&y) = arcs.succs(BlockId::from_index(xi)).get(*i) {
                    *i += 1;
                    match color[y.index()] {
                        0 => {
                            color[y.index()] = 1;
                            stack.push((y.index() as u32, 0));
                        }
                        1 => {
                            let src = BlockId::from_index(xi);
                            if dom.dominates(y, src) {
                                back_edges.push((src, y));
                            } else {
                                irreducible_edges.push((src, y));
                            }
                        }
                        _ => {}
                    }
                } else {
                    stack.pop();
                    color[xi] = 2;
                }
            }
        }

        // Demote irreducible regions: every block of an SCC containing
        // an irreducible edge source.
        let mut demoted = vec![false; n];
        if !irreducible_edges.is_empty() {
            let scc = sccs(arcs);
            let mut bad: Vec<usize> = Vec::new();
            for &(src, _) in &irreducible_edges {
                let c = scc[src.index()];
                if !bad.contains(&c) {
                    bad.push(c);
                }
            }
            for b in 0..n {
                if bad.contains(&scc[b]) {
                    demoted[b] = true;
                }
            }
        }

        // Group back edges by header and flood the bodies backwards.
        let mut loops: Vec<NaturalLoop> = Vec::new();
        let mut headers: Vec<BlockId> = back_edges.iter().map(|&(_, h)| h).collect();
        headers.sort_unstable();
        headers.dedup();
        for h in headers {
            let mut body = BlockSet::new(n);
            body.insert(h);
            let mut sources: Vec<BlockId> =
                back_edges.iter().filter(|&&(_, t)| t == h).map(|&(s, _)| s).collect();
            sources.sort_unstable();
            sources.dedup();
            let mut work: Vec<BlockId> = Vec::new();
            for &s in &sources {
                if body.insert(s) {
                    work.push(s);
                }
            }
            while let Some(x) = work.pop() {
                for &p in arcs.preds(x) {
                    if dom.is_reachable(p) && body.insert(p) {
                        work.push(p);
                    }
                }
            }
            let irreducible = body.iter().any(|b| demoted[b.index()]);
            loops.push(NaturalLoop {
                header: h,
                body,
                back_edges: sources,
                parent: None,
                depth: 0,
                irreducible,
            });
        }

        // Nesting: the parent of a loop is the smallest strictly larger
        // loop containing its header. (Distinct headers make equal-body
        // loops impossible; a natural loop's body is wholly inside any
        // loop containing its header.)
        let mut order: Vec<usize> = (0..loops.len()).collect();
        order.sort_by_key(|&i| loops[i].body.count());
        for (oi, &i) in order.iter().enumerate() {
            for &j in &order[oi + 1..] {
                if loops[j].body.count() > loops[i].body.count()
                    && loops[j].body.contains(loops[i].header)
                {
                    loops[i].parent = Some(j);
                    break;
                }
            }
        }
        // Depths top-down: parents are strictly larger, so processing in
        // descending body size sees every parent first.
        for &i in order.iter().rev() {
            loops[i].depth = match loops[i].parent {
                Some(p) => loops[p].depth + 1,
                None => 1,
            };
        }

        let mut depth = vec![0u32; n];
        let mut innermost: Vec<Option<u32>> = vec![None; n];
        for b in 0..n {
            let id = BlockId::from_index(b);
            let mut best: Option<usize> = None;
            let mut count = 0;
            for (li, l) in loops.iter().enumerate() {
                if l.body.contains(id) {
                    count += 1;
                    if best.is_none_or(|x: usize| l.body.count() < loops[x].body.count()) {
                        best = Some(li);
                    }
                }
            }
            depth[b] = count;
            innermost[b] = best.map(|x| x as u32);
        }

        LoopForest { loops, depth, innermost, demoted, irreducible_edges: irreducible_edges.len() }
    }

    /// The loops, unordered (use [`NaturalLoop::depth`] for nesting).
    pub fn loops(&self) -> &[NaturalLoop] {
        &self.loops
    }

    /// Loop-nesting depth of `b` (0 outside any loop).
    pub fn depth_of(&self, b: BlockId) -> u32 {
        self.depth[b.index()]
    }

    /// Index into [`LoopForest::loops`] of the innermost loop containing
    /// `b`.
    pub fn innermost(&self, b: BlockId) -> Option<usize> {
        self.innermost[b.index()].map(|x| x as usize)
    }

    /// Whether `b` belongs to an irreducible cycle (optimizations must
    /// not assume a dominating header exists).
    pub fn is_demoted(&self, b: BlockId) -> bool {
        self.demoted[b.index()]
    }

    /// Number of DFS retreating edges whose target did not dominate the
    /// source — the raw irreducibility count.
    pub fn irreducible_edges(&self) -> usize {
        self.irreducible_edges
    }

    /// The deepest loop nesting in the routine.
    pub fn max_depth(&self) -> u32 {
        self.loops.iter().map(|l| l.depth).max().unwrap_or(0)
    }
}

/// Tarjan strongly-connected components; returns the component index per
/// node.
fn sccs(arcs: &FlowArcs) -> Vec<usize> {
    let n = arcs.len();
    let mut index = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut comp = vec![usize::MAX; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next = 0u32;
    let mut ncomp = 0usize;
    // Iterative Tarjan with an explicit call frame per node.
    let mut frames: Vec<(u32, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != u32::MAX {
            continue;
        }
        frames.push((root as u32, 0));
        index[root] = next;
        low[root] = next;
        next += 1;
        stack.push(root as u32);
        on_stack[root] = true;
        while let Some(&mut (x, ref mut i)) = frames.last_mut() {
            let xi = x as usize;
            if let Some(y) = arcs.succs(BlockId::from_index(xi)).get(*i) {
                let y = y.index();
                *i += 1;
                if index[y] == u32::MAX {
                    index[y] = next;
                    low[y] = next;
                    next += 1;
                    stack.push(y as u32);
                    on_stack[y] = true;
                    frames.push((y as u32, 0));
                } else if on_stack[y] {
                    low[xi] = low[xi].min(index[y]);
                }
            } else {
                frames.pop();
                if let Some(&(p, _)) = frames.last() {
                    let pi = p as usize;
                    low[pi] = low[pi].min(low[xi]);
                }
                if low[xi] == index[xi] {
                    loop {
                        let y = stack.pop().expect("scc stack") as usize;
                        on_stack[y] = false;
                        comp[y] = ncomp;
                        if y == xi {
                            break;
                        }
                    }
                    ncomp += 1;
                }
            }
        }
    }
    comp
}

#[cfg(test)]
mod tests {
    use super::*;
    use spike_isa::{AluOp, BranchCond, Reg};
    use spike_program::{Program, ProgramBuilder};

    fn forest(program: &Program, name: &str) -> (RoutineCfg, LoopForest) {
        let cfg = RoutineCfg::build(program, program.routine_by_name(name).unwrap());
        let dom = DomTree::dominators(&cfg);
        let f = LoopForest::build(&cfg, &dom);
        (cfg, f)
    }

    #[test]
    fn straight_line_has_no_loops() {
        let mut b = ProgramBuilder::new();
        b.routine("main").def(Reg::A0).put_int().halt();
        let p = b.build().unwrap();
        let (_, f) = forest(&p, "main");
        assert!(f.loops().is_empty());
        assert_eq!(f.max_depth(), 0);
    }

    #[test]
    fn counted_loop_is_detected() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .lda(Reg::A0, Reg::ZERO, 5)
            .label("top")
            .op_imm(AluOp::Sub, Reg::A0, 1, Reg::A0)
            .cond(BranchCond::Ne, Reg::A0, "top")
            .halt();
        let p = b.build().unwrap();
        let (cfg, f) = forest(&p, "main");
        assert_eq!(f.loops().len(), 1);
        let l = &f.loops()[0];
        assert!(!l.irreducible);
        assert_eq!(l.depth, 1);
        assert_eq!(l.body.count(), 1);
        assert_eq!(l.back_edges, vec![l.header]);
        assert_eq!(f.depth_of(l.header), 1);
        assert_eq!(f.depth_of(cfg.entries()[0]), 0);
    }

    #[test]
    fn nested_loops_get_increasing_depth() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .lda(Reg::A0, Reg::ZERO, 3)
            .label("outer")
            .lda(Reg::A1, Reg::ZERO, 3)
            .label("inner")
            .op_imm(AluOp::Sub, Reg::A1, 1, Reg::A1)
            .cond(BranchCond::Ne, Reg::A1, "inner")
            .op_imm(AluOp::Sub, Reg::A0, 1, Reg::A0)
            .cond(BranchCond::Ne, Reg::A0, "outer")
            .halt();
        let p = b.build().unwrap();
        let (_, f) = forest(&p, "main");
        assert_eq!(f.loops().len(), 2);
        let inner = f.loops().iter().find(|l| l.depth == 2).expect("inner loop");
        let outer = f.loops().iter().find(|l| l.depth == 1).expect("outer loop");
        assert!(outer.body.count() > inner.body.count());
        assert!(outer.body.contains(inner.header));
        assert_eq!(inner.parent, f.loops().iter().position(|l| l.depth == 1));
        assert_eq!(f.max_depth(), 2);
    }

    #[test]
    fn loop_through_a_call_stays_connected() {
        // A dispatch-style loop whose body calls out: the execution
        // graph's call→return arc keeps the cycle intact.
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .lda(Reg::A0, Reg::ZERO, 5)
            .label("top")
            .call("f")
            .op_imm(AluOp::Sub, Reg::A0, 1, Reg::A0)
            .cond(BranchCond::Ne, Reg::A0, "top")
            .halt();
        b.routine("f").lda(Reg::V0, Reg::ZERO, 1).ret();
        let p = b.build().unwrap();
        let (cfg, f) = forest(&p, "main");
        assert_eq!(f.loops().len(), 1);
        let l = &f.loops()[0];
        assert!(!l.irreducible);
        // Both the call block and the return block are in the body.
        assert!(l.body.count() >= 2, "{:?}", l);
        let call_block = cfg.call_blocks().next().expect("call block");
        assert!(l.body.contains(call_block));
    }

    #[test]
    fn irreducible_cycle_is_demoted() {
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
        let p = b.build().unwrap();
        let (cfg, f) = forest(&p, "main");
        assert!(f.irreducible_edges() > 0);
        // The two-header cycle produced no reducible natural loop; every
        // block on the cycle is demoted.
        assert!(f.loops().iter().all(|l| l.irreducible));
        let demoted =
            (0..cfg.blocks().len()).map(BlockId::from_index).filter(|&x| f.is_demoted(x)).count();
        assert!(demoted >= 2, "cycle blocks are demoted, got {demoted}");
    }

    #[test]
    fn self_loop_and_outer_loop_share_blocks() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .lda(Reg::A0, Reg::ZERO, 2)
            .label("outer")
            .def(Reg::T0)
            .label("spin")
            .op_imm(AluOp::Sub, Reg::T0, 1, Reg::T0)
            .cond(BranchCond::Ne, Reg::T0, "spin")
            .op_imm(AluOp::Sub, Reg::A0, 1, Reg::A0)
            .cond(BranchCond::Ne, Reg::A0, "outer")
            .halt();
        let p = b.build().unwrap();
        let (_, f) = forest(&p, "main");
        assert_eq!(f.loops().len(), 2);
        let spin = f.loops().iter().find(|l| l.body.count() == 1).expect("self loop");
        assert_eq!(spin.depth, 2);
        assert_eq!(f.depth_of(spin.header), 2);
    }
}
