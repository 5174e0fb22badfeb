//! The Figure-6 dataflow solver: labels one flow-summary edge by solving
//! `MAY-USE`/`MAY-DEF`/`MUST-DEF` over the CFG subgraph its paths cover.

use spike_cfg::{BlockId, RoutineCfg};
use spike_isa::RegSet;

/// The register-summary label of one flow-summary edge.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub(crate) struct EdgeLabel {
    pub may_use: RegSet,
    pub may_def: RegSet,
    pub must_def: RegSet,
}

/// The words of a dense bitset over `n` blocks.
pub(crate) fn words_for(n: usize) -> usize {
    n.div_ceil(64)
}

/// Sets bit `i` of `words`; returns whether it was clear.
#[inline]
pub(crate) fn set_bit(words: &mut [u64], i: usize) -> bool {
    let (w, bit) = (&mut words[i / 64], 1u64 << (i % 64));
    let was_clear = *w & bit == 0;
    *w |= bit;
    was_clear
}

/// The set bits of `words`, ascending.
pub(crate) fn bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            if w == 0 {
                return None;
            }
            let bit = w.trailing_zeros() as usize;
            w &= w - 1;
            Some(wi * 64 + bit)
        })
    })
}

/// Reusable buffers for PSG construction, one set per worker. Pass 2 of
/// the build plans every routine's flow-summary edges and solves one
/// subgraph per edge — hundreds of thousands on large programs — so
/// everything it needs per block, per terminal or per edge lives here and
/// is reused, and planning a routine allocates only the plan itself.
///
/// Every block-indexed bitset below has `words_for(blocks)` words for the
/// routine being planned.
#[derive(Default)]
pub(crate) struct FlowScratch {
    /// Per block: the index of the summary node ending it, `u32::MAX`
    /// when none does.
    pub(crate) terminal: Vec<u32>,
    /// Per block: its row in `bwd` if it ends at a summary node.
    pub(crate) bwd_row: Vec<u32>,
    /// Backward reachability, one bitset row per terminal block: the
    /// blocks from which the terminal is reached without crossing
    /// another summary point.
    pub(crate) bwd: Vec<u64>,
    /// The union of the `bwd` rows.
    pub(crate) reaches_term: Vec<u64>,
    /// Blocks the forward walk from one source reached.
    pub(crate) visited: Vec<u64>,
    /// One edge's subgraph: `visited` ∩ its terminal's `bwd` row.
    pub(crate) subgraph: Vec<u64>,
    pub(crate) stack: Vec<BlockId>,
    /// Terminal blocks the forward walk from one source reached.
    pub(crate) reached: Vec<BlockId>,
    pub(crate) solver: EdgeSolver,
}

/// [`solve_edge`]'s buffers. Between calls every `local` entry is
/// `u32::MAX`: a solve marks its members and clears exactly those marks
/// again, so it costs the subgraph's size, not the routine's.
#[derive(Default)]
pub(crate) struct EdgeSolver {
    /// Block index → local dense index (`u32::MAX` = not in subgraph).
    local: Vec<u32>,
    members: Vec<BlockId>,
    may_use_in: Vec<RegSet>,
    may_def_in: Vec<RegSet>,
    must_def_in: Vec<RegSet>,
}

/// Solves the Figure-6 equations for the flow-summary edge whose paths run
/// from the blocks in `starts` (the source location's start blocks) to the
/// terminal block `target`, over `subgraph` (the blocks on any such path,
/// as bitset words).
///
/// Within the subgraph, successor arcs are restricted to subgraph members,
/// and `target` — the only block in the subgraph ending at a summary point
/// — contributes no successor arcs: paths end there. The returned label
/// combines the converged `IN` sets of the start blocks present in the
/// subgraph: union for the `MAY` sets, intersection for `MUST-DEF`.
///
/// `MAY-USE`/`MAY-DEF` grow from ⊥; `MUST-DEF` is a greatest-fixpoint
/// problem and iterates down from ⊤ (loop back-edges would otherwise
/// poison the intersection — see DESIGN.md on the Figure-6 deviation).
///
/// The framework is distributive and every subgraph block reaches `target`
/// by construction, so the iterative solution equals the
/// meet-over-all-paths solution (verified against a path-enumeration
/// oracle in the tests).
pub(crate) fn solve_edge(
    cfg: &RoutineCfg,
    subgraph: &[u64],
    target: BlockId,
    starts: &[BlockId],
    scratch: &mut EdgeSolver,
) -> EdgeLabel {
    let nblocks = cfg.blocks().len();
    if scratch.local.len() < nblocks {
        scratch.local.resize(nblocks, u32::MAX);
    }
    scratch.members.clear();
    for b in bits(subgraph) {
        scratch.local[b] = scratch.members.len() as u32;
        scratch.members.push(BlockId::from_index(b));
    }
    debug_assert!(!scratch.members.is_empty(), "edge subgraph must be non-empty");

    let n = scratch.members.len();
    for (set, init) in [
        (&mut scratch.may_use_in, RegSet::EMPTY),
        (&mut scratch.may_def_in, RegSet::EMPTY),
        (&mut scratch.must_def_in, RegSet::ALL),
    ] {
        set.clear();
        set.resize(n, init);
    }
    let local = &scratch.local;
    let members = &scratch.members;
    let may_use_in = &mut scratch.may_use_in;
    let may_def_in = &mut scratch.may_def_in;
    let must_def_in = &mut scratch.must_def_in;

    // Iterate to fixpoint. Blocks are visited in descending address order,
    // which approximates postorder for reducible routine bodies and keeps
    // the number of sweeps small.
    let mut changed = true;
    while changed {
        changed = false;
        for li in (0..n).rev() {
            let b = members[li];
            let block = cfg.block(b);

            let mut may_use_out = RegSet::EMPTY;
            let mut may_def_out = RegSet::EMPTY;
            let mut must_def_out = RegSet::EMPTY;
            if b != target {
                let mut first = true;
                for &s in cfg.succs(b) {
                    let sl = local[s.index()];
                    if sl == u32::MAX {
                        continue; // arc leaves the subgraph: not on a path to target
                    }
                    let sl = sl as usize;
                    may_use_out |= may_use_in[sl];
                    may_def_out |= may_def_in[sl];
                    if first {
                        must_def_out = must_def_in[sl];
                        first = false;
                    } else {
                        must_def_out &= must_def_in[sl];
                    }
                }
                debug_assert!(!first, "non-target subgraph block {b} has no subgraph successor");
            }

            let new_may_use = block.ubd() | (may_use_out - block.def());
            let new_may_def = block.def() | may_def_out;
            let new_must_def = block.def() | must_def_out;
            if new_may_use != may_use_in[li]
                || new_may_def != may_def_in[li]
                || new_must_def != must_def_in[li]
            {
                may_use_in[li] = new_may_use;
                may_def_in[li] = new_may_def;
                must_def_in[li] = new_must_def;
                changed = true;
            }
        }
    }

    // Combine over the start blocks that actually reach the target.
    let mut label = EdgeLabel::default();
    let mut first = true;
    for &s in starts {
        let sl = local[s.index()];
        if sl == u32::MAX {
            continue;
        }
        let sl = sl as usize;
        label.may_use |= may_use_in[sl];
        label.may_def |= may_def_in[sl];
        if first {
            label.must_def = must_def_in[sl];
            first = false;
        } else {
            label.must_def &= must_def_in[sl];
        }
    }
    debug_assert!(!first, "no start block reaches the edge target");
    for b in &scratch.members {
        scratch.local[b.index()] = u32::MAX;
    }
    label
}

#[cfg(test)]
mod tests {
    use super::*;
    use spike_isa::{BranchCond, Reg};
    use spike_program::ProgramBuilder;

    /// Builds a CFG and runs `solve_edge` over the whole routine treating
    /// the unique exit block as the target and block 0 as the start.
    fn solve_whole(cfg: &RoutineCfg) -> EdgeLabel {
        let target = cfg.exits()[0];
        let mut scratch = EdgeSolver::default();
        solve_edge(cfg, &whole(cfg), target, &[BlockId::from_index(0)], &mut scratch)
    }

    /// Every block of `cfg`, as subgraph words.
    fn whole(cfg: &RoutineCfg) -> Vec<u64> {
        let n = cfg.blocks().len();
        let mut sub = vec![0; words_for(n)];
        for i in 0..n {
            set_bit(&mut sub, i);
        }
        sub
    }

    fn cfg_for(build: impl FnOnce(&mut spike_program::RoutineBuilder)) -> RoutineCfg {
        let mut b = ProgramBuilder::new();
        build(b.routine("f"));
        let p = b.build().unwrap();
        RoutineCfg::build(&p, p.routine_by_name("f").unwrap())
    }

    #[test]
    fn straight_line_label() {
        // use a0; def t0; ret
        let cfg = cfg_for(|r| {
            r.use_reg(Reg::A0).def(Reg::T0).ret();
        });
        let l = solve_whole(&cfg);
        assert!(l.may_use.contains(Reg::A0));
        assert!(l.may_use.contains(Reg::RA)); // ret reads ra
        assert!(!l.may_use.contains(Reg::T0));
        assert_eq!(l.may_def, RegSet::of(&[Reg::T0]));
        assert_eq!(l.must_def, RegSet::of(&[Reg::T0]));
    }

    #[test]
    fn diamond_must_def_is_intersection() {
        // if: def t0, def t1 / else: def t0; join: ret
        let cfg = cfg_for(|r| {
            r.cond(BranchCond::Eq, Reg::A0, "else")
                .def(Reg::T0)
                .def(Reg::T1)
                .br("join")
                .label("else")
                .def(Reg::T0)
                .label("join")
                .ret();
        });
        let l = solve_whole(&cfg);
        assert!(l.must_def.contains(Reg::T0));
        assert!(!l.must_def.contains(Reg::T1));
        assert!(l.may_def.contains(Reg::T1));
        assert!(l.may_use.contains(Reg::A0));
    }

    #[test]
    fn def_kills_downstream_use() {
        // def a0; use a0; ret — a0 not in MAY-USE.
        let cfg = cfg_for(|r| {
            r.def(Reg::A0).use_reg(Reg::A0).ret();
        });
        let l = solve_whole(&cfg);
        assert!(!l.may_use.contains(Reg::A0));
        assert!(l.must_def.contains(Reg::A0));
    }

    #[test]
    fn loop_defs_are_may_not_must() {
        // while (a0) { def t0 }; ret  — t0 may be defined but not must.
        let cfg = cfg_for(|r| {
            r.label("head")
                .cond(BranchCond::Eq, Reg::A0, "done")
                .def(Reg::T0)
                .br("head")
                .label("done")
                .ret();
        });
        let l = solve_whole(&cfg);
        assert!(l.may_def.contains(Reg::T0));
        assert!(!l.must_def.contains(Reg::T0));
        // The loop's condition register is used before any def.
        assert!(l.may_use.contains(Reg::A0));
    }

    #[test]
    fn loop_body_defs_on_every_path_are_must() {
        // do { def t0 } while (a0); ret — t0 defined on every path.
        let cfg = cfg_for(|r| {
            r.label("head").def(Reg::T0).cond(BranchCond::Ne, Reg::A0, "head").ret();
        });
        let l = solve_whole(&cfg);
        assert!(l.must_def.contains(Reg::T0), "loop body runs at least once");
    }

    #[test]
    fn use_after_loop_def_not_in_may_use() {
        // t0 defined on every path through the loop body before its use.
        let cfg = cfg_for(|r| {
            r.def(Reg::T0)
                .label("head")
                .use_reg(Reg::T0)
                .cond(BranchCond::Ne, Reg::A0, "head")
                .ret();
        });
        let l = solve_whole(&cfg);
        assert!(!l.may_use.contains(Reg::T0));
        assert!(l.must_def.contains(Reg::T0));
    }

    #[test]
    fn scratch_reuse_is_clean_across_calls() {
        // Two very different routines solved with the same scratch must
        // produce the same labels as fresh scratch.
        let cfg1 = cfg_for(|r| {
            r.def(Reg::T0).use_reg(Reg::A1).ret();
        });
        let cfg2 = cfg_for(|r| {
            r.cond(BranchCond::Eq, Reg::A0, "e").def(Reg::T1).label("e").def(Reg::T2).ret();
        });
        let mut scratch = EdgeSolver::default();
        let (sub1, sub2) = (whole(&cfg1), whole(&cfg2));
        let start = [BlockId::from_index(0)];
        // Larger routine after smaller and back: stale marks of either
        // would leak into the other's subgraph.
        let a2 = solve_edge(&cfg2, &sub2, cfg2.exits()[0], &start, &mut scratch);
        let a1 = solve_edge(&cfg1, &sub1, cfg1.exits()[0], &start, &mut scratch);
        let b2 = solve_edge(&cfg2, &sub2, cfg2.exits()[0], &start, &mut scratch);
        assert_eq!(a1, solve_whole(&cfg1));
        assert_eq!(a2, solve_whole(&cfg2));
        assert_eq!(b2, a2);
        assert!(scratch.local.iter().all(|&l| l == u32::MAX), "every mark is cleared");
    }

    /// Path-enumeration oracle: on an acyclic subgraph, MAY-USE/MAY-DEF/
    /// MUST-DEF must equal the union/union/intersection over all explicit
    /// paths of the per-path backward composition.
    #[test]
    fn matches_path_enumeration_oracle_on_acyclic_graph() {
        // Two nested diamonds with distinct defs/uses per arm.
        let cfg = cfg_for(|r| {
            r.cond(BranchCond::Eq, Reg::A0, "d1else")
                .def(Reg::T0)
                .use_reg(Reg::A1)
                .br("mid")
                .label("d1else")
                .def(Reg::T1)
                .label("mid")
                .cond(BranchCond::Ne, Reg::A2, "d2else")
                .def(Reg::T2)
                .br("end")
                .label("d2else")
                .def(Reg::T0)
                .use_reg(Reg::T0)
                .label("end")
                .def(Reg::T3)
                .ret();
        });
        let solved = solve_whole(&cfg);

        // Enumerate all block paths from block 0 to the exit.
        let target = cfg.exits()[0];
        let mut paths: Vec<Vec<BlockId>> = Vec::new();
        let mut stack = vec![(vec![BlockId::from_index(0)])];
        while let Some(path) = stack.pop() {
            let last = *path.last().unwrap();
            if last == target {
                paths.push(path);
                continue;
            }
            for &s in cfg.succs(last) {
                let mut p = path.clone();
                p.push(s);
                stack.push(p);
            }
        }
        assert!(paths.len() >= 4, "expected all 4 diamond paths");

        let mut oracle_may_use = RegSet::EMPTY;
        let mut oracle_may_def = RegSet::EMPTY;
        let mut oracle_must_def = RegSet::ALL;
        for path in &paths {
            let mut used = RegSet::EMPTY;
            let mut defined = RegSet::EMPTY;
            for &b in path {
                let blk = cfg.block(b);
                used |= blk.ubd() - defined;
                defined |= blk.def();
            }
            oracle_may_use |= used;
            oracle_may_def |= defined;
            oracle_must_def &= defined;
        }
        assert_eq!(solved.may_use, oracle_may_use);
        assert_eq!(solved.may_def, oracle_may_def);
        assert_eq!(solved.must_def, oracle_must_def);
    }
}
