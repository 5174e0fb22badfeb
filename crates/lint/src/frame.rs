//! The flow frame the checks share: every routine's flow arcs and forward
//! reverse-postorder ranks, and the program's call graph, built once per
//! lint run, plus the one witness search over those arcs.
//!
//! Five checks walk routine-local control flow: `uninit-read` through
//! `spike_opt`'s MUST-defined solver, the dead-store check through its
//! liveness solver, `unreachable-block`, the clobber check's two
//! reachability walks, and the `uninit-read` and `uninit-stack-read`
//! witnesses through [`RoutineFrame::witness`]. Two read the call graph:
//! `uninit-read` for its callers-first order and its query scope, and
//! `unreachable-routine`. All of them read the structures built here;
//! this is the only module of the crate that calls
//! [`RoutineCfg::flow_arcs`](spike_cfg::RoutineCfg::flow_arcs).

use std::collections::VecDeque;

use spike_callgraph::CallGraph;
use spike_cfg::{BlockId, FlowArcs, ProgramCfg, RoutineCfg};
use spike_program::RoutineId;

/// One routine's share of the frame.
pub(crate) struct RoutineFrame {
    /// Successors plus the call → return-point arc the CFG itself omits.
    pub(crate) arcs: FlowArcs,
    /// Reverse-postorder ranks over `arcs` from the routine's entrances:
    /// the pop order of the forward solvers, reversed for the backward
    /// ones.
    pub(crate) rank: Vec<u32>,
}

impl RoutineFrame {
    /// A shortest flow path, as block-start addresses, from one of
    /// `seeds` to `target` that passes through no block `stops` accepts
    /// before reaching `target`: the path along which a finding really
    /// happens. Falls back to the lone target address when no such path
    /// exists.
    pub(crate) fn witness(
        &self,
        cfg: &RoutineCfg,
        seeds: impl IntoIterator<Item = BlockId>,
        target: BlockId,
        stops: impl Fn(BlockId) -> bool,
    ) -> Vec<u32> {
        let mut parent: Vec<Option<BlockId>> = vec![None; self.arcs.len()];
        let mut visited = vec![false; self.arcs.len()];
        let mut q = VecDeque::new();
        for b in seeds {
            if !std::mem::replace(&mut visited[b.index()], true) {
                q.push_back(b);
            }
        }
        let mut found = false;
        while let Some(b) = q.pop_front() {
            if b == target {
                found = true;
                break;
            }
            if stops(b) {
                continue;
            }
            for &s in self.arcs.succs(b) {
                if !std::mem::replace(&mut visited[s.index()], true) {
                    parent[s.index()] = Some(b);
                    q.push_back(s);
                }
            }
        }
        if !found {
            return vec![cfg.block(target).start()];
        }
        let mut path = Vec::new();
        let mut cur = Some(target);
        while let Some(b) = cur {
            path.push(cfg.block(b).start());
            cur = parent[b.index()];
        }
        path.reverse();
        path
    }
}

/// The frames of the routines a run covers, and the call graph.
pub(crate) struct LintFrame {
    pub(crate) callgraph: CallGraph,
    routines: Vec<Option<RoutineFrame>>,
}

impl LintFrame {
    /// Builds the frame of every routine `wanted` selects.
    pub(crate) fn build(
        cfg: &ProgramCfg,
        callgraph: CallGraph,
        wanted: impl Fn(RoutineId) -> bool,
    ) -> LintFrame {
        let routines = cfg
            .cfgs()
            .iter()
            .map(|c| {
                wanted(c.routine()).then(|| {
                    let arcs = c.flow_arcs();
                    let rank = arcs.rpo_ranks(c.entries());
                    RoutineFrame { arcs, rank }
                })
            })
            .collect();
        LintFrame { callgraph, routines }
    }

    /// `rid`'s frame.
    ///
    /// # Panics
    ///
    /// Panics if the frame was built without `rid`.
    pub(crate) fn routine(&self, rid: RoutineId) -> &RoutineFrame {
        self.routines[rid.index()].as_ref().expect("routine is in the frame's scope")
    }
}
