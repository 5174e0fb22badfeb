//! The flow frame the checks share: every routine's flow arcs and forward
//! reverse-postorder ranks, and the program's call graph, built once per
//! lint run.
//!
//! Five checks walk routine-local control flow — the must-defined solver
//! behind `uninit-read`, the dead-store liveness, `unreachable-block`,
//! the clobber check's two reachability walks and the stack-read witness
//! — and two walk the call graph. They all read the structures built
//! here; this is the only module of the crate that calls
//! [`RoutineCfg::flow_arcs`](spike_cfg::RoutineCfg::flow_arcs).

use spike_callgraph::CallGraph;
use spike_cfg::{FlowArcs, ProgramCfg};
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
