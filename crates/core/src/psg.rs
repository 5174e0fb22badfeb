//! The Program Summary Graph data structure (§3.1 of the paper).

use std::fmt;

use spike_cfg::BlockId;
use spike_isa::{HeapSize, RegSet};
use spike_program::RoutineId;

/// Identifies a PSG node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates an id from a dense index.
    #[inline]
    pub const fn from_index(index: usize) -> NodeId {
        NodeId(index as u32)
    }

    /// The dense index of this node.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

impl HeapSize for NodeId {
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// Identifies a PSG edge.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(u32);

impl EdgeId {
    /// Creates an id from a dense index.
    #[inline]
    pub const fn from_index(index: usize) -> EdgeId {
        EdgeId(index as u32)
    }

    /// The dense index of this edge.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E{}", self.0)
    }
}

impl HeapSize for EdgeId {
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// What a PSG node represents: a program location for which dataflow
/// information is collected.
///
/// The paper's four node types (§3.1) plus the branch nodes of §3.6 and
/// two sink kinds this reproduction adds for program termination and
/// unrecoverable indirect jumps (§3.5).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeKind {
    /// An entrance to a routine; `index` selects among the routine's
    /// entrances.
    Entry { routine: RoutineId, index: usize },
    /// An exit (`ret`) from a routine; `index` selects among the routine's
    /// exits in address order.
    Exit { routine: RoutineId, index: usize },
    /// The call instruction ending `block`.
    Call { routine: RoutineId, block: BlockId },
    /// The return point of the call ending `block` (the call's
    /// fall-through address).
    Return { routine: RoutineId, block: BlockId },
    /// A multiway branch (§3.6) ending `block`; inserted to turn the
    /// O(n²) edges around an n-way branch into O(n).
    Branch { routine: RoutineId, block: BlockId },
    /// A `halt` ending `block`: program termination. Nothing is live or
    /// defined afterwards.
    Halt { routine: RoutineId, block: BlockId },
    /// An indirect jump with no recovered table ending `block`; all
    /// registers are assumed live at its unknown target (§3.5).
    UnknownJump { routine: RoutineId, block: BlockId },
    /// Sink for control-flow regions that can reach no summary point
    /// (infinite loops). Edges into it conservatively carry every register
    /// the diverging region may read, so those uses are never lost.
    Diverge { routine: RoutineId },
}

impl NodeKind {
    /// The routine the node belongs to.
    pub fn routine(&self) -> RoutineId {
        match *self {
            NodeKind::Entry { routine, .. }
            | NodeKind::Exit { routine, .. }
            | NodeKind::Call { routine, .. }
            | NodeKind::Return { routine, .. }
            | NodeKind::Branch { routine, .. }
            | NodeKind::Halt { routine, .. }
            | NodeKind::UnknownJump { routine, .. }
            | NodeKind::Diverge { routine } => routine,
        }
    }
}

impl HeapSize for NodeKind {
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// Whether an edge summarizes intraprocedural control flow or a call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EdgeKind {
    /// Summarizes all control-flow paths between two locations in the same
    /// routine; labeled with `MAY-USE`/`MAY-DEF`/`MUST-DEF` computed over
    /// the paths' CFG subgraph (Figure 6).
    FlowSummary,
    /// Connects a call node to its return node; summarizes everything that
    /// may happen during the call. Filled in by phase 1 from the callee's
    /// entry node (or fixed calling-standard sets for unknown callees).
    CallReturn,
}

impl HeapSize for EdgeKind {
    fn heap_bytes(&self) -> usize {
        0
    }
}

spike_isa::analysis_struct! {
    /// A PSG edge with its register-summary labels.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub struct Edge {
        pub(crate) from: NodeId,
        pub(crate) to: NodeId,
        pub(crate) kind: EdgeKind,
        pub(crate) may_use: RegSet,
        pub(crate) may_def: RegSet,
        pub(crate) must_def: RegSet,
    }
}

impl Edge {
    /// Source node.
    #[inline]
    pub fn from(&self) -> NodeId {
        self.from
    }

    /// Destination node.
    #[inline]
    pub fn to(&self) -> NodeId {
        self.to
    }

    /// Flow-summary or call-return.
    #[inline]
    pub fn kind(&self) -> EdgeKind {
        self.kind
    }

    /// Registers used before defined along some summarized path.
    #[inline]
    pub fn may_use(&self) -> RegSet {
        self.may_use
    }

    /// Registers defined along some summarized path.
    #[inline]
    pub fn may_def(&self) -> RegSet {
        self.may_def
    }

    /// Registers defined along every summarized path.
    #[inline]
    pub fn must_def(&self) -> RegSet {
        self.must_def
    }
}

spike_isa::analysis_struct! {
    /// Per-routine node directory.
    #[derive(Clone, PartialEq, Eq, Debug, Default)]
    pub struct RoutineNodes {
        /// Entry node per entrance.
        pub(crate) entries: Vec<NodeId>,
        /// Exit node per `ret` block, in address order.
        pub(crate) exits: Vec<NodeId>,
        /// `(call block, call node, return node)` per call site, address order.
        pub(crate) calls: Vec<(BlockId, NodeId, NodeId)>,
        /// `(multiway block, branch node)` per branch node inserted.
        pub(crate) branches: Vec<(BlockId, NodeId)>,
        /// Halt sink nodes.
        pub(crate) halts: Vec<NodeId>,
        /// Unknown-jump sink nodes.
        pub(crate) unknown_jumps: Vec<NodeId>,
        /// Sink for regions that reach no summary point, if the routine has
        /// any.
        pub(crate) diverge: Option<NodeId>,
        /// Callee-saved registers this routine saves and restores (§3.4).
        pub(crate) saved_restored: RegSet,
    }
}

impl RoutineNodes {
    /// Entry node per entrance.
    pub fn entries(&self) -> &[NodeId] {
        &self.entries
    }

    /// Exit node per `ret` block, in address order.
    pub fn exits(&self) -> &[NodeId] {
        &self.exits
    }

    /// `(call block, call node, return node)` per call site.
    pub fn calls(&self) -> &[(BlockId, NodeId, NodeId)] {
        &self.calls
    }

    /// `(multiway block, branch node)` per inserted branch node.
    pub fn branches(&self) -> &[(BlockId, NodeId)] {
        &self.branches
    }

    /// Callee-saved registers this routine saves and restores.
    pub fn saved_restored(&self) -> RegSet {
        self.saved_restored
    }
}

/// Aggregate PSG size statistics (Tables 3–5 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PsgStats {
    /// Total nodes.
    pub nodes: usize,
    /// Total edges (flow-summary + call-return).
    pub edges: usize,
    /// Flow-summary edges only.
    pub flow_edges: usize,
    /// Call-return edges only.
    pub call_return_edges: usize,
    /// Entry nodes.
    pub entry_nodes: usize,
    /// Exit nodes.
    pub exit_nodes: usize,
    /// Call nodes (== return nodes).
    pub call_nodes: usize,
    /// Branch nodes inserted for multiway branches.
    pub branch_nodes: usize,
}

spike_isa::analysis_struct! {
    /// The Program Summary Graph: a compact representation of a program's
    /// intraprocedural and interprocedural control flow (§3.1).
    ///
    /// Nodes mark the program locations dataflow is collected for; each node
    /// carries `MAY-USE`/`MAY-DEF`/`MUST-DEF` sets (filled by phase 1) and a
    /// phase-2 liveness set. Edges summarize the register definitions and uses
    /// occurring on the control-flow paths they represent.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub struct Psg {
        pub(crate) nodes: Vec<NodeKind>,
        pub(crate) edges: Vec<Edge>,
        pub(crate) out_edges: Vec<Vec<EdgeId>>,
        pub(crate) in_edges: Vec<Vec<EdgeId>>,
        pub(crate) routines: Vec<RoutineNodes>,
        /// Per call-return edge: the callee entry nodes whose phase-1 values
        /// feed it (empty for flow edges and unknown-target calls).
        pub(crate) cr_sources: Vec<Vec<NodeId>>,
        /// Per node: the call-return edges fed by this (entry) node.
        pub(crate) entry_cr_edges: Vec<Vec<EdgeId>>,
        /// Per node: the callee exit nodes a (return) node broadcasts phase-2
        /// liveness to.
        pub(crate) return_exit_targets: Vec<Vec<NodeId>>,
        /// Nodes whose dataflow values are fixed (unknown-jump, halt sinks).
        pub(crate) pinned: Vec<bool>,
        /// Per node: the liveness pinned at an unknown-jump sink — every
        /// register by default, or the compiler-provided hint (§3.5
        /// extension). Meaningful only for [`NodeKind::UnknownJump`] nodes.
        pub(crate) uj_live: Vec<RegSet>,
        // Phase-1 node values.
        pub(crate) may_use: Vec<RegSet>,
        pub(crate) may_def: Vec<RegSet>,
        pub(crate) must_def: Vec<RegSet>,
        // Phase-2 node values (registers live at the node's location).
        pub(crate) live: Vec<RegSet>,
    }
}

impl Psg {
    /// Node kinds, indexed by [`NodeId`].
    #[inline]
    pub fn nodes(&self) -> &[NodeKind] {
        &self.nodes
    }

    /// All edges, indexed by [`EdgeId`].
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The kind of `n`.
    #[inline]
    pub fn node(&self, n: NodeId) -> NodeKind {
        self.nodes[n.index()]
    }

    /// The edge `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.index()]
    }

    /// Outgoing edges of `n`.
    #[inline]
    pub fn out_edges(&self, n: NodeId) -> &[EdgeId] {
        &self.out_edges[n.index()]
    }

    /// Incoming edges of `n`.
    #[inline]
    pub fn in_edges(&self, n: NodeId) -> &[EdgeId] {
        &self.in_edges[n.index()]
    }

    /// The node directory for `routine`.
    #[inline]
    pub fn routine_nodes(&self, routine: RoutineId) -> &RoutineNodes {
        &self.routines[routine.index()]
    }

    /// Node directories for every routine, indexed by routine id.
    #[inline]
    pub fn all_routine_nodes(&self) -> &[RoutineNodes] {
        &self.routines
    }

    /// Phase-1 `MAY-USE` of `n` (after convergence: the registers that may
    /// be used before definition downstream of the location, within the
    /// routine's dynamic extent).
    #[inline]
    pub fn may_use(&self, n: NodeId) -> RegSet {
        self.may_use[n.index()]
    }

    /// Phase-1 `MAY-DEF` of `n`.
    #[inline]
    pub fn may_def(&self, n: NodeId) -> RegSet {
        self.may_def[n.index()]
    }

    /// Phase-1 `MUST-DEF` of `n`.
    #[inline]
    pub fn must_def(&self, n: NodeId) -> RegSet {
        self.must_def[n.index()]
    }

    /// Phase-2 liveness at `n` (the registers that may be used along some
    /// valid continuation of execution from the node's location).
    #[inline]
    pub fn live(&self, n: NodeId) -> RegSet {
        self.live[n.index()]
    }

    /// Aggregate size statistics (Tables 3–5).
    pub fn stats(&self) -> PsgStats {
        let mut s =
            PsgStats { nodes: self.nodes.len(), edges: self.edges.len(), ..PsgStats::default() };
        for e in &self.edges {
            match e.kind {
                EdgeKind::FlowSummary => s.flow_edges += 1,
                EdgeKind::CallReturn => s.call_return_edges += 1,
            }
        }
        for n in &self.nodes {
            match n {
                NodeKind::Entry { .. } => s.entry_nodes += 1,
                NodeKind::Exit { .. } => s.exit_nodes += 1,
                NodeKind::Call { .. } => s.call_nodes += 1,
                NodeKind::Branch { .. } => s.branch_nodes += 1,
                _ => {}
            }
        }
        s
    }
}

spike_isa::impl_clone_exact_for_copy!(NodeId, EdgeId, NodeKind, EdgeKind);
