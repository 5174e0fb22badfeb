//! Program Summary Graph construction (§3.1, §3.5, §3.6).

use spike_cfg::{BlockId, CallTarget, Csr, ProgramCfg, RoutineCfg, TermKind};
use spike_isa::RegSet;
use spike_program::{Program, RoutineId};

use crate::analysis::AnalysisOptions;
use crate::callee_saved::saved_restored_registers;
use crate::flow::{bits, set_bit, solve_edge, words_for, FlowScratch};
use crate::psg::{Edge, EdgeId, EdgeKind, NodeId, NodeKind, Psg, RoutineNodes};

/// Builds the PSG for `program`: one set of entry/exit/call/return (and
/// optionally branch) nodes per routine, flow-summary edges labeled by the
/// Figure-6 subgraph dataflow, and call-return edges wired to their callee
/// entry nodes for the phase-1 broadcast.
pub(crate) fn build_psg(program: &Program, pcfg: &ProgramCfg, options: &AnalysisOptions) -> Psg {
    let mut psg = Psg {
        nodes: Vec::new(),
        edges: Vec::new(),
        out_edges: Csr::empty(0),
        in_edges: Csr::empty(0),
        routines: Vec::with_capacity(pcfg.cfgs().len()),
        cr_sources: Csr::empty(0),
        entry_cr_edges: Csr::empty(0),
        return_exit_targets: Csr::empty(0),
        pinned: Vec::new(),
        uj_live: Vec::new(),
        may_use: Vec::new(),
        may_def: Vec::new(),
        must_def: Vec::new(),
        live: Vec::new(),
    };

    // Pass 1: create every node, so cross-routine references (call-return
    // sources, return-to-exit broadcasts) can be resolved in pass 2.
    for cfg in pcfg.cfgs() {
        let mut rn = RoutineNodes::default();
        for planned in plan_routine_nodes(program, cfg, options) {
            let n = push_node(&mut psg, planned.kind);
            psg.pinned[n.index()] = planned.pinned;
            psg.uj_live[n.index()] = planned.uj_live;
            register_node(&mut rn, planned.kind, n);
        }
        if options.callee_saved_filter {
            rn.saved_restored = saved_restored_registers(program, cfg, &options.calling_standard);
        }
        // The directory's lists give back their growth slack (see below).
        for list in [&mut rn.entries, &mut rn.exits, &mut rn.halts, &mut rn.unknown_jumps] {
            list.shrink_to_fit();
        }
        rn.calls.shrink_to_fit();
        rn.branches.shrink_to_fit();
        psg.routines.push(rn);
    }

    // Pass 2: per routine, chop the CFG at summary points and label
    // flow-summary and call-return edges. Planning reads the routines'
    // pass-1 node directories; applying a plan adds edges and at most a
    // diverge sink, which no plan reads.
    let mut scratch = FlowScratch::default();
    let mut wiring = Wiring::default();
    for cfg in pcfg.cfgs() {
        let plan = plan_routine_edges(&psg, cfg, options, &mut scratch);
        apply_routine_plan(&mut psg, cfg.routine(), plan, &mut wiring);
    }

    // Finalize adjacency and value arrays. Each table is one counting
    // sort over pairs listed in ascending edge id, so every row comes out
    // in ascending id order — the phase solvers visit rows in that order.
    // The arrays grown by `push` give back their slack, so a plain `Clone`
    // holds what `heap_bytes` charges.
    psg.nodes.shrink_to_fit();
    psg.edges.shrink_to_fit();
    psg.pinned.shrink_to_fit();
    psg.uj_live.shrink_to_fit();
    let n = psg.nodes.len();
    let edge_ids = || psg.edges.iter().enumerate().map(|(i, e)| (e, EdgeId::from_index(i)));
    psg.out_edges = Csr::from_pairs(n, edge_ids().map(|(e, id)| (e.from.index(), id)));
    psg.in_edges = Csr::from_pairs(n, edge_ids().map(|(e, id)| (e.to.index(), id)));
    let sources = wiring.sources.iter();
    psg.cr_sources =
        Csr::from_pairs(psg.edges.len(), sources.clone().map(|&(e, s)| (e.index(), s)));
    psg.entry_cr_edges = Csr::from_pairs(n, sources.map(|&(e, s)| (s.index(), e)));
    psg.return_exit_targets = Csr::from_pairs(n, wiring.exits.iter().map(|&(r, x)| (r.index(), x)));
    psg.may_use = vec![RegSet::EMPTY; n];
    psg.may_def = vec![RegSet::EMPTY; n];
    psg.must_def = vec![RegSet::EMPTY; n];
    psg.live = vec![RegSet::EMPTY; n];
    psg
}

/// One pass-1 node a routine will contribute, in creation order.
///
/// Node *planning* is pure — it reads only the routine's CFG and the
/// program's hint tables — so incremental re-analysis can re-plan a dirty
/// routine's nodes and compare them against the cached directory without
/// touching the PSG.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct PlannedNode {
    pub(crate) kind: NodeKind,
    pub(crate) pinned: bool,
    pub(crate) uj_live: RegSet,
}

/// Plans one routine's pass-1 nodes: entries, exits, call/return pairs,
/// optional branch nodes, and the halt / unknown-jump sinks, in the exact
/// order `build_psg` creates them. (Diverge sinks are not planned here;
/// they are created while applying the routine's *edge* plan.)
pub(crate) fn plan_routine_nodes(
    program: &Program,
    cfg: &RoutineCfg,
    options: &AnalysisOptions,
) -> Vec<PlannedNode> {
    let rid = cfg.routine();
    let flow = |kind| PlannedNode { kind, pinned: false, uj_live: RegSet::ALL };
    let mut plan = Vec::new();

    for (i, _) in cfg.entries().iter().enumerate() {
        plan.push(flow(NodeKind::Entry { routine: rid, index: i }));
    }
    for (i, _) in cfg.exits().iter().enumerate() {
        plan.push(flow(NodeKind::Exit { routine: rid, index: i }));
    }
    for block in cfg.call_blocks() {
        plan.push(flow(NodeKind::Call { routine: rid, block }));
        plan.push(flow(NodeKind::Return { routine: rid, block }));
    }
    if options.branch_nodes {
        for (bi, b) in cfg.blocks().iter().enumerate() {
            if matches!(b.term(), TermKind::MultiwayJump) {
                let block = BlockId::from_index(bi);
                plan.push(flow(NodeKind::Branch { routine: rid, block }));
            }
        }
    }
    for &block in cfg.halts() {
        plan.push(PlannedNode {
            kind: NodeKind::Halt { routine: rid, block },
            pinned: true,
            uj_live: RegSet::ALL,
        });
    }
    for &block in cfg.unknown_jumps() {
        // §3.5 extension: a compiler-provided hint replaces the
        // all-registers-live assumption at the unknown target.
        let uj_live = program.jump_hint(cfg.block(block).term_addr()).unwrap_or(RegSet::ALL);
        plan.push(PlannedNode {
            kind: NodeKind::UnknownJump { routine: rid, block },
            pinned: true,
            uj_live,
        });
    }
    plan
}

/// Files a freshly created pass-1 node under the right directory list.
/// Calls and returns are planned as adjacent pairs, so a `Return` closes
/// the `(block, call, ret)` triple its `Call` opened.
pub(crate) fn register_node(rn: &mut RoutineNodes, kind: NodeKind, id: NodeId) {
    match kind {
        NodeKind::Entry { .. } => rn.entries.push(id),
        NodeKind::Exit { .. } => rn.exits.push(id),
        NodeKind::Call { block, .. } => rn.calls.push((block, id, id)),
        NodeKind::Return { .. } => {
            rn.calls.last_mut().expect("return follows its call").2 = id;
        }
        NodeKind::Branch { block, .. } => rn.branches.push((block, id)),
        NodeKind::Halt { .. } => rn.halts.push(id),
        NodeKind::UnknownJump { .. } => rn.unknown_jumps.push(id),
        NodeKind::Diverge { .. } => unreachable!("diverge nodes are not planned in pass 1"),
    }
}

fn push_node(psg: &mut Psg, kind: NodeKind) -> NodeId {
    let id = NodeId::from_index(psg.nodes.len());
    psg.nodes.push(kind);
    psg.pinned.push(false);
    psg.uj_live.push(RegSet::ALL);
    id
}

/// The call-return wiring of every applied plan, as `(row, item)` pairs in
/// ascending edge id: what the three call-return tables are sorted from
/// once the last plan is in.
#[derive(Default)]
struct Wiring {
    /// `(call-return edge, callee entry node)`.
    sources: Vec<(EdgeId, NodeId)>,
    /// `(return node, callee exit node)`.
    exits: Vec<(NodeId, NodeId)>,
}

/// Fills `scratch.terminal` for `cfg`: per block, the summary node that
/// ends it (paths stop there), `u32::MAX` for every other block. Read off
/// the routine's node directory, which lists each summary block once.
fn mark_terminals(psg: &Psg, cfg: &RoutineCfg, scratch: &mut FlowScratch) {
    let rn = &psg.routines[cfg.routine().index()];
    let terminal = &mut scratch.terminal;
    terminal.clear();
    terminal.resize(cfg.blocks().len(), u32::MAX);
    let blocks = rn.calls.iter().map(|&(b, call, _)| (b, call)).chain(rn.branches.iter().copied());
    let sinks = [
        (cfg.exits(), &rn.exits),
        (cfg.halts(), &rn.halts),
        (cfg.unknown_jumps(), &rn.unknown_jumps),
    ];
    let sinks = sinks
        .into_iter()
        .flat_map(|(blocks, nodes)| blocks.iter().copied().zip(nodes.iter().copied()));
    for (b, node) in blocks.chain(sinks) {
        terminal[b.index()] = node.index() as u32;
    }
}

/// One edge a routine's plan will create, in creation order.
///
/// `edge.to` is a placeholder (the edge's own source) when `to_diverge`
/// is set: the routine's diverge sink does not exist until the plan is
/// applied, because diverge node ids depend on which *earlier* routines
/// needed one.
pub(crate) struct PlannedEdge {
    pub(crate) edge: Edge,
    pub(crate) to_diverge: bool,
    /// Call-return wiring, `Some` for call-return edges.
    pub(crate) cr: Option<CrWiring>,
}

/// A call-return edge's wiring as ranges into its plan's `wiring` buffer:
/// `wiring[start..mid]` are the callee entry nodes broadcasting to the
/// edge, `wiring[mid..end]` the callee exit nodes its return node listens
/// to.
#[derive(Clone, Copy)]
pub(crate) struct CrWiring {
    start: u32,
    mid: u32,
    end: u32,
}

/// Everything pass 2 computes for one routine, ready to replay into the
/// PSG.
pub(crate) struct RoutineEdgePlan {
    pub(crate) edges: Vec<PlannedEdge>,
    /// The node lists every [`CrWiring`] of the plan points into.
    wiring: Vec<NodeId>,
    pub(crate) needs_diverge: bool,
}

impl RoutineEdgePlan {
    /// The callee entry nodes broadcasting to a call-return edge.
    pub(crate) fn cr_sources(&self, cr: CrWiring) -> &[NodeId] {
        &self.wiring[cr.start as usize..cr.mid as usize]
    }

    /// The callee exit nodes a call-return edge's return node listens to.
    pub(crate) fn cr_exits(&self, cr: CrWiring) -> &[NodeId] {
        &self.wiring[cr.mid as usize..cr.end as usize]
    }
}

/// Plans one routine's flow-summary and call-return edges against the
/// pass-1 node tables, without touching `psg`, so incremental re-analysis
/// can compare the plan against the cached edges; the plan itself is the
/// only allocation.
pub(crate) fn plan_routine_edges(
    psg: &Psg,
    cfg: &RoutineCfg,
    options: &AnalysisOptions,
    scratch: &mut FlowScratch,
) -> RoutineEdgePlan {
    let rid = cfg.routine();
    let nblocks = cfg.blocks().len();
    let words = words_for(nblocks);
    let mut plan = RoutineEdgePlan { edges: Vec::new(), wiring: Vec::new(), needs_diverge: false };
    mark_terminals(psg, cfg, scratch);
    let FlowScratch {
        terminal,
        bwd_row,
        bwd,
        reaches_term,
        visited,
        subgraph,
        stack,
        reached,
        solver,
    } = scratch;
    let is_terminal = |b: usize| terminal[b] != u32::MAX;

    // Backward reachability to each terminal block: the blocks from which
    // the terminal can be reached without crossing another summary point,
    // one bitset row per terminal. `reaches_term` is their union; blocks
    // outside it sit in regions that can reach no summary point (infinite
    // loops) and are summarized by a conservative edge to the routine's
    // diverge sink.
    bwd_row.clear();
    bwd_row.resize(nblocks, u32::MAX);
    bwd.clear();
    reaches_term.clear();
    reaches_term.resize(words, 0);
    for ti in (0..nblocks).filter(|&b| is_terminal(b)) {
        let row_start = bwd.len();
        bwd_row[ti] = (row_start / words) as u32;
        bwd.resize(row_start + words, 0);
        let row = &mut bwd[row_start..];
        set_bit(row, ti);
        stack.clear();
        stack.push(BlockId::from_index(ti));
        while let Some(b) = stack.pop() {
            for &p in cfg.flow().preds(b) {
                // Paths may not flow *through* another summary point; a
                // predecessor ending at a summary point cannot be interior.
                // That includes every call block, the only flow
                // predecessors the CFG convention lacks.
                if !is_terminal(p.index()) && set_bit(row, p.index()) {
                    stack.push(p);
                }
            }
        }
        for (r, &w) in reaches_term.iter_mut().zip(row.iter()) {
            *r |= w;
        }
    }

    // Source points and the blocks their paths start at.
    let rn = &psg.routines[rid.index()];
    let entries =
        rn.entries.iter().zip(cfg.entries()).map(|(&node, b)| (node, std::slice::from_ref(b)));
    let returns =
        rn.calls.iter().filter_map(|&(block, _, ret_node)| match cfg.block(block).term() {
            TermKind::Call { return_to: Some(rt), .. } => {
                Some((ret_node, std::slice::from_ref(rt)))
            }
            _ => None,
        });
    let branches = rn.branches.iter().map(|&(block, node)| (node, cfg.succs(block)));

    visited.resize(words, 0);
    subgraph.resize(words, 0);
    for (source, starts) in entries.chain(returns).chain(branches) {
        // Forward traversal from the start blocks, cut at summary points.
        visited.fill(0);
        reached.clear();
        stack.clear();
        for &s in starts {
            if set_bit(visited, s.index()) {
                stack.push(s);
            }
        }
        while let Some(b) = stack.pop() {
            if is_terminal(b.index()) {
                reached.push(b);
                continue; // paths end at the summary point
            }
            for &s in cfg.succs(b) {
                if set_bit(visited, s.index()) {
                    stack.push(s);
                }
            }
        }
        reached.sort_unstable();

        for &t in reached.iter() {
            let row_start = bwd_row[t.index()] as usize * words;
            let row = &bwd[row_start..row_start + words];
            for ((s, &v), &w) in subgraph.iter_mut().zip(visited.iter()).zip(row) {
                *s = v & w;
            }
            let label = solve_edge(cfg, subgraph, t, starts, solver);
            plan.edges.push(PlannedEdge {
                edge: Edge {
                    from: source,
                    to: NodeId::from_index(terminal[t.index()] as usize),
                    kind: EdgeKind::FlowSummary,
                    may_use: label.may_use,
                    may_def: label.may_def,
                    must_def: label.must_def,
                },
                to_diverge: false,
                cr: None,
            });
        }

        // Regions reachable from this source that can reach no summary
        // point (infinite loops): summarize their register reads with a
        // conservative edge to the routine's diverge sink, so the uses on
        // never-terminating paths are not lost.
        for (s, (&v, &r)) in subgraph.iter_mut().zip(visited.iter().zip(reaches_term.iter())) {
            *s = v & !r;
        }
        if subgraph.iter().any(|&w| w != 0) {
            plan.needs_diverge = true;
            let mut may_use = RegSet::EMPTY;
            let mut may_def = RegSet::EMPTY;
            for b in bits(subgraph) {
                may_use |= cfg.blocks()[b].ubd();
                may_def |= cfg.blocks()[b].def();
            }
            plan.edges.push(PlannedEdge {
                edge: Edge {
                    from: source,
                    to: source, // placeholder; resolved when the plan is applied
                    kind: EdgeKind::FlowSummary,
                    may_use,
                    may_def,
                    must_def: RegSet::EMPTY,
                },
                to_diverge: true,
                cr: None,
            });
        }
    }

    // Call-return edges (§3.1): initially empty for known callees (filled
    // by the phase-1 broadcast), fixed calling-standard assumptions for
    // unknown callees (§3.5).
    for &(block, call_node, ret_node) in &rn.calls {
        let TermKind::Call { target, .. } = cfg.block(block).term() else {
            unreachable!("call list contains only call blocks");
        };

        // Known-target labels are filled by the phase-1 broadcast.
        // MUST-DEF iterates downward from ⊤, so it starts at ALL.
        let known = (RegSet::EMPTY, RegSet::EMPTY, RegSet::ALL);
        let start = plan.wiring.len() as u32;
        let callees: &[(RoutineId, usize)] = match target {
            CallTarget::Direct(callee, entry) => &[(*callee, *entry)],
            CallTarget::IndirectKnown(list) => list,
            CallTarget::IndirectUnknown | CallTarget::IndirectHinted { .. } => &[],
        };
        for &(callee, entry) in callees {
            plan.wiring.push(psg.routines[callee.index()].entries[entry]);
        }
        let mid = plan.wiring.len() as u32;
        for &(callee, _) in callees {
            plan.wiring.extend_from_slice(&psg.routines[callee.index()].exits);
        }
        let label = match target {
            CallTarget::Direct(..) | CallTarget::IndirectKnown(_) => known,
            CallTarget::IndirectUnknown => {
                let std = &options.calling_standard;
                (std.unknown_call_used(), std.unknown_call_killed(), std.unknown_call_defined())
            }
            // §3.5 extension: exact effects supplied by the compiler take
            // the place of the calling-standard assumptions.
            CallTarget::IndirectHinted { used, defined, killed } => (*used, *killed, *defined),
        };

        plan.edges.push(PlannedEdge {
            edge: Edge {
                from: call_node,
                to: ret_node,
                kind: EdgeKind::CallReturn,
                may_use: label.0,
                may_def: label.1,
                must_def: label.2,
            },
            to_diverge: false,
            cr: Some(CrWiring { start, mid, end: plan.wiring.len() as u32 }),
        });
    }

    plan
}

/// Replays one routine's plan into the PSG: its diverge sink, if it needs
/// one, then its edges and their call-return wiring. Called in routine-id
/// order.
fn apply_routine_plan(psg: &mut Psg, rid: RoutineId, plan: RoutineEdgePlan, wiring: &mut Wiring) {
    let diverge = plan.needs_diverge.then(|| {
        let d = push_node(psg, NodeKind::Diverge { routine: rid });
        psg.pinned[d.index()] = true;
        psg.routines[rid.index()].diverge = Some(d);
        d
    });

    for planned in &plan.edges {
        let mut edge = planned.edge.clone();
        if planned.to_diverge {
            edge.to = diverge.expect("plan with a diverge edge flags needs_diverge");
        }
        let eid = EdgeId::from_index(psg.edges.len());
        if let Some(cr) = planned.cr {
            wiring.sources.extend(plan.cr_sources(cr).iter().map(|&s| (eid, s)));
            wiring.exits.extend(plan.cr_exits(cr).iter().map(|&x| (edge.to, x)));
        }
        psg.edges.push(edge);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::AnalysisOptions;
    use spike_isa::Reg;
    use spike_program::ProgramBuilder;

    fn build(b: &ProgramBuilder, options: &AnalysisOptions) -> (Program, ProgramCfg, Psg) {
        let p = b.build().unwrap();
        let pcfg = ProgramCfg::build(&p);
        let psg = build_psg(&p, &pcfg, options);
        (p, pcfg, psg)
    }

    /// The paper's Figure 4: entry, one call, one exit, a diamond around
    /// the call. Nodes: entry, exit, call, return. Edges: E_A
    /// (entry→exit), E_B (entry→call), E_C (return→exit), E_CR.
    fn figure4_builder() -> ProgramBuilder {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            // Block 1: use R1 (a0), branch.
            .use_reg(Reg::A0)
            .cond(spike_isa::BranchCond::Eq, Reg::A0, "b3")
            // Block 2: def R2 (t0), def R3 (t1).
            .def(Reg::T0)
            .def(Reg::T1)
            .br("b4")
            // Block 3: def R2 (t0), call.
            .label("b3")
            .def(Reg::T0)
            .call("callee")
            // Block 4: def R3 (t1), exit.
            .label("b4")
            .def(Reg::T1)
            .ret();
        b.routine("callee").def(Reg::V0).ret();
        b
    }

    /// The adjacency rows against the edge list and the call-return rows
    /// against per-row vectors rebuilt from the node directories and the
    /// call targets, in the push order the phase worklists depend on.
    fn assert_rows_match_reference(p: &Program, options: &AnalysisOptions) {
        let pcfg = ProgramCfg::build(p);
        let psg = build_psg(p, &pcfg, options);
        let (n, m) = (psg.nodes.len(), psg.edges.len());
        for i in 0..n {
            let node = NodeId::from_index(i);
            let ids = |keep: &dyn Fn(&Edge) -> bool| -> Vec<EdgeId> {
                (0..m).map(EdgeId::from_index).filter(|&e| keep(psg.edge(e))).collect()
            };
            assert_eq!(psg.out_edges(node), &ids(&|e| e.from == node)[..], "out_edges({node:?})");
            assert_eq!(psg.in_edges(node), &ids(&|e| e.to == node)[..], "in_edges({node:?})");
        }

        let mut cr_sources: Vec<Vec<NodeId>> = vec![Vec::new(); m];
        let mut entry_cr_edges: Vec<Vec<EdgeId>> = vec![Vec::new(); n];
        let mut return_exit_targets: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for cfg in pcfg.cfgs() {
            for &(block, call, ret) in &psg.routine_nodes(cfg.routine()).calls {
                let TermKind::Call { target, .. } = cfg.block(block).term() else { unreachable!() };
                let callees = match target {
                    CallTarget::Direct(c, e) => vec![(*c, *e)],
                    CallTarget::IndirectKnown(list) => list.clone(),
                    _ => Vec::new(),
                };
                let [e] = psg.out_edges(call) else { panic!("a call node has one out-edge") };
                for &(c, entry) in &callees {
                    cr_sources[e.index()].push(psg.routine_nodes(c).entries[entry]);
                    return_exit_targets[ret.index()].extend(&psg.routine_nodes(c).exits);
                }
            }
        }
        for (e, sources) in cr_sources.iter().enumerate() {
            for s in sources {
                entry_cr_edges[s.index()].push(EdgeId::from_index(e));
            }
        }
        assert_eq!(psg.cr_sources.iter().collect::<Vec<_>>(), cr_sources);
        assert_eq!(psg.entry_cr_edges.iter().collect::<Vec<_>>(), entry_cr_edges);
        assert_eq!(psg.return_exit_targets.iter().collect::<Vec<_>>(), return_exit_targets);
    }

    #[test]
    fn csr_rows_match_the_per_row_reference() {
        let without_branch_nodes =
            AnalysisOptions { branch_nodes: false, ..AnalysisOptions::default() };
        for options in [AnalysisOptions::default(), without_branch_nodes] {
            for profile in spike_synth::profiles() {
                let p = spike_synth::generate(&profile, 30.0 / profile.routines as f64, 1);
                assert_rows_match_reference(&p, &options);
            }
            for seed in [1u64, 2, 3, 4] {
                assert_rows_match_reference(&spike_synth::generate_executable(seed, 40), &options);
            }
        }
    }

    #[test]
    fn figure4_node_and_edge_shape() {
        let b = figure4_builder();
        let (p, _, psg) = build(&b, &AnalysisOptions::default());
        let main = p.routine_by_name("main").unwrap();
        let rn = psg.routine_nodes(main);
        assert_eq!(rn.entries().len(), 1);
        assert_eq!(rn.exits().len(), 1);
        assert_eq!(rn.calls().len(), 1);

        // Edges within main: entry→exit, entry→call, return→exit + E_CR.
        let main_edges: Vec<&Edge> =
            psg.edges().iter().filter(|e| psg.node(e.from()).routine() == main).collect();
        assert_eq!(main_edges.len(), 4);
        let entry = rn.entries()[0];
        let exit = rn.exits()[0];
        let (_, call, ret) = rn.calls()[0];
        let find = |from, to| main_edges.iter().find(|e| e.from() == from && e.to() == to).copied();
        let ea = find(entry, exit).expect("E_A entry→exit");
        let eb = find(entry, call).expect("E_B entry→call");
        let ec = find(ret, exit).expect("E_C return→exit");
        let ecr = find(call, ret).expect("E_CR call→return");
        assert_eq!(ecr.kind(), EdgeKind::CallReturn);

        // E_A: paths through blocks 1,2,4: must-def {t0,t1}, may-use {a0,ra}.
        assert!(ea.must_def().contains(Reg::T0));
        assert!(ea.must_def().contains(Reg::T1));
        assert!(ea.may_use().contains(Reg::A0));
        assert!(!ea.may_use().contains(Reg::T0));

        // E_B: paths through blocks 1,3: defines t0 (and ra via bsr).
        assert!(eb.must_def().contains(Reg::T0));
        assert!(!eb.must_def().contains(Reg::T1));
        assert!(eb.may_use().contains(Reg::A0));

        // E_C: block 4 only: defines t1, uses ra (ret).
        assert_eq!(ec.may_def(), RegSet::of(&[Reg::T1]));
        assert!(ec.may_use().contains(Reg::RA));
    }

    /// Figure 12: a 3-way branch in a loop with a call at each target
    /// produces 9 return→call flow edges without branch nodes and 6 edges
    /// through a branch node with them.
    fn figure12_builder() -> ProgramBuilder {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .label("top")
            .switch(Reg::T0, &["c1", "c2", "c3"])
            .label("c1")
            .call("f")
            .br("top")
            .label("c2")
            .call("f")
            .br("top")
            .label("c3")
            .call("f")
            .br("top");
        b.routine("f").ret();
        b
    }

    fn flow_edges_between_calls(p: &Program, psg: &Psg) -> usize {
        let main = p.routine_by_name("main").unwrap();
        psg.edges()
            .iter()
            .filter(|e| e.kind() == EdgeKind::FlowSummary && psg.node(e.from()).routine() == main)
            .count()
    }

    #[test]
    fn figure12_branch_nodes_reduce_nine_edges_to_six() {
        let b = figure12_builder();

        let without = AnalysisOptions { branch_nodes: false, ..AnalysisOptions::default() };
        let (p, _, psg) = build(&b, &without);
        // entry→{3 calls} = 3, return_i→call_j = 9. Total 12 flow edges.
        assert_eq!(flow_edges_between_calls(&p, &psg), 12);
        assert_eq!(psg.stats().branch_nodes, 0);

        let with = AnalysisOptions::default();
        let (p, _, psg) = build(&b, &with);
        // entry→branch 1, branch→calls 3, return_i→branch 3. Total 7.
        assert_eq!(flow_edges_between_calls(&p, &psg), 7);
        assert_eq!(psg.stats().branch_nodes, 1);
        // The return→call portion went from 9 to 6 (3 return→branch +
        // 3 branch→call), exactly the paper's reduction.
    }

    #[test]
    fn unknown_indirect_call_gets_calling_standard_label() {
        let mut b = ProgramBuilder::new();
        b.routine("main").jsr_unknown(Reg::PV).halt();
        let (_, _, psg) = build(&b, &AnalysisOptions::default());
        let cr = psg
            .edges()
            .iter()
            .find(|e| e.kind() == EdgeKind::CallReturn)
            .expect("call-return edge");
        let std = spike_isa::CallingStandard::alpha_nt();
        assert_eq!(cr.may_use(), std.unknown_call_used());
        assert_eq!(cr.may_def(), std.unknown_call_killed());
        assert_eq!(cr.must_def(), std.unknown_call_defined());
    }

    #[test]
    fn halt_and_unknown_jump_nodes_are_pinned_sinks() {
        let mut b = ProgramBuilder::new();
        b.routine("main")
            .cond(spike_isa::BranchCond::Eq, Reg::A0, "j")
            .halt()
            .label("j")
            .insn(spike_isa::Instruction::Jmp { base: Reg::T0 });
        let (p, _, psg) = build(&b, &AnalysisOptions::default());
        let main = p.routine_by_name("main").unwrap();
        let rn = psg.routine_nodes(main);
        assert_eq!(rn.halts.len(), 1);
        assert_eq!(rn.unknown_jumps.len(), 1);
        assert!(psg.pinned[rn.halts[0].index()]);
        assert!(psg.pinned[rn.unknown_jumps[0].index()]);
        // Both received incoming flow edges from the entry.
        assert!(!psg.in_edges(rn.halts[0]).is_empty());
        assert!(!psg.in_edges(rn.unknown_jumps[0]).is_empty());
    }

    #[test]
    fn recursive_call_produces_self_routine_wiring() {
        let mut b = ProgramBuilder::new();
        b.routine("rec")
            .cond(spike_isa::BranchCond::Eq, Reg::A0, "base")
            .call("rec")
            .ret()
            .label("base")
            .ret();
        b.routine("main").call("rec").halt();
        let (p, _, psg) = build(&b, &AnalysisOptions::default());
        let rec = p.routine_by_name("rec").unwrap();
        let rn = psg.routine_nodes(rec);
        let entry = rn.entries()[0];
        // Two call sites target rec's entry: its own and main's.
        assert_eq!(psg.entry_cr_edges[entry.index()].len(), 2);
        // rec's return node broadcasts to rec's two exits.
        let (_, _, ret_node) = rn.calls()[0];
        assert_eq!(psg.return_exit_targets[ret_node.index()].len(), 2);
    }
}
