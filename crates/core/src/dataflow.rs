//! The two interprocedural dataflow phases (§3.2, §3.3).
//!
//! Phase 1 (Figure 8) computes each routine's `MAY-USE`/`MAY-DEF`/
//! `MUST-DEF` at its entry nodes — the call-used / call-killed /
//! call-defined summaries — propagating information from callees to
//! callers by copying entry-node values onto the call-return edges that
//! target the routine. Phase 2 (Figure 10) computes liveness
//! (live-at-entry / live-at-exit), propagating from callers to callees by
//! broadcasting each return node's liveness to the exits of every routine
//! that could return to it.
//!
//! Both phases run a monotone worklist to the least fixpoint. The paper
//! writes the equations as per-edge assignments; with several outgoing
//! edges the combination is union for the `MAY` sets and intersection for
//! `MUST-DEF` (see DESIGN.md). Because every value only grows, chaotic
//! iteration from the empty sets converges to the meet-over-all-valid-
//! paths solution.

use spike_isa::RegSet;

use crate::psg::{EdgeKind, NodeId, NodeKind, Psg};
use crate::worklist::FifoWorklist;

/// The phase-1 initialization value of a node: `(MAY-USE, MAY-DEF,
/// MUST-DEF)`. `MAY` sets start at ⊥ and grow; `MUST-DEF` is a
/// greatest-fixpoint problem and starts at ⊤ for interior nodes,
/// iterating downward. Sinks fix the boundary:
///
/// * exits: nothing more happens within the callee — `MUST-DEF` = ∅
///   (the caller takes over);
/// * unknown jumps (§3.5): may use and clobber anything, guarantee
///   nothing — `MAY` = ⊤, `MUST-DEF` = ∅;
/// * halts and diverging regions: no continuation ever returns, so
///   `MUST-DEF` is vacuously ⊤ — paths that cannot return must not
///   weaken a caller-visible intersection — and the `MAY` sets are ∅.
pub(crate) fn phase1_init_value(kind: NodeKind, uj_live: RegSet) -> (RegSet, RegSet, RegSet) {
    match kind {
        // The default is all registers live/clobbered; a §3.5 hint
        // narrows the live set.
        NodeKind::UnknownJump { .. } => (uj_live, RegSet::ALL, RegSet::EMPTY),
        NodeKind::Halt { .. } | NodeKind::Diverge { .. } => {
            (RegSet::EMPTY, RegSet::EMPTY, RegSet::ALL)
        }
        NodeKind::Exit { .. } => (RegSet::EMPTY, RegSet::EMPTY, RegSet::EMPTY),
        _ => (RegSet::EMPTY, RegSet::EMPTY, RegSet::ALL),
    }
}

/// The phase-2 initialization value of a node: liveness starts at ⊥
/// everywhere except the pinned unknown-jump sinks, which hold their
/// (possibly §3.5-hinted) live set throughout.
pub(crate) fn phase2_init_value(kind: NodeKind, uj_live: RegSet) -> RegSet {
    match kind {
        NodeKind::UnknownJump { .. } => uj_live,
        _ => RegSet::EMPTY,
    }
}

/// Runs phase 1 to convergence. Returns the number of node evaluations
/// (a proxy for analysis effort reported alongside the stage timers).
///
/// The phase is stratified: `MAY-DEF`/`MUST-DEF` are solved to their
/// fixpoint first, then `MAY-USE` with the (now frozen) `MUST-DEF` kill
/// sets. `MAY-USE`'s equation subtracts `MUST-DEF[E]`, so it is not
/// monotone while the kill sets are still growing; solving the kill sets
/// first restores monotonicity and yields the meet-over-valid-paths
/// solution for both strata.
///
/// `seed_order` gives the initial worklist order; callers pass PSG nodes
/// grouped by routine in bottom-up call-graph order (callees before
/// callers), which lets most call-return edges receive their final labels
/// on the first visit.
pub(crate) fn run_phase1(psg: &mut Psg, seed_order: &[NodeId]) -> usize {
    run_phase1_seeded(psg, seed_order, None, RegSet::ALL)
}

/// Phase 1 restricted to a *scope* and a register set: the one solver
/// behind the from-scratch run (`scope: None`, every node, `regs` all
/// registers) and incremental re-analysis (the reset subspace of
/// `crate::incremental`, and the registers whose equations its edit
/// changed).
///
/// `seed_order` lists exactly the in-scope nodes. Their `regs` bits are
/// reinitialized and solved; every other bit of theirs, and every bit of
/// every other node, keeps its value, which the caller guarantees is
/// final wherever the scope reads it. Every transfer treats each register
/// on its own (`∪`, `∩`, `−` of a fixed set), so a bit outside `regs`
/// that is already a fixpoint stays one. Two rules keep a scoped run
/// inside its scope and still exact:
///
/// * **Pull.** Before iterating, every known-target call-return edge
///   whose *call node* is in scope is recomputed from its source entries,
///   so a label is a function of its sources' current values however it
///   was left: sources outside the scope contribute their final values,
///   sources inside it their fresh initial ones.
/// * **Scope guard.** A changed entry rebroadcasts only onto call-return
///   edges whose call node is in scope. The incremental masks are
///   caller-closed, so there is no out-of-scope caller to skip.
///
/// See DESIGN.md "Phase solver: one FIFO worklist".
pub(crate) fn run_phase1_seeded(
    psg: &mut Psg,
    seed_order: &[NodeId],
    scope: Option<&[bool]>,
    regs: RegSet,
) -> usize {
    let n = psg.nodes.len();
    debug_assert!(
        scope.map_or(seed_order.len() == n, |m| m.len() == n
            && seed_order.len() == m.iter().filter(|&&b| b).count()),
        "the seed order must cover exactly the scope"
    );
    let in_scope = |i: usize| scope.is_none_or(|m| m[i]);
    let reset = |value: RegSet, init: RegSet| (value - regs) | (init & regs);

    // Initialization; see `phase1_init_value` for the boundary rationale.
    for &node in seed_order {
        let i = node.index();
        debug_assert!(in_scope(i), "seeded node outside the scope");
        let (may_use, may_def, must_def) = phase1_init_value(psg.nodes[i], psg.uj_live[i]);
        psg.may_use[i] = reset(psg.may_use[i], may_use);
        psg.may_def[i] = reset(psg.may_def[i], may_def);
        psg.must_def[i] = reset(psg.must_def[i], must_def);
    }
    // The pull. Only call nodes own call-return edges, and only
    // known-target ones have sources.
    for &node in seed_order {
        if !matches!(psg.nodes[node.index()], NodeKind::Call { .. }) {
            continue;
        }
        for k in 0..psg.out_edges[node.index()].len() {
            let e = psg.out_edges[node.index()][k];
            if !psg.cr_sources[e.index()].is_empty() {
                recompute_cr_defs(psg, e);
                recompute_cr_uses(psg, e);
            }
        }
    }

    // ---- Stratum A: MAY-DEF and MUST-DEF. ----
    let mut wl = FifoWorklist::new(n);
    for &node in seed_order {
        wl.push(node.index());
    }
    let mut visits = 0usize;
    while let Some(xi) = wl.pop() {
        if psg.pinned[xi] || psg.out_edges[xi].is_empty() {
            continue;
        }
        visits += 1;

        let mut may_def = RegSet::EMPTY;
        let mut must_def = RegSet::EMPTY;
        let mut first = true;
        for &e in &psg.out_edges[xi] {
            let edge = &psg.edges[e.index()];
            let yi = edge.to().index();
            may_def |= edge.may_def() | psg.may_def[yi];
            let md = edge.must_def() | psg.must_def[yi];
            if first {
                must_def = md;
                first = false;
            } else {
                must_def &= md;
            }
        }
        debug_assert!(
            psg.may_def[xi].is_subset(may_def) && must_def.is_subset(psg.must_def[xi]),
            "stratum A: MAY-DEF grows, MUST-DEF shrinks"
        );
        if may_def == psg.may_def[xi] && must_def == psg.must_def[xi] {
            continue;
        }
        psg.may_def[xi] = may_def;
        psg.must_def[xi] = must_def;

        for &e in &psg.in_edges[xi] {
            wl.push(psg.edges[e.index()].from().index());
        }
        // §3.2 broadcast: an entry node's values flow onto every
        // call-return edge representing a call that targets it, filtered
        // by the routine's saved-and-restored callee-saved registers
        // (§3.4). Multi-target (indirect) calls meet over their targets.
        // (Indexed loop: `recompute_cr_defs` needs `&mut psg`, and the
        // edge list itself is never mutated — no clone per broadcast.)
        if matches!(psg.nodes[xi], NodeKind::Entry { .. }) {
            for k in 0..psg.entry_cr_edges[xi].len() {
                let e = psg.entry_cr_edges[xi][k];
                let call = psg.edges[e.index()].from().index();
                if in_scope(call) && recompute_cr_defs(psg, e) {
                    wl.push(call);
                }
            }
        }
    }

    // ---- Stratum B: MAY-USE, with MUST-DEF kill sets frozen. ----
    let mut wl = FifoWorklist::new(n);
    for &node in seed_order {
        wl.push(node.index());
    }
    while let Some(xi) = wl.pop() {
        if psg.pinned[xi] || psg.out_edges[xi].is_empty() {
            continue;
        }
        visits += 1;

        let mut may_use = RegSet::EMPTY;
        for &e in &psg.out_edges[xi] {
            let edge = &psg.edges[e.index()];
            let yi = edge.to().index();
            may_use |= edge.may_use() | (psg.may_use[yi] - edge.must_def());
        }
        debug_assert!(
            psg.may_use[xi].is_subset(may_use),
            "stratum B values must grow monotonically"
        );
        if may_use == psg.may_use[xi] {
            continue;
        }
        psg.may_use[xi] = may_use;

        for &e in &psg.in_edges[xi] {
            wl.push(psg.edges[e.index()].from().index());
        }
        if matches!(psg.nodes[xi], NodeKind::Entry { .. }) {
            for k in 0..psg.entry_cr_edges[xi].len() {
                let e = psg.entry_cr_edges[xi][k];
                let call = psg.edges[e.index()].from().index();
                if in_scope(call) && recompute_cr_uses(psg, e) {
                    wl.push(call);
                }
            }
        }
    }
    visits
}

/// Recomputes a call-return edge's `MAY-DEF`/`MUST-DEF` from its source
/// entry nodes; returns whether either changed.
fn recompute_cr_defs(psg: &mut Psg, e: crate::psg::EdgeId) -> bool {
    let sources = &psg.cr_sources[e.index()];
    debug_assert!(!sources.is_empty(), "only known-target edges are recomputed");
    let mut may_def = RegSet::EMPTY;
    let mut must_def = RegSet::EMPTY;
    let mut first = true;
    for &s in sources {
        let si = s.index();
        let csr = psg.routines[psg.nodes[si].routine().index()].saved_restored;
        may_def |= psg.may_def[si] - csr;
        let md = psg.must_def[si] - csr;
        if first {
            must_def = md;
            first = false;
        } else {
            must_def &= md;
        }
    }
    let edge = &mut psg.edges[e.index()];
    debug_assert_eq!(edge.kind(), EdgeKind::CallReturn);
    let changed = edge.may_def != may_def || edge.must_def != must_def;
    edge.may_def = may_def;
    edge.must_def = must_def;
    changed
}

/// Recomputes a call-return edge's `MAY-USE` from its source entry nodes;
/// returns whether it changed.
fn recompute_cr_uses(psg: &mut Psg, e: crate::psg::EdgeId) -> bool {
    let sources = &psg.cr_sources[e.index()];
    debug_assert!(!sources.is_empty(), "only known-target edges are recomputed");
    let mut may_use = RegSet::EMPTY;
    for &s in sources {
        let si = s.index();
        let csr = psg.routines[psg.nodes[si].routine().index()].saved_restored;
        may_use |= psg.may_use[si] - csr;
    }
    let edge = &mut psg.edges[e.index()];
    debug_assert_eq!(edge.kind(), EdgeKind::CallReturn);
    let changed = edge.may_use != may_use;
    edge.may_use = may_use;
    changed
}

/// Runs phase 2 to convergence. `exit_seeds` pre-loads liveness at exit
/// nodes of externally callable routines (exported routines and the
/// program entry, whose unseen callers are assumed to follow the calling
/// standard). Returns the number of node evaluations.
pub(crate) fn run_phase2(psg: &mut Psg, exit_seeds: &[(NodeId, RegSet)]) -> usize {
    run_phase2_seeded(psg, exit_seeds, None, RegSet::ALL)
}

/// Phase 2 restricted to a *scope* and a register set, the liveness twin
/// of [`run_phase1_seeded`]: `None` and all registers is the from-scratch
/// run; a mask reinitializes and solves only the `regs` bits of its nodes
/// while every other bit keeps its value. The caller guarantees that
/// every return node broadcasting
/// into an in-scope exit is either in scope itself or final (the
/// incremental phase-2 mask is callee-closed), and that the call-return
/// labels of in-scope call nodes are final.
///
/// The return→exit broadcasts of *out-of-scope* callers are replayed once
/// at initialization, so in-scope exits recover the caller liveness they
/// would have accumulated from scratch — exit values are pure unions, so
/// replaying converged values is exact. During iteration a return node
/// broadcasts only into in-scope exits (the scope guard); exit seeds
/// likewise land only in scope.
pub(crate) fn run_phase2_seeded(
    psg: &mut Psg,
    exit_seeds: &[(NodeId, RegSet)],
    scope: Option<&[bool]>,
    regs: RegSet,
) -> usize {
    let n = psg.nodes.len();
    debug_assert!(scope.is_none_or(|m| m.len() == n), "scope mask must cover every node");
    let in_scope = |i: usize| scope.is_none_or(|m| m[i]);

    for i in 0..n {
        if in_scope(i) {
            let init = phase2_init_value(psg.nodes[i], psg.uj_live[i]);
            psg.live[i] = (psg.live[i] - regs) | (init & regs);
        }
    }
    for &(node, set) in exit_seeds {
        if in_scope(node.index()) {
            psg.live[node.index()] |= set;
        }
    }
    if scope.is_some() {
        // Replay every return→exit broadcast into the scope. Out-of-scope
        // callers contribute their converged (final) liveness, which the
        // run would otherwise never see because they are not
        // re-evaluated; in-scope callers contribute their freshly
        // reinitialized ∅, which is harmless under union and is superseded
        // as the worklist converges.
        for i in 0..n {
            if psg.return_exit_targets[i].is_empty() {
                continue;
            }
            let live = psg.live[i];
            for k in 0..psg.return_exit_targets[i].len() {
                let t = psg.return_exit_targets[i][k];
                if in_scope(t.index()) {
                    psg.live[t.index()] |= live;
                }
            }
        }
    }

    let mut wl = FifoWorklist::new(n);
    for i in (0..n).rev() {
        if in_scope(i) {
            wl.push(i);
        }
    }

    let mut visits = 0usize;
    while let Some(xi) = wl.pop() {
        if psg.pinned[xi] || psg.out_edges[xi].is_empty() {
            // Sinks (exits, halts, unknown jumps) are updated only by
            // seeds and broadcasts; nothing to evaluate.
            continue;
        }
        visits += 1;

        let mut live = psg.live[xi];
        for &e in &psg.out_edges[xi] {
            let edge = &psg.edges[e.index()];
            let yi = edge.to().index();
            live |= edge.may_use() | (psg.live[yi] - edge.must_def());
        }
        if live == psg.live[xi] {
            continue;
        }
        psg.live[xi] = live;

        for &e in &psg.in_edges[xi] {
            wl.push(psg.edges[e.index()].from().index());
        }

        // §3.3 broadcast: liveness at a return node flows to the exit
        // nodes of every routine that could return to it. (Indexed loop:
        // the target list is never mutated, only `live` and the worklist
        // are — no clone per broadcast.)
        for k in 0..psg.return_exit_targets[xi].len() {
            let ti = psg.return_exit_targets[xi][k].index();
            let merged = psg.live[ti] | live;
            if in_scope(ti) && merged != psg.live[ti] {
                psg.live[ti] = merged;
                for &e in &psg.in_edges[ti] {
                    wl.push(psg.edges[e.index()].from().index());
                }
            }
        }
    }
    visits
}
