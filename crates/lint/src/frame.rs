//! The one witness search the checks share.
//!
//! Five checks walk routine-local control flow, all over the flow table
//! the CFG owns ([`RoutineCfg::flow`]): `uninit-read` through
//! `spike_opt`'s MUST-defined solver, the dead-store check through its
//! liveness solver, `unreachable-block`, the clobber check's two
//! reachability walks, and the `uninit-read` and `uninit-stack-read`
//! witnesses through [`witness`].

use std::collections::VecDeque;

use spike_cfg::{BlockId, RoutineCfg};

/// A shortest flow path, as block-start addresses, from one of `seeds`
/// to `target` that passes through no block `stops` accepts before
/// reaching `target`: the path along which a finding really happens.
/// Falls back to the lone target address when no such path exists.
pub(crate) fn witness(
    cfg: &RoutineCfg,
    seeds: impl IntoIterator<Item = BlockId>,
    target: BlockId,
    stops: impl Fn(BlockId) -> bool,
) -> Vec<u32> {
    let arcs = cfg.flow();
    let mut parent: Vec<Option<BlockId>> = vec![None; arcs.len()];
    let mut visited = vec![false; arcs.len()];
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
        for &s in arcs.succs(b) {
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
