//! Reusable worklists for monotone fixpoint solvers.
//!
//! Every dataflow engine in this workspace iterates the same way: pull an
//! item, re-evaluate its transfer function, and push its dependents when
//! the value changed. The two containers here factor that loop's queue
//! out:
//!
//! * [`FifoWorklist`] — chaotic iteration in arrival order. Correct for
//!   any monotone system, but an item can be re-evaluated long before its
//!   inputs have settled.
//! * [`PriorityWorklist`] — items carry a precomputed *rank* and are
//!   popped lowest-rank-first. With ranks chosen so that an item's inputs
//!   rank below it (e.g. reverse postorder for forward problems, or a
//!   dependency postorder over an SCC), most items see their final inputs
//!   on the first visit and the evaluation count approaches one per item
//!   per stratum.
//!
//! Both deduplicate: pushing an already-queued item is a no-op, so the
//! queue length never exceeds the item universe.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A FIFO worklist over dense `usize` items with membership dedup.
#[derive(Clone, Debug, Default)]
pub struct FifoWorklist {
    queue: VecDeque<usize>,
    queued: Vec<bool>,
}

impl FifoWorklist {
    /// An empty worklist over items `0..universe`.
    pub fn new(universe: usize) -> FifoWorklist {
        FifoWorklist { queue: VecDeque::with_capacity(universe), queued: vec![false; universe] }
    }

    /// Queues `item` unless it is already queued. Returns whether the
    /// item was newly queued.
    pub fn push(&mut self, item: usize) -> bool {
        if std::mem::replace(&mut self.queued[item], true) {
            return false;
        }
        self.queue.push_back(item);
        true
    }

    /// Pops the oldest queued item.
    pub fn pop(&mut self) -> Option<usize> {
        let item = self.queue.pop_front()?;
        self.queued[item] = false;
        Some(item)
    }

    /// Whether no items are queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

/// A priority worklist over dense `usize` items, popped lowest-rank-first
/// (ties broken by item id), with membership dedup.
///
/// The rank of an item is supplied at push time and must be stable for
/// the duration of one fixpoint run; the queue stores `(rank, item)`
/// pairs and the `queued` bitmap guarantees each item appears at most
/// once, so stale heap entries cannot arise.
///
/// The structure is designed for reuse: it drains to empty between
/// fixpoint runs (e.g. one run per call-graph SCC) and
/// [`PriorityWorklist::new`]'s backing allocations are kept across runs.
#[derive(Clone, Debug, Default)]
pub struct PriorityWorklist {
    heap: BinaryHeap<Reverse<(u32, u32)>>,
    queued: Vec<bool>,
}

impl PriorityWorklist {
    /// An empty worklist over items `0..universe`.
    pub fn new(universe: usize) -> PriorityWorklist {
        PriorityWorklist { heap: BinaryHeap::new(), queued: vec![false; universe] }
    }

    /// Widens the item universe to at least `0..universe`, so one
    /// drained worklist can serve problems of different sizes.
    pub fn cover(&mut self, universe: usize) {
        if self.queued.len() < universe {
            self.queued.resize(universe, false);
        }
    }

    /// Queues `item` at `rank` unless it is already queued. Returns
    /// whether the item was newly queued.
    pub fn push(&mut self, item: usize, rank: u32) -> bool {
        if std::mem::replace(&mut self.queued[item], true) {
            return false;
        }
        self.heap.push(Reverse((rank, item as u32)));
        true
    }

    /// Pops the lowest-ranked queued item.
    pub fn pop(&mut self) -> Option<usize> {
        let Reverse((_, item)) = self.heap.pop()?;
        let item = item as usize;
        self.queued[item] = false;
        Some(item)
    }

    /// Whether no items are queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_dedups_and_preserves_arrival_order() {
        let mut wl = FifoWorklist::new(4);
        assert!(wl.push(2));
        assert!(wl.push(0));
        assert!(!wl.push(2), "second push of a queued item is a no-op");
        assert_eq!(wl.pop(), Some(2));
        assert!(wl.push(2), "popped items can be re-queued");
        assert_eq!(wl.pop(), Some(0));
        assert_eq!(wl.pop(), Some(2));
        assert_eq!(wl.pop(), None);
        assert!(wl.is_empty());
    }

    #[test]
    fn priority_pops_lowest_rank_first() {
        let mut wl = PriorityWorklist::new(5);
        wl.push(4, 10);
        wl.push(0, 30);
        wl.push(2, 20);
        assert_eq!(wl.pop(), Some(4));
        assert_eq!(wl.pop(), Some(2));
        // Re-queue mid-drain: the late arrival still sorts by rank.
        wl.push(4, 10);
        assert_eq!(wl.pop(), Some(4));
        assert_eq!(wl.pop(), Some(0));
        assert_eq!(wl.pop(), None);
    }

    #[test]
    fn priority_breaks_rank_ties_by_item_id() {
        let mut wl = PriorityWorklist::new(3);
        wl.push(2, 7);
        wl.push(1, 7);
        wl.push(0, 7);
        assert_eq!(wl.pop(), Some(0));
        assert_eq!(wl.pop(), Some(1));
        assert_eq!(wl.pop(), Some(2));
    }

    #[test]
    fn a_covered_worklist_serves_a_wider_problem() {
        let mut wl = PriorityWorklist::default();
        wl.cover(2);
        wl.push(1, 0);
        assert_eq!(wl.pop(), Some(1));
        wl.cover(6);
        wl.cover(3);
        wl.push(5, 1);
        wl.push(0, 0);
        assert_eq!((wl.pop(), wl.pop(), wl.pop()), (Some(0), Some(5), None));
    }

    #[test]
    fn priority_dedups_within_a_run() {
        let mut wl = PriorityWorklist::new(2);
        assert!(wl.push(1, 5));
        assert!(!wl.push(1, 5));
        assert_eq!(wl.pop(), Some(1));
        assert!(wl.is_empty());
    }
}
