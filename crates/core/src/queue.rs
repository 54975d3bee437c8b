//! The redundancy queue of search-direction copies (paper §3, Fig. 1).
//!
//! Each rank keeps the redundant `(global index, value)` pairs it *received*
//! during ASpMV iterations — i.e. the copies it holds **for other ranks** —
//! in a three-slot FIFO. Three slots (not two) are required because a
//! failure may strike after only the first iteration of a storage stage has
//! completed, in which case the two newest slots are not consecutive and
//! recovery must fall back to the previous stage's pair (paper §3).

use std::collections::VecDeque;
use std::ops::Range;

/// One stored redundant copy: the entries this rank received during the
/// ASpMV of iteration `iter`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueSlot {
    /// The PCG iteration whose search direction these entries belong to.
    pub iter: usize,
    /// `(global index, value)` pairs, unsorted, possibly with duplicates
    /// (an entry can arrive from its owner once per ASpMV, but the same
    /// owner never sends the same entry to the same rank twice).
    pub entries: Vec<(usize, f64)>,
}

/// A bounded FIFO of [`QueueSlot`]s, capacity three.
#[derive(Debug, Clone, Default)]
pub struct RedundancyQueue {
    slots: VecDeque<QueueSlot>,
}

/// Queue capacity: the paper's three slots.
pub const QUEUE_DEPTH: usize = 3;

impl RedundancyQueue {
    /// An empty queue (`Q = [_, _, _]` in the paper's notation).
    pub fn new() -> Self {
        RedundancyQueue {
            slots: VecDeque::with_capacity(QUEUE_DEPTH + 1),
        }
    }

    /// Pushes the redundant copy for iteration `iter`. If the newest slot
    /// already holds the same iteration (which happens when the solver
    /// rolls back and re-executes a storage iteration), it is replaced
    /// instead, keeping the queue identical to an undisturbed run's.
    /// Returns the buffer that left the queue — the evicted oldest slot's
    /// or the replaced one's, contents intact — so the caller can fill it
    /// with the next capture instead of allocating.
    pub fn push(&mut self, iter: usize, entries: Vec<(usize, f64)>) -> Option<Vec<(usize, f64)>> {
        if let Some(newest) = self.slots.back_mut() {
            assert!(
                newest.iter <= iter,
                "queue pushes must be monotone in iteration (got {iter} after {})",
                newest.iter
            );
            if newest.iter == iter {
                return Some(std::mem::replace(&mut newest.entries, entries));
            }
        }
        self.slots.push_back(QueueSlot { iter, entries });
        if self.slots.len() > QUEUE_DEPTH {
            self.slots.pop_front().map(|s| s.entries)
        } else {
            None
        }
    }

    /// Number of occupied slots (≤ 3).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The slot for iteration `iter`, if present.
    pub fn slot(&self, iter: usize) -> Option<&QueueSlot> {
        self.slots.iter().find(|s| s.iter == iter)
    }

    /// The iterations currently held, oldest first.
    pub fn iters(&self) -> Vec<usize> {
        self.slots.iter().map(|s| s.iter).collect()
    }

    /// The newest iteration ĵ such that both ĵ and ĵ−1 are held — the
    /// iteration ESR/ESRP can reconstruct. `None` if no consecutive pair
    /// exists (recovery must fall back to a full restart).
    pub fn latest_consecutive_pair(&self) -> Option<usize> {
        let iters = self.iters();
        iters
            .windows(2)
            .rev()
            .find(|w| w[0] + 1 == w[1])
            .map(|w| w[1])
    }

    /// Drops every slot newer than `iter` (rollback: the solver will
    /// re-create them as it re-executes).
    pub fn purge_after(&mut self, iter: usize) {
        while matches!(self.slots.back(), Some(s) if s.iter > iter) {
            self.slots.pop_back();
        }
    }

    /// Drops everything (node failure: the local copies are lost).
    pub fn clear(&mut self) {
        self.slots.clear();
    }

    /// Appends to `out` the values held for iteration `iter` whose global
    /// index lies within `owned` — what a survivor contributes when the rank
    /// owning `owned` failed — in capture order, which is the order of the
    /// owner's static send lists. Returns false, appending nothing, if no
    /// slot holds `iter`.
    pub fn values_in_range_into(
        &self,
        iter: usize,
        owned: Range<usize>,
        out: &mut Vec<f64>,
    ) -> bool {
        let Some(s) = self.slot(iter) else {
            return false;
        };
        let of_owner = s.entries.iter().filter(|(g, _)| owned.contains(g));
        out.extend(of_owner.map(|&(_, v)| v));
        true
    }

    /// Total stored pairs across slots (memory footprint metric).
    pub fn stored_entries(&self) -> usize {
        self.slots.iter().map(|s| s.entries.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(v: &[usize]) -> Vec<(usize, f64)> {
        v.iter().map(|&g| (g, g as f64)).collect()
    }

    #[test]
    fn fifo_of_three() {
        let mut q = RedundancyQueue::new();
        assert!(q.is_empty());
        q.push(10, pairs(&[1]));
        q.push(11, pairs(&[2]));
        q.push(20, pairs(&[3]));
        assert_eq!(q.iters(), vec![10, 11, 20]);
        q.push(21, pairs(&[4]));
        assert_eq!(q.iters(), vec![11, 20, 21], "oldest slot evicted");
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn paper_figure1_trace() {
        // T = 5: pushes at 5, 6, 10, 11, ... — replicate Fig. 1's states.
        let mut q = RedundancyQueue::new();
        q.push(5, vec![]);
        assert_eq!(q.iters(), vec![5]);
        assert_eq!(q.latest_consecutive_pair(), None);
        q.push(6, vec![]);
        assert_eq!(q.latest_consecutive_pair(), Some(6));
        q.push(10, vec![]);
        // Newest two are (6, 10): not consecutive; recovery falls back to 6.
        assert_eq!(q.iters(), vec![5, 6, 10]);
        assert_eq!(q.latest_consecutive_pair(), Some(6));
        q.push(11, vec![]);
        assert_eq!(q.iters(), vec![6, 10, 11]);
        assert_eq!(q.latest_consecutive_pair(), Some(11));
    }

    #[test]
    fn push_same_iteration_replaces() {
        let mut q = RedundancyQueue::new();
        q.push(5, pairs(&[1, 2]));
        q.push(6, pairs(&[3]));
        q.push(6, pairs(&[4, 5, 6]));
        assert_eq!(q.iters(), vec![5, 6]);
        assert_eq!(q.slot(6).unwrap().entries, pairs(&[4, 5, 6]));
    }

    #[test]
    fn push_hands_back_the_buffer_that_left_the_queue() {
        let mut q = RedundancyQueue::new();
        for j in 0..QUEUE_DEPTH {
            assert_eq!(q.push(j, pairs(&[j, j + 10])), None, "nothing left yet");
        }
        let evicted = q
            .push(QUEUE_DEPTH, pairs(&[99]))
            .expect("oldest slot evicted");
        assert_eq!(evicted, pairs(&[0, 10]), "the evicted slot's own buffer");
        assert!(evicted.capacity() >= 2);
        // A same-iteration re-push (re-executed storage iteration) hands
        // back the replaced buffer.
        let replaced = q
            .push(QUEUE_DEPTH, pairs(&[7, 8, 9]))
            .expect("slot replaced");
        assert_eq!(replaced, pairs(&[99]));
        assert_eq!(q.len(), QUEUE_DEPTH);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn non_monotone_push_panics() {
        let mut q = RedundancyQueue::new();
        q.push(6, vec![]);
        q.push(5, vec![]);
    }

    #[test]
    fn purge_after_enables_clean_rollback() {
        let mut q = RedundancyQueue::new();
        q.push(5, vec![]);
        q.push(6, vec![]);
        q.push(10, vec![]);
        q.purge_after(6);
        assert_eq!(q.iters(), vec![5, 6]);
        // Re-execution re-pushes 6 then continues.
        q.push(6, pairs(&[9]));
        q.push(10, vec![]);
        assert_eq!(q.iters(), vec![5, 6, 10]);
    }

    #[test]
    fn entries_in_range_filters() {
        let mut q = RedundancyQueue::new();
        q.push(7, vec![(3, 0.3), (11, 1.1), (25, 2.5), (10, 1.0)]);
        let mut out = vec![-1.0];
        assert!(q.values_in_range_into(7, 10..20, &mut out));
        assert_eq!(out, vec![-1.0, 1.1, 1.0], "appended in capture order");
        assert!(!q.values_in_range_into(8, 0..100, &mut out), "missing slot");
        assert!(q.values_in_range_into(7, 50..60, &mut out));
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn clear_simulates_node_loss() {
        let mut q = RedundancyQueue::new();
        q.push(5, pairs(&[1]));
        q.push(6, pairs(&[2]));
        assert_eq!(q.stored_entries(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.latest_consecutive_pair(), None);
        assert_eq!(q.stored_entries(), 0);
    }

    #[test]
    fn esr_mode_every_iteration() {
        // T = 1: pushes every iteration; pair always (j-1, j).
        let mut q = RedundancyQueue::new();
        for j in 0..10 {
            q.push(j, vec![]);
            if j >= 1 {
                assert_eq!(q.latest_consecutive_pair(), Some(j));
            }
        }
        assert_eq!(q.iters(), vec![7, 8, 9]);
    }
}
