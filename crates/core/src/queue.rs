//! The redundancy queue of search-direction copies (paper §3, Fig. 1).
//!
//! Each rank keeps the redundant copies it *received* during ASpMV
//! iterations — the copies it holds **for other ranks** — in a three-slot
//! FIFO of [`Capture`]s: values only, one slice per source, so per node
//! 3 × `|I′|` values. Three slots (not two) are required because a
//! failure may strike after only the first iteration of a storage stage has
//! completed, in which case the two newest slots are not consecutive and
//! recovery must fall back to the previous stage's pair (paper §3).

use std::collections::VecDeque;
use std::ops::Range;

/// The redundant copies one ASpMV delivered to this rank: the received
/// values in arrival order, and per message its source and the slice it
/// filled — the source's entries over the static list `I′(src, me)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Capture {
    values: Vec<f64>,
    slices: Vec<(usize, Range<usize>)>,
}

impl Capture {
    /// Appends the payload of the message `src` sent — its only message of
    /// the exchange, or the lookup by source would lose values.
    pub fn record(&mut self, src: usize, vals: &[f64]) {
        assert!(
            self.slices.iter().all(|(s, _)| *s != src),
            "capture: a second message from rank {src}"
        );
        let start = self.values.len();
        self.values.extend_from_slice(vals);
        self.slices.push((src, start..self.values.len()));
    }

    /// The values received from `src`; empty if `src` sent nothing.
    pub(crate) fn sent_by(&self, src: usize) -> &[f64] {
        let slice = self.slices.iter().find(|(s, _)| *s == src);
        slice.map_or(&[][..], |(_, range)| &self.values[range.clone()])
    }

    /// Empties the capture, keeping its buffers for the next one.
    pub(crate) fn clear(&mut self) {
        self.values.clear();
        self.slices.clear();
    }
}

/// A bounded FIFO of `(iteration, capture)` slots, capacity three.
#[derive(Debug, Clone, Default)]
pub struct RedundancyQueue {
    slots: VecDeque<(usize, Capture)>,
}

/// Queue capacity: the paper's three slots.
pub(crate) const QUEUE_DEPTH: usize = 3;

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
    /// Returns the capture that left the queue — the evicted oldest slot's
    /// or the replaced one's, contents intact — so the caller can fill it
    /// with the next capture instead of allocating.
    pub fn push(&mut self, iter: usize, capture: Capture) -> Option<Capture> {
        if let Some((newest, held)) = self.slots.back_mut() {
            assert!(
                *newest <= iter,
                "queue pushes must be monotone in iteration (got {iter} after {newest})"
            );
            if *newest == iter {
                return Some(std::mem::replace(held, capture));
            }
        }
        self.slots.push_back((iter, capture));
        if self.slots.len() > QUEUE_DEPTH {
            self.slots.pop_front().map(|(_, c)| c)
        } else {
            None
        }
    }

    /// Number of occupied slots (≤ 3).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no slot is occupied.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The iterations currently held, oldest first.
    pub fn iters(&self) -> Vec<usize> {
        self.slots.iter().map(|&(j, _)| j).collect()
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
        while matches!(self.slots.back(), Some(&(j, _)) if j > iter) {
            self.slots.pop_back();
        }
    }

    /// Drops everything (node failure: the local copies are lost).
    pub fn clear(&mut self) {
        self.slots.clear();
    }

    /// The values iteration `iter` received from rank `src`: `None` if no
    /// slot holds `iter`, empty if `src` sent nothing then.
    pub fn received(&self, iter: usize, src: usize) -> Option<&[f64]> {
        let (_, held) = self.slots.iter().find(|&&(j, _)| j == iter)?;
        Some(held.sent_by(src))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A capture of one message from each `(src, values)`, in that order.
    fn capture(messages: &[(usize, &[f64])]) -> Capture {
        let mut c = Capture::default();
        for &(src, vals) in messages {
            c.record(src, vals);
        }
        c
    }

    #[test]
    fn fifo_of_three() {
        let mut q = RedundancyQueue::new();
        assert!(q.is_empty());
        q.push(10, capture(&[(0, &[1.0])]));
        q.push(11, capture(&[(0, &[2.0])]));
        q.push(20, capture(&[(0, &[3.0])]));
        assert_eq!(q.iters(), vec![10, 11, 20]);
        q.push(21, capture(&[(0, &[4.0])]));
        assert_eq!(q.iters(), vec![11, 20, 21], "oldest slot evicted");
        assert_eq!(q.len(), 3);
        assert_eq!(q.received(10, 0), None, "evicted with its values");
    }

    #[test]
    fn paper_figure1_trace() {
        // T = 5: pushes at 5, 6, 10, 11, ... — replicate Fig. 1's states.
        let mut q = RedundancyQueue::new();
        q.push(5, Capture::default());
        assert_eq!(q.iters(), vec![5]);
        assert_eq!(q.latest_consecutive_pair(), None);
        q.push(6, Capture::default());
        assert_eq!(q.latest_consecutive_pair(), Some(6));
        q.push(10, Capture::default());
        // Newest two are (6, 10): not consecutive; recovery falls back to 6.
        assert_eq!(q.iters(), vec![5, 6, 10]);
        assert_eq!(q.latest_consecutive_pair(), Some(6));
        q.push(11, Capture::default());
        assert_eq!(q.iters(), vec![6, 10, 11]);
        assert_eq!(q.latest_consecutive_pair(), Some(11));
    }

    #[test]
    fn push_same_iteration_replaces() {
        let mut q = RedundancyQueue::new();
        q.push(5, capture(&[(1, &[1.0, 2.0])]));
        q.push(6, capture(&[(1, &[3.0])]));
        q.push(6, capture(&[(1, &[4.0, 5.0]), (2, &[6.0])]));
        assert_eq!(q.iters(), vec![5, 6]);
        assert_eq!(q.received(6, 1), Some(&[4.0, 5.0][..]));
        assert_eq!(q.received(6, 2), Some(&[6.0][..]));
    }

    #[test]
    fn push_hands_back_the_buffer_that_left_the_queue() {
        let mut q = RedundancyQueue::new();
        let first = capture(&[(0, &[0.0, 10.0]), (2, &[20.0])]);
        assert_eq!(q.push(0, first.clone()), None, "nothing left yet");
        for j in 1..QUEUE_DEPTH {
            assert_eq!(q.push(j, capture(&[(0, &[j as f64])])), None);
        }
        let evicted = q
            .push(QUEUE_DEPTH, capture(&[(1, &[99.0])]))
            .expect("oldest slot evicted");
        assert_eq!(evicted, first, "the evicted slot's own capture");
        // A same-iteration re-push (re-executed storage iteration) hands
        // back the replaced capture.
        let replaced = q
            .push(QUEUE_DEPTH, capture(&[(1, &[7.0, 8.0, 9.0])]))
            .expect("slot replaced");
        assert_eq!(replaced, capture(&[(1, &[99.0])]));
        assert_eq!(q.len(), QUEUE_DEPTH);
        // Cleared for the next capture, it keeps its buffers.
        let mut reused = evicted;
        reused.clear();
        assert!(reused.values.is_empty() && reused.sent_by(0).is_empty());
        assert!(reused.values.capacity() >= 3 && reused.slices.capacity() >= 2);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn non_monotone_push_panics() {
        let mut q = RedundancyQueue::new();
        q.push(6, Capture::default());
        q.push(5, Capture::default());
    }

    #[test]
    #[should_panic(expected = "a second message from rank 4")]
    fn a_capture_takes_one_message_per_source() {
        capture(&[(4, &[1.0]), (2, &[2.0]), (4, &[3.0])]);
    }

    #[test]
    fn purge_after_enables_clean_rollback() {
        let mut q = RedundancyQueue::new();
        q.push(5, Capture::default());
        q.push(6, Capture::default());
        q.push(10, capture(&[(3, &[1.0])]));
        q.purge_after(6);
        assert_eq!(q.iters(), vec![5, 6]);
        assert_eq!(q.received(10, 3), None, "purged with its values");
        // Re-execution re-pushes 6 then continues.
        q.push(6, capture(&[(3, &[9.0])]));
        q.push(10, Capture::default());
        assert_eq!(q.iters(), vec![5, 6, 10]);
        assert_eq!(q.received(6, 3), Some(&[9.0][..]));
    }

    #[test]
    fn received_looks_up_one_source_whatever_the_arrival_order() {
        let mut q = RedundancyQueue::new();
        // Halo peers first, then a stand-alone source below them.
        let c = capture(&[(2, &[0.2, 0.3]), (5, &[0.5]), (0, &[0.0, 0.1, 0.15])]);
        assert_eq!(c.values.len(), 6);
        q.push(7, c);
        assert_eq!(q.received(7, 0), Some(&[0.0, 0.1, 0.15][..]));
        assert_eq!(q.received(7, 2), Some(&[0.2, 0.3][..]));
        assert_eq!(q.received(7, 5), Some(&[0.5][..]));
        // A held slot with no message from the source, and a missing slot.
        assert_eq!(q.received(7, 1), Some(&[][..]));
        assert_eq!(q.received(8, 0), None);
    }

    #[test]
    fn clear_simulates_node_loss() {
        let mut q = RedundancyQueue::new();
        q.push(5, capture(&[(0, &[1.0])]));
        q.push(6, capture(&[(0, &[2.0])]));
        assert_eq!(q.received(6, 0), Some(&[2.0][..]));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.latest_consecutive_pair(), None);
        assert_eq!(q.received(5, 0), None);
        assert_eq!(q.received(6, 0), None);
    }

    #[test]
    fn esr_mode_every_iteration() {
        // T = 1: pushes every iteration; pair always (j-1, j).
        let mut q = RedundancyQueue::new();
        for j in 0..10 {
            q.push(j, Capture::default());
            if j >= 1 {
                assert_eq!(q.latest_consecutive_pair(), Some(j));
            }
        }
        assert_eq!(q.iters(), vec![7, 8, 9]);
    }
}
