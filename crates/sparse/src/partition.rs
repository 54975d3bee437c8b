//! Block-row distribution of matrix rows and vector entries over ranks.
//!
//! The paper (§1.2) distributes disjoint subsets `I_s` of *consecutive*
//! indices over the `N` nodes, as PETSc does. [`Partition`] captures exactly
//! that: a non-decreasing offset array; rank `s` owns global indices
//! `offsets[s]..offsets[s+1]`.

use std::ops::Range;

/// A contiguous block-row partition of `0..n` over `N` ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    offsets: Vec<usize>,
}

impl Partition {
    /// Balanced partition of `n` indices over `n_ranks` ranks: the first
    /// `n % n_ranks` ranks get `⌈n / n_ranks⌉` indices, the rest
    /// `⌊n / n_ranks⌋`.
    ///
    /// # Panics
    /// Panics if `n_ranks == 0`.
    pub fn balanced(n: usize, n_ranks: usize) -> Self {
        assert!(n_ranks > 0, "partition requires at least one rank");
        let base = n / n_ranks;
        let extra = n % n_ranks;
        let mut offsets = Vec::with_capacity(n_ranks + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for s in 0..n_ranks {
            acc += base + usize::from(s < extra);
            offsets.push(acc);
        }
        Partition { offsets }
    }

    /// Partition from explicit offsets. Must start at 0 and be
    /// non-decreasing; the last offset is the global size.
    ///
    /// # Panics
    /// Panics if the offsets are empty, don't start at 0, or decrease.
    pub fn from_offsets(offsets: Vec<usize>) -> Self {
        assert!(offsets.len() >= 2, "need at least one rank");
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be non-decreasing"
        );
        Partition { offsets }
    }

    /// Number of ranks.
    #[inline]
    pub fn n_ranks(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Global problem size.
    #[inline]
    pub fn n(&self) -> usize {
        *self.offsets.last().expect("offsets non-empty")
    }

    /// The index range `I_s` owned by `rank`.
    #[inline]
    pub fn range(&self, rank: usize) -> Range<usize> {
        self.offsets[rank]..self.offsets[rank + 1]
    }

    /// Number of indices owned by `rank`.
    #[inline]
    pub fn local_len(&self, rank: usize) -> usize {
        self.offsets[rank + 1] - self.offsets[rank]
    }

    /// The rank owning global index `i` (if several ranks are empty at that
    /// boundary, the one that actually contains `i`).
    ///
    /// # Panics
    /// Panics if `i >= n()`.
    pub fn owner_of(&self, i: usize) -> usize {
        assert!(
            i < self.n(),
            "owner_of: index {i} out of range {}",
            self.n()
        );
        // partition_point returns the first offset > i, i.e. (owner + 1).
        let p = self.offsets.partition_point(|&o| o <= i);
        p - 1
    }

    /// Iterator over `(rank, range)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
        (0..self.n_ranks()).map(move |s| (s, self.range(s)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_splits_evenly() {
        let p = Partition::balanced(10, 2);
        assert_eq!(p.range(0), 0..5);
        assert_eq!(p.range(1), 5..10);
        assert_eq!(p.n(), 10);
        assert_eq!(p.n_ranks(), 2);
    }

    #[test]
    fn balanced_distributes_remainder_to_leading_ranks() {
        let p = Partition::balanced(10, 3);
        assert_eq!(p.local_len(0), 4);
        assert_eq!(p.local_len(1), 3);
        assert_eq!(p.local_len(2), 3);
        assert_eq!(p.range(1), 4..7);
    }

    #[test]
    fn more_ranks_than_rows_leaves_empty_ranks() {
        let p = Partition::balanced(2, 4);
        assert_eq!(p.local_len(0), 1);
        assert_eq!(p.local_len(1), 1);
        assert_eq!(p.local_len(2), 0);
        assert_eq!(p.local_len(3), 0);
    }

    #[test]
    fn owner_of_respects_boundaries() {
        let p = Partition::balanced(10, 3); // [0..4), [4..7), [7..10)
        assert_eq!(p.owner_of(0), 0);
        assert_eq!(p.owner_of(3), 0);
        assert_eq!(p.owner_of(4), 1);
        assert_eq!(p.owner_of(6), 1);
        assert_eq!(p.owner_of(7), 2);
        assert_eq!(p.owner_of(9), 2);
    }

    #[test]
    fn owner_of_skips_empty_ranks() {
        let p = Partition::from_offsets(vec![0, 3, 3, 6]);
        assert_eq!(p.owner_of(2), 0);
        assert_eq!(p.owner_of(3), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn owner_of_out_of_range_panics() {
        Partition::balanced(5, 2).owner_of(5);
    }

    #[test]
    fn from_offsets_validates() {
        let p = Partition::from_offsets(vec![0, 2, 2, 5]);
        assert_eq!(p.n_ranks(), 3);
        assert_eq!(p.n(), 5);
    }

    #[test]
    #[should_panic(expected = "start at 0")]
    fn from_offsets_rejects_nonzero_start() {
        Partition::from_offsets(vec![1, 2]);
    }

    #[test]
    fn iter_yields_all_ranges() {
        let p = Partition::balanced(6, 3);
        let v: Vec<_> = p.iter().collect();
        assert_eq!(v, vec![(0, 0..2), (1, 2..4), (2, 4..6)]);
    }

    #[test]
    fn every_index_owned_by_exactly_one_rank() {
        for n in [1usize, 7, 16, 33] {
            for r in [1usize, 2, 3, 5, 8] {
                let p = Partition::balanced(n, r);
                for i in 0..n {
                    let s = p.owner_of(i);
                    assert!(p.range(s).contains(&i));
                }
                let total: usize = (0..r).map(|s| p.local_len(s)).sum();
                assert_eq!(total, n);
            }
        }
    }
}
