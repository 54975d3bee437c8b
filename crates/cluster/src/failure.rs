//! Node-failure specification.
//!
//! The paper simulates node failures by having the affected ranks zero out
//! all their dynamic data at a marked iteration; the same ranks then act as
//! their own replacement nodes (§4). [`FailureSpec`] carries the marked
//! iteration and the affected rank set; the solver performs the zeroing and
//! runs the recovery protocol.

/// A simulated node-failure event: `ranks` fail simultaneously at the start
/// of iteration `at_iteration` (immediately after that iteration's matrix–
/// vector product, matching the paper's reconstruction pre-conditions — see
/// `ARCHITECTURE.md` §6, "The resilient loop and recovery data flow").
///
/// The rank set is validated at construction (non-empty, duplicate-free)
/// and kept **sorted**, so membership tests ([`FailureSpec::affects`]) are
/// `O(log ψ)` and every consumer can rely on a canonical order — the
/// recovery protocols derive their designated ranks and deterministic
/// message schedules directly from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureSpec {
    /// The iteration at which the failure strikes.
    at_iteration: usize,
    /// The simultaneously failing ranks (ψ in the paper's notation),
    /// sorted ascending, duplicate-free, non-empty.
    ranks: Vec<usize>,
}

impl FailureSpec {
    /// A failure of a contiguous block of `count` ranks starting at `start`
    /// (wrapping modulo `n_ranks`), at iteration `at_iteration`. The paper
    /// justifies contiguous blocks by switch faults in a fat tree taking out
    /// a contiguous range of ranks.
    ///
    /// # Panics
    /// Panics if `count == 0`, or `count > n_ranks` (a full-cluster failure
    /// is unrecoverable by construction), or `start >= n_ranks`.
    pub fn contiguous(at_iteration: usize, start: usize, count: usize, n_ranks: usize) -> Self {
        assert!(count > 0, "failure must affect at least one rank");
        assert!(
            count <= n_ranks,
            "cannot fail more ranks than the cluster has"
        );
        assert!(start < n_ranks, "start rank out of range");
        let mut ranks: Vec<usize> = (0..count).map(|k| (start + k) % n_ranks).collect();
        // A block that wraps past the last rank starts with its high ranks.
        ranks.sort_unstable();
        FailureSpec {
            at_iteration,
            ranks,
        }
    }

    /// The iteration at which the failure strikes.
    pub fn at_iteration(&self) -> usize {
        self.at_iteration
    }

    /// The failing ranks, sorted ascending.
    pub fn ranks(&self) -> &[usize] {
        &self.ranks
    }

    /// Number of simultaneously failing ranks (ψ).
    pub fn count(&self) -> usize {
        self.ranks.len()
    }

    /// True if `rank` is in the failure set (`O(log ψ)`).
    pub fn affects(&self, rank: usize) -> bool {
        self.ranks.binary_search(&rank).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_block() {
        let f = FailureSpec::contiguous(100, 2, 3, 8);
        assert_eq!(f.ranks(), &[2, 3, 4]);
        assert_eq!(f.count(), 3);
        assert!(f.affects(3));
        assert!(!f.affects(5));
        assert_eq!(f.at_iteration(), 100);
    }

    #[test]
    fn contiguous_block_wraps_and_is_sorted() {
        let f = FailureSpec::contiguous(10, 6, 4, 8);
        assert_eq!(f.ranks(), &[0, 1, 6, 7], "canonical sorted order");
        for r in [0, 1, 6, 7] {
            assert!(f.affects(r));
        }
        for r in [2, 3, 4, 5] {
            assert!(!f.affects(r));
        }
    }

    #[test]
    fn single_rank_failure() {
        let f = FailureSpec::contiguous(1, 0, 1, 4);
        assert_eq!(f.ranks(), &[0]);
    }

    #[test]
    #[should_panic(expected = "more ranks than the cluster")]
    fn whole_cluster_failure_rejected() {
        FailureSpec::contiguous(1, 0, 5, 4);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn empty_failure_rejected() {
        FailureSpec::contiguous(1, 0, 0, 4);
    }
}
