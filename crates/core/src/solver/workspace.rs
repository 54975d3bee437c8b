//! Reusable buffers and per-failure-domain caches of the recovery path.
//!
//! The solver loop itself keeps its dynamic vectors in
//! `NodeState` (see [`crate::solver::state`]); everything here is
//! *scratch* — memory whose contents never survive a call, but whose
//! allocations used to happen on every recovery event and every inner PCG
//! iteration. The recovery state each rank's `Node` carries
//! (`recovery::RecoveryState`) holds one of each and eliminates those:
//!
//! * `RecoveryScratch` — the reconstruction vectors of paper Alg. 2
//!   (`p^(ĵ−1)`, `p^(ĵ)`, their coverage flags, `w`, the masked-SpMV output,
//!   and the inner solve's vectors over the local rows), resized once and
//!   reused across failure events; the inner solve's halo rounds gather
//!   into the node's own full-length vector,
//! * `DomainCache` — per failure domain (the sorted set of failed ranks):
//!   the two column-split row extractions `A[I_own, I\I_f]` /
//!   `A[I_own, I_f]`, which turn every masked SpMV of the recovery into a
//!   plain CSR SpMV with no per-entry branch (always CSR, whatever
//!   `SolverConfig::spmv_format` the outer SpMV runs: these operators live
//!   for one failure domain, and the format contract makes the choice
//!   invisible in every iterate and every modeled second).
//!
//! The inner solve's preconditioner is no cache of its own: it is the
//! problem's block Jacobi applied over the rank's range
//! (`SharedProblem::precond`).

use esrcg_sparse::{CsrMatrix, Partition, RowSplit};

/// The recovery path's reusable vectors (see module docs).
#[derive(Default)]
pub(crate) struct RecoveryScratch {
    pub p_prev: Vec<f64>,
    pub p_cur: Vec<f64>,
    /// Which entries of `p_prev` and `p_cur` a survivor supplied (every
    /// gather message carries both copies of the same entries).
    pub cov: Vec<bool>,
    pub w: Vec<f64>,
    pub ax: Vec<f64>,
    /// Inner-solve vectors over the local rows: `r`, `q = A u`, `p`, and
    /// `s = A p`, which both recurrences carry. Both write their `x`
    /// straight into the caller's, and the vector a round exchanges (`u =
    /// P r`, the pipelined recurrence's `m = P q`) sits in the own range of
    /// the node's full-length vector. The pipelined recurrence keeps its
    /// `u` in `iu` and its `g = A h` in `ig`; its `h = P s` takes `w` once
    /// `r = w` has read it, and its `A m` takes `ax`.
    pub ir: Vec<f64>,
    pub iq: Vec<f64>,
    pub ip: Vec<f64>,
    pub is: Vec<f64>,
    pub iu: Vec<f64>,
    pub ig: Vec<f64>,
}

impl RecoveryScratch {
    /// Sizes every buffer for a rank owning `nloc` rows and zeroes the ones
    /// recovery reads before writing.
    pub(crate) fn prepare(&mut self, nloc: usize) {
        resize_zeroed(&mut self.p_prev, nloc);
        resize_zeroed(&mut self.p_cur, nloc);
        self.cov.clear();
        self.cov.resize(nloc, false);
        resize_zeroed(&mut self.w, nloc);
        resize_zeroed(&mut self.ax, nloc);
        resize_zeroed(&mut self.ir, nloc);
        resize_zeroed(&mut self.iq, nloc);
        resize_zeroed(&mut self.ip, nloc);
        resize_zeroed(&mut self.is, nloc);
        resize_zeroed(&mut self.iu, nloc);
        resize_zeroed(&mut self.ig, nloc);
    }
}

fn resize_zeroed(v: &mut Vec<f64>, n: usize) {
    v.clear();
    v.resize(n, 0.0);
}

/// Cached per-failure-domain structures (see module docs).
pub(crate) struct DomainCache {
    /// `A[I_own, I \ I_f]` with global columns — the off-diagonal term of
    /// Alg. 2 line 7 as a branch-free SpMV.
    pub a_off: CsrMatrix,
    /// `A[I_own, I_f]` with global columns — the inner-system operator
    /// applied every inner iteration as a branch-free SpMV.
    pub a_in: CsrMatrix,
    /// Interior/boundary split of `a_in`'s (local) rows with respect to
    /// this rank's own global column range: interior rows of the inner
    /// SpMV read only the rank's own `u` chunk and can compute while the
    /// replacement-subgroup halo is in flight.
    pub inner_split: RowSplit,
}

impl DomainCache {
    /// Builds the cache for this rank's `own_rows` under the failure domain
    /// `failed_sorted`. Pure static-data extraction (the paper treats static
    /// reloads as free), so no flops are charged.
    pub(crate) fn build(
        a: &CsrMatrix,
        part: &Partition,
        own_rows: &[usize],
        failed_sorted: &[usize],
    ) -> Self {
        let failed = |c: usize| failed_sorted.binary_search(&part.owner_of(c)).is_ok();
        let a_off = a.extract_rows_filtered(own_rows, |c| !failed(c));
        let a_in = a.extract_rows_filtered(own_rows, failed);
        // `a_in` keeps global column indices but compacts rows to
        // 0..own_rows.len(); the owned rows are contiguous (a rank's
        // partition range), so the owned column range is just the list's
        // endpoints. A gap would silently misclassify rows as interior —
        // wrong recovery results, not a panic — so check in release builds
        // too (once per failure domain, O(own_rows)).
        assert!(
            own_rows.windows(2).all(|w| w[1] == w[0] + 1),
            "DomainCache assumes a contiguous own_rows range"
        );
        let own_cols = match (own_rows.first(), own_rows.last()) {
            (Some(&lo), Some(&hi)) => lo..hi + 1,
            _ => 0..0,
        };
        let inner_split = RowSplit::build(&a_in, 0..a_in.nrows(), own_cols);
        DomainCache {
            a_off,
            a_in,
            inner_split,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esrcg_sparse::gen::poisson2d;

    #[test]
    fn scratch_prepare_sizes_and_zeroes() {
        let mut s = RecoveryScratch::default();
        s.prepare(5);
        assert_eq!(s.p_prev.len(), 5);
        assert_eq!(s.ig.len(), 5);
        s.p_prev[0] = 3.0;
        s.cov[4] = true;
        s.prepare(5);
        assert_eq!(s.p_prev[0], 0.0, "re-prepared buffers are zeroed");
        assert!(!s.cov[4]);
        s.prepare(7);
        assert_eq!(s.ax.len(), 7);
    }

    #[test]
    fn domain_cache_splits_columns_exactly() {
        let a = poisson2d(6, 6);
        let part = Partition::balanced(36, 4); // 9 rows per rank
        let own_rows: Vec<usize> = part.range(1).collect();
        let cache = DomainCache::build(&a, &part, &own_rows, &[1, 3]);
        // The failure domain is exactly the rows of ranks 1 and 3.
        let failed = |c: usize| (9..18).contains(&c) || (27..36).contains(&c);
        // The split partitions each row's entries.
        let total: usize = own_rows.iter().map(|&r| a.row_nnz(r)).sum();
        assert_eq!(cache.a_off.nnz() + cache.a_in.nnz(), total);
        // SpMV equivalence with the masked kernel.
        let x: Vec<f64> = (0..36).map(|i| (i as f64 * 0.31).cos()).collect();
        let off = a.spmv_rows_masked(&own_rows, &x, failed);
        assert_eq!(cache.a_off.spmv(&x), off);
        let inn = a.spmv_rows_masked(&own_rows, &x, |c| !failed(c));
        assert_eq!(cache.a_in.spmv(&x), inn);
        // The inner split partitions a_in's rows, and interior rows read
        // only this rank's own column range.
        let split = &cache.inner_split;
        assert_eq!(split.interior().len() + split.boundary().len(), 9);
        assert_eq!(
            split.interior_flops() + split.boundary_flops(),
            cache.a_in.spmv_flops()
        );
        let own = own_rows[0]..own_rows[8] + 1;
        for lr in split.interior().iter() {
            let (cols, _) = cache.a_in.row(lr);
            assert!(cols.iter().all(|c| own.contains(c)), "interior row {lr}");
        }
        for lr in split.boundary().iter() {
            let (cols, _) = cache.a_in.row(lr);
            assert!(cols.iter().any(|c| !own.contains(c)), "boundary row {lr}");
        }
    }
}
