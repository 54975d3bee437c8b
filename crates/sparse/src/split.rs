//! Interior/boundary row classification for the split-phase distributed
//! SpMV.
//!
//! A row owned by a rank is *interior* when every column it touches lies in
//! the rank's own index range — its output depends on the local vector
//! chunk alone and can be computed while the halo exchange is still in
//! flight. The remaining *boundary* rows read received halo entries and
//! must wait for the exchange to finish. [`RowSplit`] classifies one row
//! range; [`RowSplitSet`] caches the classification for every rank of a
//! [`Partition`], built once per matrix + partition exactly like the
//! communication plan it complements.
//!
//! Each class is stored as [`RowRuns`]: the maximal contiguous runs of its
//! rows. On the block-row distributed stencil and elasticity operators the
//! solver runs, a rank's interior is one or two runs and its boundary a
//! handful, so the split-phase product is a few contiguous
//! [`crate::KernelBackend::spmv_rows_into`] calls
//! ([`crate::KernelBackend::spmv_row_runs_into`]) — no index list to walk,
//! validate or balance on every product. The invariants the kernel relies
//! on (runs ascending, disjoint, inside the classified range) hold by
//! construction: the fields are private and [`RowSplit::build`] is the only
//! constructor.
//!
//! Splitting changes nothing about the arithmetic: each row is still one
//! sequential accumulation over ascending columns, so interior-then-
//! boundary is **bitwise identical** to the blocking
//! [`crate::KernelBackend::spmv_rows_into`] over the whole range.

use std::ops::Range;

use crate::csr::CsrMatrix;
use crate::partition::Partition;

/// A strictly increasing set of row indices, stored as its maximal
/// contiguous runs (ascending, pairwise disjoint and non-adjacent). Only
/// [`RowSplit::build`] creates non-empty values, so every holder can rely
/// on those invariants without re-checking them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowRuns {
    runs: Vec<Range<usize>>,
    len: usize,
}

impl RowRuns {
    /// Appends row `r`, which must exceed every row already present.
    fn push(&mut self, r: usize) {
        match self.runs.last_mut() {
            Some(run) if run.end == r => run.end += 1,
            last => {
                debug_assert!(last.is_none_or(|run| run.end < r));
                self.runs.push(r..r + 1);
            }
        }
        self.len += 1;
    }

    /// The maximal contiguous runs, ascending.
    pub fn runs(&self) -> &[Range<usize>] {
        &self.runs
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set holds no row.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The rows in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.runs.iter().flat_map(|run| run.clone())
    }

    /// The rows as an explicit index list — what the format converters and
    /// the [`CsrMatrix::spmv_rows_subset_into`] test oracle take.
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }
}

/// One contiguous row range classified into interior and boundary rows
/// with respect to an owned column range.
#[derive(Debug, Clone)]
pub struct RowSplit {
    rows: Range<usize>,
    /// Rows whose columns all lie in the owned range.
    interior: RowRuns,
    /// Rows touching at least one foreign column.
    boundary: RowRuns,
    interior_flops: u64,
    boundary_flops: u64,
}

impl RowSplit {
    /// Classifies each row in `rows` of `a`: *interior* iff every stored
    /// column lies in `owned_cols` (an empty row is interior — it reads
    /// nothing).
    ///
    /// # Panics
    /// Panics if `rows` exceeds the matrix dimensions.
    pub fn build(a: &CsrMatrix, rows: Range<usize>, owned_cols: Range<usize>) -> Self {
        assert!(rows.end <= a.nrows(), "row split: row range out of range");
        let mut interior = RowRuns::default();
        let mut boundary = RowRuns::default();
        let (mut interior_flops, mut boundary_flops) = (0u64, 0u64);
        for r in rows.clone() {
            let (cols, _) = a.row(r);
            // Columns are strictly increasing, so the endpoints decide.
            let is_interior = match (cols.first(), cols.last()) {
                (Some(lo), Some(hi)) => owned_cols.contains(lo) && owned_cols.contains(hi),
                _ => true,
            };
            let flops = 2 * cols.len() as u64;
            if is_interior {
                interior.push(r);
                interior_flops += flops;
            } else {
                boundary.push(r);
                boundary_flops += flops;
            }
        }
        RowSplit {
            rows,
            interior,
            boundary,
            interior_flops,
            boundary_flops,
        }
    }

    /// The classified row range.
    pub fn rows(&self) -> Range<usize> {
        self.rows.clone()
    }

    /// Interior rows (global indices).
    pub fn interior(&self) -> &RowRuns {
        &self.interior
    }

    /// Boundary rows (global indices).
    pub fn boundary(&self) -> &RowRuns {
        &self.boundary
    }

    /// SpMV flops of the interior rows (2 per stored entry).
    pub fn interior_flops(&self) -> u64 {
        self.interior_flops
    }

    /// SpMV flops of the boundary rows.
    pub fn boundary_flops(&self) -> u64 {
        self.boundary_flops
    }
}

/// Per-rank [`RowSplit`]s of a block-row distributed square matrix — the
/// cached companion of a communication plan.
#[derive(Debug, Clone)]
pub struct RowSplitSet {
    splits: Vec<RowSplit>,
}

impl RowSplitSet {
    /// Classifies every rank's rows of `a` under `partition` (owned columns
    /// = owned rows, the block-row distribution of the paper).
    ///
    /// # Panics
    /// Panics if the partition does not cover a square matrix.
    pub fn build(a: &CsrMatrix, partition: &Partition) -> Self {
        assert_eq!(partition.n(), a.nrows(), "partition must cover all rows");
        assert_eq!(a.nrows(), a.ncols(), "row split needs a square matrix");
        let splits = partition
            .iter()
            .map(|(_, range)| RowSplit::build(a, range.clone(), range))
            .collect();
        RowSplitSet { splits }
    }

    /// Number of ranks.
    pub(crate) fn n_ranks(&self) -> usize {
        self.splits.len()
    }

    /// The split of `rank`'s rows.
    pub fn of(&self, rank: usize) -> &RowSplit {
        &self.splits[rank]
    }

    /// Total interior rows across all ranks.
    pub fn total_interior(&self) -> usize {
        self.splits.iter().map(|s| s.interior.len()).sum()
    }

    /// Total boundary rows across all ranks.
    pub fn total_boundary(&self) -> usize {
        self.splits.iter().map(|s| s.boundary.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{banded_spd, poisson1d, poisson2d};
    use crate::KernelBackend;

    fn one_run(run: &Range<usize>) -> &[Range<usize>] {
        std::slice::from_ref(run)
    }

    #[test]
    fn classification_matches_brute_force() {
        let a = banded_spd(60, 7, 0.6, 5);
        let part = Partition::balanced(60, 5);
        let set = RowSplitSet::build(&a, &part);
        assert_eq!(set.n_ranks(), 5);
        for (s, range) in part.iter() {
            let split = set.of(s);
            assert_eq!(split.rows(), range);
            let (interior, boundary) = (split.interior().to_vec(), split.boundary().to_vec());
            for r in range.clone() {
                let (cols, _) = a.row(r);
                let is_interior = cols.iter().all(|c| range.contains(c));
                assert_eq!(interior.contains(&r), is_interior, "rank {s} row {r}");
                assert_eq!(boundary.contains(&r), !is_interior);
            }
            // Flops partition the range's flops exactly.
            assert_eq!(
                split.interior_flops() + split.boundary_flops(),
                a.spmv_rows_flops(range)
            );
            assert_eq!(split.interior_flops(), a.spmv_rows_list_flops(&interior));
        }
        assert_eq!(set.total_interior() + set.total_boundary(), 60);
    }

    #[test]
    fn runs_are_maximal_ascending_and_cover_the_rows() {
        // Random sparsity in a wide band: both classes fragment into many
        // runs.
        let a = banded_spd(400, 60, 0.03, 21);
        let part = Partition::balanced(400, 4);
        let set = RowSplitSet::build(&a, &part);
        let mut fragmented = false;
        for (s, range) in part.iter() {
            let split = set.of(s);
            for class in [split.interior(), split.boundary()] {
                let runs = class.runs();
                assert!(runs.iter().all(|r| r.start < r.end), "no empty run");
                assert!(
                    runs.windows(2).all(|w| w[0].end < w[1].start),
                    "runs ascend and adjacent runs are merged"
                );
                assert!(runs
                    .iter()
                    .all(|r| range.start <= r.start && r.end <= range.end));
                assert_eq!(class.len(), runs.iter().map(|r| r.len()).sum::<usize>());
                assert_eq!(class.is_empty(), runs.is_empty());
                assert_eq!(class.to_vec().len(), class.len());
                fragmented |= runs.len() > 2;
            }
            let mut all = split.interior().to_vec();
            all.extend(split.boundary().iter());
            all.sort_unstable();
            assert_eq!(all, range.collect::<Vec<_>>(), "rank {s}");
        }
        assert!(fragmented, "the fixture must exercise multi-run classes");
    }

    #[test]
    fn tridiagonal_boundary_is_the_block_edges() {
        // poisson1d over equal blocks: exactly the first and last row of
        // every interior block touch a neighbor.
        let a = poisson1d(12);
        let part = Partition::balanced(12, 3);
        let set = RowSplitSet::build(&a, &part);
        assert_eq!(set.of(0).boundary().runs(), one_run(&(3..4)));
        assert_eq!(set.of(1).boundary().runs(), &[4..5, 7..8]);
        assert_eq!(set.of(2).boundary().runs(), one_run(&(8..9)));
        assert_eq!(set.of(0).interior().runs(), one_run(&(0..3)));
        assert_eq!(set.of(1).interior().to_vec(), vec![5, 6]);
    }

    #[test]
    fn block_diagonal_matrix_is_all_interior() {
        let a = CsrMatrix::identity(20);
        let part = Partition::balanced(20, 4);
        let set = RowSplitSet::build(&a, &part);
        assert_eq!(set.total_boundary(), 0);
        assert_eq!(set.total_interior(), 20);
        for s in 0..4 {
            assert!(set.of(s).boundary().is_empty());
            assert_eq!(set.of(s).boundary_flops(), 0);
        }
    }

    #[test]
    fn single_rank_is_all_interior_and_empty_ranks_split_empty() {
        let a = poisson2d(5, 5);
        let single = RowSplitSet::build(&a, &Partition::balanced(25, 1));
        assert_eq!(single.of(0).interior().runs(), one_run(&(0..25)));
        assert!(single.of(0).boundary().is_empty());
        // More ranks than rows: trailing ranks own nothing.
        let b = poisson1d(3);
        let many = RowSplitSet::build(&b, &Partition::balanced(3, 5));
        for s in 3..5 {
            assert!(many.of(s).interior().is_empty());
            assert!(many.of(s).boundary().is_empty());
            assert_eq!(many.of(s).rows().len(), 0);
        }
    }

    #[test]
    fn interior_then_boundary_reproduces_blocking_spmv_bitwise() {
        let a = poisson2d(9, 9);
        let n = a.nrows();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).sin()).collect();
        for n_ranks in [1usize, 2, 3, 5] {
            let part = Partition::balanced(n, n_ranks);
            let set = RowSplitSet::build(&a, &part);
            for be in [KernelBackend::Sequential, KernelBackend::parallel(4)] {
                for (s, range) in part.iter() {
                    let mut blocking = vec![0.0; range.len()];
                    be.spmv_rows_into(&a, range.clone(), &x, &mut blocking);
                    let split = set.of(s);
                    let mut y = vec![0.0; range.len()];
                    be.spmv_row_runs_into(&a, split.interior(), range.start, &x, &mut y);
                    be.spmv_row_runs_into(&a, split.boundary(), range.start, &x, &mut y);
                    assert_eq!(y, blocking, "rank {s} of {n_ranks}, {}", be.name());
                }
            }
        }
    }
}
