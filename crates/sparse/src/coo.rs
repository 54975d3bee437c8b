//! Coordinate-format (COO) matrix builder.
//!
//! COO is the assembly format for *unordered* input: the Matrix Market
//! reader, the random generators and `CsrMatrix::from_dense` push
//! `(row, col, value)` triplets in arbitrary order (duplicates allowed, summed
//! on conversion) and the result is converted once to [`CsrMatrix`] for
//! compute — a bucket pass by row, then a sort within each row. Producers
//! that already visit entries in row-and-column order (the structured
//! generators) write CSR rows directly and never come through here.
//!
//! [`CsrMatrix`]: crate::csr::CsrMatrix

use crate::error::SparseError;

/// A sparse matrix under assembly, stored as unordered `(row, col, value)`
/// triplets.
#[derive(Debug, Clone, Default)]
pub struct CooMatrix {
    nrows: usize,
    ncols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl CooMatrix {
    /// Creates an empty `nrows × ncols` builder.
    pub(crate) fn new(nrows: usize, ncols: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            entries: Vec::new(),
        }
    }

    /// Creates an empty builder with capacity for `cap` triplets.
    pub(crate) fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            entries: Vec::with_capacity(cap),
        }
    }

    /// Number of rows.
    pub(crate) fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub(crate) fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored triplets (duplicates counted individually).
    #[cfg(test)]
    pub(crate) fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Adds `value` at `(row, col)`. Duplicate positions are summed when the
    /// matrix is converted to CSR.
    ///
    /// # Errors
    /// Returns [`SparseError::IndexOutOfBounds`] if the position is outside
    /// the matrix.
    pub(crate) fn push(&mut self, row: usize, col: usize, value: f64) -> Result<(), SparseError> {
        if row >= self.nrows || col >= self.ncols {
            return Err(SparseError::IndexOutOfBounds {
                row,
                col,
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        self.entries.push((row, col, value));
        Ok(())
    }

    /// Adds `value` at `(row, col)` and, if off-diagonal, also at
    /// `(col, row)` — convenient for assembling symmetric matrices from a
    /// triangular pattern.
    ///
    /// # Errors
    /// Returns [`SparseError::IndexOutOfBounds`] on out-of-range positions.
    pub(crate) fn push_sym(
        &mut self,
        row: usize,
        col: usize,
        value: f64,
    ) -> Result<(), SparseError> {
        self.push(row, col, value)?;
        if row != col {
            self.push(col, row, value)?;
        }
        Ok(())
    }

    /// Consumes the builder and returns sorted, deduplicated CSR arrays
    /// `(row_ptr, col_idx, values)`. Duplicate positions are summed;
    /// explicitly stored zeros are kept (they carry sparsity-pattern
    /// information that matters for communication planning).
    pub(crate) fn into_csr_arrays(self) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
        // Stable counting sort by row: count, prefix-sum, scatter. Within a
        // row the triplets stay in insertion order.
        let mut row_ptr = vec![0usize; self.nrows + 1];
        for &(r, _, _) in &self.entries {
            row_ptr[r + 1] += 1;
        }
        for i in 0..self.nrows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut next = row_ptr.clone();
        let mut col_idx = vec![0usize; self.entries.len()];
        let mut values = vec![0.0f64; self.entries.len()];
        for &(r, c, v) in &self.entries {
            col_idx[next[r]] = c;
            values[next[r]] = v;
            next[r] += 1;
        }

        // Row by row: stable sort by column, then fold each run of equal
        // columns left to right — so duplicates are summed in insertion
        // order — compacting towards the front (`out` never passes `lo`).
        let mut row: Vec<(usize, f64)> = Vec::new();
        let (mut lo, mut out) = (0, 0);
        for r in 0..self.nrows {
            let hi = row_ptr[r + 1];
            row.clear();
            row.extend(
                col_idx[lo..hi]
                    .iter()
                    .copied()
                    .zip(values[lo..hi].iter().copied()),
            );
            row.sort_by_key(|&(c, _)| c);
            let row_start = out;
            for &(c, v) in &row {
                if out > row_start && col_idx[out - 1] == c {
                    values[out - 1] += v;
                } else {
                    col_idx[out] = c;
                    values[out] = v;
                    out += 1;
                }
            }
            row_ptr[r + 1] = out;
            lo = hi;
        }
        col_idx.truncate(out);
        values.truncate(out);
        (row_ptr, col_idx, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    /// The conversion as one global stable sort over the triplets — what
    /// [`CooMatrix::into_csr_arrays`] did before it bucketed by row, kept as
    /// its oracle.
    fn by_global_sort(mut coo: CooMatrix) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
        coo.entries.sort_by_key(|a| (a.0, a.1));
        let mut row_ptr = vec![0usize; coo.nrows + 1];
        let mut col_idx = Vec::with_capacity(coo.entries.len());
        let mut values = Vec::with_capacity(coo.entries.len());
        for &(r, c, v) in &coo.entries {
            if let (Some(&lc), Some(lv)) = (col_idx.last(), values.last_mut()) {
                if !col_idx.is_empty() && row_ptr[r + 1] > 0 && lc == c {
                    *lv += v;
                    continue;
                }
            }
            col_idx.push(c);
            values.push(v);
            row_ptr[r + 1] += 1;
        }
        for i in 0..coo.nrows {
            row_ptr[i + 1] += row_ptr[i];
        }
        (row_ptr, col_idx, values)
    }

    #[test]
    fn bucketed_conversion_equals_the_global_sort_bit_for_bit() {
        let mut rng = SplitMix64::new(21);
        // (nrows, ncols, triplets): dense with duplicates, sparse with empty
        // rows, a single row, a single column, and the 0 × 0 matrix.
        let shapes = [
            (6, 5, 200),
            (40, 40, 60),
            (1, 9, 30),
            (9, 1, 30),
            (7, 7, 0),
            (0, 0, 0),
        ];
        for (nrows, ncols, triplets) in shapes {
            let mut coo = CooMatrix::new(nrows, ncols);
            for _ in 0..triplets {
                let (r, c) = (rng.range_usize(0, nrows), rng.range_usize(0, ncols));
                // Values of mixed magnitude make the summation order of a
                // duplicate run visible in the bits; every fifth is an
                // explicit zero.
                let v = match rng.range_usize(0, 5) {
                    0 => 0.0,
                    k => rng.range_f64(-1.0, 1.0) * 10f64.powi(4 * k as i32 - 8),
                };
                coo.push(r, c, v).unwrap();
            }
            let (rp, ci, v) = coo.clone().into_csr_arrays();
            let (rp0, ci0, v0) = by_global_sort(coo);
            assert_eq!((rp, ci), (rp0, ci0), "{nrows}x{ncols}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&v), bits(&v0), "{nrows}x{ncols}");
        }
    }

    #[test]
    fn push_and_counts() {
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 2, 2.0).unwrap();
        assert_eq!(coo.nnz(), 2);
        assert_eq!(coo.nrows(), 2);
        assert_eq!(coo.ncols(), 3);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut coo = CooMatrix::new(2, 2);
        assert!(coo.push(2, 0, 1.0).is_err());
        assert!(coo.push(0, 2, 1.0).is_err());
        assert!(coo.push(1, 1, 1.0).is_ok());
    }

    #[test]
    fn push_sym_mirrors_offdiagonal_only() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push_sym(0, 1, 5.0).unwrap();
        coo.push_sym(2, 2, 7.0).unwrap();
        assert_eq!(coo.nnz(), 3); // (0,1), (1,0), (2,2)
    }

    #[test]
    fn into_csr_sorts_and_sums_duplicates() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(1, 1, 1.0).unwrap();
        coo.push(0, 1, 2.0).unwrap();
        coo.push(0, 0, 3.0).unwrap();
        coo.push(0, 1, 4.0).unwrap(); // duplicate of (0,1)
        let (rp, ci, v) = coo.into_csr_arrays();
        assert_eq!(rp, vec![0, 2, 3]);
        assert_eq!(ci, vec![0, 1, 1]);
        assert_eq!(v, vec![3.0, 6.0, 1.0]);
    }

    #[test]
    fn explicit_zero_is_kept() {
        let mut coo = CooMatrix::new(1, 2);
        coo.push(0, 1, 0.0).unwrap();
        let (rp, ci, v) = coo.into_csr_arrays();
        assert_eq!(rp, vec![0, 1]);
        assert_eq!(ci, vec![1]);
        assert_eq!(v, vec![0.0]);
    }

    #[test]
    fn empty_matrix_converts() {
        let coo = CooMatrix::new(3, 3);
        let (rp, ci, v) = coo.into_csr_arrays();
        assert_eq!(rp, vec![0, 0, 0, 0]);
        assert!(ci.is_empty() && v.is_empty());
    }
}
