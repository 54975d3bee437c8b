//! Compressed sparse row (CSR) matrices and the kernels used by the resilient
//! PCG solver.
//!
//! Beyond the usual SpMV, this module provides the operations the exact state
//! reconstruction (ESR) recovery path needs:
//!
//! * [`CsrMatrix::extract_rows_filtered`] — the rows `A[I_f, :]` owned by
//!   failed ranks restricted to a column subset (column indices stay global),
//! * [`CsrMatrix::principal_submatrix`] — the inner-system matrix `A[I_f, I_f]`
//!   with columns remapped to local indices,
//! * [`CsrMatrix::spmv_rows_masked`] — the off-diagonal product
//!   `A[I_f, I\I_f] · x[I\I_f]` used to form the inner right-hand sides.

use crate::coo::CooMatrix;
use crate::error::SparseError;

/// A sparse matrix in compressed sparse row format.
///
/// Invariants (checked by `CsrMatrix::validate`, maintained by all
/// constructors): `row_ptr` has length `nrows + 1`, is non-decreasing, starts
/// at 0 and ends at `nnz`; within each row, column indices are strictly
/// increasing and `< ncols`.
///
/// The column bound is **load-bearing for memory safety**: the SpMV row
/// kernel gathers `x[c]` without a bounds check on the strength of
/// `c < ncols` and the `x.len() == ncols` assertion. It holds because the
/// fields are private and nothing hands out `&mut` access to them, so the
/// seven constructors in this file — `from_coo`, `from_raw`, `identity`,
/// `extract_rows_filtered`, `principal_submatrix`, `transpose` and the
/// crate-private row writer `CsrWriter` the structured generators emit
/// through — are the only producers of a value of this type
/// (`from_dense` goes through `from_coo`; `Clone` copies a valid value).
/// Two of them check in every profile: `from_raw` validates its untrusted
/// arrays whole, and `CsrWriter::push` asserts `col < ncols` and strictly
/// ascending columns entry by entry (`finish` asserts the row count), which
/// is the whole invariant. The other five derive their indices from a
/// range-checked [`CooMatrix`] or from an already valid matrix. All but
/// `from_raw` re-run `validate` under `debug_assertions`, so a debug-profile
/// test run checks every matrix it builds. A new constructor must do one or
/// the other.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from a COO builder, sorting entries and summing
    /// duplicates.
    pub(crate) fn from_coo(coo: CooMatrix) -> Self {
        let nrows = coo.nrows();
        let ncols = coo.ncols();
        let (row_ptr, col_idx, values) = coo.into_csr_arrays();
        CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        }
        .sealed()
    }

    /// Builds a CSR matrix from raw arrays, validating all invariants.
    ///
    /// # Errors
    /// Returns [`SparseError::InvalidCsr`] if any invariant is violated.
    #[cfg(test)]
    pub(crate) fn from_raw(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self, SparseError> {
        let m = CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        };
        m.validate()?;
        Ok(m)
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![1.0; n],
        }
        .sealed()
    }

    /// Builds from a dense row-major array (test helper; zeros are dropped).
    pub fn from_dense(nrows: usize, ncols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), nrows * ncols, "from_dense: data length");
        let mut coo = CooMatrix::new(nrows, ncols);
        for r in 0..nrows {
            for c in 0..ncols {
                let v = data[r * ncols + c];
                if v != 0.0 {
                    coo.push(r, c, v).expect("in-range by construction");
                }
            }
        }
        CsrMatrix::from_coo(coo)
    }

    /// Checks all structural invariants.
    ///
    /// # Errors
    /// Returns [`SparseError::InvalidCsr`] describing the first violation.
    pub(crate) fn validate(&self) -> Result<(), SparseError> {
        if self.row_ptr.len() != self.nrows + 1 {
            return Err(SparseError::InvalidCsr(format!(
                "row_ptr length {} != nrows + 1 = {}",
                self.row_ptr.len(),
                self.nrows + 1
            )));
        }
        if self.row_ptr[0] != 0 {
            return Err(SparseError::InvalidCsr("row_ptr[0] != 0".into()));
        }
        if *self.row_ptr.last().expect("non-empty by check above") != self.col_idx.len() {
            return Err(SparseError::InvalidCsr(
                "row_ptr does not end at nnz".into(),
            ));
        }
        if self.col_idx.len() != self.values.len() {
            return Err(SparseError::InvalidCsr(
                "col_idx and values lengths differ".into(),
            ));
        }
        for r in 0..self.nrows {
            let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
            if lo > hi {
                return Err(SparseError::InvalidCsr(format!(
                    "row_ptr decreasing at row {r}"
                )));
            }
            if hi > self.col_idx.len() {
                return Err(SparseError::InvalidCsr(format!(
                    "row_ptr exceeds nnz at row {r}"
                )));
            }
            let mut prev: Option<usize> = None;
            for &c in &self.col_idx[lo..hi] {
                if c >= self.ncols {
                    return Err(SparseError::InvalidCsr(format!(
                        "column {c} out of range in row {r}"
                    )));
                }
                if let Some(p) = prev {
                    if c <= p {
                        return Err(SparseError::InvalidCsr(format!(
                            "columns not strictly increasing in row {r}"
                        )));
                    }
                }
                prev = Some(c);
            }
        }
        Ok(())
    }

    /// Debug-profile check of the type invariant, on the way out of every
    /// constructor that does not validate unconditionally (see the type
    /// docs).
    fn sealed(self) -> Self {
        debug_assert_eq!(
            self.validate(),
            Ok(()),
            "constructor broke the CSR invariant"
        );
        self
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Row pointer array (length `nrows + 1`).
    #[inline]
    pub(crate) fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index array (length `nnz`).
    #[inline]
    #[cfg(test)]
    pub(crate) fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Value array (length `nnz`).
    #[inline]
    #[cfg(test)]
    pub(crate) fn values(&self) -> &[f64] {
        &self.values
    }

    /// Columns and values of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Number of stored entries in row `r`.
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// Value at `(r, c)`, or 0.0 if not stored. Binary searches the row.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let (cols, vals) = self.row(r);
        match cols.binary_search(&c) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// `y = A x`.
    ///
    /// # Panics
    /// Panics if `x.len() != ncols`.
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows];
        self.spmv_into(x, &mut y);
        y
    }

    /// `y ← A x` into a caller-provided buffer.
    ///
    /// # Panics
    /// Panics if `x.len() != ncols` or `y.len() != nrows`.
    pub(crate) fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "spmv: x length != ncols");
        assert_eq!(y.len(), self.nrows, "spmv: y length != nrows");
        for (out, w) in y.iter_mut().zip(self.row_ptr.windows(2)) {
            *out = self.row_dot(w[0]..w[1], x, |_| false);
        }
    }

    /// Computes `y[i - rows.start] = Σ_k A[i, k] x[k]` for `i` in `rows` —
    /// the node-local part of a distributed SpMV, where `x` is a full-length
    /// gathered input vector.
    ///
    /// # Panics
    /// Panics on dimension mismatches or an out-of-range row range.
    pub fn spmv_rows_into(&self, rows: std::ops::Range<usize>, x: &[f64], y: &mut [f64]) {
        assert!(rows.end <= self.nrows, "spmv_rows: row range out of range");
        assert_eq!(x.len(), self.ncols, "spmv_rows: x length != ncols");
        assert_eq!(y.len(), rows.len(), "spmv_rows: y length != rows.len()");
        // `y` is `rows.len()` long, so the zip stops at row `rows.end`.
        for (out, w) in y.iter_mut().zip(self.row_ptr[rows.start..].windows(2)) {
            *out = self.row_dot(w[0]..w[1], x, |_| false);
        }
    }

    /// Computes `y[i - offset] = Σ_k A[i, k] x[k]` for each global row `i`
    /// in `rows` (a strictly increasing list), scattering into `y` at the
    /// same positions a full [`CsrMatrix::spmv_rows_into`] over
    /// `offset..offset + y.len()` would use. This is the subset kernel of
    /// the split-phase distributed SpMV: interior rows run while the halo
    /// is in flight, boundary rows afterwards, and together they write
    /// exactly the output of the blocking kernel — bit for bit, since each
    /// row is the same sequential accumulation.
    ///
    /// Entries of `y` whose rows are not listed keep their previous
    /// contents.
    ///
    /// # Panics
    /// Panics on dimension mismatches or rows that do not map into `y`.
    pub fn spmv_rows_subset_into(&self, rows: &[usize], offset: usize, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "spmv_rows_subset: x length != ncols");
        debug_assert!(
            rows.windows(2).all(|w| w[0] < w[1]),
            "spmv_rows_subset: rows must be strictly increasing"
        );
        for &r in rows {
            y[r - offset] = self.row_dot(self.row_ptr[r]..self.row_ptr[r + 1], x, |_| false);
        }
    }

    /// For each row `i` in `rows` (a sorted list of global row indices),
    /// computes `Σ_{k ∉ masked} A[i, k] x_full[k]` — the off-diagonal product
    /// `A[I_f, I\I_f] x[I\I_f]` from Alg. 2 of the paper, where `masked`
    /// answers "is this column in `I_f`?".
    ///
    /// `x_full` must be a full-length vector whose entries outside the mask
    /// are meaningful (masked entries are never read).
    pub fn spmv_rows_masked(
        &self,
        rows: &[usize],
        x_full: &[f64],
        masked: impl Fn(usize) -> bool,
    ) -> Vec<f64> {
        let mut y = vec![0.0; rows.len()];
        self.spmv_rows_masked_into(rows, x_full, masked, &mut y);
        y
    }

    /// Allocation-free variant of [`CsrMatrix::spmv_rows_masked`]: writes the
    /// masked products into a caller-provided buffer.
    ///
    /// # Panics
    /// Panics if `x_full.len() != ncols` or `y.len() != rows.len()`.
    pub(crate) fn spmv_rows_masked_into(
        &self,
        rows: &[usize],
        x_full: &[f64],
        masked: impl Fn(usize) -> bool,
        y: &mut [f64],
    ) {
        assert_eq!(x_full.len(), self.ncols, "spmv_rows_masked: x length");
        assert_eq!(y.len(), rows.len(), "spmv_rows_masked: y length");
        for (out, &r) in y.iter_mut().zip(rows.iter()) {
            *out = self.row_dot(self.row_ptr[r]..self.row_ptr[r + 1], x_full, &masked);
        }
    }

    /// The one CSR row kernel: `Σ v · x[c]` over the stored entries `entries`
    /// (one row's `row_ptr` window) whose column `skip` does not reject,
    /// accumulated in stored — ascending-column — order. Every SpMV entry
    /// point of this type runs it, so they agree bit for bit by construction.
    #[inline(always)]
    fn row_dot(
        &self,
        entries: std::ops::Range<usize>,
        x: &[f64],
        skip: impl Fn(usize) -> bool,
    ) -> f64 {
        // Loop-invariant and already established by every caller's own
        // `assert_eq!`, so it folds away once inlined; repeated here so that
        // the `unsafe` below rests on this function and the type alone.
        assert_eq!(x.len(), self.ncols, "row_dot: x length != ncols");
        let (cols, vals) = (&self.col_idx[entries.clone()], &self.values[entries]);
        let mut acc = 0.0;
        for (&c, &v) in cols.iter().zip(vals) {
            if !skip(c) {
                // SAFETY: `c` is an element of `self.col_idx`, so
                // `c < self.ncols` by the type invariant (fields private,
                // every constructor in this file validated or sealed — see
                // the type docs), and `x.len() == self.ncols` was asserted
                // above.
                acc += v * unsafe { *x.get_unchecked(c) };
            }
        }
        acc
    }

    /// Extracts the rows `rows` restricted to the columns selected by
    /// `keep`, as a `rows.len() × ncols` matrix with **global** column
    /// indices. Entry order within a row is preserved, so an SpMV with the
    /// result accumulates in exactly the same order as a masked SpMV with
    /// `masked = |c| !keep(c)` — bitwise identical, but without the
    /// per-entry branch. The recovery path builds these once per failure
    /// domain and reuses them across all inner iterations.
    pub fn extract_rows_filtered(&self, rows: &[usize], keep: impl Fn(usize) -> bool) -> CsrMatrix {
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for &r in rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                if keep(c) {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            nrows: rows.len(),
            ncols: self.ncols,
            row_ptr,
            col_idx,
            values,
        }
        .sealed()
    }

    /// Extracts the principal submatrix `A[idx, idx]` with rows *and* columns
    /// remapped to local indices `0..idx.len()`. `idx` must be sorted and
    /// duplicate-free; this is the inner-system matrix `A[I_f, I_f]` of the
    /// ESR reconstruction (Alg. 2, line 8).
    ///
    /// # Panics
    /// Panics (debug assertion) if `idx` is not strictly increasing.
    pub fn principal_submatrix(&self, idx: &[usize]) -> CsrMatrix {
        debug_assert!(
            idx.windows(2).all(|w| w[0] < w[1]),
            "principal_submatrix: idx must be strictly increasing"
        );
        // Global-to-local column map. A hash map would work; a direct lookup
        // table is faster and the memory (ncols usizes) is transient.
        const ABSENT: usize = usize::MAX;
        let mut g2l = vec![ABSENT; self.ncols];
        for (local, &g) in idx.iter().enumerate() {
            g2l[g] = local;
        }
        let mut row_ptr = Vec::with_capacity(idx.len() + 1);
        row_ptr.push(0);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for &r in idx {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                let lc = g2l[c];
                if lc != ABSENT {
                    col_idx.push(lc);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            nrows: idx.len(),
            ncols: idx.len(),
            row_ptr,
            col_idx,
            values,
        }
        .sealed()
    }

    /// The main diagonal as a dense vector (missing entries are 0.0). Only
    /// meaningful for square matrices.
    pub fn diag(&self) -> Vec<f64> {
        let n = self.nrows.min(self.ncols);
        (0..n).map(|i| self.get(i, i)).collect()
    }

    /// Transpose (exact, re-sorted CSR).
    pub fn transpose(&self) -> CsrMatrix {
        let mut row_ptr = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            row_ptr[c + 1] += 1;
        }
        for i in 0..self.ncols {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut next = row_ptr.clone();
        for r in 0..self.nrows {
            let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
            for k in lo..hi {
                let c = self.col_idx[k];
                let pos = next[c];
                col_idx[pos] = r;
                values[pos] = self.values[k];
                next[c] += 1;
            }
        }
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr,
            col_idx,
            values,
        }
        .sealed()
    }

    /// Checks numeric symmetry to absolute tolerance `tol`.
    ///
    /// # Errors
    /// Returns [`SparseError::NotSymmetric`] with the first offending pair,
    /// or [`SparseError::DimensionMismatch`] if not square.
    pub fn check_symmetric(&self, tol: f64) -> Result<(), SparseError> {
        if self.nrows != self.ncols {
            return Err(SparseError::DimensionMismatch {
                expected: self.nrows,
                found: self.ncols,
            });
        }
        let t = self.transpose();
        for r in 0..self.nrows {
            let (ca, va) = self.row(r);
            let (cb, vb) = t.row(r);
            // Merge-compare the two sorted rows.
            let (mut i, mut j) = (0usize, 0usize);
            while i < ca.len() || j < cb.len() {
                let (c, d) = match (ca.get(i), cb.get(j)) {
                    (Some(&x), Some(&y)) if x == y => {
                        let d = (va[i] - vb[j]).abs();
                        i += 1;
                        j += 1;
                        (x, d)
                    }
                    (Some(&x), Some(&y)) if x < y => {
                        let d = va[i].abs();
                        i += 1;
                        (x, d)
                    }
                    (Some(_), Some(&y)) => {
                        let d = vb[j].abs();
                        j += 1;
                        (y, d)
                    }
                    (Some(&x), None) => {
                        let d = va[i].abs();
                        i += 1;
                        (x, d)
                    }
                    (None, Some(&y)) => {
                        let d = vb[j].abs();
                        j += 1;
                        (y, d)
                    }
                    (None, None) => unreachable!("loop condition"),
                };
                if d > tol {
                    return Err(SparseError::NotSymmetric {
                        row: r,
                        col: c,
                        diff: d,
                    });
                }
            }
        }
        Ok(())
    }

    /// True if [`CsrMatrix::check_symmetric`] passes at tolerance `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        self.check_symmetric(tol).is_ok()
    }

    /// Matrix bandwidth: `max_i max_{j: a_ij ≠ 0} |i - j|`. Returns 0 for
    /// matrices with no off-diagonal entries.
    #[cfg(test)]
    pub(crate) fn bandwidth(&self) -> usize {
        let mut bw = 0usize;
        for r in 0..self.nrows {
            let (cols, _) = self.row(r);
            if let Some(&first) = cols.first() {
                bw = bw.max(r.saturating_sub(first));
            }
            if let Some(&last) = cols.last() {
                bw = bw.max(last.saturating_sub(r));
            }
        }
        bw
    }

    /// Flop count of one SpMV with this matrix (2 flops per stored entry),
    /// used by the cost model.
    pub fn spmv_flops(&self) -> u64 {
        2 * self.nnz() as u64
    }

    /// Flop count of applying rows `rows` only.
    pub fn spmv_rows_flops(&self, rows: std::ops::Range<usize>) -> u64 {
        2 * (self.row_ptr[rows.end] - self.row_ptr[rows.start]) as u64
    }

    /// Flop count of applying exactly the rows in `rows` (an explicit
    /// list, as used by [`CsrMatrix::spmv_rows_subset_into`]).
    #[cfg(test)]
    pub(crate) fn spmv_rows_list_flops(&self, rows: &[usize]) -> u64 {
        2 * rows.iter().map(|&r| self.row_nnz(r)).sum::<usize>() as u64
    }
}

/// Writes a [`CsrMatrix`] row by row, in order, straight into its three
/// arrays — the constructor for producers that already visit entries in
/// `(row, column)` order (the structured generators), which therefore need
/// neither a triplet buffer nor a sort.
///
/// The arrays are allocated once, at the exact `nnz` the caller states; a
/// caller that pushes more pays a growth `realloc`, which
/// `tests/alloc_setup.rs` counts.
pub(crate) struct CsrWriter {
    nrows: usize,
    ncols: usize,
    /// The smallest column the open row still admits: one past its last.
    min_col: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrWriter {
    /// A writer for an `nrows × ncols` matrix of exactly `nnz` entries.
    pub(crate) fn with_capacity(nrows: usize, ncols: usize, nnz: usize) -> Self {
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        row_ptr.push(0);
        CsrWriter {
            nrows,
            ncols,
            min_col: 0,
            row_ptr,
            col_idx: Vec::with_capacity(nnz),
            values: Vec::with_capacity(nnz),
        }
    }

    /// Appends `(col, value)` to the open row and returns the entry's
    /// position, for [`CsrWriter::set`].
    ///
    /// # Panics
    /// Panics — in every profile, this is the check the un-checked SpMV
    /// gather rests on — unless `col < ncols` and `col` is larger than the
    /// open row's previous column.
    #[inline]
    pub(crate) fn push(&mut self, col: usize, value: f64) -> usize {
        assert!(col < self.ncols, "CsrWriter: column {col} out of range");
        assert!(
            col >= self.min_col,
            "CsrWriter: column {col} does not ascend within its row"
        );
        self.min_col = col + 1;
        self.col_idx.push(col);
        self.values.push(value);
        self.col_idx.len() - 1
    }

    /// Overwrites the value at `pos` (as returned by [`CsrWriter::push`]):
    /// how a generator fills a diagonal it can only sum up once the row's
    /// last neighbour has been visited.
    #[inline]
    pub(crate) fn set(&mut self, pos: usize, value: f64) {
        self.values[pos] = value;
    }

    /// Closes the open row and opens the next.
    #[inline]
    pub(crate) fn end_row(&mut self) {
        self.min_col = 0;
        self.row_ptr.push(self.col_idx.len());
    }

    /// The finished matrix.
    ///
    /// # Panics
    /// Panics unless exactly `nrows` rows were closed.
    pub(crate) fn finish(self) -> CsrMatrix {
        assert_eq!(
            self.row_ptr.len(),
            self.nrows + 1,
            "CsrWriter: rows written != nrows"
        );
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr: self.row_ptr,
            col_idx: self.col_idx,
            values: self.values,
        }
        .sealed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix {
        // [ 4 -1  0 ]
        // [-1  4 -1 ]
        // [ 0 -1  4 ]
        CsrMatrix::from_dense(3, 3, &[4.0, -1.0, 0.0, -1.0, 4.0, -1.0, 0.0, -1.0, 4.0])
    }

    #[test]
    fn from_coo_builds_valid_csr() {
        let a = small();
        a.validate().unwrap();
        assert_eq!(a.nnz(), 7);
        assert_eq!(a.get(0, 0), 4.0);
        assert_eq!(a.get(0, 2), 0.0);
        assert_eq!(a.get(2, 1), -1.0);
    }

    #[test]
    fn identity_acts_as_identity() {
        let i = CsrMatrix::identity(4);
        i.validate().unwrap();
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(i.spmv(&x), x);
    }

    #[test]
    fn spmv_matches_dense() {
        let a = small();
        let y = a.spmv(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![2.0, 4.0, 10.0]);
    }

    #[test]
    fn spmv_rows_computes_partial_product() {
        let a = small();
        let x = [1.0, 2.0, 3.0];
        let mut y = vec![0.0; 2];
        a.spmv_rows_into(1..3, &x, &mut y);
        assert_eq!(y, vec![4.0, 10.0]);
    }

    #[test]
    fn spmv_rows_subset_scatters_at_offset_positions() {
        let a = small();
        let x = [1.0, 2.0, 3.0];
        // Full reference over rows 1..3.
        let mut reference = vec![0.0; 2];
        a.spmv_rows_into(1..3, &x, &mut reference);
        // The same range computed as two disjoint subsets.
        let mut y = vec![f64::NAN; 2];
        a.spmv_rows_subset_into(&[2], 1, &x, &mut y);
        assert!(y[0].is_nan(), "unlisted rows are untouched");
        a.spmv_rows_subset_into(&[1], 1, &x, &mut y);
        assert_eq!(y, reference);
        // Empty subset is a no-op.
        a.spmv_rows_subset_into(&[], 1, &x, &mut y);
        assert_eq!(y, reference);
        assert_eq!(a.spmv_rows_list_flops(&[1, 2]), a.spmv_rows_flops(1..3));
        assert_eq!(a.spmv_rows_list_flops(&[]), 0);
    }

    #[test]
    fn spmv_rows_masked_skips_masked_columns() {
        let a = small();
        let x = [1.0, 2.0, 3.0];
        // Mask column 1: row 0 -> 4*1, row 2 -> 4*3
        let y = a.spmv_rows_masked(&[0, 2], &x, |c| c == 1);
        assert_eq!(y, vec![4.0, 12.0]);
    }

    #[test]
    fn spmv_rows_masked_into_matches_allocating_variant() {
        let a = small();
        let x = [1.0, 2.0, 3.0];
        let mut y = vec![0.0; 2];
        a.spmv_rows_masked_into(&[0, 2], &x, |c| c == 1, &mut y);
        assert_eq!(y, a.spmv_rows_masked(&[0, 2], &x, |c| c == 1));
    }

    #[test]
    fn every_spmv_entry_point_rejects_a_short_x() {
        // `row_dot` gathers `x[c]` unchecked on the strength of these
        // assertions, so they must fire in every profile: this test is also
        // run under `cargo test --release`.
        let a = small();
        let x = [1.0, 2.0];
        type Call<'a> = &'a dyn Fn(&mut [f64]);
        let calls: [(&str, Call); 4] = [
            ("spmv_into", &|y| a.spmv_into(&x, y)),
            ("spmv_rows_into", &|y| a.spmv_rows_into(0..3, &x, y)),
            ("spmv_rows_subset_into", &|y| {
                a.spmv_rows_subset_into(&[0, 1, 2], 0, &x, y)
            }),
            ("spmv_rows_masked_into", &|y| {
                a.spmv_rows_masked_into(&[0, 1, 2], &x, |_| false, y)
            }),
        ];
        for (name, call) in calls {
            let mut y = [0.0; 3];
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| call(&mut y)))
                .expect_err(name);
            let message = panic.downcast_ref::<String>().expect("formatted panic");
            assert!(message.contains("x length"), "{name}: {message}");
            assert_eq!(y, [0.0; 3], "{name} wrote before it checked");
        }
    }

    #[test]
    fn writer_builds_the_matrix_it_was_handed_row_by_row() {
        let mut w = CsrWriter::with_capacity(3, 3, 7);
        w.push(0, 4.0);
        w.push(1, -1.0);
        w.end_row();
        w.push(0, -1.0);
        let diag = w.push(1, 0.0);
        w.push(2, -1.0);
        w.set(diag, 4.0);
        w.end_row();
        w.push(1, -1.0);
        w.push(2, 4.0);
        w.end_row();
        assert_eq!(w.finish(), small());
        // Empty rows and an empty matrix are rows like any other.
        let mut w = CsrWriter::with_capacity(2, 5, 0);
        w.end_row();
        w.end_row();
        assert_eq!(w.finish().row_ptr(), &[0, 0, 0]);
        assert_eq!(CsrWriter::with_capacity(0, 0, 0).finish().nnz(), 0);
    }

    #[test]
    fn writer_rejects_what_would_break_the_invariant_in_every_profile() {
        // `row_dot` gathers `x[c]` unchecked on the strength of these
        // assertions, so they must fire in every profile: this test is also
        // run under `cargo test --release`.
        type Misuse<'a> = &'a dyn Fn(&mut CsrWriter);
        let misuses: [(&str, &str, Misuse); 4] = [
            ("column == ncols", "out of range", &|w| {
                w.push(3, 1.0);
            }),
            ("equal column", "does not ascend", &|w| {
                w.push(1, 1.0);
                w.push(1, 1.0);
            }),
            ("descending column", "does not ascend", &|w| {
                w.push(2, 1.0);
                w.push(0, 1.0);
            }),
            ("a row too many", "rows written", &|w| {
                w.end_row();
                w.end_row();
                w.end_row();
            }),
        ];
        for (name, expected, misuse) in misuses {
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut w = CsrWriter::with_capacity(2, 3, 4);
                w.push(2, 1.0);
                w.end_row(); // a new row may start below the previous row's last column
                misuse(&mut w);
                w.end_row();
                w.finish()
            }))
            .expect_err(name);
            let message = panic.downcast_ref::<String>().expect("formatted panic");
            assert!(message.contains(expected), "{name}: {message}");
        }
    }

    #[test]
    fn extract_rows_filtered_splits_masked_spmv() {
        let a = small();
        let x = [1.0, 2.0, 3.0];
        let rows = [0usize, 1, 2];
        let keep_odd = a.extract_rows_filtered(&rows, |c| c % 2 == 1);
        keep_odd.validate().unwrap();
        assert_eq!(keep_odd.ncols(), 3, "columns stay global");
        // SpMV over the filtered rows equals the masked SpMV.
        let masked = a.spmv_rows_masked(&rows, &x, |c| c % 2 == 0);
        assert_eq!(keep_odd.spmv(&x), masked);
        // The two complementary filters partition the entries.
        let keep_even = a.extract_rows_filtered(&rows, |c| c % 2 == 0);
        assert_eq!(keep_odd.nnz() + keep_even.nnz(), a.nnz());
    }

    #[test]
    fn principal_submatrix_remaps_columns() {
        let a = small();
        let sub = a.principal_submatrix(&[0, 2]);
        assert_eq!(sub.nrows(), 2);
        assert_eq!(sub.ncols(), 2);
        // A[{0,2},{0,2}] = [[4, 0], [0, 4]] (the -1s couple through index 1).
        assert_eq!(sub.get(0, 0), 4.0);
        assert_eq!(sub.get(0, 1), 0.0);
        assert_eq!(sub.get(1, 1), 4.0);
        sub.validate().unwrap();
    }

    #[test]
    fn transpose_round_trips() {
        let a = CsrMatrix::from_dense(2, 3, &[1.0, 0.0, 2.0, 0.0, 3.0, 0.0]);
        let t = a.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.ncols(), 2);
        assert_eq!(t.get(2, 0), 2.0);
        assert_eq!(t.get(1, 1), 3.0);
        let tt = t.transpose();
        assert_eq!(tt, a);
    }

    #[test]
    fn symmetry_check_accepts_symmetric() {
        assert!(small().is_symmetric(0.0));
    }

    #[test]
    fn symmetry_check_rejects_asymmetric() {
        let a = CsrMatrix::from_dense(2, 2, &[1.0, 2.0, 3.0, 1.0]);
        let err = a.check_symmetric(1e-12).unwrap_err();
        assert!(matches!(err, SparseError::NotSymmetric { .. }));
    }

    #[test]
    fn symmetry_check_handles_structural_asymmetry() {
        // Value present at (0,1) but absent at (1,0).
        let a = CsrMatrix::from_dense(2, 2, &[1.0, 5.0, 0.0, 1.0]);
        assert!(!a.is_symmetric(1e-12));
        // ... but tolerated if within tol.
        let b = CsrMatrix::from_dense(2, 2, &[1.0, 1e-15, 0.0, 1.0]);
        assert!(b.is_symmetric(1e-12));
    }

    #[test]
    fn bandwidth_computed() {
        assert_eq!(small().bandwidth(), 1);
        assert_eq!(CsrMatrix::identity(5).bandwidth(), 0);
        let a = CsrMatrix::from_dense(3, 3, &[1.0, 0.0, 7.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.bandwidth(), 2);
    }

    #[test]
    fn validate_catches_bad_structure() {
        let bad = CsrMatrix::from_raw(2, 2, vec![0, 1], vec![0], vec![1.0]);
        assert!(bad.is_err()); // row_ptr too short
        let bad = CsrMatrix::from_raw(1, 2, vec![0, 2], vec![1, 0], vec![1.0, 2.0]);
        assert!(bad.is_err()); // unsorted columns
        let bad = CsrMatrix::from_raw(1, 2, vec![0, 1], vec![5], vec![1.0]);
        assert!(bad.is_err()); // column out of range
        let bad = CsrMatrix::from_raw(2, 2, vec![0, 5, 1], vec![0], vec![1.0]);
        assert!(bad.is_err()); // row_ptr runs past nnz before it comes back
        let good = CsrMatrix::from_raw(1, 2, vec![0, 2], vec![0, 1], vec![1.0, 2.0]);
        assert!(good.is_ok());
    }

    #[test]
    fn diag_and_flops() {
        let a = small();
        assert_eq!(a.diag(), vec![4.0, 4.0, 4.0]);
        assert_eq!(a.spmv_flops(), 14);
        assert_eq!(a.spmv_rows_flops(0..1), 4);
        assert_eq!(a.spmv_rows_flops(1..3), 10);
    }

    #[test]
    fn avg_nnz_per_row_computed() {
        let a = small();
        assert!(((a.nnz() as f64 / a.nrows() as f64) - 7.0 / 3.0).abs() < 1e-15);
    }
}
