//! BCSR (block compressed sparse row) storage with per-block occupancy
//! masks.
//!
//! A [`BcsrMatrix`] groups `r` consecutive stored rows into a block row and
//! the global columns into aligned width-`c` block columns (`bc = col / c`).
//! Each present block is a dense `r × c` value tile plus a `u64` occupancy
//! mask recording which tile positions hold *structural* (CSR-stored)
//! entries. For matrices with natural small dense blocks — the 3-DOF
//! elasticity generators produce aligned 3×3 blocks — one column index per
//! block amortizes the index traffic `r·c`-fold and the tile loop reads `x`
//! contiguously, which is where the SpMV speedup comes from.
//!
//! # Bitwise determinism
//!
//! Blocks are stored in ascending block-column order and tiles are
//! row-major, so each output row consumes its structural entries in
//! ascending-column (CSR) order into its own scalar accumulator — the
//! exact CSR accumulation. Tile positions that are *not* structural are
//! never accumulated: a **full** mask takes the unguarded dense fast path
//! (every position is structural, so there is nothing to guard), and a
//! partial mask guards every position. Padding therefore contributes
//! nothing — not even a `0.0 * x` product — and `SpMV(BCSR) == SpMV(CSR)`
//! bit for bit at any block shape and thread count.

use crate::csr::CsrMatrix;

/// Upper bound on each block dimension (`r·c ≤ 64` keeps the occupancy
/// mask in one `u64`; the generic kernel's accumulator lives on the
/// stack).
pub(crate) const MAX_BCSR_DIM: usize = 8;

/// A row list stored as masked dense `r × c` blocks. See the module docs.
#[derive(Debug, Clone)]
pub struct BcsrMatrix {
    ncols: usize,
    r: usize,
    c: usize,
    /// Block index range of each block row (`n_block_rows + 1`, monotone).
    row_ptr: Vec<usize>,
    /// Aligned block column of each block (`x` base = `bc * c`).
    block_col: Vec<usize>,
    /// Dense tiles, row-major, `r * c` values per block (non-structural
    /// positions hold 0.0, never read).
    vals: Vec<f64>,
    /// Structural-position mask per block, bit `i*c + j` = tile `(i, j)`.
    masks: Vec<u64>,
    /// Output position per block-row lane (`n_block_rows * r`; lanes past
    /// the row list hold `usize::MAX`).
    out: Vec<usize>,
    nnz: usize,
}

impl BcsrMatrix {
    /// Converts a whole CSR matrix (output position = row index).
    ///
    /// # Panics
    /// See [`BcsrMatrix::from_rows`].
    #[cfg(test)]
    pub(crate) fn from_csr(a: &CsrMatrix, r: usize, c: usize) -> Self {
        let rows: Vec<usize> = (0..a.nrows()).collect();
        Self::from_rows(a, &rows, &rows, r, c)
    }

    /// Converts the listed rows of `a`; `out[i]` is the output (`y`)
    /// position of `rows[i]`. Consecutive list entries share a block row;
    /// block columns stay globally aligned regardless of the list.
    ///
    /// # Panics
    /// Panics if a block dimension is 0 or exceeds [`MAX_BCSR_DIM`], the
    /// lists differ in length, or `out` is not strictly increasing (the
    /// parallel backend's output disjointness depends on it).
    pub(crate) fn from_rows(
        a: &CsrMatrix,
        rows: &[usize],
        out: &[usize],
        r: usize,
        c: usize,
    ) -> Self {
        assert!(
            (1..=MAX_BCSR_DIM).contains(&r) && (1..=MAX_BCSR_DIM).contains(&c),
            "bcsr: block dims must be in 1..={MAX_BCSR_DIM}"
        );
        assert_eq!(rows.len(), out.len(), "bcsr: rows/out length mismatch");
        assert!(
            out.windows(2).all(|w| w[0] < w[1]),
            "bcsr: out positions must be strictly increasing"
        );
        let n = rows.len();
        let n_block_rows = n.div_ceil(r);
        let mut row_ptr = Vec::with_capacity(n_block_rows + 1);
        let mut block_col = Vec::new();
        let mut vals = Vec::new();
        let mut masks = Vec::new();
        let mut out_lanes = vec![usize::MAX; n_block_rows * r];
        row_ptr.push(0);
        // Scratch: block columns present in the current block row.
        let mut bcs: Vec<usize> = Vec::new();
        for br in 0..n_block_rows {
            let lo = br * r;
            let hi = (lo + r).min(n);
            bcs.clear();
            for (l, &row) in rows[lo..hi].iter().enumerate() {
                out_lanes[br * r + l] = out[lo + l];
                let (cols, _) = a.row(row);
                for &col in cols {
                    let bc = col / c;
                    // Row columns ascend; collect the sorted union cheaply.
                    match bcs.binary_search(&bc) {
                        Ok(_) => {}
                        Err(pos) => bcs.insert(pos, bc),
                    }
                }
            }
            let base_block = block_col.len();
            block_col.extend_from_slice(&bcs);
            vals.resize((base_block + bcs.len()) * r * c, 0.0);
            masks.resize(base_block + bcs.len(), 0);
            for (l, &row) in rows[lo..hi].iter().enumerate() {
                let (cols, rvals) = a.row(row);
                for (&col, &v) in cols.iter().zip(rvals.iter()) {
                    let bc = col / c;
                    let b = base_block + bcs.binary_search(&bc).unwrap();
                    let (i, j) = (l, col - bc * c);
                    vals[b * r * c + i * c + j] = v;
                    masks[b] |= 1u64 << (i * c + j);
                }
            }
            row_ptr.push(block_col.len());
        }
        BcsrMatrix {
            ncols: a.ncols(),
            r,
            c,
            row_ptr,
            block_col,
            vals,
            masks,
            out: out_lanes,
            nnz: rows.iter().map(|&row| a.row_nnz(row)).sum(),
        }
    }

    /// Block height `r`.
    pub(crate) fn r(&self) -> usize {
        self.r
    }

    /// Number of columns of the source matrix.
    pub(crate) fn ncols(&self) -> usize {
        self.ncols
    }

    /// Stored (structural) entries — identical to the source rows' CSR nnz.
    pub(crate) fn nnz(&self) -> usize {
        self.nnz
    }

    /// Allocated tile slots including padding (`n_blocks * r * c ≥ nnz`).
    #[cfg(test)]
    pub(crate) fn n_slots(&self) -> usize {
        self.vals.len()
    }

    /// Number of block rows (the parallel split granularity).
    pub(crate) fn n_block_rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Fraction of stored blocks that are completely full (these take the
    /// unguarded dense fast path).
    #[cfg(test)]
    pub(crate) fn full_block_ratio(&self) -> f64 {
        if self.masks.is_empty() {
            return 1.0;
        }
        let full = 1u64
            .checked_shl((self.r * self.c) as u32)
            .map_or(u64::MAX, |v| v - 1);
        let n_full = self.masks.iter().filter(|&&m| m == full).count();
        n_full as f64 / self.masks.len() as f64
    }

    /// Block-row pointer — monotone, for block-balanced parallel splitting.
    pub(crate) fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Output span `[lo, hi)` of block rows `[br_lo, br_hi)` — valid
    /// because `out` is strictly increasing and lanes past the row list
    /// only occur at the very end.
    pub(crate) fn out_span(&self, br_lo: usize, br_hi: usize) -> (usize, usize) {
        debug_assert!(br_lo < br_hi);
        let lo = self.out[br_lo * self.r];
        let hi = self.out[..br_hi * self.r]
            .iter()
            .rev()
            .find(|&&o| o != usize::MAX)
            .map(|&o| o + 1)
            .expect("non-empty block row span");
        (lo, hi)
    }

    /// Scatters the stored entries into a dense `nrows × ncols` row-major
    /// buffer at their output positions — the round-trip check used by the
    /// conversion tests.
    #[cfg(test)]
    pub(crate) fn to_dense(&self, nrows: usize) -> Vec<f64> {
        let mut dense = vec![0.0; nrows * self.ncols];
        let (r, c) = (self.r, self.c);
        for br in 0..self.n_block_rows() {
            for b in self.row_ptr[br]..self.row_ptr[br + 1] {
                let x0 = self.block_col[b] * c;
                for i in 0..r {
                    let o = self.out[br * r + i];
                    if o == usize::MAX {
                        continue;
                    }
                    for j in 0..c {
                        if self.masks[b] & (1u64 << (i * c + j)) != 0 {
                            dense[o * self.ncols + x0 + j] += self.vals[b * r * c + i * c + j];
                        }
                    }
                }
            }
        }
        dense
    }

    /// `y[out[lane]] = Σ` over block rows `[br_lo, br_hi)`, with `y` a
    /// slice whose index 0 corresponds to global output position
    /// `y_offset`. Sequential; the parallel backend calls this once per
    /// worker with output-disjoint slices.
    pub(crate) fn spmv_block_rows_into(
        &self,
        br_lo: usize,
        br_hi: usize,
        x: &[f64],
        y: &mut [f64],
        y_offset: usize,
    ) {
        match (self.r, self.c) {
            (2, 2) => self.spmv_tiles::<2, 2>(br_lo, br_hi, x, y, y_offset),
            (3, 3) => self.spmv_tiles::<3, 3>(br_lo, br_hi, x, y, y_offset),
            (4, 4) => self.spmv_tiles::<4, 4>(br_lo, br_hi, x, y, y_offset),
            _ => self.spmv_tiles_generic(br_lo, br_hi, x, y, y_offset),
        }
    }

    /// `y[out[lane]] = row · x` for every stored lane (whole-piece SpMV).
    ///
    /// # Panics
    /// Panics if `x.len() != ncols`.
    pub(crate) fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "bcsr spmv: x length != ncols");
        self.spmv_block_rows_into(0, self.n_block_rows(), x, y, 0);
    }

    /// The fixed-shape kernel: `R × C` are compile-time constants so both
    /// tile loops have known trip counts.
    fn spmv_tiles<const R: usize, const C: usize>(
        &self,
        br_lo: usize,
        br_hi: usize,
        x: &[f64],
        y: &mut [f64],
        y_offset: usize,
    ) {
        debug_assert!(self.r == R && self.c == C);
        let full: u64 = (1u64 << (R * C)) - 1;
        for br in br_lo..br_hi {
            let mut acc = [0.0f64; R];
            for b in self.row_ptr[br]..self.row_ptr[br + 1] {
                let x0 = self.block_col[b] * C;
                let xs = &x[x0..x0 + C.min(x.len() - x0)];
                let tile = &self.vals[b * R * C..(b + 1) * R * C];
                let m = self.masks[b];
                if m == full {
                    // Dense fast path: every position is structural — the
                    // amortized-index, contiguous-x inner loop.
                    for i in 0..R {
                        let trow = &tile[i * C..i * C + C];
                        let mut s = acc[i];
                        for j in 0..C {
                            s += trow[j] * xs[j];
                        }
                        acc[i] = s;
                    }
                } else {
                    // Guarded path: only structural positions accumulate,
                    // so padding contributes nothing (see module docs).
                    for i in 0..R {
                        for j in 0..C {
                            if m & (1u64 << (i * C + j)) != 0 {
                                acc[i] += tile[i * C + j] * xs[j];
                            }
                        }
                    }
                }
            }
            for (i, &a) in acc.iter().enumerate() {
                let o = self.out[br * R + i];
                if o != usize::MAX {
                    y[o - y_offset] = a;
                }
            }
        }
    }

    /// Runtime-shape fallback for block shapes without a specialization.
    fn spmv_tiles_generic(
        &self,
        br_lo: usize,
        br_hi: usize,
        x: &[f64],
        y: &mut [f64],
        y_offset: usize,
    ) {
        let (r, c) = (self.r, self.c);
        let full: u64 = 1u64.checked_shl((r * c) as u32).map_or(u64::MAX, |v| v - 1);
        for br in br_lo..br_hi {
            let mut acc = [0.0f64; MAX_BCSR_DIM];
            for b in self.row_ptr[br]..self.row_ptr[br + 1] {
                let x0 = self.block_col[b] * c;
                let xs = &x[x0..x0 + c.min(x.len() - x0)];
                let tile = &self.vals[b * r * c..(b + 1) * r * c];
                let m = self.masks[b];
                if m == full {
                    for i in 0..r {
                        let mut s = acc[i];
                        for j in 0..c {
                            s += tile[i * c + j] * xs[j];
                        }
                        acc[i] = s;
                    }
                } else {
                    for i in 0..r {
                        for j in 0..c {
                            if m & (1u64 << (i * c + j)) != 0 {
                                acc[i] += tile[i * c + j] * xs[j];
                            }
                        }
                    }
                }
            }
            for (i, &a) in acc.iter().enumerate().take(r) {
                let o = self.out[br * r + i];
                if o != usize::MAX {
                    y[o - y_offset] = a;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{audikw_like, banded_spd, poisson2d};

    fn csr_dense(a: &CsrMatrix) -> Vec<f64> {
        let mut d = vec![0.0; a.nrows() * a.ncols()];
        for r in 0..a.nrows() {
            let (cols, vals) = a.row(r);
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                d[r * a.ncols() + c] += v;
            }
        }
        d
    }

    #[test]
    fn round_trips_to_dense() {
        let a = banded_spd(90, 8, 0.5, 21);
        for (r, c) in [(2usize, 2usize), (3, 3), (4, 4), (2, 5), (1, 1)] {
            let b = BcsrMatrix::from_rows(
                &a,
                &(0..90).collect::<Vec<_>>(),
                &(0..90).collect::<Vec<_>>(),
                r,
                c,
            );
            assert_eq!(b.to_dense(a.nrows()), csr_dense(&a), "{r}x{c}");
            assert_eq!(b.nnz(), a.nnz());
            assert!(b.n_slots() >= b.nnz());
        }
    }

    #[test]
    fn spmv_is_bitwise_csr() {
        let a = poisson2d(19, 13);
        let x: Vec<f64> = (0..a.ncols())
            .map(|i| (i as f64 * 0.29).cos() - 0.4)
            .collect();
        let reference = a.spmv(&x);
        for (r, c) in [(2usize, 2usize), (3, 3), (4, 4), (3, 5), (6, 2)] {
            let b = BcsrMatrix::from_csr(&a, r, c);
            let mut y = vec![0.0; a.nrows()];
            b.spmv_into(&x, &mut y);
            for (i, (got, want)) in y.iter().zip(reference.iter()).enumerate() {
                assert_eq!(got.to_bits(), want.to_bits(), "row {i} {r}x{c}");
            }
        }
    }

    #[test]
    fn elasticity_blocks_are_mostly_full_at_3x3() {
        // The 3-DOF elasticity generator produces aligned 3×3 node blocks —
        // the matrix BCSR is built for.
        let a = audikw_like(6, 6, 6);
        let b3 = BcsrMatrix::from_csr(&a, 3, 3);
        assert!(
            b3.full_block_ratio() > 0.9,
            "3x3 fill ratio {}",
            b3.full_block_ratio()
        );
        // A misaligned shape fragments the blocks.
        let b2 = BcsrMatrix::from_csr(&a, 2, 2);
        assert!(b2.full_block_ratio() < b3.full_block_ratio());
    }

    #[test]
    fn subset_pieces_write_only_their_rows() {
        let a = banded_spd(70, 5, 0.7, 9);
        let rows: Vec<usize> = (0..70).filter(|r| r % 4 != 1).collect();
        let out = rows.clone();
        let b = BcsrMatrix::from_rows(&a, &rows, &out, 3, 3);
        let x: Vec<f64> = (0..70).map(|i| (i as f64).sqrt() - 4.0).collect();
        let mut y = vec![f64::NAN; 70];
        b.spmv_into(&x, &mut y);
        let reference = a.spmv(&x);
        for r in 0..70 {
            if r % 4 != 1 {
                assert_eq!(y[r].to_bits(), reference[r].to_bits(), "row {r}");
            } else {
                assert!(y[r].is_nan(), "unlisted row {r} must stay untouched");
            }
        }
    }

    #[test]
    fn out_spans_are_disjoint_and_ascending() {
        let a = banded_spd(50, 6, 0.6, 2);
        let rows: Vec<usize> = (5..45).collect();
        let out: Vec<usize> = rows.iter().map(|&r| r - 5).collect();
        let b = BcsrMatrix::from_rows(&a, &rows, &out, 3, 3);
        let mut prev_hi = 0;
        for br in 0..b.n_block_rows() {
            let (lo, hi) = b.out_span(br, br + 1);
            assert!(lo < hi);
            assert!(lo >= prev_hi, "block row {br} overlaps its predecessor");
            prev_hi = hi;
        }
        let (lo, hi) = b.out_span(0, b.n_block_rows());
        assert_eq!((lo, hi), (0, 40));
    }

    #[test]
    fn empty_piece_is_a_no_op() {
        let a = poisson2d(4, 4);
        let b = BcsrMatrix::from_rows(&a, &[], &[], 2, 2);
        assert_eq!(b.n_block_rows(), 0);
        let x = vec![1.0; a.ncols()];
        let mut y = vec![3.0; a.nrows()];
        b.spmv_into(&x, &mut y);
        assert!(y.iter().all(|&v| v == 3.0));
    }

    #[test]
    fn partial_blocks_never_read_padding() {
        // x is poisoned with NaN at a column covered by a partial block's
        // padding; only the mask-guarded path keeps the result clean.
        let a = CsrMatrix::from_dense(
            2,
            4,
            &[
                1.0, 0.0, 2.0, 0.0, // block (0,0) holds cols {0}, padding at col 1
                0.0, 0.0, 3.0, 4.0,
            ],
        );
        let b = BcsrMatrix::from_csr(&a, 2, 2);
        let x = vec![2.0, f64::NAN, 1.0, -1.0];
        let mut y = vec![0.0; 2];
        b.spmv_into(&x, &mut y);
        assert_eq!(y[0], 1.0 * 2.0 + 2.0 * 1.0);
        assert_eq!(y[1], 3.0 * 1.0 - 4.0 * 1.0);
    }
}
