//! SELL-C-σ sliced-ELLPACK storage: the vector-friendly SpMV format.
//!
//! A [`SellMatrix`] stores a list of rows (the whole matrix, one rank's
//! owned range, or an interior/boundary subset) in chunks of `C` lanes.
//! Within every σ-row *window* the rows are stably sorted by descending
//! stored-entry count, so the lanes sharing a chunk have similar lengths
//! and the zero-padding overhead stays small. Slots are laid out
//! column-major within a chunk — slot `k` of all `C` lanes is contiguous —
//! which is the classic SELL-C-σ layout the autovectorizer can turn into
//! fixed-width vertical operations.
//!
//! # Bitwise determinism
//!
//! The accumulation **order per output row is exactly the CSR order**: a
//! row's entries occupy its lane's slots in ascending-column (CSR) order,
//! each lane accumulates into its own scalar, and padded slots are
//! *guarded, not multiplied* — a padded slot contributes nothing, rather
//! than adding `0.0 * x[c]` (which could flip a `-0.0` partial sum to
//! `+0.0`). Chunks whose lanes all have exactly the chunk width skip the
//! guard (there is no padding to guard against), which is the fast path σ
//! sorting is designed to produce. Consequently `SpMV(SELL) == SpMV(CSR)`
//! bit for bit, for any `C`, any σ, any thread count.
//!
//! Rows are sorted but *outputs are not*: every lane carries the output
//! position of its row, and the per-window output spans (windows partition
//! the original row list in order, and output positions are strictly
//! increasing) give the parallel backend worker-disjoint output slices.

use crate::csr::CsrMatrix;

/// Upper bound on the chunk height `C` (the generic kernel's accumulator
/// lives on the stack).
pub(crate) const MAX_SELL_C: usize = 16;

/// Lane marker for padded (non-existent) rows at the tail of the lane grid.
const NO_ROW: usize = usize::MAX;

/// A row list stored in SELL-C-σ layout. See the module docs.
#[derive(Debug, Clone)]
pub struct SellMatrix {
    ncols: usize,
    c: usize,
    /// Effective window size in rows (σ rounded up to a multiple of `C`).
    window: usize,
    /// Slot offset of each chunk (column-major slots; chunk `i` occupies
    /// `chunk_ptr[i]..chunk_ptr[i+1]`, which is `width_i * c` slots).
    chunk_ptr: Vec<usize>,
    /// `true` for chunks whose lanes all have exactly the chunk width —
    /// no padding, so the kernel can skip the per-slot guard.
    uniform: Vec<bool>,
    /// Slot column indices (padding slots hold 0, never read).
    cols: Vec<usize>,
    /// Slot values (padding slots hold 0.0, never read).
    vals: Vec<f64>,
    /// Stored-entry count per lane (`n_chunks * c`; padded lanes hold 0).
    lens: Vec<usize>,
    /// Output position per lane (`n_chunks * c`; padded lanes hold
    /// `usize::MAX`).
    out: Vec<usize>,
    /// Slot offset of each window (for nnz-balanced parallel splitting;
    /// `windows × slots`, monotone).
    win_slot_ptr: Vec<usize>,
    /// Output span `[lo, hi)` of each window: the parallel backend's
    /// worker-disjointness certificate.
    win_out: Vec<(usize, usize)>,
    nnz: usize,
}

impl SellMatrix {
    /// Converts a whole CSR matrix (output position = row index).
    ///
    /// # Panics
    /// See [`SellMatrix::from_rows`].
    #[cfg(test)]
    pub(crate) fn from_csr(a: &CsrMatrix, c: usize, sigma: usize) -> Self {
        let rows: Vec<usize> = (0..a.nrows()).collect();
        Self::from_rows(a, &rows, &rows, c, sigma)
    }

    /// Converts the listed rows of `a`; `out[i]` is the output (`y`)
    /// position of `rows[i]`. Unlisted output positions are never touched
    /// by the SpMV kernels.
    ///
    /// # Panics
    /// Panics if `c` is 0 or exceeds [`MAX_SELL_C`], σ is 0, the lists
    /// differ in length, or `out` is not strictly increasing (the parallel
    /// backend's output disjointness depends on it).
    pub(crate) fn from_rows(
        a: &CsrMatrix,
        rows: &[usize],
        out: &[usize],
        c: usize,
        sigma: usize,
    ) -> Self {
        assert!(
            (1..=MAX_SELL_C).contains(&c),
            "sell: C must be in 1..={MAX_SELL_C}"
        );
        assert!(sigma >= 1, "sell: sigma must be positive");
        assert_eq!(rows.len(), out.len(), "sell: rows/out length mismatch");
        assert!(
            out.windows(2).all(|w| w[0] < w[1]),
            "sell: out positions must be strictly increasing"
        );
        let n = rows.len();
        let window = sigma.max(c).next_multiple_of(c);
        let n_windows = n.div_ceil(window);
        let n_chunks = n.div_ceil(c);

        // σ-sort: within each window, order the *list indices* by
        // descending stored-entry count, stably — ties keep list order.
        let mut order: Vec<usize> = (0..n).collect();
        for w in 0..n_windows {
            let lo = w * window;
            let hi = ((w + 1) * window).min(n);
            order[lo..hi].sort_by_key(|&i| std::cmp::Reverse(a.row_nnz(rows[i])));
        }

        let mut chunk_ptr = Vec::with_capacity(n_chunks + 1);
        let mut uniform = Vec::with_capacity(n_chunks);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        let mut lens = vec![0usize; n_chunks * c];
        let mut lane_row = vec![NO_ROW; n_chunks * c];
        chunk_ptr.push(0);
        for ch in 0..n_chunks {
            let lane0 = ch * c;
            let mut width = 0usize;
            for l in 0..c {
                if let Some(&i) = order.get(lane0 + l) {
                    let len = a.row_nnz(rows[i]);
                    lens[lane0 + l] = len;
                    lane_row[lane0 + l] = i;
                    width = width.max(len);
                }
            }
            let base = cols.len();
            cols.resize(base + width * c, 0);
            vals.resize(base + width * c, 0.0);
            for l in 0..c {
                if lane_row[lane0 + l] == NO_ROW {
                    continue;
                }
                let (rcols, rvals) = a.row(rows[lane_row[lane0 + l]]);
                for (k, (&col, &v)) in rcols.iter().zip(rvals.iter()).enumerate() {
                    cols[base + k * c + l] = col;
                    vals[base + k * c + l] = v;
                }
            }
            chunk_ptr.push(cols.len());
            uniform.push((0..c).all(|l| lens[lane0 + l] == width));
        }

        let out_lanes: Vec<usize> = lane_row
            .iter()
            .map(|&i| if i == NO_ROW { usize::MAX } else { out[i] })
            .collect();

        // Window accounting for the parallel backend: slot prefix (load
        // balance) and output spans (disjointness). Windows partition the
        // original list in order, so with strictly increasing `out` the
        // spans are disjoint and ascending.
        let wcc = window / c; // chunks per full window
        let mut win_slot_ptr = Vec::with_capacity(n_windows + 1);
        let mut win_out = Vec::with_capacity(n_windows);
        win_slot_ptr.push(0);
        for w in 0..n_windows {
            let ch_hi = ((w + 1) * wcc).min(n_chunks);
            win_slot_ptr.push(chunk_ptr[ch_hi]);
            let lo = w * window;
            let hi = ((w + 1) * window).min(n);
            win_out.push((out[lo], out[hi - 1] + 1));
        }

        SellMatrix {
            ncols: a.ncols(),
            c,
            window,
            chunk_ptr,
            uniform,
            cols,
            vals,
            lens,
            out: out_lanes,
            win_slot_ptr,
            win_out,
            nnz: rows.iter().map(|&r| a.row_nnz(r)).sum(),
        }
    }

    /// Effective sort-window size in rows (σ rounded up to a multiple of
    /// `C`).
    pub(crate) fn window(&self) -> usize {
        self.window
    }

    /// Number of columns of the source matrix.
    pub(crate) fn ncols(&self) -> usize {
        self.ncols
    }

    /// Stored (structural) entries — identical to the source rows' CSR nnz.
    pub(crate) fn nnz(&self) -> usize {
        self.nnz
    }

    /// Allocated slots including zero padding (`≥ nnz`).
    #[cfg(test)]
    pub(crate) fn n_slots(&self) -> usize {
        self.cols.len()
    }

    /// Number of `C`-lane chunks.
    pub(crate) fn n_chunks(&self) -> usize {
        self.chunk_ptr.len() - 1
    }

    /// Number of σ windows (the parallel split granularity).
    pub(crate) fn n_windows(&self) -> usize {
        self.win_out.len()
    }

    /// Window slot prefix — monotone, for nnz-balanced window splitting.
    pub(crate) fn win_slot_ptr(&self) -> &[usize] {
        &self.win_slot_ptr
    }

    /// Output span `[lo, hi)` of window `w`.
    pub(crate) fn win_out(&self, w: usize) -> (usize, usize) {
        self.win_out[w]
    }

    /// `(stored-entry count, output position)` of every lane, in lane
    /// order — the σ permutation record (padded lanes report
    /// `(0, usize::MAX)`).
    #[cfg(test)]
    pub(crate) fn lanes(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.lens.iter().zip(self.out.iter()).map(|(&l, &o)| (l, o))
    }

    /// Scatters the stored entries into a dense `nrows × ncols` row-major
    /// buffer at their output positions — the round-trip check used by the
    /// conversion tests.
    #[cfg(test)]
    pub(crate) fn to_dense(&self, nrows: usize) -> Vec<f64> {
        let mut dense = vec![0.0; nrows * self.ncols];
        for ch in 0..self.n_chunks() {
            let base = self.chunk_ptr[ch];
            let width = (self.chunk_ptr[ch + 1] - base) / self.c;
            for l in 0..self.c {
                let o = self.out[ch * self.c + l];
                if o == usize::MAX {
                    continue;
                }
                for k in 0..self.lens[ch * self.c + l] {
                    debug_assert!(k < width);
                    let col = self.cols[base + k * self.c + l];
                    dense[o * self.ncols + col] += self.vals[base + k * self.c + l];
                }
            }
        }
        dense
    }

    /// `y[out[lane]] = Σ` over the lanes of windows `[w_lo, w_hi)`, with
    /// `y` a slice whose index 0 corresponds to global output position
    /// `y_offset`. Sequential; the parallel backend calls this once per
    /// worker with window-aligned, output-disjoint slices.
    pub(crate) fn spmv_windows_into(
        &self,
        w_lo: usize,
        w_hi: usize,
        x: &[f64],
        y: &mut [f64],
        y_offset: usize,
    ) {
        let wcc = self.window / self.c;
        let ch_lo = w_lo * wcc;
        let ch_hi = (w_hi * wcc).min(self.n_chunks());
        match self.c {
            4 => self.spmv_chunks::<4>(ch_lo, ch_hi, x, y, y_offset),
            8 => self.spmv_chunks::<8>(ch_lo, ch_hi, x, y, y_offset),
            16 => self.spmv_chunks::<16>(ch_lo, ch_hi, x, y, y_offset),
            _ => self.spmv_chunks_generic(ch_lo, ch_hi, x, y, y_offset),
        }
    }

    /// `y[out[lane] ] = row · x` for every stored lane (whole-piece SpMV).
    ///
    /// # Panics
    /// Panics if `x.len() != ncols`.
    pub(crate) fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "sell spmv: x length != ncols");
        self.spmv_windows_into(0, self.n_windows(), x, y, 0);
    }

    /// The fixed-width kernel: `C` is a compile-time constant so the inner
    /// loop over lanes has a known trip count.
    fn spmv_chunks<const C: usize>(
        &self,
        ch_lo: usize,
        ch_hi: usize,
        x: &[f64],
        y: &mut [f64],
        y_offset: usize,
    ) {
        debug_assert_eq!(self.c, C);
        for ch in ch_lo..ch_hi {
            let base = self.chunk_ptr[ch];
            let width = (self.chunk_ptr[ch + 1] - base) / C;
            let lane0 = ch * C;
            let mut acc = [0.0f64; C];
            if self.uniform[ch] {
                // No padding: every lane has exactly `width` entries, so
                // every slot is structural and the guard can go.
                for k in 0..width {
                    let s = base + k * C;
                    let (cols, vals) = (&self.cols[s..s + C], &self.vals[s..s + C]);
                    for l in 0..C {
                        acc[l] += vals[l] * x[cols[l]];
                    }
                }
            } else {
                // Guarded: a padded slot contributes nothing (adding its
                // `0.0 * x` product could flip a -0.0 partial sum).
                for k in 0..width {
                    let s = base + k * C;
                    let (cols, vals) = (&self.cols[s..s + C], &self.vals[s..s + C]);
                    for l in 0..C {
                        if k < self.lens[lane0 + l] {
                            acc[l] += vals[l] * x[cols[l]];
                        }
                    }
                }
            }
            for (l, &a) in acc.iter().enumerate() {
                let o = self.out[lane0 + l];
                if o != usize::MAX {
                    y[o - y_offset] = a;
                }
            }
        }
    }

    /// Runtime-`C` fallback for chunk heights without a specialization.
    fn spmv_chunks_generic(
        &self,
        ch_lo: usize,
        ch_hi: usize,
        x: &[f64],
        y: &mut [f64],
        y_offset: usize,
    ) {
        let c = self.c;
        for ch in ch_lo..ch_hi {
            let base = self.chunk_ptr[ch];
            let width = (self.chunk_ptr[ch + 1] - base) / c;
            let lane0 = ch * c;
            let mut acc = [0.0f64; MAX_SELL_C];
            if self.uniform[ch] {
                for k in 0..width {
                    let s = base + k * c;
                    for l in 0..c {
                        acc[l] += self.vals[s + l] * x[self.cols[s + l]];
                    }
                }
            } else {
                for k in 0..width {
                    let s = base + k * c;
                    for l in 0..c {
                        if k < self.lens[lane0 + l] {
                            acc[l] += self.vals[s + l] * x[self.cols[s + l]];
                        }
                    }
                }
            }
            for (l, &a) in acc.iter().enumerate().take(c) {
                let o = self.out[lane0 + l];
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
    use crate::gen::{banded_spd, poisson2d};

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
        let a = banded_spd(97, 7, 0.5, 11);
        for (c, sigma) in [(4usize, 4usize), (8, 32), (3, 7), (16, 1)] {
            let s = SellMatrix::from_csr(&a, c, sigma);
            assert_eq!(s.to_dense(a.nrows()), csr_dense(&a), "C={c} sigma={sigma}");
            assert_eq!(s.nnz(), a.nnz());
            assert!(s.n_slots() >= s.nnz());
        }
    }

    #[test]
    fn sigma_sorting_permutes_within_windows_only() {
        let a = banded_spd(60, 9, 0.4, 5);
        let s = SellMatrix::from_csr(&a, 4, 16);
        assert_eq!(s.window(), 16);
        // Every lane's output lands inside its window's original row range,
        // and each window covers its rows exactly once.
        let mut seen = vec![false; a.nrows()];
        for (lane, (len, out)) in s.lanes().enumerate() {
            if out == usize::MAX {
                assert_eq!(len, 0);
                continue;
            }
            let window_of_lane = (lane / 4) / (16 / 4);
            assert_eq!(out / 16, window_of_lane, "lane {lane}");
            assert_eq!(len, a.row_nnz(out));
            assert!(!seen[out]);
            seen[out] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Within each chunk, lane lengths are descending across chunks of a
        // window: the first chunk of a window holds its longest rows.
        for w in 0..s.n_windows() {
            let lens: Vec<usize> = (w * 4..(w + 1) * 4)
                .flat_map(|ch| {
                    s.lanes()
                        .skip(ch * 4)
                        .take(4)
                        .map(|(l, _)| l)
                        .collect::<Vec<_>>()
                })
                .collect();
            assert!(
                lens.windows(2).all(|p| p[0] >= p[1]),
                "window {w}: {lens:?}"
            );
        }
    }

    #[test]
    fn spmv_is_bitwise_csr() {
        let a = poisson2d(23, 17);
        let x: Vec<f64> = (0..a.ncols())
            .map(|i| (i as f64 * 0.37).sin() - 0.5)
            .collect();
        let reference = a.spmv(&x);
        for (c, sigma) in [(4usize, 1usize), (8, 64), (5, 20), (16, 391)] {
            let s = SellMatrix::from_csr(&a, c, sigma);
            let mut y = vec![0.0; a.nrows()];
            s.spmv_into(&x, &mut y);
            for (i, (got, want)) in y.iter().zip(reference.iter()).enumerate() {
                assert_eq!(got.to_bits(), want.to_bits(), "row {i} C={c} sigma={sigma}");
            }
        }
    }

    #[test]
    fn subset_pieces_write_only_their_rows() {
        let a = banded_spd(80, 6, 0.6, 3);
        let rows: Vec<usize> = (0..80).filter(|r| r % 3 != 0).collect();
        let out = rows.clone();
        let s = SellMatrix::from_rows(&a, &rows, &out, 8, 24);
        let x: Vec<f64> = (0..80).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let mut y = vec![f64::NAN; 80];
        s.spmv_into(&x, &mut y);
        let reference = a.spmv(&x);
        for r in 0..80 {
            if r % 3 != 0 {
                assert_eq!(y[r].to_bits(), reference[r].to_bits(), "row {r}");
            } else {
                assert!(y[r].is_nan(), "unlisted row {r} must stay untouched");
            }
        }
    }

    #[test]
    fn empty_piece_is_a_no_op() {
        let a = poisson2d(5, 5);
        let s = SellMatrix::from_rows(&a, &[], &[], 8, 8);
        assert_eq!(s.nnz(), 0);
        assert_eq!(s.n_chunks(), 0);
        let x = vec![1.0; a.ncols()];
        let mut y = vec![7.0; a.nrows()];
        s.spmv_into(&x, &mut y);
        assert!(y.iter().all(|&v| v == 7.0));
    }

    #[test]
    fn padding_is_guarded_never_read() {
        // Rows of different lengths share a chunk, forcing padded slots
        // (which store column 0). No row actually touches column 0, so
        // poisoning x[0] with NaN proves the kernel never *reads* padding —
        // the guard, not a multiply-by-zero, is what keeps results bitwise
        // CSR.
        let a = CsrMatrix::from_dense(
            3,
            4,
            &[
                0.0, 1.0, 2.0, 3.0, // row 0: 3 entries
                0.0, 0.0, 5.0, 0.0, // row 1: 1 entry → 2 padded slots
                0.0, -1.0, 0.0, 4.0, // row 2: 2 entries
            ],
        );
        let s = SellMatrix::from_csr(&a, 2, 4);
        let x = vec![f64::NAN, -1.0, 2.0, -3.0];
        let mut y = vec![0.0; 3];
        s.spmv_into(&x, &mut y);
        for (r, &got) in y.iter().enumerate() {
            let (cols, vals) = a.row(r);
            let mut want = 0.0;
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                want += v * x[c];
            }
            assert!(!got.is_nan(), "row {r} read a padded slot");
            assert_eq!(got.to_bits(), want.to_bits(), "row {r}");
        }
    }
}
