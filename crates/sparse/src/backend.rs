//! The kernel backend: one switch selecting how the hot kernels execute.
//!
//! Every hot path of the solver — SpMV, the restricted/masked SpMV variants
//! used by the ESR recovery, and the dense vector kernels — routes through a
//! [`KernelBackend`] value. Two implementations exist:
//!
//! * [`KernelBackend::Sequential`] — the single-threaded reference kernels
//!   from `crate::csr` and [`crate::vector`],
//! * [`KernelBackend::Parallel`] — multithreaded kernels dispatched to the
//!   persistent thread-local [`crate::pool::WorkerPool`] (dependency-free;
//!   the container this project is developed in has no network access, so
//!   rayon cannot be vendored — the pool plays rayon's role and keeps the
//!   same shape so rayon could be slotted in later). Every parallel kernel
//!   broadcasts one job closure over precomputed disjoint chunks.
//!
//! # Determinism guarantee
//!
//! The parallel backend is **bitwise identical** to the sequential backend,
//! for every kernel, at every thread count:
//!
//! * SpMV parallelism is over *rows*; each output row is one sequential
//!   accumulation, exactly as in the reference kernel, so splitting rows
//!   across threads cannot change any bit. Chunks are nnz-balanced so the
//!   split is also load-balanced. The split-phase product
//!   ([`KernelBackend::spmv_row_runs_into`]) is the same kernel applied to
//!   each contiguous run of a [`crate::split::RowRuns`].
//! * Reductions (`dot`) use the fixed-block tree of
//!   `crate::vector::REDUCTION_BLOCK`: threads compute the partial sums of
//!   whole blocks (the same partials the sequential kernel forms), and the
//!   final combine adds block partials in ascending block order on one
//!   thread. The grouping depends only on the compile-time block size, never
//!   on the thread count.
//! * Elementwise kernels (`axpby`, `fused_axpy2`) have no cross-element
//!   data flow at all.
//!
//! Whether a call dispatches at all is decided by constants —
//! `PARALLEL_CUTOFF` rows and `SPMV_PARALLEL_NNZ_CUTOFF` entries for
//! SpMV, [`VECTOR_PARALLEL_CUTOFF`] elements for the streaming vector
//! kernels — and below a gate the sequential kernel runs, which by the
//! above cannot change a bit.
//!
//! This is what lets `tests/determinism.rs` and
//! `tests/trajectory_exactness.rs` pass identically under either backend,
//! and what makes `Parallel` safe as the default.

use std::ops::Range;

use crate::csr::CsrMatrix;
use crate::format::FormatMatrix;
use crate::pool;
use crate::split::RowRuns;
use crate::vector::{self, REDUCTION_BLOCK};

/// A `Send + Sync` wrapper around a raw mutable pointer, used to hand
/// *disjoint* output chunks of one slice to pool workers. Soundness is the
/// caller's obligation: every worker must touch a distinct index range, and
/// the broadcast joins all workers before the underlying borrow ends.
#[derive(Clone, Copy)]
struct SendPtr<T>(*mut T);

// SAFETY: the pointer is only dereferenced at worker-disjoint offsets while
// the owning slice outlives the broadcast (see `SendPtr` docs).
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: as for `Send` — sharing the wrapper shares only the address; every
// dereference goes through `chunk`, whose callers keep workers disjoint.
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    fn new(slice: &mut [T]) -> Self {
        SendPtr(slice.as_mut_ptr())
    }

    /// The chunk `[lo, hi)` of the wrapped slice.
    ///
    /// # Safety
    /// `lo..hi` must lie within the original slice, be disjoint from every
    /// other chunk handed out for the same broadcast, and not outlive the
    /// wrapped slice's borrow (the broadcast join guarantees this).
    unsafe fn chunk<'a>(self, lo: usize, hi: usize) -> &'a mut [T] {
        std::slice::from_raw_parts_mut(self.0.add(lo), hi - lo)
    }
}

/// Runs `job(w)` for `w` in `0..active` on the persistent thread-local
/// pool. A job observes only its worker *index*, so which OS thread runs it
/// can never affect results.
fn dispatch<F: Fn(usize) + Sync>(active: usize, job: F) {
    pool::with_local_pool(active, |p| p.broadcast(active, job))
}

/// Runs `job(c, &mut out[bounds[c]..bounds[c + 1]])` for every chunk `c`
/// of the monotone boundary list `bounds` — on one worker per chunk when
/// there are several, inline otherwise. The dispatch primitive for kernels
/// whose work splits into independent chunks of one output slice: the CSR
/// SpMVs go through it, so the worker-disjointness argument lives here and
/// they carry no `unsafe` of their own. Which worker runs which chunk is
/// invisible to the arithmetic: a kernel whose chunks are independent is
/// bitwise identical to its sequential form at any chunk count.
///
/// # Panics
/// Panics if `bounds` is not monotone or ends past `out.len()`.
fn par_chunks_mut<F>(out: &mut [f64], bounds: &[usize], job: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    assert!(
        bounds.windows(2).all(|w| w[0] <= w[1]) && bounds.last().is_none_or(|&e| e <= out.len()),
        "par_chunks_mut: bounds must be monotone and within the slice"
    );
    match *bounds {
        [] | [_] => {}
        [lo, hi] => job(0, &mut out[lo..hi]),
        _ => {
            let ptr = SendPtr::new(out);
            dispatch(bounds.len() - 1, |c| {
                // SAFETY: `bounds` is monotone and ends within `out`
                // (asserted above), so chunk `c` is in range and disjoint
                // from every other worker's chunk.
                job(c, unsafe { ptr.chunk(bounds[c], bounds[c + 1]) });
            });
        }
    }
}

/// Minimum row count before a SpMV dispatches in parallel (the
/// [`SPMV_PARALLEL_NNZ_CUTOFF`] entry cutoff must pass as well). Below it
/// the sequential path is used — which is safe precisely because both
/// paths are bit-identical.
pub(crate) const PARALLEL_CUTOFF: usize = 8192;

/// Minimum vector length before a *streaming* kernel (`dot`, `axpby`,
/// `fused_axpy2`) dispatches in parallel.
/// These kernels move 16–32 bytes per element and do one or two flops on
/// them, so waking the parked workers (≈ 40 µs on the 2-core bench host)
/// costs more than the sweep itself until the vectors are far longer than
/// `PARALLEL_CUTOFF`. Measured `par(2)` / sequential time there: at
/// n = 2¹⁶ `dot` 1.59×, `axpby` 2.97×, `fused_axpy2` 1.26× (parallel
/// loses); at 2¹⁷ 1.02×, 1.19×, 0.78× — break-even for PCG's mix of two
/// dots, one `axpby` and one fused update; from 2¹⁸ on parallel wins on all
/// three. Like the SpMV gate this is a constant and cannot change any bit;
/// `backend::tests::spmv_nnz_cutoff_gates_the_parallel_path` pins both
/// sides of it.
pub const VECTOR_PARALLEL_CUTOFF: usize = 131_072;

/// Minimum stored-entry count before a *SpMV* dispatches in parallel. Rows
/// alone mispredict SpMV cost: at n≈1e4 a stencil matrix clears the row
/// cutoff with only ~7e4 stored entries, and the measured parallel kernel
/// ran at 0.61 GFLOP/s against 1.52 sequential (4 threads; the measurement
/// behind PR 8 in CHANGES.md, which introduced the gate) — pure dispatch
/// overhead. Below this entry count the sequential kernel runs instead,
/// which cannot change any bit (the backends are bitwise identical);
/// `backend::tests::spmv_nnz_cutoff_gates_the_parallel_path` pins both
/// sides of the gate.
pub(crate) const SPMV_PARALLEL_NNZ_CUTOFF: usize = 200_000;

/// Detected hardware parallelism, queried once per process (the kernels
/// consult it on every call at auto settings).
fn auto_threads() -> usize {
    static N: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *N.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Which kernel implementation the solver uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelBackend {
    /// Single-threaded reference kernels.
    Sequential,
    /// Multithreaded kernels with the deterministic fixed-block reduction.
    Parallel {
        /// Worker thread count; `0` means auto-detect
        /// (`std::thread::available_parallelism`).
        threads: usize,
    },
}

impl Default for KernelBackend {
    /// The default is parallel with auto-detected threads — safe because of
    /// the bitwise-identity guarantee (see module docs).
    fn default() -> Self {
        KernelBackend::Parallel { threads: 0 }
    }
}

impl KernelBackend {
    /// The parallel backend with an explicit thread count (`0` = auto).
    pub fn parallel(threads: usize) -> Self {
        KernelBackend::Parallel { threads }
    }

    /// The number of worker threads this backend will use (`1` for
    /// [`KernelBackend::Sequential`]; auto-detection resolved and cached
    /// process-wide).
    pub fn threads(&self) -> usize {
        match *self {
            KernelBackend::Sequential => 1,
            KernelBackend::Parallel { threads: 0 } => auto_threads(),
            KernelBackend::Parallel { threads } => threads,
        }
    }

    /// This backend with its thread budget divided across `parts`
    /// concurrent users — e.g. the SPMD solver runs its ranks concurrently,
    /// so each rank's kernels get `threads / n_ranks` workers instead of
    /// oversubscribing the machine by a factor of the rank count. Thread
    /// count never affects results (the determinism guarantee), so this is
    /// purely a scheduling decision.
    pub fn subdivided(self, parts: usize) -> KernelBackend {
        match self {
            KernelBackend::Sequential => KernelBackend::Sequential,
            KernelBackend::Parallel { .. } => KernelBackend::Parallel {
                threads: (self.threads() / parts.max(1)).max(1),
            },
        }
    }

    /// Short name for reports: `seq` or `par(N)`.
    pub fn name(&self) -> String {
        match *self {
            KernelBackend::Sequential => "seq".to_string(),
            KernelBackend::Parallel { threads: 0 } => "par(auto)".to_string(),
            KernelBackend::Parallel { threads } => format!("par({threads})"),
        }
    }

    /// Threads to actually use for a streaming vector kernel over `n`
    /// elements ([`VECTOR_PARALLEL_CUTOFF`]).
    #[inline]
    fn threads_for_vector(&self, n: usize) -> usize {
        if n < VECTOR_PARALLEL_CUTOFF {
            return 1;
        }
        self.threads().min(n).max(1)
    }

    /// Threads to actually use for a SpMV over `rows` rows carrying `nnz`
    /// stored entries — the [`PARALLEL_CUTOFF`] row cutoff *and* the
    /// [`SPMV_PARALLEL_NNZ_CUTOFF`] entry cutoff must both pass.
    #[inline]
    fn threads_for_spmv(&self, rows: usize, nnz: usize) -> usize {
        if nnz < SPMV_PARALLEL_NNZ_CUTOFF || rows < PARALLEL_CUTOFF {
            return 1;
        }
        self.threads().min(rows).max(1)
    }

    // --- SpMV ---------------------------------------------------------------

    /// `y ← A x`. Parallel over nnz-balanced row chunks.
    ///
    /// # Panics
    /// Panics on dimension mismatches.
    pub fn spmv_into(&self, a: &CsrMatrix, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), a.ncols(), "spmv: x length != ncols");
        assert_eq!(y.len(), a.nrows(), "spmv: y length != nrows");
        self.spmv_rows_into(a, 0..a.nrows(), x, y);
    }

    /// `y[i - rows.start] = Σ_k A[i, k] x[k]` for `i` in `rows` — the
    /// node-local part of a distributed SpMV.
    ///
    /// # Panics
    /// Panics on dimension mismatches or an out-of-range row range.
    pub(crate) fn spmv_rows_into(
        &self,
        a: &CsrMatrix,
        rows: Range<usize>,
        x: &[f64],
        y: &mut [f64],
    ) {
        assert!(rows.end <= a.nrows(), "spmv_rows: row range out of range");
        assert_eq!(x.len(), a.ncols(), "spmv_rows: x length != ncols");
        assert_eq!(y.len(), rows.len(), "spmv_rows: y length != rows.len()");
        let nnz = a.row_ptr()[rows.end] - a.row_ptr()[rows.start];
        let nthreads = self.threads_for_spmv(rows.len(), nnz);
        if nthreads <= 1 {
            a.spmv_rows_into(rows, x, y);
            return;
        }
        let bounds = nnz_balanced_bounds(a.row_ptr(), rows.clone(), nthreads);
        par_chunks_mut(y, &bounds, |c, head| {
            a.spmv_rows_into(rows.start + bounds[c]..rows.start + bounds[c + 1], x, head);
        });
    }

    /// Computes `y[i - offset] = Σ_k A[i, k] x[k]` for each global row `i`
    /// of `rows` — the kernel of the split-phase distributed SpMV. Interior
    /// rows run while the halo is in flight, boundary rows afterwards;
    /// together the two calls write exactly what
    /// `KernelBackend::spmv_rows_into` over the whole owned range writes,
    /// bit for bit, because every row is the same sequential accumulation.
    /// Positions of `y` outside the runs keep their contents.
    ///
    /// Each run is one `KernelBackend::spmv_rows_into` — contiguous rows,
    /// nnz-balanced by `partition_point` on the row pointer — so a call
    /// costs O(runs · log rows) on top of the products themselves. The
    /// dispatch gates therefore apply per run: this is as fast as the
    /// contiguous product when a class is a few long runs, which is what a
    /// block-row distribution of a banded operator gives (every benchmark
    /// workload has at most one interior and two boundary runs per rank);
    /// a class shattered into runs below the gates runs sequentially.
    ///
    /// # Panics
    /// Panics on dimension mismatches or rows that do not map into `y`.
    pub fn spmv_row_runs_into(
        &self,
        a: &CsrMatrix,
        rows: &RowRuns,
        offset: usize,
        x: &[f64],
        y: &mut [f64],
    ) {
        let runs = rows.runs();
        if let (Some(first), Some(last)) = (runs.first(), runs.last()) {
            assert!(
                first.start >= offset && last.end - offset <= y.len(),
                "spmv_row_runs: rows do not map into y"
            );
        }
        for run in runs {
            // Runs ascend (`RowRuns` invariant), so the endpoint check
            // above covers every slice taken here.
            let head = &mut y[run.start - offset..run.end - offset];
            self.spmv_rows_into(a, run.clone(), x, head);
        }
    }

    /// For each row `i` in `rows` (sorted global indices), computes
    /// `Σ_{k ∉ masked} A[i, k] x_full[k]` into `y` — the allocation-free,
    /// backend-routed form of [`CsrMatrix::spmv_rows_masked`].
    ///
    /// # Panics
    /// Panics on dimension mismatches.
    pub fn spmv_rows_masked_into<M>(
        &self,
        a: &CsrMatrix,
        rows: &[usize],
        x_full: &[f64],
        masked: M,
        y: &mut [f64],
    ) where
        M: Fn(usize) -> bool + Sync,
    {
        assert_eq!(x_full.len(), a.ncols(), "spmv_rows_masked: x length");
        assert_eq!(y.len(), rows.len(), "spmv_rows_masked: y length");
        let nnz: usize = rows.iter().map(|&r| a.row_nnz(r)).sum();
        let nthreads = self.threads_for_spmv(rows.len(), nnz);
        if nthreads <= 1 {
            a.spmv_rows_masked_into(rows, x_full, &masked, y);
            return;
        }
        // Equal row counts per chunk: the list form has no row pointer to
        // bisect. On whole rank ranges of the stencil and elasticity
        // generators the fullest chunk carries at most 1.02× its nnz share
        // at sizes that pass the gate. (No solver path reaches this branch:
        // recovery multiplies its cached `A[I_own, ·]` pieces instead.)
        let bounds: Vec<usize> = (0..=nthreads).map(|c| rows.len() * c / nthreads).collect();
        let masked = &masked;
        par_chunks_mut(y, &bounds, |c, head| {
            a.spmv_rows_masked_into(&rows[bounds[c]..bounds[c + 1]], x_full, masked, head);
        });
    }

    /// SpMV of a converted [`FormatMatrix`] piece: `y[out[i]] = rowsᵢ · x`
    /// for every row stored in the piece, unlisted `y` positions
    /// untouched. Bitwise identical to the corresponding CSR kernel over
    /// the same rows — see the format modules' determinism arguments — at
    /// any thread count.
    ///
    /// Parallelism splits SELL pieces at σ-window boundaries and BCSR
    /// pieces at block-row boundaries (both load-balanced by stored
    /// slots); the pieces' strictly-increasing output maps make each
    /// worker's span a contiguous, worker-disjoint slice of `y`.
    ///
    /// # Panics
    /// Panics if `x.len()` differs from the piece's column count.
    pub fn spmv_fmt_into(&self, m: &FormatMatrix, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), m.ncols(), "spmv_fmt: x length != ncols");
        match m {
            FormatMatrix::Sell(s) => {
                let windows = s.n_windows();
                let nthreads = self.threads_for_spmv(windows * s.window(), s.nnz());
                let nthreads = nthreads.min(windows);
                if nthreads <= 1 {
                    s.spmv_into(x, y);
                    return;
                }
                let bounds = nnz_balanced_bounds(s.win_slot_ptr(), 0..windows, nthreads);
                let y_out = SendPtr::new(y);
                dispatch(nthreads, |c| {
                    let (lo, hi) = (bounds[c], bounds[c + 1]);
                    if lo >= hi {
                        return;
                    }
                    let (y_lo, y_hi) = (s.win_out(lo).0, s.win_out(hi - 1).1);
                    // SAFETY: window output spans are disjoint and
                    // ascending (strictly increasing out map, windows
                    // partition the row list in order), so chunk `c`'s
                    // outputs lie in `[y_lo, y_hi)`, disjoint from every
                    // other chunk's.
                    let head = unsafe { y_out.chunk(y_lo, y_hi) };
                    s.spmv_windows_into(lo, hi, x, head, y_lo);
                });
            }
            FormatMatrix::Bcsr(b) => {
                let brs = b.n_block_rows();
                let nthreads = self.threads_for_spmv(brs * b.r(), b.nnz());
                let nthreads = nthreads.min(brs);
                if nthreads <= 1 {
                    b.spmv_into(x, y);
                    return;
                }
                let bounds = nnz_balanced_bounds(b.row_ptr(), 0..brs, nthreads);
                let y_out = SendPtr::new(y);
                dispatch(nthreads, |c| {
                    let (lo, hi) = (bounds[c], bounds[c + 1]);
                    if lo >= hi {
                        return;
                    }
                    let (y_lo, y_hi) = b.out_span(lo, hi);
                    // SAFETY: block-row output spans are disjoint and
                    // ascending (strictly increasing out map, block rows
                    // group consecutive list entries), so chunk `c`'s
                    // outputs lie in `[y_lo, y_hi)`, disjoint from every
                    // other chunk's.
                    let head = unsafe { y_out.chunk(y_lo, y_hi) };
                    b.spmv_block_rows_into(lo, hi, x, head, y_lo);
                });
            }
        }
    }

    // --- Reductions ---------------------------------------------------------

    /// Dot product `a · b` with the fixed-block deterministic reduction —
    /// bitwise equal to [`vector::dot`] at any thread count.
    ///
    /// # Panics
    /// Panics if `a.len() != b.len()`.
    pub fn dot(&self, a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len(), "dot: length mismatch");
        let nthreads = self.threads_for_vector(a.len());
        if nthreads <= 1 {
            return vector::dot(a, b);
        }
        let nblocks = a.len().div_ceil(REDUCTION_BLOCK);
        let mut partials = vec![0.0f64; nblocks];
        // Threads own contiguous runs of whole blocks; each writes the same
        // per-block partial the sequential kernel would form.
        let per_thread = nblocks.div_ceil(nthreads);
        let parts = SendPtr::new(&mut partials);
        dispatch(nthreads, |t| {
            let b0 = (t * per_thread).min(nblocks);
            let b1 = ((t + 1) * per_thread).min(nblocks);
            // SAFETY: worker `t` owns exactly blocks `[b0, b1) ⊆ [0, nblocks)`.
            let head = unsafe { parts.chunk(b0, b1) };
            for (k, p) in head.iter_mut().enumerate() {
                let lo = (b0 + k) * REDUCTION_BLOCK;
                let hi = (lo + REDUCTION_BLOCK).min(a.len());
                let mut acc = 0.0;
                for (x, y) in a[lo..hi].iter().zip(b[lo..hi].iter()) {
                    acc += x * y;
                }
                *p = acc;
            }
        });
        // Final combine: block order, one thread — the sequential grouping.
        let mut total = 0.0;
        for p in partials {
            total += p;
        }
        total
    }

    // --- Elementwise kernels ------------------------------------------------

    /// `y ← alpha·x + beta·y`.
    ///
    /// # Panics
    /// Panics if `x.len() != y.len()`.
    pub fn axpby(&self, alpha: f64, x: &[f64], beta: f64, y: &mut [f64]) {
        assert_eq!(x.len(), y.len(), "axpby: length mismatch");
        let n = y.len();
        self.par_zip(n, x, &[], y, &mut [], move |xc, _, yc, _| {
            vector::axpby(alpha, xc, beta, yc)
        });
    }

    /// The fused PCG iterate update: `x ← x + alpha·p`, `r ← r − alpha·q`
    /// in one sweep (see `vector::fused_axpy2`). Elementwise, so
    /// chunk-parallel without any reduction.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn fused_axpy2(&self, alpha: f64, p: &[f64], q: &[f64], x: &mut [f64], r: &mut [f64]) {
        let n = x.len();
        assert_eq!(p.len(), n, "fused_axpy2: p length mismatch");
        assert_eq!(q.len(), n, "fused_axpy2: q length mismatch");
        assert_eq!(r.len(), n, "fused_axpy2: r length mismatch");
        self.par_zip(n, p, q, x, r, move |pc, qc, xc, rc| {
            vector::fused_axpy2(alpha, pc, qc, xc, rc)
        });
    }

    /// The one elementwise chunking primitive: runs `op` over lock-step
    /// chunks of up to two read-only and two mutable slices, in parallel
    /// when worthwhile. Slices not used by the operation are passed empty
    /// and stay empty in every chunk; used slices must have length `n`.
    /// Chunk boundaries depend only on `n` and the thread count, and the
    /// operation is elementwise, so any split is bitwise equal to the
    /// sequential call.
    fn par_zip<F>(&self, n: usize, a: &[f64], b: &[f64], x: &mut [f64], y: &mut [f64], op: F)
    where
        F: Fn(&[f64], &[f64], &mut [f64], &mut [f64]) + Sync,
    {
        let nthreads = self.threads_for_vector(n);
        if nthreads <= 1 {
            op(a, b, x, y);
            return;
        }
        let per = n.div_ceil(nthreads);
        fn read_chunk(s: &[f64], lo: usize, hi: usize) -> &[f64] {
            if s.is_empty() {
                s
            } else {
                &s[lo..hi]
            }
        }
        let (x_used, y_used) = (!x.is_empty(), !y.is_empty());
        let (x_out, y_out) = (SendPtr::new(x), SendPtr::new(y));
        dispatch(nthreads, |c| {
            let lo = (c * per).min(n);
            let hi = ((c + 1) * per).min(n);
            if lo >= hi {
                return;
            }
            // Chunk `[lo, hi)` is worker-disjoint and within every used
            // (length-`n`) slice; unused slices stay empty.
            let hx = if x_used {
                // SAFETY: `x` is used, so `[lo, hi) ⊆ [0, n)` lies within it,
                // and no other worker's chunk overlaps it.
                unsafe { x_out.chunk(lo, hi) }
            } else {
                &mut []
            };
            let hy = if y_used {
                // SAFETY: as for `x`.
                unsafe { y_out.chunk(lo, hi) }
            } else {
                &mut []
            };
            op(read_chunk(a, lo, hi), read_chunk(b, lo, hi), hx, hy);
        });
    }
}

/// Splits the row range `rows` into `nchunks` contiguous chunks with roughly
/// equal stored-entry counts, using the CSR row pointer. Returns `nchunks+1`
/// boundaries *relative to* `rows.start`. Chunks may be empty for very
/// skewed matrices; every row lands in exactly one chunk.
fn nnz_balanced_bounds(row_ptr: &[usize], rows: Range<usize>, nchunks: usize) -> Vec<usize> {
    let nnz_lo = row_ptr[rows.start];
    let nnz_hi = row_ptr[rows.end];
    let total = nnz_hi - nnz_lo;
    let mut bounds = Vec::with_capacity(nchunks + 1);
    bounds.push(0);
    for c in 1..nchunks {
        let target = nnz_lo + total * c / nchunks;
        // First row whose end passes the target nnz.
        let r = row_ptr[rows.start..=rows.end].partition_point(|&p| p < target);
        bounds.push(r.min(rows.len()).max(bounds[c - 1]));
    }
    bounds.push(rows.len());
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{banded_spd, poisson2d};
    use crate::rng::SplitMix64;

    fn vecs(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut rng = SplitMix64::new(seed);
        let a = (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        let b = (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        (a, b)
    }

    #[test]
    fn default_is_parallel_auto() {
        assert_eq!(
            KernelBackend::default(),
            KernelBackend::Parallel { threads: 0 }
        );
        assert!(KernelBackend::default().threads() >= 1);
        assert_eq!(KernelBackend::Sequential.threads(), 1);
        assert_eq!(KernelBackend::parallel(3).threads(), 3);
    }

    #[test]
    fn dot_bitwise_identical_across_backends() {
        // Sizes straddling block and cutoff boundaries.
        for n in [
            0usize,
            1,
            100,
            REDUCTION_BLOCK - 1,
            REDUCTION_BLOCK + 1,
            VECTOR_PARALLEL_CUTOFF - 1,
            VECTOR_PARALLEL_CUTOFF + 1234,
        ] {
            let (a, b) = vecs(n, 42);
            let reference = vector::dot(&a, &b);
            for t in [1usize, 2, 3, 8] {
                let got = KernelBackend::parallel(t).dot(&a, &b);
                assert_eq!(got.to_bits(), reference.to_bits(), "n={n} t={t}");
            }
            assert_eq!(
                KernelBackend::Sequential.dot(&a, &b).to_bits(),
                reference.to_bits()
            );
        }
    }

    #[test]
    fn spmv_bitwise_identical_across_backends() {
        // 62_500 rows, ~311k stored entries: above both the row and the
        // nnz cutoff, so the parallel path genuinely dispatches.
        let a = poisson2d(250, 250);
        let x: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 0.1).sin()).collect();
        let spmv = |be: KernelBackend, a: &CsrMatrix, x: &[f64]| {
            let mut y = vec![0.0; a.nrows()];
            be.spmv_into(a, x, &mut y);
            y
        };
        let reference = a.spmv(&x);
        for t in [1usize, 2, 5, 8] {
            let got = spmv(KernelBackend::parallel(t), &a, &x);
            assert_eq!(got, reference, "t={t}");
        }
        assert_eq!(spmv(KernelBackend::Sequential, &a, &x), reference);
        // Below the nnz cutoff the parallel backend falls back to the
        // sequential kernel — bitwise harmless by construction.
        let small = poisson2d(120, 120);
        let xs: Vec<f64> = (0..small.nrows()).map(|i| (i as f64 * 0.2).cos()).collect();
        assert_eq!(
            spmv(KernelBackend::parallel(8), &small, &xs),
            small.spmv(&xs)
        );
    }

    #[test]
    fn spmv_rows_matches_reference() {
        let a = banded_spd(30_000, 6, 0.7, 3);
        let x: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 0.3).cos()).collect();
        let rows = 1234..29_876;
        let mut reference = vec![0.0; rows.len()];
        a.spmv_rows_into(rows.clone(), &x, &mut reference);
        for t in [2usize, 7] {
            let mut y = vec![0.0; rows.len()];
            KernelBackend::parallel(t).spmv_rows_into(&a, rows.clone(), &x, &mut y);
            assert_eq!(y, reference, "t={t}");
        }
    }

    /// Row `r` of `A x` over the columns `skip` does not reject, by index:
    /// the loop each CSR entry point spelled out for itself before they
    /// shared one row kernel.
    fn indexed_row(a: &CsrMatrix, r: usize, x: &[f64], skip: impl Fn(usize) -> bool) -> u64 {
        let mut acc = 0.0;
        for k in a.row_ptr()[r]..a.row_ptr()[r + 1] {
            if !skip(a.col_idx()[k]) {
                acc += a.values()[k] * x[a.col_idx()[k]];
            }
        }
        acc.to_bits()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn csr_entry_points_are_bitwise_the_indexed_loop() {
        // Random sparsity, large enough that the parallel backends dispatch.
        let random = banded_spd(60_000, 40, 0.12, 3);
        let piece_rows: Vec<usize> = (20_000..20_500).collect();
        let cases = [
            (
                "empty rows",
                CsrMatrix::from_dense(
                    4,
                    3,
                    &[0.0, 0.0, 0.0, 1.5, 0.0, -2.0, 0.0, 0.0, 0.0, 0.0, 0.25, 0.0],
                ),
            ),
            (
                "single row",
                CsrMatrix::from_dense(1, 5, &[0.5, 0.0, -3.0, 0.0, 7.0]),
            ),
            (
                "non-square filtered piece",
                random.extract_rows_filtered(&piece_rows, |c| c % 3 != 0),
            ),
            ("random sparsity", random),
        ];
        let masked = |c: usize| c % 5 == 2;
        for (label, a) in &cases {
            let n = a.nrows();
            let x: Vec<f64> = (0..a.ncols()).map(|i| (i as f64 * 0.113).sin()).collect();
            let expected: Vec<u64> = (0..n).map(|r| indexed_row(a, r, &x, |_| false)).collect();
            // A range with `rows.start > 0` and a strided list inside it.
            let lo = n / 3;
            let list: Vec<usize> = (lo..n).step_by(2).collect();
            let expected_masked: Vec<u64> = list
                .iter()
                .map(|&r| indexed_row(a, r, &x, masked))
                .collect();
            for be in [
                KernelBackend::Sequential,
                KernelBackend::parallel(2),
                KernelBackend::parallel(8),
            ] {
                let mut y = vec![f64::NAN; n];
                be.spmv_into(a, &x, &mut y);
                assert_eq!(bits(&y), expected, "spmv_into, {label}, {}", be.name());
                let mut y = vec![f64::NAN; n - lo];
                be.spmv_rows_into(a, lo..n, &x, &mut y);
                assert_eq!(
                    bits(&y),
                    expected[lo..],
                    "spmv_rows_into, {label}, {}",
                    be.name()
                );
                let mut y = vec![f64::NAN; list.len()];
                be.spmv_rows_masked_into(a, &list, &x, masked, &mut y);
                assert_eq!(
                    bits(&y),
                    expected_masked,
                    "spmv_rows_masked_into, {label}, {}",
                    be.name()
                );
            }
            // The list kernel has no backend-routed form.
            let mut y = vec![f64::NAN; n - lo];
            a.spmv_rows_subset_into(&list, lo, &x, &mut y);
            for (i, out) in y.iter().enumerate() {
                if i % 2 == 0 {
                    assert_eq!(out.to_bits(), expected[lo + i], "subset, {label}, row {i}");
                } else {
                    assert!(out.is_nan(), "subset, {label}: unlisted row {i} written");
                }
            }
        }
    }

    #[test]
    fn spmv_row_runs_match_the_list_oracle_above_cutoff() {
        use crate::split::RowSplit;
        // Own the middle 48k rows of a banded matrix: the interior is one
        // long run above both cutoffs (it dispatches in parallel), the
        // boundary two short ones at the range's edges.
        let a = banded_spd(50_000, 6, 0.7, 5);
        let x: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 0.3).cos()).collect();
        let range = 1000..49_000;
        let split = RowSplit::build(&a, range.clone(), range.clone());
        assert!(
            a.spmv_rows_list_flops(&split.interior().to_vec()) as usize / 2
                >= SPMV_PARALLEL_NNZ_CUTOFF
        );
        assert!(split.boundary().runs().len() >= 2);
        let mut reference = vec![0.0; range.len()];
        a.spmv_rows_subset_into(&split.interior().to_vec(), range.start, &x, &mut reference);
        a.spmv_rows_subset_into(&split.boundary().to_vec(), range.start, &x, &mut reference);
        for be in [
            KernelBackend::Sequential,
            KernelBackend::parallel(2),
            KernelBackend::parallel(7),
        ] {
            let mut y = vec![0.0; range.len()];
            be.spmv_row_runs_into(&a, split.interior(), range.start, &x, &mut y);
            be.spmv_row_runs_into(&a, split.boundary(), range.start, &x, &mut y);
            assert_eq!(y, reference, "{}", be.name());
            // Empty set: no-op, no panic.
            be.spmv_row_runs_into(&a, &RowRuns::default(), range.start, &x, &mut y);
            assert_eq!(y, reference);
        }
    }

    #[test]
    #[should_panic(expected = "rows do not map into y")]
    fn spmv_row_runs_reject_an_output_that_is_too_short() {
        use crate::split::RowSplit;
        let a = poisson2d(4, 4);
        let split = RowSplit::build(&a, 0..16, 0..16);
        let x = vec![1.0; 16];
        let mut y = vec![0.0; 15];
        KernelBackend::Sequential.spmv_row_runs_into(&a, split.interior(), 0, &x, &mut y);
    }

    #[test]
    fn par_chunks_mut_hands_out_disjoint_chunks() {
        let mut v = vec![0.0f64; 10_000];
        let bounds = [0, 10, 10, 4_000, 10_000];
        par_chunks_mut(&mut v, &bounds, |c, chunk| {
            assert_eq!(chunk.len(), bounds[c + 1] - bounds[c]);
            chunk.iter_mut().for_each(|e| *e += (c + 1) as f64);
        });
        for (c, w) in bounds.windows(2).enumerate() {
            assert!(
                v[w[0]..w[1]].iter().all(|&e| e == (c + 1) as f64),
                "chunk {c}"
            );
        }
        // Zero and one chunk run inline.
        par_chunks_mut(&mut v, &[], |_, _| unreachable!());
        par_chunks_mut(&mut v, &[3], |_, _| unreachable!());
        par_chunks_mut(&mut v, &[3, 5], |c, chunk| {
            assert_eq!((c, chunk.len()), (0, 2));
        });
    }

    #[test]
    #[should_panic(expected = "bounds must be monotone")]
    fn par_chunks_mut_rejects_overlapping_bounds() {
        let mut v = vec![0.0f64; 8];
        par_chunks_mut(&mut v, &[0, 5, 3, 8], |_, _| {});
    }

    #[test]
    fn spmv_rows_masked_matches_reference() {
        let a = banded_spd(30_000, 5, 0.8, 9);
        let x: Vec<f64> = (0..a.nrows()).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let rows: Vec<usize> = (0..a.nrows()).step_by(1).collect();
        let masked = |c: usize| c.is_multiple_of(7);
        let reference = a.spmv_rows_masked(&rows, &x, masked);
        for t in [2usize, 8] {
            let mut y = vec![0.0; rows.len()];
            KernelBackend::parallel(t).spmv_rows_masked_into(&a, &rows, &x, masked, &mut y);
            assert_eq!(y, reference, "t={t}");
        }
    }

    #[test]
    fn spmv_nnz_cutoff_gates_the_parallel_path() {
        let be = KernelBackend::parallel(4);
        // Plenty of rows but too few entries: sequential.
        assert_eq!(be.threads_for_spmv(10_000, SPMV_PARALLEL_NNZ_CUTOFF - 1), 1);
        // Enough entries and rows: parallel.
        assert_eq!(be.threads_for_spmv(10_000, SPMV_PARALLEL_NNZ_CUTOFF), 4);
        // Enough entries but too few rows (dense-ish): the row cutoff
        // still applies.
        assert_eq!(be.threads_for_spmv(100, 1_000_000), 1);
        assert_eq!(
            KernelBackend::Sequential.threads_for_spmv(1 << 20, 1 << 20),
            1
        );
        // Streaming kernels have their own, much later gate.
        assert_eq!(be.threads_for_vector(VECTOR_PARALLEL_CUTOFF - 1), 1);
        assert_eq!(be.threads_for_vector(VECTOR_PARALLEL_CUTOFF), 4);
        assert_eq!(KernelBackend::Sequential.threads_for_vector(usize::MAX), 1);
    }

    #[test]
    fn spmv_fmt_bitwise_identical_across_backends_and_formats() {
        use crate::format::{FormatMatrix, SpmvFormat};
        // Above both cutoffs so the parallel format kernels dispatch.
        let a = poisson2d(250, 250);
        let x: Vec<f64> = (0..a.nrows())
            .map(|i| (i as f64 * 0.13).sin() - 0.3)
            .collect();
        let reference = a.spmv(&x);
        for fmt in [
            SpmvFormat::sell(),
            SpmvFormat::Sellcs { c: 4, sigma: 4 },
            SpmvFormat::bcsr3(),
            SpmvFormat::Bcsr { r: 2, c: 2 },
        ] {
            let m = FormatMatrix::from_csr(&a, fmt).unwrap();
            assert_eq!(m.nnz(), a.nnz());
            for t in [1usize, 2, 5, 8] {
                let mut y = vec![0.0; a.nrows()];
                KernelBackend::parallel(t).spmv_fmt_into(&m, &x, &mut y);
                assert_eq!(y, reference, "{} t={t}", fmt.name());
            }
            let mut y = vec![0.0; a.nrows()];
            KernelBackend::Sequential.spmv_fmt_into(&m, &x, &mut y);
            assert_eq!(y, reference, "{} seq", fmt.name());
        }
    }

    #[test]
    fn elementwise_kernels_match() {
        // Above the vector cutoff, so the chunked path genuinely dispatches.
        let n = VECTOR_PARALLEL_CUTOFF + 77;
        let (x, y0) = vecs(n, 7);
        for t in [1usize, 2, 8] {
            let be = KernelBackend::parallel(t);
            let mut y1 = y0.clone();
            let mut y2 = y0.clone();
            vector::axpby(1.5, &x, -0.25, &mut y1);
            be.axpby(1.5, &x, -0.25, &mut y2);
            assert_eq!(y1, y2, "axpby t={t}");
            let (p, q) = vecs(n, 13);
            let (mut x1, mut r1) = vecs(n, 17);
            let (mut x2, mut r2) = (x1.clone(), r1.clone());
            vector::fused_axpy2(0.6, &p, &q, &mut x1, &mut r1);
            be.fused_axpy2(0.6, &p, &q, &mut x2, &mut r2);
            assert_eq!(x1, x2, "fused_axpy2 x t={t}");
            assert_eq!(r1, r2, "fused_axpy2 r t={t}");
        }
    }

    #[test]
    fn nnz_bounds_cover_rows_exactly() {
        let a = banded_spd(5_000, 8, 0.5, 11);
        for nchunks in [1usize, 2, 3, 7, 16] {
            let b = nnz_balanced_bounds(a.row_ptr(), 0..a.nrows(), nchunks);
            assert_eq!(b.len(), nchunks + 1);
            assert_eq!(b[0], 0);
            assert_eq!(*b.last().unwrap(), a.nrows());
            assert!(b.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn subdivided_splits_thread_budget() {
        assert_eq!(
            KernelBackend::Sequential.subdivided(8),
            KernelBackend::Sequential
        );
        assert_eq!(
            KernelBackend::parallel(8).subdivided(4),
            KernelBackend::parallel(2)
        );
        // Never drops to zero threads, never panics on parts = 0.
        assert_eq!(
            KernelBackend::parallel(2).subdivided(8),
            KernelBackend::parallel(1)
        );
        assert_eq!(
            KernelBackend::parallel(4).subdivided(0),
            KernelBackend::parallel(4)
        );
        // Auto resolves before dividing.
        assert!(KernelBackend::parallel(0).subdivided(1).threads() >= 1);
    }

    #[test]
    fn names() {
        assert_eq!(KernelBackend::Sequential.name(), "seq");
        assert_eq!(KernelBackend::parallel(4).name(), "par(4)");
        assert_eq!(KernelBackend::parallel(0).name(), "par(auto)");
    }
}
