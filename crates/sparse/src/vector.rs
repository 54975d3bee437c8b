//! Dense vector kernels used by the PCG solver.
//!
//! These are deliberately plain, allocation-free slice functions: the
//! distributed solver calls them on node-local sub-slices and accounts for
//! their flop cost explicitly (see `esrcg-cluster`). All kernels panic on
//! length mismatches — mismatched local vector lengths are a logic error in
//! the solver, never a runtime condition to recover from.
//!
//! # Deterministic reduction contract
//!
//! Every reduction ([`dot`] and
//! [`crate::backend::KernelBackend::dot`]) sums in **fixed blocks** of
//! `REDUCTION_BLOCK` elements: element products accumulate sequentially
//! within a block, and block partial sums accumulate sequentially in block
//! order. The block size is a compile-time constant, independent of thread
//! count, so the parallel backend — whose threads each produce the partial
//! sums of whole blocks — combines to *bitwise* the same `f64` as this
//! sequential kernel for any number of threads.

/// The fixed reduction block size shared by the sequential and parallel
/// backends. Changing it changes floating-point results (legitimately — it
/// picks one of many valid summation orders), so it is a compile-time
/// constant, never a tunable.
pub(crate) const REDUCTION_BLOCK: usize = 4096;

/// Dot product `a · b`, summed with the fixed-block deterministic reduction
/// (see module docs).
///
/// # Panics
/// Panics if `a.len() != b.len()`.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    let mut total = 0.0;
    for (ca, cb) in a.chunks(REDUCTION_BLOCK).zip(b.chunks(REDUCTION_BLOCK)) {
        let mut acc = 0.0;
        for (x, y) in ca.iter().zip(cb.iter()) {
            acc += x * y;
        }
        total += acc;
    }
    total
}

/// `y ← alpha * x + beta * y`.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[inline]
pub(crate) fn axpby(alpha: f64, x: &[f64], beta: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpby: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi = alpha * xi + beta * *yi;
    }
}

/// The fused PCG iterate update: `x ← x + alpha·p` and `r ← r − alpha·q`
/// in one pass. Elementwise identical to two axpy sweeps, but touches
/// the four vectors in a single sweep (one loop, better locality on the
/// solver's hottest vector update).
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub(crate) fn fused_axpy2(alpha: f64, p: &[f64], q: &[f64], x: &mut [f64], r: &mut [f64]) {
    let n = x.len();
    assert_eq!(p.len(), n, "fused_axpy2: p length mismatch");
    assert_eq!(q.len(), n, "fused_axpy2: q length mismatch");
    assert_eq!(r.len(), n, "fused_axpy2: r length mismatch");
    for i in 0..n {
        x[i] += alpha * p[i];
        r[i] -= alpha * q[i];
    }
}

/// Largest absolute component difference `max_i |a_i - b_i|`.
///
/// Returns 0.0 for empty slices.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "max_abs_diff: length mismatch");
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0_f64, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn axpby_combines() {
        let mut y = [1.0, 2.0];
        axpby(3.0, &[1.0, 1.0], -1.0, &mut y);
        assert_eq!(y, [2.0, 1.0]);
    }

    #[test]
    fn fused_axpy2_matches_two_axpys() {
        let p = [1.0, -2.0, 3.0];
        let q = [0.5, 0.25, -1.0];
        let mut x1 = [10.0, 20.0, 30.0];
        let mut r1 = [1.0, 2.0, 3.0];
        let (mut x2, mut r2) = (x1, r1);
        for i in 0..3 {
            x1[i] += 0.75 * p[i];
            r1[i] += -0.75 * q[i];
        }
        fused_axpy2(0.75, &p, &q, &mut x2, &mut r2);
        assert_eq!(x1, x2);
        assert_eq!(r1, r2);
    }

    #[test]
    fn max_abs_diff_and_dist2() {
        assert_eq!(max_abs_diff(&[1.0, 5.0], &[2.0, 3.0]), 2.0);
        assert_eq!(max_abs_diff(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
