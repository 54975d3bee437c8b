//! Small dense matrices and Cholesky factorization.
//!
//! Used for the blocks of the block Jacobi preconditioner (the paper caps
//! block size at 10 rows, §5) and as a reference solver in tests. Row-major
//! storage; everything is `O(n³)` textbook code, which is the right tool at
//! these sizes.

use crate::csr::CsrMatrix;
use crate::error::SparseError;

/// A dense row-major `n × n` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates an `n × n` zero matrix.
    pub(crate) fn zeros(n: usize) -> Self {
        DenseMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Creates from row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != n * n`.
    #[cfg(test)]
    pub(crate) fn from_row_major(n: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n * n, "from_row_major: data length");
        DenseMatrix { n, data }
    }

    /// Extracts the dense principal submatrix `A[idx, idx]` of a sparse
    /// matrix (indices must be strictly increasing). This is how block
    /// Jacobi blocks are materialized.
    pub fn from_csr_block(a: &CsrMatrix, idx: &[usize]) -> Self {
        debug_assert!(idx.windows(2).all(|w| w[0] < w[1]));
        let n = idx.len();
        let mut m = DenseMatrix::zeros(n);
        for (li, &gi) in idx.iter().enumerate() {
            let (cols, vals) = a.row(gi);
            // Walk the sparse row and the sorted idx list together.
            let mut j = 0usize;
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                while j < n && idx[j] < c {
                    j += 1;
                }
                if j == n {
                    break;
                }
                if idx[j] == c {
                    m.data[li * n + j] = v;
                }
            }
        }
        m
    }

    /// Element accessor.
    #[inline]
    pub(crate) fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.n + c]
    }

    /// Element mutator.
    #[inline]
    pub(crate) fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.n + c] = v;
    }

    /// Dense matrix–vector product `y = A x`.
    ///
    /// # Panics
    /// Panics if `x.len() != n`.
    #[cfg(test)]
    pub(crate) fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "matvec: x length");
        let mut y = vec![0.0; self.n];
        #[allow(clippy::needless_range_loop)]
        for r in 0..self.n {
            let row = &self.data[r * self.n..(r + 1) * self.n];
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x.iter()) {
                acc += a * b;
            }
            y[r] = acc;
        }
        y
    }

    /// Computes the Cholesky factorization `A = L Lᵀ`.
    ///
    /// # Errors
    /// Returns [`SparseError::NotPositiveDefinite`] if a pivot is not
    /// strictly positive.
    pub fn cholesky(&self) -> Result<Cholesky, SparseError> {
        let n = self.n;
        let mut l = vec![0.0; n * n];
        for i in 0..n {
            l[i * n..=i * n + i].copy_from_slice(&self.data[i * n..=i * n + i]);
        }
        Cholesky::factor_in_place(n, &mut l)?;
        Ok(Cholesky { n, l })
    }
}

/// A Cholesky factorization `A = L Lᵀ` of a small SPD matrix.
#[derive(Debug, Clone)]
pub struct Cholesky {
    n: usize,
    /// Lower-triangular factor, row-major, upper part zero.
    l: Vec<f64>,
}

impl Cholesky {
    /// Factors in place: on entry the lower triangle of the row-major
    /// `n × n` slice `a` holds that of an SPD matrix, on success it holds
    /// its Cholesky factor `L`. The strict upper triangle is neither read
    /// nor written. This is the one factorization routine —
    /// [`DenseMatrix::cholesky`] and the block Jacobi preconditioner's
    /// packed arena both call it, so their factors agree bit for bit.
    ///
    /// # Errors
    /// Returns [`SparseError::NotPositiveDefinite`] if a pivot is not
    /// strictly positive.
    ///
    /// # Panics
    /// Panics if `a.len() != n * n`.
    pub fn factor_in_place(n: usize, a: &mut [f64]) -> Result<(), SparseError> {
        assert_eq!(a.len(), n * n, "factor_in_place: data length");
        for j in 0..n {
            let mut d = a[j * n + j];
            for k in 0..j {
                d -= a[j * n + k] * a[j * n + k];
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(SparseError::NotPositiveDefinite {
                    pivot_index: j,
                    pivot: d,
                });
            }
            let dj = d.sqrt();
            a[j * n + j] = dj;
            for i in (j + 1)..n {
                let mut s = a[i * n + j];
                for k in 0..j {
                    s -= a[i * n + k] * a[j * n + k];
                }
                a[i * n + j] = s / dj;
            }
        }
        Ok(())
    }

    /// `y = L (Lᵀ x)` for a lower-triangular factor given by the accessor
    /// `l(i, k)` (`k ≤ i`), with `t` as scratch for `Lᵀ x`. The one
    /// definition of this product's operation order:
    /// [`Cholesky::apply_original`] and block Jacobi's `solve_restricted`
    /// (whose factors are stored packed and lane-interleaved) both call it.
    ///
    /// # Panics
    /// Panics if `x`, `t` and `y` differ in length.
    pub fn llt_matvec(l: impl Fn(usize, usize) -> f64, x: &[f64], t: &mut [f64], y: &mut [f64]) {
        assert!(
            x.len() == t.len() && x.len() == y.len(),
            "llt_matvec: lengths"
        );
        for (i, ti) in t.iter_mut().enumerate() {
            let mut s = 0.0;
            for (k, xk) in x.iter().enumerate().skip(i) {
                s += l(k, i) * xk;
            }
            *ti = s;
        }
        for (i, yi) in y.iter_mut().enumerate() {
            let mut s = 0.0;
            for (k, tk) in t[..=i].iter().enumerate() {
                s += l(i, k) * tk;
            }
            *yi = s;
        }
    }

    /// Dimension of the factored matrix.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Solves `A x = b`, returning `x`.
    ///
    /// # Panics
    /// Panics if `b.len() != n`.
    #[cfg(test)]
    pub(crate) fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }

    /// Solves `A x = b` in place (`b` becomes `x`).
    ///
    /// # Panics
    /// Panics if `b.len() != n`.
    #[allow(clippy::needless_range_loop)]
    pub fn solve_in_place(&self, b: &mut [f64]) {
        assert_eq!(b.len(), self.n, "cholesky solve: rhs length");
        let n = self.n;
        // Forward: L y = b.
        for i in 0..n {
            let mut s = b[i];
            for k in 0..i {
                s -= self.l[i * n + k] * b[k];
            }
            b[i] = s / self.l[i * n + i];
        }
        // Backward: Lᵀ x = y.
        for i in (0..n).rev() {
            let mut s = b[i];
            for k in (i + 1)..n {
                s -= self.l[k * n + i] * b[k];
            }
            b[i] = s / self.l[i * n + i];
        }
    }

    /// Multiplies by the original matrix: `y = A x = L (Lᵀ x)`. Lets callers
    /// that only retain the factor apply the unfactored operator (used when
    /// the ESR recovery needs `M_ff z_f` for a block Jacobi `M`).
    ///
    /// # Panics
    /// Panics if `x.len() != n`.
    pub fn apply_original(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "apply_original: x length");
        let n = self.n;
        let (mut t, mut y) = (vec![0.0; n], vec![0.0; n]);
        Self::llt_matvec(|i, k| self.l[i * n + k], x, &mut t, &mut y);
        y
    }

    /// Flop count of one solve (forward + backward substitution), for the
    /// cost model.
    pub fn solve_flops(&self) -> u64 {
        // ~2·n²: n² multiply-adds per triangular solve.
        2 * (self.n as u64) * (self.n as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::max_abs_diff;

    fn spd3() -> DenseMatrix {
        DenseMatrix::from_row_major(3, vec![4.0, 1.0, 0.0, 1.0, 3.0, -1.0, 0.0, -1.0, 5.0])
    }

    #[test]
    fn cholesky_solves() {
        let a = spd3();
        let ch = a.cholesky().unwrap();
        let x_true = vec![1.0, -2.0, 3.0];
        let b = a.matvec(&x_true);
        let x = ch.solve(&b);
        assert!(max_abs_diff(&x, &x_true) < 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = DenseMatrix::from_row_major(2, vec![1.0, 2.0, 2.0, 1.0]);
        let err = a.cholesky().unwrap_err();
        assert!(matches!(err, SparseError::NotPositiveDefinite { .. }));
    }

    #[test]
    fn cholesky_rejects_zero_pivot() {
        let a = DenseMatrix::zeros(2);
        assert!(a.cholesky().is_err());
    }

    #[test]
    fn apply_original_reproduces_matvec() {
        let a = spd3();
        let ch = a.cholesky().unwrap();
        let x = vec![0.5, 2.0, -1.5];
        let y1 = a.matvec(&x);
        let y2 = ch.apply_original(&x);
        assert!(max_abs_diff(&y1, &y2) < 1e-12);
    }

    #[test]
    fn from_csr_block_extracts_dense_block() {
        let a = CsrMatrix::from_dense(
            4,
            4,
            &[
                10.0, 1.0, 0.0, 2.0, //
                1.0, 20.0, 3.0, 0.0, //
                0.0, 3.0, 30.0, 4.0, //
                2.0, 0.0, 4.0, 40.0,
            ],
        );
        let b = DenseMatrix::from_csr_block(&a, &[1, 3]);
        assert_eq!(b.get(0, 0), 20.0);
        assert_eq!(b.get(0, 1), 0.0);
        assert_eq!(b.get(1, 0), 0.0);
        assert_eq!(b.get(1, 1), 40.0);
    }

    #[test]
    fn solve_in_place_matches_solve() {
        let a = spd3();
        let ch = a.cholesky().unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let x = ch.solve(&b);
        let mut y = b.clone();
        ch.solve_in_place(&mut y);
        assert_eq!(x, y);
    }

    #[test]
    fn solve_flops_counts() {
        let ch = spd3().cholesky().unwrap();
        assert_eq!(ch.solve_flops(), 18);
    }

    #[test]
    fn empty_matrix_cholesky() {
        let a = DenseMatrix::zeros(0);
        let ch = a.cholesky().unwrap();
        assert!(ch.solve(&[]).is_empty());
    }
}
