//! Jacobi (diagonal) preconditioner: `M = diag(A)`, `P = D⁻¹`.

use std::ops::Range;

use esrcg_sparse::{CsrMatrix, SparseError};

use crate::traits::Preconditioner;

/// The Jacobi preconditioner. Trivially node-local.
#[derive(Debug, Clone)]
pub struct JacobiPrecond {
    diag: Vec<f64>,
    inv_diag: Vec<f64>,
}

impl JacobiPrecond {
    /// Builds from the matrix diagonal.
    ///
    /// # Errors
    /// Returns [`SparseError::NotPositiveDefinite`] if any diagonal entry is
    /// not strictly positive (an SPD matrix has a strictly positive
    /// diagonal).
    pub fn new(a: &CsrMatrix) -> Result<Self, SparseError> {
        let diag = a.diag();
        for (i, &d) in diag.iter().enumerate() {
            if d <= 0.0 || !d.is_finite() {
                return Err(SparseError::NotPositiveDefinite {
                    pivot_index: i,
                    pivot: d,
                });
            }
        }
        let inv_diag = diag.iter().map(|d| 1.0 / d).collect();
        Ok(JacobiPrecond { diag, inv_diag })
    }
}

impl Preconditioner for JacobiPrecond {
    fn n(&self) -> usize {
        self.diag.len()
    }

    fn apply_local(&self, range: Range<usize>, r_local: &[f64], z_local: &mut [f64]) {
        assert_eq!(r_local.len(), range.len(), "jacobi: local r length");
        assert_eq!(z_local.len(), range.len(), "jacobi: local z length");
        let inv = &self.inv_diag[range];
        for ((zi, ri), di) in z_local.iter_mut().zip(r_local.iter()).zip(inv.iter()) {
            *zi = ri * di;
        }
    }

    fn apply_flops(&self, range: Range<usize>) -> u64 {
        range.len() as u64
    }

    fn solve_restricted(&self, range: Range<usize>, v: &[f64], r_f: &mut [f64]) {
        assert_eq!(v.len(), range.len(), "jacobi: restricted v length");
        assert_eq!(r_f.len(), range.len(), "jacobi: restricted r_f length");
        // P_ff r_f = v  with  P = D⁻¹  ⇒  r_f = D_ff v.
        let diag = &self.diag[range];
        for ((ri, vi), di) in r_f.iter_mut().zip(v.iter()).zip(diag.iter()) {
            *ri = di * vi;
        }
    }

    fn solve_restricted_flops(&self, idx_len: usize) -> u64 {
        idx_len as u64
    }

    fn name(&self) -> &'static str {
        "jacobi"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esrcg_sparse::gen::poisson1d;
    use esrcg_sparse::vector::max_abs_diff;

    #[test]
    fn applies_inverse_diagonal() {
        let a = poisson1d(4); // diagonal all 2.0
        let p = JacobiPrecond::new(&a).unwrap();
        let mut z = vec![0.0; 4];
        p.apply_into(&[2.0, 4.0, 6.0, 8.0], &mut z);
        assert_eq!(z, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn local_matches_global_restriction() {
        let a = poisson1d(6);
        let p = JacobiPrecond::new(&a).unwrap();
        let r: Vec<f64> = (0..6).map(|i| i as f64 + 1.0).collect();
        let mut z_full = vec![0.0; 6];
        p.apply_into(&r, &mut z_full);
        let mut z_loc = vec![0.0; 3];
        p.apply_local(2..5, &r[2..5], &mut z_loc);
        assert!(max_abs_diff(&z_loc, &z_full[2..5]) == 0.0);
    }

    #[test]
    fn restricted_solve_inverts_apply() {
        let a = poisson1d(5);
        let p = JacobiPrecond::new(&a).unwrap();
        // v = P_ff r_f  ⇒ solve_restricted(v) must return r_f.
        let r_f = [3.0, -1.0, 2.0];
        let v: Vec<f64> = (1..4)
            .zip(r_f.iter())
            .map(|(i, &ri)| ri / a.get(i, i))
            .collect();
        let mut rec = vec![0.0; 3];
        p.solve_restricted(1..4, &v, &mut rec);
        assert!(max_abs_diff(&rec, &r_f) < 1e-15);
    }

    #[test]
    fn rejects_nonpositive_diagonal() {
        let a = CsrMatrix::from_dense(2, 2, &[1.0, 0.0, 0.0, -1.0]);
        assert!(JacobiPrecond::new(&a).is_err());
        let a = CsrMatrix::from_dense(2, 2, &[1.0, 1.0, 1.0, 0.0]);
        assert!(JacobiPrecond::new(&a).is_err()); // structurally missing pivot
    }

    #[test]
    fn flops_scale_with_range() {
        let a = poisson1d(10);
        let p = JacobiPrecond::new(&a).unwrap();
        assert_eq!(p.apply_flops(0..10), 10);
        assert_eq!(p.apply_flops(3..5), 2);
        assert_eq!(p.solve_restricted_flops(4), 4);
    }
}
