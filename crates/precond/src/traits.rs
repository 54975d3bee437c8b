//! The [`Preconditioner`] trait and the trivial identity preconditioner.

use std::ops::Range;

/// A preconditioner for PCG, in the paper's operator form: `z = P r` where
/// `P` represents the action of `M⁻¹` for some SPD matrix `M`.
///
/// Every implementation is a **node-local block-diagonal operator addressed
/// by rank range**: `P` never couples entries owned by different ranks, so a
/// `range` argument is always a union of whole, adjacent rank ranges (and
/// therefore of whole preconditioner blocks), and the slices passed with it
/// are the *local* chunks of length `range.len()`.
pub trait Preconditioner: Send + Sync {
    /// Global problem size.
    fn n(&self) -> usize;

    /// Full application `z ← P r` (sequential use).
    ///
    /// # Panics
    /// Panics if `r.len() != n()` or `z.len() != n()`.
    fn apply_into(&self, r: &[f64], z: &mut [f64]) {
        self.apply_local(0..self.n(), r, z);
    }

    /// Node-local application: computes `z[range]` from `r[range]`.
    ///
    /// # Panics
    /// Panics if a slice's length differs from `range.len()`.
    fn apply_local(&self, range: Range<usize>, r_local: &[f64], z_local: &mut [f64]);

    /// Flop count of one [`Preconditioner::apply_local`] over `range`, for
    /// the cost model.
    fn apply_flops(&self, range: Range<usize>) -> u64;

    /// Solves `P[range, range] · r_f = v` for `r_f` (Alg. 2, line 6), the
    /// inverse of [`Preconditioner::apply_local`] over the same `range`.
    ///
    /// Since `P = M⁻¹` is block-diagonal with every block inside `range`,
    /// this is simply `r_f = M[range, range] · v` — exact, no iteration.
    ///
    /// # Panics
    /// Panics if a slice's length differs from `range.len()`.
    fn solve_restricted(&self, range: Range<usize>, v: &[f64], r_f: &mut [f64]);

    /// Flop count of one [`Preconditioner::solve_restricted`] on `idx_len`
    /// indices.
    fn solve_restricted_flops(&self, idx_len: usize) -> u64;

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

/// The identity preconditioner (`P = I`): turns PCG into plain CG.
#[derive(Debug, Clone)]
pub struct IdentityPrecond {
    n: usize,
}

impl IdentityPrecond {
    /// Identity preconditioner for a problem of size `n`.
    pub fn new(n: usize) -> Self {
        IdentityPrecond { n }
    }
}

impl Preconditioner for IdentityPrecond {
    fn n(&self) -> usize {
        self.n
    }

    fn apply_local(&self, range: Range<usize>, r_local: &[f64], z_local: &mut [f64]) {
        assert_eq!(r_local.len(), range.len(), "identity: local r length");
        z_local.copy_from_slice(r_local);
    }

    fn apply_flops(&self, _range: Range<usize>) -> u64 {
        0
    }

    fn solve_restricted(&self, range: Range<usize>, v: &[f64], r_f: &mut [f64]) {
        assert_eq!(v.len(), range.len(), "identity: restricted v length");
        r_f.copy_from_slice(v);
    }

    fn solve_restricted_flops(&self, _idx_len: usize) -> u64 {
        0
    }

    fn name(&self) -> &'static str {
        "identity"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_applies_as_copy() {
        let p = IdentityPrecond::new(3);
        let mut z = vec![0.0; 3];
        p.apply_into(&[1.0, 2.0, 3.0], &mut z);
        assert_eq!(z, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn identity_local_application() {
        let p = IdentityPrecond::new(10);
        let mut z = vec![0.0; 3];
        p.apply_local(4..7, &[5.0, 6.0, 7.0], &mut z);
        assert_eq!(z, vec![5.0, 6.0, 7.0]);
    }

    #[test]
    fn identity_restricted_solve_is_copy() {
        let p = IdentityPrecond::new(5);
        let mut r_f = vec![0.0; 2];
        p.solve_restricted(1..3, &[8.0, 9.0], &mut r_f);
        assert_eq!(r_f, vec![8.0, 9.0]);
    }

    #[test]
    fn identity_costs_nothing() {
        let p = IdentityPrecond::new(5);
        assert_eq!(p.apply_flops(0..5), 0);
        assert_eq!(p.solve_restricted_flops(5), 0);
        assert_eq!(p.name(), "identity");
    }
}
