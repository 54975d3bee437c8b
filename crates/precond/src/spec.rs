//! Declarative preconditioner configuration for the experiment driver.

use esrcg_sparse::{CsrMatrix, Partition, SparseError};

use crate::block_jacobi::BlockJacobiPrecond;

/// A block Jacobi configuration, resolvable against a matrix and partition.
///
/// `max_block: 10` is the paper's configuration (§5); `max_block: 1` is
/// point Jacobi.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrecondSpec {
    /// Maximum rows per block (the paper uses 10).
    pub max_block: usize,
}

impl PrecondSpec {
    /// The paper's experimental configuration: block Jacobi with blocks of
    /// at most 10 rows.
    pub fn paper_default() -> Self {
        PrecondSpec { max_block: 10 }
    }

    /// Builds the preconditioner for `a` distributed by `partition`.
    ///
    /// # Errors
    /// Propagates factorization failures (non-SPD blocks).
    ///
    /// # Panics
    /// Panics if `max_block == 0` (see [`BlockJacobiPrecond::new`]).
    pub fn build(
        &self,
        a: &CsrMatrix,
        partition: &Partition,
    ) -> Result<BlockJacobiPrecond, SparseError> {
        BlockJacobiPrecond::new(a, partition, self.max_block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esrcg_sparse::gen::poisson2d;

    #[test]
    fn builds_every_variant() {
        let a = poisson2d(4, 4);
        let part = Partition::balanced(16, 4);
        for max_block in [1, 3] {
            let p = PrecondSpec { max_block }.build(&a, &part).unwrap();
            assert_eq!(p.n(), 16);
            assert_eq!(p.max_block(), max_block);
            let mut z = vec![0.0; 16];
            p.apply_into(&[1.0; 16], &mut z);
            assert!(z.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn paper_default_is_block_jacobi_10() {
        assert_eq!(PrecondSpec::paper_default(), PrecondSpec { max_block: 10 });
    }
}
