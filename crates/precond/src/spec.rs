//! Declarative preconditioner configuration for the experiment driver.

use std::sync::Arc;

use esrcg_sparse::{CsrMatrix, Partition, SparseError};

use crate::block_jacobi::BlockJacobiPrecond;
use crate::jacobi::JacobiPrecond;
use crate::traits::{IdentityPrecond, Preconditioner};

/// A preconditioner choice, resolvable against a matrix and partition.
///
/// `BlockJacobi { max_block: 10 }` is the paper's configuration (§5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrecondSpec {
    /// No preconditioning (plain CG).
    Identity,
    /// Diagonal scaling.
    Jacobi,
    /// Non-overlapping node-local dense blocks of at most `max_block` rows.
    BlockJacobi {
        /// Maximum rows per block (the paper uses 10).
        max_block: usize,
    },
}

impl PrecondSpec {
    /// The paper's experimental configuration: block Jacobi with blocks of
    /// at most 10 rows.
    pub fn paper_default() -> Self {
        PrecondSpec::BlockJacobi { max_block: 10 }
    }

    /// Builds the preconditioner for `a` distributed by `partition`.
    ///
    /// # Errors
    /// Propagates factorization failures (non-SPD blocks).
    pub fn build(
        &self,
        a: &CsrMatrix,
        partition: &Partition,
    ) -> Result<Arc<dyn Preconditioner>, SparseError> {
        Ok(match *self {
            PrecondSpec::Identity => Arc::new(IdentityPrecond::new(a.nrows())),
            PrecondSpec::Jacobi => Arc::new(JacobiPrecond::new(a)?),
            PrecondSpec::BlockJacobi { max_block } => {
                Arc::new(BlockJacobiPrecond::new(a, partition, max_block)?)
            }
        })
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            PrecondSpec::Identity => "identity",
            PrecondSpec::Jacobi => "jacobi",
            PrecondSpec::BlockJacobi { .. } => "block-jacobi",
        }
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
        for spec in [
            PrecondSpec::Identity,
            PrecondSpec::Jacobi,
            PrecondSpec::BlockJacobi { max_block: 3 },
        ] {
            let p = spec.build(&a, &part).unwrap();
            assert_eq!(p.n(), 16);
            let mut z = vec![0.0; 16];
            p.apply_into(&[1.0; 16], &mut z);
            assert!(z.iter().all(|v| v.is_finite()));
            assert_eq!(p.name(), spec.name());
        }
    }

    #[test]
    fn paper_default_is_block_jacobi_10() {
        assert_eq!(
            PrecondSpec::paper_default(),
            PrecondSpec::BlockJacobi { max_block: 10 }
        );
    }
}
