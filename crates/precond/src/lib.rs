//! The preconditioner of the ESRCG resilient PCG solver.
//!
//! The paper's experiments use one preconditioner, for the outer and the
//! inner solve alike: **block Jacobi** with non-overlapping, node-local
//! blocks of at most 10 rows (§5). This crate ships it
//! ([`BlockJacobiPrecond`]) and its declarative configuration
//! ([`PrecondSpec`]).
//!
//! The contract, stated once: [`BlockJacobiPrecond`] is a *node-local
//! block-diagonal operator addressed by rank range*. `P` never couples
//! entries owned by different ranks, so the off-diagonal block
//! `P[I_f, I\I_f]` of the ESR reconstruction (Alg. 2, line 5) is identically
//! zero and `v = z_f`; every `range` an entry point takes is a union of
//! whole, adjacent rank ranges.
//!
//! The reconstruction then solves `P[I_f, I_f] · r_f = v` (Alg. 2, line 6)
//! rank by rank. The restriction of the operator to a rank is available in
//! closed form (apply the underlying `M` blocks), so
//! [`BlockJacobiPrecond::solve_restricted`] is exact and cheap. The same
//! restriction preconditions the inner `A[I_f, I_f]` solve (lines 7–8): a
//! rank's blocks are a function of its own rows alone, so they are exactly
//! the blocks of its principal submatrix, and the expensive part of recovery
//! is that inner solve, exactly as the paper reports.

mod block_jacobi;
mod spec;

pub use block_jacobi::BlockJacobiPrecond;
pub use spec::PrecondSpec;
