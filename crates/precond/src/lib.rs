//! Preconditioners for the ESRCG resilient PCG solver.
//!
//! The paper's experiments use one preconditioner: **block Jacobi** with
//! non-overlapping, node-local blocks of at most 10 rows (§5). This crate
//! ships it ([`BlockJacobiPrecond`]) together with the two trivial operators
//! the tests compare it against, **Jacobi** and **Identity**.
//!
//! The contract, stated once: a [`Preconditioner`] is a *node-local
//! block-diagonal operator addressed by rank range*. `P` never couples
//! entries owned by different ranks, so the off-diagonal block
//! `P[I_f, I\I_f]` of the ESR reconstruction (Alg. 2, line 5) is identically
//! zero and `v = z_f`; every `range` an entry point takes is a union of
//! whole, adjacent rank ranges.
//!
//! The reconstruction then solves `P[I_f, I_f] · r_f = v` (Alg. 2, line 6)
//! rank by rank. The restriction of the operator to a rank is available in
//! closed form (apply the underlying `M` blocks), so
//! [`Preconditioner::solve_restricted`] is exact and cheap — the expensive
//! part of recovery is the `A[I_f, I_f]` inner solve, exactly as the paper
//! reports.

mod block_jacobi;
mod jacobi;
mod spec;
mod traits;

pub use block_jacobi::BlockJacobiPrecond;
pub use jacobi::JacobiPrecond;
pub use spec::PrecondSpec;
pub use traits::{IdentityPrecond, Preconditioner};
