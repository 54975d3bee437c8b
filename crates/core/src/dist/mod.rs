//! The distributed solver substrate: communication plans derived from the
//! matrix sparsity pattern, and the halo-exchange SpMV built on them.
//!
//! The paper's solver (§1.2) distributes block rows over ranks; one SpMV
//! then needs, on each rank, the input-vector entries for every column its
//! rows touch. [`plan::CommPlan`] precomputes exactly that traffic — which
//! global indices each rank sends to and receives from each other rank —
//! once per matrix, and `halo::HaloExchange` executes it each iteration.
//!
//! The plan is also the substrate of the ASpMV augmentation
//! ([`crate::aspmv`]): the paper's multiplicities `m(i)` count how many
//! ranks receive entry `i` through this plan.

pub mod halo;
pub mod plan;
