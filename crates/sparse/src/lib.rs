//! Sparse linear algebra substrate for the ESRCG project.
//!
//! This crate provides everything the resilient PCG solver needs from a linear
//! algebra library, implemented from scratch:
//!
//! * [`CooMatrix`] — a coordinate-format builder for assembling matrices,
//! * [`CsrMatrix`] — compressed sparse row storage with the kernels used by the
//!   solver (SpMV, row extraction, principal submatrices, transpose, symmetry
//!   checks),
//! * [`backend`] / [`KernelBackend`] — the kernel execution switch: the
//!   sequential reference kernels and a multithreaded backend that is
//!   **bitwise identical** to them at any thread count (fixed-block
//!   deterministic reductions, row-parallel SpMV),
//! * `format` / [`SpmvFormat`] — the SpMV storage-format switch
//!   (`sellcs` SELL-C-σ and `bcsr` masked-block BCSR next to plain
//!   CSR), with per-problem conversion cached in a [`FormatCache`]; all
//!   formats are bitwise identical to CSR,
//! * [`pool`] — the persistent worker pool the parallel backend dispatches
//!   to (one pool per calling OS thread; replaces spawn-per-call threads),
//! * [`DenseMatrix`] and [`Cholesky`] — small dense matrices and Cholesky
//!   factorization for block Jacobi preconditioner blocks,
//! * [`Partition`] — the contiguous block-row distribution of matrix rows and
//!   vector entries over cluster ranks used throughout the paper,
//! * `split` / [`RowSplit`] — the interior/boundary row classification the
//!   split-phase distributed SpMV uses to overlap communication with
//!   interior compute (cached per matrix + partition, each class stored as
//!   contiguous [`RowRuns`]),
//! * [`gen`] — synthetic SPD problem generators standing in for the paper's
//!   SuiteSparse test matrices (PAPER.md, "What the stand-ins do not
//!   reproduce", says what the substitution gives up),
//! * [`mm`] — Matrix Market I/O so the genuine matrices can be used when
//!   available,
//! * [`rng`] — a tiny seeded PRNG (SplitMix64) for reproducible synthetic
//!   workloads (the build carries no external dependencies),
//! * [`vector`] — the dense vector kernels (dot, axpby, the fused PCG
//!   update) used by PCG, all following the fixed-block deterministic
//!   reduction contract documented there.
//!
//! All numeric code is `f64`; indices are `usize`.

pub mod backend;
mod bcsr;
mod coo;
mod csr;
mod dense;
mod error;
mod format;
pub mod gen;
pub mod mm;
mod partition;
pub mod pool;
pub mod rng;
mod sellcs;
mod split;
pub mod vector;

pub use backend::KernelBackend;
pub use bcsr::BcsrMatrix;
pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use dense::{Cholesky, DenseMatrix};
pub use error::SparseError;
pub use format::{FormatCache, FormatMatrix, RankFormatPieces, SpmvFormat};
pub use partition::Partition;
pub use sellcs::SellMatrix;
pub use split::{RowRuns, RowSplit, RowSplitSet};
