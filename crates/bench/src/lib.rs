//! Benchmark harness for the ESRCG reproduction: regenerates every table
//! and figure of the paper's evaluation (§5) on the synthetic stand-in
//! workloads, following the paper's experimental protocol:
//!
//! 1. reference runs establish `t₀` and the iteration count `C` per
//!    repetition (repetitions vary the right-hand-side seed — our modeled
//!    time is deterministic, so machine noise is replaced by workload
//!    variation),
//! 2. failure-free runs of every strategy × T × φ cell measure the
//!    *failure-free overhead*,
//! 3. failure runs inject ψ = φ contiguous rank failures in the checkpoint
//!    interval containing C/2, two iterations before its end, at the two
//!    paper locations (block starting at rank 0 and at rank N/2), and
//!    measure the *overhead with node failures* and the *reconstruction
//!    overhead*.
//!
//! The `paper` binary prints and writes what [`render_paper`] renders. Its
//! `--scale small` text and CSV output is tracked in `BENCH_paper_small/`
//! and compared byte for byte under `cargo test`
//! (`crates/bench/tests/paper_small.rs`) and in CI; the `--scale default`
//! twin is not tracked yet (ROADMAP.md, direction F).
//! The `drills` binary runs the recovery-drill catalog of [`drills`] and
//! compares its lines with the tracked `BENCH_drills.txt` byte for byte.
//!
//! Everything here reads the deterministic *modeled* clock. Host seconds —
//! kernels, plan builds, whole solves — are measured by the standalone
//! `benchmark/` package and nowhere else.

mod artifacts;
pub mod drills;
mod figures;
mod format;
mod grid;
mod scale;

pub use artifacts::render_paper;
pub use grid::{run_table, FailureCell, TableData, TableRow, TableSpec};
pub use scale::Scale;
