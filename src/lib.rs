//! # esrcg — Algorithm-Based Checkpoint-Recovery for the Conjugate Gradient Method
//!
//! A from-scratch Rust reproduction of *Pachajoa, Pacher, Levonyak,
//! Gansterer: "Algorithm-Based Checkpoint-Recovery for the Conjugate
//! Gradient Method", ICPP 2020* (DOI 10.1145/3404397.3404438): the
//! preconditioned conjugate gradient solver made resilient against node
//! failures through **exact state reconstruction** (ESR), its
//! periodic-storage variant **ESRP**, and the **in-memory buddy
//! checkpoint-restart** (IMCR) baseline — together with all substrates
//! (sparse linear algebra, a simulated distributed cluster with failure
//! injection, preconditioners, workload generators, and a benchmark
//! harness regenerating every table and figure of the paper's evaluation).
//!
//! This facade crate re-exports the public APIs of the workspace crates:
//!
//! * [`sparse`] — CSR matrices, SPD generators, partitioning, Matrix Market,
//! * [`cluster`] — the SPMD runtime, cost model, and failure injection,
//! * [`precond`] — the paper's node-local block Jacobi preconditioner, the
//!   one preconditioner of the outer and the inner solve,
//! * [`core`] — PCG, ASpMV, the redundancy queue, ESR/ESRP/IMCR, and the
//!   experiment driver,
//! * [`campaign`] — stochastic fault traces, the concurrent experiment
//!   fleet, and resilience reports (`BENCH_campaign.json`).
//!
//! ## Quick start
//!
//! ```
//! use esrcg::prelude::*;
//!
//! // A heat-conduction style Poisson problem on 4 simulated cluster nodes,
//! // protected by ESRP with T = 5 against one node failure, which is then
//! // injected at iteration 12.
//! let report = Experiment::builder()
//!     .matrix(MatrixSource::Poisson3d { nx: 6, ny: 6, nz: 6 })
//!     .n_ranks(4)
//!     .strategy(Strategy::Esrp { t: 5 })
//!     .phi(1)
//!     .failure_at(12, 0, 1)
//!     .run()
//!     .expect("experiment runs");
//! assert!(report.converged);
//! let recovery = report.recoveries.first().expect("failure was recovered");
//! assert_eq!(recovery.failed_at, 12);
//! ```

pub use esrcg_campaign as campaign;
pub use esrcg_cluster as cluster;
pub use esrcg_core as core;
pub use esrcg_precond as precond;
pub use esrcg_sparse as sparse;

/// Compiles and runs the README's code blocks as doctests (`cargo test
/// --doc`), so the quickstart in `README.md` can never drift from the API.
/// The item only exists while rustdoc collects doctests.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;

/// The types most applications need.
pub mod prelude {
    pub use esrcg_campaign::{
        CampaignReport, CampaignRunner, CampaignSpec, FaultProcess, ProblemSpec, TraceBudget,
    };
    pub use esrcg_cluster::{
        CostModel, FailureSpec, MergedTrace, MetricsRollup, Phase, TraceConfig,
    };
    pub use esrcg_core::driver::{
        paper_failure_iteration, Experiment, MatrixSource, RhsSpec, RunReport,
    };
    pub use esrcg_core::pcg::pcg;
    pub use esrcg_core::solver::PcgVariant;
    pub use esrcg_core::strategy::Strategy;
    pub use esrcg_precond::PrecondSpec;
    pub use esrcg_sparse::{CooMatrix, CsrMatrix, KernelBackend, Partition};
}
