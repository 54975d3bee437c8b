//! # esrcg-campaign — stochastic fault traces, a concurrent experiment
//! fleet, and resilience reports
//!
//! The paper's evaluation (§5) measures resilient-PCG overhead under
//! hand-picked worst-case failure events, one [`Experiment`] at a time.
//! This crate turns that single-shot reproduction into a
//! throughput-oriented resilience-evaluation service, in three layers:
//!
//! 1. **Trace generation** (`trace`) — seeded stochastic
//!    [`FaultProcess`] models (independent exponential faults, correlated
//!    contiguous *bursts* per the paper's switch-fault rationale, and the
//!    paper's worst case as a degenerate process) compiled into sorted,
//!    solver-valid failure schedules against a planned iteration budget.
//! 2. **Fleet execution** (`spec`, [`fleet`], `runner`) — a
//!    declarative [`CampaignSpec`] matrix (problems × strategies × φ ×
//!    rank counts × trace seeds) with a budget-aware enumerator, drained
//!    through a bounded worker set with per-job panic isolation and
//!    results in deterministic enumeration order, independent of
//!    scheduling.
//! 3. **Reporting** (`report`) — per-cell resilience statistics against
//!    the matched failure-free baseline (overhead, recovery-time share,
//!    iteration and modeled-time distributions, convergence failures),
//!    emitted as schema-versioned JSON (`BENCH_campaign.json`) plus a
//!    Markdown summary.
//!
//! Because every run is clocked by the deterministic modeled clock and
//! aggregation follows enumeration order, a campaign's artifact is
//! **byte-identical** across repeated runs and across fleet worker counts
//! — asserted by `tests/determinism.rs` and by CI.
//!
//! ```
//! use esrcg_campaign::{CampaignRunner, CampaignSpec};
//!
//! let mut spec = CampaignSpec::smoke();
//! spec.max_runs = Some(4); // budget-aware: trailing cells are dropped
//! let report = CampaignRunner::new(2).run(&spec).expect("campaign runs");
//! assert!(!report.cells.is_empty());
//! assert!(report.dropped_runs > 0, "the cut is recorded, never silent");
//! println!("{}", report.to_markdown());
//! ```
//!
//! [`Experiment`]: esrcg_core::driver::Experiment
//! [`FaultProcess`]: trace::FaultProcess
//! [`CampaignSpec`]: spec::CampaignSpec

pub mod fleet;
mod report;
mod runner;
mod spec;
mod trace;

pub use report::{BaselineReport, CampaignReport, CellReport, Summary};
pub use runner::CampaignRunner;
pub use spec::{CampaignSpec, CellPlan, Enumeration, ProblemSpec};
pub use trace::{FaultProcess, TraceBudget};
