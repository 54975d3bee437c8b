//! Resilient preconditioned conjugate gradient: **ESR**, **ESRP**, and
//! **IMCR** — a from-scratch Rust reproduction of
//! *Pachajoa, Pacher, Levonyak, Gansterer: "Algorithm-Based
//! Checkpoint-Recovery for the Conjugate Gradient Method", ICPP 2020*.
//!
//! # What this crate provides
//!
//! * [`pcg`] — the sequential PCG reference solver (paper Alg. 1), also used
//!   for the inner solves of the recovery path,
//! * [`dist`] — the distributed solver substrate: communication plans derived
//!   from the matrix sparsity pattern and the split-phase halo-exchange SpMV
//!   (`HaloExchange::start_view`/`finish_view` overlapping communication
//!   with interior rows; the blocking wrapper `exchange_halo` is the tests'
//!   oracle),
//! * [`aspmv`] — the *augmented* sparse matrix–vector product (paper §2.2):
//!   redundant-copy destinations d(s,k) (Eq. 1), entry multiplicities m(i),
//!   g(i), and the extra-send sets Rc(s,k),
//! * [`queue`] — the three-slot redundancy queue of search-direction copies
//!   (paper §3, Fig. 1),
//! * [`strategy`] — the resilience strategy configuration (none / ESR /
//!   ESRP(T) / IMCR(T)),
//! * [`solver`] — the distributed resilient PCG node program (paper Alg. 3)
//!   with the ESR reconstruction (paper Alg. 2) and IMCR recovery; its hot
//!   paths run on a selectable [`esrcg_sparse::KernelBackend`]
//!   (`SolverConfig::backend`) and reuse per-rank recovery buffers and
//!   per-failure-domain caches instead of allocating per iteration or per
//!   recovery,
//! * [`driver`] — the experiment driver that runs reference/failure-free/
//!   failure experiments and reports the paper's overhead metrics.
//!
//! # Quick start
//!
//! ```
//! use esrcg_core::driver::{Experiment, MatrixSource};
//! use esrcg_core::strategy::Strategy;
//!
//! // Solve a small Poisson problem on 4 simulated nodes with ESRP(T=5),
//! // tolerating up to 1 node failure, and inject a failure at iteration 12.
//! let report = Experiment::builder()
//!     .matrix(MatrixSource::Poisson3d { nx: 6, ny: 6, nz: 6 })
//!     .n_ranks(4)
//!     .strategy(Strategy::Esrp { t: 5 })
//!     .phi(1)
//!     .failure_at(12, 0, 1)
//!     .run()
//!     .expect("experiment runs");
//! assert!(report.converged);
//! ```

pub mod aspmv;
pub mod dist;
pub mod driver;
pub mod pcg;
pub mod queue;
pub mod solver;
pub mod strategy;

pub use driver::{Experiment, RunReport};
pub use solver::tuning::TuneEvent;
pub use solver::{PcgVariant, RecoveryRule};
pub use strategy::{IntervalPolicy, Strategy};
