//! The experiment driver: one-call setup and execution of a distributed
//! resilient PCG run, reporting the metrics the paper's evaluation uses.
//!
//! The paper's experimental protocol (§5) is:
//!
//! 1. run a non-resilient reference to get `t₀` and the iteration count `C`,
//! 2. run each strategy failure-free to measure the *failure-free overhead*
//!    `(t − t₀)/t₀`,
//! 3. inject `ψ = φ` simultaneous failures in the checkpoint interval
//!    containing iteration `C/2`, two iterations before the interval's end
//!    (the worst case), and measure the *overhead with node failures* and
//!    the *reconstruction overhead*.
//!
//! [`Experiment`] runs one such run; [`paper_failure_iteration`] computes
//! the worst-case injection point. The benchmark harness in `esrcg-bench`
//! composes these into the full table/figure grids.

use std::sync::Arc;

use esrcg_cluster::{
    run_spmd_traced, BufferPoolStats, CostModel, FailureSpec, MergedTrace, MetricsRollup,
    RankStats, TraceConfig,
};
use esrcg_precond::PrecondSpec;
use esrcg_sparse::gen;
use esrcg_sparse::{CsrMatrix, KernelBackend, SpmvFormat};

use crate::solver::recovery::RecoveryOutcome;
use crate::solver::tuning::TuneEvent;
use crate::solver::{solve_node, PcgVariant, RecoveryRule, SharedProblem, SolverConfig};
use crate::strategy::{IntervalPolicy, Strategy};

/// Where the system matrix comes from.
#[derive(Debug, Clone)]
pub enum MatrixSource {
    /// 5-point 2-D Poisson on an `nx × ny` grid.
    Poisson2d {
        /// Grid width.
        nx: usize,
        /// Grid height.
        ny: usize,
    },
    /// 7-point 3-D Poisson on an `nx × ny × nz` grid.
    Poisson3d {
        /// Grid width.
        nx: usize,
        /// Grid depth.
        ny: usize,
        /// Grid height.
        nz: usize,
    },
    /// 27-point stencil — the `Emilia_923` stand-in (see PAPER.md, "What
    /// the stand-ins do not reproduce").
    EmiliaLike {
        /// Grid width.
        nx: usize,
        /// Grid depth.
        ny: usize,
        /// Grid height.
        nz: usize,
    },
    /// 3-dof elasticity stencil — the `audikw_1` stand-in.
    AudikwLike {
        /// Grid width.
        nx: usize,
        /// Grid depth.
        ny: usize,
        /// Grid height.
        nz: usize,
    },
    /// Random banded SPD matrix.
    BandedSpd {
        /// Problem size.
        n: usize,
        /// Half-bandwidth.
        bandwidth: usize,
        /// In-band fill probability.
        density: f64,
        /// RNG seed.
        seed: u64,
    },
    /// A Matrix Market file (e.g. the genuine SuiteSparse matrices).
    File(std::path::PathBuf),
    /// A caller-supplied matrix behind a shared handle, so batch drivers
    /// (the campaign fleet) run hundreds of solves of the same problem
    /// from one materialized matrix instead of deep-copying it per run
    /// ([`MatrixSource::build_arc`] is then a refcount bump).
    Shared(Arc<CsrMatrix>),
}

impl MatrixSource {
    /// Materializes the matrix.
    ///
    /// # Errors
    /// Returns I/O and parse failures for [`MatrixSource::File`], and the
    /// first asymmetric pair of a file PCG cannot solve (stringified).
    pub fn build(&self) -> Result<CsrMatrix, String> {
        Ok(match self {
            MatrixSource::Poisson2d { nx, ny } => gen::poisson2d(*nx, *ny),
            MatrixSource::Poisson3d { nx, ny, nz } => gen::poisson3d(*nx, *ny, *nz),
            MatrixSource::EmiliaLike { nx, ny, nz } => gen::emilia_like(*nx, *ny, *nz),
            MatrixSource::AudikwLike { nx, ny, nz } => gen::audikw_like(*nx, *ny, *nz),
            MatrixSource::BandedSpd {
                n,
                bandwidth,
                density,
                seed,
            } => gen::banded_spd(*n, *bandwidth, *density, *seed),
            MatrixSource::File(path) => {
                let a =
                    esrcg_sparse::mm::read_matrix_market_file(path).map_err(|e| e.to_string())?;
                a.check_symmetric(0.0).map_err(|e| e.to_string())?;
                a
            }
            MatrixSource::Shared(a) => (**a).clone(),
        })
    }

    /// Materializes the matrix as a shared handle. For
    /// [`MatrixSource::Shared`] this is a refcount bump — no copy; every
    /// other source builds once and wraps. [`Experiment::run`] consumes
    /// this form, so sharing a matrix across many experiments costs
    /// nothing per run.
    ///
    /// # Errors
    /// Same as [`MatrixSource::build`].
    pub fn build_arc(&self) -> Result<Arc<CsrMatrix>, String> {
        match self {
            MatrixSource::Shared(a) => Ok(a.clone()),
            other => Ok(Arc::new(other.build()?)),
        }
    }

    /// Short name for reports.
    #[cfg(test)]
    pub(crate) fn name(&self) -> &'static str {
        match self {
            MatrixSource::Poisson2d { .. } => "poisson2d",
            MatrixSource::Poisson3d { .. } => "poisson3d",
            MatrixSource::EmiliaLike { .. } => "emilia-like",
            MatrixSource::AudikwLike { .. } => "audikw-like",
            MatrixSource::BandedSpd { .. } => "banded-spd",
            MatrixSource::File(_) => "file",
            MatrixSource::Shared(_) => "shared",
        }
    }
}

/// How the right-hand side is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RhsSpec {
    /// `b = A·x*` with a fixed smooth synthetic solution `x*` — lets tests
    /// validate against the known solution. Note that this RHS damps the
    /// low end of the spectrum (`b`'s eigen-components are scaled by λ), so
    /// CG converges faster than on a generic load.
    FromKnownSolution,
    /// `b = (1, 1, …, 1)ᵀ`.
    Ones,
    /// `b` uniform in `[-1, 1)` from a seeded RNG — a generic load with
    /// mass on the whole spectrum; the hardest (and most realistic)
    /// convergence case, used by the paper-table harness.
    Random {
        /// RNG seed.
        seed: u64,
    },
}

/// The paper's worst-case failure placement (§5): inside the checkpoint
/// interval containing iteration `C/2`, two iterations before the
/// interval's end (so almost a whole interval of work is lost).
pub fn paper_failure_iteration(c: usize, t: usize) -> usize {
    let m = (c / 2) / t;
    ((m + 1) * t).saturating_sub(2).max(1)
}

/// One fully-specified experiment run (builder-style).
#[derive(Debug, Clone)]
pub struct Experiment {
    matrix: MatrixSource,
    rhs: RhsSpec,
    n_ranks: usize,
    precond: PrecondSpec,
    /// What the solver is configured with. Its `failures` stay empty until
    /// [`Experiment::run`] materializes the two lists below.
    cfg: SolverConfig,
    /// `(at_iteration, start_rank, count)` events — materialized into
    /// [`FailureSpec`]s once `n_ranks` is final.
    failure_blocks: Vec<(usize, usize, usize)>,
    failure_explicit: Vec<FailureSpec>,
    cost: CostModel,
    trace: TraceConfig,
}

impl Experiment {
    /// Starts a builder with paper defaults: block Jacobi (max block 10),
    /// rtol 1e-8, 8 ranks, no resilience, no failure — except for the
    /// recovery: the reconstruction of `x` is deferred and stops at η = 0.01
    /// of the outer target, and a rollback's redo replays the logged
    /// reductions ([`Experiment::recovery_rule`]).
    pub fn builder() -> Experiment {
        Experiment {
            matrix: MatrixSource::Poisson2d { nx: 16, ny: 16 },
            rhs: RhsSpec::FromKnownSolution,
            n_ranks: 8,
            precond: PrecondSpec::paper_default(),
            cfg: SolverConfig::new(Strategy::None, 0),
            failure_blocks: Vec::new(),
            failure_explicit: Vec::new(),
            cost: CostModel::default(),
            trace: TraceConfig::Off,
        }
    }

    /// Sets the matrix source.
    pub fn matrix(mut self, m: MatrixSource) -> Self {
        self.matrix = m;
        self
    }

    /// Sets the right-hand-side recipe.
    pub fn rhs(mut self, r: RhsSpec) -> Self {
        self.rhs = r;
        self
    }

    /// Sets the number of simulated nodes.
    pub fn n_ranks(mut self, n: usize) -> Self {
        self.n_ranks = n;
        self
    }

    /// Sets the preconditioner.
    pub fn precond(mut self, p: PrecondSpec) -> Self {
        self.precond = p;
        self
    }

    /// Sets the resilience strategy (default: [`Strategy::None`]).
    pub fn strategy(mut self, s: Strategy) -> Self {
        self.cfg.strategy = s;
        self
    }

    /// Sets how the strategy's interval evolves (default:
    /// [`IntervalPolicy::Fixed`]; [`IntervalPolicy::Adaptive`] tunes it
    /// online toward the Daly/Young optimum).
    pub fn interval_policy(mut self, p: IntervalPolicy) -> Self {
        self.cfg.interval_policy = p;
        self
    }

    /// Sets φ, the number of tolerated simultaneous failures.
    pub fn phi(mut self, phi: usize) -> Self {
        self.cfg.phi = phi;
        self
    }

    /// Sets the convergence tolerance.
    pub fn rtol(mut self, rtol: f64) -> Self {
        self.cfg.rtol = rtol;
        self
    }

    /// Sets the iteration cap.
    pub fn max_iters(mut self, m: usize) -> Self {
        self.cfg.max_iters = m;
        self
    }

    /// Sets when and how tightly the lost block of `x` is solved for, and
    /// whether a rollback's redo replays the logged reductions (default:
    /// [`RecoveryRule::Extended`]; the paper's rule is
    /// [`RecoveryRule::Paper`]).
    pub fn recovery_rule(mut self, rule: RecoveryRule) -> Self {
        self.cfg.recovery_rule = rule;
        self
    }

    /// Injects a contiguous block failure of `count` ranks starting at
    /// `start_rank` (wrapping), at iteration `at_iteration`. May be called
    /// several times to inject multiple sequential failure events.
    pub fn failure_at(mut self, at_iteration: usize, start_rank: usize, count: usize) -> Self {
        self.failure_blocks.push((at_iteration, start_rank, count));
        self
    }

    /// Replaces the whole failure schedule with `specs` — batch
    /// construction for callers that compile schedules programmatically
    /// (the campaign engine's fault-trace compiler). Any events previously
    /// added through [`Experiment::failure_at`] are discarded.
    pub fn failures(mut self, specs: Vec<FailureSpec>) -> Self {
        self.failure_blocks.clear();
        self.failure_explicit = specs;
        self
    }

    /// The matched failure-free baseline of this experiment: the same
    /// problem, right-hand side, rank count, preconditioner, tolerances,
    /// cost model, and kernel configuration, but no resilience strategy and
    /// no failures — the paper's `t₀` reference run. Campaign cells pair
    /// each measured run with this baseline to report relative overheads.
    pub fn reference(&self) -> Experiment {
        let mut r = self.clone();
        r.cfg.strategy = Strategy::None;
        r.cfg.interval_policy = IntervalPolicy::Fixed;
        r.cfg.phi = 0;
        r.failure_blocks.clear();
        r.failure_explicit.clear();
        r
    }

    /// Sets the cost model.
    pub fn cost_model(mut self, c: CostModel) -> Self {
        self.cost = c;
        self
    }

    /// Selects the kernel backend. All backends are bitwise identical (see
    /// [`esrcg_sparse::backend`]); this only changes wall-clock speed.
    pub fn backend(mut self, b: KernelBackend) -> Self {
        self.cfg.backend = b;
        self
    }

    /// Selects the PCG recurrence (default: [`PcgVariant::Classic`]).
    /// Unlike [`Experiment::backend`], the variants are *not* bitwise
    /// identical — pipelining restructures the recurrence; trajectories
    /// agree to rounding. [`Experiment::reference`] preserves the variant,
    /// so each run is compared against the matched baseline.
    pub fn variant(mut self, v: PcgVariant) -> Self {
        self.cfg.variant = v;
        self
    }

    /// Selects the flight-recorder level (default: [`TraceConfig::Off`]).
    /// `Off` is a branch-only no-op — runs are bitwise identical to a build
    /// without the recorder. `Spans` records phase/recovery spans and
    /// logical marks; `Full` adds per-message send/recv events. Because
    /// every event is timestamped with the deterministic modeled clock, the
    /// merged trace is byte-identical across thread counts.
    pub fn trace(mut self, t: TraceConfig) -> Self {
        self.trace = t;
        self
    }

    /// Selects the SpMV storage format (default: [`SpmvFormat::Csr`]).
    /// All formats are bitwise identical (see `esrcg_sparse::format`);
    /// non-CSR formats are converted once per problem and cached in the
    /// shared problem. [`Experiment::reference`] preserves the format, so
    /// overheads are always measured against a matched baseline.
    pub fn spmv_format(mut self, f: SpmvFormat) -> Self {
        self.cfg.spmv_format = f;
        self
    }

    /// Builds the shared problem and runs the SPMD solve.
    ///
    /// # Errors
    /// Returns configuration/assembly errors as strings.
    pub fn run(self) -> Result<RunReport, String> {
        let a = self.matrix.build_arc()?;
        let n = a.nrows();
        let b = match self.rhs {
            RhsSpec::FromKnownSolution => {
                let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.137).sin() + 0.5).collect();
                a.spmv(&x_true)
            }
            RhsSpec::Ones => vec![1.0; n],
            RhsSpec::Random { seed } => {
                let mut rng = esrcg_sparse::rng::SplitMix64::new(seed);
                (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect()
            }
        };
        let mut cfg = self.cfg;
        cfg.failures = self.failure_explicit;
        cfg.failures.extend(
            self.failure_blocks
                .iter()
                .map(|&(at, start, count)| FailureSpec::contiguous(at, start, count, self.n_ranks)),
        );
        cfg.failures.sort_by_key(|f| f.at_iteration());
        let shared = Arc::new(SharedProblem::assemble_shared(
            a,
            b,
            vec![0.0; n],
            self.n_ranks,
            self.precond,
            cfg,
        )?);

        let outcome = run_spmd_traced(self.n_ranks, self.cost, self.trace, {
            let shared = shared.clone();
            move |ctx| solve_node(ctx, &shared)
        });

        let mut x = Vec::with_capacity(n);
        for node in &outcome.results {
            x.extend_from_slice(&node.x_local);
        }
        let first = &outcome.results[0];
        // Aggregate per-event recovery reports: everything except the
        // recovery time (each rank's part ends on its own clock) and the
        // inner-solve iteration count is identical across ranks; take the
        // per-event maximum of those two. A deferred end solve is already
        // in each rank's last event.
        let recoveries: Vec<_> = first
            .recoveries
            .iter()
            .enumerate()
            .map(|(e, rec)| {
                let mut rec = rec.clone();
                for r in outcome.results.iter().filter_map(|o| o.recoveries.get(e)) {
                    rec.recovery_time = rec.recovery_time.max(r.recovery_time);
                    rec.inner_iterations = rec.inner_iterations.max(r.inner_iterations);
                }
                rec
            })
            .collect();
        let stats_total = outcome.total_stats();
        // Tuner decisions are replicated; report rank 0's copy.
        let tuning = first.tuning.clone();
        let buffer_stats_total = outcome.total_buffer_stats();

        Ok(RunReport {
            converged: outcome.results.iter().all(|o| o.converged),
            iterations: first.iterations,
            total_loop_trips: first.total_loop_trips,
            final_relres: first.final_relres,
            true_relres: first.true_relres,
            residual_drift: first.residual_drift,
            modeled_time: outcome.modeled_time,
            recoveries,
            tuning,
            per_rank_stats: outcome.stats,
            stats_total,
            per_rank_buffer_stats: outcome.buffer_stats,
            buffer_stats_total,
            trace: outcome.trace,
            x,
        })
    }
}

/// Aggregated result of one experiment run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// True if every rank reached the tolerance.
    pub converged: bool,
    /// Logical iterations to convergence (the paper's `C` on reference runs).
    pub iterations: usize,
    /// Loop trips executed including redone iterations after rollback.
    pub total_loop_trips: usize,
    /// Final recurrence relative residual.
    pub final_relres: f64,
    /// Final true relative residual `‖b−Ax‖/‖b‖`.
    pub true_relres: f64,
    /// The paper's residual drift metric (Eq. 2).
    pub residual_drift: f64,
    /// Deterministic modeled runtime (seconds).
    pub modeled_time: f64,
    /// All recovery events, in trigger order.
    pub recoveries: Vec<RecoveryOutcome>,
    /// Interval-tuner decisions, one per failure event under the adaptive
    /// policy (empty under the fixed policy). Replicated across ranks.
    pub tuning: Vec<TuneEvent>,
    /// Per-rank instrumentation.
    pub per_rank_stats: Vec<RankStats>,
    /// Sum of all ranks' counters.
    pub stats_total: RankStats,
    /// Per-rank buffer-pool counters (always populated, recorder or not).
    pub per_rank_buffer_stats: Vec<BufferPoolStats>,
    /// All ranks' buffer-pool counters absorbed into one.
    pub buffer_stats_total: BufferPoolStats,
    /// The merged flight-recorder trace (`None` under [`TraceConfig::Off`]).
    /// Render with [`RunReport::trace_json`] for Perfetto, roll up with
    /// [`RunReport::metrics`].
    pub trace: Option<MergedTrace>,
    /// The assembled global solution.
    pub x: Vec<f64>,
}

impl RunReport {
    /// Relative overhead of this run versus a reference time:
    /// `(t − t₀)/t₀`, using modeled time.
    pub fn overhead_vs(&self, t0: f64) -> f64 {
        (self.modeled_time - t0) / t0
    }

    /// Modeled recovery time summed over all events, folded from `+0.0`
    /// so a run without a failure reports `0`, never `-0`.
    pub fn recovery_seconds(&self) -> f64 {
        self.recoveries
            .iter()
            .fold(0.0, |acc, r| acc + r.recovery_time)
    }

    /// Modeled recovery time (summed over all events) relative to a
    /// reference time (the paper's "reconstruction overhead" column).
    pub fn reconstruction_overhead_vs(&self, t0: f64) -> f64 {
        self.recovery_seconds() / t0
    }

    /// Renders the recorded trace as Chrome/Perfetto trace-event JSON
    /// (one track per rank). `None` under [`TraceConfig::Off`].
    pub fn trace_json(&self) -> Option<String> {
        self.trace.as_ref().map(MergedTrace::to_perfetto_json)
    }

    /// The trace's metrics rollup, with the per-rank buffer-pool counters
    /// absorbed ([`MergedTrace::rollup`]). `None` under
    /// [`TraceConfig::Off`].
    pub fn metrics(&self) -> Option<MetricsRollup> {
        self.trace
            .as_ref()
            .map(|t| t.rollup(&self.per_rank_buffer_stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_run_converges() {
        let report = Experiment::builder()
            .matrix(MatrixSource::Poisson2d { nx: 10, ny: 10 })
            .n_ranks(4)
            .run()
            .unwrap();
        assert!(report.converged);
        assert!(report.iterations > 0);
        assert!(report.modeled_time > 0.0);
        assert!(report.true_relres < 1e-7);
        assert!(report.recoveries.is_empty());
        assert_eq!(report.x.len(), 100);
    }

    #[test]
    fn failure_experiment_reports_recovery() {
        let reference = Experiment::builder()
            .matrix(MatrixSource::Poisson2d { nx: 10, ny: 10 })
            .n_ranks(4)
            .run()
            .unwrap();
        let c = reference.iterations;
        let t = 5;
        let jf = paper_failure_iteration(c, t);
        assert!(jf < c);
        let report = Experiment::builder()
            .matrix(MatrixSource::Poisson2d { nx: 10, ny: 10 })
            .n_ranks(4)
            .strategy(Strategy::Esrp { t })
            .phi(1)
            .failure_at(jf, 0, 1)
            .run()
            .unwrap();
        assert!(report.converged);
        let rec = report.recoveries.first().expect("failure processed");
        assert_eq!(rec.failed_at, jf);
        assert!(rec.inner_iterations > 0, "inner solve aggregated");
        assert!(report.modeled_time > reference.modeled_time);
        assert!(report.overhead_vs(reference.modeled_time) > 0.0);
        assert!(report.reconstruction_overhead_vs(reference.modeled_time) > 0.0);
    }

    #[test]
    fn paper_failure_placement() {
        // C = 100, T = 20: C/2 = 50 lies in [40, 60); inject at 58.
        assert_eq!(paper_failure_iteration(100, 20), 58);
        // T = 1 (ESR): inject near C/2.
        assert_eq!(paper_failure_iteration(100, 1), 49);
        // Tiny C still yields a valid iteration >= 1.
        assert!(paper_failure_iteration(3, 20) >= 1);
    }

    #[test]
    fn matrix_sources_build() {
        for src in [
            MatrixSource::Poisson2d { nx: 4, ny: 4 },
            MatrixSource::Poisson3d {
                nx: 3,
                ny: 3,
                nz: 3,
            },
            MatrixSource::EmiliaLike {
                nx: 3,
                ny: 3,
                nz: 3,
            },
            MatrixSource::AudikwLike {
                nx: 2,
                ny: 2,
                nz: 2,
            },
            MatrixSource::BandedSpd {
                n: 20,
                bandwidth: 3,
                density: 0.5,
                seed: 1,
            },
        ] {
            let a = src.build().unwrap();
            assert!(a.nrows() > 0);
            assert!(a.is_symmetric(1e-12), "{}", src.name());
        }
    }

    #[test]
    fn rhs_ones_works() {
        let report = Experiment::builder()
            .matrix(MatrixSource::Poisson2d { nx: 8, ny: 8 })
            .rhs(RhsSpec::Ones)
            .n_ranks(2)
            .run()
            .unwrap();
        assert!(report.converged);
    }

    #[test]
    fn invalid_config_is_reported() {
        let err = Experiment::builder()
            .matrix(MatrixSource::Poisson2d { nx: 4, ny: 4 })
            .n_ranks(4)
            .strategy(Strategy::Esrp { t: 2 })
            .phi(1)
            .run()
            .unwrap_err();
        assert!(err.contains("T = 2"));
        let err = Experiment::builder()
            .matrix(MatrixSource::Poisson2d { nx: 4, ny: 4 })
            .n_ranks(4)
            .interval_policy(IntervalPolicy::Adaptive { min_t: 1, max_t: 8 })
            .run()
            .unwrap_err();
        assert!(err.contains("needs a resilient strategy"), "{err}");
        // A zero block size is an error up front, not a panic inside
        // `BlockJacobiPrecond::new`.
        let err = Experiment::builder()
            .matrix(MatrixSource::Poisson2d { nx: 4, ny: 4 })
            .n_ranks(4)
            .precond(PrecondSpec { max_block: 0 })
            .run()
            .unwrap_err();
        assert!(err.contains("max_block must be at least 1"), "{err}");
    }

    #[test]
    fn a_tolerance_must_be_positive_and_finite() {
        // An infinite rtol would stop the solve at iteration 0, "converged".
        let base = || {
            Experiment::builder()
                .matrix(MatrixSource::Poisson2d { nx: 4, ny: 4 })
                .n_ranks(4)
                .strategy(Strategy::esr())
                .phi(1)
        };
        for v in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 0.0, -1.0] {
            let err = base().rtol(v).run().expect_err("rtol");
            assert!(err.contains("must be positive and finite"), "{v}: {err}");
        }
    }

    #[test]
    fn reference_is_the_matched_failure_free_baseline() {
        let protected = Experiment::builder()
            .matrix(MatrixSource::Poisson2d { nx: 10, ny: 10 })
            .n_ranks(4)
            .strategy(Strategy::Esrp { t: 5 })
            .phi(1)
            .failure_at(12, 0, 1);
        let baseline = protected.reference().run().unwrap();
        assert!(baseline.converged);
        assert!(baseline.recoveries.is_empty(), "no failures in a baseline");
        // The baseline is the plain reference of the same problem.
        let plain = Experiment::builder()
            .matrix(MatrixSource::Poisson2d { nx: 10, ny: 10 })
            .n_ranks(4)
            .run()
            .unwrap();
        assert_eq!(baseline.iterations, plain.iterations);
        assert_eq!(baseline.x, plain.x, "bitwise the same reference run");
    }

    #[test]
    fn failures_batch_replaces_the_schedule() {
        let reference = Experiment::builder()
            .matrix(MatrixSource::Poisson2d { nx: 10, ny: 10 })
            .n_ranks(4)
            .run()
            .unwrap();
        let c = reference.iterations;
        let schedule = vec![
            FailureSpec::contiguous(c / 3, 0, 1, 4),
            FailureSpec::contiguous(2 * c / 3, 2, 1, 4),
        ];
        let report = Experiment::builder()
            .matrix(MatrixSource::Poisson2d { nx: 10, ny: 10 })
            .n_ranks(4)
            .strategy(Strategy::Esrp { t: 5 })
            .phi(1)
            .failure_at(1, 3, 1) // discarded by the batch setter
            .failures(schedule)
            .run()
            .unwrap();
        assert!(report.converged);
        assert_eq!(report.recoveries.len(), 2, "exactly the batch events ran");
        assert_eq!(report.recoveries[0].failed_at, c / 3);
        assert_eq!(report.recoveries[1].failed_at, 2 * c / 3);
    }

    #[test]
    fn custom_matrix_and_file_round_trip() {
        let a = gen::poisson1d(12);
        let dir = std::env::temp_dir().join("esrcg_driver_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.mtx");
        esrcg_sparse::mm::write_matrix_market_file(&a, &path).unwrap();
        let from_file = MatrixSource::File(path.clone()).build().unwrap();
        assert_eq!(from_file, a);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_non_symmetric_file_is_rejected() {
        let dir = std::env::temp_dir().join("esrcg_driver_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("general.mtx");
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    2 2 4\n1 1 4.0\n1 2 1.0\n2 1 2.0\n2 2 4.0\n";
        std::fs::write(&path, text).unwrap();
        let err = Experiment::builder()
            .matrix(MatrixSource::File(path.clone()))
            .n_ranks(1)
            .run()
            .unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.contains("not symmetric"), "{err}");
        assert!(err.contains("A[0,1]") || err.contains("A[1,0]"), "{err}");
    }

    #[test]
    fn shared_matrix_source_is_zero_copy() {
        let a = Arc::new(gen::poisson2d(8, 8));
        let src = MatrixSource::Shared(a.clone());
        assert_eq!(src.name(), "shared");
        let handle = src.build_arc().unwrap();
        assert!(Arc::ptr_eq(&a, &handle), "build_arc is a refcount bump");
        assert_eq!(src.build().unwrap(), *a, "build still yields the matrix");
        // A run from the shared handle matches the run of the generated
        // matrix bitwise (same problem, same trajectory).
        let shared_run = Experiment::builder()
            .matrix(MatrixSource::Shared(a.clone()))
            .n_ranks(4)
            .run()
            .unwrap();
        let generated_run = Experiment::builder()
            .matrix(MatrixSource::Poisson2d { nx: 8, ny: 8 })
            .n_ranks(4)
            .run()
            .unwrap();
        assert_eq!(shared_run.x, generated_run.x);
        assert_eq!(shared_run.iterations, generated_run.iterations);
    }
}
