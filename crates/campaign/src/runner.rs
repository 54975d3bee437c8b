//! Campaign orchestration: baseline pairing, trace compilation, fleet
//! execution, and deterministic aggregation.
//!
//! A campaign runs in phases:
//!
//! 1. **Baselines** — one `Strategy::None` reference run per distinct
//!    (problem, rank count, PCG variant, cost model) tuple, executed
//!    concurrently. Each yields the paper's `t₀` (modeled) and `C`
//!    (iterations): the overhead denominator and the planned iteration
//!    budget of every cell trace. Matching per variant *and* cost model
//!    keeps overheads honest: a pipelined cell on the latency-dominated
//!    clock is measured against the pipelined failure-free run on that
//!    same clock.
//! 2. **Trace compilation** — every cell × seed compiles its
//!    [`FaultProcess`](crate::trace::FaultProcess) into a failure
//!    schedule against the matched
//!    baseline's budget (main thread: schedules are part of the record
//!    whether or not the run later succeeds).
//! 3. **Fleet execution** — all measured runs drain through the bounded
//!    worker set ([`crate::fleet::run_jobs`]) with per-job panic
//!    isolation.
//! 4. **Aggregation** — per-cell statistics in enumeration order; nothing
//!    scheduling-dependent enters the report, so aggregates are
//!    byte-identical across worker counts.

use std::sync::Arc;

use esrcg_cluster::{CostModel, MetricsRollup, TraceConfig};
use esrcg_core::driver::{Experiment, MatrixSource, RunReport};
use esrcg_core::solver::PcgVariant;
use esrcg_sparse::{CsrMatrix, SpmvFormat};

use crate::fleet::run_jobs;
use crate::report::{run_trace_line, BaselineReport, CampaignReport, CellReport, Summary};
use crate::spec::CampaignSpec;
use crate::trace::TraceBudget;

/// Executes [`CampaignSpec`]s through a bounded concurrent fleet.
#[derive(Debug, Clone)]
pub struct CampaignRunner {
    workers: usize,
    verbose: bool,
}

/// What one measured run contributes to its cell's aggregates.
#[derive(Debug, Clone)]
struct RunOutcome {
    converged: bool,
    iterations: usize,
    modeled_time: f64,
    events_triggered: usize,
    recovery_time: f64,
    wasted_iterations: usize,
    full_restarts: usize,
    metrics: MetricsRollup,
}

impl RunOutcome {
    fn from_report(r: &RunReport) -> Self {
        RunOutcome {
            // Measured runs record at `TraceConfig::Spans`, so the rollup is
            // always present; keep the fallback total so a future Off-level
            // path degrades to zeros instead of panicking.
            metrics: r.metrics().unwrap_or_default(),
            converged: r.converged,
            iterations: r.iterations,
            modeled_time: r.modeled_time,
            events_triggered: r.recoveries.len(),
            recovery_time: r.recovery_seconds(),
            wasted_iterations: r.recoveries.iter().map(|rec| rec.wasted_iterations).sum(),
            full_restarts: r.recoveries.iter().filter(|rec| rec.full_restart).count(),
        }
    }
}

impl CampaignRunner {
    /// A runner draining the fleet through `workers` worker threads
    /// (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        CampaignRunner {
            workers: workers.max(1),
            verbose: false,
        }
    }

    /// Enables progress lines on stderr (never part of the report).
    pub fn verbose(mut self, on: bool) -> Self {
        self.verbose = on;
        self
    }

    /// Runs the whole campaign and aggregates the report.
    ///
    /// # Errors
    /// Returns spec validation problems, matrix assembly failures, and
    /// baseline runs that error or fail to converge (without a trusted
    /// baseline no overhead is meaningful). Measured-run errors and panics
    /// do **not** abort the campaign; they are recorded per cell.
    pub fn run(&self, spec: &CampaignSpec) -> Result<CampaignReport, String> {
        let enumeration = spec.enumerate()?;
        let cells = &enumeration.cells;

        // Materialize every problem matrix once; every run shares it
        // through `MatrixSource::Shared` — a refcount bump per job, never
        // a copy.
        let mut matrices: Vec<Arc<CsrMatrix>> = Vec::with_capacity(spec.problems.len());
        for p in &spec.problems {
            matrices.push(Arc::new(
                p.source
                    .build()
                    .map_err(|e| format!("problem '{}': {e}", p.name))?,
            ));
        }

        // --- Phase 1: matched baselines, one per
        // (problem, ranks, variant, cost model).
        // The SpMV format is deliberately *not* part of the baseline key:
        // formats are bitwise identical and charge identical flops, so the
        // modeled baseline clock is format-invariant (asserted by the core
        // solver tests) — splitting baselines per format would rerun the
        // exact same measurement. The cost model *is* part of the key:
        // the same trajectory clocks differently per preset, and overheads
        // only pair against a reference on the same clock.
        let mut baseline_keys: Vec<(usize, usize, PcgVariant, CostModel)> = Vec::new();
        for c in cells {
            let key = (c.problem, c.n_ranks, c.variant, c.cost);
            if !baseline_keys.contains(&key) {
                baseline_keys.push(key);
            }
        }
        if self.verbose {
            eprintln!(
                "campaign: {} cells, {} measured runs, {} baselines, {} workers",
                cells.len(),
                enumeration.planned_runs,
                baseline_keys.len(),
                self.workers
            );
        }
        let baseline_results = run_jobs(
            self.workers,
            baseline_keys.clone(),
            |_, &(pi, n_ranks, variant, cost)| {
                // `reference()` *is* the definition of the matched
                // baseline: the cell stem with strategy, φ, and failures
                // stripped — the PCG variant and cost model stay, so a
                // pipelined cell is paired with the pipelined failure-free
                // clock on the same network. Routing the baseline through
                // it keeps the pairing correct even if the stem ever grows
                // a resilience-affecting knob.
                self.experiment(spec, &matrices, pi, n_ranks, variant, cost, SpmvFormat::Csr)
                    .reference()
                    .run()
                    .map(|r| (r.x.len(), r.converged, r.modeled_time, r.iterations))
            },
            |done, total| {
                if self.verbose {
                    eprintln!("campaign: baseline {done}/{total}");
                }
            },
        );
        let mut baselines: Vec<BaselineReport> = Vec::with_capacity(baseline_keys.len());
        for (&(pi, n_ranks, variant, cost), res) in baseline_keys.iter().zip(baseline_results) {
            let name = &spec.problems[pi].name;
            let what = format!(
                "{} PCG on {n_ranks} ranks, {} cost model",
                variant.name(),
                cost.name()
            );
            let (n, converged, t0, c) = res
                .map_err(|e| format!("baseline for '{name}' ({what}): {e}"))?
                .map_err(|e| format!("baseline for '{name}' ({what}): {e}"))?;
            if !converged {
                return Err(format!(
                    "baseline for '{name}' ({what}) did not converge \
                     within {} iterations — overheads would be meaningless",
                    spec.max_iters
                ));
            }
            baselines.push(BaselineReport {
                problem: name.clone(),
                n,
                n_ranks,
                variant: variant.name().to_string(),
                cost_model: cost.name().to_string(),
                t0,
                c,
            });
        }
        let baseline_of =
            |pi: usize, n_ranks: usize, variant: PcgVariant, cost: CostModel| -> &BaselineReport {
                let k = baseline_keys
                    .iter()
                    .position(|&key| key == (pi, n_ranks, variant, cost))
                    .expect("every cell has a baseline");
                &baselines[k]
            };

        // --- Phase 2: compile every trace against its baseline budget ----
        struct Job {
            cell: usize,
            schedule: Vec<esrcg_cluster::FailureSpec>,
        }
        let mut jobs: Vec<Job> = Vec::with_capacity(enumeration.planned_runs);
        let mut cell_scheduled: Vec<usize> = vec![0; cells.len()];
        for (ci, cell) in cells.iter().enumerate() {
            let base = baseline_of(cell.problem, cell.n_ranks, cell.variant, cell.cost);
            // Adaptive cells budget against the policy's *upper* interval
            // bound: the tuner may grow T up to max_t, and the trace's
            // min-separation guarantee (a completed round between events)
            // must hold for whatever interval is live when the next event
            // fires.
            let budget = TraceBudget {
                iterations: base.c,
                n_ranks: cell.n_ranks,
                phi: cell.phi,
                interval: cell
                    .policy
                    .max_interval(cell.strategy.interval().unwrap_or(1)),
            };
            for &seed in &cell.seeds {
                let schedule = cell.process.compile(seed, &budget);
                cell_scheduled[ci] += schedule.len();
                jobs.push(Job { cell: ci, schedule });
            }
        }

        // --- Phase 3: drain the measured runs through the fleet ----------
        let verbose = self.verbose;
        let outcomes = run_jobs(
            self.workers,
            jobs,
            |_, job| {
                let cell = &cells[job.cell];
                self.experiment(
                    spec,
                    &matrices,
                    cell.problem,
                    cell.n_ranks,
                    cell.variant,
                    cell.cost,
                    cell.format,
                )
                .strategy(cell.strategy)
                .interval_policy(cell.policy)
                .phi(cell.phi)
                .failures(job.schedule.clone())
                // Spans-level recording: phase/recovery spans and logical
                // marks per run, no per-message events. The recorder never
                // touches the modeled clock, so overheads are unchanged.
                .trace(TraceConfig::Spans)
                .run()
                .map(|r| RunOutcome::from_report(&r))
            },
            |done, total| {
                if verbose && (done % 10 == 0 || done == total) {
                    eprintln!("campaign: run {done}/{total}");
                }
            },
        );

        // --- Phase 4: aggregate per cell, in enumeration order -----------
        // `outcomes[k]` corresponds to `jobs[k]`, whose cell indices are
        // nondecreasing in enumeration order; walk them as one stream.
        let mut cell_reports: Vec<CellReport> = Vec::with_capacity(cells.len());
        let mut run_traces: Vec<String> = Vec::with_capacity(outcomes.len());
        let mut cursor = 0usize;
        for (ci, cell) in cells.iter().enumerate() {
            let base = baseline_of(cell.problem, cell.n_ranks, cell.variant, cell.cost);
            let mut errors = Vec::new();
            let mut oks: Vec<RunOutcome> = Vec::new();
            for &seed in &cell.seeds {
                match &outcomes[cursor] {
                    Ok(Ok(o)) => {
                        run_traces.push(run_trace_line(
                            ci,
                            seed,
                            o.converged,
                            o.iterations,
                            o.modeled_time,
                            &o.metrics,
                        ));
                        oks.push(o.clone());
                    }
                    Ok(Err(e)) => errors.push(format!("seed {seed}: {e}")),
                    Err(e) => errors.push(format!("seed {seed}: {e}")),
                }
                cursor += 1;
            }
            let mut metrics = MetricsRollup::default();
            for o in &oks {
                metrics.absorb(&o.metrics);
            }
            // Summaries cover *converged* runs only: a run that hit the
            // iteration cap carries a meaningless (cap-sized) iteration
            // count and modeled time that would silently dwarf the real
            // distribution. Non-converged runs are visible instead in
            // `convergence_failures`.
            let metric = |f: &dyn Fn(&RunOutcome) -> f64| -> Option<Summary> {
                let vals: Vec<f64> = oks.iter().filter(|o| o.converged).map(f).collect();
                Summary::of(&vals)
            };
            cell_reports.push(CellReport {
                problem: base.problem.clone(),
                n_ranks: cell.n_ranks,
                variant: cell.variant.name().to_string(),
                cost_model: cell.cost.name().to_string(),
                format: cell.format.name(),
                strategy: cell.strategy.to_string(),
                policy: cell.policy.name(),
                phi: cell.phi,
                process: cell.process.name(),
                seeds: cell.seeds.clone(),
                runs: cell.seeds.len(),
                ok_runs: oks.len(),
                errors,
                convergence_failures: oks.iter().filter(|o| !o.converged).count(),
                events_scheduled: cell_scheduled[ci],
                events_triggered: oks.iter().map(|o| o.events_triggered).sum(),
                full_restarts: oks.iter().map(|o| o.full_restarts).sum(),
                wasted_iterations: oks.iter().map(|o| o.wasted_iterations).sum(),
                iterations: metric(&|o| o.iterations as f64),
                modeled_time: metric(&|o| o.modeled_time),
                overhead: metric(&|o| (o.modeled_time - base.t0) / base.t0),
                recovery_share: metric(&|o| o.recovery_time / o.modeled_time),
                metrics,
            });
        }
        debug_assert_eq!(cursor, outcomes.len(), "every run aggregated");

        Ok(CampaignReport {
            baselines,
            cells: cell_reports,
            planned_runs: enumeration.planned_runs,
            skipped_combos: enumeration.skipped_combos,
            dropped_runs: enumeration.dropped_runs,
            run_traces,
        })
    }

    /// The common experiment stem of a (problem, ranks, variant, cost
    /// model, format) tuple: baseline pairing means every cell run is this
    /// exact builder plus strategy, φ, and the compiled failure schedule.
    /// Baselines pass plain CSR — the format is bitwise and modeled-clock
    /// invariant, so every format shares the CSR baseline measurement.
    #[allow(clippy::too_many_arguments)]
    fn experiment(
        &self,
        spec: &CampaignSpec,
        matrices: &[Arc<CsrMatrix>],
        problem: usize,
        n_ranks: usize,
        variant: PcgVariant,
        cost: CostModel,
        format: SpmvFormat,
    ) -> Experiment {
        let p = &spec.problems[problem];
        Experiment::builder()
            .matrix(MatrixSource::Shared(matrices[problem].clone()))
            .rhs(p.rhs)
            .n_ranks(n_ranks)
            .variant(variant)
            .spmv_format(format)
            .rtol(spec.rtol)
            .max_iters(spec.max_iters)
            .cost_model(cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ProblemSpec;
    use crate::trace::FaultProcess;
    use esrcg_core::driver::RhsSpec;
    use esrcg_core::strategy::Strategy;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            problems: vec![ProblemSpec::new(
                "poisson2d-12x12",
                MatrixSource::Poisson2d { nx: 12, ny: 12 },
                RhsSpec::FromKnownSolution,
            )],
            rank_counts: vec![4],
            variants: vec![PcgVariant::Classic, PcgVariant::Pipelined],
            cost_models: vec![CostModel::default()],
            formats: vec![SpmvFormat::Csr],
            strategies: vec![Strategy::esr(), Strategy::Esrp { t: 5 }],
            policies: vec![esrcg_core::strategy::IntervalPolicy::Fixed],
            phis: vec![1],
            processes: vec![FaultProcess::None, FaultProcess::Exponential { mtbf: 20.0 }],
            seeds: vec![3, 4],
            rtol: 1e-8,
            max_iters: 200_000,
            max_runs: None,
        }
    }

    #[test]
    fn campaign_produces_paired_overheads() {
        let report = CampaignRunner::new(2).run(&tiny_spec()).unwrap();
        // One matched baseline per PCG variant.
        assert_eq!(report.baselines.len(), 2);
        assert_eq!(report.baselines[0].variant, "classic");
        assert_eq!(report.baselines[1].variant, "pipelined");
        for base in &report.baselines {
            assert!(base.t0 > 0.0 && base.c > 0);
            assert_eq!(base.cost_model, "default");
        }
        assert_eq!(report.cells.len(), 8);
        for cell in &report.cells {
            assert_eq!(cell.ok_runs, cell.runs, "no errors: {:?}", cell.errors);
            assert_eq!(cell.convergence_failures, 0);
            let ov = cell.overhead.as_ref().expect("runs happened");
            assert!(
                ov.min > 0.0,
                "resilience always costs something over t0 ({})",
                cell.process
            );
            if cell.process == "none" {
                assert_eq!(cell.events_scheduled, 0);
                assert_eq!(cell.events_triggered, 0);
                assert_eq!(cell.runs, 1, "deterministic process collapsed seeds");
            }
        }
        // A failure cell costs more than its failure-free sibling.
        let ff = report
            .cells
            .iter()
            .find(|c| c.strategy == "esr" && c.process == "none")
            .unwrap();
        let wf = report
            .cells
            .iter()
            .find(|c| c.strategy == "esr" && c.process.starts_with("exp"))
            .unwrap();
        assert!(wf.events_triggered > 0, "mtbf 20 triggers events");
        assert!(
            wf.overhead.as_ref().unwrap().median > ff.overhead.as_ref().unwrap().median,
            "failures cost more than failure-free protection"
        );
        assert!(wf.recovery_share.as_ref().unwrap().max > 0.0);
        assert_eq!(
            wf.wasted_iterations, 0,
            "ESR reconstructs the failure iteration itself — zero redone work"
        );
        // ESRP rolls back to the last storage stage, so its failure cell
        // generally redoes iterations (and never more than T per event).
        let esrp_wf = report
            .cells
            .iter()
            .find(|c| c.strategy == "esrp(T=5)" && c.process.starts_with("exp"))
            .unwrap();
        assert!(esrp_wf.events_triggered > 0);
        assert!(esrp_wf.wasted_iterations <= 5 * esrp_wf.events_triggered + esrp_wf.runs);
    }

    #[test]
    fn report_and_trace_lines_are_identical_across_worker_counts() {
        let spec = tiny_spec();
        let reference = CampaignRunner::new(1).run(&spec).unwrap();
        assert!(!reference.run_traces.is_empty());
        let ref_json = reference.to_json();
        let ref_lines = reference.run_traces.join("\n");
        for workers in [4usize, 8] {
            let report = CampaignRunner::new(workers).run(&spec).unwrap();
            assert_eq!(
                ref_json,
                report.to_json(),
                "{workers} workers: report JSON must be byte-identical"
            );
            assert_eq!(
                ref_lines,
                report.run_traces.join("\n"),
                "{workers} workers: trace JSONL must be byte-identical"
            );
        }
        // The per-cell rollup carries real observability: every cell ran
        // iterations and reductions; failure cells recorded recovery spans.
        for cell in &reference.cells {
            assert!(cell.metrics.iterations > 0);
            assert!(cell.metrics.reductions > 0);
            if cell.events_triggered > 0 {
                assert_eq!(cell.metrics.recovery_spans as usize, cell.events_triggered);
                assert!(cell.metrics.recovery_seconds > 0.0);
            }
        }
    }

    #[test]
    fn baseline_failure_aborts_with_context() {
        let mut spec = tiny_spec();
        spec.max_iters = 3; // nothing converges in 3 iterations
        let err = CampaignRunner::new(1).run(&spec).unwrap_err();
        assert!(err.contains("did not converge"), "{err}");
        assert!(err.contains("poisson2d-12x12"), "{err}");
    }
}
