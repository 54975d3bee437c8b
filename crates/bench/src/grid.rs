//! The experiment grid runner: reference + failure-free + failure runs for
//! one test matrix, producing the data behind the paper's Tables 2/3/4 and
//! Figures 2/3.

use esrcg_core::driver::{paper_failure_iteration, Experiment, MatrixSource, RhsSpec};
use esrcg_core::strategy::Strategy;
use esrcg_core::RecoveryRule;

/// One table's configuration.
#[derive(Debug, Clone)]
pub struct TableSpec {
    /// Human-readable workload name (e.g. `emilia-like 12x12x256`).
    pub label: String,
    /// The matrix.
    pub matrix: MatrixSource,
    /// Simulated cluster size.
    pub n_ranks: usize,
    /// Checkpoint intervals; `1` denotes classic ESR (ESRP rows only).
    pub t_values: Vec<usize>,
    /// Redundancy levels φ (ψ = φ failures are injected).
    pub phi_values: Vec<usize>,
    /// Repetitions; each uses a distinct right-hand-side seed.
    pub reps: usize,
    /// Base seed.
    pub seed: u64,
    /// Verbose progress on stderr.
    pub progress: bool,
}

/// Failure-location cell: overheads for one (strategy, T, φ, location).
#[derive(Debug, Clone)]
pub struct FailureCell {
    /// `start` (rank 0) or `center` (rank N/2).
    pub location: &'static str,
    /// Median relative overhead `(t − t₀)/t₀` with ψ = φ failures.
    pub overhead: f64,
    /// Median reconstruction (recovery) overhead relative to t₀.
    pub reconstruction: f64,
    /// Median iterations redone after rollback.
    pub wasted: usize,
    /// Median inner-solve iterations (ESRP only; 0 for IMCR).
    pub inner_iterations: usize,
}

/// One table row: a (strategy, T, φ) cell.
#[derive(Debug, Clone)]
pub struct TableRow {
    /// `ESRP` or `IMCR` (ESR is the `ESRP, T = 1` row, as in the paper).
    pub strategy: &'static str,
    /// Checkpoint interval.
    pub t: usize,
    /// Redundancy level.
    pub phi: usize,
    /// Median failure-free relative overhead.
    pub failure_free: f64,
    /// The `start` and `center` failure cells.
    pub failures: Vec<FailureCell>,
}

/// Everything measured for one workload.
#[derive(Debug, Clone)]
pub struct TableData {
    /// Workload label.
    pub label: String,
    /// Median reference time t₀ (modeled seconds).
    pub t0: f64,
    /// Reference iteration count C (median over reps).
    pub c: usize,
    /// Problem size.
    pub n: usize,
    /// Rank count.
    pub n_ranks: usize,
    /// All (strategy, T, φ) rows.
    pub rows: Vec<TableRow>,
    /// Residual drift of the failure-free runs (identical across
    /// strategies, Table 4 "Reference").
    pub drift_reference: f64,
    /// Residual drift of every failure run (Table 4 "Median"/"Minimum").
    pub failure_drifts: Vec<f64>,
}

fn median_f64(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of empty sample");
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in samples"));
    values[values.len() / 2]
}

fn median_usize(values: &mut [usize]) -> usize {
    assert!(!values.is_empty(), "median of empty sample");
    values.sort_unstable();
    values[values.len() / 2]
}

/// Runs the full grid for one workload. Progress goes to stderr when
/// `spec.progress` is set.
///
/// # Panics
/// Panics if any run fails to converge or a configuration is invalid —
/// the harness is only meaningful on healthy configurations.
pub fn run_table(spec: &TableSpec) -> TableData {
    let progress = |msg: &str| {
        if spec.progress {
            eprintln!("[{}] {msg}", spec.label);
        }
    };

    // One materialized matrix behind a shared handle serves every solve of
    // the grid (1 + 3·rows per repetition): `build_arc` on it is a refcount
    // bump.
    let a = spec.matrix.build_arc().expect("matrix builds");
    let n = a.nrows();
    let matrix = MatrixSource::Shared(a);
    // Every solve of the grid: the paper's problem, and its reconstruction
    // run as Alg. 2 — at once, to the paper's 1e-14 — so the tables measure
    // the paper's reconstruction cost.
    let paper_run = |seed: u64| {
        Experiment::builder()
            .matrix(matrix.clone())
            .rhs(RhsSpec::Random { seed })
            .n_ranks(spec.n_ranks)
            .recovery_rule(RecoveryRule::Paper)
    };

    // --- Reference runs: one per repetition seed ---------------------------
    let mut refs = Vec::with_capacity(spec.reps);
    // Table 4 "Reference": the drift of repetition 0.
    let mut drift_reference = None;
    for rep in 0..spec.reps {
        let seed = spec.seed + rep as u64;
        let report = paper_run(seed).run().expect("reference run");
        assert!(report.converged, "reference must converge");
        progress(&format!(
            "reference rep {rep}: C = {}, t0 = {:.3} ms",
            report.iterations,
            report.modeled_time * 1e3
        ));
        drift_reference.get_or_insert(report.residual_drift);
        refs.push((seed, report.iterations, report.modeled_time));
    }
    let mut t0s: Vec<f64> = refs.iter().map(|r| r.2).collect();
    let t0 = median_f64(&mut t0s);
    let mut cs: Vec<usize> = refs.iter().map(|r| r.1).collect();
    let c = median_usize(&mut cs);

    // --- The (strategy, T, φ) grid -----------------------------------------
    // ESRP rows include T = 1 (classic ESR); IMCR rows skip T = 1 (an
    // every-iteration full checkpoint is not a configuration the paper
    // tests).
    let mut rows = Vec::new();
    let mut failure_drifts = Vec::new();
    let strategies: Vec<(&'static str, Vec<usize>)> = vec![
        ("ESRP", spec.t_values.clone()),
        (
            "IMCR",
            spec.t_values.iter().copied().filter(|&t| t > 1).collect(),
        ),
    ];

    for (sname, ts) in strategies {
        for &t in &ts {
            let strategy = match sname {
                "ESRP" => Strategy::Esrp { t },
                _ => Strategy::Imcr { t },
            };
            for &phi in &spec.phi_values {
                // Failure-free overhead, median over reps.
                let mut ff = Vec::with_capacity(spec.reps);
                for &(seed, _, t0_rep) in &refs {
                    let report = paper_run(seed)
                        .strategy(strategy)
                        .phi(phi)
                        .run()
                        .expect("failure-free run");
                    assert!(report.converged);
                    ff.push(report.overhead_vs(t0_rep));
                }
                let failure_free = median_f64(&mut ff);
                progress(&format!(
                    "{sname} T={t} phi={phi}: failure-free {:.2} %",
                    100.0 * failure_free
                ));

                // Failure runs at the two paper locations, ψ = φ.
                let mut failures = Vec::new();
                for (location, start) in [("start", 0usize), ("center", spec.n_ranks / 2)] {
                    let mut ovh = Vec::with_capacity(spec.reps);
                    let mut rec = Vec::with_capacity(spec.reps);
                    let mut wasted = Vec::with_capacity(spec.reps);
                    let mut inner = Vec::with_capacity(spec.reps);
                    for &(seed, c_rep, t0_rep) in &refs {
                        let j_f = paper_failure_iteration(c_rep, t);
                        let report = paper_run(seed)
                            .strategy(strategy)
                            .phi(phi)
                            .failure_at(j_f, start, phi)
                            .run()
                            .expect("failure run");
                        assert!(report.converged, "{sname} T={t} phi={phi} {location}");
                        let r = report.recoveries.first().expect("failure processed");
                        ovh.push(report.overhead_vs(t0_rep));
                        rec.push(report.reconstruction_overhead_vs(t0_rep));
                        wasted.push(r.wasted_iterations);
                        inner.push(r.inner_iterations);
                        failure_drifts.push(report.residual_drift);
                    }
                    failures.push(FailureCell {
                        location,
                        overhead: median_f64(&mut ovh),
                        reconstruction: median_f64(&mut rec),
                        wasted: median_usize(&mut wasted),
                        inner_iterations: median_usize(&mut inner),
                    });
                    progress(&format!(
                        "{sname} T={t} phi={phi} {location}: overhead {:.2} %, \
                         reconstruction {:.2} %",
                        100.0 * failures.last().expect("just pushed").overhead,
                        100.0 * failures.last().expect("just pushed").reconstruction,
                    ));
                }

                rows.push(TableRow {
                    strategy: sname,
                    t,
                    phi,
                    failure_free,
                    failures,
                });
            }
        }
    }

    TableData {
        label: spec.label.clone(),
        t0,
        c,
        n,
        n_ranks: spec.n_ranks,
        rows,
        drift_reference: drift_reference.expect("at least one repetition"),
        failure_drifts,
    }
}

impl TableData {
    /// The row for `(strategy, t, phi)`, if present.
    pub fn row(&self, strategy: &str, t: usize, phi: usize) -> Option<&TableRow> {
        self.rows
            .iter()
            .find(|r| r.strategy == strategy && r.t == t && r.phi == phi)
    }

    /// Median drift over all failure runs (Table 4 "Median").
    pub(crate) fn drift_median(&self) -> f64 {
        let mut d = self.failure_drifts.clone();
        median_f64(&mut d)
    }

    /// Minimum drift over all failure runs (Table 4 "Minimum" — the
    /// greatest accuracy loss, since more negative means a larger true
    /// residual).
    pub(crate) fn drift_min(&self) -> f64 {
        self.failure_drifts
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians() {
        assert_eq!(median_f64(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&mut [4.0, 1.0]), 4.0);
        assert_eq!(median_usize(&mut [5, 1, 9, 7]), 7);
    }

    #[test]
    fn tiny_grid_runs_end_to_end() {
        let spec = TableSpec {
            label: "tiny".into(),
            matrix: MatrixSource::Poisson3d {
                nx: 6,
                ny: 6,
                nz: 6,
            },
            n_ranks: 4,
            t_values: vec![1, 5],
            phi_values: vec![1],
            reps: 1,
            seed: 42,
            progress: false,
        };
        let data = run_table(&spec);
        assert!(data.c > 0 && data.t0 > 0.0);
        // ESRP T=1, T=5 and IMCR T=5 → 3 rows.
        assert_eq!(data.rows.len(), 3);
        let esr = data.row("ESRP", 1, 1).expect("ESR row");
        assert_eq!(esr.failures.len(), 2);
        // On a grid this small the top-ups hide under the interior rows
        // completely; what holds at any size is the order.
        let esrp = data.row("ESRP", 5, 1).expect("ESRP(5) row");
        assert!(0.0 <= esrp.failure_free && esrp.failure_free <= esr.failure_free);
        assert!(data.row("IMCR", 1, 1).is_none(), "no IMCR T=1 row");
        assert!(!data.failure_drifts.is_empty());
        assert!(data.drift_min() <= data.drift_median());
    }
}
