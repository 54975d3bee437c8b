//! Campaign aggregation and rendering: per-cell resilience statistics
//! against the matched failure-free baseline, emitted as schema-versioned
//! JSON (`BENCH_campaign.json`) and a Markdown summary table.
//!
//! Everything in a report derives from deterministic inputs — modeled
//! clocks, iteration counts, recovery outcomes, and the enumeration order —
//! and the renderers use fixed-precision formatting, so the emitted bytes
//! are identical across repeated runs and across fleet worker counts. Wall
//! time and host facts are deliberately **absent**: they belong on stderr,
//! not in the artifact. Strings and floats render through
//! [`esrcg_cluster::json`]; this module holds only the layout templates.

use std::fmt::Write as _;

use esrcg_cluster::json::{self, fixed};
use esrcg_cluster::{MetricsRollup, Phase};

/// Schema identifier stamped into the JSON artifact. Bump on any change to
/// the emitted structure.
pub(crate) const SCHEMA: &str = "esrcg-campaign-v7";

/// Order statistics of one metric over a cell's runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Smallest value.
    pub min: f64,
    /// Median (midpoint-averaged for even counts).
    pub median: f64,
    /// Largest value.
    pub max: f64,
}

impl Summary {
    /// Summarizes `values`; `None` when empty. Ordering uses
    /// [`f64::total_cmp`], so the result is deterministic and the
    /// aggregation is total — a pathological NaN metric sorts last
    /// instead of panicking away a whole completed campaign.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            0.5 * (v[n / 2 - 1] + v[n / 2])
        };
        Some(Summary {
            min: v[0],
            median,
            max: v[n - 1],
        })
    }

    fn json(&self, precision: usize) -> String {
        format!(
            "{{\"min\": {}, \"median\": {}, \"max\": {}}}",
            fixed(self.min, precision),
            fixed(self.median, precision),
            fixed(self.max, precision)
        )
    }
}

/// One matched failure-free baseline run (`Strategy::None`), shared by
/// every cell of the same (problem, rank count, PCG variant) triple.
#[derive(Debug, Clone)]
pub struct BaselineReport {
    /// Problem label.
    pub problem: String,
    /// Problem size (rows).
    pub n: usize,
    /// Simulated ranks.
    pub n_ranks: usize,
    /// PCG variant name (`classic`, `pipelined`, `sstep4`, …).
    pub variant: String,
    /// Cost-model preset name the baseline was clocked with
    /// (`default`, `latency-dominated`, …).
    pub cost_model: String,
    /// Modeled reference time t₀ (seconds).
    pub t0: f64,
    /// Reference iteration count C — also the planned iteration budget the
    /// cell traces were compiled against.
    pub c: usize,
}

/// Aggregated resilience statistics of one campaign cell.
#[derive(Debug, Clone)]
pub struct CellReport {
    /// Problem label.
    pub problem: String,
    /// Simulated ranks.
    pub n_ranks: usize,
    /// PCG variant name (`classic`, `pipelined`, `sstep4`, …).
    pub variant: String,
    /// Cost-model preset name the cell was clocked with.
    pub cost_model: String,
    /// SpMV storage-format name (`csr`, `sell-8-64`, `bcsr-3x3`).
    pub format: String,
    /// Strategy display name (`esr`, `esrp(T=10)`, `imcr(T=10)`).
    pub strategy: String,
    /// Interval-policy display name (`fixed`, `auto[1..64]`).
    pub policy: String,
    /// Redundancy level φ.
    pub phi: usize,
    /// Fault-process name (parameterized, see `FaultProcess::name`).
    pub process: String,
    /// Trace seeds this cell ran.
    pub seeds: Vec<u64>,
    /// Runs executed (= seeds).
    pub runs: usize,
    /// Runs that completed without error/panic.
    pub ok_runs: usize,
    /// Job errors and panic messages, in seed order (empty when clean).
    pub errors: Vec<String>,
    /// Completed runs that failed to reach the tolerance.
    pub convergence_failures: usize,
    /// Failure events scheduled across all traces of the cell.
    pub events_scheduled: usize,
    /// Failure events that actually triggered (an event past a run's
    /// convergence point never fires).
    pub events_triggered: usize,
    /// Recoveries that had no rollback point and restarted from x⁰.
    pub full_restarts: usize,
    /// Total redone iterations across all runs.
    pub wasted_iterations: usize,
    /// Logical iterations to convergence. This and the remaining
    /// summaries cover the cell's **converged** runs only — a run that
    /// hit the iteration cap is counted in `convergence_failures`
    /// instead of skewing the distributions with cap-sized values.
    pub iterations: Option<Summary>,
    /// Modeled solve time (seconds), over converged runs.
    pub modeled_time: Option<Summary>,
    /// Overhead vs the matched baseline: `(t − t₀)/t₀`, over converged
    /// runs.
    pub overhead: Option<Summary>,
    /// Share of modeled time spent in recovery: `Σ recovery_time / t`,
    /// over converged runs.
    pub recovery_share: Option<Summary>,
    /// Flight-recorder rollup absorbed over the cell's completed runs
    /// (spans, marks, recovery and buffer-pool counters).
    pub metrics: MetricsRollup,
}

/// The full campaign outcome: baselines, per-cell aggregates, and the
/// enumeration accounting (what was skipped or cut is part of the record).
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Matched baselines, one per (problem, rank count, variant) triple,
    /// in first-use order.
    pub baselines: Vec<BaselineReport>,
    /// Aggregated cells, in enumeration order.
    pub cells: Vec<CellReport>,
    /// Measured runs planned after skipping/truncation.
    pub planned_runs: usize,
    /// Combinations skipped as unrunnable (φ ≥ ranks).
    pub skipped_combos: usize,
    /// Runs cut by the campaign budget.
    pub dropped_runs: usize,
    /// One `run_trace_line` per completed measured run, in enumeration
    /// order — the JSONL body `campaign --trace-out` writes. Errored runs
    /// contribute no line (their errors live in the cell report), so the
    /// stream is byte-identical across fleet worker counts.
    pub run_traces: Vec<String>,
}

/// The members every JSON rendering of a [`MetricsRollup`] carries, without
/// the enclosing braces: the rank-0 counters, per-phase spans and seconds
/// (phases that ran only), and the buffer-pool counters. Fixed key order and
/// precision on one line.
fn write_rollup(s: &mut String, m: &MetricsRollup) {
    let _ = write!(
        s,
        "\"loop_trips\": {}, \"reductions\": {}, \"recovery_spans\": {}, \
         \"recovery_seconds\": {}, \"failures\": {}, \
         \"checkpoint_rounds\": {}, \"storage_rounds\": {}, \
         \"tuner_decisions\": {}, \"phases\": [",
        m.iterations,
        m.reductions,
        m.recovery_spans,
        fixed(m.recovery_seconds, 9),
        m.failures,
        m.checkpoint_rounds,
        m.storage_rounds,
        m.tuner_decisions,
    );
    let mut first = true;
    for (i, phase) in Phase::ALL.iter().enumerate() {
        if m.phase_spans[i] == 0 {
            continue;
        }
        if !first {
            s.push_str(", ");
        }
        first = false;
        let _ = write!(
            s,
            "{{\"phase\": \"{}\", \"spans\": {}, \"seconds\": {}}}",
            phase.name(),
            m.phase_spans[i],
            fixed(m.phase_seconds[i], 9)
        );
    }
    let _ = write!(
        s,
        "], \"buffer_pool\": {{\"takes\": {}, \"hits\": {}, \"misses\": {}, \
         \"recycles\": {}, \"high_water\": {}}}",
        m.buffer_pool.takes,
        m.buffer_pool.hits,
        m.buffer_pool.misses(),
        m.buffer_pool.recycles,
        m.buffer_pool.high_water
    );
}

/// One measured run's flight-recorder rollup as a single JSON line (for the
/// `--trace-out` JSONL export): the run's identity and outcome, then the
/// rollup members exactly as a cell's `"metrics"` object carries them.
pub(crate) fn run_trace_line(
    cell: usize,
    seed: u64,
    converged: bool,
    iterations: usize,
    modeled_seconds: f64,
    m: &MetricsRollup,
) -> String {
    let mut s = String::with_capacity(512);
    let _ = write!(
        s,
        "{{\"cell\": {cell}, \"seed\": {seed}, \"converged\": {converged}, \
         \"iterations\": {iterations}, \"modeled_seconds\": {}, ",
        fixed(modeled_seconds, 9),
    );
    write_rollup(&mut s, m);
    s.push('}');
    s
}

fn opt_summary(s: &Option<Summary>, precision: usize) -> String {
    match s {
        Some(s) => s.json(precision),
        None => "null".to_string(),
    }
}

impl CampaignReport {
    /// Renders the schema-versioned JSON artifact. Deterministic bytes for
    /// deterministic inputs (fixed precision, fixed key order, no host or
    /// wall-clock facts).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"schema\": \"{SCHEMA}\",");
        let _ = writeln!(s, "  \"planned_runs\": {},", self.planned_runs);
        let _ = writeln!(s, "  \"skipped_combos\": {},", self.skipped_combos);
        let _ = writeln!(s, "  \"dropped_runs\": {},", self.dropped_runs);
        s.push_str("  \"baselines\": [\n");
        for (i, b) in self.baselines.iter().enumerate() {
            let _ = writeln!(
                s,
                "    {{\"problem\": {}, \"n\": {}, \"n_ranks\": {}, \
                 \"variant\": {}, \"cost_model\": {}, \"t0_seconds\": {}, \
                 \"iterations\": {}}}{}",
                json::str(&b.problem),
                b.n,
                b.n_ranks,
                json::str(&b.variant),
                json::str(&b.cost_model),
                fixed(b.t0, 9),
                b.c,
                if i + 1 == self.baselines.len() {
                    ""
                } else {
                    ","
                }
            );
        }
        s.push_str("  ],\n");
        s.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let seeds = c
                .seeds
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            let errors = c
                .errors
                .iter()
                .map(|e| json::str(e).to_string())
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(
                s,
                "    {{\"problem\": {}, \"n_ranks\": {}, \"variant\": {}, \
                 \"cost_model\": {}, \"format\": {}, \"strategy\": {}, \
                 \"policy\": {}, \"phi\": {}, \"process\": {}, \"seeds\": [{}],",
                json::str(&c.problem),
                c.n_ranks,
                json::str(&c.variant),
                json::str(&c.cost_model),
                json::str(&c.format),
                json::str(&c.strategy),
                json::str(&c.policy),
                c.phi,
                json::str(&c.process),
                seeds
            );
            let _ = writeln!(
                s,
                "     \"runs\": {}, \"ok_runs\": {}, \"errors\": [{}], \
                 \"convergence_failures\": {},",
                c.runs, c.ok_runs, errors, c.convergence_failures
            );
            let _ = writeln!(
                s,
                "     \"events_scheduled\": {}, \"events_triggered\": {}, \
                 \"full_restarts\": {}, \"wasted_iterations\": {},",
                c.events_scheduled, c.events_triggered, c.full_restarts, c.wasted_iterations
            );
            let _ = writeln!(
                s,
                "     \"iterations\": {}, \"modeled_seconds\": {}, \
                 \"overhead\": {}, \"recovery_share\": {},",
                opt_summary(&c.iterations, 1),
                opt_summary(&c.modeled_time, 9),
                opt_summary(&c.overhead, 6),
                opt_summary(&c.recovery_share, 6),
            );
            s.push_str("     \"metrics\": {");
            write_rollup(&mut s, &c.metrics);
            s.push_str(if i + 1 == self.cells.len() {
                "}}\n"
            } else {
                "}},\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Renders the Markdown summary: one table row per cell, grouped under
    /// the baselines they are measured against.
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "# Campaign report ({SCHEMA})");
        let _ = writeln!(s);
        let _ = writeln!(
            s,
            "{} cells, {} measured runs ({} combos skipped, {} runs cut by budget).",
            self.cells.len(),
            self.planned_runs,
            self.skipped_combos,
            self.dropped_runs
        );
        let _ = writeln!(s);
        let _ = writeln!(s, "## Baselines (Strategy::None reference runs)");
        let _ = writeln!(s);
        let _ = writeln!(
            s,
            "| problem | n | ranks | variant | cost model | t0 (ms) | C |"
        );
        let _ = writeln!(s, "|---|---:|---:|---|---|---:|---:|");
        for b in &self.baselines {
            let _ = writeln!(
                s,
                "| {} | {} | {} | {} | {} | {} | {} |",
                b.problem,
                b.n,
                b.n_ranks,
                b.variant,
                b.cost_model,
                fixed(b.t0 * 1e3, 3),
                b.c
            );
        }
        let _ = writeln!(s);
        let _ = writeln!(s, "## Cells");
        let _ = writeln!(s);
        let _ = writeln!(
            s,
            "Overhead is `(t − t0)/t0` (modeled); recovery share is the \
             fraction of modeled time spent in recovery; both are medians \
             over the cell's runs with [min, max] ranges."
        );
        let _ = writeln!(s);
        let _ = writeln!(
            s,
            "| problem | ranks | variant | cost | format | strategy | policy | φ | process | runs | \
             events | overhead % | recovery % | wasted | restarts | fails |"
        );
        let _ = writeln!(
            s,
            "|---|---:|---|---|---|---|---|---:|---|---:|---:|---:|---:|---:|---:|---:|"
        );
        for c in &self.cells {
            let pct = |s: &Option<Summary>| match s {
                Some(s) => format!(
                    "{} [{}, {}]",
                    fixed(100.0 * s.median, 2),
                    fixed(100.0 * s.min, 2),
                    fixed(100.0 * s.max, 2)
                ),
                None => "-".to_string(),
            };
            let fails = c.convergence_failures + (c.runs - c.ok_runs);
            let _ = writeln!(
                s,
                "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {}/{} | {} | {} | {} | {} | {} |",
                c.problem,
                c.n_ranks,
                c.variant,
                c.cost_model,
                c.format,
                c.strategy,
                c.policy,
                c.phi,
                c.process,
                c.runs,
                c.events_triggered,
                c.events_scheduled,
                pct(&c.overhead),
                pct(&c.recovery_share),
                c.wasted_iterations,
                c.full_restarts,
                fails
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CampaignReport {
        CampaignReport {
            baselines: vec![BaselineReport {
                problem: "poisson2d-16x16".into(),
                n: 256,
                n_ranks: 4,
                variant: "pipelined".into(),
                cost_model: "default".into(),
                t0: 0.0012345,
                c: 100,
            }],
            cells: vec![CellReport {
                problem: "poisson2d-16x16".into(),
                n_ranks: 4,
                variant: "pipelined".into(),
                cost_model: "default".into(),
                format: "csr".into(),
                strategy: "esrp(T=10)".into(),
                policy: "fixed".into(),
                phi: 1,
                process: "exp(mtbf=30)".into(),
                seeds: vec![11, 17],
                runs: 2,
                ok_runs: 2,
                errors: Vec::new(),
                convergence_failures: 0,
                events_scheduled: 3,
                events_triggered: 3,
                full_restarts: 0,
                wasted_iterations: 12,
                iterations: Summary::of(&[100.0, 100.0]),
                modeled_time: Summary::of(&[0.0013, 0.0014]),
                overhead: Summary::of(&[0.05, 0.13]),
                recovery_share: Summary::of(&[0.02, 0.03]),
                metrics: MetricsRollup {
                    iterations: 200,
                    reductions: 400,
                    recovery_spans: 3,
                    recovery_seconds: 0.0000625,
                    failures: 3,
                    checkpoint_rounds: 20,
                    ..MetricsRollup::default()
                },
            }],
            planned_runs: 2,
            skipped_combos: 0,
            dropped_runs: 0,
            run_traces: vec![run_trace_line(
                0,
                11,
                true,
                100,
                0.0013,
                &MetricsRollup {
                    iterations: 100,
                    reductions: 200,
                    ..MetricsRollup::default()
                },
            )],
        }
    }

    #[test]
    fn summary_statistics() {
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.min, s.median, s.max), (1.0, 2.0, 3.0));
        let e = Summary::of(&[4.0, 1.0]).unwrap();
        assert_eq!(e.median, 2.5, "even counts average the midpoints");
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn json_is_schema_versioned_and_stable() {
        let r = sample();
        let a = r.to_json();
        let b = r.to_json();
        assert_eq!(a, b, "rendering is pure");
        assert!(a.contains("\"schema\": \"esrcg-campaign-v7\""));
        assert!(a.contains("\"cost_model\": \"default\""));
        assert!(a.contains("\"format\": \"csr\""));
        assert!(a.contains("\"policy\": \"fixed\""));
        assert!(a.contains("\"t0_seconds\": 0.001234500"));
        assert!(a.contains("\"overhead\": {\"min\": 0.050000"));
        assert!(a.contains("\"process\": \"exp(mtbf=30)\""));
        assert!(a.contains("\"variant\": \"pipelined\""));
        // The per-cell flight-recorder rollup rides along.
        assert!(a.contains("\"metrics\": {"));
        assert!(a.contains("\"reductions\": 400"));
        assert!(a.contains("\"recovery_seconds\": 0.000062500"));
    }

    #[test]
    fn run_trace_lines_are_single_line_json() {
        let r = sample();
        assert_eq!(r.run_traces.len(), 1);
        let line = &r.run_traces[0];
        assert!(!line.contains('\n'), "JSONL lines must be single-line");
        assert!(line.starts_with("{\"cell\": 0, \"seed\": 11, \"converged\": true"));
        assert!(line.contains("\"loop_trips\": 100"));
        assert!(line.contains("\"reductions\": 200"));
        assert!(line.contains("\"buffer_pool\": {\"takes\": 0"));
        assert!(line.ends_with('}'));
    }

    #[test]
    fn a_cells_metrics_and_a_run_line_render_the_rollup_with_the_same_bytes() {
        let mut r = sample();
        let m = &mut r.cells[0].metrics;
        m.phase_spans[Phase::SpMV as usize] = 8;
        m.phase_seconds[Phase::SpMV as usize] = 0.25;
        m.phase_spans[Phase::RecoveryInner as usize] = 3;
        m.phase_seconds[Phase::RecoveryInner as usize] = -0.0;
        m.buffer_pool.takes = 9;
        m.buffer_pool.hits = 7;
        let mut rollup = String::new();
        write_rollup(&mut rollup, m);
        assert!(!rollup.contains('\n'));
        assert!(rollup.starts_with("\"loop_trips\": 200, \"reductions\": 400, "));
        assert!(rollup.contains(
            "\"phases\": [{\"phase\": \"spmv\", \"spans\": 8, \"seconds\": 0.250000000}, \
             {\"phase\": \"recovery-inner\", \"spans\": 3, \"seconds\": 0.000000000}], "
        ));
        assert!(rollup.ends_with("\"misses\": 2, \"recycles\": 0, \"high_water\": 0}"));
        let line = run_trace_line(0, 11, true, 100, 0.0013, m);
        assert!(line.ends_with(&format!("\"modeled_seconds\": 0.001300000, {rollup}}}")));
        let js = r.to_json();
        assert!(js.contains(&format!("     \"metrics\": {{{rollup}}}}}\n  ]\n")));
    }

    #[test]
    fn json_escapes_strings() {
        let mut r = sample();
        r.cells[0].errors = vec!["seed 11: \"x\" \\ failed\n".into()];
        let js = r.to_json();
        assert!(js.contains("\"errors\": [\"seed 11: \\\"x\\\" \\\\ failed\\n\"]"));
    }

    #[test]
    fn skip_and_drop_accounting_survives_into_both_renderings() {
        let mut r = sample();
        r.skipped_combos = 7;
        r.dropped_runs = 3;
        let md = r.to_markdown();
        assert!(
            md.contains("(7 combos skipped, 3 runs cut by budget)"),
            "{md}"
        );
        let js = r.to_json();
        assert!(js.contains("\"skipped_combos\": 7"));
        assert!(js.contains("\"dropped_runs\": 3"));
    }

    #[test]
    fn markdown_carries_the_cell_rows() {
        let md = sample().to_markdown();
        assert!(md.contains(
            "| poisson2d-16x16 | 4 | pipelined | default | csr | esrp(T=10) | fixed | 1 \
             | exp(mtbf=30) | 2 | 3/3 |"
        ));
        assert!(md.contains("## Baselines"));
        assert!(md.contains("9.00 [5.00, 13.00]"), "{md}");
    }
}
