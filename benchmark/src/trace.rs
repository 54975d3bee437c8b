//! The traced run (`--trace 1`): the layer probes, then the workload's own
//! pass repeated with the flight recorder at `TraceConfig::Spans` and a
//! harness span around every call into a layer.
//!
//! End-to-end metrics never come from here. The exact per-layer numbers are
//! folded from the program's own modeled-clock `RankStats` and
//! `MetricsRollup`; the host shares come from the untraced passes of this
//! run; `cluster.trace_overhead_pct` is the traced pass over the untraced
//! one. The spans are written as Chrome trace-event JSON when the run ends.

use std::fs;
use std::path::Path;
use std::time::Instant;

use esrcg_cluster::{Phase, TraceConfig};

use crate::host::Usage;
use crate::names::PER_LAYER;
use crate::probes;
use crate::report::{MetricSet, Outcome};
use crate::spans::Spans;
use crate::stats;
use crate::workloads::{PassSummary, Workload};

/// Set-up calls and untraced/traced pass pairs of a traced run.
const SETUP_CALLS: usize = 5;
const PASS_PAIRS: usize = 2;

/// Modeled time of one labelled solve over another's; `None` when the
/// workload runs neither (the metric then belongs to another workload and
/// reads 0 here).
fn ratio(pass: &PassSummary, label: &str, base: &str) -> Option<f64> {
    Some(pass.case(label)?.modeled_s / pass.case(base)?.modeled_s)
}

/// The classic failure-free ESRP run of `rank-bound`, which its pipelined and
/// s-step runs (`<label>.pipelined`, `<label>.sstep4`) are measured against.
const VARIANT_BASE: &str = "esrp20.phi3.ff";

/// The strategies whose φ = 1 failure-free run (`<strategy>.phi1.ff`) gives a
/// `solver.failure_free_overhead_pct.*` against `reference`.
const FAILURE_FREE: [&str; 4] = ["esr", "esrp20", "esrp50", "imcr20"];

/// Runs the traced protocol on `w` and writes `<dir>/<workload>.trace.json`.
///
/// # Errors
/// Returns set-up, driver and I/O errors; a wrong answer is a failed op in
/// the outcome, not an error.
pub fn trace(w: &Workload, seed: u64, dir: &Path) -> Result<Outcome, String> {
    let mut m = MetricSet::new(&PER_LAYER);
    let mut spans = Spans::on(w.name);

    // (a) Layer probes.
    probes::kernels(&mut m, &mut spans)?;
    probes::runtime(&mut m, &mut spans)?;
    let (mut attempted, mut failed, mut complaints) = probes::recovery(&mut m, seed, &mut spans)?;
    probes::campaign(&mut m, seed, &mut spans)?;

    // (b) The workload itself: set-up under spans, a warm-up pass, then
    // untraced and traced passes in turn.
    let mut assemble_s = Vec::with_capacity(SETUP_CALLS);
    let mut products = None;
    for _ in 0..SETUP_CALLS {
        drop(products.take());
        let before = spans.seconds_of("driver:assemble");
        products = Some(spans.scope("setup", |s| w.setup(s))?);
        assemble_s.push(spans.seconds_of("driver:assemble") - before);
    }
    let products = products.expect("the set-up loop ran");
    m.put_reps("driver.assemble_s", stats::median(&assemble_s), assemble_s);
    let (mut interior, mut rows, mut halo_entries) = (0usize, 0usize, 0usize);
    for p in &products.assembled {
        interior += p.row_split.total_interior();
        rows += p.row_split.total_interior() + p.row_split.total_boundary();
        halo_entries += p.plan.total_traffic();
    }
    m.put("dist.interior_row_share", interior as f64 / rows as f64);
    m.put(
        "dist.halo_bytes_per_iter",
        8.0 * halo_entries as f64 / products.assembled.len() as f64,
    );
    let matrices = products.matrices;

    let warm_up = w.pass(&matrices, TraceConfig::Off, &mut Spans::off())?;
    attempted += warm_up.ops;
    failed += warm_up.failed;
    complaints.extend(warm_up.complaints.iter().cloned());
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut usage = Usage::default();
    for _ in 0..PASS_PAIRS {
        let (before, t) = (Usage::now(), Instant::now());
        let mut plain = w.pass(&matrices, TraceConfig::Off, &mut Spans::off())?;
        untraced.push(t.elapsed().as_secs_f64());
        let spent = Usage::now().since(&before);
        usage.user_s += spent.user_s;
        usage.sys_s += spent.sys_s;
        usage.ctx_switches += spent.ctx_switches;

        let t = Instant::now();
        let mut recorded = w.pass(&matrices, TraceConfig::Spans, &mut spans)?;
        traced.push(t.elapsed().as_secs_f64());
        for pass in [&mut plain, &mut recorded] {
            pass.check_against(&warm_up);
            attempted += pass.ops;
            failed += pass.failed;
            complaints.append(&mut pass.complaints);
        }
    }

    let pairs = PASS_PAIRS as f64;
    let (wall, wall_traced) = (stats::min(&untraced), stats::min(&traced));
    m.put(
        "cluster.trace_overhead_pct",
        100.0 * (wall_traced - wall) / wall,
    );
    m.put("cluster.sys_cpu_share", usage.sys_s / usage.cpu_s());
    m.put("cluster.cpu_s_per_pass", usage.cpu_s() / pairs);
    m.put(
        "cluster.ctx_switches_per_rank_iter",
        usage.ctx_switches as f64 / (pairs * warm_up.rank_trips as f64),
    );
    m.put(
        "solver.host_us_per_rank_iter",
        wall / warm_up.rank_trips as f64 * 1e6,
    );

    // Exact numbers, from the warm-up pass (every pass reproduced them).
    let p = &warm_up;
    let trips = p.loop_trips as f64;
    let modeled_rank_seconds: f64 = p.phase_seconds.iter().sum();
    m.put(
        "cluster.recv_wait_share",
        p.recv_wait_s / modeled_rank_seconds,
    );
    m.put("cluster.msgs_per_iter", p.msgs as f64 / trips);
    m.put("cluster.bytes_per_iter", p.bytes as f64 / trips);
    m.put(
        "cluster.bufpool_hit_rate",
        p.pool.hits as f64 / p.pool.takes as f64,
    );
    m.put("solver.iterations", trips);
    m.put("solver.modeled_us_per_iter", p.modeled_s / trips * 1e6);
    for (name, phase) in [
        ("spmv", Phase::SpMV),
        ("reduction", Phase::Reduction),
        ("precond", Phase::Precond),
        ("vecops", Phase::VecOps),
        ("storage", Phase::Storage),
        ("checkpoint", Phase::Checkpoint),
    ] {
        m.put(&format!("solver.phase_share.{name}"), p.phase_share(phase));
    }
    for variant in ["pipelined", "sstep4"] {
        m.put(
            &format!("solver.{variant}_vs_classic"),
            ratio(p, &format!("{VARIANT_BASE}.{variant}"), VARIANT_BASE).unwrap_or(0.0),
        );
    }
    for strategy in FAILURE_FREE {
        m.put(
            &format!("solver.failure_free_overhead_pct.{strategy}"),
            ratio(p, &format!("{strategy}.phi1.ff"), "reference")
                .map_or(0.0, |r| 100.0 * (r - 1.0)),
        );
    }
    m.put("solver.residual_drift_max", p.residual_drift_max);
    m.put(
        "recovery.modeled_share_pct",
        100.0 * p.recovery_s / p.modeled_s,
    );

    let path = dir.join(format!("{}.trace.json", w.name));
    fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    fs::write(&path, spans.to_chrome_trace().to_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "{} harness spans written to {}",
        spans.len(),
        path.display()
    );
    println!(
        "{:<36} {:>6} {:>12} {:>12}",
        "span", "count", "total s", "self s"
    );
    for (name, count, total, own) in spans.by_name() {
        println!("{name:<36} {count:>6} {total:>12.6} {own:>12.6}");
    }

    Ok(Outcome {
        workload: w.name.to_string(),
        seed,
        mode: "layers",
        attempted,
        failed,
        complaints,
        metrics: m.finish()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Plan;

    /// The pass-derived ratios look solves up by label; a label that drifted
    /// apart from the workload definitions would silently read 0.
    #[test]
    fn every_label_the_ratios_look_up_is_a_case_of_its_workload() {
        let labels = |workload: &str| match Workload::new(workload, 7).unwrap().plan {
            Plan::Solves { cases, .. } => cases.into_iter().map(|c| c.label).collect::<Vec<_>>(),
            Plan::Fleet(_) => unreachable!("{workload} is a list of solves"),
        };
        let rank_bound = labels("rank-bound");
        for wanted in [
            VARIANT_BASE.to_string(),
            format!("{VARIANT_BASE}.pipelined"),
            format!("{VARIANT_BASE}.sstep4"),
        ] {
            assert!(rank_bound.contains(&wanted), "rank-bound lacks {wanted}");
        }
        let paper_grid = labels("paper-grid");
        assert!(paper_grid.contains(&"reference".to_string()));
        for strategy in FAILURE_FREE {
            let wanted = format!("{strategy}.phi1.ff");
            assert!(paper_grid.contains(&wanted), "paper-grid lacks {wanted}");
        }
    }
}
