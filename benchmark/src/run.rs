//! The measured run (`--trace 0`): set-up loop → one untimed warm-up pass →
//! timed passes for `--seconds`, all in one process, flight recorder off.
//!
//! `wall_s` is the median of the timed passes and `setup_s` the median of
//! the set-up loop, so one slow pass or call (a scheduler hiccup on a
//! shared 2-core host) does not move the reported number. The modeled
//! numbers come from the warm-up pass, and every timed pass must reproduce
//! them bit for bit or its ops count as failed.

use std::time::Instant;

use esrcg_cluster::TraceConfig;

use crate::host::Usage;
use crate::names::END_TO_END;
use crate::report::{MetricSet, Outcome};
use crate::spans::Spans;
use crate::stats;
use crate::workloads::Workload;

/// Timed passes a run makes at least, however short `--seconds` is: a
/// median needs a middle.
const MIN_PASSES: usize = 3;

/// Runs the measured protocol on `w`.
///
/// # Errors
/// Returns set-up and driver errors; a wrong answer is a failed op in the
/// outcome, not an error.
pub fn measure(w: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut setup_times = Vec::with_capacity(w.setup_calls);
    let mut products = None;
    for _ in 0..w.setup_calls {
        // Drop the previous call's products outside the timed window.
        drop(products.take());
        let t = Instant::now();
        let p = w.setup(&mut Spans::off())?;
        setup_times.push(t.elapsed().as_secs_f64());
        products = Some(p);
    }
    let matrices = products.expect("the set-up loop ran").matrices;

    let warm_up = w.pass(&matrices, TraceConfig::Off, &mut Spans::off())?;
    for c in &warm_up.cases {
        println!(
            "solve {:<28} {:>6} iterations {:>14.9} modeled s",
            c.label, c.iterations, c.modeled_s
        );
    }
    let (mut attempted, mut failed) = (warm_up.ops, warm_up.failed);
    let mut complaints = warm_up.complaints.clone();

    let mut walls = Vec::new();
    let started = Instant::now();
    while walls.len() < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let mut pass = w.pass(&matrices, TraceConfig::Off, &mut Spans::off())?;
        walls.push(t.elapsed().as_secs_f64());
        pass.check_against(&warm_up);
        attempted += pass.ops;
        failed += pass.failed;
        complaints.extend(pass.complaints);
    }

    let mut metrics = MetricSet::new(&END_TO_END);
    metrics.put_reps("wall_s", stats::median(&walls), walls);
    metrics.put_reps("setup_s", stats::median(&setup_times), setup_times);
    metrics.put("peak_rss_mb", Usage::now().peak_rss_mib);
    metrics.put("modeled_s", warm_up.modeled_s);
    metrics.put("overhead_pct", warm_up.overhead_pct);
    Ok(Outcome {
        workload: w.name.to_string(),
        seed,
        mode: "run",
        attempted,
        failed,
        complaints,
        metrics: metrics.finish()?,
    })
}
