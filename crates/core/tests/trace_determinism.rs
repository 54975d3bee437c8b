//! Flight-recorder determinism: the merged trace is a pure function of the
//! modeled execution, so its rendered JSON must be byte-identical across
//! kernel thread counts — and switching the recorder off must not perturb
//! a single bit of the run itself.
//!
//! The probe run is deliberately the nastiest case the recorder covers: an
//! s-step solve with a failure injected *mid-block* under ESRP, so the trace
//! contains a full trigger → reconstruct → reset recovery window plus the
//! re-executed block.

use esrcg_cluster::{validate_trace_json, TraceConfig, TraceEvent};
use esrcg_core::driver::{Experiment, MatrixSource, RhsSpec};
use esrcg_core::solver::PcgVariant;
use esrcg_core::{RunReport, Strategy};
use esrcg_sparse::KernelBackend;

/// The probe: s-step ESRP with a mid-block failure (21 is not a multiple of
/// s = 4, so the rollback crosses a window boundary).
fn probe(threads: usize, trace: TraceConfig) -> RunReport {
    Experiment::builder()
        .matrix(MatrixSource::Poisson2d { nx: 24, ny: 24 })
        .rhs(RhsSpec::Random { seed: 42 })
        .n_ranks(4)
        .backend(KernelBackend::parallel(threads))
        .variant(PcgVariant::SStep { s: 4 })
        .strategy(Strategy::Esrp { t: 5 })
        .phi(1)
        .failure_at(21, 0, 1)
        .trace(trace)
        .run()
        .expect("probe run")
}

#[test]
fn full_trace_is_byte_identical_across_threads() {
    let reference = probe(1, TraceConfig::Full);
    assert!(reference.converged);
    assert!(
        !reference.recoveries.is_empty(),
        "the failure was processed"
    );
    let trace = reference.trace.as_ref().expect("Full records a trace");
    trace.validate().expect("every interval is phase-covered");
    trace
        .validate_recovery_attribution()
        .expect("no compute phases leak into the recovery window");
    let json = reference.trace_json().expect("Perfetto render");
    validate_trace_json(&json).expect("structurally valid trace-event JSON");

    for &threads in &[2usize, 8] {
        let report = probe(threads, TraceConfig::Full);
        assert_eq!(
            json,
            report.trace_json().unwrap(),
            "{threads} kernel threads: merged trace JSON must be byte-identical"
        );
    }
}

/// The acceptance criterion from the paper harness: the trace's recovery
/// spans sum — folded in event order, exactly like the report folds its
/// per-event `recovery_time`s — bitwise to the reported recovery modeled
/// time, and the metrics rollup carries the same number.
#[test]
fn recovery_spans_sum_bitwise_to_reported_recovery_time() {
    let report = probe(1, TraceConfig::Spans);
    let trace = report.trace.as_ref().expect("Spans records a trace");
    let reported = report.recovery_seconds();
    assert!(reported > 0.0);
    assert_eq!(
        trace.recovery_seconds().to_bits(),
        reported.to_bits(),
        "trace recovery spans vs RunReport recovery time"
    );
    let metrics = report.metrics().expect("rollup present");
    assert_eq!(metrics.recovery_seconds.to_bits(), reported.to_bits());
    assert_eq!(metrics.recovery_spans as usize, report.recoveries.len());
    assert_eq!(metrics.failures as usize, report.recoveries.len());
    assert!(metrics.iterations > 0);
    assert!(metrics.reductions > 0);
}

/// `Spans` and `Full` must agree on everything `Spans` records: the span
/// and instant stream is independent of whether message events are
/// interleaved.
#[test]
fn spans_are_a_prefix_filter_of_full() {
    let spans = probe(1, TraceConfig::Spans);
    let full = probe(1, TraceConfig::Full);
    let ms = spans.metrics().unwrap();
    let mf = full.metrics().unwrap();
    assert_eq!(ms.phase_spans, mf.phase_spans);
    assert_eq!(ms.iterations, mf.iterations);
    assert_eq!(ms.recovery_spans, mf.recovery_spans);
    for (a, b) in ms.phase_seconds.iter().zip(mf.phase_seconds.iter()) {
        assert_eq!(a.to_bits(), b.to_bits(), "phase seconds agree bitwise");
    }
    // (sends, receives) recorded across all ranks.
    let messages = |r: &RunReport| {
        let mut n = (0, 0);
        for ev in r
            .trace
            .iter()
            .flat_map(|t| &t.ranks)
            .flat_map(|rt| &rt.events)
        {
            match ev {
                TraceEvent::Send { .. } => n.0 += 1,
                TraceEvent::Recv { .. } => n.1 += 1,
                _ => {}
            }
        }
        n
    };
    assert_eq!(messages(&spans), (0, 0), "Spans records no message events");
    let (sends, recvs) = messages(&full);
    assert!(sends > 0 && recvs > 0, "Full records message events");
}

/// `TraceConfig::Off` is a branch-only no-op: the run's trajectory, modeled
/// clock, and solution are bitwise identical to a traced run, and no trace
/// or rollup is materialized.
#[test]
fn off_recorder_is_bitwise_zero_overhead() {
    let off = probe(1, TraceConfig::Off);
    let full = probe(1, TraceConfig::Full);
    assert!(off.trace.is_none());
    assert!(off.metrics().is_none());
    assert_eq!(off.iterations, full.iterations);
    assert_eq!(off.total_loop_trips, full.total_loop_trips);
    assert_eq!(off.modeled_time.to_bits(), full.modeled_time.to_bits());
    assert_eq!(off.final_relres.to_bits(), full.final_relres.to_bits());
    for (i, (a, b)) in off.x.iter().zip(full.x.iter()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "x[{i}] bitwise");
    }
    // The default builder is Off: a plain run matches the explicit one.
    let default_run = Experiment::builder()
        .matrix(MatrixSource::Poisson2d { nx: 24, ny: 24 })
        .rhs(RhsSpec::Random { seed: 42 })
        .n_ranks(4)
        .variant(PcgVariant::SStep { s: 4 })
        .strategy(Strategy::Esrp { t: 5 })
        .phi(1)
        .failure_at(21, 0, 1)
        .run()
        .unwrap();
    assert!(default_run.trace.is_none());
    assert_eq!(
        default_run.modeled_time.to_bits(),
        off.modeled_time.to_bits()
    );
}

/// Buffer-pool counters surface in every report (recorder or not), and the
/// rollup absorbs the per-rank counters.
#[test]
fn buffer_pool_counters_surface_in_the_report() {
    let report = probe(1, TraceConfig::Spans);
    assert_eq!(
        report.per_rank_buffer_stats.len(),
        report.per_rank_stats.len()
    );
    let total = &report.buffer_stats_total;
    assert!(total.takes > 0, "steady-state traffic takes buffers");
    assert!(total.hits > 0, "the pool recycles");
    assert_eq!(total.misses(), total.takes - total.hits);
    let metrics = report.metrics().unwrap();
    assert_eq!(metrics.buffer_pool.takes, total.takes);
    assert_eq!(metrics.buffer_pool.recycles, total.recycles);
    assert_eq!(metrics.buffer_pool.high_water, total.high_water);
    // Off still reports the counters — they live in the pool, not the
    // recorder.
    let off = probe(1, TraceConfig::Off);
    assert_eq!(off.buffer_stats_total.takes, total.takes);
}
