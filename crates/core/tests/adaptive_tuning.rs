//! Adaptive checkpoint-interval tuning: the Daly/Young re-tuning loop
//! (`Strategy::auto`) observed end to end through `Experiment`.
//!
//! The tuner is deliberately conservative: it needs **two** observed
//! failures before it has an MTBF estimate, and all of its inputs are
//! replicated values (the shared failure schedule, the synchronized
//! modeled clock, an allreduced mean checkpoint cost), so
//!
//! * a run with fewer than two failures is **bitwise identical** to the
//!   fixed-interval run — no extra collectives, no re-anchoring,
//! * once it does fire, the proposed interval is always finite and within
//!   the configured clamp — never 0, never ∞ — whatever the phase timings
//!   look like,
//! * the same machinery works under both PCG variants (classic and
//!   pipelined) and both protection protocols (ESRP storage stages, IMCR
//!   buddy checkpoints).

use esrcg_core::driver::{Experiment, MatrixSource, RunReport};
use esrcg_core::solver::PcgVariant;
use esrcg_core::{IntervalPolicy, Strategy};

fn poisson() -> MatrixSource {
    MatrixSource::Poisson2d { nx: 16, ny: 16 }
}

/// Reference iteration count C of the failure-free baseline.
fn reference_c(variant: PcgVariant) -> usize {
    let report = Experiment::builder()
        .matrix(poisson())
        .n_ranks(4)
        .variant(variant)
        .run()
        .expect("reference run");
    assert!(report.converged);
    report.iterations
}

/// The tuner's clamp `[1, max_t]`.
fn adaptive(max_t: usize) -> IntervalPolicy {
    IntervalPolicy::Adaptive { min_t: 1, max_t }
}

fn run_with(
    strategy: Strategy,
    policy: IntervalPolicy,
    variant: PcgVariant,
    failures: &[(usize, usize, usize)],
) -> RunReport {
    let mut b = Experiment::builder()
        .matrix(poisson())
        .n_ranks(4)
        .variant(variant)
        .strategy(strategy)
        .interval_policy(policy)
        .phi(1);
    for &(at, start, count) in failures {
        b = b.failure_at(at, start, count);
    }
    let report = b.run().expect("experiment runs");
    assert!(report.converged, "{strategy} {policy} under {variant:?}");
    report
}

fn bitwise_equal(a: &RunReport, b: &RunReport) {
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(a.total_loop_trips, b.total_loop_trips);
    assert_eq!(
        a.modeled_time.to_bits(),
        b.modeled_time.to_bits(),
        "modeled clocks diverged"
    );
    assert_eq!(a.x.len(), b.x.len());
    for (i, (xa, xb)) in a.x.iter().zip(&b.x).enumerate() {
        assert_eq!(xa.to_bits(), xb.to_bits(), "x[{i}] diverged");
    }
}

#[test]
fn fewer_than_two_failures_is_bitwise_identical_to_fixed() {
    for (strategy, max_t) in [(Strategy::Esrp { t: 5 }, 40), (Strategy::Imcr { t: 4 }, 32)] {
        let c = reference_c(PcgVariant::Classic);
        // Zero failures: the tuner never runs at all.
        let fixed = run_with(strategy, IntervalPolicy::Fixed, PcgVariant::Classic, &[]);
        let auto = run_with(strategy, adaptive(max_t), PcgVariant::Classic, &[]);
        assert!(auto.tuning.is_empty(), "no failure, no tuning event");
        bitwise_equal(&fixed, &auto);

        // One failure: the tuner observes it but has no MTBF estimate yet,
        // so it must not touch the schedule or the modeled clock.
        let jf = c / 2;
        let one = [(jf, 0, 1)];
        let fixed = run_with(strategy, IntervalPolicy::Fixed, PcgVariant::Classic, &one);
        let auto = run_with(strategy, adaptive(max_t), PcgVariant::Classic, &one);
        assert!(fixed.tuning.is_empty(), "fixed policy emits no tune events");
        assert_eq!(auto.tuning.len(), 1, "one event per recovery");
        let ev = &auto.tuning[0];
        assert_eq!(ev.failed_at, jf);
        assert_eq!(ev.mtbf_iters, None, "a single sample is not an estimate");
        assert_eq!(
            ev.interval_after, ev.interval_before,
            "configured T stands until two failures have been seen"
        );
        bitwise_equal(&fixed, &auto);
    }
}

#[test]
fn tuner_never_emits_degenerate_intervals() {
    for (strategy, max_t) in [(Strategy::Esrp { t: 5 }, 40), (Strategy::Imcr { t: 4 }, 32)] {
        let c = reference_c(PcgVariant::Classic);
        assert!(c >= 30, "test problem must run long enough, C = {c}");
        let failures = [(c / 4, 0, 1), (c / 2, 1, 1), (3 * c / 4, 2, 1)];
        let auto = run_with(strategy, adaptive(max_t), PcgVariant::Classic, &failures);
        assert_eq!(auto.recoveries.len(), 3);
        assert_eq!(auto.tuning.len(), 3, "one tuning event per recovery");
        for (k, ev) in auto.tuning.iter().enumerate() {
            assert!(
                ev.interval_before >= 1 && ev.interval_after >= 1,
                "event {k}: interval must never collapse to 0: {ev:?}"
            );
            assert!(
                ev.interval_after <= max_t,
                "event {k}: interval must respect the clamp: {ev:?}"
            );
            if let Some(m) = ev.mtbf_iters {
                assert!(m.is_finite() && m > 0.0, "event {k}: bad MTBF {m}");
            }
            if k == 0 {
                assert_eq!(ev.mtbf_iters, None, "first failure carries no estimate");
            } else {
                assert!(ev.mtbf_iters.is_some(), "event {k} has two+ samples");
            }
        }
        // From the second failure on the Daly optimum for this dense
        // failure stream is far below the paper-scale T, so the tuner
        // must actually move.
        assert!(
            auto.tuning[1..]
                .iter()
                .any(|ev| ev.interval_after != ev.interval_before),
            "{strategy}: dense failures never re-tuned T: {:?}",
            auto.tuning
        );
        // The trajectory survives every re-anchored recovery.
        assert_eq!(auto.iterations, c, "{strategy}: trajectory preserved");
    }
}

#[test]
fn retuning_works_under_both_pcg_variants() {
    for variant in [PcgVariant::Classic, PcgVariant::Pipelined] {
        let c = reference_c(variant);
        let failures = [(c / 3, 0, 1), (2 * c / 3, 2, 1)];
        let auto = run_with(Strategy::Esrp { t: 6 }, adaptive(48), variant, &failures);
        assert_eq!(auto.recoveries.len(), 2, "{variant:?}");
        assert_eq!(auto.tuning.len(), 2, "{variant:?}");
        assert!(
            auto.tuning[1].mtbf_iters.is_some(),
            "{variant:?}: second failure yields an MTBF estimate"
        );
        assert_eq!(auto.iterations, c, "{variant:?}: trajectory preserved");
    }
}

#[test]
fn explicit_bounds_clamp_the_proposal() {
    let c = reference_c(PcgVariant::Classic);
    let failures = [(c / 4, 0, 1), (c / 2, 1, 1)];
    // A floor above any plausible Daly optimum for this failure density:
    // the proposal must be clamped up to min_t, not below it.
    let auto = run_with(
        Strategy::Esrp { t: 12 },
        IntervalPolicy::Adaptive {
            min_t: 10,
            max_t: 20,
        },
        PcgVariant::Classic,
        &failures,
    );
    for ev in &auto.tuning {
        assert!(
            (10..=20).contains(&ev.interval_after),
            "clamp violated: {ev:?}"
        );
    }
    assert_eq!(auto.iterations, c);
}
