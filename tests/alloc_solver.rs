//! The solver's steady state allocates nothing: once the redundancy queue's
//! three slots, the starred copies / own checkpoint, and the per-rank buffer
//! pools have reached their working size, an iteration — storage stages and
//! checkpoint rounds included — costs zero heap allocations. So a
//! failure-free run capped at 119 iterations allocates exactly as often as
//! one capped at 80, for every strategy × recurrence. (80 is past the two
//! storage stages / checkpoint rounds of T = 20 that fill the queue; the
//! probe converges at 119.)
//!
//! A recovery event does allocate — gather buffers, the failure domain's
//! column-split operators — but a bounded number of times that does not
//! depend on the outer SpMV's storage format, and a second event in the
//! same failure domain reuses what the first one built (each event
//! allocates no more than a pinned count; a deferred event's count
//! includes the end solve).
//! The inner reconstruction solve's loop allocates nothing: an event whose
//! inner solve runs more iterations (`RecoveryRule::Paper` against
//! `RecoveryRule::Extended`) allocates exactly as often.
//!
//! One test per binary on purpose: the counter is process-wide.

mod counting_alloc;

use std::sync::Arc;

use esrcg::cluster::run_spmd;
use esrcg::core::solver::{solve_node, RecoveryRule, SharedProblem, SolverConfig};
use esrcg::prelude::*;
use esrcg::sparse::gen::poisson2d;
use esrcg::sparse::SpmvFormat;

/// The probe: Poisson2d 64², 8 ranks (converges at iteration 119).
fn probe() -> Experiment {
    Experiment::builder()
        .matrix(MatrixSource::Poisson2d { nx: 64, ny: 64 })
        .n_ranks(8)
}

/// Heap allocations of one whole run of `exp`, and its report.
fn counted(exp: Experiment) -> (u64, RunReport) {
    let before = counting_alloc::allocations();
    let report = exp.run().expect("probe run");
    (counting_alloc::allocations() - before, report)
}

/// Allocations of one whole failure-free solve of the probe at φ = 1,
/// stopped after `max_iters` iterations.
fn allocations_of(strategy: Strategy, variant: PcgVariant, max_iters: usize) -> u64 {
    let phi = usize::from(strategy != Strategy::None);
    let exp = probe()
        .strategy(strategy)
        .phi(phi)
        .variant(variant)
        .max_iters(max_iters);
    let (allocations, report) = counted(exp);
    assert!(report.iterations >= 80, "ran past the warm-up");
    allocations
}

/// Allocations of one whole ESRP(20) solve of the probe at φ = `psi` under
/// `format` in which ranks 3 … 3 + ψ − 1 fail at each of the `failures`
/// iterations.
fn allocations_with_failures(format: SpmvFormat, psi: usize, failures: &[usize]) -> u64 {
    let mut exp = probe()
        .strategy(Strategy::Esrp { t: 20 })
        .phi(psi)
        .spmv_format(format);
    for &at in failures {
        exp = exp.failure_at(at, 3, psi);
    }
    let (allocations, report) = counted(exp);
    assert_eq!(report.recoveries.len(), failures.len());
    allocations
}

/// Allocations of one ESR solve of the probe at φ = 1 in which rank 3 fails
/// at iteration 50, with its `x` reconstructed by `rule` — at once under
/// both rules, since nothing is pending — and the replacement's inner
/// iteration count. Assembly is not counted.
fn esr_event_under(rule: RecoveryRule) -> (u64, usize) {
    let a = poisson2d(64, 64);
    let n = a.nrows();
    let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.137).sin() + 0.5).collect();
    let b = a.spmv(&x_true);
    let mut cfg = SolverConfig::new(Strategy::esr(), 1);
    cfg.recovery_rule = rule;
    cfg.failures = vec![FailureSpec::contiguous(50, 3, 1, 8)];
    let pre = PrecondSpec::paper_default();
    let shared =
        SharedProblem::assemble_shared(Arc::new(a), b, vec![0.0; n], 8, pre, cfg).expect("probe");
    let before = counting_alloc::allocations();
    let out = run_spmd(8, CostModel::default(), |ctx| solve_node(ctx, &shared));
    let allocations = counting_alloc::allocations() - before;
    assert!(out.results.iter().all(|o| o.converged));
    (allocations, out.results[3].recoveries[0].inner_iterations)
}

#[test]
fn iterations_past_the_warm_up_add_no_allocation() {
    allocations_of(Strategy::None, PcgVariant::Classic, 80); // one-time lookups
    for strategy in [
        Strategy::None,
        Strategy::esr(),
        Strategy::Esrp { t: 20 },
        Strategy::Imcr { t: 20 },
    ] {
        for variant in [
            PcgVariant::Classic,
            PcgVariant::Pipelined,
            PcgVariant::SStep { s: 4 },
        ] {
            let short = allocations_of(strategy, variant, 80);
            let long = allocations_of(strategy, variant, 119);
            assert_eq!(
                short,
                long,
                "{strategy} {}: 80 iterations allocated {short} times, 119 iterations {long}",
                variant.name()
            );
        }
    }

    // Whole-run counts wobble by ± 1 between identical runs, hence the slack.
    let run = allocations_with_failures;
    let csr = SpmvFormat::Csr;
    // Allocations of a first event and of a second one in the same failure
    // domain. ψ = 2 sends the inner solve's reductions between the
    // replacements, whose pooled copies must circulate too.
    let events = |psi: usize| {
        let none = run(csr, psi, &[]);
        let one = run(csr, psi, &[50]);
        (one - none, run(csr, psi, &[50, 95]) - one)
    };
    let (csr_first, csr_second) = events(1);
    let (pair_first, pair_second) = events(2);
    // Both events are pinned at their counts with the queue storing values
    // and one slice per source (with `(index, value)` pairs they were
    // 125 / 23 at ψ = 1 and 242 / 50 at ψ = 2); a change may only lower
    // them. A ψ = 2 event defers its `x` to the end solve, which the first
    // event's count carries: its `x` halo round and the component (206 / 26
    // when each event solved at once). The inner rounds gather into the
    // node's own full-length vector and sum their partials in place (110 /
    // 13 and 217 / 22 with a second gather buffer and pooled partials). The
    // inner solve applies the problem's block Jacobi over the replacement's
    // rows (108 / 13 and 213 / 22 when the first event extracted and
    // factored `A[own, own]`).
    for (psi, first, second, pins) in [
        (1, csr_first, csr_second, (78, 13)),
        (2, pair_first, pair_second, (153, 22)),
    ] {
        assert!(
            2 * second < first,
            "ψ = {psi}: a second event in the same failure domain allocated {second} times, the first {first}"
        );
        assert!(
            first <= pins.0 && second <= pins.1,
            "ψ = {psi}: the events allocated {first} / {second} times, more than the pinned {pins:?}"
        );
    }
    // The inner loop allocates nothing: more inner iterations, same count.
    esr_event_under(RecoveryRule::Paper); // one-time lookups
    let (tight, tight_iters) = esr_event_under(RecoveryRule::Paper);
    let (loose, loose_iters) = esr_event_under(RecoveryRule::Extended);
    assert!(loose_iters < tight_iters, "{loose_iters} vs {tight_iters}");
    assert_eq!(
        tight, loose,
        "an inner solve of {tight_iters} iterations allocated {tight} times, of {loose_iters} {loose}"
    );
    for format in [SpmvFormat::sell(), SpmvFormat::bcsr3()] {
        let first = run(format, 1, &[50]) - run(format, 1, &[]);
        assert!(
            first.abs_diff(csr_first) <= 2,
            "{}: the first recovery event allocated {first} times, {csr_first} under csr",
            format.name()
        );
    }
}
