//! The solver's steady state allocates nothing: once the redundancy queue's
//! three slots, the starred copies / own checkpoint, and the per-rank buffer
//! pools have reached their working size, an iteration — storage stages and
//! checkpoint rounds included — costs zero heap allocations. So a
//! failure-free run capped at 119 iterations allocates exactly as often as
//! one capped at 80, for every strategy × recurrence. (80 is past the two
//! storage stages / checkpoint rounds of T = 20 that fill the queue; the
//! probe converges at 119.)
//!
//! One test per binary on purpose: the counter is process-wide.

mod counting_alloc;

use esrcg::prelude::*;

/// Allocations of one whole failure-free solve (Poisson2d 64², 8 ranks,
/// φ = 1) stopped after `max_iters` iterations.
fn allocations_of(strategy: Strategy, variant: PcgVariant, max_iters: usize) -> u64 {
    let phi = usize::from(strategy != Strategy::None);
    let before = counting_alloc::allocations();
    let report = Experiment::builder()
        .matrix(MatrixSource::Poisson2d { nx: 64, ny: 64 })
        .n_ranks(8)
        .strategy(strategy)
        .phi(phi)
        .variant(variant)
        .max_iters(max_iters)
        .run()
        .expect("probe run");
    let after = counting_alloc::allocations();
    assert!(report.iterations >= 80, "ran past the warm-up");
    after - before
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
}
