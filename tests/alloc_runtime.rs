//! The runtime's steady state allocates nothing: once inboxes, run queues
//! and the per-rank buffer pools have reached their working size, a
//! send/recv/allreduce round costs zero heap allocations, so a run twice as
//! long allocates exactly as often. Scoped to the cluster runtime; the
//! solver on top of it is counted by `alloc_solver.rs`.
//!
//! One test per binary on purpose: the counter is process-wide.

mod counting_alloc;

use esrcg::cluster::{run_spmd, CostModel, Payload, Tag};

/// Allocations of one whole 16-rank run of `rounds` rounds, each a pooled
/// ring exchange followed by a scalar allreduce.
fn allocations_of(rounds: u32) -> u64 {
    let before = counting_alloc::allocations();
    let out = run_spmd(16, CostModel::default(), |ctx| {
        let next = (ctx.rank() + 1) % ctx.size();
        let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
        let mut sum = 0.0;
        for round in 0..rounds {
            let mut buf = ctx.take_f64s();
            buf.extend_from_slice(&[ctx.rank() as f64; 8]);
            ctx.send(next, Tag::Halo.with(round), Payload::F64s(buf));
            let got = ctx.recv(prev, Tag::Halo.with(round)).into_f64s();
            ctx.recycle_f64s(got);
            sum += ctx.allreduce_sum_scalar(1.0);
        }
        sum
    });
    let after = counting_alloc::allocations();
    assert!(out.results.iter().all(|&s| s == 16.0 * rounds as f64));
    after - before
}

#[test]
fn doubling_the_rounds_adds_no_allocation() {
    allocations_of(200); // warm-up: one-time lookups behind `run_spmd`
    let short = allocations_of(200);
    let long = allocations_of(400);
    assert_eq!(
        short, long,
        "200 rounds allocated {short} times, 400 rounds {long} times"
    );
}
