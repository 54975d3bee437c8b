//! The runtime's steady state allocates nothing: once inboxes, run queues
//! and the per-rank buffer pools have reached their working size, a
//! send/recv/allreduce round costs zero heap allocations, so a run twice as
//! long allocates exactly as often. Scoped to the cluster runtime; the
//! solver's storage stages are not allocation-free yet (see ROADMAP).
//!
//! One test per binary on purpose: the counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use esrcg::cluster::{run_spmd, CostModel, Payload, Tag};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards to `System` unchanged; the counter is a
// statistic and publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations of one whole 16-rank run of `rounds` rounds, each a pooled
/// ring exchange followed by a scalar allreduce.
fn allocations_of(rounds: u32) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
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
    let after = ALLOCATIONS.load(Ordering::Relaxed);
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
