//! The SPMD runner: executes one closure per rank, every rank a stackful
//! coroutine, on at most as many OS threads as the host has cores.
//!
//! `run_spmd` starts W **workers** — worker 0 is the calling thread, the rest
//! are scoped threads — and gives each a contiguous block of ranks
//! (`rank · W / n_ranks`) that never migrate. W comes out of a process-wide
//! budget of one worker per host thread: a run claims what the runs already
//! in flight have left, at least 1 and at most `n_ranks`. A lone run takes
//! every core; a run started from a full fleet (a campaign's workers,
//! `cargo test`'s parallel tests) gets W = 1 and runs all its ranks inline
//! on the calling thread — no thread spawn, no futex, uncontended locks.
//!
//! A rank runs until its body returns or until [`Ctx::recv`] finds no
//! matching message; then it registers what it waits for in its mailbox and
//! suspends back into its worker's loop, which resumes the next runnable
//! rank. A `send` that matches a registered wait puts the receiver on its
//! worker's run queue, so a blocked rank costs nothing until its message
//! exists. A worker whose queue is empty polls it, yielding its core
//! between looks, and parks on a condvar only after `IDLE_POLLS` misses:
//! a PCG iteration crosses the worker boundary at least three times, and
//! waking a parked thread costs more than the arithmetic between two
//! crossings. The private `Fabric` is that shared state: one mailbox per
//! rank, one run queue per worker.
//!
//! Each rank's [`Ctx`] is built here with its own
//! [`crate::msg::BufferPool`]; kernel calls inside a rank body hit the
//! *worker* thread's persistent pool (`esrcg_sparse::pool`), which pinning
//! keeps valid across suspensions.
//!
//! Nothing here can move a modeled bit: the modeled clock advances on
//! message *arrival times*, which senders compute, so the order in which the
//! scheduler happens to run ranks is invisible to it.

use std::any::Any;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

use crate::comm::Ctx;
use crate::coro::{self, Coro};
use crate::cost::CostModel;
use crate::msg::{BufferPoolStats, Message};
use crate::stats::{Phase, RankStats};
use crate::trace::{tag_kind_name, MergedTrace, RankTrace, TraceConfig};

/// Result of an SPMD run.
#[derive(Debug)]
pub struct SpmdOutcome<T> {
    /// Per-rank return values, in rank order.
    pub results: Vec<T>,
    /// Per-rank instrumentation counters, in rank order.
    pub stats: Vec<RankStats>,
    /// Per-rank buffer-pool reuse counters, in rank order.
    pub buffer_stats: Vec<BufferPoolStats>,
    /// The merged flight-recorder trace (`None` when the run was started
    /// with [`TraceConfig::Off`]).
    pub trace: Option<MergedTrace>,
    /// Modeled runtime: the maximum final logical clock across ranks.
    pub modeled_time: f64,
}

impl<T> SpmdOutcome<T> {
    /// Aggregated counters over all ranks.
    pub fn total_stats(&self) -> RankStats {
        let mut acc = RankStats::default();
        for s in &self.stats {
            acc.merge(s);
        }
        acc
    }

    /// Aggregated buffer-pool counters over all ranks.
    pub fn total_buffer_stats(&self) -> BufferPoolStats {
        let mut acc = BufferPoolStats::default();
        for s in &self.buffer_stats {
            acc.absorb(s);
        }
        acc
    }
}

/// Locks a runtime mutex. Every critical section in this file is a few
/// queue operations with no caller-supplied code inside, so a poisoned lock
/// cannot happen short of a bug here.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .expect("no panic happens while a runtime lock is held")
}

/// What a rank suspended in `recv` is waiting for, and where it stood.
struct Blocked {
    from: usize,
    tag: u64,
    phase: Phase,
    clock: f64,
}

/// One rank's inbox: delivered, not yet received messages in delivery
/// order, each with its source.
struct Mailbox {
    queue: VecDeque<(usize, Message)>,
    /// Set (under this lock) by the owner just before it suspends, cleared
    /// by the `send` that satisfies it.
    waiting: Option<Blocked>,
}

impl Mailbox {
    /// Position of the oldest message from `(from, tag)`. Sends from one
    /// source are pushed in program order, so taking the oldest match keeps
    /// every `(source, tag)` stream FIFO. Inboxes hold a handful of
    /// messages; a linear scan beats any index.
    fn position(&self, from: usize, tag: u64) -> Option<usize> {
        self.queue
            .iter()
            .position(|(src, msg)| *src == from && msg.tag == tag)
    }
}

/// One worker's runnable ranks.
struct RunQueue {
    ready: VecDeque<usize>,
    /// True while the worker sleeps on `wake` because `ready` was empty;
    /// whoever pushes to a parked queue clears the flag, takes the worker
    /// off the idle count and notifies.
    parked: bool,
}

struct Worker {
    queue: Mutex<RunQueue>,
    wake: Condvar,
}

/// Why a run is being torn down. Only the first failure is kept.
enum Failure {
    /// A rank body panicked with this payload.
    Panic(Box<dyn Any + Send>),
    /// No rank can make progress; the report names every blocked rank.
    Deadlock(String),
}

/// The state all ranks and workers of one run share.
pub(crate) struct Fabric {
    mailboxes: Vec<Mutex<Mailbox>>,
    workers: Vec<Worker>,
    /// Workers that are parked or have returned. A worker adds itself
    /// under its own queue lock, and a pusher takes a parked worker off
    /// under that same lock, so the count equals the worker count only
    /// when no worker is running a rank or about to.
    idle: AtomicUsize,
    /// Ranks whose body has not returned.
    unfinished: AtomicUsize,
    /// Set together with `failure`; workers stop resuming ranks.
    poisoned: AtomicBool,
    failure: Mutex<Option<Failure>>,
}

/// Messages an inbox holds before its first reallocation: room for what a
/// rank has outstanding in steady state (its halo neighbours plus a few
/// tree hops). A gather root grows past it once and keeps the capacity.
const INBOX_CAPACITY: usize = 16;

/// Looks a worker of a multi-worker run takes at its empty run queue, with
/// a `yield_now` between them, before it parks on its condvar: ≈ 0.3 ms
/// on an unloaded core. The smallest value on the plateau of the recorded
/// sweep (2-core host, `benchmark run --seconds 5`, `wall_s` of two runs
/// each at 0 / 16 / 64 / 256 / 1 024 / 4 096 / 16 384 polls): `paper-grid`
/// 0.70–0.75 / 0.67–0.69 / 0.48–0.50 / 0.48–0.49 / **0.38–0.42** /
/// 0.43–0.47 / 0.43–0.47 s, `rank-bound` 0.49–0.51 / 0.40 / 0.39–0.44 /
/// 0.37–0.42 / **0.38** / 0.33–0.40 / 0.32–0.38 s, `recovery-storm`
/// 0.52–0.56 / 0.48–0.51 / 0.40–0.47 / 0.41 / **0.38–0.39** / 0.37–0.40 /
/// 0.34–0.40 s. Larger buys nothing resolvable and starts to cost where
/// workers outnumber cores: `fleet` reads 0.24–0.29 s up to 4 096 and
/// 0.34 s at 16 384.
const IDLE_POLLS: u32 = 1024;

impl Fabric {
    fn new(n_ranks: usize, n_workers: usize) -> Fabric {
        let fabric = Fabric {
            mailboxes: (0..n_ranks)
                .map(|_| {
                    Mutex::new(Mailbox {
                        queue: VecDeque::with_capacity(INBOX_CAPACITY),
                        waiting: None,
                    })
                })
                .collect(),
            workers: (0..n_workers)
                .map(|_| Worker {
                    queue: Mutex::new(RunQueue {
                        ready: VecDeque::new(),
                        parked: false,
                    }),
                    wake: Condvar::new(),
                })
                .collect(),
            idle: AtomicUsize::new(0),
            unfinished: AtomicUsize::new(n_ranks),
            poisoned: AtomicBool::new(false),
            failure: Mutex::new(None),
        };
        // Every rank starts runnable, in rank order. A rank is queued at
        // most once, so the block length is all the capacity ever needed.
        for (w, worker) in fabric.workers.iter().enumerate() {
            lock(&worker.queue).ready.extend(fabric.block(w));
        }
        fabric
    }

    fn n_ranks(&self) -> usize {
        self.mailboxes.len()
    }

    /// The worker `rank` is pinned to.
    fn worker_of(&self, rank: usize) -> usize {
        rank * self.workers.len() / self.n_ranks()
    }

    /// The contiguous ranks pinned to worker `w` (the inverse of
    /// [`Fabric::worker_of`]).
    fn block(&self, w: usize) -> std::ops::Range<usize> {
        let (n, workers) = (self.n_ranks(), self.workers.len());
        (w * n).div_ceil(workers)..((w + 1) * n).div_ceil(workers)
    }

    /// Delivers `msg` into `to`'s inbox; if `to` is suspended waiting for
    /// exactly `(from, msg.tag)`, makes it runnable. No other delivery
    /// wakes it, so a resumed receiver always finds its message.
    pub(crate) fn send(&self, from: usize, to: usize, msg: Message) {
        let wakes = {
            let mut inbox = lock(&self.mailboxes[to]);
            let wakes = inbox
                .waiting
                .as_ref()
                .is_some_and(|w| w.from == from && w.tag == msg.tag);
            if wakes {
                inbox.waiting = None;
            }
            inbox.queue.push_back((from, msg));
            wakes
        };
        if wakes {
            self.make_runnable(to);
        }
    }

    /// Removes and returns the oldest message from `(from, tag)` in
    /// `rank`'s inbox, suspending the calling rank until it exists.
    /// `phase` and `clock` are recorded for the deadlock report.
    pub(crate) fn recv(
        &self,
        rank: usize,
        from: usize,
        tag: u64,
        phase: Phase,
        clock: f64,
    ) -> Message {
        loop {
            {
                let mut inbox = lock(&self.mailboxes[rank]);
                if let Some(at) = inbox.position(from, tag) {
                    let (_, msg) = inbox.queue.remove(at).expect("position is in range");
                    return msg;
                }
                inbox.waiting = Some(Blocked {
                    from,
                    tag,
                    phase,
                    clock,
                });
            }
            // A sender may already have seen `waiting` and queued this rank;
            // its worker cannot pop that entry before this switch completes,
            // because that worker is the thread running this very code.
            coro::suspend();
        }
    }

    fn make_runnable(&self, rank: usize) {
        let worker = &self.workers[self.worker_of(rank)];
        let mut queue = lock(&worker.queue);
        queue.ready.push_back(rank);
        if queue.parked {
            queue.parked = false;
            self.idle.fetch_sub(1, Ordering::SeqCst);
            worker.wake.notify_one();
        }
    }

    /// The next rank worker `w` should resume, waiting while there is none:
    /// up to [`IDLE_POLLS`] looks at the queue with the lock dropped and the
    /// core yielded in between, then asleep on the condvar. `None` once the
    /// run is poisoned — including by this call, when it finds that no rank
    /// anywhere can run again. A polling worker is not idle yet, so a
    /// deadlock is reported at most `IDLE_POLLS` yields per worker later
    /// than it occurs. The only worker of a run never waits at all: its
    /// empty queue *is* the deadlock.
    fn next_runnable(&self, w: usize) -> Option<usize> {
        let worker = &self.workers[w];
        let mut polls_left = if self.workers.len() > 1 {
            IDLE_POLLS
        } else {
            0
        };
        let mut queue = lock(&worker.queue);
        loop {
            if self.poisoned.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(rank) = queue.ready.pop_front() {
                return Some(rank);
            }
            if polls_left > 0 {
                polls_left -= 1;
                drop(queue);
                std::thread::yield_now();
                queue = lock(&worker.queue);
                continue;
            }
            queue.parked = true;
            if self.idle.fetch_add(1, Ordering::SeqCst) + 1 == self.workers.len() {
                drop(queue);
                self.fail(Failure::Deadlock(self.deadlock_report()));
                return None;
            }
            while queue.parked && !self.poisoned.load(Ordering::SeqCst) {
                queue = worker
                    .wake
                    .wait(queue)
                    .expect("no panic happens while a runtime lock is held");
            }
        }
    }

    /// Worker `w`'s loop: resumes whichever rank of its block (`ranks`, in
    /// block order) is runnable, until all have finished or the run is
    /// poisoned.
    fn drive(&self, w: usize, ranks: &mut [Coro<'_>]) {
        let first = self.block(w).start;
        let mut live = ranks.len();
        while live > 0 {
            let Some(rank) = self.next_runnable(w) else {
                return;
            };
            match ranks[rank - first].resume() {
                None => {}
                Some(Ok(())) => {
                    live -= 1;
                    self.unfinished.fetch_sub(1, Ordering::SeqCst);
                }
                Some(Err(payload)) => return self.fail(Failure::Panic(payload)),
            }
        }
        self.retire();
    }

    /// A worker has no unfinished rank left and is about to return. If
    /// that leaves every other worker parked, their ranks wait for messages
    /// nobody is left to send.
    fn retire(&self) {
        let all_idle = self.idle.fetch_add(1, Ordering::SeqCst) + 1 == self.workers.len();
        if all_idle
            && self.unfinished.load(Ordering::SeqCst) > 0
            && !self.poisoned.load(Ordering::SeqCst)
        {
            self.fail(Failure::Deadlock(self.deadlock_report()));
        }
    }

    /// Records `failure` if it is the first, then stops every worker:
    /// running ranks are not resumed again once they suspend, and parked
    /// workers wake up to see the flag.
    fn fail(&self, failure: Failure) {
        lock(&self.failure).get_or_insert(failure);
        self.poisoned.store(true, Ordering::SeqCst);
        for worker in &self.workers {
            // Taking the lock orders the store before the worker's next
            // check of the flag, so the notification cannot be missed.
            let _queue = lock(&worker.queue);
            worker.wake.notify_all();
        }
    }

    /// One line per rank suspended in `recv`. Called only when every worker
    /// is idle, so every unfinished rank is one of them.
    fn deadlock_report(&self) -> String {
        let mut report = format!(
            "run_spmd: deadlock: every worker is idle and no rank is runnable, \
             but {} of {} ranks have not finished",
            self.unfinished.load(Ordering::SeqCst),
            self.n_ranks()
        );
        for (rank, inbox) in self.mailboxes.iter().enumerate() {
            if let Some(w) = &lock(inbox).waiting {
                write!(
                    report,
                    "\n  rank {rank}: phase {}, blocked in recv(from {}, tag {}.{}), \
                     modeled clock {:.9} s",
                    w.phase.name(),
                    w.from,
                    tag_kind_name((w.tag >> 32) as u32),
                    w.tag & 0xFFFF_FFFF,
                    w.clock
                )
                .expect("writing to a String cannot fail");
            }
        }
        report
    }
}

/// The host's thread count, looked up once: on Linux
/// `available_parallelism` parses cgroup files (≈ 15 µs and several
/// allocations per call), which a campaign would pay on every run.
fn host_threads() -> usize {
    static HOST_THREADS: OnceLock<usize> = OnceLock::new();
    *HOST_THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Rank workers alive in this process, the calling threads of their runs
/// included: what [`run_spmd`] calls share the host's threads through.
static LIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// One run's share of a worker budget, handed back on drop — so also when
/// the run unwinds.
struct WorkerClaim<'a> {
    live: &'a AtomicUsize,
    workers: usize,
}

impl<'a> WorkerClaim<'a> {
    /// Claims the host threads the runs counted in `live` have left, at
    /// least one (the calling thread works whatever else runs) and at most
    /// one per rank. Count and claim are one read-modify-write, so runs
    /// that start together split the host instead of each taking all of it.
    /// The count can still be stale by the time the workers start — a run
    /// that ended a moment later would have left more — which costs host
    /// time on one run and nothing else: the worker count is invisible to
    /// results and modeled clocks.
    fn new(live: &'a AtomicUsize, n_ranks: usize) -> Self {
        let share = |held: usize| host_threads().saturating_sub(held).clamp(1, n_ranks);
        let held = live
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |held| {
                Some(held + share(held))
            })
            .expect("the update never declines");
        WorkerClaim {
            live,
            workers: share(held),
        }
    }
}

impl Drop for WorkerClaim<'_> {
    fn drop(&mut self) {
        self.live.fetch_sub(self.workers, Ordering::SeqCst);
    }
}

/// Runs `body` as an SPMD program over `n_ranks` simulated nodes and
/// collects results, counters, and both time metrics. Ranks are coroutines
/// multiplexed over at most as many OS threads as the host has cores *and
/// the process's other runs have left free* (see the module docs); the
/// calling thread is one of them, and under a full fleet the only one.
///
/// The closure receives this rank's [`Ctx`]; all inter-rank communication
/// goes through it. A panic on any rank aborts the run: every other rank is
/// unwound where it stands (its destructors run), and the *first* panic's
/// payload is re-raised from this call. A protocol in which no rank can
/// make progress — every unfinished rank blocked in [`Ctx::recv`] on a
/// message nobody will send — panics with a report naming each blocked
/// rank, its phase, the `(source, tag)` it waits for and its modeled clock.
///
/// # Panics
/// Panics if `n_ranks == 0`, if any rank body panics, or on deadlock.
pub fn run_spmd<T, F>(n_ranks: usize, cost: CostModel, body: F) -> SpmdOutcome<T>
where
    T: Send,
    F: Fn(&mut Ctx) -> T + Sync,
{
    run_spmd_traced(n_ranks, cost, TraceConfig::Off, body)
}

/// [`run_spmd`] with the flight recorder enabled at `trace` level on every
/// rank. Under [`TraceConfig::Off`] the two are identical (and
/// [`SpmdOutcome::trace`] is `None`); at any other level the outcome carries
/// the merged per-rank event logs.
///
/// # Panics
/// Panics if `n_ranks == 0`, if any rank body panics, or on deadlock.
pub fn run_spmd_traced<T, F>(
    n_ranks: usize,
    cost: CostModel,
    trace: TraceConfig,
    body: F,
) -> SpmdOutcome<T>
where
    T: Send,
    F: Fn(&mut Ctx) -> T + Sync,
{
    run_within(&LIVE_WORKERS, n_ranks, cost, trace, body)
}

/// [`run_spmd_traced`] on the workers it can claim from `live`. The tests
/// bring a count of their own: the process's is shared with whatever test
/// runs beside them.
fn run_within<T, F>(
    live: &AtomicUsize,
    n_ranks: usize,
    cost: CostModel,
    trace: TraceConfig,
    body: F,
) -> SpmdOutcome<T>
where
    T: Send,
    F: Fn(&mut Ctx) -> T + Sync,
{
    assert!(n_ranks > 0, "run_spmd: need at least one rank");
    let claim = WorkerClaim::new(live, n_ranks);
    run_on_workers(n_ranks, claim.workers, cost, trace, body)
}

/// [`run_spmd_traced`] on exactly `n_workers` worker threads (the caller
/// included), outside the worker budget. Results, counters and every
/// modeled number are the same for any worker count; only the host time
/// differs.
fn run_on_workers<T, F>(
    n_ranks: usize,
    n_workers: usize,
    cost: CostModel,
    trace: TraceConfig,
    body: F,
) -> SpmdOutcome<T>
where
    T: Send,
    F: Fn(&mut Ctx) -> T + Sync,
{
    type RankResult<T> = (
        T,
        RankStats,
        BufferPoolStats,
        Vec<crate::trace::TraceEvent>,
        f64,
    );
    let fabric = Arc::new(Fabric::new(n_ranks, n_workers));
    let slots: Vec<Mutex<Option<RankResult<T>>>> = (0..n_ranks).map(|_| Mutex::new(None)).collect();

    // One worker: creates the coroutines of its block, drives them, then
    // drops them — which unwinds every rank still suspended mid-body.
    let work = |w: usize| {
        let driven = catch_unwind(AssertUnwindSafe(|| {
            let mut ranks: Vec<Coro<'_>> = fabric
                .block(w)
                .map(|rank| {
                    let (fabric, slot, body) = (&fabric, &slots[rank], &body);
                    Coro::new(move || {
                        let mut ctx = Ctx::new(rank, n_ranks, Arc::clone(fabric), cost, trace);
                        let out = body(&mut ctx);
                        let clock = ctx.clock();
                        let (st, pool, events) = ctx.into_parts();
                        *lock(slot) = Some((out, st, pool, events, clock));
                    })
                })
                .collect();
            fabric.drive(w, &mut ranks);
        }));
        // A worker that dies — a stack it cannot map — must end the run as
        // a rank's panic does, or the others wait for its ranks forever.
        if let Err(payload) = driven {
            fabric.fail(Failure::Panic(payload));
        }
    };
    std::thread::scope(|scope| {
        for w in 1..n_workers {
            let work = &work;
            scope.spawn(move || work(w));
        }
        work(0);
    });

    match lock(&fabric.failure).take() {
        // The rank's own panic already went through the panic hook.
        Some(Failure::Panic(payload)) => std::panic::resume_unwind(payload),
        Some(Failure::Deadlock(report)) => panic!("{report}"),
        None => {}
    }

    let mut results = Vec::with_capacity(n_ranks);
    let mut stats = Vec::with_capacity(n_ranks);
    let mut buffer_stats = Vec::with_capacity(n_ranks);
    let mut rank_traces = Vec::with_capacity(n_ranks);
    let mut modeled_time = 0.0f64;
    for (rank, slot) in slots.into_iter().enumerate() {
        let (out, st, pool, events, clock) = slot
            .into_inner()
            .expect("no panic happens while a runtime lock is held")
            .expect("every rank finished");
        results.push(out);
        stats.push(st);
        buffer_stats.push(pool);
        rank_traces.push(RankTrace {
            rank,
            final_clock: clock,
            events,
        });
        modeled_time = modeled_time.max(clock);
    }

    SpmdOutcome {
        results,
        stats,
        buffer_stats,
        trace: trace
            .enabled()
            .then_some(MergedTrace { ranks: rank_traces }),
        modeled_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{Payload, Tag};
    use crate::trace::TraceEvent;
    use std::time::{Duration, Instant};

    const SIZES: [usize; 7] = [1, 2, 3, 4, 5, 8, 13];

    #[test]
    fn point_to_point_ring() {
        let out = run_spmd(4, CostModel::default(), |ctx| {
            let next = (ctx.rank() + 1) % ctx.size();
            let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
            ctx.send(next, Tag::Halo.with(0), Payload::Scalar(ctx.rank() as f64));
            ctx.recv(prev, Tag::Halo.with(0)).into_scalar()
        });
        assert_eq!(
            out.results,
            vec![3.0, 0.0, 1.0, 2.0],
            "each rank receives its predecessor's id"
        );
    }

    #[test]
    fn allreduce_sum_all_sizes() {
        for n in SIZES {
            let out = run_spmd(n, CostModel::default(), |ctx| {
                ctx.allreduce_sum_scalar((ctx.rank() + 1) as f64)
            });
            let expected = (n * (n + 1) / 2) as f64;
            for (rank, &r) in out.results.iter().enumerate() {
                assert_eq!(r, expected, "rank {rank} of {n}");
            }
        }
    }

    #[test]
    fn allreduce_vector_valued() {
        let out = run_spmd(5, CostModel::default(), |ctx| {
            ctx.allreduce(&[1.0, ctx.rank() as f64])
        });
        for r in &out.results {
            assert_eq!(r[0], 5.0);
            assert_eq!(r[1], 10.0);
        }
    }

    #[test]
    fn allreduce_results_identical_across_ranks_bitwise() {
        // Irrational-ish values make accidental associativity differences
        // visible; all ranks must hold the exact same bits.
        let out = run_spmd(7, CostModel::default(), |ctx| {
            ctx.allreduce_sum_scalar(0.1 + ctx.rank() as f64 * 0.3)
        });
        let first = out.results[0].to_bits();
        for r in &out.results {
            assert_eq!(r.to_bits(), first);
        }
    }

    #[test]
    fn out_of_order_tags_are_parked() {
        let out = run_spmd(2, CostModel::default(), |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, Tag::Halo.with(7), Payload::Scalar(7.0));
                ctx.send(1, Tag::Halo.with(8), Payload::Scalar(8.0));
                0.0
            } else {
                // Receive in the opposite order they were sent.
                let b = ctx.recv(0, Tag::Halo.with(8)).into_scalar();
                let a = ctx.recv(0, Tag::Halo.with(7)).into_scalar();
                a * 10.0 + b
            }
        });
        assert_eq!(out.results[1], 78.0);
    }

    #[test]
    fn an_arrived_message_is_received_at_no_modeled_cost() {
        // Rank 0 sends, then both ranks sync clocks: the barrier's message
        // from rank 0 leaves after the halo message, so once rank 1 is out
        // of the barrier the halo message has arrived on its modeled clock.
        // Receiving it moves neither the clock nor the receive wait.
        let out = run_spmd(2, CostModel::default(), |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, Tag::Halo.with(3), Payload::Scalar(42.0));
                ctx.barrier_sync_clock();
                0.0
            } else {
                ctx.barrier_sync_clock();
                let (clock, waited) = (ctx.clock(), ctx.stats().total_recv_wait());
                let v = ctx.recv(0, Tag::Halo.with(3)).into_scalar();
                assert_eq!(ctx.clock(), clock, "an arrived message costs no time");
                assert_eq!(ctx.stats().total_recv_wait(), waited, "nor any wait");
                v
            }
        });
        assert_eq!(out.results[1], 42.0);
    }

    #[test]
    fn a_message_in_the_modeled_future_waits_exactly_the_gap() {
        // α = 1/16 s, 1/1024 s per byte. Rank 0 sends 64 values at clock 0
        // (arrival 1/16 + 1/16 + 1/2 = 5/8), then an empty message that
        // lands first (1/8 + 1/16 = 3/16). Once rank 1 holds the empty one
        // the long one is delivered too (mailboxes are FIFO per sender)
        // but still 7/16 s ahead, and the receive waits exactly that.
        let cost = CostModel::comm_only(0.0625, 1.0 / 1024.0);
        let out = run_spmd(2, cost, |ctx| {
            let (long, short) = (Tag::Halo.with(9), Tag::Halo.with(10));
            if ctx.rank() == 0 {
                ctx.send(1, long, Payload::F64s(vec![7.0; 64]));
                ctx.send(1, short, Payload::F64s(Vec::new()));
                (0.0, 0.0)
            } else {
                ctx.recv(0, short);
                assert_eq!(ctx.clock(), 0.1875);
                let v = ctx.recv(0, long).into_f64s()[0];
                (v, ctx.clock() - 0.1875)
            }
        });
        assert_eq!(out.results[1], (7.0, 0.4375));
        assert_eq!(out.stats[1].total_recv_wait(), 0.625);
    }

    #[test]
    fn messages_under_one_source_and_tag_arrive_in_send_order() {
        let out = run_spmd(2, CostModel::default(), |ctx| {
            let tag = Tag::Halo.with(1);
            if ctx.rank() == 0 {
                for v in 1..=3 {
                    ctx.send(1, tag, Payload::Scalar(v as f64));
                }
                Vec::new()
            } else {
                (0..3).map(|_| ctx.recv(0, tag).into_scalar()).collect()
            }
        });
        assert_eq!(out.results[1], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn overlapped_stage_cost_matches_the_closed_form() {
        // The split-phase SpMV's cost claim, at the primitive level: a
        // stage that computes `flops` while a message is in flight and
        // then receives it must cost max(transfer, compute) on the clock —
        // exactly `CostModel::overlapped_time`. α = 0 removes the
        // sender-side injection so the closed form is exact and bitwise.
        let cost = CostModel {
            alpha: 0.0,
            seconds_per_byte: 1e-9,
            seconds_per_flop: 5e-10,
        };
        // One compute-dominated and one communication-dominated stage.
        for flops in [1_000u64, 100_000_000] {
            let out = run_spmd(2, cost, move |ctx| {
                ctx.set_phase(Phase::SpMV);
                if ctx.rank() == 0 {
                    ctx.send(1, Tag::Halo.bare(), Payload::F64s(vec![0.0; 1000]));
                    0.0
                } else {
                    ctx.charge_flops(flops); // "interior rows"
                    ctx.recv(0, Tag::Halo.bare()); // drain the halo
                    ctx.clock()
                }
            });
            let expected = cost.overlapped_time(8 * 1000, flops);
            assert_eq!(
                out.results[1].to_bits(),
                expected.to_bits(),
                "flops = {flops}"
            );
        }
    }

    #[test]
    fn split_reduce_matches_blocking_allreduce_bitwise() {
        // allreduce_start + finish with no compute in between must be
        // indistinguishable from the blocking allreduce: same bits, same
        // modeled clock, on every rank and size.
        for n in SIZES {
            let blocking = run_spmd(n, CostModel::default(), |ctx| {
                let v = ctx.allreduce(&[0.1 + ctx.rank() as f64 * 0.3, -1.5]);
                (v, ctx.clock())
            });
            let split = run_spmd(n, CostModel::default(), |ctx| {
                let pending = ctx.allreduce_start(&[0.1 + ctx.rank() as f64 * 0.3, -1.5]);
                let v = pending.finish(ctx);
                (v, ctx.clock())
            });
            for rank in 0..n {
                assert_eq!(blocking.results[rank].0, split.results[rank].0, "n={n}");
                assert_eq!(
                    blocking.results[rank].1.to_bits(),
                    split.results[rank].1.to_bits(),
                    "n={n} rank={rank}: modeled clocks diverged"
                );
            }
        }
    }

    #[test]
    fn split_reduce_overlap_matches_the_closed_form() {
        // Two ranks: rank 1's contribution flies while rank 0 computes, so
        // rank 0's reduce step costs max(transfer, compute) — the
        // `overlapped_time` closed form, exactly as the halo test above.
        // α = 0 removes injection overhead so the form is exact; the
        // combine flop on rank 0 is the only extra term.
        let cost = CostModel {
            alpha: 0.0,
            seconds_per_byte: 1e-9,
            seconds_per_flop: 5e-10,
        };
        // One communication-dominated and one compute-dominated stage.
        for flops in [1u64, 1_000] {
            let out = run_spmd(2, cost, move |ctx| {
                ctx.set_phase(Phase::Reduction);
                let pending = ctx.allreduce_start(&[ctx.rank() as f64]);
                ctx.set_phase(Phase::SpMV);
                ctx.charge_flops(flops); // overlapped compute
                ctx.set_phase(Phase::Reduction);
                let v = pending.finish(ctx);
                ctx.recycle_f64s(v);
                ctx.clock()
            });
            // Rank 0: overlap of the 8-byte contribution against the
            // compute, then one combine flop (the broadcast send is free at
            // α = 0).
            let expected = cost.overlapped_time(8, flops) + cost.compute_time(1);
            let got = out.results[0];
            assert!(
                (got - expected).abs() <= f64::EPSILON * expected,
                "flops = {flops}: clock {got} vs closed form {expected}"
            );
        }
        // Bitwise check in the compute-dominated regime, where the arrival
        // predates the clock and `advance_to` is a no-op.
        let out = run_spmd(2, cost, move |ctx| {
            ctx.set_phase(Phase::Reduction);
            let pending = ctx.allreduce_start(&[ctx.rank() as f64]);
            ctx.set_phase(Phase::SpMV);
            ctx.charge_flops(1_000);
            ctx.set_phase(Phase::Reduction);
            let v = pending.finish(ctx);
            ctx.recycle_f64s(v);
            (ctx.clock(), ctx.stats().total_recv_wait())
        });
        let expected = cost.compute_time(1_000) + cost.compute_time(1);
        assert_eq!(out.results[0].0.to_bits(), expected.to_bits());
        assert_eq!(out.results[0].1, 0.0, "fully hidden reduction never waits");
    }

    #[test]
    fn split_reduce_attributes_wait_to_the_finish_phase() {
        // With no overlapped compute, the receive inside finish blocks; the
        // wait must land in the phase current at the finish call.
        let out = run_spmd(2, CostModel::default(), |ctx| {
            ctx.set_phase(Phase::SpMV);
            let pending = ctx.allreduce_start(&[1.0]);
            ctx.set_phase(Phase::Reduction);
            let v = pending.finish(ctx);
            ctx.recycle_f64s(v);
        });
        let s0 = &out.stats[0];
        assert!(s0.recv_wait[Phase::Reduction as usize] > 0.0);
        assert_eq!(s0.recv_wait[Phase::SpMV as usize], 0.0);
        // Per-phase waits account for all blocked time.
        for s in &out.stats {
            let sum: f64 = s.recv_wait.iter().sum();
            assert_eq!(sum.to_bits(), s.total_recv_wait().to_bits());
        }
    }

    #[test]
    fn split_reduce_is_deterministic_and_cheaper_under_overlap() {
        // A reduction whose latency is covered by compute must finish
        // strictly earlier than the blocking equivalent placed after the
        // same compute, and its modeled time must be bit-stable.
        let cost = CostModel::default();
        let work = 100_000u64; // 50 µs of compute ≫ the tree latency at α=2µs
        let split = || {
            run_spmd(8, cost, move |ctx| {
                ctx.set_phase(Phase::Reduction);
                let mut x = ctx.rank() as f64;
                for _ in 0..20 {
                    let pending = ctx.allreduce_start(&[x]);
                    ctx.set_phase(Phase::SpMV);
                    ctx.charge_flops(work);
                    ctx.set_phase(Phase::Reduction);
                    let v = pending.finish(ctx);
                    x = v[0] / ctx.size() as f64;
                    ctx.recycle_f64s(v);
                }
                (x, ctx.clock())
            })
        };
        let blocking = run_spmd(8, cost, move |ctx| {
            ctx.set_phase(Phase::Reduction);
            let mut x = ctx.rank() as f64;
            for _ in 0..20 {
                ctx.set_phase(Phase::SpMV);
                ctx.charge_flops(work);
                ctx.set_phase(Phase::Reduction);
                x = ctx.allreduce_sum_scalar(x) / ctx.size() as f64;
            }
            (x, ctx.clock())
        });
        let a = split();
        let b = split();
        for rank in 0..8 {
            assert_eq!(a.results[rank].0.to_bits(), b.results[rank].0.to_bits());
            assert_eq!(a.results[rank].1.to_bits(), b.results[rank].1.to_bits());
            // Same reduced values as the blocking run (same tree, same
            // operands), strictly less modeled time.
            assert_eq!(
                a.results[rank].0.to_bits(),
                blocking.results[rank].0.to_bits()
            );
        }
        assert!(
            a.modeled_time < blocking.modeled_time,
            "overlap must win: split {} vs blocking {}",
            a.modeled_time,
            blocking.modeled_time
        );
        // The overlapped run blocks less in Reduction than the blocking run.
        let wait = |o: &SpmdOutcome<(f64, f64)>| {
            o.stats
                .iter()
                .map(|s| s.recv_wait[Phase::Reduction as usize])
                .sum::<f64>()
        };
        assert!(wait(&a) < wait(&blocking));
    }

    #[test]
    fn recv_wait_accounts_the_blocked_time() {
        let cost = CostModel::default();
        let out = run_spmd(2, cost, |ctx| {
            ctx.set_phase(Phase::SpMV);
            if ctx.rank() == 0 {
                ctx.send(1, Tag::Halo.bare(), Payload::F64s(vec![0.0; 1000]));
            } else {
                ctx.recv(0, Tag::Halo.bare());
            }
            ctx.clock()
        });
        let wait = out.stats[1].recv_wait[Phase::SpMV as usize];
        // Rank 1 did nothing else, so its whole clock is recv wait.
        assert!(wait > 0.0);
        assert!((wait - out.results[1]).abs() < 1e-15);
        assert_eq!(out.stats[0].recv_wait[Phase::SpMV as usize], 0.0);
    }

    #[test]
    fn modeled_time_advances_with_flops_and_messages() {
        let cost = CostModel::default();
        let out = run_spmd(2, cost, |ctx| {
            ctx.set_phase(Phase::SpMV);
            ctx.charge_flops(1_000_000);
            if ctx.rank() == 0 {
                ctx.send(1, Tag::Halo.bare(), Payload::F64s(vec![0.0; 1000]));
            } else {
                ctx.recv(0, Tag::Halo.bare());
            }
            ctx.clock()
        });
        let compute = cost.compute_time(1_000_000);
        // Rank 0: compute + injection. Rank 1: at least compute, then
        // synchronized past rank 0's send.
        assert!(out.results[0] >= compute);
        assert!(out.results[1] >= out.results[0]);
        assert!(out.modeled_time >= out.results[1] - 1e-15);
    }

    #[test]
    fn modeled_time_is_deterministic() {
        let run = || {
            run_spmd(6, CostModel::default(), |ctx| {
                ctx.set_phase(Phase::Reduction);
                let mut x = ctx.rank() as f64;
                for _ in 0..50 {
                    x = ctx.allreduce_sum_scalar(x) / ctx.size() as f64;
                }
                ctx.charge_flops(123);
                ctx.clock()
            })
            .modeled_time
        };
        let a = run();
        let b = run();
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn allreduce_max_all_sizes() {
        // The clock barrier is the tree's only max-allreduce. With entries
        // skewed in a scrambled rank order, every rank returns the bits of
        // the maximum entering clock and leaves at or past it.
        for n in SIZES.into_iter().chain([16, 128]) {
            let out = run_spmd(n, CostModel::default(), |ctx| {
                ctx.charge_flops((ctx.rank() * 37 % ctx.size()) as u64 * 1_000);
                let entry = ctx.clock();
                let t = ctx.barrier_sync_clock();
                (entry, t, ctx.clock())
            });
            let latest = out.results.iter().map(|r| r.0).fold(0.0, f64::max);
            for (rank, &(_, t, exit)) in out.results.iter().enumerate() {
                assert_eq!(t.to_bits(), latest.to_bits(), "n = {n}, rank {rank}");
                assert!(
                    exit >= t,
                    "n = {n}, rank {rank}: left before the latest entry"
                );
            }
        }
    }

    #[test]
    fn barrier_sync_clock_equalizes() {
        for n in [1usize, 2, 3, 5, 16, 128] {
            // Equal entries, communication only: ⌈log₂N⌉ rounds of one
            // 8-byte message each way. Dyadic α and β keep every sum exact.
            let (alpha, beta) = (2f64.powi(-20), 2f64.powi(-30));
            let out = run_spmd(n, CostModel::comm_only(alpha, beta), |ctx| {
                let t = ctx.barrier_sync_clock();
                (t, ctx.clock())
            });
            let rounds = n.next_power_of_two().trailing_zeros() as f64;
            let expected = rounds * (2.0 * alpha + 8.0 * beta);
            for (rank, &(t, exit)) in out.results.iter().enumerate() {
                assert_eq!(t, 0.0, "n = {n}, rank {rank}");
                assert_eq!(exit.to_bits(), expected.to_bits(), "n = {n}, rank {rank}");
            }
        }
    }

    #[test]
    fn stats_track_messages_per_phase() {
        let out = run_spmd(2, CostModel::default(), |ctx| {
            ctx.set_phase(Phase::Checkpoint);
            if ctx.rank() == 0 {
                ctx.send(1, Tag::Checkpoint.bare(), Payload::F64s(vec![1.0; 4]));
            } else {
                ctx.recv(0, Tag::Checkpoint.bare());
            }
        });
        let s0 = &out.stats[0];
        assert_eq!(s0.msgs_sent[Phase::Checkpoint as usize], 1);
        assert_eq!(s0.bytes_sent[Phase::Checkpoint as usize], 32);
        assert_eq!(out.stats[1].msgs_sent[Phase::Checkpoint as usize], 0);
        let total = out.total_stats();
        assert_eq!(total.total_msgs(), 1);
    }

    #[test]
    fn collectives_recycle_buffers_after_warmup() {
        // After a warm-up round, repeated collectives must be served from
        // the per-rank buffer pool: takes keep growing, but parked-buffer
        // count stays flat (steady state allocates nothing per message).
        let out = run_spmd(4, CostModel::default(), |ctx| {
            for round in 0..50 {
                let s = ctx.allreduce_sum_scalar(round as f64);
                assert_eq!(s, 4.0 * round as f64);
                let v = ctx.allreduce(&[1.0, 2.0, 3.0]);
                assert_eq!(v, vec![4.0, 8.0, 12.0]);
                ctx.recycle_f64s(v);
            }
            let stats = ctx.buffer_stats();
            (stats, stats.recycles - stats.hits)
        });
        for (rank, (stats, parked)) in out.results.iter().enumerate() {
            assert!(stats.takes > 0, "rank {rank} took buffers");
            assert!(
                stats.hits * 10 >= stats.takes * 9,
                "rank {rank}: only {}/{} takes were pool hits",
                stats.hits,
                stats.takes
            );
            assert!(
                *parked <= 16,
                "rank {rank}: {parked} parked buffers (pool should stay small)"
            );
        }
    }

    #[test]
    fn a_handed_back_buffer_keeps_one_way_traffic_off_the_allocator() {
        // Rank 0 sends rank 1 a buffer per round and gets no message back.
        // Recycled at the receiver, every send after the first few would
        // find rank 0's pool empty; handed back, one buffer goes round and
        // round — at no modeled cost, in no counter.
        let tag = Tag::Redundant.bare();
        let one_way = |hand_back: bool| {
            run_spmd(2, CostModel::default(), move |ctx| {
                for round in 0..30 {
                    if ctx.rank() == 0 {
                        let mut buf = ctx.take_f64s();
                        buf.push(round as f64);
                        ctx.send(1, tag, Payload::F64s(buf));
                        if hand_back {
                            ctx.reclaim(1, tag);
                        }
                    } else {
                        let buf = ctx.recv(0, tag).into_f64s();
                        assert_eq!(buf, [round as f64]);
                        if hand_back {
                            ctx.hand_back(0, tag, buf);
                        } else {
                            ctx.recycle_f64s(buf);
                        }
                    }
                }
                ctx.buffer_stats().misses()
            })
        };
        let (drained, level) = (one_way(false), one_way(true));
        assert_eq!(drained.results[0], 30, "every send allocated");
        assert_eq!(level.results[0], 1, "one buffer circulates");
        assert_eq!(level.modeled_time.to_bits(), drained.modeled_time.to_bits());
        let (a, b) = (level.total_stats(), drained.total_stats());
        assert_eq!((a.total_msgs(), a.total_bytes()), (30, 240));
        assert_eq!((b.total_msgs(), b.total_bytes()), (30, 240));
    }

    #[test]
    fn point_to_point_buffers_circulate() {
        // A ring where each hop recycles the received buffer and takes a
        // pooled one for the next send: after warm-up, zero fresh
        // allocations per round trip.
        let out = run_spmd(3, CostModel::default(), |ctx| {
            let next = (ctx.rank() + 1) % ctx.size();
            let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
            for round in 0..40u32 {
                let mut buf = ctx.take_f64s();
                buf.extend_from_slice(&[ctx.rank() as f64, round as f64]);
                ctx.send(next, Tag::Halo.with(round), Payload::F64s(buf));
                let got = ctx.recv(prev, Tag::Halo.with(round)).into_f64s();
                assert_eq!(got[0], prev as f64);
                ctx.recycle_f64s(got);
            }
            ctx.buffer_stats()
        });
        for (rank, stats) in out.results.iter().enumerate() {
            assert_eq!(stats.takes, 40, "rank {rank}");
            assert!(stats.hits >= 38, "rank {rank}: hits {}", stats.hits);
        }
    }

    /// Runs `f` on its own thread and hands back how it ended. A scheduler
    /// that hangs must fail the test in seconds, not stall the CI job.
    fn watchdog<T: Send + 'static>(
        f: impl FnOnce() -> T + Send + 'static,
    ) -> std::thread::Result<T> {
        let run = std::thread::spawn(f);
        let deadline = Instant::now() + Duration::from_secs(60);
        while !run.is_finished() {
            assert!(Instant::now() < deadline, "run_spmd hung");
            std::thread::sleep(Duration::from_millis(2));
        }
        run.join()
    }

    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(payload) => payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .expect("a string panic payload"),
        }
    }

    /// Worker counts the failure tests run under: everything on the calling
    /// thread, the usual few workers, and one worker per rank.
    const WORKERS: [usize; 4] = [1, 2, 3, usize::MAX];

    /// [`run_spmd`] on `workers` workers (capped at one per rank), whatever
    /// the host has.
    fn run_on<T: Send>(
        n_ranks: usize,
        workers: usize,
        body: impl Fn(&mut Ctx) -> T + Sync,
    ) -> SpmdOutcome<T> {
        run_on_workers(
            n_ranks,
            workers.min(n_ranks),
            CostModel::default(),
            TraceConfig::Off,
            body,
        )
    }

    #[test]
    fn a_receive_nobody_satisfies_is_reported_not_hung() {
        // Rank 2 waits for a halo message from rank 0 that no rank sends;
        // everyone else finishes. On a thread-per-rank runtime this hangs.
        for workers in WORKERS {
            let outcome = watchdog(move || {
                run_on(4, workers, |ctx| {
                    ctx.barrier();
                    if ctx.rank() == 2 {
                        ctx.set_phase(Phase::SpMV);
                        ctx.charge_flops(1_000);
                        ctx.recv(0, Tag::Halo.with(7));
                    }
                })
            });
            let report = panic_message(outcome.expect_err("the run must fail"));
            assert!(report.contains("deadlock"), "{report}");
            assert!(report.contains("1 of 4 ranks"), "{report}");
            let lines: Vec<&str> = report.lines().skip(1).collect();
            assert_eq!(lines.len(), 1, "one line per blocked rank: {report}");
            assert!(lines[0].contains("rank 2:"), "{report}");
            assert!(lines[0].contains("phase spmv"), "{report}");
            assert!(lines[0].contains("recv(from 0, tag halo.7)"), "{report}");
            assert!(!lines[0].contains("clock 0.000000000"), "{report}");
        }
    }

    #[test]
    fn a_receive_cycle_names_every_blocked_rank() {
        // Every rank receives from its successor before anyone sends: all
        // workers end up parked, none retires.
        for workers in WORKERS {
            let outcome = watchdog(move || {
                run_on(5, workers, |ctx| {
                    let next = (ctx.rank() + 1) % ctx.size();
                    let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
                    ctx.recv(next, Tag::Checkpoint.bare());
                    ctx.send(prev, Tag::Checkpoint.bare(), Payload::F64s(Vec::new()));
                })
            });
            let report = panic_message(outcome.expect_err("the run must fail"));
            assert!(report.contains("5 of 5 ranks"), "{report}");
            for rank in 0..5 {
                let line = format!(
                    "rank {rank}: phase setup, blocked in recv(from {}, tag checkpoint.0)",
                    (rank + 1) % 5
                );
                assert!(report.contains(&line), "missing `{line}` in: {report}");
            }
        }
    }

    #[test]
    fn the_first_panic_is_reraised_and_every_rank_unwinds() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct CountsDrop;
        impl Drop for CountsDrop {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        // Rank 11 dies after a barrier; the other fifteen are inside (or
        // about to enter) an allreduce it will never join.
        for workers in WORKERS {
            DROPS.store(0, Ordering::SeqCst);
            let outcome = watchdog(move || {
                run_on(16, workers, |ctx| {
                    let _held = CountsDrop;
                    ctx.barrier();
                    if ctx.rank() == 11 {
                        panic!("boom on {}", ctx.rank());
                    }
                    ctx.allreduce_sum_scalar(1.0)
                })
            });
            let message = panic_message(outcome.expect_err("the run must fail"));
            assert_eq!(
                message, "boom on 11",
                "the original payload, not a secondary one"
            );
            assert_eq!(
                DROPS.load(Ordering::SeqCst),
                16,
                "every rank's frames unwound ({workers} workers)"
            );
        }
    }

    #[test]
    fn worker_count_is_invisible_to_results_and_clocks() {
        // Uneven blocks (37 is prime), tree hops across every worker, a
        // ring of point-to-point receives: values and modeled clocks must
        // not depend on how ranks share threads.
        let run = |workers: usize| {
            watchdog(move || {
                run_on(37, workers, |ctx| {
                    let next = (ctx.rank() + 1) % ctx.size();
                    let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
                    let mut x = 0.1 + ctx.rank() as f64 * 0.3;
                    for round in 0..25u32 {
                        let tag = Tag::Halo.with(round);
                        ctx.charge_flops(100 * (1 + ctx.rank() as u64 % 3));
                        ctx.send(next, tag, Payload::Scalar(x));
                        let got = ctx.recv(prev, tag).into_scalar();
                        x = ctx.allreduce_sum_scalar(x + got) / ctx.size() as f64;
                    }
                    (x.to_bits(), ctx.clock().to_bits())
                })
            })
            .expect("the run completes")
        };
        let reference = run(1);
        for workers in [2, 3, 4, 8, 37] {
            let out = run(workers);
            assert_eq!(out.results, reference.results, "{workers} workers");
            assert_eq!(
                out.modeled_time.to_bits(),
                reference.modeled_time.to_bits(),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn a_worker_that_polled_out_and_parked_is_woken_by_its_message() {
        // Rank 1 blocks in `recv` on a worker of its own. With `hold`,
        // rank 0 sends only once it sees that worker in the idle count:
        // poll expiry → park → notify, forced without a sleep. Holding the
        // message back is host time; nothing modeled may tell the two runs
        // apart.
        let run = |hold: bool| {
            watchdog(move || {
                run_on(2, 2, move |ctx| {
                    ctx.set_phase(Phase::SpMV);
                    let tag = Tag::Halo.with(1);
                    if ctx.rank() == 0 {
                        ctx.charge_flops(1_000);
                        while hold && ctx.fabric().idle.load(Ordering::SeqCst) != 1 {
                            std::thread::yield_now();
                        }
                        ctx.send(1, tag, Payload::Scalar(42.0));
                        (0, ctx.clock().to_bits())
                    } else {
                        let got = ctx.recv(0, tag).into_scalar();
                        (got.to_bits(), ctx.clock().to_bits())
                    }
                })
            })
            .expect("the run completes")
        };
        let (held, prompt) = (run(true), run(false));
        assert_eq!(held.results[1].0, 42.0f64.to_bits());
        assert_eq!(held.results, prompt.results, "payload and both clocks");
        assert_eq!(held.stats, prompt.stats);
    }

    /// One 8-rank run against the budget `live`: the `alloc_runtime` shape, a
    /// ring exchange and an allreduce per round, seeded by `run` so no two
    /// runs compute the same bits. Rank 0 calls `each_round` first thing
    /// every round; run 0 panics on rank 5 part of the way through.
    fn budgeted_ring(
        live: &AtomicUsize,
        run: usize,
        each_round: &(dyn Fn(u32) + Sync),
    ) -> std::thread::Result<SpmdOutcome<(u64, u64)>> {
        let body = |ctx: &mut Ctx| {
            let next = (ctx.rank() + 1) % ctx.size();
            let prev = (ctx.rank() + ctx.size() - 1) % ctx.size();
            let mut x = 0.1 + run as f64 + ctx.rank() as f64 * 0.3;
            for round in 0..30u32 {
                if ctx.rank() == 0 {
                    each_round(round);
                }
                assert!(run != 0 || round < 3 || ctx.rank() != 5, "run 0 dies");
                ctx.charge_flops(100 * (1 + ctx.rank() as u64 % 3));
                ctx.send(next, Tag::Halo.with(round), Payload::Scalar(x));
                let got = ctx.recv(prev, Tag::Halo.with(round)).into_scalar();
                x = ctx.allreduce_sum_scalar(x + got) / ctx.size() as f64;
            }
            (x.to_bits(), ctx.clock().to_bits())
        };
        catch_unwind(AssertUnwindSafe(|| {
            run_within(live, 8, CostModel::default(), TraceConfig::Off, body)
        }))
    }

    #[test]
    fn the_worker_budget_holds_under_nesting_and_moves_no_bit() {
        // More concurrent runs than the host has threads, against a budget
        // of the test's own (the process's is shared with the tests running
        // beside this one). Rank 0 of every run meets the others at a
        // barrier in round 0 — all runs are in flight at once, no sleep —
        // and samples the live-worker count every round.
        watchdog(|| {
            let host = host_threads();
            let runs = 2 * host + 1;
            let (live, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let all_in_flight = std::sync::Barrier::new(runs);
            let sample = |round: u32| {
                if round == 0 {
                    all_in_flight.wait();
                }
                peak.fetch_max(live.load(Ordering::SeqCst), Ordering::SeqCst);
            };
            let nested: Vec<_> = std::thread::scope(|scope| {
                let (live, sample) = (&live, &sample);
                let handles: Vec<_> = (0..runs)
                    .map(|run| scope.spawn(move || budgeted_ring(live, run, sample)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("the run's panic is caught inside"))
                    .collect()
            });
            // The runs that claimed while the host had threads left hold
            // `host` between them, every later one its calling thread only.
            // Unbudgeted, each would hold min(8, host).
            let peak = peak.load(Ordering::SeqCst);
            assert!(
                (runs..host + runs).contains(&peak),
                "{runs} runs held {peak} workers on {host} host threads"
            );
            assert_eq!(live.load(Ordering::SeqCst), 0, "run 0 unwound, too");

            // The same runs back to back: each finds the budget empty and
            // takes every host thread, and no result, counter or clock
            // differs from its starved twin's.
            for (run, nested) in nested.into_iter().enumerate() {
                let held = AtomicUsize::new(0);
                let alone = budgeted_ring(&live, run, &|_| {
                    held.store(live.load(Ordering::SeqCst), Ordering::SeqCst);
                });
                assert_eq!(held.into_inner(), host.min(8), "a lone run's workers");
                assert_eq!(live.load(Ordering::SeqCst), 0, "run {run}");
                let (Ok(nested), Ok(alone)) = (nested, alone) else {
                    assert_eq!(run, 0, "only run 0 panics");
                    continue;
                };
                assert_ne!(run, 0, "run 0 panics");
                assert_eq!(nested.results, alone.results, "run {run}");
                assert_eq!(nested.stats, alone.stats, "run {run}");
                assert_eq!(
                    nested.modeled_time.to_bits(),
                    alone.modeled_time.to_bits(),
                    "run {run}"
                );
            }
        })
        .expect("the budget holds");
    }

    /// Dyadic costs, so every clock below is exact: α = 1/16 s, one flop
    /// 1/1024 s, bytes free.
    const DYADIC: CostModel = CostModel {
        alpha: 0.0625,
        seconds_per_byte: 0.0,
        seconds_per_flop: 1.0 / 1024.0,
    };

    /// Rank 0 computes 64 flops (1/16 s) and sends rank 1 a scalar, which
    /// arrives at 1/16 + 2α = 3/16. Rank 1 first runs `debt_flops` of
    /// background work under [`Phase::VecOps`], then receives under
    /// [`Phase::SpMV`]; it returns its clock after the receive and after
    /// settling, as bits.
    fn owe_then_wait(workers: usize, debt_flops: u64) -> SpmdOutcome<(u64, u64)> {
        run_on_workers(2, workers, DYADIC, TraceConfig::Spans, |ctx| {
            if ctx.rank() == 0 {
                ctx.charge_flops(64);
                ctx.send(1, Tag::Halo.bare(), Payload::Scalar(1.0));
            } else {
                ctx.set_phase(Phase::VecOps);
                ctx.background(|ctx| ctx.charge_flops(debt_flops));
                assert_eq!(ctx.clock(), 0.0, "background work leaves the clock");
                ctx.set_phase(Phase::SpMV);
                ctx.recv(0, Tag::Halo.bare());
            }
            let after_recv = ctx.clock();
            ctx.settle_background();
            (after_recv.to_bits(), ctx.clock().to_bits())
        })
    }

    #[test]
    fn background_debt_within_the_wait_is_absorbed_by_it() {
        // Debt 1/16 s against a 3/16 s wait: the clock still ends at the
        // arrival, the debt is the first 1/16 s of the wait (a recovery-inner
        // span) and only the idle 1/8 s is receive wait.
        let out = owe_then_wait(1, 64);
        let (after_recv, settled) = out.results[1];
        assert_eq!(f64::from_bits(after_recv), 0.1875);
        assert_eq!(settled, after_recv, "nothing is left to settle");
        let st = &out.stats[1];
        assert_eq!(
            st.flops[Phase::VecOps as usize],
            64,
            "flops stay in their phase"
        );
        assert_eq!(st.modeled_time[Phase::VecOps as usize], 0.0);
        assert_eq!(st.modeled_time[Phase::RecoveryInner as usize], 0.0625);
        assert_eq!(st.recv_wait[Phase::SpMV as usize], 0.125);
        assert_eq!(st.modeled_time[Phase::SpMV as usize], 0.125);
        let spans: Vec<_> = out.trace.expect("traced").ranks[1]
            .events
            .iter()
            .filter_map(|ev| match *ev {
                TraceEvent::PhaseSpan { phase, start, end } => Some((phase, start, end)),
                _ => None,
            })
            .collect();
        assert!(
            spans.contains(&(Phase::RecoveryInner, 0.0, 0.0625)),
            "the absorbed debt is a recovery-inner span: {spans:?}"
        );
    }

    #[test]
    fn background_debt_beyond_the_wait_is_settled_exactly() {
        // Debt 1/4 s against a 3/16 s wait: the wait absorbs 3/16 s, nothing
        // is receive wait, and settling adds exactly the 1/16 s left, which
        // ends where the work would have ended on the spot.
        let out = owe_then_wait(1, 256);
        let (after_recv, settled) = out.results[1];
        assert_eq!(f64::from_bits(after_recv), 0.1875);
        assert_eq!(f64::from_bits(settled), 0.25);
        let st = &out.stats[1];
        assert_eq!(st.recv_wait[Phase::SpMV as usize], 0.0);
        assert_eq!(st.modeled_time[Phase::RecoveryInner as usize], 0.25);
        assert_eq!(st.flops[Phase::VecOps as usize], 256);
    }

    #[test]
    fn background_clocks_are_identical_at_one_and_two_workers() {
        for debt_flops in [64, 256] {
            let one = owe_then_wait(1, debt_flops);
            let two = owe_then_wait(2, debt_flops);
            assert_eq!(one.results, two.results, "{debt_flops} flops");
            assert_eq!(one.modeled_time.to_bits(), two.modeled_time.to_bits());
            for (a, b) in one.stats.iter().zip(&two.stats) {
                let bits = |v: &[f64]| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&a.modeled_time), bits(&b.modeled_time));
                assert_eq!(bits(&a.recv_wait), bits(&b.recv_wait));
            }
        }
    }

    #[test]
    #[should_panic(expected = "send inside background work is a protocol bug")]
    fn a_send_inside_background_work_panics() {
        run_on(2, 1, |ctx| {
            if ctx.rank() == 0 {
                ctx.background(|ctx| ctx.send(1, Tag::Halo.bare(), Payload::Scalar(0.0)));
            }
        });
    }

    #[test]
    #[should_panic(expected = "recv inside background work is a protocol bug")]
    fn a_recv_inside_background_work_panics() {
        run_on(2, 1, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, Tag::Halo.bare(), Payload::Scalar(0.0));
            } else {
                ctx.background(|ctx| ctx.recv(0, Tag::Halo.bare()));
            }
        });
    }

    #[test]
    fn single_rank_runs() {
        let out = run_spmd(1, CostModel::default(), |ctx| {
            let s = ctx.allreduce_sum_scalar(5.0);
            ctx.barrier();
            s
        });
        assert_eq!(out.results, vec![5.0]);
        assert_eq!(out.total_stats().total_msgs(), 0);
    }
}
