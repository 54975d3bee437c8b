//! The bounded experiment fleet: a work-stealing job channel drained by a
//! fixed set of worker threads, with per-job panic isolation and results
//! returned in submission order.
//!
//! This is deliberately *not* the kernel worker pool
//! (`esrcg_sparse::pool`): that pool broadcasts one closure to all workers
//! and joins, which fits data-parallel kernels; a campaign instead has many
//! independent, long, unequal jobs, which fit the classic injected-channel
//! shape — workers pull `(index, job)` pairs from a shared queue until it
//! drains, so a slow cell never stalls the fleet. Each simulated cluster a
//! job spawns (`run_spmd`) still gets its per-rank kernel pools; fleet and
//! kernel pools compose without shared state.
//!
//! The fleet and the *rank* workers under it do share one thing, and it
//! lives on the other side: `run_spmd` claims its workers from a
//! process-wide budget of one per host thread, and every run in flight
//! holds at least its calling thread — here, a fleet thread. Once the fleet
//! has as many runs in flight as the host has threads, each further run
//! finds the budget spent and executes all its ranks inline on the fleet
//! thread that started it: no second scheduler thread per job, no futex
//! hand-off between two of them. A fleet narrower than the host leaves the
//! remainder to its runs' extra workers. Nothing is configured here; the
//! fleet is seen because its threads are the ones calling `run_spmd`.
//!
//! Determinism: results are collected by *submission index*, and a job's
//! outcome (modeled clocks, iteration counts, recovery reports) never
//! depends on which worker ran it or when — so any downstream aggregation
//! in index order is byte-stable across worker counts. This is asserted by
//! the campaign determinism tests.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::channel;
use std::sync::Mutex;

/// Runs every job through `workers` threads and returns one result per
/// job, **in submission order**. A job that panics yields an `Err` carrying
/// the panic message; the fleet and all other jobs keep running (per-job
/// isolation).
///
/// `progress(done, total)` is invoked on the calling thread after each job
/// completes (in completion order — progress is the one place scheduling
/// is allowed to show, and it only goes to the operator, never the report).
pub fn run_jobs<J, R, F>(
    workers: usize,
    jobs: Vec<J>,
    f: F,
    mut progress: impl FnMut(usize, usize),
) -> Vec<Result<R, String>>
where
    J: Send,
    R: Send,
    F: Fn(usize, &J) -> R + Sync,
{
    let total = jobs.len();
    if total == 0 {
        return Vec::new();
    }
    let n_workers = workers.clamp(1, total);

    // Inject every job up front; workers drain until the channel is empty.
    let (job_tx, job_rx) = channel::<(usize, J)>();
    for pair in jobs.into_iter().enumerate() {
        job_tx.send(pair).expect("receiver alive");
    }
    drop(job_tx);
    let job_rx = Mutex::new(job_rx);
    let (res_tx, res_rx) = channel::<(usize, Result<R, String>)>();

    let mut results: Vec<Option<Result<R, String>>> = (0..total).map(|_| None).collect();
    std::thread::scope(|scope| {
        for _ in 0..n_workers {
            let res_tx = res_tx.clone();
            let job_rx = &job_rx;
            let f = &f;
            scope.spawn(move || {
                loop {
                    // Hold the lock only for the pop, never across a job.
                    let next = job_rx
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .recv();
                    let Ok((idx, job)) = next else { break };
                    let out = catch_unwind(AssertUnwindSafe(|| f(idx, &job)))
                        .map_err(|payload| panic_message(payload.as_ref()));
                    if res_tx.send((idx, out)).is_err() {
                        break; // collector gone; nothing left to report to
                    }
                }
            });
        }
        drop(res_tx);
        let mut done = 0usize;
        for (idx, r) in res_rx {
            debug_assert!(results[idx].is_none(), "one result per job");
            results[idx] = Some(r);
            done += 1;
            progress(done, total);
        }
    });

    results
        .into_iter()
        .map(|slot| slot.expect("every job reported exactly once"))
        .collect()
}

/// Extracts a readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("job panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("job panicked: {s}")
    } else {
        "job panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_submission_order() {
        for workers in [1usize, 3, 8] {
            let jobs: Vec<usize> = (0..25).collect();
            let out = run_jobs(workers, jobs, |idx, &j| (idx, j * j), |_, _| {});
            assert_eq!(out.len(), 25, "{workers} workers");
            for (i, r) in out.iter().enumerate() {
                assert_eq!(r.as_ref().unwrap(), &(i, i * i), "{workers} workers");
            }
        }
    }

    #[test]
    fn panicking_jobs_are_isolated() {
        let jobs: Vec<usize> = (0..10).collect();
        let out = run_jobs(
            4,
            jobs,
            |_, &j| {
                assert!(j != 3 && j != 7, "boom at {j}");
                j + 100
            },
            |_, _| {},
        );
        for (i, r) in out.iter().enumerate() {
            if i == 3 || i == 7 {
                let msg = r.as_ref().unwrap_err();
                assert!(msg.contains("boom at"), "{msg}");
            } else {
                assert_eq!(r.as_ref().unwrap(), &(i + 100));
            }
        }
    }

    #[test]
    fn progress_reports_every_completion() {
        let mut seen = Vec::new();
        let out = run_jobs(
            2,
            vec![(); 9],
            |_, ()| (),
            |done, total| {
                seen.push((done, total));
            },
        );
        assert_eq!(out.len(), 9);
        assert_eq!(seen.len(), 9);
        assert_eq!(seen.last(), Some(&(9, 9)));
        assert!(seen.windows(2).all(|w| w[0].0 + 1 == w[1].0));
    }

    #[test]
    fn all_workers_participate_when_jobs_block() {
        // With as many sleeping jobs as workers, every worker must pick one
        // up — the fleet is genuinely concurrent, not a serial loop.
        static CONCURRENT: AtomicUsize = AtomicUsize::new(0);
        static PEAK: AtomicUsize = AtomicUsize::new(0);
        let out = run_jobs(
            4,
            vec![(); 4],
            |_, ()| {
                let now = CONCURRENT.fetch_add(1, Ordering::SeqCst) + 1;
                PEAK.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(30));
                CONCURRENT.fetch_sub(1, Ordering::SeqCst);
            },
            |_, _| {},
        );
        assert_eq!(out.len(), 4);
        assert!(
            PEAK.load(Ordering::SeqCst) >= 2,
            "at least two jobs overlapped (peak {})",
            PEAK.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn empty_fleet_is_a_no_op() {
        let out: Vec<Result<(), String>> = run_jobs(
            4,
            Vec::<()>::new(),
            |_, ()| (),
            |_, _| panic!("no progress on an empty fleet"),
        );
        assert!(out.is_empty());
    }
}
