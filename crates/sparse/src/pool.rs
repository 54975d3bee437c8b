//! The persistent worker pool behind [`crate::backend::KernelBackend`].
//!
//! Thread creation costs tens of microseconds — at n ≈ 1e4 that is the same
//! order as the kernel itself, so spawning per kernel call made `par(4)`
//! *lose* to `seq` at small sizes (CHANGES.md, PR 2: a bare pooled dispatch
//! is 5.0× cheaper than a spawned one, an n = 1e4 SpMV 2.5×). Parallel
//! kernels therefore run on long-lived workers, the only dispatch path:
//!
//! * [`WorkerPool`] — `threads − 1` parked worker threads plus the caller.
//!   Each kernel call broadcasts one job closure to the active workers over
//!   per-worker channels and blocks until all of them signal completion
//!   ([`WorkerPool::broadcast`]).
//! * [`with_local_pool`] — a lazily-built, **thread-local** pool. Every OS
//!   thread that executes kernels gets its own pool — in a cluster run
//!   that is every *worker* thread of the rank scheduler, whose ranks are
//!   pinned to it and take turns — so concurrently running ranks never
//!   contend on a shared task queue and
//!   [`crate::backend::KernelBackend::subdivided`] backends on different
//!   threads share no state by construction. The pool grows (rebuilds)
//!   when a call wants more workers than it holds.
//!
//! # Determinism
//!
//! Dispatch never affects results. A job receives only its worker index;
//! which OS thread runs it is invisible to the arithmetic, so the backend's
//! bitwise-equality contract (see [`crate::backend`]) holds at every pool
//! size and across pool rebuilds — `tests/pool_lifecycle.rs` asserts this
//! against [`crate::backend::KernelBackend::Sequential`].
//!
//! # Safety model
//!
//! `broadcast` lends a non-`'static` closure to worker threads. This is
//! sound for the same reason `std::thread::scope` is: the call does not
//! return until every worker that received the job has signalled completion
//! (even when the job panics — panics are caught on the worker, forwarded,
//! and re-raised on the caller), so the borrow outlives every use.

use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

/// A type- and lifetime-erased borrow of a broadcast job closure: the raw
/// address of the caller's `F` plus a monomorphized trampoline that knows
/// how to call it. Validity of the address is the broadcast's obligation
/// (see the module's safety model).
#[derive(Clone, Copy)]
struct RawJob {
    /// `&F` as an opaque address.
    data: *const (),
    /// `trampoline::<F>`: re-types `data` and invokes the closure.
    call: unsafe fn(*const (), usize),
}

// SAFETY: the pointee is a `Sync` closure that the broadcasting thread
// keeps alive (and borrowed) until every worker has reported completion.
unsafe impl Send for RawJob {}

/// Calls the erased closure. `data` must point to a live `F`.
unsafe fn trampoline<F: Fn(usize) + Sync>(data: *const (), worker: usize) {
    (*(data as *const F))(worker)
}

/// One message to a worker thread.
enum Cmd {
    /// Run `job(worker)` and report through `done`.
    Run {
        /// The borrowed job; see the module's safety model.
        job: RawJob,
        /// This worker's index within the broadcast.
        worker: usize,
        /// Completion channel: `Ok(())` or the caught panic payload.
        done: Sender<std::thread::Result<()>>,
    },
    /// Shut the worker down (sent on [`WorkerPool::drop`]).
    Exit,
}

/// A fixed set of long-lived worker threads that execute broadcast jobs.
///
/// The pool holds `threads − 1` parked workers; the calling thread always
/// acts as worker 0, so a pool built for `threads` runs jobs at indices
/// `0..threads`. Dropping the pool shuts the workers down and joins them.
pub struct WorkerPool {
    /// Per-worker command channels, in worker order (worker `w` reads
    /// `injectors[w - 1]`).
    injectors: Vec<Sender<Cmd>>,
    /// Join handles, matching `injectors`.
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads())
            .finish()
    }
}

fn worker_loop(rx: Receiver<Cmd>) {
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Cmd::Run { job, worker, done } => {
                // SAFETY: the broadcaster keeps the closure alive until this
                // worker's completion signal is received.
                let result =
                    catch_unwind(AssertUnwindSafe(|| unsafe { (job.call)(job.data, worker) }));
                // A send failure means the broadcaster gave up (it never
                // does while the pool lives); nothing useful to do.
                let _ = done.send(result);
            }
            Cmd::Exit => break,
        }
    }
}

impl WorkerPool {
    /// Builds a pool able to run jobs at `threads` total parallelism
    /// (spawning `threads − 1` background workers; the caller is worker 0).
    pub(crate) fn new(threads: usize) -> Self {
        let extra = threads.saturating_sub(1);
        let mut injectors = Vec::with_capacity(extra);
        let mut handles = Vec::with_capacity(extra);
        for w in 0..extra {
            let (tx, rx) = channel::<Cmd>();
            let handle = std::thread::Builder::new()
                .name(format!("esrcg-pool-{}", w + 1))
                .spawn(move || worker_loop(rx))
                .expect("spawn pool worker");
            injectors.push(tx);
            handles.push(handle);
        }
        WorkerPool { injectors, handles }
    }

    /// Total parallelism: background workers plus the calling thread.
    pub(crate) fn threads(&self) -> usize {
        self.injectors.len() + 1
    }

    /// Runs `job(w)` for every `w` in `0..active` — index 0 on the calling
    /// thread, the rest on pool workers — and returns once all of them have
    /// finished. `active` is clamped to the pool's capacity.
    ///
    /// # Panics
    /// Re-raises the first panic any job raised (after all jobs finished,
    /// so borrowed data is never touched past the unwind).
    pub fn broadcast<F: Fn(usize) + Sync>(&self, active: usize, job: F) {
        let active = active.clamp(1, self.threads());
        if active == 1 {
            job(0);
            return;
        }
        // The raw pointer is only lent to workers reached through
        // `injectors`, and this function does not return (or unwind) before
        // collecting one completion per dispatched task below — the borrow
        // strictly outlives every use (module-level safety model).
        let raw = RawJob {
            data: &job as *const F as *const (),
            call: trampoline::<F>,
        };
        let (done_tx, done_rx) = channel();
        let mut dispatched = 0usize;
        for worker in 1..active {
            let cmd = Cmd::Run {
                job: raw,
                worker,
                done: done_tx.clone(),
            };
            match self.injectors[worker - 1].send(cmd) {
                Ok(()) => dispatched += 1,
                // A dead worker (impossible while the pool is intact, but
                // never worth UB): run its share inline instead.
                Err(e) => {
                    if let Cmd::Run { worker, .. } = e.0 {
                        job(worker);
                    }
                }
            }
        }
        // Worker 0 is the caller. Catch a local panic so we still wait for
        // the workers before unwinding through the borrowed closure.
        let mut first_panic = catch_unwind(AssertUnwindSafe(|| job(0))).err();
        for _ in 0..dispatched {
            match done_rx.recv() {
                Ok(Ok(())) => {}
                Ok(Err(payload)) => {
                    first_panic.get_or_insert(payload);
                }
                Err(_) => unreachable!("worker dropped its completion sender"),
            }
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for tx in &self.injectors {
            let _ = tx.send(Cmd::Exit);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

thread_local! {
    /// This OS thread's pool (each cluster-runtime worker thread, and the
    /// main thread, lazily builds its own — see the module docs).
    static LOCAL_POOL: RefCell<Option<Rc<WorkerPool>>> = const { RefCell::new(None) };
}

/// Runs `f` with this thread's persistent pool, building it on first use
/// and rebuilding (larger) when `threads` exceeds its current capacity.
///
/// The pool is handed out behind an `Rc` clone, so a job that itself calls
/// a parallel kernel re-enters the same pool without double-borrowing;
/// nested broadcasts simply queue behind the outer job's tasks.
pub fn with_local_pool<R>(threads: usize, f: impl FnOnce(&WorkerPool) -> R) -> R {
    let pool = LOCAL_POOL.with(|cell| {
        let mut slot = cell.borrow_mut();
        let needs_rebuild = slot.as_ref().is_none_or(|p| p.threads() < threads);
        if needs_rebuild {
            *slot = Some(Rc::new(WorkerPool::new(threads)));
        }
        Rc::clone(slot.as_ref().expect("just ensured"))
    });
    f(&pool)
}

/// The capacity of this thread's pool (`0` when none has been built yet).
pub fn local_pool_threads() -> usize {
    LOCAL_POOL.with(|cell| cell.borrow().as_ref().map_or(0, |p| p.threads()))
}

/// Tears down this thread's pool (workers exit and are joined once the last
/// outstanding `Rc` clone drops — immediately, unless a broadcast is live).
/// The next parallel kernel call transparently rebuilds it; results are
/// unaffected (the determinism contract). Exists for lifecycle tests and
/// for callers that want to release the worker threads eagerly.
pub fn drop_local_pool() {
    LOCAL_POOL.with(|cell| cell.borrow_mut().take());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn broadcast_runs_every_index_exactly_once() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.threads(), 4);
        for active in [1usize, 2, 3, 4, 9] {
            let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
            pool.broadcast(active, |w| {
                hits[w].fetch_add(1, Ordering::SeqCst);
            });
            let expect = active.clamp(1, 4);
            for (w, h) in hits.iter().enumerate() {
                let want = usize::from(w < expect);
                assert_eq!(h.load(Ordering::SeqCst), want, "active={active} w={w}");
            }
        }
    }

    #[test]
    fn broadcast_sees_borrowed_mutations() {
        // Disjoint writes through a shared slice must all land before
        // broadcast returns.
        let pool = WorkerPool::new(3);
        let mut data = vec![0usize; 3];
        let ptr = data.as_mut_ptr() as usize;
        pool.broadcast(3, |w| {
            // SAFETY: disjoint per-worker indices, joined before read.
            unsafe { *(ptr as *mut usize).add(w) = w + 1 };
        });
        assert_eq!(data, vec![1, 2, 3]);
    }

    #[test]
    fn pool_survives_many_rounds() {
        let pool = WorkerPool::new(2);
        let counter = AtomicUsize::new(0);
        for _ in 0..500 {
            pool.broadcast(2, |_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn worker_panic_propagates_after_join() {
        let pool = WorkerPool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(2, |w| {
                if w == 1 {
                    panic!("boom on worker");
                }
            });
        }));
        assert!(caught.is_err());
        // The pool is still usable afterwards.
        let counter = AtomicUsize::new(0);
        pool.broadcast(2, |_| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn caller_panic_propagates_after_join() {
        let pool = WorkerPool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(2, |w| {
                if w == 0 {
                    panic!("boom on caller");
                }
            });
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn local_pool_builds_grows_and_drops() {
        drop_local_pool();
        assert_eq!(local_pool_threads(), 0);
        with_local_pool(2, |p| assert_eq!(p.threads(), 2));
        assert_eq!(local_pool_threads(), 2);
        // Smaller requests reuse the existing pool…
        with_local_pool(1, |p| assert_eq!(p.threads(), 2));
        // …larger ones rebuild it.
        with_local_pool(5, |p| assert_eq!(p.threads(), 5));
        assert_eq!(local_pool_threads(), 5);
        drop_local_pool();
        assert_eq!(local_pool_threads(), 0);
    }

    #[test]
    fn local_pools_are_per_thread() {
        drop_local_pool();
        with_local_pool(3, |_| {});
        let other = std::thread::spawn(|| {
            let before = local_pool_threads();
            with_local_pool(2, |p| p.threads() + 10 * before)
        })
        .join()
        .expect("thread ran");
        // The spawned thread saw no pre-existing pool and built its own.
        assert_eq!(other, 2);
        assert_eq!(local_pool_threads(), 3);
    }

    #[test]
    fn nested_broadcast_does_not_deadlock() {
        drop_local_pool();
        let total = AtomicUsize::new(0);
        with_local_pool(2, |outer| {
            outer.broadcast(2, |w| {
                if w == 0 {
                    // Re-enter the same thread-local pool from worker 0.
                    with_local_pool(2, |inner| {
                        inner.broadcast(2, |_| {
                            total.fetch_add(1, Ordering::SeqCst);
                        });
                    });
                }
                total.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(total.load(Ordering::SeqCst), 4);
        drop_local_pool();
    }
}
