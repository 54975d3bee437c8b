//! Stackful coroutines: what lets a rank body stay an ordinary synchronous
//! closure while [`run_spmd`](crate::run_spmd) multiplexes many ranks over
//! a few worker threads. This file owns every `unsafe` block of the crate.
//!
//! The interface is three functions. [`Coro::new`] wraps a closure,
//! [`Coro::resume`] runs it on its own stack until it either calls
//! [`suspend`] (`None`) or ends (`Some`, carrying the panic payload if it
//! panicked — a panic never crosses a switch), and dropping a `Coro` that is
//! suspended mid-body *unwinds* it, so the body's destructors run and
//! nothing borrowed by the closure is used after `'a`.
//!
//! A coroutine never changes OS thread: it is resumed only by the thread
//! that created it (`Coro` is `!Send`). That pinning is what keeps
//! thread-local state — the kernel worker pool of `esrcg_sparse::pool` —
//! valid across a suspension.
//!
//! Two implementations sit behind the interface, selected at build time.
//! On x86-64 Linux, [`native`] switches stacks in user space (an `mmap`'d
//! stack per coroutine, reused by the thread's next coroutine once the body
//! has ended, and a callee-saved-register swap). Every other
//! target gets [`threaded`], which backs each coroutine with a parked OS
//! thread; it is compiled and unit-tested on every target. ARCHITECTURE.md
//! ("The coroutine safety contract") states the invariants in full.

/// The unwind payload [`suspend`] raises in a coroutine whose `Coro` is
/// being dropped. Raised with `resume_unwind`, so no panic hook runs and
/// nothing is printed.
struct Cancelled;

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub(crate) use native::{suspend, Coro};
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
pub(crate) use threaded::{suspend, Coro};

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod native {
    use std::cell::{Cell, RefCell};
    use std::ffi::{c_int, c_void};
    use std::marker::PhantomData;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::ptr::{self, NonNull};

    use super::Cancelled;

    /// Usable stack per coroutine. Mapped `MAP_NORESERVE`, so only the
    /// pages a rank actually touches are ever backed by memory.
    const STACK_BYTES: usize = 1 << 20;
    /// One inaccessible page below the stack: an overflow faults instead
    /// of running into the neighbouring mapping.
    const GUARD_BYTES: usize = 4096;

    const PROT_NONE: c_int = 0;
    const PROT_READ: c_int = 1;
    const PROT_WRITE: c_int = 2;
    const MAP_PRIVATE: c_int = 0x02;
    const MAP_ANONYMOUS: c_int = 0x20;
    const MAP_NORESERVE: c_int = 0x4000;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// An anonymous private mapping: guard page at the low end, stack above.
    struct Stack {
        base: NonNull<u8>,
    }

    impl Stack {
        fn new() -> Stack {
            let len = GUARD_BYTES + STACK_BYTES;
            // SAFETY: an anonymous private mapping at a kernel-chosen
            // address aliases no existing memory; the result is checked.
            let base = unsafe {
                mmap(
                    ptr::null_mut(),
                    len,
                    PROT_NONE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                    -1,
                    0,
                )
            };
            assert!(
                base as isize != -1,
                "coroutine stack: mmap failed: {}",
                std::io::Error::last_os_error()
            );
            let stack = Stack {
                base: NonNull::new(base.cast()).expect("mmap returned a non-null mapping"),
            };
            // SAFETY: the range lies inside the mapping created above,
            // which this `Stack` owns exclusively.
            let rc = unsafe {
                mprotect(
                    stack.base.as_ptr().add(GUARD_BYTES).cast(),
                    STACK_BYTES,
                    PROT_READ | PROT_WRITE,
                )
            };
            assert!(
                rc == 0,
                "coroutine stack: mprotect failed: {}",
                std::io::Error::last_os_error()
            );
            stack
        }

        /// One past the highest stack byte; page- and so 16-byte-aligned.
        fn top(&self) -> *mut usize {
            // SAFETY: one past the end of the mapping this `Stack` owns.
            unsafe { self.base.as_ptr().add(GUARD_BYTES + STACK_BYTES).cast() }
        }
    }

    impl Drop for Stack {
        fn drop(&mut self) {
            // SAFETY: unmaps exactly the mapping `new` created. `Coro`
            // drops its stack only once no frame on it can run again.
            let rc = unsafe { munmap(self.base.as_ptr().cast(), GUARD_BYTES + STACK_BYTES) };
            debug_assert_eq!(rc, 0, "coroutine stack: munmap failed");
        }
    }

    /// The state both sides of a switch share. Heap-allocated so its
    /// address, which the coroutine's first frame receives in `r12`, is
    /// stable; reached only through raw pointers, because resumer and
    /// coroutine both write it (never at once: one of them is always
    /// frozen inside [`switch`]).
    struct Inner<'a> {
        /// The stack pointer of whichever side is *not* running.
        sp: *mut u8,
        /// The body, until the first resume takes it.
        body: Option<Box<dyn FnOnce() + Send + 'a>>,
        /// How the body ended; written once, by [`entry`].
        outcome: Option<std::thread::Result<()>>,
        /// Set by `Drop`: the next return from `suspend` unwinds.
        cancelled: bool,
    }

    thread_local! {
        /// The coroutine running on this OS thread (null outside any).
        /// Sound as a thread-local because coroutines are pinned.
        static CURRENT: Cell<*mut u8> = const { Cell::new(ptr::null_mut()) };

        /// Stacks of this thread's ended coroutines, taken by its next
        /// [`Coro::new`]s before any fresh mapping: a thread holds at most
        /// as many stacks as it ever had coroutines alive at once. Unmapped
        /// when the thread exits.
        static SPARE: RefCell<Vec<Stack>> = const { RefCell::new(Vec::new()) };
    }

    /// How many spare stacks this thread holds.
    #[cfg(test)]
    pub(super) fn spare_stacks() -> usize {
        SPARE.with_borrow(Vec::len)
    }

    /// A closure running on its own stack (see the module docs).
    pub(crate) struct Coro<'a> {
        inner: NonNull<Inner<'a>>,
        /// Held only to keep the mapping alive; handed to [`SPARE`] after
        /// `drop` has ended the body (`None` only inside `drop`).
        stack: Option<Stack>,
        done: bool,
        /// Owns an `Inner<'a>`; the raw pointer also makes `Coro: !Send`.
        _owns: PhantomData<Box<Inner<'a>>>,
    }

    /// Saves the callee-saved registers and stack pointer of the running
    /// side to `*save` and continues the side whose stack pointer is
    /// `load`. `load` is read before `*save` is written, so both may name
    /// the same slot.
    ///
    /// # Safety
    /// `load` must be a stack pointer this function saved earlier, or the
    /// initial frame [`Coro::new`] lays out; the stack it points into must
    /// be live, and no other thread may be using it.
    #[unsafe(naked)]
    unsafe extern "C" fn switch(save: *mut *mut u8, load: *mut u8) {
        // System V x86-64: rdi = save, rsi = load. Everything else the ABI
        // lets a callee clobber, the caller has already given up on.
        std::arch::naked_asm!(
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "mov [rdi], rsp",
            "mov rsp, rsi",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "ret",
        )
    }

    /// First frame of every coroutine. Entered by `switch`'s `ret` with
    /// `rsp ≡ 0 (mod 16)`, so the `call` below meets the ABI's entry
    /// alignment. `.cfi_undefined rip` marks the frame as outermost: a
    /// backtrace taken on the coroutine stops here.
    #[unsafe(naked)]
    unsafe extern "C" fn trampoline() {
        std::arch::naked_asm!(
            ".cfi_startproc",
            ".cfi_undefined rip",
            "mov rdi, r12",
            "call {entry}",
            "ud2",
            ".cfi_endproc",
            entry = sym entry,
        )
    }

    /// Runs the body under `catch_unwind` — unwinding stops here, one frame
    /// above the trampoline — records how it ended, and switches back for
    /// the last time.
    extern "C" fn entry(inner: *mut u8) -> ! {
        let inner = inner.cast::<Inner<'_>>();
        // SAFETY: `inner` is the live `Inner` whose address `Coro::new` put
        // in the initial frame; the resumer is frozen in `switch`, so this
        // side has exclusive access.
        let body = unsafe { (*inner).body.take() }.expect("a coroutine is entered once");
        let outcome = catch_unwind(AssertUnwindSafe(body));
        // SAFETY: as above; `sp` holds the resumer's stack pointer, saved
        // by the `switch` that resumed this coroutine.
        unsafe {
            (*inner).outcome = Some(outcome);
            let resumer = (*inner).sp;
            switch(&raw mut (*inner).sp, resumer);
        }
        unreachable!("a finished coroutine is never resumed")
    }

    impl<'a> Coro<'a> {
        /// A coroutine that will run `body` at the first [`Coro::resume`],
        /// on a spare stack of this thread's if there is one. A fresh stack
        /// costs one `mmap` + `mprotect` and one touched page.
        pub(crate) fn new(body: impl FnOnce() + Send + 'a) -> Coro<'a> {
            let stack = SPARE.with_borrow_mut(Vec::pop).unwrap_or_else(Stack::new);
            let inner = Box::into_raw(Box::new(Inner {
                sp: ptr::null_mut(),
                body: Some(Box::new(body)),
                outcome: None,
                cancelled: false,
            }));
            let top = stack.top();
            // SAFETY: the nine words below `top` lie in the writable part
            // of the mapping, which a reused stack leaves holding an ended
            // body's frames, so every word is written: the frame `switch`
            // pops is r15 r14 r13 r12 rbx rbp (words 9..=4 below `top`),
            // then the return address (word 3). rbp and word 2 — the
            // trampoline's own "return address" — are zero, where a
            // frame-pointer walk ends, and after the `ret` rsp = top − 16,
            // 16-byte aligned. `inner` is non-null (it came from a `Box`).
            unsafe {
                let entry = trampoline as *const () as usize;
                let frame = [0, 0, 0, inner as usize, 0, 0, entry, 0, 0];
                top.sub(9).cast::<[usize; 9]>().write(frame);
                (*inner).sp = top.sub(9).cast();
                Coro {
                    inner: NonNull::new_unchecked(inner),
                    stack: Some(stack),
                    done: false,
                    _owns: PhantomData,
                }
            }
        }

        /// Runs the body until it suspends (`None`) or ends (`Some`; `Err`
        /// carries the payload of a panic in the body).
        ///
        /// # Panics
        /// Panics if the body has already ended.
        pub(crate) fn resume(&mut self) -> Option<std::thread::Result<()>> {
            assert!(!self.done, "resumed a finished coroutine");
            let inner = self.inner.as_ptr();
            let outer = CURRENT.replace(inner.cast());
            // SAFETY: `inner` lives until `drop`. The coroutine is not
            // running (it is `!Send` and this thread is here), so `sp` is
            // its initial frame or what its last `switch` saved, on a stack
            // that `self.stack` keeps mapped and that only this thread
            // uses. The closure's borrows are valid: `&mut self` proves
            // `'a` has not ended.
            let outcome = unsafe {
                let target = (*inner).sp;
                switch(&raw mut (*inner).sp, target);
                (*inner).outcome.take()
            };
            CURRENT.set(outer);
            self.done = outcome.is_some();
            outcome
        }
    }

    /// Suspends the coroutine running on this thread: its [`Coro::resume`]
    /// returns `None`, and this call returns when it is resumed again.
    /// Unwinds instead if the `Coro` is being dropped.
    ///
    /// # Panics
    /// Panics if no coroutine is running on this thread.
    pub(crate) fn suspend() {
        let inner = CURRENT.get().cast::<Inner<'_>>();
        assert!(!inner.is_null(), "suspend called outside a coroutine");
        // SAFETY: `CURRENT` is non-null only between a `resume`'s two
        // switches, so `inner` is live, its resumer is frozen in `switch`,
        // and `sp` holds that resumer's stack pointer.
        let cancelled = unsafe {
            if !(*inner).cancelled {
                let resumer = (*inner).sp;
                switch(&raw mut (*inner).sp, resumer);
            }
            (*inner).cancelled
        };
        if cancelled {
            resume_unwind(Box::new(Cancelled));
        }
    }

    impl Drop for Coro<'_> {
        fn drop(&mut self) {
            let inner = self.inner.as_ptr();
            // SAFETY: `inner` is live and the coroutine is not running.
            let mid_body = !self.done && unsafe { (*inner).body.is_none() };
            if mid_body {
                // Frames on the stack may borrow from `'a`: unwind them now
                // rather than abandon them. `suspend` raises `Cancelled`,
                // `entry` catches it, and the coroutine ends.
                // SAFETY: as above.
                unsafe { (*inner).cancelled = true };
                let _ = self.resume();
            }
            // SAFETY: `inner` came from `Box::into_raw` in `new` and is
            // freed exactly once; the coroutine has ended or never started,
            // so nothing will reach it (or the stack) again.
            drop(unsafe { Box::from_raw(inner) });
            // No frame on the stack can run again, so the next coroutine may
            // overwrite it. During thread exit the list may be gone already;
            // then the closure, and with it the stack, is dropped: unmapped.
            let stack = self.stack.take();
            let _ = SPARE.try_with(move |spare| spare.borrow_mut().extend(stack));
        }
    }
}

#[cfg(any(test, not(all(target_arch = "x86_64", target_os = "linux"))))]
#[cfg_attr(all(target_arch = "x86_64", target_os = "linux"), allow(dead_code))]
mod threaded {
    use std::cell::RefCell;
    use std::marker::PhantomData;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::thread::JoinHandle;

    use super::Cancelled;

    /// Whose turn it is, and how the body ended.
    struct State {
        /// True while the coroutine's thread may run.
        running: bool,
        cancelled: bool,
        outcome: Option<std::thread::Result<()>>,
    }

    struct Handoff {
        state: Mutex<State>,
        turn: Condvar,
    }

    impl Handoff {
        fn lock(&self) -> MutexGuard<'_, State> {
            self.state
                .lock()
                .expect("no panic happens while the handoff lock is held")
        }

        /// Blocks until it is the coroutine's turn (`true`) or the
        /// resumer's (`false`).
        fn wait_for_turn(&self, coroutine: bool) -> MutexGuard<'_, State> {
            self.turn
                .wait_while(self.lock(), |state| state.running != coroutine)
                .expect("no panic happens while the handoff lock is held")
        }

        /// Gives the turn to the other side and blocks until it comes back.
        fn pass_turn(&self, to_coroutine: bool) -> MutexGuard<'_, State> {
            self.lock().running = to_coroutine;
            self.turn.notify_all();
            self.wait_for_turn(!to_coroutine)
        }
    }

    thread_local! {
        /// The handoff of the coroutine this OS thread backs.
        static CURRENT: RefCell<Option<Arc<Handoff>>> = const { RefCell::new(None) };
    }

    /// A closure running on its own parked OS thread (see the module docs).
    pub(crate) struct Coro<'a> {
        handoff: Arc<Handoff>,
        thread: Option<JoinHandle<()>>,
        done: bool,
        /// The thread borrows for `'a`; `*mut` keeps `Coro: !Send`, like
        /// the native implementation.
        _body: PhantomData<(&'a (), *mut ())>,
    }

    impl<'a> Coro<'a> {
        /// A coroutine that will run `body` on its own thread at the first
        /// [`Coro::resume`].
        pub(crate) fn new(body: impl FnOnce() + Send + 'a) -> Coro<'a> {
            let handoff = Arc::new(Handoff {
                state: Mutex::new(State {
                    running: false,
                    cancelled: false,
                    outcome: None,
                }),
                turn: Condvar::new(),
            });
            let theirs = Arc::clone(&handoff);
            let run = move || {
                CURRENT.set(Some(Arc::clone(&theirs)));
                let cancelled = theirs.wait_for_turn(true).cancelled;
                let outcome = if cancelled {
                    Ok(()) // dropped before the first resume: the body never runs
                } else {
                    catch_unwind(AssertUnwindSafe(body))
                };
                let mut state = theirs.lock();
                state.outcome = Some(outcome);
                state.running = false;
                theirs.turn.notify_all();
            };
            // SAFETY: `spawn_unchecked` requires the thread to be joined
            // before anything `run` borrows (`'a`) ends. `Drop` joins it,
            // after making the body end; and if the `Coro` is leaked
            // instead, the thread stays blocked in `pass_turn` forever,
            // because it runs only while a `resume` call — which holds
            // `&mut Coro<'a>`, so `'a` is live — is waiting for it.
            let thread = unsafe { std::thread::Builder::new().spawn_unchecked(run) }
                .expect("spawning a coroutine thread");
            Coro {
                handoff,
                thread: Some(thread),
                done: false,
                _body: PhantomData,
            }
        }

        /// Runs the body until it suspends (`None`) or ends (`Some`; `Err`
        /// carries the payload of a panic in the body).
        ///
        /// # Panics
        /// Panics if the body has already ended.
        pub(crate) fn resume(&mut self) -> Option<std::thread::Result<()>> {
            assert!(!self.done, "resumed a finished coroutine");
            let outcome = self.handoff.pass_turn(true).outcome.take();
            self.done = outcome.is_some();
            outcome
        }
    }

    /// Suspends the coroutine running on this thread: its [`Coro::resume`]
    /// returns `None`, and this call returns when it is resumed again.
    /// Unwinds instead if the `Coro` is being dropped.
    ///
    /// # Panics
    /// Panics if this thread does not back a coroutine.
    pub(crate) fn suspend() {
        let handoff = CURRENT
            .with_borrow(Option::clone)
            .expect("suspend called outside a coroutine");
        let cancelled = handoff.pass_turn(false).cancelled;
        if cancelled {
            resume_unwind(Box::new(Cancelled));
        }
    }

    impl Drop for Coro<'_> {
        fn drop(&mut self) {
            if !self.done {
                self.handoff.lock().cancelled = true;
                let _ = self.resume();
            }
            if let Some(thread) = self.thread.take() {
                // The body's outcome was already taken through the
                // handoff; the thread itself cannot have panicked.
                let _ = thread.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// The same contract, checked against both implementations.
    macro_rules! contract_tests {
        ($imp:ident, $many:expr) => {
            mod $imp {
                use super::super::$imp::{suspend, Coro};
                use super::*;

                #[test]
                fn suspended_n_times_resumes_n_times_in_order() {
                    const N: usize = 100;
                    let log = Mutex::new(Vec::new());
                    let mut coro = Coro::new(|| {
                        for i in 0..N {
                            log.lock().unwrap().push(('c', i));
                            suspend();
                        }
                        log.lock().unwrap().push(('c', N));
                    });
                    for i in 0..N {
                        log.lock().unwrap().push(('r', i));
                        assert!(coro.resume().is_none(), "suspension {i}");
                    }
                    log.lock().unwrap().push(('r', N));
                    assert!(matches!(coro.resume(), Some(Ok(()))));
                    let expected: Vec<_> = (0..=N).flat_map(|i| [('r', i), ('c', i)]).collect();
                    assert_eq!(*log.lock().unwrap(), expected);
                }

                #[test]
                fn interleaved_coroutines_keep_their_own_locals() {
                    let sums = Mutex::new(Vec::new());
                    let mut coros: Vec<_> = (0..8usize)
                        .map(|id| {
                            let sums = &sums;
                            Coro::new(move || {
                                let mut acc = id;
                                for step in 0..5 {
                                    acc += step * id;
                                    suspend();
                                }
                                sums.lock().unwrap().push((id, acc));
                            })
                        })
                        .collect();
                    for _ in 0..5 {
                        for coro in &mut coros {
                            assert!(coro.resume().is_none());
                        }
                    }
                    for coro in &mut coros {
                        assert!(matches!(coro.resume(), Some(Ok(()))));
                    }
                    let expected: Vec<_> = (0..8).map(|id| (id, id + 10 * id)).collect();
                    assert_eq!(*sums.lock().unwrap(), expected);
                }

                #[test]
                fn a_panic_in_the_body_is_returned_not_propagated() {
                    let mut coro = Coro::new(|| {
                        suspend();
                        std::panic::resume_unwind(Box::new("boom"));
                    });
                    assert!(coro.resume().is_none());
                    let payload = coro.resume().expect("ended").expect_err("panicked");
                    assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
                }

                #[test]
                fn dropping_a_suspended_coroutine_unwinds_its_frames() {
                    struct Bump<'a>(&'a AtomicUsize);
                    impl Drop for Bump<'_> {
                        fn drop(&mut self) {
                            self.0.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    let drops = AtomicUsize::new(0);
                    let reached_end = AtomicUsize::new(0);
                    let mut coro = Coro::new(|| {
                        let _guard = Bump(&drops);
                        suspend();
                        reached_end.fetch_add(1, Ordering::SeqCst);
                    });
                    assert!(coro.resume().is_none());
                    assert_eq!(drops.load(Ordering::SeqCst), 0);
                    drop(coro);
                    assert_eq!(drops.load(Ordering::SeqCst), 1, "the frame was unwound");
                    assert_eq!(reached_end.load(Ordering::SeqCst), 0, "not continued");
                }

                #[test]
                fn a_coroutine_dropped_before_its_first_resume_never_runs() {
                    let ran = AtomicUsize::new(0);
                    drop(Coro::new(|| {
                        ran.fetch_add(1, Ordering::SeqCst);
                    }));
                    assert_eq!(ran.load(Ordering::SeqCst), 0);
                }

                #[test]
                fn a_coroutine_can_drive_another() {
                    let log = Mutex::new(Vec::new());
                    let mut outer = Coro::new(|| {
                        let mut inner = Coro::new(|| {
                            log.lock().unwrap().push("inner 1");
                            suspend();
                            log.lock().unwrap().push("inner 2");
                        });
                        assert!(inner.resume().is_none());
                        log.lock().unwrap().push("outer 1");
                        suspend(); // must suspend `outer`, not `inner`
                        assert!(matches!(inner.resume(), Some(Ok(()))));
                    });
                    assert!(outer.resume().is_none());
                    log.lock().unwrap().push("driver");
                    assert!(matches!(outer.resume(), Some(Ok(()))));
                    assert_eq!(
                        *log.lock().unwrap(),
                        ["inner 1", "outer 1", "driver", "inner 2"]
                    );
                }

                #[test]
                fn a_backtrace_taken_inside_a_coroutine_terminates() {
                    // What the panic hook does under RUST_BACKTRACE=1: the
                    // walk must end at the coroutine's first frame.
                    let frames = Mutex::new(String::new());
                    let mut coro = Coro::new(|| {
                        suspend();
                        *frames.lock().unwrap() =
                            std::backtrace::Backtrace::force_capture().to_string();
                    });
                    assert!(coro.resume().is_none());
                    assert!(matches!(coro.resume(), Some(Ok(()))));
                    assert!(!frames.lock().unwrap().is_empty());
                }

                #[test]
                fn many_coroutines_can_be_created_and_dropped() {
                    let ran = AtomicUsize::new(0);
                    let mut coros: Vec<_> = (0..$many)
                        .map(|_| {
                            Coro::new(|| {
                                ran.fetch_add(1, Ordering::SeqCst);
                                suspend();
                            })
                        })
                        .collect();
                    for coro in &mut coros {
                        assert!(coro.resume().is_none());
                    }
                    drop(coros);
                    assert_eq!(ran.load(Ordering::SeqCst), $many);
                }
            }
        };
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    contract_tests!(native, 4096);
    contract_tests!(threaded, 64);

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    #[test]
    fn a_deep_call_chain_fits_the_native_stack() {
        // A few hundred KiB of live frames — far more than a rank body
        // uses — to show the mapping is writable well below its top.
        fn descend(depth: usize) -> usize {
            let pad = std::hint::black_box([depth; 128]);
            if depth == 0 {
                pad[0]
            } else {
                descend(depth - 1) + pad[127] - depth + 1
            }
        }
        let result = Mutex::new(0);
        let mut coro = super::native::Coro::new(|| {
            *result.lock().unwrap() = descend(200);
        });
        assert!(matches!(coro.resume(), Some(Ok(()))));
        assert_eq!(*result.lock().unwrap(), 200);
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    #[test]
    fn an_ended_coroutines_stack_is_reused_by_the_next() {
        use super::native::{spare_stacks, suspend, Coro};
        // Where the body's first local lands: the same address on the same
        // stack.
        fn local_addr() -> usize {
            let local = 0u8;
            std::hint::black_box(&local) as *const u8 as usize
        }
        /// A coroutine that records `local_addr` in `addr`, runs `body` and
        /// suspends.
        fn started<'a>(addr: &'a AtomicUsize, body: &'a (dyn Fn() + Sync)) -> Coro<'a> {
            let mut coro = Coro::new(move || {
                addr.store(local_addr(), Ordering::SeqCst);
                body();
                suspend();
            });
            assert!(coro.resume().is_none());
            coro
        }
        let addrs: [AtomicUsize; 5] = Default::default();
        let at = |k: usize| addrs[k].load(Ordering::SeqCst);
        let nothing = || {};
        // A body that dirties its stack far down, then is unwound mid-body:
        // its stack becomes this thread's one spare.
        let dirty = || {
            std::hint::black_box([usize::MAX; 4096]);
        };
        assert_eq!(spare_stacks(), 0);
        drop(started(&addrs[0], &dirty));
        assert_eq!(spare_stacks(), 1);
        // The next coroutine runs on that stack: its initial frame must be
        // rewritten, not found zeroed, for it to start, unwind and leave a
        // terminating backtrace.
        let traced = || {
            let frames = std::backtrace::Backtrace::force_capture().to_string();
            assert!(!frames.is_empty());
        };
        let again = started(&addrs[1], &traced);
        assert_eq!(spare_stacks(), 0, "the spare stack is taken");
        assert_eq!(at(1), at(0), "and it is the ended coroutine's");
        // While it is alive, a third coroutine needs a stack of its own.
        let other = started(&addrs[2], &nothing);
        assert_ne!(at(2), at(1), "a live coroutine's stack is never shared");
        drop((again, other));
        assert_eq!(spare_stacks(), 2, "as many as were ever alive at once");
        let both = (started(&addrs[3], &nothing), started(&addrs[4], &nothing));
        assert_eq!(spare_stacks(), 0, "no third mapping while two are spare");
        let mut reused = [at(3), at(4)];
        reused.sort_unstable();
        let mut spare = [at(1), at(2)];
        spare.sort_unstable();
        assert_eq!(reused, spare);
        drop(both);
        assert_eq!(spare_stacks(), 2);
    }
}
