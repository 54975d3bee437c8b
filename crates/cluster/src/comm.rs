//! The per-rank communication context: tag-matched point-to-point messaging
//! plus deterministic collectives (a tree all-reduce, a dissemination clock
//! barrier), with cost-model instrumentation and a per-rank [`BufferPool`]
//! so steady-state traffic allocates nothing.

use std::sync::Arc;

use crate::cost::CostModel;
use crate::msg::{BufferPool, BufferPoolStats, Message, Payload, Tag};
use crate::spmd::Fabric;
use crate::stats::{Phase, RankStats};
use crate::trace::{InstantKind, TraceConfig, TraceEvent, TraceRecorder};

/// Marks the wire tag of a handed-back buffer ([`Ctx::hand_back`]): above
/// every [`Tag`] kind, so it can never match a protocol message.
const HAND_BACK: u64 = 1 << 63;

/// An in-flight split-phase sum-all-reduce started by [`Ctx::allreduce_start`].
///
/// The handle owns this rank's partial accumulator (a pooled buffer) and
/// remembers where in the binomial tree the rank stopped. Ranks that send at
/// the first tree level have no receive dependency, so `start` injects their
/// contribution immediately — the message crosses the network while the
/// caller computes — and every remaining tree hop is driven by
/// [`PendingReduce::finish`]. Receives synchronize to arrival times
/// (`advance_to`), so a reduction whose latency is covered by the compute
/// between `start` and `finish` costs
/// `CostModel::overlapped_time`,
/// exactly as the split-phase halo exchange realizes it for the SpMV.
///
/// Every rank must `start` and `finish` the same collectives in the same
/// order; dropping a handle without finishing it deadlocks the tree.
#[must_use = "every started reduction must be finished, or the tree deadlocks"]
pub struct PendingReduce {
    len: usize,
    seq: u32,
    /// This rank's partial accumulator; `None` once it was forwarded up the
    /// tree (first-level senders forward during `start`).
    acc: Option<Vec<f64>>,
}

impl PendingReduce {
    /// Completes the reduction: drives the remaining reduce-tree levels
    /// (blocking on the modeled clock as needed) and the broadcast, and
    /// returns the combined vector — bitwise identical on every rank and to
    /// a blocking [`Ctx::allreduce`] of the same inputs. Blocked time is
    /// attributed to the phase current at the call (the solver runs this
    /// under `Phase::Reduction`).
    pub fn finish(self, ctx: &mut Ctx) -> Vec<f64> {
        ctx.allreduce_finish(self)
    }
}

/// The per-rank handle to the simulated cluster: identity, mailboxes,
/// logical clock, and instrumentation.
///
/// All receive operations address a specific `(source, tag)` pair, so
/// message matching — and therefore every floating-point result — is
/// independent of how the runtime schedules ranks.
pub struct Ctx {
    rank: usize,
    size: usize,
    /// The run's shared mailboxes and run queues (see [`crate::spmd`]).
    fabric: Arc<Fabric>,
    /// Recycled payload backing buffers (see [`BufferPool`]).
    buffers: BufferPool,
    cost: CostModel,
    clock: f64,
    phase: Phase,
    stats: RankStats,
    /// Monotone sequence numbers to disambiguate repeated collectives.
    coll_seq: u32,
    /// Flight recorder (a branch-only no-op at [`TraceConfig::Off`]).
    trace: TraceRecorder,
    /// Modeled compute run in the background ([`Ctx::background`]) and not
    /// yet on the clock: absorbed by later receive waits, the rest charged
    /// by [`Ctx::settle_background`].
    debt: f64,
    /// Inside [`Ctx::background`]: flop charges add to `debt`.
    in_background: bool,
}

impl Ctx {
    /// Assembles a context. Used by the SPMD runner; not part of the public
    /// surface most users touch.
    pub(crate) fn new(
        rank: usize,
        size: usize,
        fabric: Arc<Fabric>,
        cost: CostModel,
        trace: TraceConfig,
    ) -> Self {
        Ctx {
            rank,
            size,
            fabric,
            buffers: BufferPool::new(),
            cost,
            clock: 0.0,
            phase: Phase::Setup,
            stats: RankStats::default(),
            coll_seq: 0,
            trace: TraceRecorder::new(trace),
            debt: 0.0,
            in_background: false,
        }
    }

    /// The run's shared state, for runtime tests that watch the scheduler
    /// from inside a rank.
    #[cfg(test)]
    pub(crate) fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// This rank's id, in `0..size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the simulated cluster.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// The active cost model.
    #[inline]
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// Current modeled time on this rank's logical clock.
    #[inline]
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Sets the phase subsequent activity is attributed to; returns the
    /// previous phase so callers can restore it. When tracing is on, the
    /// transition closes the recorder's open phase span at the current
    /// modeled clock.
    pub fn set_phase(&mut self, phase: Phase) -> Phase {
        self.trace.on_phase(phase, self.clock);
        std::mem::replace(&mut self.phase, phase)
    }

    /// Immutable view of this rank's counters.
    pub fn stats(&self) -> &RankStats {
        &self.stats
    }

    /// Shorthand for `BufferPool::take_f64s` on this rank's pool. Protocol
    /// code takes send buffers from the pool and recycles consumed receive
    /// buffers back into it; the collectives below do so automatically.
    pub fn take_f64s(&mut self) -> Vec<f64> {
        self.buffers.take_f64s()
    }

    /// Shorthand for `BufferPool::recycle_f64s` on this rank's pool.
    pub fn recycle_f64s(&mut self, v: Vec<f64>) {
        self.buffers.recycle_f64s(v);
    }

    /// Hands the consumed buffer of a message received under `tag` back to
    /// its sender `to`, which [`Ctx::reclaim`]s it. A payload buffer moves
    /// with its message, so traffic that flows one way between two ranks
    /// would drain the sender's pool by one buffer per message and have it
    /// allocate afresh for ever; recycling suffices wherever the two ranks
    /// also exchange a message the other way. Host bookkeeping only: no
    /// modeled time passes, nothing is counted or traced.
    pub fn hand_back(&mut self, to: usize, tag: u64, buffer: Vec<f64>) {
        let msg = Message {
            tag: tag | HAND_BACK,
            arrival: 0.0,
            payload: Payload::F64s(buffer),
        };
        self.fabric.send(self.rank, to, msg);
    }

    /// Takes back the buffer of a message this rank sent to `from` under
    /// `tag` and parks it in the pool, waiting on the host (not on the
    /// modeled clock) until `from` has [`Ctx::hand_back`]ed it.
    pub fn reclaim(&mut self, from: usize, tag: u64) {
        let tag = tag | HAND_BACK;
        let msg = self
            .fabric
            .recv(self.rank, from, tag, self.phase, self.clock);
        self.buffers.recycle(msg.payload);
    }

    /// Buffer-reuse counters of this rank's pool.
    pub fn buffer_stats(&self) -> BufferPoolStats {
        self.buffers.stats()
    }

    /// Records a logical instant (iteration mark, failure trigger, …) at the
    /// current modeled clock. A no-op unless tracing is enabled.
    #[inline]
    pub fn trace_instant(&mut self, kind: InstantKind, arg: u64) {
        self.trace.instant(kind, arg, self.clock);
    }

    /// Records this rank's part of one recovery episode as a span from the
    /// clock the entry barrier of `recover()` agreed on (or, for a later
    /// span of the same episode, the rank's own clock) to the rank's own
    /// clock when its part ended. A no-op unless tracing is enabled.
    #[inline]
    pub fn trace_recovery_span(&mut self, start: f64, end: f64) {
        self.trace.recovery(start, end);
    }

    /// Consumes the context, returning the final counters, buffer-pool
    /// counters, and trace events (the recorder's open phase span is closed
    /// at the final clock). Called by the runner after the rank body
    /// finishes.
    pub(crate) fn into_parts(self) -> (RankStats, BufferPoolStats, Vec<TraceEvent>) {
        debug_assert_eq!(self.debt, 0.0, "a rank ended owing background work");
        let events = self.trace.finish(self.clock);
        (self.stats, self.buffers.stats(), events)
    }

    /// Advances the logical clock by `dt`, attributing it to the current
    /// phase.
    #[inline]
    fn advance(&mut self, dt: f64) {
        debug_assert!(dt >= 0.0, "clock must not run backwards");
        self.clock += dt;
        self.stats.modeled_time[self.phase as usize] += dt;
    }

    /// Advances the logical clock to at least `t` (no-op if already past).
    #[inline]
    fn advance_to(&mut self, t: f64) {
        if t > self.clock {
            let dt = t - self.clock;
            self.clock += dt;
            self.stats.modeled_time[self.phase as usize] += dt;
        }
    }

    /// Charges `flops` floating-point operations to the current phase and
    /// advances the clock accordingly (inside [`Ctx::background`], the
    /// background debt instead).
    pub fn charge_flops(&mut self, flops: u64) {
        self.stats.flops[self.phase as usize] += flops;
        let dt = self.cost.compute_time(flops);
        if self.in_background {
            self.debt += dt;
        } else {
            self.advance(dt);
        }
    }

    /// Runs `work` as background compute: its flops are counted under the
    /// current phase as usual, but their modeled time becomes debt instead
    /// of clock time. Each later receive that waits pays debt out of its
    /// wait (under [`Phase::RecoveryInner`]) and [`Ctx::settle_background`]
    /// charges the rest, so the clock plus the debt never exceeds the clock
    /// the work would have left on the spot. The caller settles before
    /// anything reads what `work` produced.
    ///
    /// # Panics
    /// Panics if `work` sends or receives a message, or nests another
    /// `background`: background work runs on data the rank already holds.
    pub fn background<T>(&mut self, work: impl FnOnce(&mut Ctx) -> T) -> T {
        assert!(!self.in_background, "background work does not nest");
        self.in_background = true;
        let out = work(self);
        self.in_background = false;
        out
    }

    /// Charges the background debt still owed under
    /// [`Phase::RecoveryInner`]; a no-op when nothing is owed.
    pub fn settle_background(&mut self) {
        if self.debt > 0.0 {
            let debt = std::mem::take(&mut self.debt);
            self.pay_debt(debt);
        }
    }

    /// Puts `dt` of background debt on the clock, as a
    /// [`Phase::RecoveryInner`] span.
    fn pay_debt(&mut self, dt: f64) {
        let phase = self.set_phase(Phase::RecoveryInner);
        self.advance(dt);
        self.set_phase(phase);
    }

    /// Messaging inside [`Ctx::background`] is a protocol bug.
    #[inline]
    fn assert_foreground(&self, op: &str) {
        assert!(
            !self.in_background,
            "{op} inside background work is a protocol bug"
        );
    }

    /// Sends `payload` to rank `to` under `tag`. Never blocks: the message
    /// is queued in `to`'s mailbox, whether or not `to` is still running
    /// (a message nobody receives is dropped with the run).
    ///
    /// # Panics
    /// Panics on self-sends and on unknown destination ranks (both are
    /// protocol bugs, not runtime conditions).
    pub fn send(&mut self, to: usize, tag: u64, payload: Payload) {
        self.assert_foreground("send");
        assert_ne!(to, self.rank, "self-send is a protocol bug");
        assert!(to < self.size, "send: unknown destination rank {to}");
        let bytes = payload.bytes();
        self.stats.msgs_sent[self.phase as usize] += 1;
        self.stats.bytes_sent[self.phase as usize] += bytes as u64;
        // Sender pays the injection overhead; the message then arrives after
        // the transfer time. Receiver-side synchronization happens in recv.
        self.advance(self.cost.injection_time());
        self.trace.send(to, tag, bytes, self.clock);
        let arrival = self.clock + self.cost.transfer_time(bytes);
        self.fabric.send(
            self.rank,
            to,
            Message {
                tag,
                arrival,
                payload,
            },
        );
    }

    /// Completes a receive on the modeled clock: waits (if needed) until
    /// the message's arrival time. Background debt is paid out of the wait
    /// first; the idle rest goes to the current phase's `recv_wait` counter
    /// and is returned.
    #[inline]
    fn complete_recv(&mut self, arrival: f64) -> f64 {
        if arrival > self.clock {
            let mut wait = arrival - self.clock;
            if self.debt > 0.0 {
                let absorbed = self.debt.min(wait);
                self.debt -= absorbed;
                self.pay_debt(absorbed);
                wait = arrival - self.clock;
            }
            self.stats.recv_wait[self.phase as usize] += wait;
            self.advance_to(arrival);
            wait
        } else {
            0.0
        }
    }

    /// Receives the next message from rank `from` with matching `tag`,
    /// blocking until it is delivered: the rank suspends and its worker
    /// runs other ranks meanwhile. Other messages stay in the mailbox for
    /// later receives. The receive completes at `max(clock, arrival)` on
    /// the modeled clock, whenever the host delivered the message, so
    /// results, clocks and `Full` traces do not depend on how ranks share
    /// threads. Time spent waiting for the arrival is recorded in
    /// [`RankStats::recv_wait`].
    ///
    /// # Panics
    /// Panics on self-receives and unknown source ranks. A receive nobody
    /// will ever satisfy does not hang: if another rank panicked, this rank
    /// is unwound from here (silently — `run_spmd` re-raises the original
    /// panic); if the protocol is simply wrong and every unfinished rank
    /// ends up blocked, `run_spmd` panics with a report that lists this
    /// rank and the `(from, tag)` it waits for.
    pub fn recv(&mut self, from: usize, tag: u64) -> Payload {
        self.assert_foreground("recv");
        assert_ne!(from, self.rank, "self-receive is a protocol bug");
        assert!(from < self.size, "recv: unknown source rank {from}");
        let msg = self
            .fabric
            .recv(self.rank, from, tag, self.phase, self.clock);
        let wait = self.complete_recv(msg.arrival);
        if self.trace.level() == TraceConfig::Full {
            self.trace
                .recv(from, tag, msg.payload.bytes(), wait, self.clock);
        }
        msg.payload
    }

    /// Fresh sub-identifier for a collective round.
    fn next_seq(&mut self) -> u32 {
        self.coll_seq = self.coll_seq.wrapping_add(1);
        self.coll_seq
    }

    /// Element-wise sum-all-reduce over `vals`; every rank receives the
    /// sum. Implemented as a deterministic binomial reduce to rank 0
    /// followed by a binomial broadcast, so results are bitwise
    /// reproducible and identical on all ranks.
    ///
    /// Every rank must call this the same number of times with equal-length
    /// inputs.
    pub fn allreduce(&mut self, vals: &[f64]) -> Vec<f64> {
        let pending = self.allreduce_start(vals);
        self.allreduce_finish(pending)
    }

    /// Starts a split-phase sum-all-reduce and returns a [`PendingReduce`]
    /// handle. Ranks whose first tree step is a send inject their
    /// contribution now (no receive dependency, so this is deterministic);
    /// all remaining tree traffic is driven by [`PendingReduce::finish`].
    /// Compute performed between the two calls hides the reduction latency
    /// on the modeled clock.
    pub fn allreduce_start(&mut self, vals: &[f64]) -> PendingReduce {
        let seq = self.next_seq();
        self.trace
            .instant(InstantKind::ReduceStart, seq as u64, self.clock);
        let mut acc = self.buffers.take_f64s();
        acc.extend_from_slice(vals);
        // First tree level: ranks with the low bit set forward immediately.
        if self.size > 1 && self.rank & 1 != 0 {
            self.send(self.rank ^ 1, Tag::Reduce.with(seq), Payload::F64s(acc));
            return PendingReduce {
                len: vals.len(),
                seq,
                acc: None,
            };
        }
        PendingReduce {
            len: vals.len(),
            seq,
            acc: Some(acc),
        }
    }

    /// Completes a split-phase all-reduce (see [`PendingReduce::finish`]).
    fn allreduce_finish(&mut self, pending: PendingReduce) -> Vec<f64> {
        let seq = pending.seq;
        let out = self.allreduce_finish_inner(pending);
        self.trace
            .instant(InstantKind::ReduceFinish, seq as u64, self.clock);
        out
    }

    fn allreduce_finish_inner(&mut self, pending: PendingReduce) -> Vec<f64> {
        let PendingReduce { len, seq, acc } = pending;
        let tag = Tag::Reduce.with(seq);
        let mut acc = match acc {
            Some(acc) => acc,
            // Contribution already forwarded in `start`: go straight to the
            // broadcast (the empty buffer is recycled there).
            None => return self.bcast_from_root(Vec::new(), len, seq),
        };
        // Ranks holding their accumulator re-enter the tree at the first
        // level: with the low bit clear they receive there, never send.
        let mut mask = 1usize;
        while mask < self.size {
            if self.rank & mask != 0 {
                let dst = self.rank ^ mask; // clears the bit: dst < rank
                self.send(dst, tag, Payload::F64s(acc));
                return self.bcast_from_root(Vec::new(), len, seq);
            }
            let partner = self.rank | mask;
            if partner < self.size {
                let incoming = self.recv(partner, tag).into_f64s();
                // One flop per combined element.
                self.stats.flops[self.phase as usize] += incoming.len() as u64;
                self.advance(self.cost.compute_time(incoming.len() as u64));
                debug_assert_eq!(acc.len(), incoming.len(), "reduce: length mismatch");
                for (a, b) in acc.iter_mut().zip(incoming.iter()) {
                    *a += b;
                }
                self.buffers.recycle_f64s(incoming);
            }
            mask <<= 1;
        }
        self.bcast_from_root(acc, len, seq)
    }

    /// Convenience scalar sum-all-reduce (result buffer recycled in place).
    pub fn allreduce_sum_scalar(&mut self, val: f64) -> f64 {
        let out = self.allreduce(&[val]);
        let v = out[0];
        self.buffers.recycle_f64s(out);
        v
    }

    /// Binomial-tree broadcast from rank 0 of a vector of length `len`.
    /// Child forwards copy into pooled buffers; the final vector is returned
    /// to the caller (who may recycle it via [`Ctx::recycle_f64s`]).
    fn bcast_from_root(&mut self, mut data: Vec<f64>, len: usize, seq: u32) -> Vec<f64> {
        let tag = Tag::Bcast.with(seq);
        // Lowest set bit of the rank determines when it receives; rank 0
        // behaves as if its low bit were the tree height.
        let top = self.size.next_power_of_two();
        let lowbit = if self.rank == 0 {
            top
        } else {
            self.rank & self.rank.wrapping_neg()
        };
        if self.rank != 0 {
            let src = self.rank ^ lowbit;
            self.buffers.recycle_f64s(data);
            data = self.recv(src, tag).into_f64s();
            debug_assert_eq!(data.len(), len, "bcast: length mismatch");
        }
        // Forward to children: rank + m for every power of two m < lowbit.
        let mut m = lowbit >> 1;
        while m > 0 {
            let dst = self.rank + m;
            if dst < self.size {
                let mut copy = self.buffers.take_f64s();
                copy.extend_from_slice(&data);
                self.send(dst, tag, Payload::F64s(copy));
            }
            m >>= 1;
        }
        data
    }

    /// Synchronizes all ranks and their logical clocks, and returns the
    /// maximum clock with which any rank entered — the same bits on every
    /// rank. Every rank leaves with its clock at or past that value.
    ///
    /// A dissemination barrier (the algorithm of MPICH's `MPI_Barrier`): in
    /// round d = 1, 2, 4, … < N each rank sends the largest entering clock
    /// it has seen to rank + d and folds in the one from rank − d (mod N).
    /// After ⌈log₂N⌉ rounds every rank has heard, through some chain, from
    /// every other, and a maximum is exact in any order. With equal entering
    /// clocks the barrier costs ⌈log₂N⌉(2α + 8β), half the hops of a reduce
    /// followed by a broadcast.
    pub fn barrier_sync_clock(&mut self) -> f64 {
        let tag = Tag::Barrier.with(self.next_seq());
        let mut t = self.clock;
        let mut d = 1;
        while d < self.size {
            let to = (self.rank + d) % self.size;
            let from = (self.rank + self.size - d) % self.size;
            self.send(to, tag, Payload::Scalar(t));
            t = t.max(self.recv(from, tag).into_scalar());
            d <<= 1;
        }
        self.advance_to(t);
        t
    }

    /// Plain barrier (no payload beyond the collective itself).
    pub fn barrier(&mut self) {
        let out = self.allreduce(&[]);
        self.buffers.recycle_f64s(out);
    }
}

// Tests for the communication layer live in `spmd.rs`, which provides the
// runtime they need.
