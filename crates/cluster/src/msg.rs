//! Message payloads, tag construction, and the per-rank [`BufferPool`].
//!
//! Payloads own their backing `Vec`s and move through the mailboxes by
//! value, so a buffer allocated by the sender is *owned by the receiver*
//! after delivery. The [`BufferPool`] closes that loop: receivers recycle
//! consumed payload buffers into their rank-local pool, senders take
//! pre-allocated buffers back out of it, and after a warm-up round the
//! steady-state solver exchanges halos, redundant copies, checkpoints, and
//! reduction partials without allocating per message.

/// Typed message payloads exchanged between ranks.
///
/// The solver's protocols only ever move a handful of shapes: raw `f64`
/// vectors (halo exchange, checkpoints, the recovery gather) and single
/// scalars (the clock barrier). An enum keeps the message layer
/// simple and lets the instrumentation compute payload sizes without
/// serialization.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// A single scalar (e.g. a clock-barrier round).
    Scalar(f64),
    /// A dense vector chunk.
    F64s(Vec<f64>),
}

impl Payload {
    /// Payload size in bytes, as charged by the cost model. Matches what a
    /// compact wire encoding would carry (8 bytes per value).
    pub(crate) fn bytes(&self) -> usize {
        match self {
            Payload::Scalar(_) => 8,
            Payload::F64s(v) => 8 * v.len(),
        }
    }

    /// Unwraps a `F64s` payload.
    ///
    /// # Panics
    /// Panics if the payload has a different shape — a protocol bug.
    pub fn into_f64s(self) -> Vec<f64> {
        match self {
            Payload::F64s(v) => v,
            other => panic!("protocol error: expected F64s, got {other:?}"),
        }
    }

    /// Unwraps a `Scalar` payload.
    ///
    /// # Panics
    /// Panics if the payload has a different shape.
    pub(crate) fn into_scalar(self) -> f64 {
        match self {
            Payload::Scalar(v) => v,
            other => panic!("protocol error: expected Scalar, got {other:?}"),
        }
    }
}

/// Most parked buffers a [`BufferPool`] keeps; beyond this,
/// recycled buffers are simply dropped (a backstop against pathological
/// protocols hoarding memory, not a limit any solver phase reaches).
const MAX_POOLED: usize = 64;

/// Reuse counters of a `BufferPool` (see `BufferPool::stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferPoolStats {
    /// Buffers requested via `BufferPool::take_f64s`.
    pub takes: u64,
    /// Takes served from the free list (the rest allocated fresh).
    pub hits: u64,
    /// Buffers successfully parked by the `recycle*` methods (zero-capacity
    /// and overflow buffers are dropped, not counted).
    pub recycles: u64,
    /// Most buffers parked at any point.
    pub high_water: u64,
}

impl BufferPoolStats {
    /// Takes that had to allocate fresh storage.
    pub fn misses(&self) -> u64 {
        self.takes - self.hits
    }

    /// Element-wise accumulation for aggregating across ranks (`high_water`
    /// sums too: the cluster-wide peak if every rank peaked simultaneously).
    pub fn absorb(&mut self, other: &BufferPoolStats) {
        self.takes += other.takes;
        self.hits += other.hits;
        self.recycles += other.recycles;
        self.high_water += other.high_water;
    }
}

/// Per-rank free list of payload backing buffers.
///
/// `take_f64s` hands out an **empty** buffer (pooled capacity when
/// available, fresh otherwise); `recycle*` parks a consumed buffer for the
/// next take.
/// Every [`crate::Ctx`] owns one, so the hot communication paths — halo
/// exchange, tree collectives, redundant-copy and checkpoint traffic —
/// reuse payload storage instead of allocating per message.
#[derive(Debug, Default)]
pub(crate) struct BufferPool {
    f64s: Vec<Vec<f64>>,
    stats: BufferPoolStats,
}

impl BufferPool {
    /// An empty pool.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// An empty `f64` buffer (pooled capacity when available).
    pub(crate) fn take_f64s(&mut self) -> Vec<f64> {
        self.stats.takes += 1;
        match self.f64s.pop() {
            Some(mut v) => {
                self.stats.hits += 1;
                v.clear();
                v
            }
            None => Vec::new(),
        }
    }

    /// Parks a consumed `f64` buffer for reuse.
    pub(crate) fn recycle_f64s(&mut self, mut v: Vec<f64>) {
        if self.f64s.len() < MAX_POOLED && v.capacity() > 0 {
            v.clear();
            self.f64s.push(v);
            self.stats.recycles += 1;
            let parked = self.parked() as u64;
            if parked > self.stats.high_water {
                self.stats.high_water = parked;
            }
        }
    }

    /// Parks whatever backing buffer `payload` carries (no-op for the
    /// bufferless shapes).
    pub(crate) fn recycle(&mut self, payload: Payload) {
        match payload {
            Payload::Scalar(_) => {}
            Payload::F64s(v) => self.recycle_f64s(v),
        }
    }

    /// Buffers currently parked.
    pub(crate) fn parked(&self) -> usize {
        self.f64s.len()
    }

    /// Reuse counters since construction.
    pub(crate) fn stats(&self) -> BufferPoolStats {
        self.stats
    }
}

/// An in-flight message.
#[derive(Debug, Clone)]
pub(crate) struct Message {
    /// Matching tag (see [`Tag`]).
    pub tag: u64,
    /// Modeled arrival time at the receiver (sender clock at injection plus
    /// transfer time).
    pub arrival: f64,
    /// The data.
    pub payload: Payload,
}

/// Tag namespaces for the solver's protocols.
///
/// A tag is `(kind << 32) | sub`, where `sub` disambiguates concurrent
/// messages of the same kind (an iteration number, a collective round, a
/// rank, ...). Collectives use reserved kinds so user messages can never
/// collide with them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum Tag {
    /// Internal: reduction tree traffic.
    Reduce = 1,
    /// Internal: broadcast tree traffic.
    Bcast = 2,
    /// Internal: clock-barrier rounds ([`crate::Ctx::barrier_sync_clock`]).
    Barrier = 3,
    /// Halo exchange for SpMV.
    Halo = 16,
    /// ASpMV top-ups that stand alone: redundant copies for a designated
    /// destination that receives no halo message to ride.
    Redundant = 17,
    /// IMCR checkpoint traffic.
    Checkpoint = 18,
    /// Recovery: the ESR/ESRP gather — one message per (survivor,
    /// replacement) pair carrying the redundant copies of `p^(ĵ−1)` and
    /// `p^(ĵ)`, the `x` halo (none when the event defers its `x`) and, from
    /// one survivor, the replicated scalars — and the deferred end solve's
    /// one `x` halo message per (survivor, pending halo peer) pair.
    RecoveryCopies = 19,
    /// Recovery: checkpoint retrieval (IMCR).
    RecoveryCkpt = 22,
    /// Recovery: inner-solve scatter/gather.
    RecoveryInner = 23,
    /// Pipelined-variant explicit redundant-copy exchange of the search
    /// direction (the pipelined SpMV communicates `m`, not `p`, so the
    /// ASpMV's free halo ride of `p` disappears and augmented iterations
    /// ship `p` explicitly under this kind).
    PipelinedP = 24,
    /// S-step-variant explicit redundant-copy exchange of the block-start
    /// search directions p^(ĵ−1) / p^(ĵ) (the matrix-powers sweep
    /// communicates basis columns under [`Tag::Halo`]; the protection
    /// copies ride this dedicated kind so the two streams cannot mix).
    SStepBasis = 25,
}

impl Tag {
    /// Combines the tag kind with a sub-identifier into a wire tag.
    #[inline]
    pub fn with(self, sub: u32) -> u64 {
        ((self as u64) << 32) | sub as u64
    }

    /// The bare tag (sub-identifier 0).
    #[inline]
    pub fn bare(self) -> u64 {
        self.with(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_sizes() {
        assert_eq!(Payload::F64s(Vec::new()).bytes(), 0);
        assert_eq!(Payload::Scalar(1.0).bytes(), 8);
        assert_eq!(Payload::F64s(vec![0.0; 5]).bytes(), 40);
    }

    #[test]
    fn unwrap_helpers() {
        assert_eq!(Payload::F64s(vec![1.0]).into_f64s(), vec![1.0]);
        assert_eq!(Payload::Scalar(2.5).into_scalar(), 2.5);
    }

    #[test]
    #[should_panic(expected = "protocol error")]
    fn wrong_unwrap_panics() {
        Payload::Scalar(1.0).into_f64s();
    }

    #[test]
    fn tags_are_distinct() {
        let kinds = [
            Tag::Reduce,
            Tag::Bcast,
            Tag::Barrier,
            Tag::Halo,
            Tag::Redundant,
            Tag::Checkpoint,
            Tag::RecoveryCopies,
            Tag::RecoveryCkpt,
            Tag::RecoveryInner,
            Tag::PipelinedP,
            Tag::SStepBasis,
        ];
        let mut seen = std::collections::HashSet::new();
        for k in kinds {
            assert!(seen.insert(k.with(42)));
        }
    }

    #[test]
    fn buffer_pool_reuses_capacity() {
        let mut pool = BufferPool::new();
        let first = pool.take_f64s();
        assert_eq!(pool.stats().takes, 1);
        assert_eq!(pool.stats().hits, 0);

        let mut v = first;
        v.extend_from_slice(&[1.0, 2.0, 3.0]);
        let cap = v.capacity();
        let ptr = v.as_ptr();
        pool.recycle_f64s(v);
        assert_eq!(pool.parked(), 1);

        let again = pool.take_f64s();
        assert!(again.is_empty(), "pooled buffers come back cleared");
        assert_eq!(again.capacity(), cap);
        assert_eq!(again.as_ptr(), ptr, "same allocation handed back");
        assert_eq!(pool.stats().hits, 1);
        assert_eq!(pool.parked(), 0);
    }

    #[test]
    fn buffer_pool_recycles_every_payload_shape() {
        let mut pool = BufferPool::new();
        pool.recycle(Payload::Scalar(1.0));
        assert_eq!(pool.parked(), 0, "a scalar parks nothing");
        pool.recycle(Payload::F64s(vec![1.0]));
        pool.recycle(Payload::F64s(vec![2.0, 3.0]));
        assert_eq!(pool.parked(), 2);
        assert!(pool.take_f64s().is_empty());
        assert!(pool.take_f64s().is_empty());
        assert_eq!(pool.stats().hits, 2);
    }

    #[test]
    fn buffer_pool_drops_zero_capacity_and_overflow() {
        let mut pool = BufferPool::new();
        pool.recycle_f64s(Vec::new());
        assert_eq!(pool.parked(), 0, "capacity-less buffers are not parked");
        for _ in 0..200 {
            pool.recycle_f64s(vec![0.0; 4]);
        }
        assert!(pool.parked() <= super::MAX_POOLED, "free list is bounded");
        assert_eq!(
            pool.stats().recycles,
            super::MAX_POOLED as u64,
            "dropped buffers are not counted as recycles"
        );
        assert_eq!(pool.stats().high_water, super::MAX_POOLED as u64);
    }

    #[test]
    fn buffer_pool_counts_recycles_misses_and_high_water() {
        let mut pool = BufferPool::new();
        let a = pool.take_f64s(); // miss
        pool.recycle_f64s(vec![0.0; 8]);
        pool.recycle_f64s(vec![1.0; 2]);
        assert_eq!(pool.stats().recycles, 2);
        assert_eq!(pool.stats().high_water, 2);
        let _ = pool.take_f64s(); // hit: one parked buffer leaves
        pool.recycle_f64s(vec![0.0; 8]);
        assert_eq!(
            pool.stats().high_water,
            2,
            "high-water only moves on new peaks"
        );
        drop(a);

        let s = pool.stats();
        assert_eq!(s.misses(), s.takes - s.hits);
        let mut total = BufferPoolStats::default();
        total.absorb(&s);
        total.absorb(&s);
        assert_eq!(total.takes, 2 * s.takes);
        assert_eq!(total.recycles, 2 * s.recycles);
        assert_eq!(total.high_water, 2 * s.high_water);
    }

    #[test]
    fn tag_sub_identifier_is_preserved() {
        let t = Tag::Halo.with(7);
        assert_eq!(t & 0xFFFF_FFFF, 7);
        assert_eq!(t >> 32, Tag::Halo as u64);
        assert_ne!(Tag::Halo.with(1), Tag::Halo.with(2));
    }
}
