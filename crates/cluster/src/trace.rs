//! Deterministic flight recorder: modeled-clock span/instant events per rank.
//!
//! Every rank's [`Ctx`](crate::Ctx) owns a [`TraceRecorder`]. When tracing is
//! enabled the recorder logs *modeled-clock* timestamps — phase transitions as
//! spans, recoveries as spans, and iteration marks / failures / collective
//! boundaries / sends / recvs as instants. Because the modeled clock is
//! host-independent and every communication event is scheduled by a
//! deterministic protocol (tag-matched point-to-point channels, binomial
//! collective trees, source-ordered halo drains), the recorded event stream is
//! a pure function of the run's inputs: merged traces are byte-identical
//! across kernel thread counts, rank-scheduler workers and campaign
//! `--workers`, and can therefore be `cmp`-tested like any other artifact.
//!
//! Two renderers are provided:
//!
//! * [`MergedTrace::to_perfetto_json`] — Chrome/Perfetto trace-event JSON
//!   (one track per rank; phases and recoveries as complete `"X"` spans,
//!   failures/iterations/collectives as `"i"` instants), and
//! * [`MergedTrace::rollup`] — a [`MetricsRollup`] of per-phase span
//!   counts/durations, the replicated logical marks, recovery time and
//!   buffer pool counters (rendered to JSON by `esrcg-campaign`'s report).
//!
//! Per-message detail lives in the `Full` level's send/receive events
//! only; the per-phase message and byte totals live in
//! [`RankStats`](crate::RankStats).
//!
//! The default level is [`TraceConfig::Off`]: a single enum compare per hook,
//! no allocation (the event `Vec` is never grown), and no effect whatsoever
//! on the modeled clock — tracing at any level never advances time.

use crate::json::{self, Value};
use crate::msg::BufferPoolStats;
use crate::stats::{Phase, N_PHASES};

/// How much the flight recorder captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceConfig {
    /// No recording at all. Branch-only, zero-allocation overhead.
    #[default]
    Off,
    /// Phase spans, recovery spans, and logical instants (iterations,
    /// failures, checkpoint/storage rounds, tuner decisions, allreduce
    /// start/finish). No per-message events.
    Spans,
    /// Everything in `Spans` plus one event per point-to-point send and
    /// receive (peer, tag kind, bytes, receive wait).
    Full,
}

impl TraceConfig {
    /// True unless the level is [`TraceConfig::Off`].
    #[inline]
    pub(crate) fn enabled(self) -> bool {
        !matches!(self, TraceConfig::Off)
    }
}

/// Logical point events recorded at [`TraceConfig::Spans`] and above.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstantKind {
    /// One solver loop trip (per iteration for classic/pipelined, per block
    /// for s-step). `arg` = logical iteration index at the mark.
    Iteration,
    /// A failure was injected and detected; `arg` = iteration index.
    FailureTrigger,
    /// A checkpoint exchange round completed; `arg` = iteration index.
    CheckpointRound,
    /// A redundant-storage round (ESRP direction capture); `arg` = iteration.
    StorageRound,
    /// The interval tuner changed the checkpoint period; `arg` = new period.
    TunerDecision,
    /// An allreduce was posted; `arg` = collective sequence number.
    ReduceStart,
    /// An allreduce completed on this rank; `arg` = sequence number.
    ReduceFinish,
}

impl InstantKind {
    /// Stable kebab-case name used in rendered artifacts.
    pub(crate) fn name(self) -> &'static str {
        match self {
            InstantKind::Iteration => "iteration",
            InstantKind::FailureTrigger => "failure",
            InstantKind::CheckpointRound => "checkpoint-round",
            InstantKind::StorageRound => "storage-round",
            InstantKind::TunerDecision => "tuner-decision",
            InstantKind::ReduceStart => "reduce-start",
            InstantKind::ReduceFinish => "reduce-finish",
        }
    }
}

/// Stable name for a wire-tag kind (`tag >> 32`), mirroring [`crate::Tag`].
pub(crate) fn tag_kind_name(kind: u32) -> &'static str {
    match kind {
        1 => "reduce",
        2 => "bcast",
        3 => "barrier",
        16 => "halo",
        17 => "redundant",
        18 => "checkpoint",
        19 => "recovery-copies",
        22 => "recovery-ckpt",
        23 => "recovery-inner",
        24 => "pipelined-p",
        25 => "sstep-basis",
        _ => "other",
    }
}

/// One recorded event. All timestamps are modeled-clock seconds.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A contiguous interval during which the rank was in `phase`.
    /// Phase spans tile the rank's timeline exactly: the first span starts at
    /// bitwise `0.0`, each span starts where the previous ended, and the last
    /// span ends at the rank's final clock (`check_phase_coverage`).
    PhaseSpan {
        /// The phase the rank was in.
        phase: Phase,
        /// Clock at which the rank entered the phase.
        start: f64,
        /// Clock at which it left.
        end: f64,
    },
    /// This rank's part of one recovery episode: from the clock the entry
    /// barrier of `recover()` agreed on to the rank's own clock when its
    /// part ended. A later span of the episode (a settled background solve,
    /// the end solve) starts on the rank's own clock. The longest per-rank
    /// sum of an episode's spans is the per-failure `recovery_time`.
    RecoverySpan {
        /// The agreed clock of the entry barrier (the same on every rank).
        start: f64,
        /// This rank's clock when its part of the recovery ended.
        end: f64,
    },
    /// A logical point event.
    Instant {
        /// What happened.
        kind: InstantKind,
        /// The kind's argument (an iteration index, a period, a sequence
        /// number — see [`InstantKind`]).
        arg: u64,
        /// Clock at the mark.
        at: f64,
    },
    /// A point-to-point send (recorded at `Full`); `at` is the clock after
    /// the injection charge.
    Send {
        /// Destination rank.
        peer: usize,
        /// High 32 bits of the message tag (see `tag_kind_name`).
        tag_kind: u32,
        /// Payload size.
        bytes: usize,
        /// Clock after the injection charge.
        at: f64,
    },
    /// A point-to-point receive completion (recorded at `Full`); `wait` is
    /// the modeled time spent blocked for the arrival, `at` the clock after
    /// synchronizing with it.
    Recv {
        /// Source rank.
        peer: usize,
        /// High 32 bits of the message tag (see `tag_kind_name`).
        tag_kind: u32,
        /// Payload size.
        bytes: usize,
        /// Modeled time spent blocked for the arrival.
        wait: f64,
        /// Clock after synchronizing with the arrival.
        at: f64,
    },
}

/// Per-rank recorder owned by [`Ctx`](crate::Ctx).
///
/// Span bookkeeping: the recorder keeps one open phase span (`open_phase`,
/// `open_start`) and closes it on every phase transition, dropping zero-width
/// spans (which preserves exact tiling because a dropped span has
/// `start == end`). [`TraceRecorder::finish`] closes the final span at the
/// rank's final clock.
#[derive(Debug)]
pub(crate) struct TraceRecorder {
    level: TraceConfig,
    events: Vec<TraceEvent>,
    open_phase: Phase,
    open_start: f64,
}

impl TraceRecorder {
    /// A recorder starting in `Phase::Setup` at clock `0.0`.
    pub(crate) fn new(level: TraceConfig) -> Self {
        TraceRecorder {
            level,
            events: Vec::new(),
            open_phase: Phase::Setup,
            open_start: 0.0,
        }
    }

    /// The configured capture level.
    #[inline]
    pub(crate) fn level(&self) -> TraceConfig {
        self.level
    }

    /// Record a phase transition at `clock`, closing the open span.
    #[inline]
    pub(crate) fn on_phase(&mut self, phase: Phase, clock: f64) {
        if !self.level.enabled() || phase == self.open_phase {
            return;
        }
        if clock > self.open_start {
            self.events.push(TraceEvent::PhaseSpan {
                phase: self.open_phase,
                start: self.open_start,
                end: clock,
            });
        }
        self.open_phase = phase;
        self.open_start = clock;
    }

    /// Record a logical instant (at `Spans` and above).
    #[inline]
    pub(crate) fn instant(&mut self, kind: InstantKind, arg: u64, clock: f64) {
        if self.level.enabled() {
            self.events.push(TraceEvent::Instant {
                kind,
                arg,
                at: clock,
            });
        }
    }

    /// Record a recovery span (at `Spans` and above).
    #[inline]
    pub(crate) fn recovery(&mut self, start: f64, end: f64) {
        if self.level.enabled() {
            self.events.push(TraceEvent::RecoverySpan { start, end });
        }
    }

    /// Record a point-to-point send (at `Full` only).
    #[inline]
    pub(crate) fn send(&mut self, peer: usize, tag: u64, bytes: usize, clock: f64) {
        if self.level == TraceConfig::Full {
            self.events.push(TraceEvent::Send {
                peer,
                tag_kind: (tag >> 32) as u32,
                bytes,
                at: clock,
            });
        }
    }

    /// Record a point-to-point receive completion (at `Full` only).
    #[inline]
    pub(crate) fn recv(&mut self, peer: usize, tag: u64, bytes: usize, wait: f64, clock: f64) {
        if self.level == TraceConfig::Full {
            self.events.push(TraceEvent::Recv {
                peer,
                tag_kind: (tag >> 32) as u32,
                bytes,
                wait,
                at: clock,
            });
        }
    }

    /// Close the open phase span at the rank's final clock and return the
    /// event log.
    pub(crate) fn finish(mut self, clock: f64) -> Vec<TraceEvent> {
        if self.level.enabled() && clock > self.open_start {
            self.events.push(TraceEvent::PhaseSpan {
                phase: self.open_phase,
                start: self.open_start,
                end: clock,
            });
        }
        self.events
    }
}

/// One rank's completed event log plus its final modeled clock.
#[derive(Debug, Clone, PartialEq)]
pub struct RankTrace {
    /// Rank index (the Perfetto `tid`).
    pub rank: usize,
    /// The rank's final modeled clock; the last phase span ends here.
    pub final_clock: f64,
    /// Events in recording order (phase spans appear in start order).
    pub events: Vec<TraceEvent>,
}

/// All ranks' traces from one run, merged in rank order.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedTrace {
    /// Per-rank traces, indexed by rank.
    pub ranks: Vec<RankTrace>,
}

/// Exact-tiling coverage check: every modeled-time interval of the rank is
/// covered by exactly one phase span. Requires the first span to start at
/// bitwise `0.0`, each span to start bitwise where the previous ended, and
/// the last span to end bitwise at `final_clock`. Dropped zero-width spans
/// cannot break this (they satisfied `start == end`).
pub(crate) fn check_phase_coverage(events: &[TraceEvent], final_clock: f64) -> Result<(), String> {
    let mut cursor = 0.0f64;
    for ev in events {
        if let TraceEvent::PhaseSpan { phase, start, end } = ev {
            if start.to_bits() != cursor.to_bits() {
                return Err(format!(
                    "phase span {} starts at {start:e} but previous coverage ended at {cursor:e}",
                    phase.name()
                ));
            }
            if end < start {
                return Err(format!("phase span {} ends before it starts", phase.name()));
            }
            cursor = *end;
        }
    }
    if cursor.to_bits() != final_clock.to_bits() {
        return Err(format!(
            "phase coverage ends at {cursor:e} but the rank's final clock is {final_clock:e}"
        ));
    }
    Ok(())
}

/// Recovery attribution check: every phase span overlapping a recovery span's
/// interior must be a recovery phase (`Phase::is_recovery`). This is the
/// catch-all for attribution gaps — before the fix, the entry barrier of
/// `recover()` ran under the caller's compute phase.
///
/// Not part of [`MergedTrace::validate`]: a *full restart* legitimately
/// replays the setup phases inside its recovery window, so this check only
/// holds for runs whose failures all found a recovery point (which is what
/// the determinism tests and the trace-replay drill assert).
pub(crate) fn check_recovery_attribution(events: &[TraceEvent]) -> Result<(), String> {
    let recoveries: Vec<(f64, f64)> = events
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::RecoverySpan { start, end } => Some((*start, *end)),
            _ => None,
        })
        .collect();
    if recoveries.is_empty() {
        return Ok(());
    }
    for ev in events {
        if let TraceEvent::PhaseSpan { phase, start, end } = ev {
            if phase.is_recovery() {
                continue;
            }
            for &(rs, re) in &recoveries {
                if *start < re && *end > rs {
                    return Err(format!(
                        "non-recovery phase span {} [{start:e}, {end:e}] overlaps \
                         recovery span [{rs:e}, {re:e}]",
                        phase.name()
                    ));
                }
            }
        }
    }
    Ok(())
}

impl MergedTrace {
    /// Run the exact-tiling coverage check on every rank: the catch-all
    /// assertion that no modeled-time interval escapes phase attribution.
    pub fn validate(&self) -> Result<(), String> {
        for rt in &self.ranks {
            check_phase_coverage(&rt.events, rt.final_clock)
                .map_err(|e| format!("rank {}: {e}", rt.rank))?;
        }
        Ok(())
    }

    /// Run `check_recovery_attribution` on every rank (see its caveat on
    /// full restarts).
    pub fn validate_recovery_attribution(&self) -> Result<(), String> {
        for rt in &self.ranks {
            check_recovery_attribution(&rt.events).map_err(|e| format!("rank {}: {e}", rt.rank))?;
        }
        Ok(())
    }

    /// Total number of recorded events across ranks.
    pub(crate) fn event_count(&self) -> usize {
        self.ranks.iter().map(|r| r.events.len()).sum()
    }

    /// Sum over recovery episodes of the episode's longest per-rank span
    /// sum, folded from `0.0` in event order. An episode is a rank's
    /// recovery spans after the k-th `FailureTrigger`: the event's own span
    /// and, on the run's last event, the deferred end solve's. Each rank's
    /// spans are summed in recording order, then the maximum is taken over
    /// ranks — the additions, maxima and fold the driver makes over
    /// `recoveries`, so for a traced run this is bitwise equal to the
    /// reported recovery modeled time.
    pub fn recovery_seconds(&self) -> f64 {
        self.episode_seconds()
            .iter()
            .fold(0.0, |total, episode| total + episode)
    }

    /// Per recovery episode, the longest per-rank sum of its spans (see
    /// [`MergedTrace::recovery_seconds`]). A span before any trigger opens
    /// the first episode.
    fn episode_seconds(&self) -> Vec<f64> {
        let mut longest: Vec<f64> = Vec::new();
        for rt in &self.ranks {
            let mut sums: Vec<f64> = Vec::new();
            for ev in &rt.events {
                match ev {
                    TraceEvent::Instant {
                        kind: InstantKind::FailureTrigger,
                        ..
                    } => sums.push(0.0),
                    TraceEvent::RecoverySpan { start, end } => match sums.last_mut() {
                        Some(sum) => *sum += end - start,
                        None => sums.push(end - start),
                    },
                    _ => {}
                }
            }
            for (episode, sum) in sums.into_iter().enumerate() {
                match longest.get_mut(episode) {
                    Some(max) => *max = max.max(sum),
                    None => longest.push(sum),
                }
            }
        }
        longest
    }

    /// Render Chrome/Perfetto trace-event JSON: one `pid 0` process, one
    /// `tid` per rank, phases/recoveries as complete (`"X"`) spans and
    /// everything else as thread-scoped (`"i"`) instants. Timestamps are
    /// modeled-clock microseconds with fixed three-decimal formatting
    /// ([`json::fixed`]), so the output is byte-stable wherever the event
    /// stream is.
    pub fn to_perfetto_json(&self) -> String {
        let us = |seconds: f64| json::fixed(seconds * 1e6, 3);
        let mut out = String::with_capacity(256 + self.event_count() * 96);
        out.push_str("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [");
        let mut first = true;
        let emit = |out: &mut String, first: &mut bool, line: String| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str("\n    ");
            out.push_str(&line);
        };
        for rt in &self.ranks {
            emit(
                &mut out,
                &mut first,
                format!(
                    "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": {}, \
                     \"args\": {{\"name\": \"rank {}\"}}}}",
                    rt.rank, rt.rank
                ),
            );
        }
        for rt in &self.ranks {
            let tid = rt.rank;
            for ev in &rt.events {
                let line = match ev {
                    TraceEvent::PhaseSpan { phase, start, end } => format!(
                        "{{\"name\": \"{}\", \"cat\": \"phase\", \"ph\": \"X\", \"pid\": 0, \
                         \"tid\": {tid}, \"ts\": {}, \"dur\": {}}}",
                        phase.name(),
                        us(*start),
                        us(end - start)
                    ),
                    TraceEvent::RecoverySpan { start, end } => format!(
                        "{{\"name\": \"recovery\", \"cat\": \"recovery\", \"ph\": \"X\", \
                         \"pid\": 0, \"tid\": {tid}, \"ts\": {}, \"dur\": {}}}",
                        us(*start),
                        us(end - start)
                    ),
                    TraceEvent::Instant { kind, arg, at } => format!(
                        "{{\"name\": \"{}\", \"cat\": \"mark\", \"ph\": \"i\", \"s\": \"t\", \
                         \"pid\": 0, \"tid\": {tid}, \"ts\": {}, \"args\": {{\"v\": {arg}}}}}",
                        kind.name(),
                        us(*at)
                    ),
                    TraceEvent::Send {
                        peer,
                        tag_kind,
                        bytes,
                        at,
                    } => format!(
                        "{{\"name\": \"send\", \"cat\": \"msg\", \"ph\": \"i\", \"s\": \"t\", \
                         \"pid\": 0, \"tid\": {tid}, \"ts\": {}, \"args\": {{\"peer\": {peer}, \
                         \"tag\": \"{}\", \"bytes\": {bytes}}}}}",
                        us(*at),
                        tag_kind_name(*tag_kind)
                    ),
                    TraceEvent::Recv {
                        peer,
                        tag_kind,
                        bytes,
                        wait,
                        at,
                    } => format!(
                        "{{\"name\": \"recv\", \"cat\": \"msg\", \"ph\": \"i\", \"s\": \"t\", \
                         \"pid\": 0, \"tid\": {tid}, \"ts\": {}, \"args\": {{\"peer\": {peer}, \
                         \"tag\": \"{}\", \"bytes\": {bytes}, \"wait_us\": {}}}}}",
                        us(*at),
                        tag_kind_name(*tag_kind),
                        us(*wait)
                    ),
                };
                emit(&mut out, &mut first, line);
            }
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Fold the merged trace (plus per-rank buffer-pool counters) into a
    /// [`MetricsRollup`].
    ///
    /// Replicated logical events — iterations, reductions, failures,
    /// checkpoint/storage rounds, tuner decisions — are counted on rank 0
    /// only (every rank records the same ones); recovery episodes are
    /// counted once each, and an episode's duration is its longest per-rank
    /// span sum ([`MergedTrace::recovery_seconds`]). Phase spans and durations are
    /// summed across ranks, like `RankStats` totals; send and receive
    /// events are not rolled up.
    pub fn rollup(&self, pools: &[BufferPoolStats]) -> MetricsRollup {
        let mut r = MetricsRollup {
            recovery_spans: self.episode_seconds().len() as u64,
            recovery_seconds: self.recovery_seconds(),
            ..MetricsRollup::default()
        };
        for (i, rt) in self.ranks.iter().enumerate() {
            let canonical = i == 0;
            for ev in &rt.events {
                match ev {
                    TraceEvent::PhaseSpan { phase, start, end } => {
                        let p = *phase as usize;
                        r.phase_spans[p] += 1;
                        r.phase_seconds[p] += end - start;
                    }
                    TraceEvent::Instant { kind, .. } => {
                        if canonical {
                            match kind {
                                InstantKind::Iteration => r.iterations += 1,
                                InstantKind::FailureTrigger => r.failures += 1,
                                InstantKind::CheckpointRound => r.checkpoint_rounds += 1,
                                InstantKind::StorageRound => r.storage_rounds += 1,
                                InstantKind::TunerDecision => r.tuner_decisions += 1,
                                InstantKind::ReduceStart => r.reductions += 1,
                                InstantKind::ReduceFinish => {}
                            }
                        }
                    }
                    TraceEvent::RecoverySpan { .. }
                    | TraceEvent::Send { .. }
                    | TraceEvent::Recv { .. } => {}
                }
            }
        }
        for p in pools {
            r.buffer_pool.absorb(p);
        }
        r
    }
}

/// Aggregated counters folded from a [`MergedTrace`]; deterministic. The
/// campaign report holds the one JSON rendering (a cell's `"metrics"`
/// member and the `--trace-out` run lines), and it renders every field.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MetricsRollup {
    /// Phase span counts by `Phase as usize`, summed across ranks.
    pub phase_spans: [u64; N_PHASES],
    /// Phase span durations (modeled seconds) summed across ranks in event
    /// order.
    pub phase_seconds: [f64; N_PHASES],
    /// Solver loop trips marked on rank 0.
    pub iterations: u64,
    /// Allreduces posted on rank 0.
    pub reductions: u64,
    /// Recovery episodes: one per failure event.
    pub recovery_spans: u64,
    /// Each episode's longest per-rank span sum, summed in event order;
    /// bitwise equal to the run's reported recovery modeled time.
    pub recovery_seconds: f64,
    /// Failure triggers (rank 0).
    pub failures: u64,
    /// Checkpoint exchange rounds (rank 0).
    pub checkpoint_rounds: u64,
    /// Redundant-storage rounds (rank 0).
    pub storage_rounds: u64,
    /// Tuner interval changes (rank 0).
    pub tuner_decisions: u64,
    /// Buffer-pool counters summed across ranks.
    pub buffer_pool: BufferPoolStats,
}

impl MetricsRollup {
    /// Accumulate another rollup into this one — how the campaign folds the
    /// per-run rollups of a cell into one per-cell aggregate. Every counter
    /// and duration is summed; buffer-pool counters are absorbed.
    pub fn absorb(&mut self, other: &MetricsRollup) {
        for p in 0..N_PHASES {
            self.phase_spans[p] += other.phase_spans[p];
            self.phase_seconds[p] += other.phase_seconds[p];
        }
        self.iterations += other.iterations;
        self.reductions += other.reductions;
        self.recovery_spans += other.recovery_spans;
        self.recovery_seconds += other.recovery_seconds;
        self.failures += other.failures;
        self.checkpoint_rounds += other.checkpoint_rounds;
        self.storage_rounds += other.storage_rounds;
        self.tuner_decisions += other.tuner_decisions;
        self.buffer_pool.absorb(&other.buffer_pool);
    }
}

/// Validate a Perfetto trace-event JSON document structurally: well-formed
/// JSON (to the strict grammar of [`json`]), a top-level object with a
/// `"traceEvents"` array, and every event an object carrying a string
/// `"name"`, a `"ph"` in `{"X","i","M"}`, integer `"pid"`/`"tid"`, a
/// numeric `"ts"` (except metadata events), and — for `"X"` spans — a
/// numeric `"dur"`. Returns the number of events validated.
pub fn validate_trace_json(text: &str) -> Result<usize, String> {
    let Value::Object(fields) = json::parse(text)? else {
        return Err("top level is not an object".into());
    };
    let Some(Value::Array(events)) = fields
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
    else {
        return Err("missing \"traceEvents\" array".into());
    };
    for (i, ev) in events.iter().enumerate() {
        let Value::Object(f) = ev else {
            return Err(format!("event {i} is not an object"));
        };
        let get = |key: &str| f.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        match get("name") {
            Some(Value::String(_)) => {}
            _ => return Err(format!("event {i}: missing string \"name\"")),
        }
        let ph = match get("ph") {
            Some(Value::String(s)) => s.as_str(),
            _ => return Err(format!("event {i}: missing string \"ph\"")),
        };
        if !matches!(ph, "X" | "i" | "M") {
            return Err(format!("event {i}: unexpected ph {ph:?}"));
        }
        for key in ["pid", "tid"] {
            match get(key) {
                Some(Value::Number(n)) if n.fract() == 0.0 && *n >= 0.0 => {}
                _ => return Err(format!("event {i}: missing integer \"{key}\"")),
            }
        }
        if ph != "M" {
            match get("ts") {
                Some(Value::Number(n)) if n.is_finite() => {}
                _ => return Err(format!("event {i}: missing numeric \"ts\"")),
            }
        }
        if ph == "X" {
            match get("dur") {
                Some(Value::Number(n)) if n.is_finite() && *n >= 0.0 => {}
                _ => return Err(format!("event {i}: missing non-negative \"dur\"")),
            }
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_recorder_records_nothing_and_never_allocates() {
        let mut r = TraceRecorder::new(TraceConfig::Off);
        r.on_phase(Phase::SpMV, 1.0);
        r.instant(InstantKind::Iteration, 3, 1.5);
        r.recovery(1.0, 2.0);
        r.send(1, crate::msg::Tag::Halo.with(0), 64, 1.0);
        r.recv(1, crate::msg::Tag::Halo.with(0), 64, 0.0, 1.0);
        let events = r.finish(2.0);
        assert!(events.is_empty());
        assert_eq!(events.capacity(), 0, "Off recorder must never allocate");
    }

    #[test]
    fn spans_level_skips_message_events() {
        let mut r = TraceRecorder::new(TraceConfig::Spans);
        r.send(1, crate::msg::Tag::Halo.with(0), 64, 1.0);
        r.recv(1, crate::msg::Tag::Halo.with(0), 64, 0.0, 1.0);
        r.instant(InstantKind::Iteration, 0, 1.0);
        let events = r.finish(2.0);
        assert_eq!(events.len(), 2); // iteration instant + the closing Setup span
    }

    #[test]
    fn phase_spans_tile_the_timeline_exactly() {
        let mut r = TraceRecorder::new(TraceConfig::Spans);
        r.on_phase(Phase::SpMV, 0.25);
        r.on_phase(Phase::Reduction, 0.5);
        r.on_phase(Phase::Reduction, 0.5); // no-op: same phase
        r.on_phase(Phase::VecOps, 0.5); // zero-width Reduction span dropped
        let events = r.finish(1.0);
        check_phase_coverage(&events, 1.0).unwrap();
        let spans: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::PhaseSpan { phase, .. } => Some(*phase),
                _ => None,
            })
            .collect();
        assert_eq!(spans, vec![Phase::Setup, Phase::SpMV, Phase::VecOps]);
    }

    #[test]
    fn coverage_check_rejects_gaps() {
        let events = vec![
            TraceEvent::PhaseSpan {
                phase: Phase::Setup,
                start: 0.0,
                end: 0.5,
            },
            TraceEvent::PhaseSpan {
                phase: Phase::SpMV,
                start: 0.6,
                end: 1.0,
            },
        ];
        assert!(check_phase_coverage(&events, 1.0).is_err());
    }

    #[test]
    fn attribution_check_flags_compute_time_inside_recovery() {
        let events = vec![
            TraceEvent::PhaseSpan {
                phase: Phase::SpMV,
                start: 0.0,
                end: 2.0,
            },
            TraceEvent::RecoverySpan {
                start: 1.0,
                end: 1.5,
            },
        ];
        assert!(check_recovery_attribution(&events).is_err());
        let ok = vec![
            TraceEvent::PhaseSpan {
                phase: Phase::SpMV,
                start: 0.0,
                end: 1.0,
            },
            TraceEvent::PhaseSpan {
                phase: Phase::RecoveryGather,
                start: 1.0,
                end: 1.5,
            },
            TraceEvent::PhaseSpan {
                phase: Phase::SpMV,
                start: 1.5,
                end: 2.0,
            },
            TraceEvent::RecoverySpan {
                start: 1.0,
                end: 1.5,
            },
        ];
        assert!(check_recovery_attribution(&ok).is_ok());
    }

    #[test]
    fn perfetto_json_is_structurally_valid() {
        let trace = MergedTrace {
            ranks: vec![RankTrace {
                rank: 0,
                final_clock: 1.0,
                events: vec![
                    TraceEvent::PhaseSpan {
                        phase: Phase::Setup,
                        start: 0.0,
                        end: 1.0,
                    },
                    TraceEvent::RecoverySpan {
                        start: 0.25,
                        end: 0.5,
                    },
                    TraceEvent::Instant {
                        kind: InstantKind::Iteration,
                        arg: 7,
                        at: 0.125,
                    },
                    TraceEvent::Send {
                        peer: 1,
                        tag_kind: 16,
                        bytes: 64,
                        at: 0.2,
                    },
                    TraceEvent::Recv {
                        peer: 1,
                        tag_kind: 16,
                        bytes: 64,
                        wait: 0.01,
                        at: 0.3,
                    },
                ],
            }],
        };
        let json = trace.to_perfetto_json();
        let n = validate_trace_json(&json).unwrap();
        assert_eq!(n, 6); // 1 metadata + 5 events
        assert!(json.contains("\"displayTimeUnit\": \"ms\""));
        assert!(json.contains("\"tag\": \"halo\""));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_trace_json("{").is_err());
        assert!(validate_trace_json("[]").is_err());
        assert!(validate_trace_json("{\"traceEvents\": [{\"ph\": \"X\"}]}").is_err());
        assert!(validate_trace_json(
            "{\"traceEvents\": [{\"name\": \"x\", \"ph\": \"Q\", \"pid\": 0, \"tid\": 0, \"ts\": 1}]}"
        )
        .is_err());
    }

    #[test]
    fn validator_rejects_numbers_and_strings_json_does_not_allow() {
        let doc = |name: &str, ts: &str| {
            format!("{{\"traceEvents\": [{{\"name\": {name}, \"ph\": \"i\", \"pid\": 0, \"tid\": 0, \"ts\": {ts}}}]}}")
        };
        assert_eq!(
            validate_trace_json(&doc("\"a\\u0041\\t\"", "-1.5e-3")),
            Ok(1)
        );
        let probes = [
            ("\"a\"", "+1"),
            ("\"a\"", ".5"),
            ("\"a\"", "1."),
            ("\"a\"", "01"),
            ("\"raw\ttab\"", "1"),
            ("\"raw\nnewline\"", "1"),
            ("\"\\u+041\"", "1"),
        ];
        for (name, ts) in probes {
            let text = doc(name, ts);
            assert!(validate_trace_json(&text).is_err(), "{text:?} is not JSON");
        }
    }

    #[test]
    fn rollup_counts_replicated_events_once() {
        let mk_rank = |rank: usize| RankTrace {
            rank,
            final_clock: 2.0,
            events: vec![
                TraceEvent::PhaseSpan {
                    phase: Phase::SpMV,
                    start: 0.0,
                    end: 2.0,
                },
                TraceEvent::Instant {
                    kind: InstantKind::Iteration,
                    arg: 0,
                    at: 0.5,
                },
                TraceEvent::Instant {
                    kind: InstantKind::ReduceStart,
                    arg: 0,
                    at: 0.6,
                },
                // Each rank's part of the episode ends at its own clock.
                TraceEvent::RecoverySpan {
                    start: 1.0,
                    end: 1.5 + 0.25 * rank as f64,
                },
                TraceEvent::Send {
                    peer: 1 - rank,
                    tag_kind: 16,
                    bytes: 80,
                    at: 0.1,
                },
                TraceEvent::Recv {
                    peer: 1 - rank,
                    tag_kind: 16,
                    bytes: 80,
                    wait: 0.0,
                    at: 0.2,
                },
            ],
        };
        let trace = MergedTrace {
            ranks: vec![mk_rank(0), mk_rank(1)],
        };
        let r = trace.rollup(&[]);
        assert_eq!(r.iterations, 1);
        assert_eq!(r.reductions, 1);
        assert_eq!(r.recovery_spans, 1);
        assert_eq!(r.recovery_seconds, 0.75, "the episode's longest span");
        assert_eq!(trace.recovery_seconds(), 0.75);
        assert_eq!(r.phase_spans[Phase::SpMV as usize], 2);
    }

    #[test]
    fn rollup_absorb_sums_everything() {
        let mut a = MetricsRollup {
            iterations: 3,
            reductions: 6,
            recovery_seconds: 0.5,
            ..MetricsRollup::default()
        };
        a.phase_seconds[Phase::SpMV as usize] = 1.0;
        let mut b = MetricsRollup {
            iterations: 2,
            reductions: 4,
            recovery_seconds: 0.25,
            ..MetricsRollup::default()
        };
        b.phase_seconds[Phase::SpMV as usize] = 0.5;
        b.buffer_pool.takes = 10;
        a.absorb(&b);
        assert_eq!(a.iterations, 5);
        assert_eq!(a.reductions, 10);
        assert_eq!(a.recovery_seconds, 0.75);
        assert_eq!(a.phase_seconds[Phase::SpMV as usize], 1.5);
        assert_eq!(a.buffer_pool.takes, 10);
    }
}
