//! The loop's reduction log ([`RecoveryRule::Extended`]): every allreduce
//! result of the resilient loop since the current rollback target, so that
//! the trips a rollback re-executes take their reductions from memory
//! instead of running the tree again.
//!
//! A reduction's result is replicated: every rank received the same bits.
//! The re-executed trips start from the state the original trips started
//! from — bitwise after an IMCR rollback, exactly in exact arithmetic after
//! an ESRP reconstruction — so each of their reductions would reduce to a
//! value every rank already received before the failure. The log hands
//! those values back in call order: a redone trip pays its SpMV halo and its
//! local flops, and the first reduction past the failure point runs live
//! again. This is the message-logging idea of re-executing without the
//! logged nondeterministic events' traffic (Alvisi & Marzullo, IEEE TSE
//! 1998), applied to the replicated scalars of CG.
//!
//! The log holds the values since the rollback target of the trip in
//! progress, flat. A target only ever advances to the trip it is set in (a
//! storage stage, a checkpoint, a protected block start, a resume point), so
//! what the log held before that trip is what no rollback reaches any more.
//! At a rollback a survivor replays its own log; a replacement, whose log
//! went with its memory, receives the same values inside the recovery
//! round's one message from the rank that already sends it scalars.
//!
//! [`RecoveryRule::Extended`]: crate::solver::RecoveryRule::Extended

use esrcg_cluster::{Ctx, PendingReduce};

/// The per-rank reduction log. Disabled under the paper's rule: every
/// reduction then runs live and nothing is kept.
#[derive(Debug, Default)]
pub(crate) struct ReductionLog {
    enabled: bool,
    /// The logged results since `since`, flat, in call order.
    values: Vec<f64>,
    /// The trip the log starts at: the rollback target of the trip in
    /// progress, or that trip itself when there is none.
    since: usize,
    /// The next value a replayed reduction takes; `values.len()` when live.
    cursor: usize,
    /// The trip start at which the replay must be used up: the trip the
    /// failure struck in.
    replay_until: Option<usize>,
}

/// A reduction started through the log: a live tree or a replayed result.
#[must_use = "every started reduction must be finished, or the tree deadlocks"]
pub(crate) enum LoggedReduce {
    Live(PendingReduce),
    Replayed(Vec<f64>),
}

impl LoggedReduce {
    /// Completes the reduction and logs a live result.
    pub(crate) fn finish(self, ctx: &mut Ctx, log: &mut ReductionLog) -> Vec<f64> {
        match self {
            LoggedReduce::Live(pending) => {
                let out = pending.finish(ctx);
                log.record(&out);
                out
            }
            LoggedReduce::Replayed(out) => out,
        }
    }
}

impl ReductionLog {
    /// A log sized for `values` logged values, so the loop never grows it;
    /// disabled (and empty) unless `enabled`.
    pub(crate) fn new(enabled: bool, values: usize) -> Self {
        if !enabled {
            return ReductionLog::default();
        }
        ReductionLog {
            enabled,
            values: Vec::with_capacity(values),
            ..ReductionLog::default()
        }
    }

    fn replaying(&self) -> bool {
        self.cursor < self.values.len()
    }

    /// Opens trip `j`, whose failure would roll back to `target`: drops what
    /// no rollback can reach any more. Asserts that a replay lasts exactly
    /// until the failure's trip.
    pub(crate) fn begin_trip(&mut self, j: usize, target: Option<usize>) {
        if !self.enabled {
            return;
        }
        if let Some(until) = self.replay_until {
            let left = self.values.len() - self.cursor;
            if j >= until {
                assert!(
                    j == until && left == 0,
                    "reduction log: {left} values left at trip {j}, the failure struck trip {until}"
                );
                self.replay_until = None;
            } else {
                assert!(
                    left > 0,
                    "reduction log: ran dry at trip {j}, before trip {until}"
                );
            }
        }
        let since = target.unwrap_or(j);
        if since != self.since {
            assert_eq!(since, j, "reduction log: a target advances to its own trip");
            self.values.drain(..self.cursor);
            self.cursor = 0;
            self.since = since;
        }
    }

    /// A failure struck the trip starting at `trip`, which rolls back to
    /// `target`; `lost` tells whether this rank failed. A survivor's replay
    /// becomes what it logged since the target. A failed rank's log went
    /// with its memory: it receives the same values in the recovery round
    /// ([`ReductionLog::refill`]). Either way the replay must last exactly
    /// until `trip`. A full restart (`None`) replays nothing.
    pub(crate) fn roll_back(&mut self, trip: usize, target: Option<usize>, lost: bool) {
        if !self.enabled {
            return;
        }
        if lost || target.is_none() {
            self.values.clear();
        } else {
            assert_eq!(
                target,
                Some(self.since),
                "reduction log: the target is logged"
            );
        }
        self.cursor = 0;
        self.replay_until = target.map(|_| trip);
    }

    /// A replacement's replay: the values a survivor shipped in the
    /// recovery round. Under the paper's rule there are none.
    pub(crate) fn refill(&mut self, values: &[f64]) {
        assert!(
            self.enabled || values.is_empty(),
            "reduction log: logged values shipped under the paper's rule"
        );
        debug_assert!(self.values.is_empty(), "refilled after `roll_back`");
        self.values.extend_from_slice(values);
    }

    /// The values the next replay takes: since the rollback target on a
    /// survivor that just rewound, nothing while live.
    pub(crate) fn replay_values(&self) -> &[f64] {
        &self.values[self.cursor..]
    }

    fn record(&mut self, out: &[f64]) {
        if self.enabled {
            self.values.extend_from_slice(out);
            self.cursor = self.values.len();
        }
    }

    /// The next `len` logged values, in a pooled buffer.
    fn replay(&mut self, ctx: &mut Ctx, len: usize) -> Vec<f64> {
        let end = self.cursor + len;
        assert!(
            end <= self.values.len(),
            "reduction log: a replayed reduction of {len} values overruns the log"
        );
        let mut out = ctx.take_f64s();
        out.extend_from_slice(&self.values[self.cursor..end]);
        self.cursor = end;
        out
    }

    /// [`Ctx::allreduce`] through the log.
    pub(crate) fn allreduce(&mut self, ctx: &mut Ctx, vals: &[f64]) -> Vec<f64> {
        self.allreduce_start(ctx, vals).finish(ctx, self)
    }

    /// [`Ctx::allreduce_start`] through the log.
    pub(crate) fn allreduce_start(&mut self, ctx: &mut Ctx, vals: &[f64]) -> LoggedReduce {
        if self.replaying() {
            LoggedReduce::Replayed(self.replay(ctx, vals.len()))
        } else {
            LoggedReduce::Live(ctx.allreduce_start(vals))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esrcg_cluster::{run_spmd, CostModel};

    #[test]
    fn a_rewound_log_replays_the_values_since_the_target_then_runs_live() {
        // Two ranks, three one-value trips (targets 0, 0, 2), a rollback of
        // the third trip to 0, and the replay of trips 0 and 1 without a
        // message.
        let out = run_spmd(2, CostModel::default(), |ctx| {
            let mut log = ReductionLog::new(true, 4);
            let mut seen = Vec::new();
            let mut trip = |ctx: &mut Ctx, log: &mut ReductionLog, j: usize, target| {
                log.begin_trip(j, target);
                let red = log.allreduce(ctx, &[(j + ctx.rank()) as f64]);
                seen.push(red[0]);
                ctx.recycle_f64s(red);
            };
            trip(ctx, &mut log, 0, Some(0));
            trip(ctx, &mut log, 1, Some(0));
            log.begin_trip(2, Some(0));
            log.roll_back(2, Some(0), false);
            assert_eq!(log.replay_values(), [1.0, 3.0]);
            let sent = ctx.stats().msgs_sent.iter().sum::<u64>();
            trip(ctx, &mut log, 0, Some(0));
            trip(ctx, &mut log, 1, Some(0));
            assert_eq!(ctx.stats().msgs_sent.iter().sum::<u64>(), sent, "replayed");
            trip(ctx, &mut log, 2, Some(2));
            assert_eq!(log.replay_values(), [] as [f64; 0]);
            assert_eq!(log.values, [5.0], "truncated to the target");
            seen
        });
        for seen in out.results {
            assert_eq!(seen, [1.0, 3.0, 1.0, 3.0, 5.0]);
        }
    }

    #[test]
    #[should_panic(expected = "values left at trip")]
    fn a_replay_must_be_used_up_at_the_failure_trip() {
        let mut log = ReductionLog::new(true, 4);
        log.begin_trip(3, Some(3));
        log.roll_back(3, Some(3), true);
        log.refill(&[1.0]);
        log.begin_trip(3, Some(3));
    }

    #[test]
    fn a_disabled_log_keeps_nothing() {
        let mut log = ReductionLog::new(false, 4);
        log.begin_trip(0, Some(0));
        log.record(&[1.0]);
        log.roll_back(5, Some(0), false);
        log.refill(&[]);
        assert!(log.replay_values().is_empty() && log.values.capacity() == 0);
    }
}
