//! Online checkpoint-interval tuning: the anchored storage/checkpoint
//! schedule and the Daly/Young interval tuner.
//!
//! Under [`IntervalPolicy::Fixed`](crate::strategy::IntervalPolicy) the
//! schedule's anchor stays at 0 and every predicate reduces to the legacy
//! fixed-interval arithmetic — the solver is bitwise unchanged. Under
//! `Adaptive`, the tuner re-estimates the failure rate and the measured
//! per-round protection cost at every recovery point and, when the
//! Daly-optimal interval `T* = √(2·MTBF·C_ckpt)` (in iteration units)
//! differs from the current `T`, re-anchors the schedule at the resume
//! iteration. The decision is computed from *replicated* quantities
//! (synchronized clock, allreduced mean cost, shared failure stream), so
//! every rank re-tunes identically and the protocol cannot diverge.

use esrcg_cluster::{CostModel, Ctx, Phase};

use crate::solver::recovery::RecoveryOutcome;
use crate::strategy::{IntervalPolicy, Strategy};

/// The analytic α–β cost of one IMCR checkpoint round on one rank: `φ`
/// point-to-point blob transfers of `blob_len` doubles each. Early in a
/// run the measured `Phase::Checkpoint` mean is noisy (few rounds, and a
/// round that overlapped other traffic under-attributes); the cost model
/// knows the floor exactly, so the tuner uses whichever is larger.
pub(crate) fn analytic_checkpoint_round_cost(cost: &CostModel, phi: usize, blob_len: usize) -> f64 {
    phi as f64 * cost.transfer_time(blob_len * 8)
}

/// The analytic α–β cost of one ESRP storage stage on one rank: two
/// augmented exchanges, each shipping the given messages of 8-byte values —
/// `(entries, rides)` per message, where a message that *rides* a halo
/// message the SpMV sends anyway (a classic top-up bound for a halo peer)
/// adds its bytes but no latency, and one that stands alone (a top-up for a
/// designated destination that is no halo peer; every message of the
/// explicit exchange pipelined / s-step run) pays a full transfer.
pub(crate) fn analytic_storage_stage_cost<I>(cost: &CostModel, messages: I) -> f64
where
    I: Iterator<Item = (usize, bool)>,
{
    let per_exchange = messages.map(|(entries, rides)| {
        let latency = if rides { 0.0 } else { cost.alpha };
        latency + (entries * 8) as f64 * cost.seconds_per_byte
    });
    2.0 * per_exchange.sum::<f64>()
}

/// The storage/checkpoint schedule of a run: the current interval plus the
/// *anchor* — the iteration the interval was last re-tuned at (0 until the
/// first re-tune). All schedule predicates run on `j − anchor`, so a fresh
/// interval starts counting from the recovery point that introduced it,
/// and the anchor itself is a valid rollback target (the re-anchor path
/// re-establishes starred copies / a checkpoint round there).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IntervalSchedule {
    strategy: Strategy,
    anchor: usize,
}

impl IntervalSchedule {
    /// A schedule starting at iteration 0 with the configured strategy.
    pub(crate) fn new(strategy: Strategy) -> Self {
        IntervalSchedule {
            strategy,
            anchor: 0,
        }
    }

    /// The strategy carrying the *current* (possibly re-tuned) interval.
    pub(crate) fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The current interval, if the strategy has one.
    pub(crate) fn interval(&self) -> Option<usize> {
        self.strategy.interval()
    }

    /// The iteration the current interval took effect at.
    #[cfg(test)]
    pub(crate) fn anchor(&self) -> usize {
        self.anchor
    }

    fn rel(&self, j: usize) -> Option<usize> {
        j.checked_sub(self.anchor)
    }

    /// True when iteration `j` runs the *augmented* SpMV.
    pub(crate) fn augmented(&self, j: usize) -> bool {
        let Strategy::Esrp { t } = self.strategy else {
            return false;
        };
        if t == 1 {
            return true;
        }
        let Some(jr) = self.rel(j) else {
            return false;
        };
        (jr >= t && jr.is_multiple_of(t)) || (jr > t && jr % t == 1)
    }

    /// True when iteration `j` is the second iteration of an ESRP storage
    /// stage (starred copies are taken).
    pub(crate) fn storage_second(&self, j: usize) -> bool {
        let Strategy::Esrp { t } = self.strategy else {
            return false;
        };
        if t <= 1 {
            return false;
        }
        let Some(jr) = self.rel(j) else {
            return false;
        };
        jr > t && jr % t == 1
    }

    /// True when iteration `j` takes an IMCR checkpoint. The anchor itself
    /// never re-checkpoints in the loop — the re-anchor path already ran an
    /// explicit checkpoint round there.
    pub(crate) fn checkpoint(&self, j: usize) -> bool {
        let Strategy::Imcr { t } = self.strategy else {
            return false;
        };
        let Some(jr) = self.rel(j) else {
            return false;
        };
        jr > 0 && jr.is_multiple_of(t)
    }

    /// The rollback target for a failure at `j_f` under the current
    /// schedule, `None` when no recovery point exists yet.
    ///
    /// * ESR (`t == 1`): the ASpMV of iteration `j_f` has already pushed
    ///   `p'(j_f)`, so ĵ = j_f as long as `p'(j_f − 1)` exists (`j_f ≥ 1`),
    ///   whatever the anchor.
    /// * ESRP (`t ≥ 3`): the last *complete* storage stage; stages complete
    ///   at `a + mT + 1` for anchor `a`, so ĵ = a + mT + 1 for the largest
    ///   `m ≥ 1` with `a + mT + 1 ≤ j_f`.
    /// * IMCR: the newest checkpoint, at `a + mT ≤ j_f` for `m ≥ 1`.
    ///
    /// Before the first stage or checkpoint a positive anchor is itself the
    /// recovery point (its protection data was re-established when the
    /// interval changed); anchor 0 has none.
    pub(crate) fn rollback_target(&self, j_f: usize) -> Option<usize> {
        let (t, stage_end) = match self.strategy {
            Strategy::None => return None,
            Strategy::Esrp { t: 1 } => return (j_f >= 1).then_some(j_f),
            Strategy::Esrp { t } => (t, 1),
            Strategy::Imcr { t } => (t, 0),
        };
        // The largest m with a + mT + stage_end ≤ j_f.
        let m = self.rel(j_f)?.saturating_sub(stage_end) / t;
        let a = self.anchor;
        if m >= 1 {
            Some(a + m * t + stage_end)
        } else {
            (a > 0).then_some(a)
        }
    }

    /// Installs a new interval effective at iteration `at`. The caller is
    /// responsible for making `at` a valid recovery point (starred copies /
    /// checkpoint round) when `at > 0`.
    pub(crate) fn reanchor(&mut self, t_new: usize, at: usize) {
        match &mut self.strategy {
            Strategy::Esrp { t } | Strategy::Imcr { t } => *t = t_new,
            Strategy::None => unreachable!("no interval to tune without a strategy"),
        }
        self.anchor = at;
    }
}

/// One re-tune decision, recorded per recovery under the adaptive policy
/// (identical on every rank). `mtbf_iters` is `None` while fewer than two
/// failures have been observed — the tuner then holds the configured
/// interval (`interval_after == interval_before`) instead of dividing by a
/// sample of zero or one.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneEvent {
    /// The iteration the failure struck at.
    pub failed_at: usize,
    /// The iteration the solver resumed from.
    pub resumed_at: usize,
    /// The online MTBF estimate in iterations (`None` below two observed
    /// failures).
    pub mtbf_iters: Option<f64>,
    /// The interval in effect when the failure struck.
    pub interval_before: usize,
    /// The interval in effect after the re-tune (equal to
    /// `interval_before` when no re-tune happened).
    pub interval_after: usize,
}

/// The per-run tuner state (replicated: every rank holds an identical
/// copy and advances it identically).
#[derive(Debug, Clone)]
pub(crate) struct IntervalTuner {
    min_t: usize,
    max_t: usize,
    failures_seen: usize,
    rounds: usize,
}

impl IntervalTuner {
    /// A tuner for the adaptive policy; `None` for the fixed policy.
    pub(crate) fn for_policy(policy: IntervalPolicy) -> Option<Self> {
        match policy {
            IntervalPolicy::Fixed => None,
            IntervalPolicy::Adaptive { min_t, max_t } => Some(IntervalTuner {
                min_t,
                max_t,
                failures_seen: 0,
                rounds: 0,
            }),
        }
    }

    /// Records one completed protection round (an ESR augmented iteration,
    /// an ESRP storage stage, or an IMCR checkpoint round) — the
    /// denominator of the measured per-round cost.
    pub(crate) fn note_round(&mut self) {
        self.rounds += 1;
    }

    /// Proposes the interval for the rest of the run, right after a
    /// recovery. With at least two observed failures and one completed
    /// round, the proposal is the Daly/Young optimum
    /// `T* = √(2·MTBF̂ · c_round/t_iter)` — MTBF̂ in iterations from the
    /// failure stream, `c_round` the per-round protection cost, `t_iter`
    /// the synchronized clock per loop trip — rounded, snapped from 2 to 1
    /// for ESRP (the paper's "use ESR instead" rule), and clamped to the
    /// policy bounds. `c_round` blends two estimates: the allreduced mean
    /// of the measured `Storage`/`Checkpoint` phase time, and
    /// `analytic_round` — the cost model's α–β prediction for one round
    /// (see [`analytic_checkpoint_round_cost`] /
    /// [`analytic_storage_stage_cost`]) — taking the larger. The measured
    /// mean catches congestion the model misses; the analytic floor keeps
    /// an under-attributed early sample from collapsing `T*`.
    /// Below two failures the current interval stands and **no collectives
    /// run**, so an adaptive run with fewer than two failures stays
    /// bitwise identical to its fixed twin.
    pub(crate) fn propose(
        &mut self,
        ctx: &mut Ctx,
        sched: &IntervalSchedule,
        rec: &RecoveryOutcome,
        total_loop_trips: usize,
        analytic_round: f64,
    ) -> TuneEvent {
        self.failures_seen += 1;
        let before = sched.interval().expect("tuning requires an interval");
        let mut mtbf_iters = None;
        let mut t_new = before;
        if self.failures_seen >= 2 && self.rounds >= 1 && total_loop_trips > 0 && rec.failed_at > 0
        {
            let cost_phase = match sched.strategy() {
                Strategy::Esrp { .. } => Phase::Storage,
                Strategy::Imcr { .. } => Phase::Checkpoint,
                Strategy::None => unreachable!("tuning requires a strategy"),
            };
            let prev_phase = ctx.set_phase(Phase::RecoveryReset);
            let c_local = ctx.stats().phase_time(cost_phase);
            let c_mean = ctx.allreduce_sum_scalar(c_local) / ctx.size() as f64;
            let clock = ctx.barrier_sync_clock();
            ctx.set_phase(prev_phase);

            let mtbf = rec.failed_at as f64 / self.failures_seen as f64;
            mtbf_iters = Some(mtbf);
            let t_iter = clock / total_loop_trips as f64;
            let c_round = (c_mean / self.rounds as f64).max(analytic_round);
            if t_iter > 0.0 && c_round > 0.0 {
                let t_star = (2.0 * mtbf * (c_round / t_iter)).sqrt();
                let mut cand = (t_star.round().max(1.0) as usize).clamp(self.min_t, self.max_t);
                if matches!(sched.strategy(), Strategy::Esrp { .. }) && cand == 2 {
                    // ESRP(2) stores copies every iteration anyway; the
                    // paper says use ESR (T = 1) instead (§3).
                    cand = 1;
                }
                t_new = cand.max(1);
            }
        }
        TuneEvent {
            failed_at: rec.failed_at,
            resumed_at: rec.resumed_at,
            mtbf_iters,
            interval_before: before,
            interval_after: t_new,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchored_schedule_reduces_to_legacy_at_anchor_zero() {
        let esr = IntervalSchedule::new(Strategy::esr());
        assert!(esr.augmented(0) && esr.augmented(7));
        assert!((0..18).all(|j| !esr.storage_second(j)));

        let esrp = IntervalSchedule::new(Strategy::Esrp { t: 5 });
        let got: Vec<usize> = (0..18).filter(|&j| esrp.augmented(j)).collect();
        assert_eq!(got, vec![5, 6, 10, 11, 15, 16]);
        let seconds: Vec<usize> = (0..18).filter(|&j| esrp.storage_second(j)).collect();
        assert_eq!(seconds, vec![6, 11, 16]);

        let imcr = IntervalSchedule::new(Strategy::Imcr { t: 4 });
        let cks: Vec<usize> = (0..14).filter(|&j| imcr.checkpoint(j)).collect();
        assert_eq!(cks, vec![4, 8, 12]);
        assert!(!imcr.augmented(4));
        assert!(!IntervalSchedule::new(Strategy::esr()).checkpoint(4));
        assert!(!IntervalSchedule::new(Strategy::None).augmented(5));
    }

    #[test]
    fn anchored_schedule_counts_from_the_anchor() {
        let mut s = IntervalSchedule::new(Strategy::Esrp { t: 5 });
        s.reanchor(3, 21);
        assert_eq!(s.interval(), Some(3));
        assert_eq!(s.anchor(), 21);
        let got: Vec<usize> = (20..32).filter(|&j| s.augmented(j)).collect();
        // Stages at 21+3 = 24 (first) / 25 (second), 27 / 28, 30 / 31.
        assert_eq!(got, vec![24, 25, 27, 28, 30, 31]);
        let seconds: Vec<usize> = (20..32).filter(|&j| s.storage_second(j)).collect();
        assert_eq!(seconds, vec![25, 28, 31]);

        let mut c = IntervalSchedule::new(Strategy::Imcr { t: 4 });
        c.reanchor(6, 10);
        let cks: Vec<usize> = (9..30).filter(|&j| c.checkpoint(j)).collect();
        assert_eq!(cks, vec![16, 22, 28], "no checkpoint at the anchor itself");
    }

    #[test]
    fn esrp_rollback_targets() {
        // ESR: roll back to the failure iteration itself.
        let e = IntervalSchedule::new(Strategy::esr());
        assert_eq!(e.rollback_target(0), None);
        assert_eq!(e.rollback_target(1), Some(1));
        assert_eq!(e.rollback_target(57), Some(57));

        // ESRP T = 5: stages complete at 6, 11, 16, ...
        let s = IntervalSchedule::new(Strategy::Esrp { t: 5 });
        assert_eq!(s.rollback_target(0), None);
        assert_eq!(s.rollback_target(5), None, "stage at 5 incomplete");
        assert_eq!(s.rollback_target(6), Some(6));
        assert_eq!(s.rollback_target(9), Some(6));
        assert_eq!(
            s.rollback_target(10),
            Some(6),
            "failure at the first storage iteration falls back a stage"
        );
        assert_eq!(s.rollback_target(11), Some(11));
        assert_eq!(s.rollback_target(14), Some(11));
    }

    #[test]
    fn paper_example_rollback() {
        // Paper §3: failure right after the queue gains p'(2T) recovers the
        // state for iteration T+1.
        let t = 20;
        let s = IntervalSchedule::new(Strategy::Esrp { t });
        assert_eq!(s.rollback_target(2 * t), Some(t + 1));
        assert_eq!(s.rollback_target(2 * t + 1), Some(2 * t + 1));
    }

    #[test]
    fn imcr_rollback_targets() {
        let c = IntervalSchedule::new(Strategy::Imcr { t: 20 });
        assert_eq!(c.rollback_target(0), None);
        assert_eq!(c.rollback_target(19), None);
        assert_eq!(c.rollback_target(20), Some(20));
        assert_eq!(c.rollback_target(39), Some(20));
        assert_eq!(c.rollback_target(40), Some(40));
    }

    #[test]
    fn anchored_rollback_targets() {
        // Re-anchored ESRP: stages complete at a + mT + 1; the anchor is
        // the fallback before the first completed stage.
        let mut s = IntervalSchedule::new(Strategy::Esrp { t: 5 });
        s.reanchor(3, 21);
        assert_eq!(s.rollback_target(21), Some(21));
        assert_eq!(s.rollback_target(24), Some(21), "stage at 24 incomplete");
        assert_eq!(s.rollback_target(25), Some(25));
        assert_eq!(s.rollback_target(27), Some(25));
        assert_eq!(s.rollback_target(28), Some(28));

        // ESR keeps its roll-back-to-the-failure-iteration rule across a
        // re-anchor.
        let mut e = IntervalSchedule::new(Strategy::Esrp { t: 5 });
        e.reanchor(1, 12);
        assert_eq!(e.rollback_target(14), Some(14));

        // Re-anchored IMCR: checkpoints at a + mT, anchor as fallback.
        let mut c = IntervalSchedule::new(Strategy::Imcr { t: 4 });
        c.reanchor(6, 10);
        assert_eq!(c.rollback_target(10), Some(10));
        assert_eq!(c.rollback_target(15), Some(10));
        assert_eq!(c.rollback_target(16), Some(16));
        assert_eq!(c.rollback_target(23), Some(22));
    }

    /// Runs the tuner's second-failure proposal inside a one-rank SPMD
    /// context under `cost`, with one second of modeled compute over 1000
    /// loop trips (t_iter = 1 ms), one completed round, and a failure
    /// stream giving MTBF̂ = 25 iterations. No `Storage`/`Checkpoint` time
    /// was ever measured, so the proposal is driven entirely by the
    /// analytic per-round cost.
    fn tuned_interval(strategy: Strategy, cost: CostModel, analytic: f64) -> usize {
        let out = esrcg_cluster::run_spmd(1, cost, move |ctx| {
            let mut tuner = IntervalTuner::for_policy(IntervalPolicy::Adaptive {
                min_t: 1,
                max_t: 40,
            })
            .expect("adaptive tuner");
            let sched = IntervalSchedule::new(strategy);
            let rec = RecoveryOutcome {
                failed_at: 50,
                resumed_at: 45,
                wasted_iterations: 5,
                full_restart: false,
                recovery_time: 0.0,
                inner_iterations: 0,
            };
            tuner.note_round();
            ctx.charge_flops(2_000_000_000);
            let first = tuner.propose(ctx, &sched, &rec, 1000, analytic);
            assert_eq!(
                first.interval_after, first.interval_before,
                "one observed failure never re-tunes"
            );
            tuner
                .propose(ctx, &sched, &rec, 1000, analytic)
                .interval_after
        });
        out.results[0]
    }

    /// The cost model shapes the Daly optimum: the same failure stream and
    /// iteration speed yield a preset-dependent `T*` because the analytic
    /// per-round cost scales with α and 1/β. The pinned values are the
    /// closed-form `√(2·25·c_round/1ms)` rounded and clamped.
    #[test]
    fn analytic_round_cost_drives_the_tuned_interval_per_preset() {
        // IMCR: one buddy transfer of a 4·1000+1-double classic blob.
        let imcr = Strategy::Imcr { t: 8 };
        let c_of = |cost: &CostModel| analytic_checkpoint_round_cost(cost, 1, 4001);
        let d = CostModel::default();
        assert_eq!(tuned_interval(imcr, d, c_of(&d)), 1);
        let l = CostModel::latency_dominated();
        assert_eq!(tuned_interval(imcr, l, c_of(&l)), 5);
        // Free communication → zero analytic and zero measured cost: the
        // configured interval stands.
        let f = CostModel::compute_only(d.seconds_per_flop);
        assert_eq!(tuned_interval(imcr, f, c_of(&f)), 8);
        // Free compute → the modeled clock never advances, t_iter = 0: the
        // tuner refuses to divide by it and holds the interval.
        let m = CostModel::comm_only(d.alpha, d.seconds_per_byte);
        assert_eq!(tuned_interval(imcr, m, c_of(&m)), 8);

        // ESRP: a storage stage of two exchanges, each with one top-up of
        // 64 values riding a halo message and one standing alone — the
        // rider adds its bytes and no latency.
        let esrp = Strategy::Esrp { t: 6 };
        let c_of = |cost: &CostModel| {
            analytic_storage_stage_cost(cost, [(64, true), (64, false)].into_iter())
        };
        let rider = 512.0 * l.seconds_per_byte;
        assert_eq!(c_of(&l), 2.0 * (rider + l.transfer_time(512)));
        assert_eq!(tuned_interval(esrp, d, c_of(&d)), 1);
        assert_eq!(tuned_interval(esrp, l, c_of(&l)), 7);
        assert_eq!(tuned_interval(esrp, f, c_of(&f)), 6);
        assert_eq!(tuned_interval(esrp, m, c_of(&m)), 6);
    }

    /// The blend takes the *larger* of measured and analytic: a cheap
    /// analytic floor must not drag `T*` below what the measured phase
    /// means imply, and vice versa.
    #[test]
    fn analytic_floor_and_measured_mean_blend_by_max() {
        let cost = CostModel::default();
        let strategy = Strategy::Imcr { t: 8 };
        // A large analytic round cost (1 ms per round = the iteration
        // time): T* = √(2·25·1) ≈ 7 regardless of the zero measured mean.
        let out = tuned_interval(strategy, cost, 1.0e-3);
        assert_eq!(out, 7);
        // Zero analytic with zero measured cost: no re-tune at all.
        assert_eq!(tuned_interval(strategy, cost, 0.0), 8);
    }

    #[test]
    fn tuner_exists_only_for_the_adaptive_policy() {
        assert!(IntervalTuner::for_policy(IntervalPolicy::Fixed).is_none());
        let t = IntervalTuner::for_policy(IntervalPolicy::Adaptive { min_t: 2, max_t: 9 })
            .expect("adaptive policy gets a tuner");
        assert_eq!((t.min_t, t.max_t), (2, 9));
        assert_eq!(t.failures_seen, 0);
    }
}
