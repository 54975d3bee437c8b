//! A rollback's redo replays the logged reductions (`RecoveryRule::Extended`).
//!
//! Every rank logs the loop's allreduce results since the current rollback
//! target. After an ESRP or IMCR rollback the re-executed trips take them
//! from the log — a survivor from its own, a replacement from the recovery
//! round's one message — so a redone trip pays its halo and its local flops
//! and no tree; the first reduction past the failure point runs live.
//!
//! Each case runs against the paper's rule on the same schedule, which
//! re-runs every reduction of the redo. What must hold:
//! * the same iterations, loop trips, recovery points and tuner decisions;
//! * IMCR's solution bit for bit (its rollback restores every bit the
//!   logged reductions were computed from); ESRP's within 1e-9 of the
//!   failure-free run, the true residual within 10 · rtol;
//! * no reduce or broadcast message between the end of a recovery span and
//!   the first live reduction, which falls in the trip the failure struck,
//!   and exactly the redone trips' reductions fewer than the paper's rule;
//! * under a dyadic communication-only cost model a redone classic trip
//!   costs exactly its halo round;
//! * a full restart replays nothing: both rules give the same bits.

use esrcg::cluster::{InstantKind, Tag, TraceEvent};
use esrcg::core::solver::SolverConfig;
use esrcg::core::{IntervalPolicy, RecoveryRule};
use esrcg::prelude::*;
use esrcg::sparse::vector::max_abs_diff;

const N_RANKS: usize = 4;
const SSTEP4: PcgVariant = PcgVariant::SStep { s: 4 };

/// Poisson2d 16×16 with the campaign's random load on four ranks (C = 45).
fn experiment(variant: PcgVariant) -> Experiment {
    Experiment::builder()
        .matrix(MatrixSource::Poisson2d { nx: 16, ny: 16 })
        .rhs(RhsSpec::Random { seed: 7 })
        .n_ranks(N_RANKS)
        .variant(variant)
}

/// A fully traced run at φ = 2 hit by `(iteration, first rank, ψ)` events.
fn run(
    variant: PcgVariant,
    strategy: Strategy,
    policy: IntervalPolicy,
    events: &[(usize, usize, usize)],
    rule: RecoveryRule,
) -> RunReport {
    let mut exp = experiment(variant)
        .strategy(strategy)
        .interval_policy(policy)
        .phi(2)
        .recovery_rule(rule)
        .trace(TraceConfig::Full);
    for &(at, start, psi) in events {
        exp = exp.failure_at(at, start, psi);
    }
    let report = exp.run().expect("failure run");
    assert!(report.converged);
    assert_eq!(report.recoveries.len(), events.len());
    report
}

/// Rank `r`'s redo after each recovery: the labels of the trips it ran from
/// the first trip after the recovery span (an adaptive run's tuner reduces
/// before it) to its first live reduction, and the label of the trip that
/// reduction fell in. Asserts that no reduce or broadcast message left the
/// rank in between.
fn redos(report: &RunReport, r: usize) -> Vec<(Vec<u64>, u64)> {
    let trace = report.trace.as_ref().expect("traced run");
    let collectives = [Tag::Reduce as u32, Tag::Bcast as u32];
    let mut out = Vec::new();
    let (mut recovered, mut redo) = (false, None::<Vec<u64>>);
    for ev in &trace.ranks[r].events {
        match ev {
            TraceEvent::RecoverySpan { .. } => recovered = true,
            TraceEvent::Instant { kind, arg, .. } => match kind {
                InstantKind::Iteration if recovered => {
                    redo.get_or_insert_with(Vec::new).push(*arg);
                }
                InstantKind::ReduceStart if redo.is_some() => {
                    let mut trips = redo.take().expect("in a redo");
                    let live = trips.pop().expect("the live reduction's trip");
                    out.push((trips, live));
                    recovered = false;
                }
                _ => {}
            },
            TraceEvent::Send { tag_kind, .. } if redo.is_some() => {
                assert!(
                    !collectives.contains(tag_kind),
                    "rank {r}: a collective in the redo"
                );
            }
            _ => {}
        }
    }
    out
}

/// The trip each failure struck on rank `r`: the last trip mark before it.
fn failure_trips(report: &RunReport, r: usize) -> Vec<u64> {
    let trace = report.trace.as_ref().expect("traced run");
    let mut trip = 0;
    let mut out = Vec::new();
    for ev in &trace.ranks[r].events {
        if let TraceEvent::Instant { kind, arg, .. } = ev {
            match kind {
                InstantKind::Iteration => trip = *arg,
                InstantKind::FailureTrigger => out.push(trip),
                _ => {}
            }
        }
    }
    out
}

/// The live reductions rank 0 started.
fn reductions(report: &RunReport) -> usize {
    let trace = report.trace.as_ref().expect("traced run");
    let starts = trace.ranks[0].events.iter().filter(|ev| {
        matches!(
            ev,
            TraceEvent::Instant {
                kind: InstantKind::ReduceStart,
                ..
            }
        )
    });
    starts.count()
}

/// Runs `events` under both rules and checks everything the module doc
/// lists; returns the number of trips redone without a reduction.
fn replays(
    variant: PcgVariant,
    strategy: Strategy,
    policy: IntervalPolicy,
    events: &[(usize, usize, usize)],
) -> usize {
    let label = format!("{} {strategy} {policy} {events:?}", variant.name());
    let reference = experiment(variant).run().expect("reference run");
    let [paper, extended] = [RecoveryRule::Paper, RecoveryRule::Extended]
        .map(|rule| run(variant, strategy, policy, events, rule));
    assert_eq!(extended.iterations, paper.iterations, "{label}");
    assert_eq!(extended.total_loop_trips, paper.total_loop_trips, "{label}");
    let points = |r: &RunReport| -> Vec<(usize, usize, usize, bool)> {
        let recs = r.recoveries.iter();
        recs.map(|e| {
            (
                e.failed_at,
                e.resumed_at,
                e.wasted_iterations,
                e.full_restart,
            )
        })
        .collect()
    };
    assert_eq!(points(&extended), points(&paper), "{label}");
    let intervals =
        |r: &RunReport| -> Vec<usize> { r.tuning.iter().map(|t| t.interval_after).collect() };
    assert_eq!(intervals(&extended), intervals(&paper), "{label}");
    if matches!(strategy, Strategy::Imcr { .. }) {
        assert!(extended.x == paper.x, "{label}: not the paper's bits");
        assert!(
            extended.x == reference.x,
            "{label}: not the failure-free bits"
        );
    } else {
        let diff = max_abs_diff(&extended.x, &reference.x);
        assert!(diff < 1e-9, "{label}: |x − x_ref| = {diff:e}");
        let rtol = SolverConfig::new(strategy, 2).rtol;
        assert!(extended.true_relres <= 10.0 * rtol, "{label}");
    }

    // Every rank redoes the same trips without a collective, and its first
    // live reduction falls in the trip the failure struck.
    let redone = redos(&extended, 0);
    for r in 0..N_RANKS {
        let got = redos(&extended, r);
        assert_eq!(got, redone, "{label}: rank {r}");
        let live: Vec<u64> = got.iter().map(|(_, live)| *live).collect();
        assert_eq!(live, failure_trips(&extended, r), "{label}: rank {r}");
        // Under the paper's rule the redo's first trip reduces live.
        for (trips, live) in redos(&paper, r) {
            assert!(trips.is_empty(), "{label}: rank {r}, trip {live}");
        }
    }
    // The redo runs from the resume point up to the trip the failure struck.
    for (e, (trips, live)) in extended.recoveries.iter().zip(&redone) {
        assert!(
            !e.full_restart,
            "{label}: see `a_full_restart_replays_nothing`"
        );
        let first = trips.first().unwrap_or(live);
        assert_eq!(*first as usize, e.resumed_at, "{label}");
        assert!(*live as usize <= e.failed_at, "{label}");
    }
    let trips: usize = redone.iter().map(|(trips, _)| trips.len()).sum();

    // Classic reduces twice per trip, pipelined once, s-step once per block.
    let per_trip = if variant == PcgVariant::Classic { 2 } else { 1 };
    assert_eq!(
        reductions(&paper) - reductions(&extended),
        per_trip * trips,
        "{label}"
    );
    assert!(
        extended.modeled_time < paper.modeled_time || trips == 0,
        "{label}"
    );
    trips
}

#[test]
fn the_redo_replays_every_recurrence_under_esrp_and_imcr() {
    for variant in [PcgVariant::Classic, PcgVariant::Pipelined, SSTEP4] {
        for strategy in [Strategy::Esrp { t: 5 }, Strategy::Imcr { t: 5 }] {
            let trips = replays(variant, strategy, IntervalPolicy::Fixed, &[(14, 1, 2)]);
            // The s-step IMCR checkpoint lands on 14's block start, 12.
            let checkpointed = variant == SSTEP4 && strategy.uses_checkpoints();
            let label = format!("{} {strategy}", variant.name());
            assert_eq!(trips > 0, !checkpointed, "{label}: {trips} trips redone");
        }
    }
    // Mid-block: the failure strikes iteration 18 inside the block starting
    // at 16, and IMCR rolls back to the block start 12.
    let fixed = IntervalPolicy::Fixed;
    let trips = replays(SSTEP4, Strategy::Imcr { t: 5 }, fixed, &[(18, 1, 1)]);
    assert_eq!(trips, 1, "one block redone");
    replays(SSTEP4, Strategy::Esrp { t: 5 }, fixed, &[(18, 1, 2)]);
}

#[test]
fn an_adaptive_two_event_run_replays_both_redos() {
    for strategy in [Strategy::Esrp { t: 5 }, Strategy::Imcr { t: 5 }] {
        let trips = replays(
            PcgVariant::Classic,
            strategy,
            IntervalPolicy::Adaptive {
                min_t: 1,
                max_t: 40,
            },
            &[(12, 1, 1), (25, 2, 1)],
        );
        assert!(trips > 0, "{strategy}");
    }
}

#[test]
fn a_full_restart_replays_nothing() {
    for variant in [PcgVariant::Classic, PcgVariant::Pipelined, SSTEP4] {
        for strategy in [Strategy::Esrp { t: 5 }, Strategy::Imcr { t: 5 }] {
            let label = format!("{} {strategy}", variant.name());
            let [paper, extended] = [RecoveryRule::Paper, RecoveryRule::Extended]
                .map(|rule| run(variant, strategy, IntervalPolicy::Fixed, &[(3, 0, 1)], rule));
            assert!(extended.recoveries[0].full_restart, "{label}");
            assert_eq!(extended.x, paper.x, "{label}");
            let bits = |r: &RunReport| r.modeled_time.to_bits();
            assert_eq!(bits(&extended), bits(&paper), "{label}");
            assert_eq!(reductions(&extended), reductions(&paper), "{label}");
        }
    }
}

#[test]
fn a_redone_classic_trip_costs_exactly_its_halo_round() {
    // Two ranks, one halo message each way of 16 values; α and β dyadic and
    // compute free, so every clock sum is exact. ESRP(5) fails at 14 and
    // rolls back to 11: trips 12 and 13 are plain (no storage stage), and
    // each advances the latest rank's clock by one injection, one latency
    // and the message's bytes.
    let (alpha, beta) = (2f64.powi(-20), 2f64.powi(-30));
    let halo_round = 2.0 * alpha + (8 * 16) as f64 * beta;
    let trip_cost = |rule: RecoveryRule| {
        let report = Experiment::builder()
            .matrix(MatrixSource::Poisson2d { nx: 16, ny: 16 })
            .rhs(RhsSpec::Random { seed: 7 })
            .n_ranks(2)
            .strategy(Strategy::Esrp { t: 5 })
            .phi(1)
            .recovery_rule(rule)
            .cost_model(CostModel::comm_only(alpha, beta))
            .failure_at(14, 1, 1)
            .trace(TraceConfig::Full)
            .run()
            .expect("run");
        assert_eq!(report.recoveries[0].resumed_at, 11);
        let trace = report.trace.as_ref().expect("traced run");
        // The latest rank's clock entering trip `j` of the redo.
        let entering = |j: u64| {
            let clock = trace.ranks.iter().map(|rank| {
                let after = rank
                    .events
                    .iter()
                    .skip_while(|ev| !matches!(ev, TraceEvent::RecoverySpan { .. }));
                let mark = after.filter_map(|ev| match ev {
                    TraceEvent::Instant {
                        kind: InstantKind::Iteration,
                        arg,
                        at,
                    } if *arg == j => Some(*at),
                    _ => None,
                });
                mark.last().expect("a redone trip")
            });
            clock.fold(0.0, f64::max)
        };
        [entering(13) - entering(12), entering(14) - entering(13)]
    };
    for cost in trip_cost(RecoveryRule::Extended) {
        assert_eq!(
            cost.to_bits(),
            halo_round.to_bits(),
            "{cost} vs {halo_round}"
        );
    }
    for cost in trip_cost(RecoveryRule::Paper) {
        assert!(cost > halo_round, "the paper's redo reduces live: {cost}");
    }
}
