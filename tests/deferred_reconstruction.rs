//! Deferred reconstruction (`RecoveryRule::Extended`): an ESR/ESRP event
//! with ψ ≥ 2, or one that strikes a pending rank or a halo peer of one,
//! stops after Alg. 2 line 6 and leaves its ranks pending; when the loop
//! exits, each connected component of the pending set solves for its `x`
//! once, from the final residual and the survivors' final `x`.
//!
//! What the rule must keep:
//! * every outer bit of the paper's rule (iterations, loop trips, the
//!   recurrence residual, every resume point), the final `x` within 1e-9 of
//!   the failure-free run and the true residual within 10 · rtol;
//! * the survivors' own `x` bit for bit — ESRP survivors roll back their own
//!   starred `x*`, ESR survivors keep theirs.
//!
//!   These two hold where no rollback re-executes a trip, so the ESRP
//!   schedules fail at a storage stage's second iteration (ĵ = mT + 1): a
//!   rollback's redo replays the logged reductions under this rule and
//!   re-runs them under the paper's, which rounds differently. An ESRP event
//!   with a redo keeps the paper's counts and resume points and the bounds
//!   (`tests/redo_replays_reductions.rs` pins the redo itself);
//! * IMCR's `x` bit for bit, with nothing deferred;
//! * the pending set: a full restart leaves nothing pending, a pending rank
//!   that fails again adds nothing, a lone failure next to a pending rank
//!   defers and merges (and one with no pending neighbour solves at once);
//! * the end solve's protocol: one values-only `x` message per survivor and
//!   pending halo peer, then only inner-solve traffic inside each component,
//!   the components concurrently — and one component spanning every rank
//!   still converges.

use esrcg::cluster::{Tag, TraceEvent};
use esrcg::core::dist::plan::CommPlan;
use esrcg::core::RecoveryRule;
use esrcg::prelude::*;
use esrcg::sparse::gen::poisson2d;
use esrcg::sparse::vector::max_abs_diff;

const RTOL: f64 = 1e-8;
const ESRP: Strategy = Strategy::Esrp { t: 5 };

/// A failure event: `(iteration, first rank, ψ)`.
type Event = (usize, usize, usize);
/// A send: `(peer, tag kind, bytes)`.
type Sent = (usize, u32, usize);

/// Poisson2d 16×16 (C = 45) on `n_ranks` row slabs, each a halo peer of its
/// neighbours only.
fn experiment(n_ranks: usize, variant: PcgVariant) -> Experiment {
    Experiment::builder()
        .matrix(MatrixSource::Poisson2d { nx: 16, ny: 16 })
        .rhs(RhsSpec::Random { seed: 7 })
        .n_ranks(n_ranks)
        .variant(variant)
        .rtol(RTOL)
}

/// The failure-free run.
fn reference(n_ranks: usize, variant: PcgVariant) -> RunReport {
    experiment(n_ranks, variant).run().expect("reference run")
}

/// A traced run at φ = 2 hit by `events`, its `x` reconstructed by `rule`.
fn run(
    n_ranks: usize,
    variant: PcgVariant,
    strategy: Strategy,
    events: &[Event],
    rule: RecoveryRule,
) -> RunReport {
    let mut exp = experiment(n_ranks, variant)
        .strategy(strategy)
        .phi(2)
        .recovery_rule(rule)
        .trace(TraceConfig::Full);
    for &(at, start, psi) in events {
        exp = exp.failure_at(at, start, psi);
    }
    let report = exp.run().expect("failure run");
    assert!(report.converged);
    assert_eq!(report.recoveries.len(), events.len());
    let trace = report.trace.as_ref().expect("traced run");
    trace.validate().expect("every interval is phase-covered");
    if !report.recoveries.iter().any(|r| r.full_restart) {
        let recovery_phases_only = trace.validate_recovery_attribution();
        recovery_phases_only.expect("only recovery phases inside recovery spans");
    }
    report
}

/// Both rules on the same events.
fn both(n_ranks: usize, strategy: Strategy, events: &[Event]) -> [RunReport; 2] {
    [RecoveryRule::Paper, RecoveryRule::Extended]
        .map(|rule| run(n_ranks, PcgVariant::Classic, strategy, events, rule))
}

/// Rank `r`'s recovery spans, in order.
fn spans(report: &RunReport, r: usize) -> Vec<(f64, f64)> {
    let trace = report.trace.as_ref().expect("traced run");
    let spans = trace.ranks[r].events.iter().filter_map(|ev| match ev {
        TraceEvent::RecoverySpan { start, end } => Some((*start, *end)),
        _ => None,
    });
    spans.collect()
}

/// What rank `r` sent inside `span`.
fn sends_in(report: &RunReport, r: usize, (start, end): (f64, f64)) -> Vec<Sent> {
    let trace = report.trace.as_ref().expect("traced run");
    let sends = trace.ranks[r].events.iter().filter_map(|ev| match ev {
        TraceEvent::Send {
            peer,
            tag_kind,
            bytes,
            at,
        } if *at > start && *at <= end => Some((*peer, *tag_kind, *bytes)),
        _ => None,
    });
    sends.collect()
}

/// Per rank, what it sent during the end solve; `None` when nothing was
/// pending (no rank recorded a span beyond its events').
fn end_traffic(report: &RunReport) -> Option<Vec<Vec<Sent>>> {
    let n_ranks = report.per_rank_stats.len();
    let events = report.recoveries.len();
    let ended = spans(report, 0).len() == events + 1;
    for r in 0..n_ranks {
        assert_eq!(
            spans(report, r).len(),
            events + usize::from(ended),
            "rank {r}"
        );
    }
    ended.then(|| {
        let last = |r| spans(report, r)[events];
        (0..n_ranks).map(|r| sends_in(report, r, last(r))).collect()
    })
}

/// What survivor `s` sent replacement `f` in the gather of event `e`.
fn gather_bytes(report: &RunReport, e: usize, s: usize, f: usize) -> usize {
    let sent = sends_in(report, s, spans(report, s)[e]);
    let to_f = sent
        .iter()
        .filter(|m| m.0 == f && m.1 == Tag::RecoveryCopies as u32);
    let to_f: Vec<_> = to_f.collect();
    assert_eq!(to_f.len(), 1, "event {e}: {s} → {f}");
    to_f[0].2
}

/// The plan of the probe on `n_ranks` ranks.
fn plan(n_ranks: usize) -> CommPlan {
    let a = poisson2d(16, 16);
    let part = Partition::balanced(a.nrows(), n_ranks);
    CommPlan::build(&a, &part)
}

/// The closed form of the end solve whose pending set splits into
/// `components`: survivor `s` sends each pending halo peer `k`
/// exactly one `x` message of `8 · |I(s,k)|` bytes and nothing else; a
/// pending rank sends only inner-solve traffic, to the other members of its
/// component, and some when the component has two members or more.
fn assert_end_solve(report: &RunReport, components: &[&[usize]], label: &str) {
    let traffic = end_traffic(report).unwrap_or_else(|| panic!("{label}: no end solve"));
    let plan = plan(traffic.len());
    let component_of = |r: usize| components.iter().find(|c| c.contains(&r));
    for (r, sent) in traffic.iter().enumerate() {
        match component_of(r) {
            None => {
                let mut expected = Vec::new();
                for k in components.iter().flat_map(|c| c.iter().copied()) {
                    let idx = plan.indices_to(r, k);
                    if !idx.is_empty() {
                        expected.push((k, Tag::RecoveryCopies as u32, 8 * idx.len()));
                    }
                }
                expected.sort_unstable();
                assert_eq!(sent, &expected, "{label}: survivor {r}");
            }
            Some(component) => {
                let inner = |m: &Sent| {
                    m.1 == Tag::RecoveryInner as u32 && m.0 != r && component.contains(&m.0)
                };
                assert!(
                    sent.iter().all(inner),
                    "{label}: pending rank {r} sent {sent:?}"
                );
                assert_eq!(sent.is_empty(), component.len() == 1, "{label}: rank {r}");
                for &peer in component.iter().filter(|&&p| p != r) {
                    // The member rounds reach every member of the component.
                    assert!(sent.iter().any(|m| m.0 == peer), "{label}: {r} → {peer}");
                }
            }
        }
    }
}

/// The deferred run keeps every outer bit of the paper's, lands within the
/// bounds, and leaves the never-failed ranks' `x` bit for bit. For schedules
/// whose rollbacks re-execute no trip.
fn assert_outer_bits_and_bounds(
    paper: &RunReport,
    deferred: &RunReport,
    reference: &RunReport,
    survivors: &[usize],
    label: &str,
) {
    assert_counts_and_bounds(paper, deferred, reference, label);
    let relres = |r: &RunReport| r.final_relres.to_bits();
    assert_eq!(
        relres(deferred),
        relres(paper),
        "{label}: recurrence residual"
    );
    let n_ranks = deferred.per_rank_stats.len();
    let part = Partition::balanced(deferred.x.len(), n_ranks);
    for &s in survivors {
        let own = part.range(s);
        let bits = |r: &RunReport| {
            r.x[own.clone()]
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(deferred), bits(paper), "{label}: survivor {s}'s own x");
    }
}

/// The deferred run keeps the paper's counts and resume points and lands
/// within the bounds. For schedules with a redo, whose replayed reductions
/// round differently from the paper's re-run ones.
fn assert_counts_and_bounds(
    paper: &RunReport,
    deferred: &RunReport,
    reference: &RunReport,
    label: &str,
) {
    assert_eq!(deferred.iterations, paper.iterations, "{label}");
    assert_eq!(deferred.total_loop_trips, paper.total_loop_trips, "{label}");
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
    assert_eq!(points(deferred), points(paper), "{label}: resume points");
    let diff = max_abs_diff(&deferred.x, &reference.x);
    assert!(diff < 1e-9, "{label}: |x − x_ref| = {diff:e}");
    assert!(
        deferred.true_relres <= 10.0 * RTOL,
        "{label}: {}",
        deferred.true_relres
    );
}

#[test]
fn deferring_moves_x_alone_and_keeps_it_within_the_bounds() {
    // ψ = 2 on {1, 2}, then a lone failure of rank 3 next to pending rank 2:
    // one end solve over {1, 2, 3}, with rank 0 its only survivor. At 11 and
    // 26 no rollback re-executes a trip (ESRP(5)'s ĵ, and a protected s-step
    // block start's window); at 12 and 25 ESRP redoes 1 and 4 iterations.
    let at_stages = [(11, 1, 2), (26, 3, 1)];
    let with_redo = [(12, 1, 2), (25, 3, 1)];
    for variant in [
        PcgVariant::Classic,
        PcgVariant::Pipelined,
        PcgVariant::SStep { s: 4 },
    ] {
        let reference = reference(4, variant);
        assert_eq!(reference.iterations, 45);
        for (strategy, events) in [
            (Strategy::esr(), &at_stages),
            (ESRP, &at_stages),
            (ESRP, &with_redo),
        ] {
            let label = format!("{} {strategy} {events:?}", variant.name());
            let [paper, deferred] = [RecoveryRule::Paper, RecoveryRule::Extended]
                .map(|rule| run(4, variant, strategy, events, rule));
            if events == &with_redo {
                assert_counts_and_bounds(&paper, &deferred, &reference, &label);
            } else {
                assert_outer_bits_and_bounds(&paper, &deferred, &reference, &[0], &label);
            }
            assert!(
                end_traffic(&paper).is_none(),
                "{label}: Paper defers nothing"
            );
            assert_end_solve(&deferred, &[&[1, 2, 3]], &label);
        }
    }
}

#[test]
fn esrp_survivors_roll_back_their_own_x() {
    let reference = reference(4, PcgVariant::Classic);
    // At ĵ = 11 itself: ranks 0 and 3 rolled back to their starred x* and
    // went on with nothing to redo — the same bits under both rules, and
    // within the bounds overall.
    let [paper, deferred] = both(4, ESRP, &[(11, 1, 2)]);
    assert_eq!(deferred.recoveries[0].resumed_at, 11);
    assert_outer_bits_and_bounds(&paper, &deferred, &reference, &[0, 3], "esrp5 at 11");
    assert_end_solve(&deferred, &[&[1, 2]], "esrp5 at 11");
    // One iteration later the rollback redoes iteration 11, whose logged
    // reductions round differently from the paper's re-run ones: the same
    // counts and resume points, and the same end solve.
    let [paper, deferred] = both(4, ESRP, &[(12, 1, 2)]);
    let rec = &deferred.recoveries[0];
    assert!(
        rec.resumed_at < rec.failed_at,
        "a rollback, not ESR's reconstruction"
    );
    assert_counts_and_bounds(&paper, &deferred, &reference, "esrp5 at 12");
    assert_end_solve(&deferred, &[&[1, 2]], "esrp5 at 12");
}

#[test]
fn a_full_restart_leaves_nothing_pending() {
    // A ψ = 2 event before the first storage stage restarts from x⁰; the
    // later ψ = 2 event on {2, 3}, at the storage stage's ĵ = 26, is the
    // only thing pending at the end.
    let reference = reference(4, PcgVariant::Classic);
    let events = [(3, 0, 2), (26, 2, 2)];
    let [paper, deferred] = both(4, ESRP, &events);
    assert!(deferred.recoveries[0].full_restart);
    assert!(!deferred.recoveries[1].full_restart);
    assert_outer_bits_and_bounds(&paper, &deferred, &reference, &[0, 1], "restart");
    assert_end_solve(&deferred, &[&[2, 3]], "restart");
    // A restart alone leaves nothing to solve at the end, and costs the same
    // under both rules.
    let [paper, deferred] = both(4, ESRP, &events[..1]);
    assert!(end_traffic(&deferred).is_none());
    let cost = |r: &RunReport| r.recoveries[0].recovery_time.to_bits();
    assert_eq!(cost(&deferred), cost(&paper));
    assert_eq!(
        deferred.modeled_time.to_bits(),
        paper.modeled_time.to_bits()
    );
}

#[test]
fn a_pending_rank_that_fails_again_adds_nothing() {
    let reference = reference(4, PcgVariant::Classic);
    let plan = plan(4);
    let once = both(4, Strategy::esr(), &[(12, 1, 2)]);
    let [paper, twice] = both(4, Strategy::esr(), &[(12, 1, 2), (25, 2, 1)]);
    assert_outer_bits_and_bounds(&paper, &twice, &reference, &[0, 3], "twice");
    // The second event strikes pending rank 2 alone: it defers, so its
    // gather carries no `x` — survivor 3 sends 8 · |I(3,2)| bytes less than
    // under the paper's rule.
    let x_part = 8 * plan.indices_to(3, 2).len();
    assert_eq!(
        gather_bytes(&paper, 1, 3, 2) - gather_bytes(&twice, 1, 3, 2),
        x_part
    );
    // And the end solve is the one-event run's: the same component {1, 2},
    // the same `x` round.
    assert_end_solve(&once[1], &[&[1, 2]], "once");
    assert_end_solve(&twice, &[&[1, 2]], "twice");
    let survivors = |r: &RunReport| {
        let traffic = end_traffic(r).expect("an end solve");
        [traffic[0].clone(), traffic[3].clone()]
    };
    assert_eq!(survivors(&twice), survivors(&once[1]));
}

#[test]
fn a_lone_failure_next_to_a_pending_rank_defers_and_merges() {
    let reference = reference(4, PcgVariant::Classic);
    let plan = plan(4);
    // Rank 1 fails alone next to pending rank 2: it defers (no `x` in the
    // gather from survivor 0) and joins {2, 3} in one component.
    let [paper, merged] = both(4, Strategy::esr(), &[(12, 2, 2), (25, 1, 1)]);
    assert_outer_bits_and_bounds(&paper, &merged, &reference, &[0], "merged");
    let x_part = 8 * plan.indices_to(0, 1).len();
    assert_eq!(
        gather_bytes(&paper, 1, 0, 1) - gather_bytes(&merged, 1, 0, 1),
        x_part
    );
    assert_end_solve(&merged, &[&[1, 2, 3]], "merged");
    // Rank 0 fails alone with no pending neighbour: it solves at once, its
    // gather carrying the `x` halo as under the paper's rule, and the end
    // solve covers {2, 3} only.
    let [paper, lone] = both(4, Strategy::esr(), &[(12, 2, 2), (25, 0, 1)]);
    assert_outer_bits_and_bounds(&paper, &lone, &reference, &[1], "lone");
    assert_eq!(gather_bytes(&lone, 1, 1, 0), gather_bytes(&paper, 1, 1, 0));
    assert!(lone.recoveries[1].inner_iterations > 0, "solved at once");
    assert_end_solve(&lone, &[&[2, 3]], "lone");
}

#[test]
fn imcr_is_untouched() {
    // Nothing of IMCR's is deferred: the same solution bit for bit, the same
    // resume points and no end solve. Only its redo is cheaper: it replays
    // the logged reductions.
    let [paper, deferred] = both(4, Strategy::Imcr { t: 5 }, &[(12, 1, 2), (25, 3, 1)]);
    assert_eq!(deferred.x, paper.x);
    assert_eq!(deferred.iterations, paper.iterations);
    assert_eq!(deferred.total_loop_trips, paper.total_loop_trips);
    let points = |r: &RunReport| -> Vec<(usize, usize, usize)> {
        let recs = r.recoveries.iter();
        recs.map(|e| (e.failed_at, e.resumed_at, e.inner_iterations))
            .collect()
    };
    assert_eq!(points(&deferred), points(&paper));
    assert!(deferred.modeled_time < paper.modeled_time);
    assert!(end_traffic(&deferred).is_none());
}

#[test]
fn a_component_spanning_every_rank_converges() {
    // {0, 1} then {2, 3}: every rank is pending, nobody sends an `x`, and
    // the end solve is the whole system's, from x = 0.
    for strategy in [Strategy::esr(), ESRP] {
        let label = format!("{strategy}");
        let reference = reference(4, PcgVariant::Classic);
        let [paper, deferred] = both(4, strategy, &[(11, 0, 2), (26, 2, 2)]);
        assert_outer_bits_and_bounds(&paper, &deferred, &reference, &[], &label);
        assert_end_solve(&deferred, &[&[0, 1, 2, 3]], &label);
    }
}

#[test]
fn components_solve_concurrently_on_disjoint_ranks() {
    // Six ranks: {0, 1} and {3, 4} pending, survivors 2 and 5.
    let reference = reference(6, PcgVariant::Classic);
    let [paper, deferred] = both(6, Strategy::esr(), &[(12, 0, 2), (25, 3, 2)]);
    assert_outer_bits_and_bounds(&paper, &deferred, &reference, &[2, 5], "two");
    assert_end_solve(&deferred, &[&[0, 1], &[3, 4]], "two");
    // Both components start at the loop's exit and overlap in time.
    let last = |r: usize| *spans(&deferred, r).last().expect("an end span");
    let (a, b) = ([0, 1].map(last), [3, 4].map(last));
    let latest_start = a.iter().chain(&b).map(|s| s.0).fold(0.0, f64::max);
    let earliest_end = a
        .iter()
        .chain(&b)
        .map(|s| s.1)
        .fold(f64::INFINITY, f64::min);
    assert!(latest_start < earliest_end, "the components overlap");
}
