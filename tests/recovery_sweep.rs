//! Every failure iteration of a small solve, recovered: Poisson2d 16×16 on
//! 4 ranks with the campaign's random load (C = 45), hit once at each
//! `j ∈ [1, C)` by ψ = 1 or ψ = 2 ranks (a contiguous pair and the pair
//! that wraps from the last rank to the first), under ESR, ESRP(5) and
//! IMCR(5) and the classic, pipelined and s-step recurrences.
//!
//! What a recovery must give back:
//! * every run converges, and a classic run in the reference's C;
//! * an IMCR rollback copies every replicated scalar back with the vectors,
//!   `r·z` included, so the run returns the failure-free `x` bit for bit
//!   under every recurrence;
//! * an ESR/ESRP reconstruction lands within 1e-9 of the failure-free `x`;
//! * the recovery spans replay the reported cost: the longest of the ranks'
//!   span sums (the event's span, plus the end solve's when the event
//!   deferred its `x`) is the event's `recovery_time`, bit for bit, and so
//!   is the trace's own fold.

use esrcg::cluster::TraceEvent;
use esrcg::prelude::*;
use esrcg::sparse::vector::max_abs_diff;

const N_RANKS: usize = 4;

fn experiment(variant: PcgVariant) -> Experiment {
    Experiment::builder()
        .matrix(MatrixSource::Poisson2d { nx: 16, ny: 16 })
        .rhs(RhsSpec::Random { seed: 7 })
        .n_ranks(N_RANKS)
        .variant(variant)
}

#[test]
fn every_failure_iteration_recovers_under_every_strategy_and_recurrence() {
    let variants = [
        PcgVariant::Classic,
        PcgVariant::Pipelined,
        PcgVariant::SStep { s: 4 },
    ];
    let strategies = [
        Strategy::esr(),
        Strategy::Esrp { t: 5 },
        Strategy::Imcr { t: 5 },
    ];
    for variant in variants {
        let reference = experiment(variant).run().expect("reference run");
        assert!(reference.converged, "{}", variant.name());
        let c = reference.iterations;
        assert_eq!(c, 45, "{}: the sweep's problem", variant.name());
        for strategy in strategies {
            for j in 1..c {
                // ψ = 1 on every rank in turn, a contiguous pair, and the
                // pair that wraps around.
                let blocks = [(j % N_RANKS, 1), (j % (N_RANKS - 1), 2), (N_RANKS - 1, 2)];
                for (start, psi) in blocks {
                    let label = format!("{} {strategy} j={j} ranks {start}+{psi}", variant.name());
                    let run = experiment(variant)
                        .strategy(strategy)
                        .phi(2)
                        .failure_at(j, start, psi)
                        .trace(TraceConfig::Spans)
                        .run()
                        .expect("failure run");
                    assert!(run.converged, "{label}");
                    if variant == PcgVariant::Classic {
                        assert_eq!(run.iterations, c, "{label}");
                    }
                    let diff = max_abs_diff(&run.x, &reference.x);
                    if matches!(strategy, Strategy::Imcr { .. }) {
                        let bitwise = run.x == reference.x;
                        assert!(bitwise, "{label}: not bitwise, |x − x_ref| = {diff:e}");
                    } else {
                        assert!(diff < 1e-9, "{label}: |x − x_ref| = {diff:e}");
                    }
                    assert_eq!(run.recoveries.len(), 1, "{label}");
                    let reported = run.recoveries[0].recovery_time.to_bits();
                    let trace = run.trace.as_ref().expect("traced run");
                    // One episode: each rank's spans summed in order, then
                    // the longest rank.
                    let episode = trace.ranks.iter().map(|rank| {
                        let spans = rank.events.iter().filter_map(|ev| match ev {
                            TraceEvent::RecoverySpan { start, end } => Some(end - start),
                            _ => None,
                        });
                        spans.fold(0.0, |sum, span| sum + span)
                    });
                    let longest = episode.fold(0.0, f64::max);
                    let at = "the longest per-rank episode sum";
                    assert_eq!(longest.to_bits(), reported, "{label}: {at}");
                    let folded = trace.recovery_seconds().to_bits();
                    assert_eq!(folded, reported, "{label}: the trace's fold");
                }
            }
        }
    }
}
