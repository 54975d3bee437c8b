//! Classic vs pipelined PCG: convergence equivalence, recovery coverage,
//! and the modeled-time win of the overlapped reduction.
//!
//! The two variants are *not* bitwise identical (the pipelined recurrence
//! restructures the arithmetic), so equivalence here means: both converge,
//! iteration counts agree to ±5%, and both reach the true-residual
//! tolerance. The performance claims *are* exact statements about the
//! deterministic modeled clock: with the same cost model and the same
//! split-phase SpMV, the pipelined variant must be strictly faster at 8 and
//! 16 ranks, with measurably less blocked time under `Phase::Reduction`.

use esrcg_cluster::Phase;
use esrcg_core::driver::{Experiment, MatrixSource, RhsSpec};
use esrcg_core::solver::PcgVariant;
use esrcg_core::{IntervalPolicy, RunReport, Strategy};
use esrcg_sparse::KernelBackend;

fn poisson(nx: usize, ny: usize) -> MatrixSource {
    MatrixSource::Poisson2d { nx, ny }
}

fn elasticity() -> MatrixSource {
    MatrixSource::AudikwLike {
        nx: 4,
        ny: 4,
        nz: 4,
    }
}

fn run_variant(
    matrix: MatrixSource,
    n_ranks: usize,
    threads: usize,
    variant: PcgVariant,
) -> RunReport {
    Experiment::builder()
        .matrix(matrix)
        .rhs(RhsSpec::Random { seed: 42 })
        .n_ranks(n_ranks)
        .backend(KernelBackend::parallel(threads))
        .variant(variant)
        .run()
        .expect("experiment runs")
}

/// ±5% iteration-count agreement (with a 2-iteration floor for the rounding
/// granularity of small problems).
fn assert_iters_close(classic: usize, pipelined: usize, what: &str) {
    let tol = ((classic as f64 * 0.05).ceil() as i64).max(2);
    let diff = (classic as i64 - pipelined as i64).abs();
    assert!(
        diff <= tol,
        "{what}: classic {classic} vs pipelined {pipelined} iterations \
         (|Δ| = {diff} > {tol})"
    );
}

#[test]
fn pipelined_matches_classic_across_ranks_and_threads() {
    for (matrix_name, matrix) in [("poisson2d", poisson(24, 24)), ("elasticity", elasticity())] {
        let matrix = &matrix;
        for &n_ranks in &[1usize, 2, 4, 8] {
            for &threads in &[1usize, 2, 8] {
                let classic = run_variant(matrix.clone(), n_ranks, threads, PcgVariant::Classic);
                let pipelined =
                    run_variant(matrix.clone(), n_ranks, threads, PcgVariant::Pipelined);
                let what = format!("{matrix_name} @ {n_ranks}r/{threads}t");
                assert!(classic.converged, "{what}: classic converged");
                assert!(pipelined.converged, "{what}: pipelined converged");
                assert_iters_close(classic.iterations, pipelined.iterations, &what);
                assert!(
                    pipelined.true_relres < 1e-7,
                    "{what}: pipelined true relres {}",
                    pipelined.true_relres
                );
                assert!(
                    pipelined.residual_drift.abs() < 1.0,
                    "{what}: drift {}",
                    pipelined.residual_drift
                );
            }
        }
    }
}

#[test]
fn pipelined_recovers_under_every_strategy() {
    let matrix = poisson(24, 24);
    let reference = run_variant(matrix.clone(), 4, 1, PcgVariant::Pipelined);
    assert!(reference.converged);
    let c = reference.iterations;
    for (strategy, phi, label) in [
        (Strategy::esr(), 1, "ESR"),
        (Strategy::Esrp { t: 5 }, 1, "ESRP(5)"),
        (Strategy::Imcr { t: 5 }, 1, "IMCR(5)"),
    ] {
        let report = Experiment::builder()
            .matrix(matrix.clone())
            .rhs(RhsSpec::Random { seed: 42 })
            .n_ranks(4)
            .variant(PcgVariant::Pipelined)
            .strategy(strategy)
            .phi(phi)
            .failure_at(c / 2, 1, 1)
            .run()
            .expect("experiment runs");
        assert!(report.converged, "{label}: pipelined run converged");
        let rec = report.recoveries.first().expect("failure processed");
        assert_eq!(rec.failed_at, c / 2, "{label}");
        assert!(!rec.full_restart, "{label}: a recovery point existed");
        assert!(rec.recovery_time > 0.0, "{label}");
        assert_iters_close(c, report.iterations, label);
        assert!(
            report.true_relres < 1e-7,
            "{label}: true relres {} after recovery",
            report.true_relres
        );
    }
}

#[test]
fn pipelined_multi_rank_failure_recovers() {
    let matrix = poisson(24, 24);
    let reference = run_variant(matrix.clone(), 6, 1, PcgVariant::Pipelined);
    let c = reference.iterations;
    let report = Experiment::builder()
        .matrix(matrix)
        .rhs(RhsSpec::Random { seed: 42 })
        .n_ranks(6)
        .variant(PcgVariant::Pipelined)
        .strategy(Strategy::Esrp { t: 4 })
        .phi(3)
        .failure_at(c / 2, 2, 3)
        .run()
        .expect("experiment runs");
    assert!(report.converged);
    assert_iters_close(c, report.iterations, "ESRP(4) psi=3");
    assert!(report.true_relres < 1e-7);
}

#[test]
fn pipelined_full_restart_before_first_recovery_point() {
    let report = Experiment::builder()
        .matrix(poisson(24, 24))
        .rhs(RhsSpec::Random { seed: 42 })
        .n_ranks(4)
        .variant(PcgVariant::Pipelined)
        .strategy(Strategy::Esrp { t: 50 })
        .phi(1)
        .failure_at(3, 0, 1)
        .run()
        .expect("experiment runs");
    assert!(report.converged);
    let rec = report.recoveries.first().unwrap();
    assert!(rec.full_restart);
    assert_eq!(rec.resumed_at, 0);
}

/// The tentpole's performance claim: at 8 and 16 ranks the pipelined
/// variant strictly beats classic on the modeled clock (both on the default
/// split-phase SpMV and cost model), and the win shows up where it should —
/// blocked time under `Phase::Reduction`.
#[test]
fn pipelined_beats_classic_on_the_modeled_clock() {
    for &n_ranks in &[8usize, 16] {
        let matrix = poisson(32, 32);
        let classic = run_variant(matrix.clone(), n_ranks, 1, PcgVariant::Classic);
        let pipelined = run_variant(matrix, n_ranks, 1, PcgVariant::Pipelined);
        assert!(classic.converged && pipelined.converged);

        // Compare per-iteration time: convergence may differ by a couple of
        // iterations, which must not be allowed to fake (or mask) a win.
        let t_classic = classic.modeled_time / classic.iterations as f64;
        let t_pipelined = pipelined.modeled_time / pipelined.iterations as f64;
        assert!(
            t_pipelined < t_classic,
            "{n_ranks} ranks: pipelined {t_pipelined} vs classic {t_classic} \
             modeled seconds per iteration"
        );

        let wait = |r: &RunReport, phase: Phase| -> f64 {
            r.per_rank_stats
                .iter()
                .map(|s| s.recv_wait[phase as usize])
                .sum()
        };
        let w_classic = wait(&classic, Phase::Reduction) / classic.iterations as f64;
        let w_pipelined = wait(&pipelined, Phase::Reduction) / pipelined.iterations as f64;
        assert!(
            w_pipelined < w_classic,
            "{n_ranks} ranks: reduction wait/iter {w_pipelined} vs {w_classic}"
        );
        assert!(
            wait(&classic, Phase::SpMV) < wait(&classic, Phase::Reduction),
            "{n_ranks} ranks: classic PCG waits on its reductions, not on the overlapped halo"
        );
    }
}

/// Satellite: modeled-cost attribution is complete — per-phase blocked time
/// sums (bitwise) to the total, and reductions are attributed to
/// `Phase::Reduction` rather than leaking into compute phases.
#[test]
fn per_phase_wait_accounts_for_all_blocked_time() {
    for variant in [PcgVariant::Classic, PcgVariant::Pipelined] {
        let report = run_variant(poisson(24, 24), 4, 1, variant);
        for (rank, s) in report.per_rank_stats.iter().enumerate() {
            let by_phase: f64 = s.recv_wait.iter().sum();
            assert_eq!(
                by_phase.to_bits(),
                s.total_recv_wait().to_bits(),
                "{} rank {rank}: per-phase recv_wait must sum to the total",
                variant.name()
            );
        }
        let reduction_wait: f64 = report
            .per_rank_stats
            .iter()
            .map(|s| s.recv_wait[Phase::Reduction as usize])
            .sum();
        assert!(
            reduction_wait > 0.0,
            "{}: reductions attributed to Phase::Reduction",
            variant.name()
        );
    }

    // The same completeness must hold when recoveries and the adaptive
    // interval tuner add their own collectives (attributed to the recovery
    // phases, never to a compute phase): drills run exactly this shape.
    for variant in [PcgVariant::Classic, PcgVariant::Pipelined] {
        let report = Experiment::builder()
            .matrix(poisson(24, 24))
            .rhs(RhsSpec::Random { seed: 42 })
            .n_ranks(4)
            .variant(variant)
            .strategy(Strategy::Esrp { t: 5 })
            .interval_policy(IntervalPolicy::Adaptive {
                min_t: 1,
                max_t: 40,
            })
            .phi(1)
            .failure_at(12, 0, 1)
            .failure_at(26, 2, 1)
            .failure_at(40, 1, 1)
            .run()
            .expect("auto-tuned failing run");
        assert!(report.converged);
        assert_eq!(report.recoveries.len(), 3);
        assert_eq!(report.tuning.len(), 3, "the tuner saw every recovery");
        for (rank, s) in report.per_rank_stats.iter().enumerate() {
            let by_phase: f64 = s.recv_wait.iter().sum();
            assert_eq!(
                by_phase.to_bits(),
                s.total_recv_wait().to_bits(),
                "{} rank {rank}: attribution stays complete under tuning",
                variant.name()
            );
        }
    }
}
