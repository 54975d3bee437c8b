//! Classic vs s-step PCG: convergence equivalence, mid-block recovery
//! coverage, and the communication-avoiding win on the modeled clock.
//!
//! The s-step recurrence batches up to `s` iterations behind a single
//! fused Gram reduction, so it is *not* bitwise identical to classic —
//! equivalence here means: both converge, iteration counts agree to ±10%
//! (the monomial basis trades a little numerical headroom for latency),
//! and the true residual reaches the tolerance. The s-step variant *is*
//! required to be bitwise self-identical across thread counts: every
//! protocol decision derives from replicated Gram scalars, and the
//! materialization axpys run in fixed column order.

use esrcg_cluster::{CostModel, Phase};
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

/// ±10% iteration-count agreement (with a 3-iteration floor: on small
/// problems a truncated final block can round the count by a couple).
fn assert_iters_close(classic: usize, sstep: usize, what: &str) {
    let tol = ((classic as f64 * 0.10).ceil() as i64).max(3);
    let diff = (classic as i64 - sstep as i64).abs();
    assert!(
        diff <= tol,
        "{what}: classic {classic} vs s-step {sstep} iterations \
         (|Δ| = {diff} > {tol})"
    );
}

#[test]
fn sstep_matches_classic_across_ranks_threads_and_block_sizes() {
    for (matrix_name, matrix) in [("poisson2d", poisson(24, 24)), ("elasticity", elasticity())] {
        let matrix = &matrix;
        for &n_ranks in &[1usize, 2, 4, 8] {
            for &threads in &[1usize, 2, 8] {
                let classic = run_variant(matrix.clone(), n_ranks, threads, PcgVariant::Classic);
                assert!(classic.converged);
                for &s in &[2usize, 4, 8] {
                    let sstep =
                        run_variant(matrix.clone(), n_ranks, threads, PcgVariant::SStep { s });
                    let what = format!("{matrix_name} @ {n_ranks}r/{threads}t s={s}");
                    assert!(sstep.converged, "{what}: s-step converged");
                    assert_iters_close(classic.iterations, sstep.iterations, &what);
                    assert!(
                        sstep.true_relres < 1e-7,
                        "{what}: s-step true relres {}",
                        sstep.true_relres
                    );
                    assert!(
                        sstep.residual_drift.abs() < 1.0,
                        "{what}: drift {}",
                        sstep.residual_drift
                    );
                }
            }
        }
    }
}

/// The determinism contract: the s-step trajectory is bitwise identical
/// across thread counts — the Gram scalars are replicated and the
/// materialization order is fixed, so nothing downstream of the backend
/// kernels can diverge.
#[test]
fn sstep_is_bitwise_deterministic() {
    let reference = run_variant(poisson(24, 24), 4, 1, PcgVariant::SStep { s: 4 });
    assert!(reference.converged);
    let same = |report: &RunReport, what: &str| {
        assert_eq!(
            reference.iterations, report.iterations,
            "{what}: iterations"
        );
        assert_eq!(reference.x.len(), report.x.len(), "{what}: solution length");
        for (i, (a, b)) in reference.x.iter().zip(report.x.iter()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what}: x[{i}] = {a} vs {b} (bitwise)"
            );
        }
    };
    for &threads in &[2usize, 8] {
        let report = run_variant(poisson(24, 24), 4, threads, PcgVariant::SStep { s: 4 });
        same(&report, &format!("{threads} threads"));
    }
}

/// Mid-block failures (the injection iteration is *inside* an s-step
/// window, not on a block boundary) recover under every strategy and the
/// re-executed block reproduces the reference trajectory: the rollback
/// target is a protected block start whose state is exactly
/// classic-shaped.
#[test]
fn sstep_recovers_mid_block_under_every_strategy() {
    let matrix = poisson(24, 24);
    let s = 4usize;
    let reference = run_variant(matrix.clone(), 4, 1, PcgVariant::SStep { s });
    assert!(reference.converged);
    let c = reference.iterations;
    // Land strictly inside a window: an injection iteration that is not a
    // multiple of s cannot coincide with a block start.
    let mut j_f = c / 2;
    if j_f.is_multiple_of(s) {
        j_f += 1;
    }
    for (strategy, phi, label) in [
        (Strategy::esr(), 1, "ESR"),
        (Strategy::Esrp { t: 5 }, 1, "ESRP(5)"),
        (Strategy::Imcr { t: 5 }, 1, "IMCR(5)"),
    ] {
        let report = Experiment::builder()
            .matrix(matrix.clone())
            .rhs(RhsSpec::Random { seed: 42 })
            .n_ranks(4)
            .variant(PcgVariant::SStep { s })
            .strategy(strategy)
            .phi(phi)
            .failure_at(j_f, 1, 1)
            .run()
            .expect("experiment runs");
        assert!(report.converged, "{label}: s-step run converged");
        let rec = report.recoveries.first().expect("failure processed");
        assert_eq!(rec.failed_at, j_f, "{label}");
        assert!(!rec.full_restart, "{label}: a recovery point existed");
        assert!(
            rec.resumed_at.is_multiple_of(s),
            "{label}: resumed at {} — must be an outer-step boundary",
            rec.resumed_at
        );
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
fn sstep_multi_rank_failure_recovers() {
    let matrix = poisson(24, 24);
    let reference = run_variant(matrix.clone(), 6, 1, PcgVariant::SStep { s: 4 });
    let c = reference.iterations;
    let report = Experiment::builder()
        .matrix(matrix)
        .rhs(RhsSpec::Random { seed: 42 })
        .n_ranks(6)
        .variant(PcgVariant::SStep { s: 4 })
        .strategy(Strategy::Esrp { t: 4 })
        .phi(3)
        .failure_at(c / 2 + 1, 2, 3)
        .run()
        .expect("experiment runs");
    assert!(report.converged);
    assert_iters_close(c, report.iterations, "ESRP(4) psi=3");
    assert!(report.true_relres < 1e-7);
}

#[test]
fn sstep_full_restart_before_first_recovery_point() {
    let report = Experiment::builder()
        .matrix(poisson(24, 24))
        .rhs(RhsSpec::Random { seed: 42 })
        .n_ranks(4)
        .variant(PcgVariant::SStep { s: 4 })
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

/// The tentpole's communication claim: batching `s` iterations behind one
/// fused Gram reduction strictly shrinks the per-iteration time blocked
/// under `Phase::Reduction` at 8 and 16 ranks, for every block size.
#[test]
fn sstep_shrinks_reduction_wait_per_iteration() {
    for &n_ranks in &[8usize, 16] {
        let matrix = poisson(32, 32);
        let classic = run_variant(matrix.clone(), n_ranks, 1, PcgVariant::Classic);
        assert!(classic.converged);
        let reduction_wait = |r: &RunReport| -> f64 {
            r.per_rank_stats
                .iter()
                .map(|s| s.recv_wait[Phase::Reduction as usize])
                .sum()
        };
        let w_classic = reduction_wait(&classic) / classic.iterations as f64;
        for &s in &[2usize, 4, 8] {
            let sstep = run_variant(matrix.clone(), n_ranks, 1, PcgVariant::SStep { s });
            assert!(sstep.converged);
            let w_sstep = reduction_wait(&sstep) / sstep.iterations as f64;
            assert!(
                w_sstep < w_classic,
                "{n_ranks} ranks s={s}: reduction wait/iter {w_sstep} vs \
                 classic {w_classic}"
            );
        }
    }
}

/// Under a latency-dominated network the s-step variant must beat even the
/// pipelined variant on modeled seconds per iteration at 16 ranks: the
/// pipelined reduction still pays the tree latency every iteration, while
/// s-step amortizes it over the whole block.
#[test]
fn sstep_beats_pipelined_under_latency_dominated_network() {
    let matrix = poisson(32, 32);
    let run = |variant: PcgVariant| -> RunReport {
        Experiment::builder()
            .matrix(matrix.clone())
            .rhs(RhsSpec::Random { seed: 42 })
            .n_ranks(16)
            .cost_model(CostModel::latency_dominated())
            .variant(variant)
            .run()
            .expect("experiment runs")
    };
    let pipelined = run(PcgVariant::Pipelined);
    assert!(pipelined.converged);
    let t_pipelined = pipelined.modeled_time / pipelined.iterations as f64;
    for &s in &[4usize, 8] {
        let sstep = run(PcgVariant::SStep { s });
        assert!(sstep.converged);
        let t_sstep = sstep.modeled_time / sstep.iterations as f64;
        assert!(
            t_sstep < t_pipelined,
            "s={s}: sstep {t_sstep} vs pipelined {t_pipelined} modeled \
             seconds per iteration at 16 ranks (latency-dominated)"
        );
    }
}

/// Modeled-cost attribution stays complete for the s-step loop: per-phase
/// blocked time sums bitwise to the total, including under failures and
/// adaptive retuning.
#[test]
fn sstep_per_phase_wait_accounts_for_all_blocked_time() {
    let report = run_variant(poisson(24, 24), 4, 1, PcgVariant::SStep { s: 4 });
    for (rank, s) in report.per_rank_stats.iter().enumerate() {
        let by_phase: f64 = s.recv_wait.iter().sum();
        assert_eq!(
            by_phase.to_bits(),
            s.total_recv_wait().to_bits(),
            "rank {rank}: per-phase recv_wait must sum to the total"
        );
    }

    let failing = Experiment::builder()
        .matrix(poisson(24, 24))
        .rhs(RhsSpec::Random { seed: 42 })
        .n_ranks(4)
        .variant(PcgVariant::SStep { s: 4 })
        .strategy(Strategy::Esrp { t: 5 })
        .interval_policy(IntervalPolicy::Adaptive {
            min_t: 1,
            max_t: 40,
        })
        .phi(1)
        .failure_at(13, 0, 1)
        .failure_at(27, 2, 1)
        .run()
        .expect("auto-tuned failing run");
    assert!(failing.converged);
    assert_eq!(failing.recoveries.len(), 2);
    for (rank, s) in failing.per_rank_stats.iter().enumerate() {
        let by_phase: f64 = s.recv_wait.iter().sum();
        assert_eq!(
            by_phase.to_bits(),
            s.total_recv_wait().to_bits(),
            "rank {rank}: attribution stays complete under tuning"
        );
    }
}
