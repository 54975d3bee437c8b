//! Failure-timing edge cases: the storage-stage boundaries of paper §3
//! (Fig. 1), failures before any recovery point exists, and failures near
//! convergence.

use esrcg::prelude::*;
use esrcg::sparse::vector::max_abs_diff;

const N_RANKS: usize = 6;

fn matrix() -> MatrixSource {
    MatrixSource::EmiliaLike {
        nx: 6,
        ny: 6,
        nz: 12,
    }
}

fn reference() -> RunReport {
    Experiment::builder()
        .matrix(matrix())
        .n_ranks(N_RANKS)
        .run()
        .expect("reference")
}

fn esrp_failure_at(t: usize, j_f: usize) -> RunReport {
    Experiment::builder()
        .matrix(matrix())
        .n_ranks(N_RANKS)
        .strategy(Strategy::Esrp { t })
        .phi(1)
        .failure_at(j_f, 1, 1)
        .run()
        .expect("failure run")
}

/// The paper's Fig. 1 walkthrough: a failure right after the queue gains
/// p'(2T) (i.e. at iteration 2T, during the first half of a storage stage)
/// must fall back to iteration T + 1, not 2T.
#[test]
fn failure_at_first_storage_iteration_falls_back_a_stage() {
    let c = reference().iterations;
    let t = 10;
    assert!(2 * t < c, "C = {c} too small for this scenario");
    let run = esrp_failure_at(t, 2 * t);
    let rec = run.recoveries.first().expect("recovery happened");
    assert_eq!(rec.resumed_at, t + 1, "paper's Fig. 1 example");
    assert_eq!(rec.wasted_iterations, t - 1);
    assert!(run.converged);
    assert_eq!(run.iterations, c);
}

/// A failure at the *second* storage iteration (2T + 1) can use the copies
/// just stored: rollback to 2T + 1 itself, zero iterations wasted.
#[test]
fn failure_at_second_storage_iteration_wastes_nothing() {
    let c = reference().iterations;
    let t = 10;
    assert!(2 * t + 1 < c);
    let run = esrp_failure_at(t, 2 * t + 1);
    let rec = run.recoveries.first().expect("recovery happened");
    assert_eq!(rec.resumed_at, 2 * t + 1);
    assert_eq!(rec.wasted_iterations, 0);
    assert!(run.converged);
}

/// Worst case within an interval: one iteration before the next storage
/// stage loses nearly T iterations.
#[test]
fn failure_just_before_storage_stage_is_worst_case() {
    let c = reference().iterations;
    let t = 10;
    let j_f = 3 * t - 1;
    assert!(j_f < c);
    let run = esrp_failure_at(t, j_f);
    let rec = run.recoveries.first().expect("recovery happened");
    assert_eq!(rec.resumed_at, 2 * t + 1);
    assert_eq!(rec.wasted_iterations, t - 2);
    assert!(run.converged);
}

/// Failures before the first completed storage stage force a full restart —
/// and the restart still converges to the right answer.
#[test]
fn esrp_failure_before_first_stage_restarts() {
    let reference = reference();
    let t = 10;
    for j_f in [1usize, 5, 10] {
        // Stage (10, 11) completes at iteration 11; failures at j <= 10 have
        // no recovery point.
        let run = esrp_failure_at(t, j_f);
        let rec = run.recoveries.first().expect("recovery happened");
        assert!(rec.full_restart, "j_f = {j_f}");
        assert_eq!(rec.resumed_at, 0);
        assert!(run.converged);
        assert_eq!(run.iterations, reference.iterations);
        assert_eq!(run.x, reference.x, "restart is bitwise exact");
    }
}

#[test]
fn imcr_failure_before_first_checkpoint_restarts() {
    let reference = reference();
    let run = Experiment::builder()
        .matrix(matrix())
        .n_ranks(N_RANKS)
        .strategy(Strategy::Imcr { t: 10 })
        .phi(1)
        .failure_at(7, 0, 1)
        .run()
        .expect("failure run");
    let rec = run.recoveries.first().expect("recovery happened");
    assert!(rec.full_restart);
    assert!(run.converged);
    assert_eq!(run.x, reference.x);
}

#[test]
fn imcr_failure_exactly_at_checkpoint_wastes_nothing() {
    let c = reference().iterations;
    let t = 10;
    assert!(2 * t < c);
    let run = Experiment::builder()
        .matrix(matrix())
        .n_ranks(N_RANKS)
        .strategy(Strategy::Imcr { t })
        .phi(1)
        .failure_at(2 * t, 3, 1)
        .run()
        .expect("failure run");
    let rec = run.recoveries.first().expect("recovery happened");
    assert_eq!(rec.resumed_at, 2 * t);
    assert_eq!(rec.wasted_iterations, 0);
}

/// ESR at the earliest recoverable iteration (j = 1).
#[test]
fn esr_recovers_at_iteration_one() {
    let run = esrp_failure_at(1, 1);
    let rec = run.recoveries.first().expect("recovery happened");
    assert!(!rec.full_restart);
    assert_eq!(rec.resumed_at, 1);
    assert!(run.converged);
}

/// ESR failure at iteration 0: only one copy exists, so restart.
#[test]
fn esr_failure_at_iteration_zero_restarts() {
    let run = esrp_failure_at(1, 0);
    let rec = run.recoveries.first().expect("recovery happened");
    assert!(rec.full_restart);
    assert!(run.converged);
}

/// A failure in the last interval before convergence.
#[test]
fn failure_near_convergence() {
    let reference = reference();
    let c = reference.iterations;
    let run = esrp_failure_at(5, c - 1);
    assert!(run.converged);
    assert_eq!(run.iterations, c);
    assert!(max_abs_diff(&run.x, &reference.x) < 1e-6);
}

/// T larger than the whole solve: no stage ever completes before the
/// failure, so recovery degenerates to a restart (documented behaviour).
#[test]
fn interval_longer_than_solve_restarts() {
    let c = reference().iterations;
    let run = esrp_failure_at(10 * c, c / 2);
    let rec = run.recoveries.first().expect("recovery happened");
    assert!(rec.full_restart);
    assert!(run.converged);
}

/// Injecting at an iteration the solver never reaches: the run completes
/// without any recovery.
#[test]
fn failure_beyond_convergence_never_triggers() {
    let c = reference().iterations;
    let run = esrp_failure_at(5, c + 100);
    assert!(run.converged);
    assert!(run.recoveries.is_empty());
}
