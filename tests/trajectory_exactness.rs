//! The central claim of ESR/ESRP (paper §2.3): after recovery the solver
//! follows the *same trajectory* as an undisturbed run, so it converges in
//! the same number of iterations to (numerically) the same solution — unlike
//! methods that restart the Krylov space.

use esrcg::prelude::*;
use esrcg::sparse::vector::max_abs_diff;

const N_RANKS: usize = 6;

fn reference(matrix: &MatrixSource) -> RunReport {
    Experiment::builder()
        .matrix(matrix.clone())
        .n_ranks(N_RANKS)
        .run()
        .expect("reference run")
}

fn matrix() -> MatrixSource {
    MatrixSource::EmiliaLike {
        nx: 6,
        ny: 6,
        nz: 12,
    }
}

#[test]
fn failure_free_runs_are_bitwise_identical_across_strategies() {
    let m = matrix();
    let reference = reference(&m);
    assert!(reference.converged);
    for strategy in [
        Strategy::esr(),
        Strategy::Esrp { t: 7 },
        Strategy::Esrp { t: 25 },
        Strategy::Imcr { t: 7 },
        Strategy::Imcr { t: 25 },
    ] {
        let run = Experiment::builder()
            .matrix(m.clone())
            .n_ranks(N_RANKS)
            .strategy(strategy)
            .phi(2)
            .run()
            .expect("resilient run");
        assert_eq!(run.iterations, reference.iterations, "{strategy}");
        assert_eq!(run.x, reference.x, "{strategy}: bitwise identical solution");
        assert_eq!(
            run.residual_drift, reference.residual_drift,
            "{strategy}: identical drift"
        );
    }
}

#[test]
fn esrp_recovery_rejoins_the_reference_trajectory() {
    let m = matrix();
    let reference = reference(&m);
    let c = reference.iterations;
    assert!(
        c > 30,
        "need enough iterations for interesting failures (C = {c})"
    );

    for t in [1usize, 5, 10] {
        let j_f = paper_failure_iteration(c, t);
        let run = Experiment::builder()
            .matrix(m.clone())
            .n_ranks(N_RANKS)
            .strategy(Strategy::Esrp { t })
            .phi(1)
            .failure_at(j_f, 2, 1)
            .run()
            .expect("failure run");
        assert!(run.converged, "T = {t}");
        // Same trajectory: identical iteration count, solution equal to the
        // reference up to the inner solve's error δ_f, which nothing after
        // the recovery reads: at the default `RecoveryRule::Extended`,
        // ‖δ_f‖ ≤ 0.01 · ‖A⁻¹‖ · rtol · ‖b‖.
        assert_eq!(run.iterations, c, "T = {t}");
        assert!(
            max_abs_diff(&run.x, &reference.x) < 1e-6,
            "T = {t}: solution deviates by {}",
            max_abs_diff(&run.x, &reference.x)
        );
        let rec = run.recoveries.first().expect("recovery happened");
        assert!(!rec.full_restart);
        assert_eq!(rec.failed_at, j_f);
        assert_eq!(rec.wasted_iterations, j_f - rec.resumed_at);
    }
}

#[test]
fn imcr_recovery_is_bitwise_exact() {
    // IMCR restores checkpointed values verbatim, so unlike ESRP the
    // post-recovery trajectory is *bitwise* the reference trajectory.
    let m = matrix();
    let reference = reference(&m);
    let c = reference.iterations;
    let t = 10;
    let run = Experiment::builder()
        .matrix(m.clone())
        .n_ranks(N_RANKS)
        .strategy(Strategy::Imcr { t })
        .phi(2)
        .failure_at(paper_failure_iteration(c, t), 1, 2)
        .run()
        .expect("failure run");
    assert!(run.converged);
    assert_eq!(run.iterations, c);
    assert_eq!(run.x, reference.x, "bitwise identical");
}

#[test]
fn esr_reconstruction_wastes_no_iterations() {
    let m = matrix();
    let reference = reference(&m);
    let c = reference.iterations;
    let run = Experiment::builder()
        .matrix(m)
        .n_ranks(N_RANKS)
        .strategy(Strategy::esr())
        .phi(1)
        .failure_at(c / 2, 0, 1)
        .run()
        .expect("failure run");
    let rec = run.recoveries.first().expect("recovery happened");
    assert_eq!(
        rec.wasted_iterations, 0,
        "ESR reconstructs the failure iteration itself"
    );
    assert_eq!(run.iterations, c);
    assert_eq!(
        run.total_loop_trips,
        c + 1,
        "only the failure iteration re-runs"
    );
}

#[test]
fn drift_metric_close_to_reference_after_recovery() {
    // Paper Table 4: the residual drift of recovered runs does not differ
    // significantly from plain PCG.
    let m = matrix();
    let reference = reference(&m);
    let c = reference.iterations;
    let run = Experiment::builder()
        .matrix(m)
        .n_ranks(N_RANKS)
        .strategy(Strategy::Esrp { t: 10 })
        .phi(2)
        .failure_at(paper_failure_iteration(c, 10), 3, 2)
        .run()
        .expect("failure run");
    assert!(run.converged);
    assert!(
        (run.residual_drift - reference.residual_drift).abs() < 0.3,
        "drift {} vs reference {}",
        run.residual_drift,
        reference.residual_drift
    );
    assert!(run.true_relres < 10.0 * reference.true_relres.max(1e-9));
}
