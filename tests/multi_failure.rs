//! Multiple simultaneous node failures (paper §2.2.1, §5): contiguous
//! blocks of ψ = φ ranks at the paper's locations (start, center) plus the
//! wrap-around case the modular buddy arithmetic must survive.

use esrcg::prelude::*;
use esrcg::sparse::vector::max_abs_diff;

fn run_case(
    strategy: Strategy,
    n_ranks: usize,
    phi: usize,
    start: usize,
    psi: usize,
) -> (RunReport, RunReport) {
    let m = MatrixSource::EmiliaLike {
        nx: 6,
        ny: 6,
        nz: 10,
    };
    let reference = Experiment::builder()
        .matrix(m.clone())
        .n_ranks(n_ranks)
        .run()
        .expect("reference");
    let c = reference.iterations;
    let t = strategy.interval().expect("resilient strategy");
    let run = Experiment::builder()
        .matrix(m)
        .n_ranks(n_ranks)
        .strategy(strategy)
        .phi(phi)
        .failure_at(paper_failure_iteration(c, t), start, psi)
        .run()
        .expect("failure run");
    (reference, run)
}

#[test]
fn esrp_tolerates_psi_equals_phi_blocks() {
    for (phi, start) in [(1usize, 0usize), (2, 0), (3, 0), (3, 4), (3, 3)] {
        let (reference, run) = run_case(Strategy::Esrp { t: 8 }, 8, phi, start, phi);
        assert!(run.converged, "phi={phi} start={start}");
        assert_eq!(
            run.iterations, reference.iterations,
            "phi={phi} start={start}"
        );
        assert!(
            max_abs_diff(&run.x, &reference.x) < 1e-6,
            "phi={phi} start={start}"
        );
    }
}

#[test]
fn esrp_tolerates_wraparound_blocks() {
    // Ranks 6, 7, 0 fail together: index set I_f is non-contiguous and the
    // buddy/queue arithmetic wraps modulo N.
    let (reference, run) = run_case(Strategy::Esrp { t: 8 }, 8, 3, 6, 3);
    assert!(run.converged);
    assert_eq!(run.iterations, reference.iterations);
    assert!(max_abs_diff(&run.x, &reference.x) < 1e-6);
}

#[test]
fn imcr_tolerates_psi_equals_phi_blocks() {
    for (phi, start) in [(1usize, 0usize), (3, 0), (3, 4), (3, 6)] {
        let (reference, run) = run_case(Strategy::Imcr { t: 8 }, 8, phi, start, phi);
        assert!(run.converged, "phi={phi} start={start}");
        assert_eq!(run.x, reference.x, "phi={phi} start={start}: bitwise");
    }
}

#[test]
fn fewer_failures_than_phi_also_recover() {
    // ψ < φ: more redundancy than needed must not break anything.
    let (reference, run) = run_case(Strategy::Esrp { t: 8 }, 8, 3, 2, 1);
    assert!(run.converged);
    assert_eq!(run.iterations, reference.iterations);
    let (reference, run) = run_case(Strategy::Imcr { t: 8 }, 8, 3, 2, 2);
    assert!(run.converged);
    assert_eq!(run.x, reference.x);
}

#[test]
fn esr_handles_multiple_failures_every_iteration_storage() {
    let (reference, run) = run_case(Strategy::esr(), 8, 3, 5, 3);
    assert!(run.converged);
    assert_eq!(run.iterations, reference.iterations);
    let rec = run.recoveries.first().expect("recovery happened");
    assert_eq!(rec.wasted_iterations, 0);
}

#[test]
fn nearly_whole_cluster_failure() {
    // φ = ψ = N − 1: every entry must still have a copy on the lone
    // survivor. The redundancy rule guarantees it.
    let n_ranks = 5;
    let (reference, run) = run_case(Strategy::Esrp { t: 5 }, n_ranks, 4, 1, 4);
    assert!(run.converged);
    assert_eq!(run.iterations, reference.iterations);
    assert!(max_abs_diff(&run.x, &reference.x) < 1e-5);
}

#[test]
fn recovery_cost_grows_with_psi() {
    // More simultaneous failures mean a larger inner system and more
    // gathering — the reconstruction overhead must not shrink.
    let m = MatrixSource::EmiliaLike {
        nx: 6,
        ny: 6,
        nz: 10,
    };
    let reference = Experiment::builder()
        .matrix(m.clone())
        .n_ranks(8)
        .run()
        .expect("reference");
    let c = reference.iterations;
    let mut last = 0.0;
    for psi in [1usize, 2, 4] {
        let run = Experiment::builder()
            .matrix(m.clone())
            .n_ranks(8)
            .strategy(Strategy::Esrp { t: 8 })
            .phi(psi)
            .failure_at(paper_failure_iteration(c, 8), 0, psi)
            .run()
            .expect("failure run");
        let rec = run
            .recoveries
            .first()
            .expect("recovery happened")
            .recovery_time;
        assert!(
            rec > last,
            "recovery time must grow with psi (psi={psi}: {rec} vs {last})"
        );
        last = rec;
    }
}
