//! Quickstart: protect a PCG solve against a node failure with ESRP.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! This solves a 3-D Poisson system (the elliptic-PDE workload the paper's
//! introduction motivates) on 8 simulated cluster nodes, first without
//! resilience to establish the reference time t₀ and iteration count C,
//! then with ESRP(T = 20) while a node failure destroys one rank's entire
//! dynamic state halfway through the solve.

use esrcg::prelude::*;

fn main() {
    let matrix = MatrixSource::Poisson3d {
        nx: 16,
        ny: 16,
        nz: 16,
    };
    let n_ranks = 8;

    // --- 1. Reference run: plain PCG, no resilience -----------------------
    let reference = Experiment::builder()
        .matrix(matrix.clone())
        .n_ranks(n_ranks)
        .run()
        .expect("reference run");
    assert!(reference.converged);
    let c = reference.iterations;
    let t0 = reference.modeled_time;
    println!(
        "reference:  C = {c} iterations, t0 = {:.3} ms (modeled)",
        t0 * 1e3
    );

    // --- 2. Resilient run with an injected node failure --------------------
    let t = 20; // checkpointing interval (the paper's T)
    let j_f = paper_failure_iteration(c, t); // worst case: end of the interval containing C/2
    let report = Experiment::builder()
        .matrix(matrix)
        .n_ranks(n_ranks)
        .strategy(Strategy::Esrp { t })
        .phi(1) // tolerate one simultaneous node failure
        .failure_at(j_f, 3, 1) // rank 3 dies at iteration j_f
        .run()
        .expect("resilient run");
    assert!(report.converged);

    let rec = report
        .recoveries
        .first()
        .expect("the failure was recovered");
    println!(
        "esrp(T={t}): converged in {} iterations ({} loop trips including redone work)",
        report.iterations, report.total_loop_trips
    );
    println!(
        "  failure at iteration {}, state reconstructed for iteration {}, {} iterations redone",
        rec.failed_at, rec.resumed_at, rec.wasted_iterations
    );
    println!(
        "  inner A[I_f,I_f] solve: {} PCG iterations to 1e-14",
        rec.inner_iterations
    );
    println!(
        "  total overhead: {:+.2} %   (reconstruction alone: {:.2} %)",
        100.0 * report.overhead_vs(t0),
        100.0 * report.reconstruction_overhead_vs(t0),
    );
    println!(
        "  residual drift (paper Eq. 2): {:+.3e}  (reference: {:+.3e})",
        report.residual_drift, reference.residual_drift
    );

    // The reconstruction is exact up to floating-point effects: the solver
    // follows the reference trajectory and converges in the same number of
    // logical iterations.
    assert_eq!(report.iterations, c, "same trajectory after recovery");
    println!("ok: recovered run follows the failure-free trajectory");
}
