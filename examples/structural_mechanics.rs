//! Structural mechanics workload with multiple simultaneous node failures.
//!
//! Run with:
//! ```text
//! cargo run --release --example structural_mechanics
//! ```
//!
//! The paper's test matrices (`Emilia_923`, `audikw_1`) are structural-
//! mechanics stiffness matrices; this example uses the `audikw_1` stand-in
//! (3 displacement dofs per grid point, ≈ 81 nonzeros per row — see
//! PAPER.md, "What the stand-ins do not reproduce") and exercises the scenario where ESRP shines in the
//! paper: **multiple simultaneous node failures** (a switch fault taking
//! out a contiguous block of ranks), with φ = ψ = 3 redundant copies.

use esrcg::prelude::*;

fn main() {
    let matrix = MatrixSource::AudikwLike {
        nx: 8,
        ny: 8,
        nz: 8,
    };
    let n_ranks = 12;
    let phi = 3;

    let reference = Experiment::builder()
        .matrix(matrix.clone())
        .n_ranks(n_ranks)
        .run()
        .expect("reference");
    let c = reference.iterations;
    let t0 = reference.modeled_time;
    println!(
        "elasticity stand-in: n = {}, nnz/row ≈ 81, C = {c}, t0 = {:.3} ms",
        8 * 8 * 8 * 3,
        t0 * 1e3
    );
    println!(
        "injecting ψ = {phi} simultaneous failures (contiguous block, as from a switch fault)\n"
    );

    let t = 20;
    let j_f = paper_failure_iteration(c, t);

    // The paper's two failure locations: a block starting at rank 0 and a
    // block starting at the middle rank.
    for (loc_name, start) in [("start ", 0usize), ("center", n_ranks / 2)] {
        for (name, strategy) in [
            ("esrp(20)", Strategy::Esrp { t }),
            ("imcr(20)", Strategy::Imcr { t }),
        ] {
            let report = Experiment::builder()
                .matrix(matrix.clone())
                .n_ranks(n_ranks)
                .strategy(strategy)
                .phi(phi)
                .failure_at(j_f, start, phi)
                .run()
                .expect("resilient run");
            assert!(report.converged, "{name} at {loc_name}");
            let rec = report.recoveries.first().unwrap();
            println!(
                "{name} ψ={phi} @{loc_name}: overhead {:+.2} %, reconstruction {:.2} %, \
                 resumed at {} ({} wasted), inner iters {}",
                100.0 * report.overhead_vs(t0),
                100.0 * report.reconstruction_overhead_vs(t0),
                rec.resumed_at,
                rec.wasted_iterations,
                rec.inner_iterations,
            );
            // The recovered solve converges on the reference trajectory.
            assert_eq!(report.iterations, c);
        }
    }

    // ESRP's recovery cost depends on the failed block's location (the
    // inner system A[I_f, I_f] differs); IMCR's does not — both effects the
    // paper reports. Verify the solutions agree with the reference.
    println!("\nok: all failure scenarios recovered onto the reference trajectory");
}
