//! Steady-state heat conduction with a resilience-strategy comparison.
//!
//! Run with:
//! ```text
//! cargo run --release --example heat_steady
//! ```
//!
//! The paper's introduction motivates SPD systems arising from elliptic
//! PDEs such as heat conduction. This example solves the steady-state heat
//! equation (7-point Laplacian, uniform internal heating) on 8 simulated
//! nodes and compares the paper's three strategies — ESR, ESRP, IMCR — in
//! both regimes the paper evaluates: failure-free overhead and overhead
//! under a worst-case node failure.

use esrcg::prelude::*;

fn run(strategy: Strategy, phi: usize, failure: Option<(usize, usize, usize)>) -> RunReport {
    let mut e = Experiment::builder()
        .matrix(MatrixSource::Poisson3d {
            nx: 10,
            ny: 10,
            nz: 96,
        })
        .rhs(RhsSpec::Ones) // uniform internal heat source
        .n_ranks(8)
        .strategy(strategy)
        .phi(phi);
    if let Some((at, start, count)) = failure {
        e = e.failure_at(at, start, count);
    }
    e.run().expect("experiment runs")
}

fn main() {
    let reference = run(Strategy::None, 0, None);
    let c = reference.iterations;
    let t0 = reference.modeled_time;
    println!(
        "steady-state heat conduction: n = {}, C = {c}, t0 = {:.3} ms\n",
        10 * 10 * 96,
        t0 * 1e3
    );

    // Keep intervals meaningful for this problem's iteration count: the
    // failure must land inside a completed interval.
    let strategies = [
        ("esr      ", Strategy::esr()),
        ("esrp(10) ", Strategy::Esrp { t: 10 }),
        ("esrp(25) ", Strategy::Esrp { t: 25 }),
        ("imcr(10) ", Strategy::Imcr { t: 10 }),
        ("imcr(25) ", Strategy::Imcr { t: 25 }),
    ];

    println!(
        "{:<10} {:>14} {:>16} {:>16} {:>8}",
        "strategy", "failure-free %", "with failure %", "reconstruct %", "wasted"
    );
    for (name, strategy) in strategies {
        let phi = 1;
        let t = strategy.interval().unwrap_or(1);
        let ff = run(strategy, phi, None);
        assert!(ff.converged);
        assert_eq!(
            ff.iterations, c,
            "resilience must not change the trajectory"
        );
        let j_f = paper_failure_iteration(c, t);
        let withf = run(strategy, phi, Some((j_f, 0, 1)));
        assert!(withf.converged);
        let rec = withf.recoveries.first().expect("recovered");
        println!(
            "{name} {:>14.2} {:>16.2} {:>16.2} {:>8}",
            100.0 * ff.overhead_vs(t0),
            100.0 * withf.overhead_vs(t0),
            100.0 * withf.reconstruction_overhead_vs(t0),
            rec.wasted_iterations,
        );
    }

    println!(
        "\nNote: as in the paper, ESRP's failure-free overhead drops as T grows \
         (fewer storage stages), while the failure overhead grows with the \
         rolled-back work; IMCR recovers by pure transfer, so its \
         reconstruction column is ~0."
    );
}
