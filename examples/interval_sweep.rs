//! Checkpoint-interval sweep: the overhead trade-off and the Young/Daly
//! optimum.
//!
//! Run with:
//! ```text
//! cargo run --release --example interval_sweep
//! ```
//!
//! The paper (§3.1) frames ESRP as an algorithm-based checkpoint-restart
//! method with the classic trade-off: larger T means cheaper failure-free
//! operation but more work lost per failure. The optimal interval for a
//! given failure rate is the Young [28] / Daly [8] formula the paper cites:
//! `T_opt ≈ sqrt(2 · δ · MTBF)` with δ the per-checkpoint cost. This
//! example measures both sides of the trade-off and evaluates the formula
//! with the measured per-stage cost.

use esrcg::prelude::*;

fn main() {
    // An elongated heterogeneous domain with a generic load: realistic
    // iteration counts (hundreds), so even T = 100 completes several
    // storage stages before the failure.
    let matrix = MatrixSource::EmiliaLike {
        nx: 8,
        ny: 8,
        nz: 128,
    };
    let n_ranks = 8;
    let phi = 1;

    let reference = Experiment::builder()
        .matrix(matrix.clone())
        .rhs(RhsSpec::Random { seed: 9 })
        .n_ranks(n_ranks)
        .run()
        .expect("reference");
    let c = reference.iterations;
    let t0 = reference.modeled_time;
    let iter_time = t0 / c as f64;
    println!(
        "emilia-like: C = {c}, t0 = {:.3} ms, {:.3} µs/iteration\n",
        t0 * 1e3,
        iter_time * 1e6
    );

    println!(
        "{:>5} {:>16} {:>16} {:>14}",
        "T", "failure-free %", "with failure %", "wasted iters"
    );
    let mut storage_cost_per_stage = 0.0f64;
    for t in [1usize, 5, 10, 20, 50, 100] {
        let ff = Experiment::builder()
            .matrix(matrix.clone())
            .rhs(RhsSpec::Random { seed: 9 })
            .n_ranks(n_ranks)
            .strategy(Strategy::Esrp { t })
            .phi(phi)
            .run()
            .expect("failure-free run");
        assert!(ff.converged && ff.iterations == c);
        let j_f = paper_failure_iteration(c, t);
        let wf = Experiment::builder()
            .matrix(matrix.clone())
            .rhs(RhsSpec::Random { seed: 9 })
            .n_ranks(n_ranks)
            .strategy(Strategy::Esrp { t })
            .phi(phi)
            .failure_at(j_f, 0, phi)
            .run()
            .expect("failure run");
        if wf.recoveries.first().unwrap().full_restart {
            println!("{t:>5}  (skipped: no complete storage stage before the failure at this C)");
            continue;
        }
        assert!(wf.converged);
        let wasted = wf.recoveries.first().unwrap().wasted_iterations;
        println!(
            "{t:>5} {:>16.3} {:>16.3} {:>14}",
            100.0 * ff.overhead_vs(t0),
            100.0 * wf.overhead_vs(t0),
            wasted
        );
        if t == 20 {
            // Per-stage storage cost δ: the extra failure-free time per stage.
            let stages = c / t;
            storage_cost_per_stage = (ff.modeled_time - t0) / stages.max(1) as f64;
        }
    }

    // Young/Daly with the measured per-stage cost, for a hypothetical MTBF.
    // (The paper cites MTBF ≈ 9 h at 100k nodes and 53 min at 1M nodes.)
    println!(
        "\nYoung/Daly optimal intervals for the measured per-stage cost δ = {:.2} µs:",
        storage_cost_per_stage * 1e6
    );
    for (label, mtbf_s) in [
        ("9 hours (100k nodes)", 9.0 * 3600.0),
        ("53 minutes (1M nodes)", 53.0 * 60.0),
    ] {
        let t_opt_seconds = (2.0 * storage_cost_per_stage * mtbf_s).sqrt();
        let t_opt_iters = (t_opt_seconds / iter_time).round();
        println!("  MTBF {label}: T_opt ≈ {t_opt_iters:.0} iterations");
    }
    println!(
        "\nWith realistic failure rates the optimum lies far above the paper's \
         largest tested interval — consistent with the paper's observation that \
         lowering the storage frequency is where ESRP's savings come from."
    );
}
