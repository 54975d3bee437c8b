//! The reconstruction's inner solve (paper Alg. 2, line 8) moves only `x`.
//!
//! Everything else a recovery rebuilds — `r`, `z`, `p`, β, `r·z`, the
//! queue, the starred copies — comes from the redundant copies of `p`, from
//! β and from `P[f,f] r_f = z_f`, and nothing in the outer loop reads `x`.
//! So solving the same failing problem with a looser inner tolerance must
//! leave the outer trajectory bit for bit where it was: iteration counts,
//! the recurrence residual and every recovery's resume point. Only the
//! solution differs, and it still meets the outer tolerance.

use std::sync::Arc;

use esrcg::cluster::{run_spmd, CostModel, FailureSpec};
use esrcg::core::solver::{solve_node, NodeOutcome, SharedProblem, SolverConfig};
use esrcg::prelude::*;
use esrcg::sparse::gen::poisson3d;

const N_RANKS: usize = 4;

/// One failing solve of Poisson3d 12³ on four ranks: ranks 1 … ψ fail at
/// iteration 12, the inner solve runs to `inner_rtol`. Rank 0's outcome,
/// carrying the whole solution and the replacements' inner iteration count.
fn solve(variant: PcgVariant, strategy: Strategy, psi: usize, inner_rtol: f64) -> NodeOutcome {
    let a = Arc::new(poisson3d(12, 12, 12));
    let n = a.nrows();
    let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.137).sin() + 0.5).collect();
    let b = a.spmv(&x_true);
    let mut cfg = SolverConfig::new(strategy, 2);
    cfg.variant = variant;
    cfg.inner_rtol = inner_rtol;
    cfg.failures = vec![FailureSpec::contiguous(12, 1, psi, N_RANKS)];
    let pre = PrecondSpec::paper_default();
    let shared = SharedProblem::assemble_shared(a, b, vec![0.0; n], N_RANKS, pre, cfg);
    let shared = shared.expect("valid problem");
    let mut out = run_spmd(N_RANKS, CostModel::default(), |ctx| {
        solve_node(ctx, &shared)
    });
    let x: Vec<f64> = out.results.iter().flat_map(|o| o.x_local.clone()).collect();
    let inner = out.results[1].recoveries[0].inner_iterations;
    let mut first = out.results.swap_remove(0);
    first.x_local = x;
    first.recoveries[0].inner_iterations = inner;
    first
}

#[test]
fn a_looser_inner_solve_moves_x_and_nothing_else() {
    for variant in [
        PcgVariant::Classic,
        PcgVariant::Pipelined,
        PcgVariant::SStep { s: 4 },
    ] {
        for strategy in [Strategy::esr(), Strategy::Esrp { t: 5 }] {
            for psi in [1, 2] {
                let label = format!("{} {strategy} ψ = {psi}", variant.name());
                let tight = solve(variant, strategy, psi, 1e-14);
                let loose = solve(variant, strategy, psi, 1e-10);
                assert!(tight.converged && loose.converged, "{label}");
                assert_eq!(tight.iterations, loose.iterations, "{label}");
                assert_eq!(tight.total_loop_trips, loose.total_loop_trips, "{label}");
                assert_eq!(
                    tight.final_relres.to_bits(),
                    loose.final_relres.to_bits(),
                    "{label}: recurrence residual"
                );
                let events = |o: &NodeOutcome| -> Vec<(usize, usize, usize)> {
                    let recs = o.recoveries.iter();
                    recs.map(|r| (r.failed_at, r.resumed_at, r.wasted_iterations))
                        .collect()
                };
                assert_eq!(events(&tight), events(&loose), "{label}");
                assert_eq!(tight.recoveries.len(), 1, "{label}");
                assert!(!tight.recoveries[0].full_restart, "{label}");
                let inner = |o: &NodeOutcome| o.recoveries[0].inner_iterations;
                assert!(inner(&loose) < inner(&tight), "{label}: inner iterations");
                assert_ne!(tight.x_local, loose.x_local, "{label}: x must move");
                let rtol = SolverConfig::new(strategy, 2).rtol;
                for o in [&tight, &loose] {
                    assert!(o.true_relres <= 10.0 * rtol, "{label}: {}", o.true_relres);
                }
            }
        }
    }
}
