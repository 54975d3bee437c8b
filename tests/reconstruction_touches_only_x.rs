//! The reconstruction's inner solve (paper Alg. 2, line 8) moves only `x`.
//!
//! Everything else a recovery rebuilds — `r`, `z`, `p`, β, `r·z`, the
//! queue, the starred copies — comes from the redundant copies of `p`, from
//! β and from `P[f,f] r_f = z_f`, and nothing in the outer loop reads `x`.
//! So solving for the lost `x` under another rule — to the paper's 1e-14 at
//! once (`RecoveryRule::Paper`), or once at the end to η of the outer
//! target (`RecoveryRule::Extended`; ψ = 2 defers, ψ = 1 solves at once) —
//! must leave the outer trajectory bit for bit where it was: iteration
//! counts, the recurrence residual and every recovery's resume point. Only
//! the solution differs, by the inner error δ, which the deferred rule keeps
//! small next to what the outer tolerance admits.
//!
//! The failure strikes iteration 11, ESRP(5)'s rollback target ĵ, so no
//! rollback re-executes a trip: a redo replays the logged reductions under
//! `RecoveryRule::Extended` and re-runs them under the paper's rule, which
//! rounds differently (`tests/redo_replays_reductions.rs` covers the redo).

use std::sync::Arc;

use esrcg::cluster::{run_spmd, CostModel, FailureSpec};
use esrcg::core::solver::{solve_node, NodeOutcome, RecoveryRule, SharedProblem, SolverConfig};
use esrcg::prelude::*;
use esrcg::sparse::gen::poisson3d;

const N_RANKS: usize = 4;

/// One solve of Poisson3d 12³ on four ranks: with `psi > 0`, ranks 1 … ψ
/// fail at iteration 11 and their `x` is reconstructed by `rule`. Rank 0's
/// outcome, carrying the whole solution and the replacements' inner
/// iteration count.
fn solve(variant: PcgVariant, strategy: Strategy, psi: usize, rule: RecoveryRule) -> NodeOutcome {
    let a = Arc::new(poisson3d(12, 12, 12));
    let n = a.nrows();
    let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.137).sin() + 0.5).collect();
    let b = a.spmv(&x_true);
    let mut cfg = SolverConfig::new(strategy, 2);
    cfg.variant = variant;
    cfg.recovery_rule = rule;
    if psi > 0 {
        cfg.failures = vec![FailureSpec::contiguous(11, 1, psi, N_RANKS)];
    }
    let pre = PrecondSpec::paper_default();
    let shared = SharedProblem::assemble_shared(a, b, vec![0.0; n], N_RANKS, pre, cfg);
    let shared = shared.expect("valid problem");
    let mut out = run_spmd(N_RANKS, CostModel::default(), |ctx| {
        solve_node(ctx, &shared)
    });
    let x: Vec<f64> = out.results.iter().flat_map(|o| o.x_local.clone()).collect();
    let inner = out.results[1]
        .recoveries
        .first()
        .map(|r| r.inner_iterations);
    let mut first = out.results.swap_remove(0);
    first.x_local = x;
    if let Some(inner) = inner {
        first.recoveries[0].inner_iterations = inner;
    }
    first
}

fn relative_distance(x: &[f64], reference: &[f64]) -> f64 {
    let diff: f64 = x
        .iter()
        .zip(reference)
        .map(|(a, b)| (a - b) * (a - b))
        .sum();
    let norm: f64 = reference.iter().map(|v| v * v).sum();
    (diff / norm).sqrt()
}

#[test]
fn a_looser_inner_solve_moves_x_and_nothing_else() {
    for variant in [
        PcgVariant::Classic,
        PcgVariant::Pipelined,
        PcgVariant::SStep { s: 4 },
    ] {
        for strategy in [Strategy::esr(), Strategy::Esrp { t: 5 }] {
            let undisturbed = solve(variant, strategy, 0, RecoveryRule::Extended);
            for psi in [1, 2] {
                let label = format!("{} {strategy} ψ = {psi}", variant.name());
                let runs = [RecoveryRule::Paper, RecoveryRule::Extended]
                    .map(|tol| solve(variant, strategy, psi, tol));
                let [tight, eta] = &runs;
                let events = |o: &NodeOutcome| -> Vec<(usize, usize, usize)> {
                    let recs = o.recoveries.iter();
                    recs.map(|r| (r.failed_at, r.resumed_at, r.wasted_iterations))
                        .collect()
                };
                assert_eq!(tight.recoveries.len(), 1, "{label}");
                assert!(!tight.recoveries[0].full_restart, "{label}");
                let rtol = SolverConfig::new(strategy, 2).rtol;
                for o in &runs {
                    assert!(o.converged, "{label}");
                    assert_eq!(o.iterations, tight.iterations, "{label}");
                    assert_eq!(o.total_loop_trips, tight.total_loop_trips, "{label}");
                    assert_eq!(
                        o.final_relres.to_bits(),
                        tight.final_relres.to_bits(),
                        "{label}: recurrence residual"
                    );
                    assert_eq!(events(o), events(tight), "{label}");
                    assert!(o.true_relres <= 10.0 * rtol, "{label}: {}", o.true_relres);
                }
                let inner = |o: &NodeOutcome| o.recoveries[0].inner_iterations;
                assert!(inner(eta) < inner(tight), "{label}: inner iterations");
                assert_ne!(tight.x_local, eta.x_local, "{label}: x must move");
                let dist = relative_distance(&eta.x_local, &undisturbed.x_local);
                assert!(dist <= 1e-9, "{label}: ‖x − x_ref‖/‖x_ref‖ = {dist:e}");
            }
        }
    }
}
