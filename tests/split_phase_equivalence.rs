//! The split-phase SpMV schedule, end to end: solves are **bitwise
//! identical** at every kernel thread count and rank count, and the two
//! degenerate partitions — ranks that own nothing, ranks with no halo at
//! all — solve without deadlock. That the schedule reproduces the blocking
//! product bit for bit is pinned one level down, by the `dist_spmv` oracle
//! test in `esrcg-core`'s `solver` module.

use std::sync::Arc;

use esrcg::prelude::*;
use esrcg::sparse::CsrMatrix;

#[test]
fn failure_free_runs_bit_identical_across_ranks_and_threads() {
    for n_ranks in [1usize, 2, 3, 5] {
        let mut reference: Option<RunReport> = None;
        for threads in [1usize, 2, 8] {
            let run = Experiment::builder()
                .matrix(MatrixSource::Poisson2d { nx: 12, ny: 12 })
                .n_ranks(n_ranks)
                .backend(KernelBackend::parallel(threads))
                .run()
                .expect("run");
            assert!(run.converged, "{n_ranks} ranks, {threads} threads");
            match &reference {
                None => reference = Some(run),
                Some(r) => {
                    let label = format!("{n_ranks} ranks, {threads} threads vs 1 thread");
                    assert_eq!(r.iterations, run.iterations, "{label}");
                    assert_eq!(r.x, run.x, "{label}: bitwise identical solution");
                    assert_eq!(
                        r.residual_drift.to_bits(),
                        run.residual_drift.to_bits(),
                        "{label}"
                    );
                    assert_eq!(
                        r.modeled_time.to_bits(),
                        run.modeled_time.to_bits(),
                        "{label}"
                    );
                }
            }
        }
    }
}

#[test]
fn more_ranks_than_rows_solves() {
    // n < n_ranks: ranks 4..6 own empty ranges, start and finish an empty
    // exchange, and must neither deadlock nor disturb the solve.
    let run = Experiment::builder()
        .matrix(MatrixSource::Poisson2d { nx: 2, ny: 2 })
        .n_ranks(6)
        .run()
        .expect("tiny run");
    assert!(run.converged);
    assert_eq!(run.x.len(), 4);
    assert!(run.true_relres < 1e-7);
}

#[test]
fn all_interior_ranks_solve_with_no_halo_wait() {
    // A block-diagonal (here: diagonal) matrix has an empty communication
    // plan: every rank's rows are interior and the boundary pass is a no-op.
    let run = Experiment::builder()
        .matrix(MatrixSource::Shared(Arc::new(CsrMatrix::identity(24))))
        .rhs(RhsSpec::Ones)
        .n_ranks(4)
        .run()
        .expect("diagonal run");
    assert!(run.converged);
    let spmv_wait: f64 = run
        .per_rank_stats
        .iter()
        .map(|s| s.recv_wait[Phase::SpMV as usize])
        .sum();
    assert_eq!(spmv_wait, 0.0, "nothing to receive, nothing to wait for");
}
