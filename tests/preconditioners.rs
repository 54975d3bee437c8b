//! The ESR reconstruction must work at every block size of the one shipped
//! preconditioner: point Jacobi (blocks of one row), blocks of 4 and the
//! paper's blocks of 10, all through the one node-local contract of
//! `esrcg::precond`.

use esrcg::prelude::*;
use esrcg::sparse::vector::max_abs_diff;

const N_RANKS: usize = 6;

fn matrix() -> MatrixSource {
    MatrixSource::EmiliaLike {
        nx: 6,
        ny: 6,
        nz: 10,
    }
}

/// The failure-free reference experiment under `spec`.
fn experiment(spec: PrecondSpec) -> Experiment {
    Experiment::builder()
        .matrix(matrix())
        .n_ranks(N_RANKS)
        .precond(spec)
}

fn all_preconds() -> [PrecondSpec; 3] {
    [1, 10, 4].map(|max_block| PrecondSpec { max_block })
}

#[test]
fn every_preconditioner_converges_failure_free() {
    for spec in all_preconds() {
        let run = experiment(spec)
            .run()
            .unwrap_or_else(|e| panic!("{spec:?}: {e}"));
        assert!(run.converged, "{spec:?}");
        assert!(run.true_relres < 1e-6, "{spec:?}");
    }
}

#[test]
fn esrp_recovery_works_with_every_preconditioner() {
    for spec in all_preconds() {
        let reference = experiment(spec).run().expect("reference");
        let c = reference.iterations;
        let t = 8;
        let run = experiment(spec)
            .strategy(Strategy::Esrp { t })
            .phi(2)
            .failure_at(paper_failure_iteration(c, t), 2, 2)
            .run()
            .unwrap_or_else(|e| panic!("{spec:?}: {e}"));
        assert!(run.converged, "{spec:?}");
        assert_eq!(
            run.iterations, c,
            "{spec:?}: recovered run must follow the reference trajectory"
        );
        assert!(
            max_abs_diff(&run.x, &reference.x) < 1e-5,
            "{spec:?}: solution deviates by {:e}",
            max_abs_diff(&run.x, &reference.x)
        );
    }
}

#[test]
fn stronger_preconditioners_reduce_iterations() {
    // Larger blocks invert more of A, so the paper's choice needs the fewest
    // iterations. [point Jacobi 40 ≥ block Jacobi(4) 40 ≥ (10) 39]
    let iters = |max_block| {
        let run = experiment(PrecondSpec { max_block }).run();
        run.expect("run").iterations
    };
    let (jacobi, bj4, bj10) = (iters(1), iters(4), iters(10));
    assert!(
        bj4 <= jacobi,
        "block Jacobi(4) {bj4} vs point Jacobi {jacobi}"
    );
    assert!(bj10 <= bj4, "block Jacobi(10) {bj10} vs (4) {bj4}");
}

#[test]
fn imcr_is_preconditioner_agnostic() {
    for spec in [1, 10].map(|max_block| PrecondSpec { max_block }) {
        let reference = experiment(spec).run().expect("reference");
        let run = experiment(spec)
            .strategy(Strategy::Imcr { t: 8 })
            .phi(1)
            .failure_at(paper_failure_iteration(reference.iterations, 8), 4, 1)
            .run()
            .expect("failure run");
        assert!(run.converged, "{spec:?}");
        assert_eq!(run.x, reference.x, "{spec:?}: bitwise");
    }
}

#[test]
fn solve_restricted_inverts_apply_local_rank_by_rank() {
    let a = matrix().build().expect("matrix");
    let part = Partition::balanced(a.nrows(), 3);
    let r: Vec<f64> = (0..a.nrows())
        .map(|i| (i as f64 * 0.37).sin() - 0.2)
        .collect();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for spec in all_preconds() {
        let p = spec.build(&a, &part).expect("build");
        // What recovery does on every replacement: its own rank range in,
        // its own chunk out.
        let round_trip = |range: std::ops::Range<usize>| {
            let mut v = vec![f64::NAN; range.len()];
            p.apply_local(range.clone(), &r[range.clone()], &mut v);
            let mut r_f = vec![f64::NAN; range.len()];
            p.solve_restricted(range, &v, &mut r_f);
            r_f
        };
        let mut per_rank = Vec::new();
        for (rank, range) in part.iter() {
            let r_f = round_trip(range.clone());
            assert!(
                max_abs_diff(&r_f, &r[range]) < 1e-12,
                "{spec:?}, rank {rank}"
            );
            per_rank.extend(r_f);
        }
        // A union of adjacent ranks is solved block by block, exactly as the
        // per-rank calls solve it.
        let union = part.range(0).start..part.range(1).end;
        assert_eq!(
            bits(&round_trip(union.clone())),
            bits(&per_rank[union]),
            "{spec:?}"
        );
    }
}
