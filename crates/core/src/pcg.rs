//! Sequential preconditioned conjugate gradient (paper Alg. 1).
//!
//! This is the reference implementation the tests validate the distributed
//! solver against (`solver::tests`, `tests/determinism.rs`); it counts its
//! own flops. It is *not* the inner solver of the ESR reconstruction: paper
//! Alg. 2 line 8 is `solve_lost_x` in
//! `crate::solver::recovery`, a PCG over the replacement ranks.
//!
//! Everything here runs in a single address space — there is no halo
//! exchange, so the split-phase SpMV scheduling of the distributed solver
//! ([`crate::dist::halo`]) does not apply; its SpMV call sites go straight
//! to the backend. The distributed inner solve does exchange halos between
//! replacement ranks and is split-phase like the outer loop.

use esrcg_precond::BlockJacobiPrecond;
use esrcg_sparse::{CsrMatrix, KernelBackend};

/// Result of a sequential PCG solve.
#[derive(Debug, Clone)]
pub struct PcgResult {
    /// The computed solution.
    pub x: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether `‖r‖₂ / ‖b‖₂ < rtol` was reached within the iteration cap.
    pub converged: bool,
    /// Final relative residual `‖r‖₂ / ‖b‖₂` (recurrence residual).
    pub relres: f64,
    /// Total floating-point operations executed (for the cost model).
    pub flops: u64,
}

/// Solves `A x = b` with PCG, starting from `x0`.
///
/// Convenience wrapper over [`pcg_with`] using the default (parallel)
/// backend — results are bitwise identical on any other backend (see
/// [`esrcg_sparse::backend`]'s determinism guarantee).
///
/// # Panics
/// Panics on dimension mismatches.
pub fn pcg(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    precond: &BlockJacobiPrecond,
    rtol: f64,
    max_iters: usize,
) -> PcgResult {
    pcg_with(a, b, x0, precond, rtol, max_iters, KernelBackend::default())
}

/// Solves `A x = b` with PCG on an explicit kernel backend.
///
/// Follows the paper's Alg. 1 exactly: `α = rᵀz / pᵀAp`, `x += αp`,
/// `r -= αAp`, `z = Pr`, `β = r'ᵀz' / rᵀz`, `p = z + βp`, until
/// `‖r‖₂/‖b‖₂ < rtol` or `max_iters` is hit.
///
/// For `b = 0` the solver returns `x0`-derived state immediately with
/// `converged = true` (any `x` with `Ax = 0` requires `x = 0` for SPD `A`;
/// the caller gets `x = x0` and should pass `x0 = 0` in that case, which is
/// what the recovery path does).
///
/// # Panics
/// Panics on dimension mismatches.
pub fn pcg_with(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    precond: &BlockJacobiPrecond,
    rtol: f64,
    max_iters: usize,
    backend: KernelBackend,
) -> PcgResult {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "pcg: matrix must be square");
    assert_eq!(b.len(), n, "pcg: rhs length");
    assert_eq!(x0.len(), n, "pcg: initial guess length");
    assert_eq!(precond.n(), n, "pcg: preconditioner size");

    let mut flops: u64 = 0;
    let spmv_flops = a.spmv_flops();
    let precond_flops = precond.apply_flops(0..n);

    let mut work = [(); 4].map(|_| vec![0.0; n]);
    let [r, z, p, q] = &mut work;

    let mut x = x0.to_vec();
    // r = b - A x0
    backend.spmv_into(a, &x, r);
    flops += spmv_flops;
    for (ri, bi) in r.iter_mut().zip(b.iter()) {
        *ri = bi - *ri;
    }
    flops += n as u64;

    let bnorm = backend.dot(b, b).sqrt();
    flops += 2 * n as u64;
    if bnorm == 0.0 {
        return PcgResult {
            x,
            iterations: 0,
            converged: true,
            relres: 0.0,
            flops,
        };
    }

    precond.apply_into(r, z);
    flops += precond_flops;
    p.copy_from_slice(z);
    let mut rz = backend.dot(r, z);
    flops += 2 * n as u64;

    let mut relres = backend.dot(r, r).sqrt() / bnorm;
    flops += 2 * n as u64;
    let mut iterations = 0;

    while relres >= rtol && iterations < max_iters {
        backend.spmv_into(a, p, q);
        let pap = backend.dot(p, q);
        flops += spmv_flops + 2 * n as u64;
        if pap <= 0.0 {
            // Numerical breakdown (A not SPD to working precision); stop
            // with the best iterate so far rather than dividing by zero.
            break;
        }
        let alpha = rz / pap;
        backend.fused_axpy2(alpha, p, q, &mut x, r);
        flops += 4 * n as u64;
        precond.apply_into(r, z);
        flops += precond_flops;
        let rz_new = backend.dot(r, z);
        let rr = backend.dot(r, r);
        flops += 4 * n as u64;
        let beta = rz_new / rz;
        rz = rz_new;
        backend.axpby(1.0, z, beta, p);
        flops += 2 * n as u64;
        iterations += 1;
        relres = rr.sqrt() / bnorm;
    }

    PcgResult {
        x,
        iterations,
        converged: relres < rtol,
        relres,
        flops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esrcg_precond::PrecondSpec;
    use esrcg_sparse::gen::{poisson1d, poisson2d, poisson3d, random_spd_dense};
    use esrcg_sparse::vector::max_abs_diff;
    use esrcg_sparse::{KernelBackend, Partition};

    /// Point Jacobi (blocks of one row). Poisson's diagonal is constant, so
    /// on it this is a scaled identity and PCG takes plain CG's iterates.
    fn point_jacobi(a: &CsrMatrix) -> BlockJacobiPrecond {
        let part = Partition::balanced(a.nrows(), 1);
        PrecondSpec { max_block: 1 }.build(a, &part).unwrap()
    }

    #[test]
    fn solves_poisson1d_exactly_in_n_iterations() {
        // CG reaches the exact solution of an n×n system in at most n
        // iterations (exact arithmetic); 1-D Poisson is well-enough
        // conditioned that this also holds numerically.
        let a = poisson1d(20);
        let x_true: Vec<f64> = (0..20).map(|i| (i as f64 * 0.37).sin()).collect();
        let b = a.spmv(&x_true);
        let res = pcg(&a, &b, &[0.0; 20], &point_jacobi(&a), 1e-12, 40);
        assert!(res.converged);
        assert!(res.iterations <= 20);
        assert!(max_abs_diff(&res.x, &x_true) < 1e-9);
    }

    #[test]
    fn preconditioning_reduces_iterations() {
        let a = poisson2d(20, 20);
        let n = a.nrows();
        let x_true: Vec<f64> = (0..n).map(|i| ((i % 17) as f64) / 17.0).collect();
        let b = a.spmv(&x_true);
        let plain = pcg(&a, &b, &vec![0.0; n], &point_jacobi(&a), 1e-10, 10_000);
        let part = Partition::balanced(n, 4);
        let bj = BlockJacobiPrecond::new(&a, &part, 10).unwrap();
        let pre = pcg(&a, &b, &vec![0.0; n], &bj, 1e-10, 10_000);
        assert!(plain.converged && pre.converged);
        assert!(
            pre.iterations < plain.iterations,
            "block Jacobi ({}) should beat point Jacobi ({})",
            pre.iterations,
            plain.iterations
        );
    }

    #[test]
    fn converges_on_3d_problem_with_jacobi() {
        let a = poisson3d(6, 6, 6);
        let n = a.nrows();
        let b = vec![1.0; n];
        let p = point_jacobi(&a);
        let res = pcg(&a, &b, &vec![0.0; n], &p, 1e-8, 1000);
        assert!(res.converged);
        // True residual check.
        let mut rr = a.spmv(&res.x);
        for (ri, bi) in rr.iter_mut().zip(b.iter()) {
            *ri = bi - *ri;
        }
        let relres = esrcg_sparse::vector::dot(&rr, &rr).sqrt() / (n as f64).sqrt();
        assert!(relres < 1e-7, "true relres {relres}");
    }

    #[test]
    fn warm_start_converges_faster() {
        let a = poisson2d(10, 10);
        let n = a.nrows();
        let b = vec![1.0; n];
        let p = point_jacobi(&a);
        let cold = pcg(&a, &b, &vec![0.0; n], &p, 1e-10, 10_000);
        let warm = pcg(&a, &b, &cold.x, &p, 1e-10, 10_000);
        assert!(warm.iterations <= 1, "restart from solution must be free");
    }

    #[test]
    fn zero_rhs_returns_immediately() {
        let a = poisson1d(5);
        let res = pcg(&a, &[0.0; 5], &[0.0; 5], &point_jacobi(&a), 1e-10, 10);
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn respects_iteration_cap() {
        let a = poisson2d(30, 30);
        let n = a.nrows();
        let res = pcg(
            &a,
            &vec![1.0; n],
            &vec![0.0; n],
            &point_jacobi(&a),
            1e-14,
            3,
        );
        assert!(!res.converged);
        assert_eq!(res.iterations, 3);
    }

    #[test]
    fn inner_solve_tolerance_reachable() {
        // The paper's recovery path (`RecoveryRule::Paper`) solves to
        // 1e-14; verify that's attainable on the kind of principal
        // submatrices it sees.
        let a = random_spd_dense(30, 5);
        let part = Partition::balanced(30, 1);
        let p = PrecondSpec::paper_default().build(&a, &part).unwrap();
        let x_true: Vec<f64> = (0..30).map(|i| (i as f64).cos()).collect();
        let b = a.spmv(&x_true);
        let res = pcg(&a, &b, &vec![0.0; 30], &p, 1e-14, 10_000);
        assert!(res.converged);
        assert!(res.relres < 1e-14);
        assert!(max_abs_diff(&res.x, &x_true) < 1e-10);
    }

    #[test]
    fn backends_and_workspace_reuse_are_bitwise_identical() {
        let a = poisson2d(16, 16);
        let n = a.nrows();
        let b = vec![1.0; n];
        let p = point_jacobi(&a);
        let reference = pcg(&a, &b, &vec![0.0; n], &p, 1e-10, 10_000);
        for backend in [
            KernelBackend::Sequential,
            KernelBackend::parallel(1),
            KernelBackend::parallel(2),
            KernelBackend::parallel(8),
        ] {
            // Run twice on the same backend: reusing its pool must not
            // change bits.
            for round in 0..2 {
                let res = pcg_with(&a, &b, &vec![0.0; n], &p, 1e-10, 10_000, backend);
                assert_eq!(res.x, reference.x, "{} round {round}", backend.name());
                assert_eq!(res.iterations, reference.iterations);
                assert_eq!(res.relres.to_bits(), reference.relres.to_bits());
            }
        }
    }

    #[test]
    fn flops_are_counted() {
        let a = poisson1d(10);
        let res = pcg(&a, &[1.0; 10], &[0.0; 10], &point_jacobi(&a), 1e-10, 100);
        assert!(res.flops > 0);
        // At least spmv per iteration.
        assert!(res.flops >= res.iterations as u64 * a.spmv_flops());
    }
}
