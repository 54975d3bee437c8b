//! Finite-difference Laplacians (3-, 5-, and 7-point stencils).
//!
//! These are the canonical SPD model problems for elliptic PDEs — the
//! problem class the paper's introduction motivates (heat conduction,
//! elastic deformation). Dirichlet boundary conditions; the matrices are
//! symmetric positive definite.
//!
//! Each row is written in ascending column order — lower neighbours
//! slowest axis first, the diagonal, upper neighbours fastest axis first —
//! straight into the CSR arrays, sized from the closed-form entry count.

use crate::csr::{CsrMatrix, CsrWriter};

/// 1-D Poisson matrix (`tridiag(-1, 2, -1)`, `n × n`).
///
/// # Panics
/// Panics if `n == 0`.
pub fn poisson1d(n: usize) -> CsrMatrix {
    assert!(n > 0, "poisson1d: n must be positive");
    let mut w = CsrWriter::with_capacity(n, n, n + 2 * (n - 1));
    for i in 0..n {
        if i > 0 {
            w.push(i - 1, -1.0);
        }
        w.push(i, 2.0);
        if i + 1 < n {
            w.push(i + 1, -1.0);
        }
        w.end_row();
    }
    w.finish()
}

/// 2-D Poisson matrix (5-point stencil) on an `nx × ny` grid; `n = nx·ny`.
///
/// # Panics
/// Panics if `nx == 0 || ny == 0`.
pub fn poisson2d(nx: usize, ny: usize) -> CsrMatrix {
    assert!(nx > 0 && ny > 0, "poisson2d: grid dims must be positive");
    let n = nx * ny;
    let nnz = n + 2 * ((nx - 1) * ny + nx * (ny - 1));
    let mut w = CsrWriter::with_capacity(n, n, nnz);
    for y in 0..ny {
        for x in 0..nx {
            let i = y * nx + x;
            if y > 0 {
                w.push(i - nx, -1.0);
            }
            if x > 0 {
                w.push(i - 1, -1.0);
            }
            w.push(i, 4.0);
            if x + 1 < nx {
                w.push(i + 1, -1.0);
            }
            if y + 1 < ny {
                w.push(i + nx, -1.0);
            }
            w.end_row();
        }
    }
    w.finish()
}

/// 3-D Poisson matrix (7-point stencil) on an `nx × ny × nz` grid;
/// `n = nx·ny·nz`.
///
/// # Panics
/// Panics if any grid dimension is zero.
pub fn poisson3d(nx: usize, ny: usize, nz: usize) -> CsrMatrix {
    assert!(
        nx > 0 && ny > 0 && nz > 0,
        "poisson3d: grid dims must be positive"
    );
    let n = nx * ny * nz;
    let plane = nx * ny;
    let nnz = n + 2 * ((nx - 1) * ny * nz + nx * (ny - 1) * nz + nx * ny * (nz - 1));
    let mut w = CsrWriter::with_capacity(n, n, nnz);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let i = (z * ny + y) * nx + x;
                if z > 0 {
                    w.push(i - plane, -1.0);
                }
                if y > 0 {
                    w.push(i - nx, -1.0);
                }
                if x > 0 {
                    w.push(i - 1, -1.0);
                }
                w.push(i, 6.0);
                if x + 1 < nx {
                    w.push(i + 1, -1.0);
                }
                if y + 1 < ny {
                    w.push(i + nx, -1.0);
                }
                if z + 1 < nz {
                    w.push(i + plane, -1.0);
                }
                w.end_row();
            }
        }
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    /// The generators as they were while they assembled through
    /// [`CooMatrix`]: the oracle the streamed rows must equal.
    fn poisson1d_coo(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::with_capacity(n, n, 3 * n);
        for i in 0..n {
            coo.push(i, i, 2.0).expect("in range");
            if i + 1 < n {
                coo.push_sym(i, i + 1, -1.0).expect("in range");
            }
        }
        CsrMatrix::from_coo(coo)
    }

    fn poisson2d_coo(nx: usize, ny: usize) -> CsrMatrix {
        let n = nx * ny;
        let idx = |x: usize, y: usize| y * nx + x;
        let mut coo = CooMatrix::with_capacity(n, n, 5 * n);
        for y in 0..ny {
            for x in 0..nx {
                let i = idx(x, y);
                coo.push(i, i, 4.0).expect("in range");
                if x + 1 < nx {
                    coo.push_sym(i, idx(x + 1, y), -1.0).expect("in range");
                }
                if y + 1 < ny {
                    coo.push_sym(i, idx(x, y + 1), -1.0).expect("in range");
                }
            }
        }
        CsrMatrix::from_coo(coo)
    }

    fn poisson3d_coo(nx: usize, ny: usize, nz: usize) -> CsrMatrix {
        let n = nx * ny * nz;
        let idx = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
        let mut coo = CooMatrix::with_capacity(n, n, 7 * n);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let i = idx(x, y, z);
                    coo.push(i, i, 6.0).expect("in range");
                    if x + 1 < nx {
                        coo.push_sym(i, idx(x + 1, y, z), -1.0).expect("in range");
                    }
                    if y + 1 < ny {
                        coo.push_sym(i, idx(x, y + 1, z), -1.0).expect("in range");
                    }
                    if z + 1 < nz {
                        coo.push_sym(i, idx(x, y, z + 1), -1.0).expect("in range");
                    }
                }
            }
        }
        CsrMatrix::from_coo(coo)
    }

    #[test]
    fn streamed_rows_equal_the_coo_assembly() {
        for n in 1..=6 {
            assert_eq!(poisson1d(n), poisson1d_coo(n), "poisson1d({n})");
        }
        for nx in 1..=5 {
            for ny in 1..=5 {
                assert_eq!(poisson2d(nx, ny), poisson2d_coo(nx, ny), "{nx}x{ny}");
                for nz in 1..=4 {
                    assert_eq!(
                        poisson3d(nx, ny, nz),
                        poisson3d_coo(nx, ny, nz),
                        "{nx}x{ny}x{nz}"
                    );
                }
            }
        }
    }

    #[test]
    fn poisson1d_structure() {
        let a = poisson1d(4);
        assert_eq!(a.nrows(), 4);
        assert_eq!(a.nnz(), 4 + 2 * 3);
        assert_eq!(a.get(0, 0), 2.0);
        assert_eq!(a.get(1, 0), -1.0);
        assert_eq!(a.get(0, 2), 0.0);
        assert!(a.is_symmetric(0.0));
        assert_eq!(a.bandwidth(), 1);
    }

    #[test]
    fn poisson2d_structure() {
        let a = poisson2d(3, 3);
        assert_eq!(a.nrows(), 9);
        assert!(a.is_symmetric(0.0));
        assert_eq!(a.bandwidth(), 3);
        // Center node has 5 stencil entries.
        assert_eq!(a.row_nnz(4), 5);
        // Corner node has 3.
        assert_eq!(a.row_nnz(0), 3);
    }

    #[test]
    fn poisson3d_structure() {
        let a = poisson3d(3, 3, 3);
        assert_eq!(a.nrows(), 27);
        assert!(a.is_symmetric(0.0));
        // Center node has 7 stencil entries.
        assert_eq!(a.row_nnz(13), 7);
        assert_eq!(a.get(13, 13), 6.0);
    }

    #[test]
    fn poisson_is_positive_definite_small() {
        // Check positive definiteness via dense Cholesky at small size.
        use crate::dense::DenseMatrix;
        for a in [poisson1d(6), poisson2d(3, 2), poisson3d(2, 2, 2)] {
            let idx: Vec<usize> = (0..a.nrows()).collect();
            let d = DenseMatrix::from_csr_block(&a, &idx);
            assert!(d.cholesky().is_ok());
        }
    }

    #[test]
    fn rectangular_grids_supported() {
        let a = poisson2d(5, 2);
        assert_eq!(a.nrows(), 10);
        assert!(a.is_symmetric(0.0));
        let b = poisson3d(4, 2, 3);
        assert_eq!(b.nrows(), 24);
        assert!(b.is_symmetric(0.0));
    }
}
