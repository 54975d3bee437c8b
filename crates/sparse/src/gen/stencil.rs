//! 27-point 3-D stencil generator — the `Emilia_923` stand-in.
//!
//! `Emilia_923` is a geomechanical reservoir model: a 3-D elasticity-type
//! discretization of strongly *heterogeneous* rock layers. This generator
//! reproduces its structural character: every grid point couples to its full
//! 3×3×3 neighborhood (≤ 27 nonzeros per row, banded with bandwidth
//! ≈ nx·ny + nx + 1), and each point carries a lognormally-distributed
//! material coefficient (deterministic per index) spanning several orders of
//! magnitude. Edge weights use the geometric mean of the endpoint
//! coefficients, keeping the matrix symmetric; the diagonal is the dominance
//! sum plus a small shift, keeping it SPD. The heterogeneity is what gives
//! the matrix a realistic, preconditioner-resistant spectrum (the paper's
//! reference runs need ~10⁴ iterations on the genuine matrix).

use super::{neighbour, neighbourhood_entries, Neighbour, CENTRE, OFFSETS};
use crate::csr::{CsrMatrix, CsrWriter};

/// Generator parameters for [`stencil27_params`]; [`Default`] gives the
/// calibrated `Emilia_923` stand-in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StencilParams {
    /// Anisotropic diffusion coefficients per axis. Strong coupling across
    /// the partition direction (z, the index-slowest axis) is what makes
    /// the spectrum resistant to the node-local block Jacobi
    /// preconditioner, as for the genuine reservoir matrix.
    pub aniso: [f64; 3],
    /// Material contrast exponent: coefficients span `10⁰..10^contrast`.
    pub contrast: f64,
    /// Thickness (in z-planes) of the constant-coefficient material layers.
    pub layer_nz: usize,
    /// Relative diagonal shift keeping the matrix strictly definite.
    pub shift: f64,
}

impl Default for StencilParams {
    fn default() -> Self {
        StencilParams {
            aniso: [0.02, 0.02, 1.0],
            contrast: DEFAULT_CONTRAST,
            layer_nz: 4,
            shift: 1.0e-6,
        }
    }
}

/// Base stencil weight for a neighbor at offset `(dx, dy, dz)`: face
/// neighbors couple hardest, corner neighbors weakest. Anisotropy is
/// *multiplicative* (tensor-product conductivity): an offset touching a
/// weak axis is damped by that axis's coefficient, so diagonal neighbors do
/// not leak strong coupling into weak directions.
fn weight(aniso: &[f64; 3], dx: i64, dy: i64, dz: i64) -> f64 {
    let o = [dx.unsigned_abs(), dy.unsigned_abs(), dz.unsigned_abs()];
    let dist = o[0] + o[1] + o[2];
    let class = match dist {
        1 => 1.0,  // 6 face neighbors
        2 => 0.5,  // 12 edge neighbors
        3 => 0.25, // 8 corner neighbors
        _ => unreachable!("offsets are in {{-1,0,1}}³ \\ origin"),
    };
    let directional: f64 = aniso
        .iter()
        .zip(o.iter())
        .map(|(&a, &od)| if od == 1 { a } else { 1.0 })
        .product();
    -class * directional
}

/// SplitMix64 — a tiny, high-quality deterministic hash for per-index
/// material coefficients (no RNG state to thread through).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic lognormal-like material coefficient for grid index `i`:
/// `10^(contrast · u)` with `u` uniform in `[0, 1)` derived from a hash.
pub(crate) fn material_coefficient(i: usize, contrast: f64) -> f64 {
    let u = (splitmix64(i as u64) >> 11) as f64 / (1u64 << 53) as f64;
    10f64.powf(contrast * u)
}

/// Default material contrast: coefficients span 10⁰..10³, typical of layered
/// rock / composite structures.
pub(crate) const DEFAULT_CONTRAST: f64 = 3.0;

/// 27-point heterogeneous stencil matrix on an `nx × ny × nz` grid
/// (`n = nx·ny·nz`) with the default material contrast. Strictly diagonally
/// dominant, symmetric, positive definite.
///
/// # Panics
/// Panics if any grid dimension is zero.
pub fn stencil27(nx: usize, ny: usize, nz: usize) -> CsrMatrix {
    stencil27_with_contrast(nx, ny, nz, DEFAULT_CONTRAST)
}

/// [`stencil27`] with an explicit material contrast exponent: coefficients
/// span `10⁰..10^contrast`; `contrast = 0` gives the homogeneous stencil.
///
/// # Panics
/// Panics if any grid dimension is zero or `contrast` is negative.
pub(crate) fn stencil27_with_contrast(nx: usize, ny: usize, nz: usize, contrast: f64) -> CsrMatrix {
    stencil27_params(
        nx,
        ny,
        nz,
        StencilParams {
            contrast,
            ..StencilParams::default()
        },
    )
}

/// Fully-parameterized 27-point stencil generator (see [`StencilParams`]) —
/// the knobs behind [`stencil27`], exposed for ablation studies (anisotropy
/// sweeps, contrast sweeps, layer-thickness sweeps).
///
/// # Panics
/// Panics if any grid dimension is zero, `contrast < 0`, `layer_nz == 0`,
/// any anisotropy coefficient is non-positive, or `shift <= 0`.
pub(crate) fn stencil27_params(nx: usize, ny: usize, nz: usize, p: StencilParams) -> CsrMatrix {
    assert!(
        nx > 0 && ny > 0 && nz > 0,
        "stencil27: grid dims must be positive"
    );
    assert!(
        p.contrast >= 0.0,
        "stencil27: contrast must be non-negative"
    );
    assert!(
        p.layer_nz > 0,
        "stencil27: layer thickness must be positive"
    );
    assert!(
        p.aniso.iter().all(|&a| a > 0.0),
        "stencil27: anisotropy coefficients must be positive"
    );
    assert!(p.shift > 0.0, "stencil27: shift must be positive");
    let dims = [nx, ny, nz];
    let n = nx * ny * nz;
    let mut out = CsrWriter::with_capacity(n, n, neighbourhood_entries(dims));
    // Material coefficients are constant within z-layers of layer_nz planes
    // and jump by up to 10^contrast between layers — correlated (layered)
    // heterogeneity, as in a real reservoir model.
    let kappa = |z: usize| material_coefficient(z / p.layer_nz, p.contrast);
    // The 26 neighbour weights, in the order the rows are written in (the
    // centre's slot stays unused).
    let mut weights = [0.0; 27];
    for (o, wgt) in weights.iter_mut().enumerate().filter(|(o, _)| *o != CENTRE) {
        let [dx, dy, dz] = OFFSETS[o];
        *wgt = weight(&p.aniso, dx, dy, dz);
    }
    for z in 0..nz {
        // Everything an offset contributes depends on the point only through
        // its plane: the entry of an in-range neighbour — geometric mean of
        // the endpoint coefficients, which keeps the matrix symmetric — or,
        // past a z-end, the ghost neighbour's share of the diagonal.
        let kz = kappa(z);
        let mut plane = weights;
        for (o, w) in plane.iter_mut().enumerate() {
            let zz = z as i64 + OFFSETS[o][2];
            *w = if (0..nz as i64).contains(&zz) {
                *w * (kz * kappa(zz as usize)).sqrt()
            } else {
                w.abs() * kz
            };
        }
        for y in 0..ny {
            for x in 0..nx {
                let i = (z * ny + y) * nx + x;
                let mut diag = p.shift * kz;
                // The diagonal's place is where the centre offset comes up;
                // its value is known only after the last neighbour.
                let mut diag_pos = 0;
                for (o, &w) in plane.iter().enumerate() {
                    if o == CENTRE {
                        diag_pos = out.push(i, 0.0);
                        continue;
                    }
                    match neighbour(dims, [x, y, z], o) {
                        Neighbour::Point(j) => {
                            diag += w.abs();
                            out.push(j, w);
                        }
                        // Dirichlet only at the two ends of the strong (z)
                        // axis — the bar is fixed there, its sides are free
                        // (Neumann). Stiffening the weak-axis boundaries
                        // would put an artificial floor under the smallest
                        // eigenvalues and make the problem too easy.
                        Neighbour::BeyondZ => diag += w,
                        Neighbour::BeyondSide => {}
                    }
                }
                out.set(diag_pos, diag);
                out.end_row();
            }
        }
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::CooMatrix;

    /// [`stencil27_params`] as it was while it assembled through
    /// [`CooMatrix`]: the oracle the streamed rows must equal.
    fn stencil27_coo(nx: usize, ny: usize, nz: usize, p: StencilParams) -> CsrMatrix {
        let n = nx * ny * nz;
        let idx = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
        let mut coo = CooMatrix::with_capacity(n, n, 27 * n);
        let kappa: Vec<f64> = (0..n)
            .map(|i| {
                let z = i / (nx * ny);
                material_coefficient(z / p.layer_nz, p.contrast)
            })
            .collect();
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let i = idx(x, y, z);
                    let mut diag = p.shift * kappa[i];
                    for dz in -1i64..=1 {
                        for dy in -1i64..=1 {
                            for dx in -1i64..=1 {
                                if dx == 0 && dy == 0 && dz == 0 {
                                    continue;
                                }
                                let (xx, yy, zz) = (x as i64 + dx, y as i64 + dy, z as i64 + dz);
                                if xx < 0
                                    || yy < 0
                                    || zz < 0
                                    || xx >= nx as i64
                                    || yy >= ny as i64
                                    || zz >= nz as i64
                                {
                                    if zz < 0 || zz >= nz as i64 {
                                        diag += weight(&p.aniso, dx, dy, dz).abs() * kappa[i];
                                    }
                                    continue;
                                }
                                let j = idx(xx as usize, yy as usize, zz as usize);
                                let w = weight(&p.aniso, dx, dy, dz) * (kappa[i] * kappa[j]).sqrt();
                                diag += w.abs();
                                coo.push(i, j, w).expect("in range");
                            }
                        }
                    }
                    coo.push(i, i, diag).expect("in range");
                }
            }
        }
        CsrMatrix::from_coo(coo)
    }

    #[test]
    fn streamed_rows_equal_the_coo_assembly() {
        let skew = StencilParams {
            aniso: [0.5, 0.25, 2.0],
            contrast: 1.5,
            layer_nz: 1,
            shift: 1.0e-6,
        };
        for p in [StencilParams::default(), skew] {
            for nx in 1..=4 {
                for ny in 1..=4 {
                    for nz in 1..=5 {
                        assert_eq!(
                            stencil27_params(nx, ny, nz, p),
                            stencil27_coo(nx, ny, nz, p),
                            "{nx}x{ny}x{nz} {p:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn interior_row_has_27_entries() {
        let a = stencil27(3, 3, 3);
        assert_eq!(a.row_nnz(13), 27); // center of the 3³ grid
        assert_eq!(a.nrows(), 27);
    }

    #[test]
    fn symmetric_and_diagonally_dominant() {
        let a = stencil27(4, 3, 2);
        assert!(a.is_symmetric(0.0));
        for r in 0..a.nrows() {
            let (cols, vals) = a.row(r);
            let mut diag = 0.0;
            let mut off = 0.0;
            for (&c, &v) in cols.iter().zip(vals.iter()) {
                if c == r {
                    diag = v;
                } else {
                    off += v.abs();
                }
            }
            assert!(diag > off, "row {r} not strictly dominant");
        }
    }

    #[test]
    fn positive_definite_small() {
        use crate::dense::DenseMatrix;
        let a = stencil27(3, 2, 2);
        let idx: Vec<usize> = (0..a.nrows()).collect();
        assert!(DenseMatrix::from_csr_block(&a, &idx).cholesky().is_ok());
    }

    #[test]
    fn bandwidth_matches_grid_layout() {
        let (nx, ny, nz) = (5, 4, 3);
        let a = stencil27(nx, ny, nz);
        assert_eq!(a.bandwidth(), nx * ny + nx + 1);
    }

    #[test]
    fn corner_row_has_8_entries() {
        let a = stencil27(3, 3, 3);
        assert_eq!(a.row_nnz(0), 8); // 2×2×2 neighborhood at a corner
    }

    #[test]
    fn single_point_grid() {
        let a = stencil27(1, 1, 1);
        assert_eq!(a.nrows(), 1);
        assert!(a.get(0, 0) > 0.0);
    }
}
