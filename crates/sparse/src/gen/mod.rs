//! Synthetic SPD problem generators.
//!
//! The paper evaluates on two SuiteSparse structural-mechanics matrices that
//! cannot be redistributed here (`Emilia_923`: n = 923 136, ~44 nnz/row;
//! `audikw_1`: n = 943 695, ~82 nnz/row). These generators produce SPD
//! matrices with the same *structural character* — banded, stencil-like
//! coupling with a controllable number of nonzeros per row — at configurable
//! scale, which is what drives every quantity the paper measures (SpMV cost,
//! ASpMV extra traffic, halo sizes, inner-system conditioning). PAPER.md,
//! "What the stand-ins do not reproduce", lists what the substitution
//! gives up.
//!
//! * [`poisson1d`] / [`poisson2d`] / [`poisson3d`] — classic 3/5/7-point
//!   finite-difference Laplacians (always SPD),
//! * [`stencil27`] — 27-point 3-D stencil (≈ 27 nnz/row), the
//!   **`Emilia_923` stand-in** ([`emilia_like`]),
//! * [`elasticity3d`] — 3 degrees of freedom per grid point with 3×3 coupling
//!   blocks over the 27-point neighborhood (≈ 81 nnz/row), the
//!   **`audikw_1` stand-in** ([`audikw_like`]),
//! * [`banded_spd`] — random banded diagonally-dominant SPD matrices for
//!   property tests and bandwidth-sweep ablations,
//! * [`random_spd_dense`] — small dense-as-sparse SPD matrices for
//!   reconstruction exactness tests.
//!
//! The structured generators (Poisson, [`stencil27`], [`elasticity3d`]) visit
//! a grid point's neighbours in ascending column order, so they write CSR
//! rows straight into arrays sized from the closed-form entry count: no
//! triplet buffer, no sort, and the set-up of a paper-size problem
//! (n ≈ 9.2·10⁵) peaks at the size of the matrix itself. Only the two
//! random generators, whose entries arrive unordered, assemble through
//! [`CooMatrix`](crate::coo::CooMatrix).

mod elasticity;
mod poisson;
mod random;
mod stencil;

pub use elasticity::elasticity3d;
pub use poisson::{poisson1d, poisson2d, poisson3d};
pub use random::{banded_spd, random_spd_dense};
pub use stencil::stencil27;

use crate::csr::CsrMatrix;

/// The 27 offsets `[dx, dy, dz]` of `{-1, 0, 1}³`, `dz` slowest and `dx`
/// fastest: the order in which a grid point's in-range neighbours ascend in
/// column index, so a row written in it is sorted.
const OFFSETS: [[i64; 3]; 27] = {
    let mut table = [[0; 3]; 27];
    let mut o = 0;
    while o < 27 {
        table[o] = [
            (o % 3) as i64 - 1,
            (o / 3 % 3) as i64 - 1,
            (o / 9) as i64 - 1,
        ];
        o += 1;
    }
    table
};

/// The index of `[0, 0, 0]` in [`OFFSETS`]: the grid point itself.
const CENTRE: usize = 13;

/// Where an offset from a grid point lands.
#[derive(Clone, Copy)]
enum Neighbour {
    /// On the grid, at this point index (`x` fastest, `z` slowest).
    Point(usize),
    /// Past either end of the z axis, wherever `x` and `y` land.
    BeyondZ,
    /// Inside the z range but off a side of the grid.
    BeyondSide,
}

/// Where `OFFSETS[o]` from point `[x, y, z]` of an `[nx, ny, nz]` grid
/// lands.
fn neighbour([nx, ny, nz]: [usize; 3], [x, y, z]: [usize; 3], o: usize) -> Neighbour {
    let [dx, dy, dz] = OFFSETS[o];
    let (xx, yy, zz) = (x as i64 + dx, y as i64 + dy, z as i64 + dz);
    if zz < 0 || zz >= nz as i64 {
        Neighbour::BeyondZ
    } else if xx < 0 || yy < 0 || xx >= nx as i64 || yy >= ny as i64 {
        Neighbour::BeyondSide
    } else {
        Neighbour::Point((zz as usize * ny + yy as usize) * nx + xx as usize)
    }
}

/// Entries of a 27-point-neighbourhood matrix with one unknown per grid
/// point: a point with `cx · cy · cz` in-range offsets (itself included) has
/// that many, and `Σ_x cx = 3·nx − 2`, so the count factorises.
fn neighbourhood_entries([nx, ny, nz]: [usize; 3]) -> usize {
    (3 * nx - 2) * (3 * ny - 2) * (3 * nz - 2)
}

/// The `Emilia_923` stand-in: a 27-point 3-D stencil on an
/// `nx × ny × nz` grid (n = nx·ny·nz rows, ≈ 27 nnz/row interior,
/// moderate bandwidth). See module docs for the substitution argument.
pub fn emilia_like(nx: usize, ny: usize, nz: usize) -> CsrMatrix {
    stencil27(nx, ny, nz)
}

/// The `audikw_1` stand-in: a 3-dof-per-node elasticity-type stencil on an
/// `nx × ny × nz` grid (n = 3·nx·ny·nz rows, ≈ 81 nnz/row interior, wider
/// coupling than [`emilia_like`]). See module docs.
pub fn audikw_like(nx: usize, ny: usize, nz: usize) -> CsrMatrix {
    elasticity3d(nx, ny, nz)
}

#[cfg(test)]
mod tests {
    use super::elasticity::{elasticity3d_params, ElasticityParams};
    use super::stencil::{stencil27_params, StencilParams};
    use super::*;

    #[test]
    fn emilia_like_properties() {
        let a = emilia_like(6, 5, 4);
        assert_eq!(a.nrows(), 120);
        assert!(a.is_symmetric(0.0));
        // Interior rows have 27 entries.
        let interior_nnz = a.row_nnz(a.nrows() / 2);
        assert!(interior_nnz <= 27);
        assert!((a.nnz() as f64 / a.nrows() as f64) > 10.0);
    }

    #[test]
    fn audikw_like_properties() {
        let a = audikw_like(4, 4, 4);
        assert_eq!(a.nrows(), 192);
        assert!(a.is_symmetric(1e-12));
        assert!((a.nnz() as f64 / a.nrows() as f64) > 30.0);
    }

    #[test]
    fn audikw_denser_than_emilia() {
        let e = emilia_like(5, 5, 5);
        let a = audikw_like(5, 5, 5);
        assert!((a.nnz() as f64 / a.nrows() as f64) > (e.nnz() as f64 / e.nrows() as f64));
    }

    /// FNV-1a over `(nrows, row_ptr, col_idx, values.to_bits())`, every word
    /// little-endian.
    fn fingerprint(a: &CsrMatrix) -> u64 {
        let words = std::iter::once(a.nrows() as u64)
            .chain(a.row_ptr().iter().map(|&p| p as u64))
            .chain(a.col_idx().iter().map(|&c| c as u64))
            .chain(a.values().iter().map(|v| v.to_bits()));
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in words {
            for b in w.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn generators_are_bit_for_bit_the_pinned_matrices() {
        // Recorded at the commit before the generators stopped going through
        // `CooMatrix` (PR 21): the workload matrices of the benchmark, the
        // non-default parameter corners, and the degenerate grids.
        let flat = StencilParams {
            aniso: [1.0, 1.0, 1.0],
            contrast: 0.0,
            layer_nz: 1,
            shift: 1.0e-3,
        };
        let skew = StencilParams {
            aniso: [0.5, 0.25, 2.0],
            contrast: 1.5,
            layer_nz: 1,
            shift: 1.0e-6,
        };
        let eflat = ElasticityParams {
            aniso: [1.0, 1.0, 1.0],
            contrast: 0.0,
            layer_nz: 1,
            shift: 1.0e-3,
            rank_one: 0.0,
        };
        let eskew = ElasticityParams {
            aniso: [0.3, 0.7, 1.0],
            contrast: 1.0,
            layer_nz: 2,
            shift: 1.0e-6,
            rank_one: 0.2,
        };
        let pins: Vec<(&str, CsrMatrix, u64)> = vec![
            ("poisson1d(17)", poisson1d(17), 0xbc83_8864_e70c_5d35),
            ("poisson1d(1)", poisson1d(1), 0xc8e1_fe7e_3b8d_3f45),
            (
                "poisson2d(128, 64)",
                poisson2d(128, 64),
                0xdfef_fcdb_7bb0_9775,
            ),
            (
                "poisson2d(16, 16)",
                poisson2d(16, 16),
                0xe3ef_d861_5e62_d68c,
            ),
            ("poisson2d(1, 1)", poisson2d(1, 1), 0xc8ac_1e7e_3b5f_e635),
            ("poisson2d(1, 9)", poisson2d(1, 9), 0xd97d_2115_43a6_5edd),
            ("poisson2d(9, 1)", poisson2d(9, 1), 0xd97d_2115_43a6_5edd),
            (
                "poisson3d(48, 48, 48)",
                poisson3d(48, 48, 48),
                0xae25_b948_7710_7df7,
            ),
            (
                "poisson3d(1, 1, 1)",
                poisson3d(1, 1, 1),
                0xc890_ee7e_3b48_cced,
            ),
            (
                "poisson3d(1, 7, 1)",
                poisson3d(1, 7, 1),
                0x6f3e_96b0_4e89_4303,
            ),
            (
                "poisson3d(7, 1, 1)",
                poisson3d(7, 1, 1),
                0x6f3e_96b0_4e89_4303,
            ),
            (
                "poisson3d(2, 2, 2)",
                poisson3d(2, 2, 2),
                0x46a0_031e_0e6c_734d,
            ),
            (
                "emilia_like(12, 12, 32)",
                emilia_like(12, 12, 32),
                0x416e_7119_8c02_a270,
            ),
            (
                "emilia_like(12, 12, 64)",
                emilia_like(12, 12, 64),
                0x0625_b5bb_c3cf_e633,
            ),
            (
                "stencil27(1, 1, 1)",
                stencil27(1, 1, 1),
                0xf5ec_6ef8_42de_7ec8,
            ),
            (
                "stencil27(1, 7, 1)",
                stencil27(1, 7, 1),
                0xf10d_dd75_818f_e28d,
            ),
            (
                "stencil27(7, 1, 1)",
                stencil27(7, 1, 1),
                0xf10d_dd75_818f_e28d,
            ),
            (
                "stencil27(2, 2, 2)",
                stencil27(2, 2, 2),
                0x770c_0429_3317_9c71,
            ),
            (
                "stencil27 flat",
                stencil27_params(5, 4, 6, flat),
                0x16ab_59ab_ed4d_f7c1,
            ),
            (
                "stencil27 skew",
                stencil27_params(4, 5, 7, skew),
                0xfad7_486b_b7b0_e262,
            ),
            (
                "stencil27 skew 1x7x1",
                stencil27_params(1, 7, 1, skew),
                0x69dd_2cc9_44ab_2f34,
            ),
            (
                "stencil27 skew 7x1x1",
                stencil27_params(7, 1, 1, skew),
                0x6524_c717_643e_f2a0,
            ),
            (
                "audikw_like(6, 5, 4)",
                audikw_like(6, 5, 4),
                0x434b_aaeb_acd9_2ce6,
            ),
            (
                "elasticity3d(1, 1, 1)",
                elasticity3d(1, 1, 1),
                0xa99a_7f60_3b85_3505,
            ),
            (
                "elasticity3d(1, 7, 1)",
                elasticity3d(1, 7, 1),
                0x4a49_efc8_839b_7d70,
            ),
            (
                "elasticity3d(7, 1, 1)",
                elasticity3d(7, 1, 1),
                0x85b3_bc14_0724_bd38,
            ),
            (
                "elasticity3d(2, 2, 2)",
                elasticity3d(2, 2, 2),
                0x10c6_7531_b9ac_2325,
            ),
            (
                "elasticity3d flat",
                elasticity3d_params(3, 4, 5, eflat),
                0x0ffd_b8fd_112e_1932,
            ),
            (
                "elasticity3d skew",
                elasticity3d_params(4, 3, 5, eskew),
                0xa72e_4e53_eae8_7e22,
            ),
        ];
        for (name, a, pinned) in &pins {
            assert_eq!(fingerprint(a), *pinned, "{name}: {:#018x}", fingerprint(a));
        }
    }
}
