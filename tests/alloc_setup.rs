//! The structured generators hold no O(nnz) transient — and no O(n) one
//! either: each writes its CSR rows straight into the three output arrays,
//! sized up front from the closed-form entry count, and everything else it
//! needs (neighbour weights, one plane's material coefficients) lives on the
//! stack. So a generator allocates exactly as often on a 24³ grid as on an
//! 8³ one — nothing grows — and exactly three times: `row_ptr`, `col_idx`,
//! `values`. A triplet buffer, a sort's merge scratch, a per-point
//! coefficient vector or one growth `realloc` each show up as a fourth.
//!
//! One test per binary on purpose: the counter is process-wide.

mod counting_alloc;

use esrcg::sparse::gen::{elasticity3d, poisson1d, poisson2d, poisson3d, stencil27};
use esrcg::sparse::CsrMatrix;

/// Heap allocations of one `generate()` call, and the rows it produced.
fn counted(generate: impl Fn() -> CsrMatrix) -> (u64, usize) {
    let before = counting_alloc::allocations();
    let a = generate();
    (counting_alloc::allocations() - before, a.nrows())
}

#[test]
fn structured_generators_allocate_their_outputs_and_nothing_that_grows() {
    type Generator = fn(usize) -> CsrMatrix;
    let generators: [(&str, Generator); 5] = [
        ("poisson1d", |g| poisson1d(g * g * g)),
        ("poisson2d", |g| poisson2d(g, g * g)),
        ("poisson3d", |g| poisson3d(g, g, g)),
        ("stencil27", |g| stencil27(g, g, g)),
        ("elasticity3d", |g| elasticity3d(g, g, g)),
    ];
    for (name, generate) in generators {
        let (small, small_rows) = counted(|| generate(8));
        let (large, large_rows) = counted(|| generate(24));
        assert!(small_rows < large_rows, "{name}: the grids differ in size");
        assert_eq!(
            small, large,
            "{name}: 8³ allocated {small} times, 24³ {large} times"
        );
        assert_eq!(small, 3, "{name}: its outputs are three arrays");
    }
}
