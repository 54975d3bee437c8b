//! Block Jacobi preconditioner — the preconditioner the paper evaluates.
//!
//! `M = blockdiag(A_b)` with non-overlapping blocks, every block fully
//! inside one rank's index range, uniformly sized per rank, "as few of them
//! as possible, with a maximum block size of 10" (paper §5). Each block is
//! Cholesky-factored once at construction; applying `P = M⁻¹` is a pair of
//! small triangular solves per block.
//!
//! # Storage: one packed, lane-interleaved arena
//!
//! A 10 × 10 triangular solve is a chain of dependent subtractions and
//! divisions: solved one block at a time it runs at the latency of the
//! divider, not its throughput. Blocks are independent, though, and within
//! a rank they come in at most two sizes, so the factors are stored for
//! solving *several blocks in lock-step*:
//!
//! * only the lower triangles are kept, packed row-major
//!   (`(i, k) ↦ i(i+1)/2 + k`), all in one `Vec` — no per-block allocation;
//! * every run of consecutive equal-sized blocks of a rank is cut into
//!   *groups* of `W` blocks, and the fewer-than-`W` blocks left over form
//!   one last, narrower group. A group of `lanes` blocks (1 ..= `W`) is
//!   interleaved lane by lane at stride `lanes` — entry `(i, k)` of lane `j`
//!   lives at `off + (i(i+1)/2 + k)·lanes + j`, the SELL-C-σ idea of
//!   `esrcg_sparse::sellcs` applied to dense blocks. Nothing is padded: the
//!   arena holds exactly `Σ_b n_b(n_b+1)/2` entries whatever the grouping.
//!   Groups never cross a rank boundary and never mix the two block sizes.
//!
//! One routine, `solve_lanes::<L>`, solves a group; it is monomorphised for
//! every `L` in `1..=W`, so the leftovers of a run are solved in lock-step
//! like a full group. That matters most on small ranks: a 64-row rank is
//! one block of 10 rows and six of 9 — no full group at all, 2 groups in
//! all. Each lane performs exactly the per-row sequence of
//! `Cholesky::solve_in_place` — `s ← b_i; s ← s − l_ik·b_k` for ascending
//! `k`, `b_i ← s / l_ii`, forward then backward — on its own block; lanes
//! never exchange data. The result is therefore **bitwise identical** to
//! factoring and solving every block on its own, while the `L` independent
//! chains keep the pipeline full and vectorise. The factors themselves are
//! computed in a reusable scratch by [`Cholesky::factor_in_place`] — the
//! routine `DenseMatrix::cholesky` runs — and copied into the arena, so the
//! stored bits are the same as well.
//!
//! The apply is single-threaded. Blocks are independent, so a rank's group
//! list could be cut into worker-disjoint chunks without changing a bit,
//! but on the 2-core bench host a `par(2)` apply measured 0.88–1.0× the
//! sequential one at every size from 3·10⁴ to 10⁶ rows (steady-state
//! repeated applies), so there is no threaded path to gate.

use std::ops::Range;

use esrcg_sparse::{Cholesky, CsrMatrix, Partition, SparseError};

/// Blocks solved in lock-step per full group.
const W: usize = 8;
// `solve_groups` names every lane count `1..=W` in one `match`.
const _: () = assert!(W == 8);

/// Largest block size whose solve scratch (`W` lanes per row) lives on the
/// stack; larger `max_block` values fall back to one heap buffer per apply.
const STACK_ROWS: usize = 16;

/// Entries of a packed lower triangle of dimension `n`; also the packed
/// offset of row `n`.
#[inline]
fn tri(n: usize) -> usize {
    n * (n + 1) / 2
}

/// The fewest uniform blocks of at most `max_block` rows covering a rank of
/// `len` rows — `ceil(len / max_block)` of them, sizes differing by at most
/// one — as two runs `(rows per block, blocks)`: the larger size first.
fn block_runs(len: usize, max_block: usize) -> [(usize, usize); 2] {
    let nb = len.div_ceil(max_block);
    let base = len.checked_div(nb).unwrap_or(0);
    let extra = len - base * nb;
    [(base + 1, extra), (base, nb - extra)]
}

/// `lanes` consecutive blocks of `n` rows each, factored and stored
/// lane-interleaved (see the module docs).
#[derive(Debug, Clone)]
struct Group {
    /// Global index of the group's first row.
    start: usize,
    /// Rows per block.
    n: usize,
    /// Blocks in the group, `1..=W`; also the stride of its interleaving.
    lanes: usize,
    /// Offset of the group's `tri(n) · lanes` factor entries in the arena.
    off: usize,
}

impl Group {
    /// One past the group's last global row.
    fn end(&self) -> usize {
        self.start + self.n * self.lanes
    }
}

/// The block Jacobi preconditioner of the paper's experiments.
#[derive(Debug, Clone)]
pub struct BlockJacobiPrecond {
    n: usize,
    /// Groups sorted by `start`; they tile `0..n`.
    groups: Vec<Group>,
    /// Packed lower-triangular Cholesky factors of all groups.
    arena: Vec<f64>,
    max_block: usize,
}

impl BlockJacobiPrecond {
    /// Builds the preconditioner: each rank's range is split into the
    /// fewest uniformly-sized blocks of at most `max_block` rows, and each
    /// block `A[b, b]` is Cholesky-factored.
    ///
    /// # Errors
    /// Returns [`SparseError::NotPositiveDefinite`] if any block fails to
    /// factor (cannot happen for an SPD `A`, whose principal submatrices are
    /// SPD).
    ///
    /// # Panics
    /// Panics if `max_block == 0` or the partition size differs from the
    /// matrix size.
    pub fn new(
        a: &CsrMatrix,
        partition: &Partition,
        max_block: usize,
    ) -> Result<Self, SparseError> {
        assert!(max_block > 0, "block size must be positive");
        assert_eq!(
            partition.n(),
            a.nrows(),
            "partition size must match the matrix"
        );
        // The arena is sized once, from the partition alone: its length does
        // not depend on the grouping (module docs).
        let entries = partition
            .iter()
            .flat_map(|(_, range)| block_runs(range.len(), max_block))
            .map(|(n, count)| tri(n) * count)
            .sum();
        let mut groups = Vec::new();
        let mut arena = vec![0.0; entries];
        let mut off = 0;
        // Dense scratch one block is assembled and factored in.
        let mut dense = vec![0.0; max_block * max_block];
        for (_, range) in partition.iter() {
            let mut pos = range.start;
            for (n, count) in block_runs(range.len(), max_block) {
                let mut left = count;
                while left > 0 {
                    let lanes = left.min(W);
                    for lane in 0..lanes {
                        let first = pos + lane * n;
                        factor_block(a, first, n, &mut dense)?;
                        for (e, &v) in lower_entries(&dense, n).enumerate() {
                            arena[off + e * lanes + lane] = v;
                        }
                    }
                    groups.push(Group {
                        start: pos,
                        n,
                        lanes,
                        off,
                    });
                    off += tri(n) * lanes;
                    pos += n * lanes;
                    left -= lanes;
                }
            }
            debug_assert_eq!(pos, range.end);
        }
        debug_assert_eq!(off, arena.len());
        Ok(BlockJacobiPrecond {
            n: a.nrows(),
            groups,
            arena,
            max_block,
        })
    }

    /// Global problem size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Maximum rows per block, as configured.
    pub fn max_block(&self) -> usize {
        self.max_block
    }

    /// Full application `z ← P r` (sequential use).
    ///
    /// # Panics
    /// Panics if `r.len() != n()` or `z.len() != n()`.
    pub fn apply_into(&self, r: &[f64], z: &mut [f64]) {
        self.apply_local(0..self.n, r, z);
    }

    /// Node-local application: computes `z[range]` from `r[range]`, where
    /// `range` is a union of whole, adjacent rank ranges and the slices are
    /// the local chunks of length `range.len()`.
    ///
    /// # Panics
    /// Panics if a slice's length differs from `range.len()`, or if `range`
    /// cuts a block.
    pub fn apply_local(&self, range: Range<usize>, r_local: &[f64], z_local: &mut [f64]) {
        assert_eq!(r_local.len(), range.len(), "block jacobi: local r length");
        assert_eq!(z_local.len(), range.len(), "block jacobi: local z length");
        let groups = self.groups_in(range.start, range.end);
        self.solve_groups(groups, range.start, r_local, z_local);
    }

    /// Flop count of one [`BlockJacobiPrecond::apply_local`] over `range`,
    /// for the cost model.
    pub fn apply_flops(&self, range: Range<usize>) -> u64 {
        // ~2·n² per block: n² multiply-adds per triangular solve.
        self.groups_in(range.start, range.end)
            .iter()
            .map(|g| g.lanes as u64 * 2 * (g.n as u64) * (g.n as u64))
            .sum()
    }

    /// Solves `P[range, range] · r_f = v` for `r_f` (Alg. 2, line 6), the
    /// inverse of [`BlockJacobiPrecond::apply_local`] over the same `range`.
    ///
    /// Since `P = M⁻¹` is block-diagonal with every block inside `range`,
    /// this is simply `r_f = M[range, range] · v` — exact, no iteration.
    ///
    /// # Panics
    /// Panics if a slice's length differs from `range.len()`, or if `range`
    /// cuts a block.
    pub fn solve_restricted(&self, range: Range<usize>, v: &[f64], r_f: &mut [f64]) {
        assert_eq!(v.len(), range.len(), "block jacobi: restricted v length");
        assert_eq!(r_f.len(), range.len(), "block jacobi: restricted r length");
        // P_ff r_f = v with P = M⁻¹ block-diagonal ⇒ r_f = M_ff v, i.e.
        // multiply each block's original matrix (recovered from its factor
        // as L·Lᵀ), group by group.
        let mut scratch = vec![0.0; self.max_block];
        for g in self.groups_in(range.start, range.end) {
            let l = self.factors(g);
            for lane in 0..g.lanes {
                let first = g.start - range.start + lane * g.n;
                let span = first..first + g.n;
                Cholesky::llt_matvec(
                    |i, j| l[(tri(i) + j) * g.lanes + lane],
                    &v[span.clone()],
                    &mut scratch[..g.n],
                    &mut r_f[span],
                );
            }
        }
    }

    /// Flop count of one [`BlockJacobiPrecond::solve_restricted`] on
    /// `idx_len` indices.
    pub fn solve_restricted_flops(&self, idx_len: usize) -> u64 {
        // Same asymptotic cost as a solve over the same rows: ~2·Σ n_b².
        // Approximate with the configured block size.
        let nb = self.max_block.max(1) as u64;
        2 * nb * idx_len as u64
    }

    /// Number of blocks.
    #[cfg(test)]
    pub(crate) fn n_blocks(&self) -> usize {
        self.groups.iter().map(|g| g.lanes).sum()
    }

    /// The groups tiling `lo..hi`.
    ///
    /// # Panics
    /// Panics if a group straddles either end (cannot happen when `lo..hi`
    /// is a union of rank ranges, since groups never cross rank
    /// boundaries).
    fn groups_in(&self, lo: usize, hi: usize) -> &[Group] {
        let first = self.groups.partition_point(|g| g.start < lo);
        let last = self.groups.partition_point(|g| g.start < hi);
        let slice = &self.groups[first..last];
        let tiles = match (slice.first(), slice.last()) {
            (Some(f), Some(l)) => f.start == lo && l.end() == hi,
            _ => lo >= hi,
        };
        assert!(
            tiles,
            "block straddles the requested range — ranges must align with rank boundaries"
        );
        slice
    }

    /// The arena slice holding `g`'s factors.
    fn factors(&self, g: &Group) -> &[f64] {
        &self.arena[g.off..g.off + tri(g.n) * g.lanes]
    }

    /// Solves every group of `groups` — a contiguous run whose first row is
    /// global row `base` — reading `r` and writing `z` (both local to
    /// `base`, covering exactly the run's rows).
    ///
    /// Kept out of line: inlined into its one caller, the first symbol of
    /// every workload's host profile compiles differently and
    /// `recovery-storm/wall_s` read 3.4 % higher in 10 of 10 pairs.
    #[inline(never)]
    fn solve_groups(&self, groups: &[Group], base: usize, r: &[f64], z: &mut [f64]) {
        let mut stack = [0.0; STACK_ROWS * W];
        let mut heap = Vec::new();
        let scratch: &mut [f64] = if self.max_block <= STACK_ROWS {
            &mut stack
        } else {
            heap.resize(self.max_block * W, 0.0);
            &mut heap
        };
        for g in groups {
            let rows = g.start - base..g.end() - base;
            let (l, r, z) = (self.factors(g), &r[rows.clone()], &mut z[rows]);
            match g.lanes {
                1 => solve_lanes::<1>(l, g.n, r, z, scratch),
                2 => solve_lanes::<2>(l, g.n, r, z, scratch),
                3 => solve_lanes::<3>(l, g.n, r, z, scratch),
                4 => solve_lanes::<4>(l, g.n, r, z, scratch),
                5 => solve_lanes::<5>(l, g.n, r, z, scratch),
                6 => solve_lanes::<6>(l, g.n, r, z, scratch),
                7 => solve_lanes::<7>(l, g.n, r, z, scratch),
                W => solve_lanes::<W>(l, g.n, r, z, scratch),
                lanes => unreachable!("group of {lanes} lanes, W = {W}"),
            }
        }
    }
}

/// Assembles the lower triangle of `A[first..first+n, first..first+n]` into
/// `dense` (row-major, `n × n`) and factors it in place with
/// [`Cholesky::factor_in_place`] — the routine `DenseMatrix::cholesky`
/// runs, so the factor is bit-equal to it.
fn factor_block(
    a: &CsrMatrix,
    first: usize,
    n: usize,
    dense: &mut [f64],
) -> Result<(), SparseError> {
    let dense = &mut dense[..n * n];
    dense.fill(0.0);
    for i in 0..n {
        let (cols, vals) = a.row(first + i);
        for (&c, &v) in cols.iter().zip(vals) {
            if (first..=first + i).contains(&c) {
                dense[i * n + (c - first)] = v;
            }
        }
    }
    Cholesky::factor_in_place(n, dense)
}

/// The lower-triangle entries of the row-major `n × n` matrix `dense`, in
/// packed order.
fn lower_entries(dense: &[f64], n: usize) -> impl Iterator<Item = &f64> {
    (0..n).flat_map(move |i| &dense[i * n..=i * n + i])
}

/// Solves `L Lᵀ x = r` for the `L` blocks of one group at once. `l` is the
/// group's lane-interleaved packed factor, `r`/`z` hold the blocks back to
/// back (`n` rows each), `scratch` provides at least `n · L` values. Every
/// lane runs the operation sequence of `Cholesky::solve_in_place` on its
/// own block, so each block's result is bit-equal to solving it alone.
fn solve_lanes<const L: usize>(l: &[f64], n: usize, r: &[f64], z: &mut [f64], scratch: &mut [f64]) {
    let (l, _) = l.as_chunks::<L>();
    let (b, _) = scratch.as_chunks_mut::<L>();
    let b = &mut b[..n];
    debug_assert_eq!(l.len(), tri(n));
    debug_assert!(r.len() == n * L && z.len() == n * L);
    // Transpose in: b[i][lane] = row i of block `lane`.
    for (i, bi) in b.iter_mut().enumerate() {
        for (lane, v) in bi.iter_mut().enumerate() {
            *v = r[lane * n + i];
        }
    }
    // Forward: L y = r.
    for i in 0..n {
        let row = &l[tri(i)..=tri(i) + i];
        let mut s = b[i];
        for k in 0..i {
            for lane in 0..L {
                s[lane] -= row[k][lane] * b[k][lane];
            }
        }
        for lane in 0..L {
            b[i][lane] = s[lane] / row[i][lane];
        }
    }
    // Backward: Lᵀ x = y.
    for i in (0..n).rev() {
        let mut s = b[i];
        for k in (i + 1)..n {
            let lki = &l[tri(k) + i];
            for lane in 0..L {
                s[lane] -= lki[lane] * b[k][lane];
            }
        }
        let d = &l[tri(i) + i];
        for lane in 0..L {
            b[i][lane] = s[lane] / d[lane];
        }
    }
    // Transpose out.
    for (i, bi) in b.iter().enumerate() {
        for (lane, v) in bi.iter().enumerate() {
            z[lane * n + i] = *v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esrcg_sparse::gen::{poisson1d, poisson2d};
    use esrcg_sparse::vector::max_abs_diff;

    #[test]
    fn block_sizes_respect_cap_and_count() {
        let a = poisson1d(25);
        let part = Partition::balanced(25, 2); // 13 + 12
        let p = BlockJacobiPrecond::new(&a, &part, 10).unwrap();
        // 13 rows -> 2 blocks (7+6); 12 rows -> 2 blocks (6+6).
        assert_eq!(p.n_blocks(), 4);
    }

    #[test]
    fn single_rank_single_block_is_exact_solve() {
        // With one block spanning the whole matrix, PCG's preconditioner is
        // A⁻¹: applying it to b must give the solution of A x = b.
        let a = poisson1d(8);
        let part = Partition::balanced(8, 1);
        let p = BlockJacobiPrecond::new(&a, &part, 8).unwrap();
        assert_eq!(p.n_blocks(), 1);
        let x_true: Vec<f64> = (0..8).map(|i| (i as f64).sin()).collect();
        let b = a.spmv(&x_true);
        let mut z = vec![0.0; 8];
        p.apply_into(&b, &mut z);
        assert!(max_abs_diff(&z, &x_true) < 1e-12);
    }

    #[test]
    fn apply_local_matches_global() {
        let a = poisson2d(4, 4);
        let part = Partition::balanced(16, 4);
        let p = BlockJacobiPrecond::new(&a, &part, 3).unwrap();
        let r: Vec<f64> = (0..16).map(|i| (i as f64 * 0.7).cos()).collect();
        let mut z_full = vec![0.0; 16];
        p.apply_into(&r, &mut z_full);
        for (_, range) in part.iter() {
            let mut z_loc = vec![0.0; range.len()];
            p.apply_local(range.clone(), &r[range.clone()], &mut z_loc);
            assert!(max_abs_diff(&z_loc, &z_full[range]) < 1e-15);
        }
    }

    #[test]
    fn solve_restricted_inverts_apply_on_rank_union() {
        let a = poisson2d(4, 4);
        let part = Partition::balanced(16, 4);
        let p = BlockJacobiPrecond::new(&a, &part, 10).unwrap();
        // Ranks 1 and 2 -> global 4..12.
        let r_f: Vec<f64> = (0..8).map(|i| 1.0 + i as f64).collect();
        // v = P_ff r_f: apply the preconditioner restricted to idx.
        let mut v = vec![0.0; 8];
        p.apply_local(4..12, &r_f, &mut v);
        let mut rec = vec![0.0; 8];
        p.solve_restricted(4..12, &v, &mut rec);
        assert!(max_abs_diff(&rec, &r_f) < 1e-12);
    }

    #[test]
    fn blocks_never_cross_rank_boundaries() {
        let a = poisson1d(10);
        let part = Partition::from_offsets(vec![0, 3, 10]);
        let p = BlockJacobiPrecond::new(&a, &part, 4).unwrap();
        // Rank 0: 3 rows -> 1 block; rank 1: 7 rows -> 2 blocks (4+3).
        assert_eq!(p.n_blocks(), 3);
        // Applying over rank 1 alone must be legal.
        let mut z = vec![0.0; 7];
        p.apply_local(3..10, &[1.0; 7], &mut z);
    }

    #[test]
    fn empty_rank_is_fine() {
        let a = poisson1d(4);
        let part = Partition::from_offsets(vec![0, 4, 4]);
        let p = BlockJacobiPrecond::new(&a, &part, 2).unwrap();
        assert_eq!(p.n_blocks(), 2);
        let mut z = vec![0.0; 0];
        p.apply_local(4..4, &[], &mut z);
    }

    /// The two runs of equal-sized blocks a rank of `len` rows is cut into,
    /// as `(rows per block, blocks)` — the paper's rule, written out again
    /// independently of `new`.
    fn size_classes(len: usize, max_block: usize) -> [(usize, usize); 2] {
        let nb = len.div_ceil(max_block);
        let base = len.checked_div(nb).unwrap_or(0);
        let extra = len - base * nb;
        [(base + 1, extra), (base, nb - extra)]
    }

    /// The reference the packed arena must reproduce bit for bit: every
    /// block factored and solved on its own through `DenseMatrix`.
    fn per_block_oracle(
        a: &CsrMatrix,
        part: &Partition,
        max_block: usize,
    ) -> Vec<(usize, esrcg_sparse::Cholesky)> {
        let mut blocks = Vec::new();
        for (_, range) in part.iter() {
            let mut pos = range.start;
            for (rows, count) in size_classes(range.len(), max_block) {
                for _ in 0..count {
                    let idx: Vec<usize> = (pos..pos + rows).collect();
                    let chol = esrcg_sparse::DenseMatrix::from_csr_block(a, &idx)
                        .cholesky()
                        .unwrap();
                    blocks.push((pos, chol));
                    pos += rows;
                }
            }
        }
        blocks
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Builds the preconditioner and checks every entry point against
    /// [`per_block_oracle`] under `to_bits`: `apply_into`, `apply_local` on
    /// every rank, `solve_restricted` on the rows `restricted` (a union of
    /// whole rank ranges), the block count and the modeled flops.
    fn assert_bitwise_the_oracle(
        a: &CsrMatrix,
        part: &Partition,
        max_block: usize,
        restricted: Range<usize>,
    ) -> BlockJacobiPrecond {
        let n = a.nrows();
        let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() - 0.2).collect();
        let p = BlockJacobiPrecond::new(a, part, max_block).unwrap();
        let oracle = per_block_oracle(a, part, max_block);
        assert_eq!(p.n_blocks(), oracle.len(), "max_block {max_block}");
        let mut expected = r.clone();
        let mut flops = 0;
        for (start, chol) in &oracle {
            chol.solve_in_place(&mut expected[*start..*start + chol.n()]);
            flops += chol.solve_flops();
        }
        let mut z = vec![0.0; n];
        p.apply_into(&r, &mut z);
        assert_eq!(
            bits(&z),
            bits(&expected),
            "apply_into, max_block {max_block}"
        );
        assert_eq!(p.apply_flops(0..n), flops);
        for (rank, range) in part.iter() {
            let mut z_loc = vec![f64::NAN; range.len()];
            p.apply_local(range.clone(), &r[range.clone()], &mut z_loc);
            assert_eq!(
                bits(&z_loc),
                bits(&expected[range]),
                "apply_local, max_block {max_block}, rank {rank}"
            );
        }
        // solve_restricted multiplies by the blocks' original matrices
        // exactly like `Cholesky::apply_original`.
        let v = &r[restricted.clone()];
        let mut product = vec![0.0; restricted.len()];
        for (start, chol) in oracle.iter().filter(|(s, _)| restricted.contains(s)) {
            let span = start - restricted.start..start - restricted.start + chol.n();
            product[span.clone()].copy_from_slice(&chol.apply_original(&v[span]));
        }
        let mut r_f = vec![f64::NAN; restricted.len()];
        p.solve_restricted(restricted, v, &mut r_f);
        assert_eq!(
            bits(&r_f),
            bits(&product),
            "solve_restricted, max_block {max_block}"
        );
        p
    }

    #[test]
    fn packed_apply_is_bitwise_the_per_block_cholesky() {
        use esrcg_sparse::gen::banded_spd;
        // 611 rows: uneven ranks (one empty, one smaller than a block, one
        // with fewer than W blocks, large ones with full groups, leftovers
        // and both size classes).
        let a = banded_spd(611, 12, 0.5, 9);
        let part = Partition::from_offsets(vec![0, 0, 7, 60, 337, 611]);
        for max_block in [1usize, 3, 10, 16, 25] {
            let p = assert_bitwise_the_oracle(&a, &part, max_block, 7..337);
            if max_block == 10 {
                let lanes: Vec<usize> = p.groups.iter().map(|g| g.lanes).collect();
                assert!(lanes.contains(&W) && lanes.iter().any(|l| (2..W).contains(l)));
                let mut sizes: Vec<usize> = p.groups.iter().map(|g| g.n).collect();
                sizes.dedup();
                assert!(sizes.len() > 2, "both size classes occur");
            }
        }
    }

    /// The groups of every rank, as `(rows per block, lanes)`.
    fn groups_per_rank(p: &BlockJacobiPrecond, part: &Partition) -> Vec<Vec<(usize, usize)>> {
        part.iter()
            .map(|(_, range)| {
                let groups = p.groups_in(range.start, range.end);
                groups.iter().map(|g| (g.n, g.lanes)).collect()
            })
            .collect()
    }

    /// Entries of an unpadded arena: the packed triangle of every block.
    fn packed_triangles(part: &Partition, max_block: usize) -> usize {
        part.iter()
            .flat_map(|(_, range)| size_classes(range.len(), max_block))
            .map(|(n, blocks)| blocks * tri(n))
            .sum()
    }

    #[test]
    fn every_leftover_count_is_bitwise_the_oracle_and_solved_in_one_group() {
        use esrcg_sparse::gen::banded_spd;
        for max_block in [1usize, 3, 10, 16] {
            // One rank of every length from 0 (empty) through max_block − 1
            // (smaller than one block) up to 2W + 2 full blocks: that is
            // every count 1..=2W+2 of maximal blocks, alone and next to
            // every count of the smaller size a rank can hold (< max_block).
            let lens = 0..=(2 * W + 2) * max_block;
            let mut offsets = vec![0];
            for len in lens.clone() {
                offsets.push(offsets[len] + len);
            }
            let n = offsets[offsets.len() - 1];
            let restricted = offsets[max_block + 2]..offsets[offsets.len() - 3];
            let part = Partition::from_offsets(offsets);
            let a = banded_spd(n, 12, 0.5, max_block as u64);
            let p = assert_bitwise_the_oracle(&a, &part, max_block, restricted);
            assert_eq!(p.arena.len(), packed_triangles(&part, max_block));
            for (len, groups) in lens.zip(groups_per_rank(&p, &part)) {
                // Each size class: its full groups, then at most one
                // narrower group holding all the leftovers.
                let mut expected = Vec::new();
                for (n, blocks) in size_classes(len, max_block) {
                    expected.extend(std::iter::repeat_n((n, W), blocks / W));
                    expected.extend((blocks % W > 0).then_some((n, blocks % W)));
                }
                assert_eq!(groups, expected, "max_block {max_block}, {len} rows");
            }
        }
    }

    #[test]
    fn benchmark_rank_shapes_keep_their_group_counts() {
        // The grouping depends on the partition alone, so a tridiagonal
        // matrix of the workload's size stands in for its operator. A rank
        // of `rank-bound` / `fleet` is 64 rows — 1 block of 10 + 6 of 9, no
        // full group — and solved as 7 single-lane groups it cost a quarter
        // of those workloads' host time.
        for (workload, n, ranks, groups) in [
            ("rank-bound: Poisson2d 128x64 on 128 ranks", 8192, 128, 2),
            ("fleet: n = 256 on 4 ranks", 256, 4, 2),
            (
                "paper-grid: EmiliaLike 12x12x32 on 16 ranks",
                12 * 12 * 32,
                16,
                5,
            ),
            (
                "recovery-storm: EmiliaLike 12x12x64 on 16 ranks",
                12 * 12 * 64,
                16,
                8,
            ),
            (
                "kernel-bound: Poisson3d 48^3 on 2 ranks",
                48 * 48 * 48,
                2,
                692,
            ),
        ] {
            let part = Partition::balanced(n, ranks);
            let p = BlockJacobiPrecond::new(&poisson1d(n), &part, 10).unwrap();
            for (rank, g) in groups_per_rank(&p, &part).iter().enumerate() {
                assert_eq!(g.len(), groups, "{workload}, rank {rank}: {g:?}");
            }
            // Unpadded — the property that keeps `setup_s` where it is.
            assert_eq!(p.arena.len(), packed_triangles(&part, 10), "{workload}");
        }
    }

    #[test]
    #[should_panic(expected = "ranges must align with rank boundaries")]
    fn apply_local_rejects_a_range_that_cuts_a_block() {
        let a = poisson1d(20);
        let p = BlockJacobiPrecond::new(&a, &Partition::balanced(20, 1), 10).unwrap();
        let mut z = vec![0.0; 5];
        p.apply_local(5..10, &[1.0; 5], &mut z);
    }

    #[test]
    fn indefinite_block_is_reported() {
        let a = CsrMatrix::from_dense(2, 2, &[1.0, 2.0, 2.0, 1.0]);
        let err = BlockJacobiPrecond::new(&a, &Partition::balanced(2, 1), 2).unwrap_err();
        assert!(matches!(
            err,
            SparseError::NotPositiveDefinite { pivot_index: 1, .. }
        ));
    }

    #[test]
    fn flops_are_counted() {
        let a = poisson1d(10);
        let part = Partition::balanced(10, 1);
        let p = BlockJacobiPrecond::new(&a, &part, 5).unwrap();
        assert!(p.apply_flops(0..10) > 0);
        assert!(p.solve_restricted_flops(10) > 0);
    }
}
