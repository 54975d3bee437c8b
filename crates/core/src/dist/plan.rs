//! The SpMV communication plan: who sends which input-vector entries to
//! whom, derived once from the sparsity pattern and the partition.

use esrcg_sparse::{CsrMatrix, Partition};

/// Per-rank send/receive index lists for the halo exchange of a distributed
/// SpMV, plus the entry multiplicities the ASpMV augmentation needs.
///
/// For ranks `s ≠ l`, the index list `I(s, l)` (paper §2.2) contains the
/// global indices owned by `s` that appear as columns in rows owned by `l` —
/// exactly the entries `l` must receive from `s` before computing its rows.
/// All lists are sorted; iteration orders are therefore deterministic.
#[derive(Debug, Clone)]
pub struct CommPlan {
    n_ranks: usize,
    /// `sends[s]` = `(dst, sorted global indices)` pairs, sorted by `dst`,
    /// empty lists omitted.
    sends: Vec<Vec<(usize, Vec<usize>)>>,
    /// `recvs[l]` = `(src, sorted global indices)` pairs, sorted by `src`,
    /// empty lists omitted.
    recvs: Vec<Vec<(usize, Vec<usize>)>>,
    /// `multiplicity[i]` = number of distinct non-owner ranks that receive
    /// entry `i` during one SpMV (the paper's `m(i)`).
    multiplicity: Vec<u32>,
}

impl CommPlan {
    /// Derives the plan for `a` distributed by `partition`.
    ///
    /// # Panics
    /// Panics if the partition size does not match the matrix dimensions.
    pub fn build(a: &CsrMatrix, partition: &Partition) -> Self {
        assert_eq!(partition.n(), a.nrows(), "partition must cover all rows");
        assert_eq!(
            a.nrows(),
            a.ncols(),
            "distributed SpMV needs a square matrix"
        );
        let n_ranks = partition.n_ranks();
        let n = a.nrows();

        // For each receiving rank, the set of foreign columns its rows
        // touch, grouped by owner. `seen[c] == l + 1` marks a column rank `l`
        // has already listed, so only first sightings are collected and the
        // sort below runs over the unique list: O(nnz + halo log halo).
        let mut recvs: Vec<Vec<(usize, Vec<usize>)>> = Vec::with_capacity(n_ranks);
        let mut sends: Vec<Vec<(usize, Vec<usize>)>> = vec![Vec::new(); n_ranks];
        let mut multiplicity = vec![0u32; n];
        let mut seen = vec![0u32; n];
        for (l, range) in partition.iter() {
            let stamp = u32::try_from(l + 1).expect("rank counts fit a u32, as multiplicities do");
            let mut foreign: Vec<usize> = Vec::new();
            for r in range.clone() {
                // Columns ascend within a row, so the foreign ones are a
                // prefix below the owned range and a suffix from its end.
                let (cols, _) = a.row(r);
                let below = cols.iter().take_while(|&&c| c < range.start);
                let above = cols.iter().rev().take_while(|&&c| c >= range.end);
                for &c in below.chain(above) {
                    if seen[c] != stamp {
                        seen[c] = stamp;
                        foreign.push(c);
                    }
                }
            }
            foreign.sort_unstable();
            let mut per_src: Vec<(usize, Vec<usize>)> = Vec::new();
            for g in foreign {
                let owner = partition.owner_of(g);
                multiplicity[g] += 1;
                match per_src.last_mut() {
                    Some((src, idx)) if *src == owner => idx.push(g),
                    _ => per_src.push((owner, vec![g])),
                }
            }
            // `foreign` is globally sorted and ownership ranges are
            // contiguous, so `per_src` is already sorted by source rank —
            // and `l` ascends, so every `sends[src]` is sorted by
            // destination as it grows.
            for (src, idx) in &per_src {
                sends[*src].push((l, idx.clone()));
            }
            recvs.push(per_src);
        }
        CommPlan {
            n_ranks,
            sends,
            recvs,
            multiplicity,
        }
    }

    /// Number of ranks.
    pub(crate) fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    /// The sends of `rank`: `(destination, sorted global indices)`, sorted
    /// by destination.
    pub(crate) fn sends_of(&self, rank: usize) -> &[(usize, Vec<usize>)] {
        &self.sends[rank]
    }

    /// The receives of `rank`: `(source, sorted global indices)`, sorted by
    /// source.
    pub(crate) fn recvs_of(&self, rank: usize) -> &[(usize, Vec<usize>)] {
        &self.recvs[rank]
    }

    /// The sorted indices `I(s, d)` that `s` sends to `d`; empty if no SpMV
    /// traffic flows between them.
    pub fn indices_to(&self, s: usize, d: usize) -> &[usize] {
        match self.sends[s].binary_search_by_key(&d, |(dst, _)| *dst) {
            Ok(k) => &self.sends[s][k].1,
            Err(_) => &[],
        }
    }

    /// Whether ranks `a` and `b` exchange SpMV halo traffic, in either
    /// direction: an edge of the plan's peer graph.
    pub(crate) fn are_peers(&self, a: usize, b: usize) -> bool {
        !self.indices_to(a, b).is_empty() || !self.indices_to(b, a).is_empty()
    }

    /// The paper's `m(i)`: how many distinct non-owner ranks receive entry
    /// `i` during one regular SpMV.
    pub(crate) fn multiplicity(&self, i: usize) -> u32 {
        self.multiplicity[i]
    }

    /// Total entries communicated per SpMV (halo traffic volume).
    pub fn total_traffic(&self) -> usize {
        self.multiplicity.iter().map(|&m| m as usize).sum()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use esrcg_sparse::gen::{banded_spd, poisson1d, poisson2d, random_spd_dense};

    /// The plan by its definition — every foreign column occurrence of a
    /// rank's rows collected, sorted and deduplicated — which is how
    /// [`CommPlan::build`] worked before it stamped first sightings.
    fn build_by_definition(a: &CsrMatrix, partition: &Partition) -> CommPlan {
        let n_ranks = partition.n_ranks();
        let mut recvs: Vec<Vec<(usize, Vec<usize>)>> = Vec::with_capacity(n_ranks);
        let mut sends: Vec<Vec<(usize, Vec<usize>)>> = vec![Vec::new(); n_ranks];
        let mut multiplicity = vec![0u32; a.nrows()];
        for (l, range) in partition.iter() {
            let mut foreign: Vec<usize> = Vec::new();
            for r in range.clone() {
                let (cols, _) = a.row(r);
                foreign.extend(cols.iter().copied().filter(|c| !range.contains(c)));
            }
            foreign.sort_unstable();
            foreign.dedup();
            let mut per_src: Vec<(usize, Vec<usize>)> = Vec::new();
            for g in foreign {
                let owner = partition.owner_of(g);
                multiplicity[g] += 1;
                match per_src.last_mut() {
                    Some((src, idx)) if *src == owner => idx.push(g),
                    _ => per_src.push((owner, vec![g])),
                }
            }
            for (src, idx) in &per_src {
                sends[*src].push((l, idx.clone()));
            }
            recvs.push(per_src);
        }
        for s in sends.iter_mut() {
            s.sort_by_key(|(dst, _)| *dst);
        }
        CommPlan {
            n_ranks,
            sends,
            recvs,
            multiplicity,
        }
    }

    /// Matrices × rank counts the stencil generators never produce: foreign
    /// columns on both sides of every range, whole-suffix halos, bands wider
    /// than a rank, no halo at all, empty trailing ranks, one rank.
    pub(crate) fn adversarial_cases() -> Vec<(&'static str, CsrMatrix, usize)> {
        let n = 23;
        let mut arrow = vec![0.0; n * n];
        for i in 0..n {
            arrow[i * n + i] = n as f64;
            arrow[i] = -1.0;
            arrow[i * n] = -1.0;
        }
        arrow[0] = n as f64;
        vec![
            ("arrow", CsrMatrix::from_dense(n, n, &arrow), 5),
            ("dense", random_spd_dense(40, 3), 7),
            ("wide band", banded_spd(60, 17, 0.5, 9), 8),
            ("identity", CsrMatrix::identity(20), 4),
            ("n < n_ranks", poisson1d(3), 5),
            ("one rank", poisson2d(5, 5), 1),
            ("two ranks", banded_spd(30, 4, 0.7, 2), 2),
        ]
    }

    #[test]
    fn stamped_build_equals_the_definition() {
        for (name, a, n_ranks) in adversarial_cases() {
            let part = Partition::balanced(a.nrows(), n_ranks);
            let (plan, oracle) = (CommPlan::build(&a, &part), build_by_definition(&a, &part));
            for s in 0..n_ranks {
                assert_eq!(plan.sends_of(s), oracle.sends_of(s), "{name}: sends of {s}");
                assert_eq!(plan.recvs_of(s), oracle.recvs_of(s), "{name}: recvs of {s}");
            }
            for i in 0..a.nrows() {
                assert_eq!(
                    plan.multiplicity(i),
                    oracle.multiplicity(i),
                    "{name}: m({i})"
                );
            }
        }
    }

    #[test]
    fn tridiagonal_neighbors_exchange_boundary_entries() {
        // poisson1d(8) over 4 ranks of 2 rows each: each rank needs one
        // entry from each neighbor.
        let a = poisson1d(8);
        let part = Partition::balanced(8, 4);
        let plan = CommPlan::build(&a, &part);
        assert_eq!(plan.n_ranks(), 4);
        assert_eq!(plan.indices_to(0, 1), &[1]);
        assert_eq!(plan.indices_to(1, 0), &[2]);
        assert_eq!(plan.indices_to(1, 2), &[3]);
        assert_eq!(plan.indices_to(0, 2), &[] as &[usize]);
        assert_eq!(plan.indices_to(0, 3), &[] as &[usize]);
        // Boundary entries travel to exactly one neighbor; interior to none.
        assert_eq!(plan.multiplicity(0), 0);
        assert_eq!(plan.multiplicity(1), 1);
        assert_eq!(plan.multiplicity(2), 1);
    }

    #[test]
    fn sends_and_recvs_mirror() {
        let a = banded_spd(60, 7, 0.6, 5);
        let part = Partition::balanced(60, 5);
        let plan = CommPlan::build(&a, &part);
        for s in 0..5 {
            for (d, idx) in plan.sends_of(s) {
                assert_ne!(*d, s, "no self-sends");
                let back: Vec<usize> = plan
                    .recvs_of(*d)
                    .iter()
                    .find(|(src, _)| *src == s)
                    .map(|(_, i)| i.clone())
                    .expect("receive list exists");
                assert_eq!(&back, idx);
                assert!(idx.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
                for &g in idx {
                    assert_eq!(part.owner_of(g), s, "senders own what they send");
                }
            }
        }
    }

    #[test]
    fn recv_lists_cover_exactly_the_foreign_columns() {
        let a = poisson2d(8, 8);
        let part = Partition::balanced(64, 4);
        let plan = CommPlan::build(&a, &part);
        for (l, range) in part.iter() {
            let mut needed: Vec<usize> = (range.clone())
                .flat_map(|r| a.row(r).0.iter().copied())
                .filter(|c| !range.contains(c))
                .collect();
            needed.sort_unstable();
            needed.dedup();
            let mut got: Vec<usize> = plan
                .recvs_of(l)
                .iter()
                .flat_map(|(_, idx)| idx.iter().copied())
                .collect();
            got.sort_unstable();
            assert_eq!(got, needed, "rank {l}");
        }
    }

    #[test]
    fn multiplicity_counts_receivers() {
        let a = poisson2d(6, 6);
        let part = Partition::balanced(36, 3);
        let plan = CommPlan::build(&a, &part);
        for i in 0..36 {
            let count = (0..3)
                .filter(|&l| {
                    plan.recvs_of(l)
                        .iter()
                        .any(|(_, idx)| idx.binary_search(&i).is_ok())
                })
                .count();
            assert_eq!(plan.multiplicity(i) as usize, count, "entry {i}");
        }
        assert_eq!(
            plan.total_traffic(),
            (0..36).map(|i| plan.multiplicity(i) as usize).sum()
        );
    }

    #[test]
    fn single_rank_has_no_traffic() {
        let a = poisson2d(5, 5);
        let part = Partition::balanced(25, 1);
        let plan = CommPlan::build(&a, &part);
        assert!(plan.sends_of(0).is_empty());
        assert!(plan.recvs_of(0).is_empty());
        assert_eq!(plan.total_traffic(), 0);
    }

    #[test]
    fn more_ranks_than_rows_leaves_empty_ranks_silent() {
        // n < n_ranks: the trailing ranks own empty ranges and must appear
        // in nobody's send or receive lists.
        let a = poisson1d(3);
        let part = Partition::balanced(3, 5);
        let plan = CommPlan::build(&a, &part);
        assert_eq!(plan.n_ranks(), 5);
        for s in 3..5 {
            assert!(plan.sends_of(s).is_empty(), "empty rank {s} sends");
            assert!(plan.recvs_of(s).is_empty(), "empty rank {s} receives");
        }
        for s in 0..5 {
            for (d, idx) in plan.sends_of(s) {
                assert!(*d < 3, "traffic only between non-empty ranks");
                assert!(!idx.is_empty());
            }
        }
        // The tridiagonal coupling between the three owners is still there.
        assert_eq!(plan.indices_to(0, 1), &[0]);
        assert_eq!(plan.indices_to(1, 0), &[1]);
        assert_eq!(plan.total_traffic(), 4);
    }

    #[test]
    fn block_diagonal_matrix_yields_an_empty_plan() {
        // A rank whose rows are all interior has empty send and receive
        // lists; with a (block-)diagonal matrix that is every rank.
        use esrcg_sparse::CsrMatrix;
        let a = CsrMatrix::identity(20);
        let part = Partition::balanced(20, 4);
        let plan = CommPlan::build(&a, &part);
        for s in 0..4 {
            assert!(plan.sends_of(s).is_empty(), "rank {s}");
            assert!(plan.recvs_of(s).is_empty(), "rank {s}");
        }
        assert_eq!(plan.total_traffic(), 0);
        for i in 0..20 {
            assert_eq!(plan.multiplicity(i), 0);
        }
    }
}
