//! Property-based tests of the redundancy machinery: the ASpMV coverage
//! invariant (the heart of the method's correctness), queue behaviour, and
//! the distributed SpMV's equivalence to the sequential one.
//!
//! Cases are drawn from a seeded in-repo PRNG rather than an external
//! property-testing framework (the build carries no dependencies): every
//! run explores the same deterministic case set, and a failing case prints
//! its parameters for direct reproduction.

use esrcg::core::aspmv::{AspmvPlan, BuddyMap};
use esrcg::core::dist::plan::CommPlan;
use esrcg::core::queue::{Capture, RedundancyQueue};
use esrcg::sparse::gen::banded_spd;
use esrcg::sparse::rng::SplitMix64;
use esrcg::sparse::{CsrMatrix, Partition};

const CASES: usize = 64;

/// The invariant the whole method rests on: after one ASpMV, every
/// input-vector entry has at least φ + 1 holders (owner + φ others), so any
/// ψ ≤ φ simultaneous failures leave a live copy.
#[test]
fn every_entry_survives_any_phi_failures() {
    let mut rng = SplitMix64::new(0xA5);
    for case in 0..CASES {
        let n = rng.range_usize(8, 60);
        let bandwidth = rng.range_usize(0, 8);
        let density = rng.next_f64();
        let n_ranks = rng.range_usize(2, 9);
        let phi = rng.range_usize(1, 8).min(n_ranks - 1);
        let seed = rng.next_u64() % 1000;
        let fail_start = rng.range_usize(0, 8) % n_ranks;
        let ctx = format!(
            "case {case}: n={n} bw={bandwidth} density={density:.3} ranks={n_ranks} \
             phi={phi} seed={seed} fail_start={fail_start}"
        );

        let a = banded_spd(n, bandwidth, density, seed);
        let part = Partition::balanced(n, n_ranks);
        let plan = CommPlan::build(&a, &part);
        let aspmv = AspmvPlan::build(&plan, &part, phi);

        // Coverage invariant.
        for i in 0..n {
            let holders = aspmv.holders_of(i, &plan, &part);
            assert!(
                holders.len() > phi,
                "{ctx}: entry {i} has only {} holders",
                holders.len()
            );
        }

        // Survival under an arbitrary contiguous block of phi failures.
        let failed: Vec<usize> = (0..phi).map(|k| (fail_start + k) % n_ranks).collect();
        for i in 0..n {
            let holders = aspmv.holders_of(i, &plan, &part);
            let survivors = holders.iter().filter(|h| !failed.contains(h)).count();
            assert!(
                survivors >= 1,
                "{ctx}: entry {i} lost all copies when ranks {failed:?} failed"
            );
        }
    }
}

/// Eq. 1 destinations are always φ distinct non-self ranks, and the in/out
/// relations mirror each other.
#[test]
fn buddy_map_laws() {
    let mut rng = SplitMix64::new(0xB6);
    for case in 0..CASES {
        let n_ranks = rng.range_usize(2, 20);
        let phi = rng.range_usize(1, 10).min(n_ranks - 1);
        let map = BuddyMap::new(n_ranks, phi);
        for s in 0..n_ranks {
            let out = map.out_buddies(s);
            assert_eq!(out.len(), phi, "case {case}");
            let mut sorted = out.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(
                sorted.len(),
                phi,
                "case {case}: duplicates in out_buddies({s})"
            );
            assert!(!out.contains(&s));
            for &d in out {
                assert!(map.in_buddies(d).contains(&s));
            }
        }
        // Total degree is conserved.
        let total_in: usize = (0..n_ranks).map(|l| map.in_buddies(l).len()).sum();
        assert_eq!(total_in, n_ranks * phi);
    }
}

/// The queue holds at most three slots, keeps them ordered, and its
/// consecutive-pair search matches a brute-force scan. Under random pushes,
/// same-iteration re-pushes, rollbacks and node losses it agrees with a
/// plain list model: a held slot returns each source's values (empty for a
/// source that sent nothing), a slot that is gone returns `None`, and the
/// capture that leaves by eviction or replacement comes back intact.
#[test]
fn queue_laws() {
    // Version `v` of iteration `j`'s capture: one message from rank 3, then
    // one from rank j % 3 (ranks 4 and up send nothing).
    let capture = |j: usize, v: usize| {
        let mut c = Capture::default();
        c.record(3, &[j as f64]);
        c.record(j % 3, &[j as f64, v as f64]);
        c
    };
    let mut rng = SplitMix64::new(0xC7);
    for case in 0..CASES {
        let mut q = RedundancyQueue::new();
        let mut model: Vec<(usize, usize)> = Vec::new(); // (iteration, version)
        for v in 0..rng.range_usize(1, 24) {
            let newest = model.last().map(|&(j, _)| j);
            match rng.range_usize(0, 10) {
                0 => {
                    let to = rng.range_usize(0, newest.unwrap_or(0) + 1);
                    q.purge_after(to);
                    model.retain(|&(j, _)| j <= to);
                }
                1 => {
                    q.clear();
                    model.clear();
                }
                _ => {
                    let j = newest.unwrap_or(0) + rng.range_usize(0, 3);
                    let left = q.push(j, capture(j, v));
                    let expect = if newest == Some(j) {
                        let (_, old) = model.pop().expect("a newest slot");
                        Some(capture(j, old))
                    } else if model.len() == 3 {
                        let (old_j, old) = model.remove(0);
                        Some(capture(old_j, old))
                    } else {
                        None
                    };
                    model.push((j, v));
                    assert_eq!(left, expect, "case {case}: what left the queue");
                }
            }
            let held = q.iters();
            assert!(held.len() <= 3);
            assert!(held.windows(2).all(|w| w[0] < w[1]), "unsorted: {held:?}");
            assert_eq!(held, model.iter().map(|&(j, _)| j).collect::<Vec<_>>());
            // Brute-force consecutive pair.
            let expect = held
                .windows(2)
                .rev()
                .find(|w| w[0] + 1 == w[1])
                .map(|w| w[1]);
            assert_eq!(q.latest_consecutive_pair(), expect);
            for j in 0..held.last().map_or(0, |&j| j + 2) {
                match model.iter().find(|&&(i, _)| i == j) {
                    Some(&(_, v)) => {
                        assert_eq!(q.received(j, 3), Some(&[j as f64][..]));
                        assert_eq!(q.received(j, j % 3), Some(&[j as f64, v as f64][..]));
                        assert_eq!(q.received(j, 4), Some(&[][..]), "held, nothing from 4");
                    }
                    None => assert_eq!(q.received(j, 3), None, "case {case}: {j} not held"),
                }
            }
        }
    }
}

/// Distributed SpMV (halo exchange + local rows) is bitwise equal to the
/// sequential product for any rank count.
#[test]
fn distributed_spmv_equals_sequential() {
    use esrcg::cluster::{run_spmd, CostModel};
    use esrcg::core::dist::halo::exchange_halo;
    use std::sync::Arc;

    let mut rng = SplitMix64::new(0xD8);
    for case in 0..CASES {
        let n = rng.range_usize(4, 40);
        let bandwidth = rng.range_usize(0, 6);
        let density = rng.next_f64();
        let seed = rng.next_u64() % 500;
        let n_ranks = rng.range_usize(1, 7);

        let a = Arc::new(banded_spd(n, bandwidth, density, seed));
        let x: Arc<Vec<f64>> = Arc::new((0..n).map(|i| (i as f64 * 0.7).sin()).collect());
        let expected = a.spmv(&x);
        let part = Arc::new(Partition::balanced(n, n_ranks));
        let plan = Arc::new(CommPlan::build(&a, &part));
        let out = run_spmd(n_ranks, CostModel::default(), {
            let (a, x, part, plan) = (a.clone(), x.clone(), part.clone(), plan.clone());
            move |ctx| {
                let range = part.range(ctx.rank());
                let mut full = vec![0.0; part.n()];
                exchange_halo(ctx, &plan, &part, &x[range.clone()], 0, &mut full, None);
                let mut y = vec![0.0; range.len()];
                a.spmv_rows_into(range, &full, &mut y);
                y
            }
        });
        let got: Vec<f64> = out.results.into_iter().flatten().collect();
        assert_eq!(got, expected, "case {case}: n={n} ranks={n_ranks}");
    }
}

/// CSR transpose is an involution and preserves the entry set.
#[test]
fn transpose_involution() {
    let mut rng = SplitMix64::new(0xE9);
    for _case in 0..CASES {
        let n = rng.range_usize(1, 30);
        let bandwidth = rng.range_usize(0, 6);
        let density = rng.next_f64();
        let seed = rng.next_u64() % 500;
        let a = banded_spd(n, bandwidth, density, seed);
        let tt = a.transpose().transpose();
        assert_eq!(tt, a);
    }
}

/// Matrix Market write→read round-trips exactly.
#[test]
fn matrix_market_round_trip() {
    let mut rng = SplitMix64::new(0xFA);
    for _case in 0..CASES {
        let n = rng.range_usize(1, 20);
        let bandwidth = rng.range_usize(0, 5);
        let density = rng.next_f64();
        let seed = rng.next_u64() % 500;
        let a = banded_spd(n, bandwidth, density, seed);
        let mut buf = Vec::new();
        esrcg::sparse::mm::write_matrix_market(&a, &mut buf).expect("write");
        let b = esrcg::sparse::mm::read_matrix_market(&buf[..]).expect("read");
        assert_eq!(a, b);
    }
}

/// Partition laws: ranges tile 0..n, owner lookup is consistent.
#[test]
fn partition_laws() {
    let mut rng = SplitMix64::new(0x1B);
    for _case in 0..CASES {
        let n = rng.range_usize(0, 200);
        let n_ranks = rng.range_usize(1, 17);
        let part = Partition::balanced(n, n_ranks);
        assert_eq!(part.n(), n);
        let mut covered = 0usize;
        for (s, range) in part.iter() {
            for i in range.clone() {
                assert_eq!(part.owner_of(i), s);
            }
            covered += range.len();
            // Balanced: sizes differ by at most one.
            assert!(range.len() + 1 >= n / n_ranks);
            assert!(range.len() <= n / n_ranks + 1);
        }
        assert_eq!(covered, n);
    }
}

#[test]
fn extra_traffic_is_monotone_in_phi() {
    // Not random: a structured check that the augmentation never shrinks
    // as φ grows, on a matrix with little natural redundancy.
    let a = CsrMatrix::identity(64);
    let part = Partition::balanced(64, 8);
    let plan = CommPlan::build(&a, &part);
    let mut last = 0;
    for phi in 1..8 {
        let extra = AspmvPlan::build(&plan, &part, phi).total_extra_traffic();
        assert!(extra >= last, "phi={phi}");
        assert!(
            extra >= 64 * phi.min(7),
            "diagonal matrix needs phi copies each"
        );
        last = extra;
    }
}
