//! The augmented sparse matrix–vector product (ASpMV) — paper §2.2.
//!
//! The regular SpMV already copies some input-vector entries to other ranks;
//! ASpMV tops this up so that **every** entry ends up on at least φ ranks
//! besides its owner, which is what makes recovery from φ simultaneous node
//! failures possible.
//!
//! Two pieces:
//!
//! * [`BuddyMap`] — the designated destination ranks `d(s,k)` of paper
//!   Eq. 1: the φ nearest neighbors of rank `s`, alternating right/left.
//!   The same map chooses IMCR checkpoint buddies (paper §3.1 notes this
//!   deliberate symmetry).
//! * [`AspmvPlan`] — for each rank and each designated destination, the
//!   extra entries `Rc(s,k)` to send on top of the SpMV traffic. They are
//!   no second protocol: the halo exchange runs over the augmented index
//!   sets `I′(s,d) = I(s,d) ∪ Rc(s,k)`
//!   (`PlanView::augmented_by`),
//!   so a top-up travels inside the halo message its destination receives
//!   anyway — behind the halo entries, as values in the order of the static
//!   lists both ends hold — and only a designated destination that is no
//!   halo peer gets a message of its own.
//!
//! ## Correction to the paper's send rule
//!
//! The paper states the condition `m(i) − g(i) < φ − k` for k ∈ {1..φ},
//! which is off by one: at φ = 1, k = 1 it would never send anything
//! (contradicting the single-failure scheme described in the same section),
//! and at φ = 2 an entry with m = 0 would get only one copy. We implement
//!
//! ```text
//! send i to d(s,k)  ⇔  i ∉ I(s, d(s,k))  and  m(i) − g(i) ≤ φ − k
//! ```
//!
//! which reduces to the single-failure scheme at φ = 1 and guarantees at
//! least φ non-owner copies (verified by a property test in the integration
//! suite). See PAPER.md, row "§2.2, Eq. 1".

use esrcg_sparse::Partition;

use crate::dist::plan::CommPlan;

/// The designated destinations `d(s,k)` of paper Eq. 1 and their inverse.
#[derive(Debug, Clone)]
pub struct BuddyMap {
    /// `out[s]` = `[d(s,1), …, d(s,φ)]`.
    out: Vec<Vec<usize>>,
    /// `inn[l]` = ranks `s` with `d(s,k) = l` for some `k`, sorted.
    inn: Vec<Vec<usize>>,
}

/// Paper Eq. 1: `d(s,k) = (s + ⌈k/2⌉) mod N` for odd `k`,
/// `(s − k/2) mod N` for even `k`.
pub(crate) fn designated_destination(s: usize, k: usize, n_ranks: usize) -> usize {
    debug_assert!(k >= 1, "k is 1-based");
    if k % 2 == 1 {
        (s + k.div_ceil(2)) % n_ranks
    } else {
        (s + n_ranks - k / 2) % n_ranks
    }
}

impl BuddyMap {
    /// Builds the map for `n_ranks` ranks and `phi` redundant copies.
    ///
    /// # Panics
    /// Panics unless `1 <= phi < n_ranks` (an entry cannot have more
    /// distinct non-owner holders than there are other ranks).
    pub fn new(n_ranks: usize, phi: usize) -> Self {
        assert!(phi >= 1, "phi must be at least 1");
        assert!(
            phi < n_ranks,
            "phi ({phi}) must be smaller than the number of ranks ({n_ranks})"
        );
        let mut out = Vec::with_capacity(n_ranks);
        let mut inn: Vec<Vec<usize>> = vec![Vec::new(); n_ranks];
        for s in 0..n_ranks {
            let dests: Vec<usize> = (1..=phi)
                .map(|k| designated_destination(s, k, n_ranks))
                .collect();
            debug_assert!(
                {
                    let mut d = dests.clone();
                    d.sort_unstable();
                    d.dedup();
                    d.len() == phi && !dests.contains(&s)
                },
                "designated destinations must be distinct non-self ranks"
            );
            for &d in &dests {
                inn[d].push(s);
            }
            out.push(dests);
        }
        for l in inn.iter_mut() {
            l.sort_unstable();
        }
        BuddyMap { out, inn }
    }

    /// `[d(s,1), …, d(s,φ)]` — in k order, which is also the preference
    /// order for fetching IMCR checkpoints.
    pub fn out_buddies(&self, s: usize) -> &[usize] {
        &self.out[s]
    }

    /// The ranks that designate `l` as one of their destinations (sorted).
    pub fn in_buddies(&self, l: usize) -> &[usize] {
        &self.inn[l]
    }

    /// The first out-buddy of `s` (in k order) that is not in `failed`;
    /// `None` if all of them failed (impossible for `|failed| <= phi` since
    /// the buddies are φ distinct ranks other than `s`... unless `s` itself
    /// is counted; callers pass the full failure set).
    pub(crate) fn first_surviving_buddy(&self, s: usize, failed: &[usize]) -> Option<usize> {
        self.out[s].iter().copied().find(|d| !failed.contains(d))
    }
}

/// The extra sends of the augmented SpMV: `Rc(s,k)` per paper §2.2.1 (with
/// the off-by-one correction documented at module level).
#[derive(Debug, Clone)]
pub struct AspmvPlan {
    buddies: BuddyMap,
    /// `extra[s]` = `(dst, sorted global indices)` pairs with non-empty
    /// index lists, sorted by `dst`.
    extra: Vec<Vec<(usize, Vec<usize>)>>,
    /// `extra_recv[l]` = sorted source ranks that send extras to `l`.
    extra_recv: Vec<Vec<usize>>,
    /// Entries of the longest message of one augmented exchange — the
    /// capacity at which a pooled payload buffer never regrows, whichever
    /// rank it migrates to.
    longest_message: usize,
}

impl AspmvPlan {
    /// Derives the augmented plan from the SpMV plan.
    pub fn build(plan: &CommPlan, partition: &Partition, phi: usize) -> Self {
        let n_ranks = plan.n_ranks();
        let buddies = BuddyMap::new(n_ranks, phi);
        let mut extra: Vec<Vec<(usize, Vec<usize>)>> = vec![Vec::new(); n_ranks];
        let mut extra_recv: Vec<Vec<usize>> = vec![Vec::new(); n_ranks];
        let mut longest_message = 0;

        // Per designated destination of the current rank: what is left of
        // `I(s, d)` from the current index on, and whether it holds that
        // index. One buffer, refilled per rank.
        let mut ahead: Vec<(&[usize], bool)> = Vec::with_capacity(phi);
        for (s, range) in partition.iter() {
            // Per-destination extra lists for this rank.
            let dests = buddies.out_buddies(s);
            let mut per_k: Vec<Vec<usize>> = vec![Vec::new(); phi];
            ahead.clear();
            ahead.extend(dests.iter().map(|&d| (plan.indices_to(s, d), false)));
            for i in range {
                let m = plan.multiplicity(i) as usize;
                // `i` ascends over exactly the indices `s` owns and every
                // `I(s, d)` is an ascending subset of them, so "is `i` in
                // `I(s, d)`" is a look at the head of what is left of it.
                for (rest, hit) in &mut ahead {
                    *hit = rest.first() == Some(&i);
                    *rest = &rest[usize::from(*hit)..];
                }
                // g(i): how many designated destinations already receive i.
                let g = ahead.iter().filter(|(_, hit)| *hit).count();
                for (k0, (_, hit)) in ahead.iter().enumerate() {
                    let k = k0 + 1; // paper's k is 1-based
                    if !hit && m.saturating_sub(g) <= phi - k {
                        per_k[k0].push(i);
                    }
                }
            }
            debug_assert!(
                ahead.iter().all(|(rest, _)| rest.is_empty()),
                "rank {s} sends an index it does not own"
            );
            // `s` ascends and its destinations are distinct, so every
            // `extra_recv[d]` grows sorted and duplicate-free.
            for (k0, idx) in per_k.into_iter().enumerate() {
                if idx.is_empty() {
                    continue;
                }
                let d = dests[k0];
                extra[s].push((d, idx));
                extra_recv[d].push(s);
            }
            extra[s].sort_by_key(|(d, _)| *d);
            let halo = plan.sends_of(s).iter().map(|(_, idx)| idx.len());
            let topped_up = extra[s]
                .iter()
                .map(|(d, rc)| plan.indices_to(s, *d).len() + rc.len());
            longest_message = halo.chain(topped_up).fold(longest_message, usize::max);
        }
        AspmvPlan {
            buddies,
            extra,
            extra_recv,
            longest_message,
        }
    }

    /// The buddy map (shared with IMCR).
    pub fn buddies(&self) -> &BuddyMap {
        &self.buddies
    }

    /// Extra sends of `rank`: `(destination, sorted global indices)`.
    pub fn extras_of(&self, rank: usize) -> &[(usize, Vec<usize>)] {
        &self.extra[rank]
    }

    /// Ranks that send extras to `rank` (sorted).
    pub(crate) fn extra_sources_of(&self, rank: usize) -> &[usize] {
        &self.extra_recv[rank]
    }

    /// The sorted extras `Rc(s,k)` with `d(s,k) = d`; empty if `s` sends
    /// `d` none.
    pub(crate) fn extras_to(&self, s: usize, d: usize) -> &[usize] {
        match self.extra[s].binary_search_by_key(&d, |(dst, _)| *dst) {
            Ok(k) => &self.extra[s][k].1,
            Err(_) => &[],
        }
    }

    /// Entries of the longest message of one augmented exchange.
    pub(crate) fn longest_message(&self) -> usize {
        self.longest_message
    }

    /// Extra entries sent cluster-wide per ASpMV (the augmentation traffic
    /// the paper's overhead tables measure indirectly).
    pub fn total_extra_traffic(&self) -> usize {
        self.extra
            .iter()
            .flat_map(|per_rank| per_rank.iter().map(|(_, idx)| idx.len()))
            .sum()
    }

    /// All ranks holding a copy of entry `i` after one ASpMV (owner first,
    /// then SpMV receivers, then extra receivers; deduplicated). Test/
    /// verification helper for the redundancy invariant.
    pub fn holders_of(&self, i: usize, plan: &CommPlan, partition: &Partition) -> Vec<usize> {
        let owner = partition.owner_of(i);
        let mut holders = vec![owner];
        for l in 0..plan.n_ranks() {
            if l != owner && plan.indices_to(owner, l).binary_search(&i).is_ok() {
                holders.push(l);
            }
        }
        for (d, idx) in self.extras_of(owner) {
            if idx.binary_search(&i).is_ok() {
                holders.push(*d);
            }
        }
        holders.sort_unstable();
        holders.dedup();
        holders
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esrcg_sparse::gen::{banded_spd, poisson1d, poisson3d};
    use esrcg_sparse::CsrMatrix;

    /// The plan by the paper's rule, one membership search per (index,
    /// destination) — how [`AspmvPlan::build`] worked before it walked
    /// cursors.
    fn build_by_definition(plan: &CommPlan, partition: &Partition, phi: usize) -> AspmvPlan {
        let n_ranks = plan.n_ranks();
        let buddies = BuddyMap::new(n_ranks, phi);
        let mut extra: Vec<Vec<(usize, Vec<usize>)>> = vec![Vec::new(); n_ranks];
        let mut extra_recv: Vec<Vec<usize>> = vec![Vec::new(); n_ranks];
        for (s, range) in partition.iter() {
            let dests = buddies.out_buddies(s);
            let mut per_k: Vec<Vec<usize>> = vec![Vec::new(); phi];
            for i in range {
                let m = plan.multiplicity(i) as usize;
                let g = dests
                    .iter()
                    .filter(|&&d| plan.indices_to(s, d).binary_search(&i).is_ok())
                    .count();
                for (k0, &d) in dests.iter().enumerate() {
                    let already = plan.indices_to(s, d).binary_search(&i).is_ok();
                    if !already && m.saturating_sub(g) <= phi - (k0 + 1) {
                        per_k[k0].push(i);
                    }
                }
            }
            for (k0, idx) in per_k.into_iter().enumerate() {
                if idx.is_empty() {
                    continue;
                }
                extra[s].push((dests[k0], idx));
                extra_recv[dests[k0]].push(s);
            }
            extra[s].sort_by_key(|(d, _)| *d);
        }
        for l in extra_recv.iter_mut() {
            l.sort_unstable();
            l.dedup();
        }
        AspmvPlan {
            buddies,
            extra,
            extra_recv,
            longest_message: 0,
        }
    }

    #[test]
    fn cursor_build_equals_the_definition() {
        for (name, a, n_ranks) in crate::dist::plan::tests::adversarial_cases() {
            let part = Partition::balanced(a.nrows(), n_ranks);
            let plan = CommPlan::build(&a, &part);
            let phis = [1, 2, n_ranks.saturating_sub(1)];
            for phi in phis.into_iter().filter(|phi| (1..n_ranks).contains(phi)) {
                let (aspmv, oracle) = (
                    AspmvPlan::build(&plan, &part, phi),
                    build_by_definition(&plan, &part, phi),
                );
                for s in 0..n_ranks {
                    let at = format!("{name}, phi = {phi}, rank {s}");
                    assert_eq!(aspmv.extras_of(s), oracle.extras_of(s), "{at}");
                    assert_eq!(
                        aspmv.extra_sources_of(s),
                        oracle.extra_sources_of(s),
                        "{at}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_augmented_view_is_the_halo_plan_topped_up_peer_by_peer() {
        use crate::dist::halo::{PeerLists, PlanView};
        for (name, a, n_ranks) in crate::dist::plan::tests::adversarial_cases() {
            let part = Partition::balanced(a.nrows(), n_ranks);
            let plan = CommPlan::build(&a, &part);
            let phis = [1, 2, n_ranks.saturating_sub(1)];
            for phi in phis.into_iter().filter(|phi| (1..n_ranks).contains(phi)) {
                let aspmv = AspmvPlan::build(&plan, &part, phi);
                let view = PlanView::full(&plan).augmented_by(&aspmv);
                let mut longest = 0;
                for s in 0..n_ranks {
                    let at = format!("{name}, phi = {phi}, rank {s}");
                    // One message per halo peer or non-empty designated
                    // destination, in destination order.
                    let mut peers: Vec<usize> = plan.sends_of(s).iter().map(|(d, _)| *d).collect();
                    peers.extend(aspmv.extras_of(s).iter().map(|(d, _)| *d));
                    peers.sort_unstable();
                    peers.dedup();
                    let sends: Vec<PeerLists> = view.sends_of(s).collect();
                    let got: Vec<usize> = sends.iter().map(|(d, ..)| *d).collect();
                    assert_eq!(got, peers, "{at}");
                    for &(d, halo, top_ups) in &sends {
                        // I′(s,d): I(s,d), then the extras bound for d —
                        // disjoint, so sorted together they are the union.
                        assert_eq!(halo, plan.indices_to(s, d), "{at} → {d}");
                        let extras = aspmv.extras_of(s).iter().find(|(dst, _)| *dst == d);
                        assert_eq!(top_ups, extras.map_or(&[][..], |(_, rc)| rc), "{at} → {d}");
                        let mut union = [halo, top_ups].concat();
                        union.sort_unstable();
                        assert!(union.windows(2).all(|w| w[0] < w[1]), "{at} → {d}");
                        longest = longest.max(union.len());
                        // The receive view mirrors the send view.
                        let back = view.recvs_of(d).find(|(src, ..)| *src == s);
                        assert_eq!(back, Some((s, halo, top_ups)), "{at} → {d}");
                    }
                    let recvs: Vec<PeerLists> = view.recvs_of(s).collect();
                    assert!(recvs.windows(2).all(|w| w[0].0 < w[1].0), "{at}");
                    for &(src, halo, top_ups) in &recvs {
                        let sent = view.sends_of(src).find(|(d, ..)| *d == s);
                        assert_eq!(sent, Some((s, halo, top_ups)), "{at} ← {src}");
                    }
                }
                assert_eq!(aspmv.longest_message(), longest, "{name}, phi = {phi}");
                // Every entry ends up on at least φ ranks besides its owner.
                for i in 0..part.n() {
                    let holders = aspmv.holders_of(i, &plan, &part);
                    assert!(
                        holders.len() > phi,
                        "{name}, phi = {phi}: {i} on {holders:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn eq1_destinations_alternate() {
        // N = 8, s = 3: k=1 -> 4, k=2 -> 2, k=3 -> 5, k=4 -> 1, k=5 -> 6.
        assert_eq!(designated_destination(3, 1, 8), 4);
        assert_eq!(designated_destination(3, 2, 8), 2);
        assert_eq!(designated_destination(3, 3, 8), 5);
        assert_eq!(designated_destination(3, 4, 8), 1);
        assert_eq!(designated_destination(3, 5, 8), 6);
    }

    #[test]
    fn eq1_wraps_modulo_n() {
        assert_eq!(designated_destination(7, 1, 8), 0);
        assert_eq!(designated_destination(0, 2, 8), 7);
    }

    #[test]
    fn buddy_map_is_consistent_for_many_sizes() {
        for n in [2usize, 3, 4, 5, 8, 13] {
            for phi in 1..n {
                let map = BuddyMap::new(n, phi);
                for s in 0..n {
                    let out = map.out_buddies(s);
                    assert_eq!(out.len(), phi);
                    // Distinct, non-self.
                    let mut sorted = out.to_vec();
                    sorted.sort_unstable();
                    sorted.dedup();
                    assert_eq!(sorted.len(), phi, "n={n} phi={phi} s={s}");
                    assert!(!out.contains(&s));
                    // Inverse is consistent.
                    for &d in out {
                        assert!(map.in_buddies(d).contains(&s));
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be smaller")]
    fn phi_ge_ranks_rejected() {
        BuddyMap::new(4, 4);
    }

    #[test]
    fn first_surviving_buddy_prefers_low_k() {
        let map = BuddyMap::new(8, 3); // buddies of 0: [1, 7, 2]
        assert_eq!(map.first_surviving_buddy(0, &[]), Some(1));
        assert_eq!(map.first_surviving_buddy(0, &[0, 1]), Some(7));
        assert_eq!(map.first_surviving_buddy(0, &[0, 1, 7]), Some(2));
        assert_eq!(map.first_surviving_buddy(0, &[1, 7, 2]), None);
    }

    fn coverage_holds(a: &CsrMatrix, n_ranks: usize, phi: usize) {
        let part = Partition::balanced(a.nrows(), n_ranks);
        let plan = CommPlan::build(a, &part);
        let aspmv = AspmvPlan::build(&plan, &part, phi);
        for i in 0..a.nrows() {
            let holders = aspmv.holders_of(i, &plan, &part);
            assert!(
                holders.len() > phi,
                "entry {i}: only {} holders for phi={phi} (n_ranks={n_ranks})",
                holders.len()
            );
        }
    }

    #[test]
    fn every_entry_has_phi_plus_one_holders_tridiagonal() {
        // Tridiagonal is the adversarial case: almost no natural redundancy.
        let a = poisson1d(40);
        for n_ranks in [4usize, 8] {
            for phi in 1..n_ranks.min(5) {
                coverage_holds(&a, n_ranks, phi);
            }
        }
    }

    #[test]
    fn every_entry_has_phi_plus_one_holders_3d() {
        let a = poisson3d(4, 4, 4);
        for phi in [1usize, 3] {
            coverage_holds(&a, 8, phi);
        }
    }

    #[test]
    fn every_entry_has_phi_plus_one_holders_random() {
        for seed in 0..4u64 {
            let a = banded_spd(60, 7, 0.4, seed);
            coverage_holds(&a, 6, 1);
            coverage_holds(&a, 6, 3);
            coverage_holds(&a, 6, 5);
        }
    }

    #[test]
    fn phi1_matches_single_failure_scheme() {
        // With phi = 1, an entry gets an extra copy iff nobody receives it
        // via the regular SpMV (m = 0), and that copy goes to s + 1.
        let a = poisson1d(20);
        let part = Partition::balanced(20, 4);
        let plan = CommPlan::build(&a, &part);
        let aspmv = AspmvPlan::build(&plan, &part, 1);
        for (s, range) in part.iter() {
            for i in range {
                let extra_holders: Vec<usize> = aspmv
                    .extras_of(s)
                    .iter()
                    .filter(|(_, idx)| idx.binary_search(&i).is_ok())
                    .map(|(d, _)| *d)
                    .collect();
                if plan.multiplicity(i) == 0 {
                    assert_eq!(
                        extra_holders,
                        vec![(s + 1) % 4],
                        "uncommunicated entry {i} goes to the right neighbor"
                    );
                } else {
                    assert!(
                        extra_holders.is_empty(),
                        "entry {i} already communicated; no extra copy at phi=1"
                    );
                }
            }
        }
    }

    #[test]
    fn extra_traffic_grows_with_phi() {
        let a = poisson3d(4, 4, 4);
        let part = Partition::balanced(64, 8);
        let plan = CommPlan::build(&a, &part);
        let t1 = AspmvPlan::build(&plan, &part, 1).total_extra_traffic();
        let t3 = AspmvPlan::build(&plan, &part, 3).total_extra_traffic();
        let t7 = AspmvPlan::build(&plan, &part, 7).total_extra_traffic();
        assert!(t1 <= t3 && t3 <= t7);
        assert!(t7 > 0);
    }

    #[test]
    fn banded_matrix_has_less_extra_traffic_than_diagonal() {
        // A banded matrix communicates naturally; a (block-)diagonal one
        // must send everything as extras (paper §2.2: banded is favorable).
        let n = 48;
        let part = Partition::balanced(n, 6);
        let banded = poisson1d(n);
        let diag = CsrMatrix::identity(n);
        let plan_b = CommPlan::build(&banded, &part);
        let plan_d = CommPlan::build(&diag, &part);
        let extra_b = AspmvPlan::build(&plan_b, &part, 1).total_extra_traffic();
        let extra_d = AspmvPlan::build(&plan_d, &part, 1).total_extra_traffic();
        assert!(extra_d > extra_b);
        assert_eq!(extra_d, n, "diagonal: every entry needs an extra copy");
    }

    #[test]
    fn extra_sources_mirror_extras() {
        let a = poisson1d(24);
        let part = Partition::balanced(24, 6);
        let plan = CommPlan::build(&a, &part);
        let aspmv = AspmvPlan::build(&plan, &part, 2);
        for s in 0..6 {
            for (d, idx) in aspmv.extras_of(s) {
                assert!(!idx.is_empty());
                assert!(aspmv.extra_sources_of(*d).contains(&s));
            }
        }
    }
}
