//! The halo exchange: materializes a full-length input vector on every rank
//! before a distributed SpMV, following a [`CommPlan`]. Payload buffers are
//! pooled (`esrcg_cluster::BufferPool`): each send takes a recycled
//! buffer, each receive returns one, so the per-iteration exchange is
//! allocation-free at steady state.
//!
//! The exchange is **split-phase**: `HaloExchange::start_view` copies the
//! owned chunk into the gather buffer and fires all sends, then the caller
//! computes whatever does not depend on the halo (interior SpMV rows, see
//! [`esrcg_sparse::RowSplit`]), then `HaloExchange::finish_view` drains the
//! receives. On the modeled clock, receives synchronize to each message's
//! arrival time instead of adding a wait, so a split-phase SpMV pays
//! `max(halo transfer, interior compute)` where the blocking form pays the
//! sum. [`exchange_halo`] is the blocking composition of the two halves: no
//! solver path calls it — it is the oracle the split-phase tests compare
//! against, and the entry point of the `benchmark` package's halo probe.
//!
//! The exchange is generic over a `PlanView` — the full plan, the plan
//! restricted to the peers a predicate accepts, either one topped up by an
//! [`AspmvPlan`] — and over the wire tag, so one code path serves both
//! exchanges of the outer loop: the SpMV halo and the **augmented** SpMV
//! (the same exchange over `I′(s,d) = I(s,d) ∪ Rc(s,k)`, whose receives are
//! captured as the redundant copies — under `Tag::Halo` / `Tag::Redundant`
//! when the search direction rides the SpMV, under `Tag::PipelinedP` /
//! `Tag::SStepBasis` when a recurrence ships it explicitly). The recovery
//! inner solve reads the same index lists in its own member rounds, which
//! carry dot partials too (`crate::solver::recovery`).

use esrcg_cluster::{Ctx, Payload, Tag};
use esrcg_sparse::Partition;

use crate::aspmv::AspmvPlan;
use crate::dist::plan::CommPlan;
use crate::queue::Capture;

/// A borrowed view of a [`CommPlan`]: either the whole plan, or the plan
/// restricted to the peers accepted by a filter predicate — and, for the
/// augmented SpMV, either of them topped up by an [`AspmvPlan`].
///
/// Filtering removes *peers*, never indices: an accepted peer's index list
/// is used unchanged.
///
/// Topping up adds *indices*, and the peers that receive nothing else: one
/// message carries `I(s,d)` and behind it the `Rc(s,k)` with `d(s,k) = d` —
/// two static ascending lists, disjoint, nowhere stored merged (the plan
/// data of an augmented exchange is the plan's and the [`AspmvPlan`]'s) —
/// and a designated destination that is no halo peer gets a message of the
/// second list alone.
pub(crate) struct PlanView<'a> {
    plan: &'a CommPlan,
    top_ups: Option<&'a AspmvPlan>,
    filter: Option<&'a dyn Fn(usize) -> bool>,
}

/// `(peer, halo indices, top-up indices)`: what one message of an exchange
/// carries, in that order. Either list may be empty, never both.
pub(crate) type PeerLists<'a> = (usize, &'a [usize], &'a [usize]);

/// The union by peer of two `(peer, indices)` streams in ascending peer
/// order.
fn union_by_peer<'a>(
    halo: impl Iterator<Item = (usize, &'a [usize])>,
    top_ups: impl Iterator<Item = (usize, &'a [usize])>,
) -> impl Iterator<Item = PeerLists<'a>> {
    let (mut halo, mut top_ups) = (halo.peekable(), top_ups.peekable());
    std::iter::from_fn(move || {
        let peer = match (halo.peek(), top_ups.peek()) {
            (Some((h, _)), Some((t, _))) => *h.min(t),
            (Some((p, _)), None) | (None, Some((p, _))) => *p,
            (None, None) => return None,
        };
        let halo = halo.next_if(|(p, _)| *p == peer);
        let top_ups = top_ups.next_if(|(p, _)| *p == peer);
        let list = |of_peer: Option<(usize, &'a [usize])>| of_peer.map_or(&[][..], |(_, l)| l);
        Some((peer, list(halo), list(top_ups)))
    })
}

/// A plan's `(peer, indices)` lists as a stream.
fn lists(of_rank: &[(usize, Vec<usize>)]) -> impl Iterator<Item = (usize, &[usize])> {
    of_rank.iter().map(|(peer, idx)| (*peer, &idx[..]))
}

impl<'a> PlanView<'a> {
    /// The unrestricted plan — what the regular SpMV halo uses.
    pub(crate) fn full(plan: &'a CommPlan) -> Self {
        PlanView {
            plan,
            top_ups: None,
            filter: None,
        }
    }

    /// The plan restricted to peers for which `filter` returns true. The
    /// calling rank itself never appears as a peer, so the predicate is
    /// only consulted for remote ranks.
    pub(crate) fn filtered(plan: &'a CommPlan, filter: &'a dyn Fn(usize) -> bool) -> Self {
        PlanView {
            plan,
            top_ups: None,
            filter: Some(filter),
        }
    }

    /// This view over the augmented index sets `I′(s,d) = I(s,d) ∪ Rc(s,k)`
    /// of paper §2.2 — the exchange of the ASpMV. A filter applies to the
    /// top-ups' peers as it does to the plan's.
    pub(crate) fn augmented_by(self, top_ups: &'a AspmvPlan) -> Self {
        PlanView {
            top_ups: Some(top_ups),
            ..self
        }
    }

    #[inline]
    fn accepts(&self, peer: usize) -> bool {
        self.filter.is_none_or(|f| f(peer))
    }

    /// The accepted sends of `rank`, in destination order.
    pub(crate) fn sends_of(&self, rank: usize) -> impl Iterator<Item = PeerLists<'a>> + '_ {
        let top_ups = self.top_ups.map(|t| lists(t.extras_of(rank)));
        self.peers(lists(self.plan.sends_of(rank)), top_ups)
    }

    /// The accepted receives of `rank`, in source order.
    pub(crate) fn recvs_of(&self, rank: usize) -> impl Iterator<Item = PeerLists<'a>> + '_ {
        let top_ups = self.top_ups.map(|t| {
            let sources = t.extra_sources_of(rank).iter();
            sources.map(move |&src| (src, t.extras_to(src, rank)))
        });
        self.peers(lists(self.plan.recvs_of(rank)), top_ups)
    }

    /// The accepted peers of `halo`, topped up if the view is.
    fn peers<H, T>(&self, halo: H, top_ups: Option<T>) -> impl Iterator<Item = PeerLists<'a>> + '_
    where
        H: Iterator<Item = (usize, &'a [usize])> + 'a,
        T: Iterator<Item = (usize, &'a [usize])> + 'a,
    {
        // A plain view — every SpMV that is not an ASpMV — has nothing to
        // merge.
        let (mut plain, mut topped_up) = match top_ups {
            None => (Some(halo), None),
            Some(top_ups) => (None, Some(union_by_peer(halo, top_ups))),
        };
        let peers = std::iter::from_fn(move || match (&mut plain, &mut topped_up) {
            (Some(halo), _) => halo.next().map(|(peer, list)| (peer, list, &[][..])),
            (_, Some(both)) => both.next(),
            (None, None) => None,
        });
        peers.filter(move |(peer, ..)| self.accepts(*peer))
    }

    /// Whether the message `src` sends `dst` in an exchange over this view
    /// (one that accepts them as each other's peers) goes unanswered. Only
    /// a top-up can: the SpMV plan of a symmetric matrix pairs every halo
    /// message with one the other way.
    fn unanswered(&self, src: usize, dst: usize) -> bool {
        self.top_ups.is_some_and(|t| {
            self.plan.indices_to(dst, src).is_empty() && t.extras_to(dst, src).is_empty()
        })
    }

    /// Entries a send buffer is reserved at: the longest message of an
    /// augmented exchange, so that a buffer, which migrates from rank to
    /// rank with the messages it carries, never regrows at a later hop
    /// (0 for a plain view: halo buffers grow to what they carry).
    fn longest_message(&self) -> usize {
        self.top_ups.map_or(0, AspmvPlan::longest_message)
    }
}

/// An in-flight halo exchange: [`HaloExchange::start_view`] has fired the
/// sends, [`HaloExchange::finish_view`] must drain the receives before any
/// boundary row is computed. Holds no borrows — only the wire tag — so the
/// caller is free to use the context and the gather buffer in between.
#[must_use = "a started halo exchange must be finished, or its receives leak into later iterations"]
#[derive(Debug)]
pub(crate) struct HaloExchange {
    tag: u64,
}

impl HaloExchange {
    /// Starts the exchange over `view` under the wire `tag`: copies `local`
    /// (this rank's owned chunk) into `full` at the rank's own range and
    /// sends every accepted `(dst, indices)` pair of the view. Sends never
    /// block. The tag's sub-field is typically the iteration number, so
    /// halo rounds of different iterations can never be confused.
    ///
    /// Send buffers come from the rank's pool, so after the first few
    /// rounds the per-iteration exchange allocates nothing (buffers
    /// circulate between ranks: the receiver recycles what this send hands
    /// over, and vice versa).
    ///
    /// # Panics
    /// Panics if `local` does not match the rank's range length or `full`
    /// the global size.
    pub(crate) fn start_view(
        ctx: &mut Ctx,
        view: &PlanView<'_>,
        part: &Partition,
        local: &[f64],
        tag: u64,
        full: &mut [f64],
    ) -> HaloExchange {
        let me = ctx.rank();
        let range = part.range(me);
        assert_eq!(local.len(), range.len(), "halo: local chunk length");
        assert_eq!(full.len(), part.n(), "halo: full vector length");
        full[range.clone()].copy_from_slice(local);

        for (dst, halo, top_ups) in view.sends_of(me) {
            let mut vals = ctx.take_f64s();
            vals.reserve(view.longest_message());
            for list in [halo, top_ups] {
                vals.extend(list.iter().map(|&g| local[g - range.start]));
            }
            ctx.send(dst, tag, Payload::F64s(vals));
        }
        HaloExchange { tag }
    }

    /// Finishes the exchange: drains the receives of the sources `view`
    /// accepts, in source-rank order (deterministic capture order), and
    /// scatters them into `full`. The view must accept the same peers the
    /// matching [`HaloExchange::start_view`] accepted, or receives leak.
    ///
    /// * Each receive is a [`Ctx::recv`]: a message that arrived while the
    ///   caller was computing interior rows completes at no modeled cost,
    ///   a later one waits for its arrival.
    /// * When `captured` is provided, each received payload is appended to
    ///   it whole with its source ([`Capture::record`]) — this is how the
    ///   ASpMV records the redundant copies it stores in the
    ///   [`crate::queue::RedundancyQueue`].
    ///
    /// Entries of `full` that are neither owned nor received keep their
    /// previous contents; callers must only read positions their rows
    /// actually touch (which is exactly what the plan guarantees to have
    /// filled).
    ///
    /// # Panics
    /// Panics if a received payload does not match the plan's index list —
    /// a wrong-length halo payload is a protocol violation, checked in
    /// release builds too.
    pub(crate) fn finish_view(
        self,
        ctx: &mut Ctx,
        view: &PlanView<'_>,
        full: &mut [f64],
        mut captured: Option<&mut Capture>,
    ) {
        let me = ctx.rank();
        for (src, halo, top_ups) in view.recvs_of(me) {
            let vals = ctx.recv(src, self.tag).into_f64s();
            assert_eq!(
                vals.len(),
                halo.len() + top_ups.len(),
                "halo: payload length mismatch from rank {src} (protocol violation)"
            );
            for (&g, &v) in halo.iter().chain(top_ups).zip(&vals) {
                full[g] = v;
            }
            if let Some(cap) = captured.as_deref_mut() {
                cap.record(src, &vals);
            }
            // A payload buffer moves with its message. Between two ranks
            // that both send, recycling here keeps either pool level; a
            // message with no reply (an ASpMV top-up for a designated
            // destination that is no halo peer) would move one buffer per
            // exchange for good, so its buffer goes back to the sender.
            if view.unanswered(src, me) {
                ctx.hand_back(src, self.tag, vals);
            } else {
                ctx.recycle_f64s(vals);
            }
        }
        if view.top_ups.is_some() {
            for (dst, ..) in view.sends_of(me) {
                if view.unanswered(me, dst) {
                    ctx.reclaim(dst, self.tag);
                }
            }
        }
    }
}

/// Exchanges halo entries of a distributed vector and scatters them into
/// `full`, a full-length scratch vector — the blocking exchange over the
/// whole plan under `Tag::Halo.with(tag_sub)`: `HaloExchange::start_view`
/// then `HaloExchange::finish_view` (see there for the protocol details).
/// The oracle of the split-phase tests (this module's and `solver`'s) and
/// the `benchmark` probe's entry point; the solver itself always overlaps.
///
/// # Panics
/// Panics if `local` does not match the rank's range length, or on protocol
/// violations surfaced by the communication layer.
pub fn exchange_halo(
    ctx: &mut Ctx,
    plan: &CommPlan,
    part: &Partition,
    local: &[f64],
    tag_sub: u32,
    full: &mut [f64],
    captured: Option<&mut Capture>,
) {
    let view = PlanView::full(plan);
    HaloExchange::start_view(ctx, &view, part, local, Tag::Halo.with(tag_sub), full)
        .finish_view(ctx, &view, full, captured);
}

#[cfg(test)]
mod tests {
    use super::*;
    use esrcg_cluster::{run_spmd, CostModel};
    use esrcg_sparse::gen::poisson2d;
    use std::sync::Arc;

    #[test]
    fn distributed_spmv_matches_sequential() {
        let a = Arc::new(poisson2d(9, 9));
        let n = a.nrows();
        let x: Arc<Vec<f64>> = Arc::new((0..n).map(|i| (i as f64 * 0.17).sin()).collect());
        let expected = a.spmv(&x);
        for n_ranks in [1usize, 2, 3, 5] {
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
            assert_eq!(got, expected, "{n_ranks} ranks");
        }
    }

    #[test]
    fn split_phase_spmv_is_bitwise_identical_to_blocking() {
        let a = Arc::new(poisson2d(9, 9));
        let n = a.nrows();
        let x: Arc<Vec<f64>> = Arc::new((0..n).map(|i| (i as f64 * 0.17).sin()).collect());
        let expected = a.spmv(&x);
        for n_ranks in [1usize, 2, 3, 5] {
            let part = Arc::new(Partition::balanced(n, n_ranks));
            let plan = Arc::new(CommPlan::build(&a, &part));
            let split = Arc::new(esrcg_sparse::RowSplitSet::build(&a, &part));
            let out = run_spmd(n_ranks, CostModel::default(), {
                let (a, x, part, plan, split) = (
                    a.clone(),
                    x.clone(),
                    part.clone(),
                    plan.clone(),
                    split.clone(),
                );
                move |ctx| {
                    let range = part.range(ctx.rank());
                    let rs = split.of(ctx.rank());
                    let mut full = vec![0.0; part.n()];
                    let mut y = vec![0.0; range.len()];
                    let (view, tag) = (PlanView::full(&plan), Tag::Halo.with(0));
                    let local = &x[range.clone()];
                    let hx = HaloExchange::start_view(ctx, &view, &part, local, tag, &mut full);
                    a.spmv_rows_subset_into(&rs.interior().to_vec(), range.start, &full, &mut y);
                    hx.finish_view(ctx, &view, &mut full, None);
                    a.spmv_rows_subset_into(&rs.boundary().to_vec(), range.start, &full, &mut y);
                    y
                }
            });
            let got: Vec<f64> = out.results.into_iter().flatten().collect();
            assert_eq!(got, expected, "{n_ranks} ranks");
        }
    }

    #[test]
    fn more_ranks_than_rows_exchange_through_both_paths() {
        // n < n_ranks: trailing ranks own nothing, send nothing, receive
        // nothing — but still participate without deadlock in both the
        // blocking and the split-phase form.
        use esrcg_sparse::gen::poisson1d;
        let a = Arc::new(poisson1d(3));
        let x: Arc<Vec<f64>> = Arc::new(vec![1.0, 2.0, 3.0]);
        let expected = a.spmv(&x);
        let part = Arc::new(Partition::balanced(3, 5));
        let plan = Arc::new(CommPlan::build(&a, &part));
        let split = Arc::new(esrcg_sparse::RowSplitSet::build(&a, &part));
        for split_phase in [false, true] {
            let out = run_spmd(5, CostModel::default(), {
                let (a, x, part, plan, split) = (
                    a.clone(),
                    x.clone(),
                    part.clone(),
                    plan.clone(),
                    split.clone(),
                );
                move |ctx| {
                    let range = part.range(ctx.rank());
                    let mut full = vec![0.0; part.n()];
                    let mut y = vec![0.0; range.len()];
                    if split_phase {
                        let rs = split.of(ctx.rank());
                        let (view, tag) = (PlanView::full(&plan), Tag::Halo.with(0));
                        let local = &x[range.clone()];
                        let hx = HaloExchange::start_view(ctx, &view, &part, local, tag, &mut full);
                        a.spmv_rows_subset_into(
                            &rs.interior().to_vec(),
                            range.start,
                            &full,
                            &mut y,
                        );
                        hx.finish_view(ctx, &view, &mut full, None);
                        a.spmv_rows_subset_into(
                            &rs.boundary().to_vec(),
                            range.start,
                            &full,
                            &mut y,
                        );
                    } else {
                        exchange_halo(ctx, &plan, &part, &x[range.clone()], 0, &mut full, None);
                        a.spmv_rows_into(range.clone(), &full, &mut y);
                    }
                    y
                }
            });
            let got: Vec<f64> = out.results.into_iter().flatten().collect();
            assert_eq!(got, expected, "split_phase = {split_phase}");
        }
    }

    #[test]
    fn repeated_exchanges_reuse_payload_buffers() {
        let a = Arc::new(poisson2d(8, 8));
        let n = a.nrows();
        let x: Arc<Vec<f64>> = Arc::new((0..n).map(|i| i as f64).collect());
        let part = Arc::new(Partition::balanced(n, 4));
        let plan = Arc::new(CommPlan::build(&a, &part));
        let out = run_spmd(4, CostModel::default(), {
            let (x, part, plan) = (x.clone(), part.clone(), plan.clone());
            move |ctx| {
                let range = part.range(ctx.rank());
                let mut full = vec![0.0; part.n()];
                for round in 0..30u32 {
                    exchange_halo(ctx, &plan, &part, &x[range.clone()], round, &mut full, None);
                }
                ctx.buffer_stats()
            }
        });
        for (rank, stats) in out.results.iter().enumerate() {
            // Each rank sends to its neighbors every round; after warm-up,
            // every take must be a pool hit.
            assert!(stats.takes >= 30, "rank {rank}: takes {}", stats.takes);
            assert!(
                stats.hits * 10 >= stats.takes * 9,
                "rank {rank}: hits {}/{}",
                stats.hits,
                stats.takes
            );
        }
    }

    #[test]
    fn captured_values_are_the_owners_entries_per_source() {
        let a = Arc::new(poisson2d(6, 6));
        let n = a.nrows();
        let x: Arc<Vec<f64>> = Arc::new((0..n).map(|i| (i as f64 * 0.3).sin()).collect());
        let part = Arc::new(Partition::balanced(n, 3));
        let plan = Arc::new(CommPlan::build(&a, &part));
        let out = run_spmd(3, CostModel::default(), {
            let (x, part, plan) = (x.clone(), part.clone(), plan.clone());
            move |ctx| {
                let range = part.range(ctx.rank());
                let mut full = vec![0.0; part.n()];
                let mut captured = Capture::default();
                exchange_halo(
                    ctx,
                    &plan,
                    &part,
                    &x[range.clone()],
                    7,
                    &mut full,
                    Some(&mut captured),
                );
                captured
            }
        });
        for (me, captured) in out.results.iter().enumerate() {
            // Each source's slice is its entries over I(src, me), in source
            // order, and nothing else is stored.
            let mut expected = Capture::default();
            for src in (0..3).filter(|&s| !plan.indices_to(s, me).is_empty()) {
                let owned: Vec<f64> = plan.indices_to(src, me).iter().map(|&g| x[g]).collect();
                expected.record(src, &owned);
            }
            assert_eq!(*captured, expected, "rank {me}");
        }
    }

    #[test]
    fn filtered_view_restricts_peers_but_not_indices() {
        let a = poisson2d(8, 8);
        let part = Partition::balanced(64, 4);
        let plan = CommPlan::build(&a, &part);
        let subgroup = [1usize, 2];
        let in_group = |r: usize| subgroup.contains(&r);
        let view = PlanView::filtered(&plan, &in_group);
        for rank in 0..4 {
            for (dst, idx, top_ups) in view.sends_of(rank) {
                assert!(in_group(dst));
                assert_eq!(idx, plan.indices_to(rank, dst), "index lists unchanged");
                assert!(top_ups.is_empty());
            }
            for (src, ..) in view.recvs_of(rank) {
                assert!(in_group(src));
            }
            // The full view is the identity.
            let full_view = PlanView::full(&plan);
            assert_eq!(
                full_view.sends_of(rank).count(),
                plan.sends_of(rank).len(),
                "rank {rank}"
            );
        }
    }

    #[test]
    fn subgroup_exchange_under_a_custom_tag_matches_the_plan_subset() {
        // A filtered exchange among ranks {0, 1} of a 3-rank cluster under
        // a tag namespace of its own: only subgroup members run the
        // exchange (with the group predicate as the peer filter), outsiders
        // are not involved at all. Accepted
        // peers exchange exactly the plan's index lists; entries owned by
        // rank 2 stay untouched.
        let a = Arc::new(poisson2d(6, 6));
        let n = a.nrows();
        let x: Arc<Vec<f64>> = Arc::new((0..n).map(|i| i as f64 + 0.5).collect());
        let part = Arc::new(Partition::balanced(n, 3));
        let plan = Arc::new(CommPlan::build(&a, &part));
        let out = run_spmd(3, CostModel::default(), {
            let (x, part, plan) = (x.clone(), part.clone(), plan.clone());
            move |ctx| {
                let me = ctx.rank();
                let in_group = |r: usize| r < 2;
                let mut full = vec![f64::NAN; part.n()];
                if !in_group(me) {
                    return full; // outsiders sit the sub-protocol out
                }
                let range = part.range(me);
                let view = PlanView::filtered(&plan, &in_group);
                let hx = HaloExchange::start_view(
                    ctx,
                    &view,
                    &part,
                    &x[range.clone()],
                    esrcg_cluster::Tag::RecoveryInner.with(9),
                    &mut full,
                );
                hx.finish_view(ctx, &view, &mut full, None);
                full
            }
        });
        for rank in 0..2 {
            let full = &out.results[rank];
            // Own chunk present.
            for g in part.range(rank) {
                assert_eq!(full[g], x[g], "rank {rank} own entry {g}");
            }
            // Entries received from the accepted peer present; others NaN.
            for (src, idx) in plan.recvs_of(rank) {
                for &g in idx {
                    if *src < 2 {
                        assert_eq!(full[g], x[g], "rank {rank} entry {g} from {src}");
                    } else {
                        assert!(full[g].is_nan(), "rank {rank} entry {g} from {src}");
                    }
                }
            }
        }
    }
}
