//! Recovery protocols: the ESR reconstruction (paper Alg. 2) adapted to
//! ESRP rollback targets, and the IMCR checkpoint retrieval (paper §3.1).
//!
//! Both protocols run on *all* ranks after a failure is injected: survivors
//! contribute data and roll their own state back; the failed ranks — acting
//! as their own replacement nodes, as in the paper's framework (§4) —
//! reconstruct or retrieve their lost state. Every message is addressed by
//! `(source, tag)`, and the participants derive identical protocol decisions
//! from shared static data, so the exchange is deterministic and cannot
//! deadlock (sends never block).
//!
//! After the entry barrier — the agreement on the failed set — a
//! replacement receives exactly one round of messages: one gather message
//! from each survivor with something to send it (ESR/ESRP) or its
//! checkpoint from one buddy (IMCR). Nothing synchronizes after that; each
//! rank's part of the recovery ends on its own clock.
//!
//! Under [`RecoveryRule::Extended`] an ESR/ESRP event with ψ ≥ 2, or next
//! to a pending rank, stops after Alg. 2 line 6 and leaves its ranks
//! pending; `reconstruct_pending` solves for the pending ranks' `x` once,
//! when the loop exits, a multi-rank component by pipelined PCG at one
//! message round per inner iteration. A lone replacement that solves at
//! once does so in the background of its later receive waits
//! (`Ctx::background`); `settle_background` charges what is left before
//! the next reader of its `x`. The loop makes two calls for that timing:
//! `settle_background` before a due event's trigger, and
//! `settle_and_end_solve` at its exit. The same rule ships the survivors'
//! reduction log since the rollback target to each replacement, behind the
//! ESRP scalar root's β and `r·z` or the IMCR buddy's blob, so that the
//! redo replays it on every rank.

use std::collections::HashMap;
use std::ops::Range;

use esrcg_cluster::{Ctx, Payload, Phase, Tag};
use esrcg_sparse::KernelBackend;

use crate::solver::state::checkpoint_blob_len;
use crate::solver::workspace::{DomainCache, RecoveryScratch};
use crate::solver::{Node, RecoveryRule, Recurrence, SharedProblem};
use crate::strategy::Strategy;

/// Relative target of the inner solve under [`RecoveryRule::Paper`].
const PAPER_INNER_RTOL: f64 = 1e-14;
/// Share η of the outer target under [`RecoveryRule::Extended`].
const ETA: f64 = 0.01;

/// What a recovery did, as reported by every rank (identical everywhere
/// except `recovery_time`, which ends on each rank's own clock, and
/// `inner_iterations`, which every replacement knows and every survivor
/// reports as 0; the driver takes the maximum of both over ranks).
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryOutcome {
    /// The iteration at which the failure struck.
    pub failed_at: usize,
    /// The iteration the solver resumed from (ĵ for ESRP, the checkpoint
    /// iteration for IMCR, 0 for a full restart).
    pub resumed_at: usize,
    /// Iterations that must be redone: `failed_at - resumed_at`. Under
    /// [`RecoveryRule::Extended`] the redo replays the loop's logged
    /// reductions: a redone iteration pays its SpMV halo and its local
    /// flops, not its allreduces. Under [`RecoveryRule::Paper`] it is a full
    /// iteration.
    pub wasted_iterations: usize,
    /// True if no recovery point existed and the solver restarted from x⁰.
    pub full_restart: bool,
    /// Modeled seconds from the agreed start of the recovery to the end of
    /// this rank's part of it, plus the spans added later: the background
    /// solve's remainder a lone replacement settles before the next event
    /// or at the loop's exit (under [`RecoveryRule::Extended`] the part its
    /// receive waits absorbed is not recovery time), and on the last event
    /// the end solve. The maximum over ranks is the event's cost.
    pub recovery_time: f64,
    /// Iterations of the inner `A[I_f, I_f]` solve (on every replacement;
    /// 0 on survivors and for IMCR). A deferred event solves nothing; the
    /// end solve's iterations are added to the run's last event.
    pub inner_iterations: usize,
}

/// What the recovery path keeps on the [`Node`] from one event to the next:
/// the reconstruction buffers and per-subgroup caches of `workspace.rs` and
/// the pending set U.
#[derive(Default)]
pub(super) struct RecoveryState {
    scratch: RecoveryScratch,
    /// Keyed by the sorted subgroup.
    domains: HashMap<Vec<usize>, DomainCache>,
    /// The sorted pending set U: ranks whose `x` a deferred ESR/ESRP event
    /// left unreconstructed ([`RecoveryRule::Extended`]). Replicated.
    pending: Vec<usize>,
}

/// Runs the strategy's recovery protocol. The failed ranks must already
/// have wiped their state
/// ([`NodeState::wipe`](crate::solver::state::NodeState::wipe)). The
/// rollback `target` is supplied by the caller
/// ([`Recurrence::rollback_target`]): the per-iteration variants derive it
/// from the (possibly re-anchored) schedule, while the s-step variant
/// passes the last *block-start* it protected — its protection events all
/// land on outer-step boundaries, so mid-block failures resume at the
/// enclosing outer step. `None` means no
/// recovery point exists yet. Returns the outcome; afterwards every rank's
/// state corresponds to iteration `outcome.resumed_at`, `st.rz` included.
pub(super) fn recover<R: Recurrence>(
    ctx: &mut Ctx,
    node: &mut Node<'_>,
    rec: &mut R,
    j_f: usize,
    target: Option<usize>,
    event: &esrcg_cluster::FailureSpec,
) -> RecoveryOutcome {
    // The entry barrier is the agreement on the failed set and defines the
    // recovery's start. Attribute it (and everything until the strategy
    // sets a finer recovery phase) to RecoveryReset rather than the caller's
    // compute phase — otherwise SpMV/Storage silently absorb the
    // synchronization cost of the failure, and the interval tuner reads a
    // polluted Storage time.
    ctx.set_phase(Phase::RecoveryReset);
    let t_start = ctx.barrier_sync_clock();
    let failed = event.ranks();
    debug_assert!(
        failed.windows(2).all(|w| w[0] < w[1]),
        "FailureSpec guarantees a sorted, duplicate-free rank set"
    );
    let strategy = node.sched.strategy();
    assert!(
        strategy != Strategy::None,
        "node failure injected into a run without a resilience strategy — \
         an unprotected solver loses all progress (the paper's motivating case)"
    );
    // Survivors roll back to their local snapshot — ESRP's starred copies or
    // their own IMCR checkpoint, r·z included. ESR keeps none: its current
    // state *is* the iteration-ĵ state.
    if target.is_some() && !strategy.is_esr() && !event.affects(ctx.rank()) {
        debug_assert_eq!(
            node.st.snapshot.as_ref().map(|s| s.iter),
            target,
            "the snapshot must match the rollback target"
        );
        node.st.rollback_to_snapshot();
    }
    let inner_iterations = match (strategy, target) {
        (Strategy::None, _) => unreachable!("asserted above"),
        (_, None) => {
            // No recovery point yet: restart the whole solve from x0 (static
            // data is retrievable from safe storage, PAPER.md's protocol
            // table — the paper's experiments never hit this case, ours test
            // it). The s-step loop rebuilds its per-block basis workspace
            // from definitions. Every rank's `x` is x⁰ again: nothing is
            // pending any more.
            (node.st, _, _) = rec.init(ctx, node.shared, &mut node.full);
            node.recovery.pending.clear();
            0
        }
        (Strategy::Esrp { t }, Some(jhat)) => recover_esrp(ctx, node, jhat, t, failed),
        (Strategy::Imcr { .. }, Some(jc)) => {
            recover_imcr(ctx, node, jc, failed);
            0
        }
    };
    if target.is_some() {
        // --- All ranks: whatever else the recurrence carries -------------
        ctx.set_phase(Phase::RecoveryReset);
        rec.resync_after_rollback(ctx, node, matches!(strategy, Strategy::Imcr { .. }));
    }
    // Each rank's part ends on its own clock; the next iteration's
    // reductions synchronize the ranks anyway.
    let t_end = ctx.clock();
    ctx.trace_recovery_span(t_start, t_end);
    let resumed_at = target.unwrap_or(0);
    RecoveryOutcome {
        failed_at: j_f,
        resumed_at,
        wasted_iterations: j_f - resumed_at,
        full_restart: target.is_none(),
        recovery_time: t_end - t_start,
        inner_iterations,
    }
}

/// Charges what a lone replacement still owes of its background inner
/// solve ([`Ctx::settle_background`]) before the next reader of its `x` —
/// the next event's agreement (its gather and rollback read `x` and `x*`),
/// or the loop's exit — and records it as one more span of `owner`, the
/// event that solved; a no-op when nothing is owed.
pub(super) fn settle_background(ctx: &mut Ctx, owner: Option<&mut RecoveryOutcome>) {
    let start = ctx.clock();
    ctx.settle_background();
    let end = ctx.clock();
    if end > start {
        ctx.trace_recovery_span(start, end);
        owner
            .expect("only a recovery runs background work")
            .recovery_time += end - start;
    }
}

/// The loop's exit, on every rank: the background debt is settled first
/// ([`settle_background`]), then the pending set's `x` is solved for
/// (`reconstruct_pending`). Both are spans of `last`, the run's last event.
pub(super) fn settle_and_end_solve(
    ctx: &mut Ctx,
    node: &mut Node<'_>,
    mut last: Option<&mut RecoveryOutcome>,
) {
    settle_background(ctx, last.as_deref_mut());
    if !node.recovery.pending.is_empty() {
        reconstruct_pending(ctx, node, last.expect("a pending rank failed"));
    }
}

/// Whether the ESR/ESRP event on `failed_sorted` leaves its `x` for the end
/// solve ([`RecoveryRule::Extended`]): when ψ ≥ 2, or when a failed rank
/// is pending or a halo peer of a pending rank. A lone replacement with no
/// pending neighbour reconstructs at once: every `x` its rows read is valid,
/// and its inner solve sends no message.
fn defers(shared: &SharedProblem, pending: &[usize], failed_sorted: &[usize]) -> bool {
    let touches_pending = |&f: &usize| {
        let mut pending = pending.iter();
        pending.any(|&u| u == f || shared.plan.are_peers(u, f))
    };
    shared.cfg.recovery_rule == RecoveryRule::Extended
        && (failed_sorted.len() >= 2 || failed_sorted.iter().any(touches_pending))
}

/// ESR/ESRP recovery (paper Alg. 2 + the ESRP rollback of §3) to iteration
/// `jhat`; returns the inner-solve iteration count (0 on survivors and for
/// a deferred event). An event that [`defers`] joins the pending set: its
/// gather carries no `x` and its replacements stop after line 6. Otherwise
/// they solve for their `x` now (lines 7–8). The scalar root ships its
/// reduction log's replay behind β and `r·z`; each replacement refills its
/// log from it.
fn recover_esrp(
    ctx: &mut Ctx,
    node: &mut Node<'_>,
    jhat: usize,
    t: usize,
    failed_sorted: &[usize],
) -> usize {
    let shared = node.shared;
    let me = ctx.rank();
    let n_ranks = ctx.size();
    let is_failed = |r: usize| failed_sorted.binary_search(&r).is_ok();
    let am_failed = is_failed(me);
    let range = node.range.clone();
    let solve = !defers(shared, &node.recovery.pending, failed_sorted);
    if !solve {
        let pending = &mut node.recovery.pending;
        pending.extend_from_slice(failed_sorted);
        pending.sort_unstable();
        pending.dedup();
    }

    // --- Survivors (rolled back by `recover`) drop what they captured past
    // the storage-stage state ---------------------------------------------
    ctx.set_phase(Phase::RecoveryReset);
    if !am_failed {
        node.st.queue.purge_after(jhat);
    }

    // --- One gather round: each survivor sends each replacement at most one
    // message of what it holds for it, values only -----------------------
    // Both ends derive the layout from static plans. Survivor s captured the
    // message f sent it in every ASpMV whole: the values over I′(f,s) =
    // I(f,s) ++ Rc(f→s), in that order, which its queue returns by source.
    // The message is [p^(ĵ−1) over I′(f,s) | p^(ĵ) over I′(f,s) | x over
    // I(s,f) | root only: β^(ĵ−1), r·z^(ĵ), the reduction log since ĵ], and
    // s sends it only if some part is non-empty. A deferred event sends no
    // `x` part.
    ctx.set_phase(Phase::RecoveryGather);
    let plan = &*shared.plan;
    let aspmv = shared
        .aspmv
        .as_deref()
        .expect("ESR/ESRP hold an ASpMV plan");
    let copies = |f: usize, s: usize| (plan.indices_to(f, s), aspmv.extras_to(f, s));
    let scalar_root = (0..n_ranks)
        .find(|&r| !is_failed(r))
        .expect("at least one rank survives");
    let x_halo = |s: usize, f: usize| if solve { plan.indices_to(s, f) } else { &[] };
    let sends = |s: usize, f: usize| {
        let (halo, extras) = copies(f, s);
        s == scalar_root || !halo.is_empty() || !extras.is_empty() || !x_halo(s, f).is_empty()
    };
    let tag = Tag::RecoveryCopies.bare();
    let Node {
        st,
        full,
        log,
        recovery,
        ..
    } = &mut *node;
    let scratch = &mut recovery.scratch;
    let mut scalars = None;
    if !am_failed {
        for &f in failed_sorted.iter().filter(|&&f| sends(me, f)) {
            let mut msg = ctx.take_f64s();
            for iter in [jhat - 1, jhat] {
                let held = st.queue.received(iter, f).unwrap_or_else(|| {
                    panic!("survivor {me} holds no copy of p^({iter}) for the rollback to {jhat}")
                });
                msg.extend_from_slice(held);
            }
            msg.extend(x_halo(me, f).iter().map(|&g| st.x[g - range.start]));
            if me == scalar_root {
                msg.extend([st.beta_prev, st.rz]);
                msg.extend_from_slice(log.replay_values());
            }
            ctx.send(f, tag, Payload::F64s(msg));
        }
    } else {
        scratch.prepare(range.len());
        for src in (0..n_ranks).filter(|&s| !is_failed(s) && sends(s, me)) {
            let msg = ctx.recv(src, tag).into_f64s();
            let (halo, extras) = copies(me, src);
            let x_halo = x_halo(src, me);
            let m = halo.len() + extras.len();
            let fixed = 2 * m + x_halo.len() + if src == scalar_root { 2 } else { 0 };
            // Only the root's message carries the log, of any length.
            assert!(
                msg.len() == fixed || (src == scalar_root && msg.len() > fixed),
                "recovery gather: payload length mismatch from rank {src} (protocol violation)"
            );
            let (prev, rest) = msg.split_at(m);
            let (cur, rest) = rest.split_at(m);
            let (xs, rest) = rest.split_at(x_halo.len());
            for (k, &g) in halo.iter().chain(extras).enumerate() {
                let l = g - range.start;
                scratch.p_prev[l] = prev[k];
                scratch.p_cur[l] = cur[k];
                scratch.cov[l] = true;
            }
            for (&g, &v) in x_halo.iter().zip(xs) {
                full[g] = v;
            }
            if let [beta, rz, ref logged @ ..] = *rest {
                scalars = Some((beta, rz));
                log.refill(logged);
            }
            ctx.recycle_f64s(msg);
        }
        assert!(
            scratch.cov.iter().all(|&c| c),
            "insufficient redundancy: some entries of the lost search directions \
             survive on no rank (phi too small for this failure?)"
        );
    }

    // --- Reconstruction math (paper Alg. 2) on the replacements -----------
    let mut inner_iterations = 0usize;
    if am_failed {
        let (beta, rz) = scalars.expect("the scalar root sends β and r·z");
        ctx.set_phase(Phase::RecoveryInner);
        let nloc = range.len();

        // Line 4: z_f = p^(ĵ)_f − β^(ĵ−1) p^(ĵ−1)_f.
        for i in 0..nloc {
            st.z[i] = scratch.p_cur[i] - beta * scratch.p_prev[i];
        }
        ctx.charge_flops(2 * nloc as u64);

        // Line 5: v = z_f − P[f, s] r_s = z_f — the preconditioner is
        // node-local, so P[f, s] ≡ 0.
        // Line 6: solve P[f, f] r_f = v — exact for block-diagonal operators.
        shared
            .precond
            .solve_restricted(range.clone(), &st.z, &mut st.r);
        ctx.charge_flops(shared.precond.solve_restricted_flops(nloc));

        // Lines 7–8, unless the event leaves them to the end solve. Under
        // `Extended` only a lone replacement solves now, sending nothing:
        // no outer iteration reads its `x`, so the solve runs in the
        // background of its later receive waits (`settle_background`).
        if solve {
            let mut lines_7_8 = |ctx: &mut Ctx| solve_lost_x(ctx, node, failed_sorted);
            inner_iterations = if shared.cfg.recovery_rule == RecoveryRule::Extended {
                debug_assert_eq!(failed_sorted.len(), 1, "only a lone replacement solves now");
                ctx.background(lines_7_8)
            } else {
                lines_7_8(ctx)
            };
        }

        // Restore the rest of the replacement's state for iteration ĵ.
        let st = &mut node.st;
        st.p.copy_from_slice(&node.recovery.scratch.p_cur);
        st.beta_prev = beta;
        st.rz = rz;
        if t > 1 {
            // ĵ = mT+1 is a storage-stage end: re-establish the starred
            // copies so the replacement is indistinguishable from a
            // survivor when the loop re-executes iteration ĵ.
            st.take_snapshot(jhat, false);
        }
    }

    inner_iterations
}

/// Alg. 2 lines 7–8 on one member of the subgroup `group` — the failed ranks
/// of an event, or a component of the pending set at the end:
/// `w = b_own − r_own − A[own, ∖group] x`, reading the `x` of the ranks
/// outside `group` from the node's `full`, then the subgroup solve of `A_gg
/// x_g = w`, whose share of the solution lands in the node's `x`. The
/// recovery scratch must be freshly prepared; the stop rule reads the node's
/// ‖b‖₂². Returns the inner iteration count.
///
/// Line 8 couples the members' rows, so the union system is solved by a
/// *distributed* PCG over `group`, as the paper's recovery runs on the
/// replacement nodes (which is why its cost scales with the inner system
/// rather than with the whole machine). Each member owns its own rows and
/// preconditions its own diagonal block with the problem's block Jacobi
/// over its range, the paper's choice for the inner systems too (its
/// blocks there are exactly those of `A[own, own]`). All messages are
/// member rounds ([`InnerSystem::round`]).
///
/// The set-up both recurrences share — `r = w`, `u = P r`, `q = A u` — runs
/// here; then a multi-rank group under [`RecoveryRule::Extended`] runs the
/// pipelined recurrence ([`pipelined_inner_pcg`], one round per
/// iteration), every other solve the single-reduction one
/// ([`single_reduction_inner_pcg`], two). Line 7 is the last reader of the
/// survivors' `x` in `full`: from then on `full` is the rounds' gather
/// buffer, and every later SpMV refills the positions it reads.
fn solve_lost_x(ctx: &mut Ctx, node: &mut Node<'_>, group: &[usize]) -> usize {
    let (shared, be, range) = (node.shared, node.be, node.range.clone());
    let Node {
        full,
        st,
        recovery,
        bnorm2,
        ..
    } = node;
    let nloc = range.len();
    debug_assert!(
        range.is_empty() || group.contains(&shared.part.owner_of(range.start)),
        "my own indices must be inside the subgroup's domain"
    );

    // Per-subgroup cache: the two column-split extractions of my rows.
    // Built once per subgroup (static-data access, uncharged like the
    // paper's safe-storage reloads), reused by every later solve over the
    // same ranks.
    let scratch = &mut recovery.scratch;
    let cache = recovery.domains.entry(group.to_vec()).or_insert_with(|| {
        let my_idx: Vec<usize> = range.clone().collect();
        DomainCache::build(&shared.a, &shared.part, &my_idx, group)
    });

    // Line 7: w = b_f − r_f − A[f, s] x_s. `full` carries the surviving
    // x at exactly the halo positions my rows read; the cached
    // column-split `a_off` is `A[f, s]` as a branch-free SpMV.
    be.spmv_into(&cache.a_off, full, &mut scratch.ax);
    ctx.charge_flops(cache.a_off.spmv_flops());
    let rhs = shared.b[range.clone()].iter().zip(&st.r).zip(&scratch.ax);
    for (w, ((&b, &r), &ax)) in scratch.w.iter_mut().zip(rhs) {
        *w = b - r - ax;
    }
    ctx.charge_flops(2 * nloc as u64);

    // The inner preconditioner is the problem's block Jacobi over my own
    // rows: its blocks there are exactly those of `A[own, own]`, so the
    // simulator applies the shared factors (the paper's static data). The
    // *model* still charges a factorization on every inner solve: a real
    // replacement node is fresh hardware and must re-factor.
    let pre = &shared.precond;
    let max_block = pre.max_block() as u64;
    ctx.charge_flops(max_block * max_block * nloc as u64);

    // Set-up: x = 0, r = w, u = P r in `full`'s own range, q = A u.
    st.x.fill(0.0);
    scratch.ir.copy_from_slice(&scratch.w);
    pre.apply_local(range.clone(), &scratch.ir, &mut full[range.clone()]);
    ctx.charge_flops(pre.apply_flops(range.clone()));
    let sys = InnerSystem {
        shared,
        be,
        own: range,
        group,
        cache,
        bnorm2: *bnorm2,
    };
    let mut seq = 0;
    sys.round(ctx, &mut seq, [], Some((full, &mut scratch.iq)));
    if shared.cfg.recovery_rule == RecoveryRule::Extended && group.len() >= 2 {
        pipelined_inner_pcg(ctx, &sys, &mut seq, scratch, full, &mut st.x)
    } else {
        single_reduction_inner_pcg(ctx, &sys, &mut seq, scratch, full, &mut st.x)
    }
}

/// The connected component of `me` in the plan's peer graph restricted to
/// the pending set, sorted.
fn component_of(shared: &SharedProblem, pending: &[usize], me: usize) -> Vec<usize> {
    let mut component = Vec::with_capacity(pending.len());
    component.push(me);
    let mut next = 0;
    while let Some(&u) = component.get(next) {
        next += 1;
        for &v in pending {
            if !component.contains(&v) && shared.plan.are_peers(u, v) {
                component.push(v);
            }
        }
    }
    component.sort_unstable();
    component
}

/// The deferred reconstruction ([`RecoveryRule::Extended`]), run by every
/// rank when the loop exits with a non-empty pending set U. Each survivor
/// sends each pending halo peer k one values-only message of its `x` over
/// `I(s,k)`; then each connected component K of U in the plan's peer graph
/// solves `A_KK x_K = b_K − r_K − A_{K,S} x_S` from the final recurrence `r`
/// over the subgroup K (Alg. 2 lines 7–8). Components share no rank and no
/// message, so they solve concurrently. Each rank records one recovery span
/// from its clock at the loop's exit and adds it, and its inner iteration
/// count (0 on survivors), to `last`.
fn reconstruct_pending(ctx: &mut Ctx, node: &mut Node<'_>, last: &mut RecoveryOutcome) {
    let shared = node.shared;
    let plan = &*shared.plan;
    let me = ctx.rank();
    let range = node.range.clone();
    let pending = &node.recovery.pending;
    let is_pending = |r: &usize| pending.binary_search(r).is_ok();
    let t_start = ctx.clock();
    ctx.set_phase(Phase::RecoveryGather);
    let tag = Tag::RecoveryCopies.bare();
    if !is_pending(&me) {
        for &k in pending.iter() {
            let idx = plan.indices_to(me, k);
            if !idx.is_empty() {
                let mut msg = ctx.take_f64s();
                msg.extend(idx.iter().map(|&g| node.st.x[g - range.start]));
                ctx.send(k, tag, Payload::F64s(msg));
            }
        }
    } else {
        for s in (0..ctx.size()).filter(|s| !is_pending(s)) {
            let idx = plan.indices_to(s, me);
            if idx.is_empty() {
                continue;
            }
            let msg = ctx.recv(s, tag).into_f64s();
            assert_eq!(
                msg.len(),
                idx.len(),
                "end solve: payload length mismatch from rank {s} (protocol violation)"
            );
            for (&g, &v) in idx.iter().zip(&msg) {
                node.full[g] = v;
            }
            ctx.recycle_f64s(msg);
        }
        let component = component_of(shared, pending, me);
        ctx.set_phase(Phase::RecoveryInner);
        node.recovery.scratch.prepare(range.len());
        last.inner_iterations += solve_lost_x(ctx, node, &component);
    }
    let t_end = ctx.clock();
    ctx.trace_recovery_span(t_start, t_end);
    last.recovery_time += t_end - t_start;
}

/// IMCR recovery to the checkpoint of iteration `jc`: replacements fetch it
/// from their first surviving buddy; survivors have rolled back locally
/// (in `recover`) and serve the copies they hold. The pipelined blob layout
/// carries the replicated `r·z` at `jc`; behind a classic-shaped blob the
/// buddy appends it from the held copy. Last come the buddy's reduction log
/// since `jc`, which the replacement refills its log from.
fn recover_imcr(ctx: &mut Ctx, node: &mut Node<'_>, jc: usize, failed_sorted: &[usize]) {
    let me = ctx.rank();
    let am_failed = failed_sorted.binary_search(&me).is_ok();
    let shared = node.shared;
    let buddies = shared.buddies.as_ref().expect("IMCR requires a buddy map");
    let Node { st, log, .. } = node;
    // The recurrence is shared config: every rank's state has the same shape.
    let blob_has_rz = st.aux.is_some();

    ctx.set_phase(Phase::RecoveryGather);
    if !am_failed {
        // Am I the designated sender for any failed rank?
        for &f in failed_sorted {
            if buddies.first_surviving_buddy(f, failed_sorted) == Some(me) {
                let held = st
                    .held_ckpts
                    .get(&f)
                    .expect("buddy holds the owner's checkpoint");
                assert_eq!(held.iter, jc, "held checkpoint must be the newest");
                let mut copy = ctx.take_f64s();
                copy.extend_from_slice(&held.blob);
                if !blob_has_rz {
                    copy.push(held.rz);
                }
                copy.extend_from_slice(log.replay_values());
                ctx.send(f, Tag::RecoveryCkpt.with(f as u32), Payload::F64s(copy));
            }
        }
    } else {
        let sender = buddies
            .first_surviving_buddy(me, failed_sorted)
            .expect("at least one buddy survives when psi <= phi");
        let msg = ctx
            .recv(sender, Tag::RecoveryCkpt.with(me as u32))
            .into_f64s();
        let appended = usize::from(!blob_has_rz);
        let fixed = checkpoint_blob_len(st.x.len(), blob_has_rz) + appended;
        assert!(
            msg.len() >= fixed,
            "checkpoint fetch: payload length mismatch from rank {sender} (protocol violation)"
        );
        let (blob, rest) = msg.split_at(fixed - appended);
        let (rz, logged) = rest.split_at(appended);
        st.restore_from_blob(blob);
        if let [rz] = *rz {
            st.rz = rz;
        }
        log.refill(logged);
        ctx.recycle_f64s(msg);
        // The replacement's own rollback copy is its restored state.
        st.take_snapshot(jc, true);
    }
    // Held checkpoints for ranks that failed are kept: they are exactly the
    // data just restored; newer held data cannot exist.
}

/// What the inner solve's recurrences and rounds read besides their
/// vectors: the problem (whose block Jacobi over `own` preconditions the
/// inner solve), the node's backend and own range, the member group, the
/// group's cached operator and the stop rule's ‖b‖₂².
struct InnerSystem<'a> {
    shared: &'a SharedProblem,
    be: KernelBackend,
    own: Range<usize>,
    group: &'a [usize],
    cache: &'a DomainCache,
    bnorm2: f64,
}

impl InnerSystem<'_> {
    /// One member round under the next `Tag::RecoveryInner` tag (`seq`
    /// counts a solve's rounds). `spmv` is `Some((full, av))` when the
    /// round carries a vector `v`, which sits in `full`'s own range:
    ///
    /// 1. this member sends every other member one message, `[K partials |
    ///    v over I(me,d)]`, and nothing when both parts are empty;
    /// 2. the interior rows of `av = A[I_own, I_f] v` compute while the
    ///    messages fly;
    /// 3. the receives drain in `group` order,
    ///    the halo values landing in `full` at `I(src, me)`;
    /// 4. the partials are summed starting from the first member's — the
    ///    same additions in the same order on every member, so all hold the
    ///    same bits and stop on the same round;
    /// 5. the boundary rows compute.
    ///
    /// The index lists are the outer SpMV plan's: the columns of
    /// `A[I_f₂, I_f₁]` are exactly its `I(f₁, f₂)` lists. Only the SpMV's
    /// flops are charged, the partials' stay with the caller. With equal
    /// entry clocks a round of partials alone ends after ψα + 8Kβ on the
    /// slowest member (nothing is sent at ψ = 1). Every received payload
    /// goes back to the pool.
    fn round<const K: usize>(
        &self,
        ctx: &mut Ctx,
        seq: &mut u32,
        mine: [f64; K],
        mut spmv: Option<(&mut [f64], &mut [f64])>,
    ) -> [f64; K] {
        *seq += 1;
        let tag = Tag::RecoveryInner.with(*seq);
        let me = ctx.rank();
        let be = self.be;
        let plan = &*self.shared.plan;
        let (a_in, split) = (&self.cache.a_in, &self.cache.inner_split);
        let with_v = spmv.is_some();
        let halo = |src: usize, dst: usize| {
            if with_v {
                plan.indices_to(src, dst)
            } else {
                &[]
            }
        };
        for &d in self.group.iter().filter(|&&d| d != me) {
            let idx = halo(me, d);
            if K == 0 && idx.is_empty() {
                continue;
            }
            let mut msg = ctx.take_f64s();
            msg.extend(mine);
            if let Some((full, _)) = &spmv {
                msg.extend(idx.iter().map(|&i| full[i]));
            }
            ctx.send(d, tag, Payload::F64s(msg));
        }
        if let Some((full, av)) = &mut spmv {
            be.spmv_row_runs_into(a_in, split.interior(), 0, full, av);
            ctx.charge_flops(split.interior_flops());
        }
        let mut sum: Option<[f64; K]> = None;
        for &src in self.group {
            let part = if src == me {
                mine
            } else {
                let idx = halo(src, me);
                if K == 0 && idx.is_empty() {
                    continue;
                }
                let msg = ctx.recv(src, tag).into_f64s();
                assert_eq!(
                    msg.len(),
                    K + idx.len(),
                    "inner solve: payload length mismatch from rank {src} (protocol violation)"
                );
                if let Some((full, _)) = &mut spmv {
                    for (&i, &v) in idx.iter().zip(&msg[K..]) {
                        full[i] = v;
                    }
                }
                let part = std::array::from_fn(|k| msg[k]);
                ctx.recycle_f64s(msg);
                part
            };
            sum = Some(match sum {
                None => part,
                Some(acc) => std::array::from_fn(|k| acc[k] + part[k]),
            });
        }
        if let Some((full, av)) = spmv {
            be.spmv_row_runs_into(a_in, split.boundary(), 0, full, av);
            ctx.charge_flops(split.boundary_flops());
        }
        sum.expect("the group holds this rank")
    }
}

/// Single-reduction PCG (Chronopoulos–Gear, 1989) for the inner system
/// from [`solve_lost_x`]'s set-up: every solve under [`RecoveryRule::Paper`]
/// and a one-rank group's under [`RecoveryRule::Extended`].
///
/// * The recurrence carries `s = A p` beside `p`, applies the operator to
///   `u = P r` instead of `p`, and fuses the iteration's dot products into
///   **one** round of the partials `(r·u, u·Au, r·r)`; `α = γ / (δ −
///   βγ/α_old)` replaces `γ / pᵀAp`. Two rounds per iteration — the halo of
///   `u`, then the partials — instead of three, for 2·nloc more flops (the
///   `s` update) and one more operator application per solve. At ψ = 1 a
///   round sends nothing, so there it costs slightly more than the textbook
///   loop; at ψ ≥ 2 it saves ψα + 24β per iteration. A denominator ≤ 0 is
///   a numerical breakdown: the current iterate is accepted.
/// * A solve of k iterations sends `(halo peers + ψ − 1)(k + 1)` messages
///   per member.
/// * The loop stops by `shared.cfg.recovery_rule` on the `r·r` every
///   iteration already reduces: below `1e-14 · ‖w‖` for `Paper`, at or below
///   `η · rtol · ‖b‖` for `Extended`.
///
/// `u` lives in `full`'s own range. Returns the inner iteration count.
fn single_reduction_inner_pcg(
    ctx: &mut Ctx,
    sys: &InnerSystem<'_>,
    seq: &mut u32,
    scratch: &mut RecoveryScratch,
    full: &mut [f64],
    x: &mut [f64],
) -> usize {
    let (shared, be, own) = (sys.shared, sys.be, &sys.own);
    let (pre, nloc) = (&shared.precond, own.len());
    let RecoveryScratch {
        w,
        ir: r,
        iq: q,
        ip: p,
        is: s,
        ..
    } = scratch;

    // One round of (r·u, u·q, w·w, r·r) closes the set-up.
    let u = &full[own.clone()];
    let mine = [be.dot(r, u), be.dot(u, q), be.dot(w, w), be.dot(r, r)];
    let [mut gamma, mut denom, wnorm2, rr0] = sys.round(ctx, seq, mine, None);
    ctx.charge_flops(8 * nloc as u64);
    let wnorm = wnorm2.sqrt();
    let unconverged = |rr: f64| match shared.cfg.recovery_rule {
        RecoveryRule::Paper => wnorm > 0.0 && rr.sqrt() / wnorm >= PAPER_INNER_RTOL,
        RecoveryRule::Extended => rr > (ETA * shared.cfg.rtol).powi(2) * sys.bnorm2,
    };
    let mut keep_going = unconverged(rr0);
    // p = u and s = q on the first trip: β = 0 over the zeroed p and s.
    let (mut alpha, mut beta) = (gamma / denom, 0.0);

    let mut iterations = 0usize;
    while keep_going && iterations < shared.cfg.inner_max_iters {
        if denom <= 0.0 {
            break; // numerical breakdown; accept the current iterate
        }
        be.axpby(1.0, &full[own.clone()], beta, p);
        be.axpby(1.0, q, beta, s);
        be.fused_axpy2(alpha, p, s, x, r);
        ctx.charge_flops(8 * nloc as u64);
        pre.apply_local(own.clone(), r, &mut full[own.clone()]);
        ctx.charge_flops(pre.apply_flops(own.clone()));
        sys.round(ctx, seq, [], Some((full, q)));
        let u = &full[own.clone()];
        let mine = [be.dot(r, u), be.dot(u, q), be.dot(r, r)];
        let [gamma_new, delta, rr] = sys.round(ctx, seq, mine, None);
        ctx.charge_flops(6 * nloc as u64);
        beta = gamma_new / gamma;
        denom = delta - beta * gamma_new / alpha;
        alpha = gamma_new / denom;
        gamma = gamma_new;
        iterations += 1;
        keep_going = unconverged(rr);
    }
    iterations
}

/// Preconditioned pipelined CG (Ghysels–Vanroose, the recurrence of
/// `pipelined.rs`) for the inner system from [`solve_lost_x`]'s set-up: the
/// end solve of a multi-rank component under [`RecoveryRule::Extended`]. It
/// computes the iteration's dot products before its operator application,
/// so their partials ride the halo message: **one** round per iteration
/// where [`single_reduction_inner_pcg`] needs two.
///
/// * Round i carries the local partials `(r·u, q·u, r·r)` and `m = P q`
///   (written into `full`'s own range), and leaves `A m`.
/// * The round's `r·r` at or below `η · rtol · ‖b‖` accepts `x_i`, and so
///   does round `inner_max_iters`. Otherwise β = γ_i/γ_{i−1}, pᵀAp = δ −
///   β²·pᵀAp_old and α = γ_i/pᵀAp; a pᵀAp ≤ 0 or a non-finite α is a
///   numerical breakdown and accepts `x_i` too. The eight updates `p = u +
///   βp, s = q + βs, h = m + βh, g = Am + βg, x += αp, r −= αs, u −= αh,
///   q −= αg` cost 8·nloc flops per iteration more than the single-reduction
///   loop, which is why a one-rank group, which sends nothing, keeps that
///   loop.
///
/// A solve of k iterations sends `(halo peers in K) + (|K| − 1)(k + 1)`
/// messages per member. The recurrence's vectors beyond the
/// single-reduction loop's allocate nothing: `u` moves to `iu` because `m`
/// takes its place in `full`, `A m` lives in `ax` (spent once line 7 is),
/// `h` in `w` once `r = w` has read it, and `g` in `ig`. Returns the inner
/// iteration count.
fn pipelined_inner_pcg(
    ctx: &mut Ctx,
    sys: &InnerSystem<'_>,
    seq: &mut u32,
    scratch: &mut RecoveryScratch,
    full: &mut [f64],
    x: &mut [f64],
) -> usize {
    let (shared, be, own) = (sys.shared, sys.be, &sys.own);
    let (pre, nloc) = (&shared.precond, own.len());
    let RecoveryScratch {
        w: h,
        ax: am,
        ir: r,
        iq: q,
        ip: p,
        is: s,
        iu: u,
        ig: g,
        ..
    } = scratch;
    u.copy_from_slice(&full[own.clone()]);
    h.fill(0.0);

    let target = (ETA * shared.cfg.rtol).powi(2) * sys.bnorm2;
    let (mut gamma, mut pap) = (0.0, 0.0);
    let mut iterations = 0usize;
    loop {
        let mine = [be.dot(r, u), be.dot(q, u), be.dot(r, r)];
        ctx.charge_flops(6 * nloc as u64);
        pre.apply_local(own.clone(), q, &mut full[own.clone()]);
        ctx.charge_flops(pre.apply_flops(own.clone()));
        let [gamma_new, delta, rr] = sys.round(ctx, seq, mine, Some((full, am)));
        if rr <= target || iterations == shared.cfg.inner_max_iters {
            break;
        }
        let beta = if iterations == 0 {
            0.0
        } else {
            gamma_new / gamma
        };
        pap = delta - beta * beta * pap;
        let alpha = gamma_new / pap;
        if pap <= 0.0 || !alpha.is_finite() {
            break; // numerical breakdown; accept the current iterate
        }
        gamma = gamma_new;
        be.axpby(1.0, u, beta, p);
        be.axpby(1.0, q, beta, s);
        be.axpby(1.0, &full[own.clone()], beta, h);
        be.axpby(1.0, am, beta, g);
        be.fused_axpy2(alpha, p, s, x, r);
        be.axpby(-alpha, h, 1.0, u);
        be.axpby(-alpha, g, 1.0, q);
        ctx.charge_flops(16 * nloc as u64);
        iterations += 1;
    }
    iterations
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::solver::state::NodeState;
    use crate::solver::tests::node_for;
    use esrcg_cluster::{run_spmd, CostModel};

    /// Runs [`solve_lost_x`] on every member of `group` with `w = rhs` over
    /// the member's rows (`full` is zero off the group, so line 7 leaves
    /// `b − r`) and `bnorm2` as the node's ‖b‖₂²: `(k, x, messages sent)` per
    /// member, `None` elsewhere.
    fn solve_on(
        shared: &SharedProblem,
        group: &[usize],
        rhs: fn(usize) -> f64,
        bnorm2: f64,
    ) -> Vec<Option<(usize, Vec<f64>, u64)>> {
        let out = run_spmd(shared.part.n_ranks(), CostModel::default(), |ctx| {
            let me = ctx.rank();
            if group.binary_search(&me).is_err() {
                return None;
            }
            let range = shared.part.range(me);
            let mut st = NodeState::new(range.len());
            st.r = range.clone().map(|g| shared.b[g] - rhs(g)).collect();
            st.x.fill(f64::NAN);
            let mut node = node_for(ctx, shared, st, bnorm2);
            node.recovery.scratch.prepare(range.len());
            let sent = |ctx: &Ctx| ctx.stats().msgs_sent.iter().sum::<u64>();
            let before = sent(ctx);
            let k = solve_lost_x(ctx, &mut node, group);
            Some((k, node.st.x, sent(ctx) - before))
        });
        out.results
    }

    #[test]
    fn a_member_round_is_the_sorted_sum_at_one_hop() {
        use crate::solver::SolverConfig;
        use esrcg_precond::PrecondSpec;
        use esrcg_sparse::gen::poisson2d;
        use std::sync::Arc;

        // Dyadic α and β keep every clock sum exact; k = 3 values. Ten rows
        // a rank: each rank's halo peers are its neighbours.
        let (alpha, beta, k) = (2f64.powi(-20), 2f64.powi(-30), 3);
        let n_ranks = 10;
        let a = poisson2d(10, 10);
        let n = a.nrows();
        let cfg = SolverConfig::new(Strategy::esr(), 3);
        let pre = PrecondSpec::paper_default();
        let shared = SharedProblem::assemble_shared(
            Arc::new(a),
            vec![1.0; n],
            vec![0.0; n],
            n_ranks,
            pre,
            cfg,
        )
        .expect("valid problem");
        let plan = &*shared.plan;
        let partials = |rank: usize| -> [f64; 3] {
            std::array::from_fn(|i| 0.1 + rank as f64 * 0.3 + i as f64 / 7.0)
        };
        let v = |g: usize| (g as f64 * 0.37).sin();
        let subgroups: [&[usize]; 4] = [&[4], &[3, 4], &[0, 4, 9], &[1, 2, 3, 4, 5, 6, 7, 8]];
        for group in subgroups {
            let psi = group.len();
            let out = run_spmd(n_ranks, CostModel::comm_only(alpha, beta), |ctx| {
                let me = ctx.rank();
                if group.binary_search(&me).is_err() {
                    return None;
                }
                let range = shared.part.range(me);
                let own: Vec<usize> = range.clone().collect();
                let cache = DomainCache::build(&shared.a, &shared.part, &own, group);
                let node = node_for(ctx, &shared, NodeState::new(range.len()), 0.0);
                let sys = InnerSystem {
                    shared: &shared,
                    be: node.be,
                    own: node.range.clone(),
                    group,
                    cache: &cache,
                    bnorm2: 0.0,
                };
                let mut seq = 0;
                let sent = |ctx: &Ctx| ctx.stats().msgs_sent.iter().sum::<u64>();
                // The partials alone.
                let sum = sys.round(ctx, &mut seq, partials(me), None);
                let clock = ctx.clock();
                // The partials and a vector, then the vector alone.
                let mut full = vec![f64::NAN; n];
                for g in range.clone() {
                    full[g] = v(g);
                }
                let mut av = vec![f64::NAN; range.len()];
                let before = sent(ctx);
                let both = sys.round(ctx, &mut seq, partials(me), Some((&mut full, &mut av)));
                let with_partials = sent(ctx) - before;
                let mut av_alone = vec![f64::NAN; range.len()];
                let [] = sys.round(ctx, &mut seq, [], Some((&mut full, &mut av_alone)));
                let alone = sent(ctx) - before - with_partials;
                let a_in_v = cache.a_in.spmv(&(0..n).map(v).collect::<Vec<_>>());
                Some((
                    sum,
                    clock,
                    both,
                    full,
                    [av, av_alone],
                    a_in_v,
                    [with_partials, alone],
                ))
            });
            let mut expected = partials(group[0]);
            for &f in &group[1..] {
                for (a, b) in expected.iter_mut().zip(partials(f)) {
                    *a += b;
                }
            }
            let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
            let mut slowest = 0.0f64;
            for &f in group {
                let (sum, clock, both, full, avs, a_in_v, sent) =
                    out.results[f].as_ref().expect("a member");
                assert_eq!(bits(sum), bits(&expected), "ψ = {psi}, rank {f}");
                assert_eq!(bits(both), bits(&expected), "ψ = {psi}, rank {f}");
                slowest = slowest.max(*clock);
                // One message to every other member when partials ride it,
                // one to every halo peer among them when the vector rides
                // alone; the halo values land at I(src, me), and both rounds
                // leave A[I_own, I_f] v.
                let peers = group.iter().filter(|&&d| plan.are_peers(f, d)).count();
                assert_eq!(*sent, [psi as u64 - 1, peers as u64], "ψ = {psi}, rank {f}");
                for &src in group.iter().filter(|&&src| src != f) {
                    for &g in plan.indices_to(src, f) {
                        assert_eq!(full[g].to_bits(), v(g).to_bits(), "ψ = {psi}: {src} → {f}");
                    }
                }
                for av in avs {
                    assert_eq!(bits(av), bits(a_in_v), "ψ = {psi}, rank {f}");
                }
            }
            let critical = if psi == 1 {
                0.0
            } else {
                psi as f64 * alpha + 8.0 * k as f64 * beta
            };
            assert_eq!(slowest.to_bits(), critical.to_bits(), "ψ = {psi}");
        }
    }

    #[test]
    fn inner_solve_is_sequential_pcg_at_one_all_gather_per_iteration() {
        use crate::pcg::pcg;
        use crate::solver::SolverConfig;
        use esrcg_precond::{BlockJacobiPrecond, PrecondSpec};
        use esrcg_sparse::gen::poisson3d;
        use esrcg_sparse::Partition;
        use std::sync::Arc;

        let n_ranks = 8;
        let a = poisson3d(8, 8, 8);
        let n = a.nrows();
        // The oracle below is a relative solve.
        let mut cfg = SolverConfig::new(Strategy::esr(), 3);
        cfg.recovery_rule = RecoveryRule::Paper;
        let pre = PrecondSpec::paper_default();
        let shared = SharedProblem::assemble_shared(
            Arc::new(a),
            vec![1.0; n],
            vec![0.0; n],
            n_ranks,
            pre,
            cfg,
        );
        let shared = Arc::new(shared.expect("valid problem"));
        let rhs = |g: usize| (g as f64 * 0.37).sin() + 0.5;
        let subgroups: [&[usize]; 3] = [&[5], &[2, 3], &[1, 4, 6]];
        for failed in subgroups {
            let psi = failed.len();
            // ‖b‖₂² is unread by the paper's rule.
            let out = solve_on(&shared, failed, rhs, n as f64);

            // The sequential oracle: PCG on A[I_f, I_f] with the same
            // blocks — each failed rank's range cut by the problem's block
            // size.
            let idx: Vec<usize> = failed.iter().flat_map(|&f| shared.part.range(f)).collect();
            let a_ff = shared.a.principal_submatrix(&idx);
            let mut offsets = vec![0];
            for &f in failed {
                offsets.push(offsets.last().unwrap() + shared.part.range(f).len());
            }
            let blocks = Partition::from_offsets(offsets);
            let inner_pre =
                BlockJacobiPrecond::new(&a_ff, &blocks, shared.precond.max_block()).unwrap();
            let w: Vec<f64> = idx.iter().map(|&g| rhs(g)).collect();
            let (rtol, cap) = (PAPER_INNER_RTOL, shared.cfg.inner_max_iters);
            let seq = pcg(&a_ff, &w, &vec![0.0; idx.len()], &inner_pre, rtol, cap);
            assert!(seq.converged, "ψ = {psi}");

            let mut x = Vec::new();
            let k0 = out[failed[0]].as_ref().expect("a replacement").0;
            let k_seq = seq.iterations;
            assert!(k0.abs_diff(k_seq) <= 1, "ψ = {psi}: {k0} vs {k_seq}");
            let rounds = k0 as u64 + 1;
            for &f in failed {
                let (k, ix, sent) = out[f].as_ref().expect("a replacement");
                assert_eq!(*k, k0, "ψ = {psi}: k is replicated");
                // One halo round per operator application (k + 1 of them),
                // one round of partials to the ψ − 1 others per reduction.
                let peers = shared.plan.sends_of(f).iter();
                let halo = peers.filter(|(d, _)| failed.contains(d)).count() as u64;
                let gathers = (psi as u64 - 1) * rounds;
                assert_eq!(*sent, halo * rounds + gathers, "ψ = {psi}, rank {f}");
                x.extend_from_slice(ix);
            }
            let diff = x.iter().zip(&seq.x).map(|(a, b)| (a - b) * (a - b));
            let norm = seq.x.iter().map(|v| v * v).sum::<f64>().sqrt();
            let rel = diff.sum::<f64>().sqrt() / norm;
            assert!(rel < 1e-12, "ψ = {psi}: relative difference {rel:e}");
        }
    }

    #[test]
    fn a_recovery_is_one_round_of_messages_after_the_agreement() {
        use crate::aspmv::{AspmvPlan, BuddyMap};
        use crate::dist::plan::CommPlan;
        use crate::driver::{Experiment, MatrixSource};
        use esrcg_cluster::{CostModel, InstantKind, TraceConfig, TraceEvent};
        use esrcg_sparse::gen::poisson2d;
        use esrcg_sparse::Partition;

        // Dyadic α and β keep every clock sum exact; compute is free.
        let (alpha, beta) = (2f64.powi(-20), 2f64.powi(-30));
        let (n_ranks, phi) = (4, 2);
        let a = poisson2d(16, 16);
        let part = Partition::balanced(a.nrows(), n_ranks);
        let plan = CommPlan::build(&a, &part);
        let aspmv = AspmvPlan::build(&plan, &part, phi);
        let buddies = BuddyMap::new(n_ranks, phi);
        let kind = |t: Tag| t as u32;
        // `(peer, tag kind, bytes, clock after the injection)` of a send.
        type Sent = (usize, u32, usize, f64);
        for strategy in [
            Strategy::esr(),
            Strategy::Esrp { t: 5 },
            Strategy::Imcr { t: 5 },
        ] {
            for psi in [1, 2] {
                let label = format!("{strategy} ψ = {psi}");
                let report = Experiment::builder()
                    .matrix(MatrixSource::Poisson2d { nx: 16, ny: 16 })
                    .n_ranks(n_ranks)
                    .strategy(strategy)
                    .phi(phi)
                    .cost_model(CostModel::comm_only(alpha, beta))
                    .failure_at(12, 1, psi)
                    .trace(TraceConfig::Full)
                    .run()
                    .expect("run");
                let failed: Vec<usize> = (1..1 + psi).collect();
                let root = 0;
                // ESR/ESRP defer a ψ = 2 event's `x` to the end solve.
                let deferred = psi == 2 && strategy.uses_aspmv();
                // The reduction log since the rollback target: three values
                // per redone classic trip (pᵀAp, r·z, r·r). ESR redoes none.
                let logged = 3 * report.recoveries[0].wasted_iterations;
                assert_eq!(logged == 0, strategy.is_esr(), "{label}");
                // What survivor `s` sends replacement `f`, in values (None:
                // no message): ESR/ESRP the need-to-know gather — without the
                // `x` halo when the event defers, the root's with the log
                // behind its scalars — IMCR the blob, r·z and the log from
                // the first surviving buddy.
                let gather = |s: usize, f: usize| -> Option<usize> {
                    if matches!(strategy, Strategy::Imcr { .. }) {
                        let nloc = part.range(f).len();
                        let sender = buddies.first_surviving_buddy(f, &failed);
                        let values = checkpoint_blob_len(nloc, false) + 1 + logged;
                        return (sender == Some(s)).then_some(values);
                    }
                    let copies = plan.indices_to(f, s).len() + aspmv.extras_to(f, s).len();
                    let x_halo = if deferred {
                        0
                    } else {
                        plan.indices_to(s, f).len()
                    };
                    let scalars = if s == root { 2 + logged } else { 0 };
                    let values = 2 * copies + x_halo + scalars;
                    (values > 0).then_some(values)
                };
                let gather_kind = match strategy {
                    Strategy::Imcr { .. } => kind(Tag::RecoveryCkpt),
                    _ => kind(Tag::RecoveryCopies),
                };

                // Each rank's events from the failure to the end of its part
                // of the recovery, and its clock leaving the entry barrier.
                let trace = report.trace.as_ref().expect("traced run");
                let window = |r: usize| -> &[TraceEvent] {
                    let events = &trace.ranks[r].events;
                    let failure = events.iter().position(|ev| {
                        matches!(
                            ev,
                            TraceEvent::Instant {
                                kind: InstantKind::FailureTrigger,
                                ..
                            }
                        )
                    });
                    let span = events
                        .iter()
                        .position(|ev| matches!(ev, TraceEvent::RecoverySpan { .. }));
                    &events[failure.expect("a failure")..=span.expect("a recovery span")]
                };
                let span_end = |r: usize| match window(r).last() {
                    Some(TraceEvent::RecoverySpan { end, .. }) => *end,
                    _ => unreachable!(),
                };
                // The clock after the last receive of kind `k` on rank `r`.
                let last_recv = |r: usize, k: u32| {
                    window(r).iter().rev().find_map(|ev| match ev {
                        TraceEvent::Recv { tag_kind, at, .. } if *tag_kind == k => Some(*at),
                        _ => None,
                    })
                };
                let barrier_exit = |r: usize| last_recv(r, kind(Tag::Barrier)).expect("a barrier");

                let mut completion = vec![0.0f64; n_ranks];
                for &f in &failed {
                    completion[f] = barrier_exit(f);
                }
                for r in 0..n_ranks {
                    let sends: Vec<Sent> = window(r)
                        .iter()
                        .filter_map(|ev| match ev {
                            TraceEvent::Send {
                                peer,
                                tag_kind,
                                bytes,
                                at,
                            } => Some((*peer, *tag_kind, *bytes, *at)),
                            _ => None,
                        })
                        .collect();
                    // The entry barrier's ⌈log₂N⌉ rounds and no collective
                    // after it.
                    let collectives = [Tag::Reduce, Tag::Bcast, Tag::Barrier].map(kind);
                    let (sync, rest): (Vec<&Sent>, Vec<&Sent>) =
                        sends.iter().partition(|m| collectives.contains(&m.1));
                    assert_eq!(sync.len(), 2, "{label}, rank {r}: entry barrier only");
                    assert!(sync.iter().all(|m| m.1 == kind(Tag::Barrier)), "{label}");
                    assert!(
                        rest.iter().all(|m| m.3 > barrier_exit(r)),
                        "{label}, rank {r}: nothing is sent before the agreement"
                    );
                    if failed.contains(&r) {
                        // A replacement sends only inner-solve traffic to
                        // the other replacements, and nothing when the event
                        // defers its `x`.
                        let inner =
                            |m: &&Sent| m.1 == kind(Tag::RecoveryInner) && failed.contains(&m.0);
                        assert!(rest.iter().all(inner), "{label}, rank {r}");
                        assert!(!deferred || rest.is_empty(), "{label}, rank {r}");
                        continue;
                    }
                    // A survivor sends each replacement at most one message,
                    // exactly where it has something to send, values only,
                    // injected right after the agreement.
                    let mut k = 0;
                    for &f in &failed {
                        let to_f: Vec<_> = rest.iter().filter(|m| m.0 == f).collect();
                        match gather(r, f) {
                            None => assert!(to_f.is_empty(), "{label}: {r} → {f}"),
                            Some(values) => {
                                assert_eq!(to_f.len(), 1, "{label}: {r} → {f}");
                                let &&(_, tag_kind, bytes, at) = to_f[0];
                                assert_eq!((tag_kind, bytes), (gather_kind, 8 * values), "{label}");
                                k += 1;
                                let sent = barrier_exit(r) + k as f64 * alpha;
                                assert_eq!(at.to_bits(), sent.to_bits(), "{label}: {r} → {f}");
                                let arrival = sent + alpha + bytes as f64 * beta;
                                completion[f] = completion[f].max(arrival);
                            }
                        }
                    }
                    assert_eq!(rest.len(), k, "{label}: survivor {r} sends only the gather");
                    let done = barrier_exit(r) + k as f64 * alpha;
                    assert_eq!(span_end(r).to_bits(), done.to_bits(), "{label}, rank {r}");
                }
                // The gather completes one hop after the senders' agreement;
                // a lone replacement (its inner solve sends nothing), a
                // deferring one or an IMCR replacement is done right then.
                for &f in &failed {
                    let done = last_recv(f, gather_kind).expect("a gather");
                    assert_eq!(done.to_bits(), completion[f].to_bits(), "{label}, rank {f}");
                    if psi == 1 || deferred || matches!(strategy, Strategy::Imcr { .. }) {
                        assert_eq!(span_end(f).to_bits(), done.to_bits(), "{label}, rank {f}");
                    }
                }

                // Each rank's recovery spans: the event's, then the end
                // solve's when the event deferred.
                let spans = |r: usize| -> Vec<(f64, f64)> {
                    let events = trace.ranks[r].events.iter();
                    let spans = events.filter_map(|ev| match ev {
                        TraceEvent::RecoverySpan { start, end } => Some((*start, *end)),
                        _ => None,
                    });
                    spans.collect()
                };
                for r in 0..n_ranks {
                    assert_eq!(
                        spans(r).len(),
                        1 + usize::from(deferred),
                        "{label}, rank {r}"
                    );
                }
                if deferred {
                    // The end solve: every survivor sends each pending halo
                    // peer exactly one values-only message of its `x` over
                    // I(s,k), the k-th one at its loop exit + kα; after that
                    // only the pending ranks' inner traffic among themselves.
                    for r in 0..n_ranks {
                        let (start, end) = spans(r)[1];
                        let events = trace.ranks[r].events.iter();
                        let sends: Vec<Sent> = events
                            .filter_map(|ev| match ev {
                                TraceEvent::Send {
                                    peer,
                                    tag_kind,
                                    bytes,
                                    at,
                                } if *at > start && *at <= end => {
                                    Some((*peer, *tag_kind, *bytes, *at))
                                }
                                _ => None,
                            })
                            .collect();
                        if failed.contains(&r) {
                            let inner =
                                |m: &Sent| m.1 == kind(Tag::RecoveryInner) && failed.contains(&m.0);
                            assert!(!sends.is_empty(), "{label}, rank {r}: the end solve");
                            assert!(sends.iter().all(inner), "{label}, rank {r}");
                            continue;
                        }
                        let peers = failed
                            .iter()
                            .filter(|&&f| !plan.indices_to(r, f).is_empty());
                        let expected: Vec<Sent> = peers
                            .enumerate()
                            .map(|(k, &f)| {
                                let bytes = 8 * plan.indices_to(r, f).len();
                                let at = start + (k + 1) as f64 * alpha;
                                (f, kind(Tag::RecoveryCopies), bytes, at)
                            })
                            .collect();
                        let bits = |v: &[Sent]| -> Vec<(usize, u32, usize, u64)> {
                            v.iter().map(|m| (m.0, m.1, m.2, m.3.to_bits())).collect()
                        };
                        assert_eq!(bits(&sends), bits(&expected), "{label}, rank {r}");
                        let done = start + expected.len() as f64 * alpha;
                        assert_eq!(end.to_bits(), done.to_bits(), "{label}, rank {r}");
                    }
                }
                // The reported cost is the latest rank's sum of spans.
                let latest = (0..n_ranks)
                    .map(|r| spans(r).iter().fold(0.0, |sum, (s, e)| sum + (e - s)))
                    .fold(0.0, f64::max);
                let reported = report.recoveries[0].recovery_time;
                assert_eq!(reported.to_bits(), latest.to_bits(), "{label}");
            }
        }
    }

    #[test]
    fn a_lone_recovery_solves_in_the_background_of_later_waits() {
        use crate::driver::{Experiment, MatrixSource};
        use crate::PcgVariant;
        use esrcg_cluster::{FailureSpec, InstantKind, TraceConfig, TraceEvent};

        // Poisson2d 24×24 on 4 ranks; a lone event on rank 1 at 12, whose
        // cost stays below its own inner solve's. The two-event runs add a
        // second on rank 2 at the first iteration the schedule allows (13,
        // or 17 after ESRP's storage stage 15–16), under a latency of
        // 0.2 µs, so that rank 1's reduction waits leave part of its solve
        // owed. The inner flops per replacement are the eager schedule's,
        // recorded before the solve ran in the background: 243 084 (k = 36),
        // and 236 976 (k = 35) for the s-step ESRP's first event.
        let gamma = CostModel::default().seconds_per_flop;
        let short_waits = CostModel {
            alpha: 2.0e-7,
            ..CostModel::default()
        };
        let trigger = |ev: &TraceEvent| match *ev {
            TraceEvent::Instant {
                kind: InstantKind::FailureTrigger,
                at,
                ..
            } => Some(at),
            _ => None,
        };
        let span = |ev: &TraceEvent| match *ev {
            TraceEvent::RecoverySpan { start, end } => Some((start, end)),
            _ => None,
        };
        let variants = [
            PcgVariant::Classic,
            PcgVariant::Pipelined,
            PcgVariant::SStep { s: 4 },
        ];
        for variant in variants {
            for t in [1, 5] {
                let first_flops = match (variant, t) {
                    (PcgVariant::SStep { .. }, 5) => 236_976,
                    _ => 243_084,
                };
                for two in [false, true] {
                    let label = format!("{variant:?}, T = {t}, two events: {two}");
                    let mut failures = vec![FailureSpec::contiguous(12, 1, 1, 4)];
                    let mut cost = CostModel::default();
                    if two {
                        let second_at = if t == 1 { 13 } else { 17 };
                        failures.push(FailureSpec::contiguous(second_at, 2, 1, 4));
                        cost = short_waits;
                    }
                    let report = Experiment::builder()
                        .matrix(MatrixSource::Poisson2d { nx: 24, ny: 24 })
                        .n_ranks(4)
                        .variant(variant)
                        .strategy(Strategy::Esrp { t })
                        .phi(1)
                        .failures(failures)
                        .cost_model(cost)
                        .trace(TraceConfig::Spans)
                        .run()
                        .expect("run");
                    let inner_flops =
                        |r: usize| report.per_rank_stats[r].flops[Phase::RecoveryInner as usize];
                    let inner_time = |r: usize| {
                        report.per_rank_stats[r].modeled_time[Phase::RecoveryInner as usize]
                    };
                    assert_eq!(inner_flops(1), first_flops, "{label}");
                    assert_eq!(inner_flops(2), if two { 243_084 } else { 0 }, "{label}");
                    for (event, r) in report.recoveries.iter().zip([1, 2]) {
                        let solve = inner_flops(r) as f64 * gamma;
                        assert!(two || event.recovery_time < solve, "{label}");
                        // Every background second reaches the clock once:
                        // absorbed by a wait or settled.
                        assert!((inner_time(r) - solve).abs() <= 1e-12 * solve, "{label}");
                    }
                    let trace = report.trace.as_ref().expect("traced run");
                    assert_eq!(
                        trace.recovery_seconds().to_bits(),
                        report.recovery_seconds().to_bits(),
                        "{label}"
                    );
                    if !two {
                        continue;
                    }
                    // On rank 1 the second event's trigger follows the span
                    // settling its debt, and its agreement starts no earlier
                    // than that span's end: the debtor's clock plus its debt.
                    let events = &trace.ranks[1].events;
                    let triggers: Vec<usize> = (0..events.len())
                        .filter(|&i| trigger(&events[i]).is_some())
                        .collect();
                    let [first, second] = triggers[..] else {
                        panic!("{label}: two triggers on rank 1");
                    };
                    let owed: Vec<(f64, f64)> =
                        events[first..second].iter().filter_map(span).collect();
                    let [(_, first_end), (settle_start, settled)] = owed[..] else {
                        panic!("{label}: the event's span and the settled debt, got {owed:?}");
                    };
                    assert!(
                        settle_start >= first_end && settled > settle_start,
                        "{label}"
                    );
                    assert_eq!(trigger(&events[second]), Some(settled), "{label}");
                    let agreed = events[second..].iter().find_map(span);
                    assert!(
                        agreed.expect("the second event's span").0 >= settled,
                        "{label}"
                    );
                }
            }
        }

        // At the loop's exit the debt is settled before the end solve: on 6
        // ranks under ESR, ranks 0–1 fail at 12 and stay pending, then rank 4
        // — no halo peer of theirs — fails alone at 40, and the short waits
        // left before convergence (56) leave part of its solve owed. Rank 4
        // sends nothing in the end solve, so its span there is empty and
        // starts where the settled one ends.
        let report = Experiment::builder()
            .matrix(MatrixSource::Poisson2d { nx: 24, ny: 24 })
            .n_ranks(6)
            .strategy(Strategy::esr())
            .phi(2)
            .failures(vec![
                FailureSpec::contiguous(12, 0, 2, 6),
                FailureSpec::contiguous(40, 4, 1, 6),
            ])
            .cost_model(short_waits)
            .trace(TraceConfig::Spans)
            .run()
            .expect("run");
        let trace = report.trace.as_ref().expect("traced run");
        assert_eq!(
            trace.recovery_seconds().to_bits(),
            report.recovery_seconds().to_bits()
        );
        let events = &trace.ranks[4].events;
        let second = events.iter().rposition(|ev| trigger(ev).is_some());
        let spans: Vec<(f64, f64)> = events[second.expect("a trigger")..]
            .iter()
            .filter_map(span)
            .collect();
        let [(_, event_end), (settle_start, settled), (solve_start, solved)] = spans[..] else {
            panic!("the event's span, the settled debt and the end solve, got {spans:?}");
        };
        assert!(settle_start >= event_end && settled > settle_start);
        assert_eq!(
            [solve_start, solved].map(f64::to_bits),
            [settled.to_bits(); 2]
        );
    }

    #[test]
    fn end_solve_is_one_message_round_per_inner_iteration() {
        use crate::dist::plan::CommPlan;
        use crate::driver::{Experiment, MatrixSource};
        use esrcg_cluster::{TraceConfig, TraceEvent};
        use esrcg_sparse::gen::poisson2d;
        use esrcg_sparse::Partition;

        // 64 rows a rank: each rank's halo peers are its neighbours.
        let n_ranks = 4;
        let a = poisson2d(16, 16);
        let plan = CommPlan::build(&a, &Partition::balanced(a.nrows(), n_ranks));
        // The component {1, …, ψ}: a pair, and a chain whose middle member
        // has two halo peers in it.
        for psi in [2, 3] {
            let component: Vec<usize> = (1..1 + psi).collect();
            for rule in [RecoveryRule::Paper, RecoveryRule::Extended] {
                let label = format!("ψ = {psi}, {rule:?}");
                let report = Experiment::builder()
                    .matrix(MatrixSource::Poisson2d { nx: 16, ny: 16 })
                    .n_ranks(n_ranks)
                    .strategy(Strategy::Esrp { t: 5 })
                    .phi(psi)
                    .recovery_rule(rule)
                    .failure_at(12, 1, psi)
                    .trace(TraceConfig::Full)
                    .run()
                    .expect("run");
                // One event: its own solve under `Paper`, the end solve's
                // under `Extended`.
                let k = report.recoveries[0].inner_iterations as u64;
                let trace = report.trace.as_ref().expect("traced run");
                for &f in &component {
                    let events = trace.ranks[f].events.iter();
                    let spans: Vec<(f64, f64)> = events
                        .filter_map(|ev| match ev {
                            TraceEvent::RecoverySpan { start, end } => Some((*start, *end)),
                            _ => None,
                        })
                        .collect();
                    // `Paper` solves in the event's span, `Extended` in the
                    // end solve's.
                    let (start, end) = *spans.last().expect("a recovery span");
                    let deferred = rule == RecoveryRule::Extended;
                    assert_eq!(spans.len(), 1 + usize::from(deferred), "{label}, rank {f}");
                    let inner = trace.ranks[f].events.iter().filter(|ev| {
                        matches!(ev, TraceEvent::Send { tag_kind, at, .. }
                            if *tag_kind == Tag::RecoveryInner as u32 && *at > start && *at <= end)
                    });
                    let sent = inner.count() as u64;
                    let peers = component.iter().filter(|&&d| plan.are_peers(f, d)).count() as u64;
                    let others = psi as u64 - 1;
                    let expected = match rule {
                        // A halo round per operator application and a
                        // round of partials per reduction, k + 1 of each.
                        RecoveryRule::Paper => (peers + others) * (k + 1),
                        // One halo round of `u`, then one message to every
                        // other member per round.
                        RecoveryRule::Extended => peers + others * (k + 1),
                    };
                    assert_eq!(sent, expected, "{label}, rank {f}, k = {k}");
                }
            }
        }
    }

    #[test]
    fn end_solve_is_sequential_pcg_at_one_round_per_iteration() {
        use crate::pcg::pcg;
        use crate::solver::SolverConfig;
        use esrcg_precond::{BlockJacobiPrecond, PrecondSpec};
        use esrcg_sparse::gen::poisson3d;
        use esrcg_sparse::Partition;
        use std::sync::Arc;

        let n_ranks = 8;
        let a = Arc::new(poisson3d(8, 8, 8));
        let n = a.nrows();
        let problem = |inner_max_iters: usize| {
            let mut cfg = SolverConfig::new(Strategy::esr(), 3);
            cfg.inner_max_iters = inner_max_iters;
            let pre = PrecondSpec::paper_default();
            let shared = SharedProblem::assemble_shared(
                a.clone(),
                vec![1.0; n],
                vec![0.0; n],
                n_ranks,
                pre,
                cfg,
            );
            Arc::new(shared.expect("valid problem"))
        };
        let shared = problem(SolverConfig::new(Strategy::esr(), 3).inner_max_iters);
        assert_eq!(shared.cfg.recovery_rule, RecoveryRule::Extended);
        // What each member sends in a solve of k iterations.
        let messages = |group: &[usize], f: usize, k: usize| {
            let peers = group
                .iter()
                .filter(|&&d| shared.plan.are_peers(f, d))
                .count();
            (peers + (group.len() - 1) * (k + 1)) as u64
        };
        let rhs: fn(usize) -> f64 = |g| (g as f64 * 0.37).sin() + 0.5;
        // A chain of two, a chain of three, and three members of which no
        // two are halo peers (their messages carry the partials alone).
        let groups: [&'static [usize]; 3] = [&[2, 3], &[1, 2, 3], &[1, 4, 6]];
        for group in groups {
            let psi = group.len();
            // The oracle: PCG on A[I_K, I_K] with the same blocks, stopped
            // at the same ‖r‖ as the fused solve's η · rtol · ‖b‖.
            let idx: Vec<usize> = group.iter().flat_map(|&f| shared.part.range(f)).collect();
            let a_kk = shared.a.principal_submatrix(&idx);
            let mut offsets = vec![0];
            for &f in group {
                offsets.push(offsets.last().unwrap() + shared.part.range(f).len());
            }
            let blocks = Partition::from_offsets(offsets);
            let inner_pre =
                BlockJacobiPrecond::new(&a_kk, &blocks, shared.precond.max_block()).unwrap();
            let w: Vec<f64> = idx.iter().map(|&g| rhs(g)).collect();
            let rtol = 1e-12;
            let wnorm2 = w.iter().map(|v| v * v).sum::<f64>();
            let bnorm2 = wnorm2 * (rtol / (ETA * shared.cfg.rtol)).powi(2);
            let cap = shared.cfg.inner_max_iters;
            let seq = pcg(&a_kk, &w, &vec![0.0; idx.len()], &inner_pre, rtol, cap);
            assert!(seq.converged, "ψ = {psi}");

            let out = solve_on(&shared, group, rhs, bnorm2);
            let k0 = out[group[0]].as_ref().expect("a member").0;
            assert!(
                k0.abs_diff(seq.iterations) <= 1,
                "ψ = {psi}: {k0} vs {}",
                seq.iterations
            );
            let mut x = Vec::new();
            for &f in group {
                let (k, xf, sent) = out[f].as_ref().expect("a member");
                assert_eq!(*k, k0, "ψ = {psi}: k is replicated");
                assert_eq!(*sent, messages(group, f, k0), "ψ = {psi}, rank {f}");
                x.extend_from_slice(xf);
            }
            let diff = x.iter().zip(&seq.x).map(|(a, b)| (a - b) * (a - b));
            let norm = seq.x.iter().map(|v| v * v).sum::<f64>().sqrt();
            let rel = diff.sum::<f64>().sqrt() / norm;
            assert!(rel < 1e-9, "ψ = {psi}: relative difference {rel:e}");

            // A breakdown accepts the current iterate: on w = 0 against an
            // unreachable target the first round's pᵀAp is 0, so x = 0.
            let out = solve_on(&shared, group, |_| 0.0, -1.0);
            for &f in group {
                let (k, xf, sent) = out[f].as_ref().expect("a member");
                assert_eq!(*k, 0, "ψ = {psi}, rank {f}");
                assert!(xf.iter().all(|&v| v == 0.0), "ψ = {psi}, rank {f}");
                assert_eq!(*sent, messages(group, f, 0), "ψ = {psi}, rank {f}");
            }
            // So does the iteration cap.
            let capped = problem(3);
            let out = solve_on(&capped, group, rhs, -1.0);
            for &f in group {
                let (k, xf, sent) = out[f].as_ref().expect("a member");
                assert_eq!(*k, 3, "ψ = {psi}, rank {f}");
                assert!(xf.iter().all(|v| v.is_finite()), "ψ = {psi}, rank {f}");
                assert_eq!(*sent, messages(group, f, 3), "ψ = {psi}, rank {f}");
            }
        }
    }
}
