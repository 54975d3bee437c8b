//! The classic PCG recurrence (paper Alg. 3) — the bitwise-reference
//! baseline, and the shape the other recurrences fall back to wherever
//! their state is classic-shaped (the [`Recurrence`] defaults).

use esrcg_cluster::{Ctx, Phase};
use esrcg_sparse::KernelBackend;

use super::state::NodeState;
use super::{dist_spmv, Node, Recurrence, SharedProblem, INIT_TAG};

/// Two blocking reductions per iteration (pᵀAp, then the fused rz/rr), both
/// through the node's reduction log.
pub(super) struct Classic;

/// Initializes (or re-initializes) the PCG state from the static data:
/// `x = x0`, `r = b − A x`, `z = P r`, `p = z`, plus the replicated `r·z`.
/// Returns `(state, ‖b‖₂², r·r)` — one fused vector allreduce carries all
/// init scalars (b·b, r·z, r·r), so startup pays a single tree latency where
/// it used to pay two. Element-wise tree sums are component-independent, so
/// each fused value is bitwise identical to its formerly separate
/// reduction. Compute charges to the surrounding phase; the reduction is
/// attributed to [`Phase::Reduction`].
pub(super) fn init_state(
    ctx: &mut Ctx,
    shared: &SharedProblem,
    full: &mut [f64],
) -> (NodeState, f64, f64) {
    // Ranks run concurrently, up to one per core: divide the kernel thread
    // budget so together they use the machine once over, not n_ranks times.
    let be = shared.cfg.backend.subdivided(ctx.size());
    let range = shared.part.range(ctx.rank());
    let nloc = range.len();
    let mut st = NodeState::new(nloc);

    init_residual(ctx, shared, be, &mut st, full);
    st.p.copy_from_slice(&st.z);

    let b_loc = &shared.b[range.clone()];
    let bb_loc = be.dot(b_loc, b_loc);
    let rz_loc = be.dot(&st.r, &st.z);
    let rr_loc = be.dot(&st.r, &st.r);
    ctx.charge_flops(6 * nloc as u64);
    let prev = ctx.set_phase(Phase::Reduction);
    let red = ctx.allreduce(&[bb_loc, rz_loc, rr_loc]);
    ctx.set_phase(prev);
    let (bnorm2, rr) = (red[0], red[2]);
    st.rz = red[1];
    st.beta_prev = 0.0;
    ctx.recycle_f64s(red);
    (st, bnorm2, rr)
}

/// The start every recurrence's initialization shares, on this rank's rows:
/// `x = x0`, `q = A x` (under [`INIT_TAG`]), `r = b − q` and `z = P r`.
/// Compute charges to the surrounding phase.
pub(super) fn init_residual(
    ctx: &mut Ctx,
    shared: &SharedProblem,
    be: KernelBackend,
    st: &mut NodeState,
    full: &mut [f64],
) {
    let range = shared.part.range(ctx.rank());
    st.x.copy_from_slice(&shared.x0[range.clone()]);
    dist_spmv(ctx, shared, be, &st.x, INIT_TAG, full, &mut st.q, None);
    for i in 0..range.len() {
        st.r[i] = shared.b[range.start + i] - st.q[i];
    }
    ctx.charge_flops(range.len() as u64);
    shared.precond.apply_local(range.clone(), &st.r, &mut st.z);
    ctx.charge_flops(shared.precond.apply_flops(range));
}

impl Recurrence for Classic {
    /// The SpMV of the trip — on augmented iterations the ASpMV, which *is*
    /// the protection event (the search direction rides the halo for free)
    /// and therefore runs before the failure check — then the starred
    /// copies on the second iteration of an ESRP storage stage.
    fn protect(&mut self, ctx: &mut Ctx, node: &mut Node<'_>, j: usize, _: bool) {
        ctx.set_phase(Phase::SpMV);
        // The captured copies are the blocking product's — the `dist_spmv`
        // oracle test pins the set — and their order is fixed by the plan,
        // so the redundancy queue never depends on the overlap.
        let mut captured = node.sched.augmented(j).then(|| node.capture_buffer());
        let NodeState { p, q, .. } = &mut node.st;
        dist_spmv(
            ctx,
            node.shared,
            node.be,
            p,
            j as u32,
            &mut node.full,
            q,
            captured.as_mut(),
        );
        if let Some(captured) = captured {
            node.push_capture(j, captured);
            if node.sched.interval() == Some(1) {
                // ESR: every augmented iteration is one protection round.
                node.note_round();
            }
        }
        if node.sched.storage_second(j) {
            node.star(ctx, j);
        }
    }

    fn advance(&mut self, ctx: &mut Ctx, node: &mut Node<'_>, _j: usize) -> (usize, f64) {
        let (shared, be, range) = (node.shared, node.be, node.range.clone());
        let nloc = range.len();
        let st = &mut node.st;

        // --- α = r·z / p·Ap ------------------------------------------------
        ctx.set_phase(Phase::Reduction);
        let pq_loc = be.dot(&st.p, &st.q);
        ctx.charge_flops(2 * nloc as u64);
        let red = node.log.allreduce(ctx, &[pq_loc]);
        let pap = red[0];
        ctx.recycle_f64s(red);
        assert!(
            pap > 0.0,
            "pᵀAp = {pap} ≤ 0: matrix not SPD to working precision"
        );
        let alpha = st.rz / pap;

        // --- x += αp, r −= αq (one fused sweep) ----------------------------
        ctx.set_phase(Phase::VecOps);
        be.fused_axpy2(alpha, &st.p, &st.q, &mut st.x, &mut st.r);
        ctx.charge_flops(4 * nloc as u64);

        // --- z = P r --------------------------------------------------------
        ctx.set_phase(Phase::Precond);
        shared.precond.apply_local(range.clone(), &st.r, &mut st.z);
        ctx.charge_flops(shared.precond.apply_flops(range));

        // --- β and the convergence norm (one fused reduction) -------------
        ctx.set_phase(Phase::Reduction);
        let rz_loc = be.dot(&st.r, &st.z);
        let rr_loc = be.dot(&st.r, &st.r);
        ctx.charge_flops(4 * nloc as u64);
        let red = node.log.allreduce(ctx, &[rz_loc, rr_loc]);
        let (rz_new, rr) = (red[0], red[1]);
        ctx.recycle_f64s(red);
        let beta = rz_new / st.rz;
        st.rz = rz_new;

        // --- p = z + βp -----------------------------------------------------
        ctx.set_phase(Phase::VecOps);
        be.axpby(1.0, &st.z, beta, &mut st.p);
        ctx.charge_flops(2 * nloc as u64);
        st.beta_prev = beta;

        (1, (rr / node.bnorm2).sqrt())
    }
}
