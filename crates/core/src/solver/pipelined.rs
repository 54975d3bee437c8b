//! The pipelined PCG recurrence (Ghysels–Vanroose): one fused
//! γ/δ/‖r‖² reduction per iteration, started before the preconditioner and
//! SpMV and finished after them. Entering a trip, the state carries
//! iteration-`j` values of `x, r, u(=z), w, p, s(=q), h, g` plus the
//! replicated γ = r·u and the recurrence pᵀAp, so α = γ/pᵀAp is known
//! immediately and the only reduction of the trip overlaps the heavy
//! kernels. See `ARCHITECTURE.md` §"Pipelined reduction pipeline".

use esrcg_cluster::{Ctx, Phase, Tag};

use super::classic::init_residual;
use super::state::NodeState;
use super::{capture_direction, dist_spmv, Node, Recurrence, SharedProblem};

/// Second and third initialization SpMVs (`w = Au` and `g = Ah`).
const INIT_TAG_W: u32 = u32::MAX - 2;
const INIT_TAG_G: u32 = u32::MAX - 3;
/// Recovery: the auxiliary-vector rebuild SpMVs (`w = Au`, `s = Ap`,
/// `g = Ah`). Per-(source, tag) FIFO matching makes reuse across recovery
/// events safe.
const RECOVERY_TAG_W: u32 = u32::MAX - 4;
const RECOVERY_TAG_S: u32 = u32::MAX - 5;
const RECOVERY_TAG_G: u32 = u32::MAX - 6;

/// One fused reduction per iteration, hidden under the preconditioner and
/// the SpMV.
pub(super) struct Pipelined;

impl Recurrence for Pipelined {
    /// Initializes (or re-initializes) the **pipelined** recurrence: on top
    /// of the classic state (`x`, `r`, `z ≡ u = M⁻¹r`, `p = z`) it
    /// establishes `w = Au`, `s ≡ q = Ap = w`, `h = M⁻¹s`, `g = Ah`,
    /// γ = r·z, and `pAp = δ = w·u`. The single fused init allreduce
    /// `[b·b, γ, δ, r·r]` is *started* before the `h`/`g` stage and finished
    /// after it, so even initialization overlaps its reduction. Returns
    /// `(state, ‖b‖₂², r·r)`.
    fn init(
        &mut self,
        ctx: &mut Ctx,
        shared: &SharedProblem,
        full: &mut [f64],
    ) -> (NodeState, f64, f64) {
        let be = shared.cfg.backend.subdivided(ctx.size());
        let range = shared.part.range(ctx.rank());
        let nloc = range.len();
        let mut st = NodeState::new_pipelined(nloc);
        init_residual(ctx, shared, be, &mut st, full);

        // w = A u (u lives in z). The aux box is detached while distributed
        // kernels borrow both it and the rest of the state.
        let mut aux = st.aux.take().expect("pipelined init requires aux state");
        dist_spmv(ctx, shared, be, &st.z, INIT_TAG_W, full, &mut aux.w, None);

        let b_loc = &shared.b[range.clone()];
        let bb_loc = be.dot(b_loc, b_loc);
        let gamma_loc = be.dot(&st.r, &st.z);
        let delta_loc = be.dot(&aux.w, &st.z);
        let rr_loc = be.dot(&st.r, &st.r);
        ctx.charge_flops(8 * nloc as u64);
        let prev = ctx.set_phase(Phase::Reduction);
        let pending = ctx.allreduce_start(&[bb_loc, gamma_loc, delta_loc, rr_loc]);

        // h = M⁻¹w and g = Ah compute while the init reduction flies.
        ctx.set_phase(Phase::Precond);
        shared
            .precond
            .apply_local(range.clone(), &aux.w, &mut aux.h);
        ctx.charge_flops(shared.precond.apply_flops(range.clone()));
        ctx.set_phase(Phase::SpMV);
        dist_spmv(ctx, shared, be, &aux.h, INIT_TAG_G, full, &mut aux.g, None);

        ctx.set_phase(Phase::Reduction);
        let red = pending.finish(ctx);
        ctx.set_phase(prev);
        let (bnorm2, rr) = (red[0], red[3]);
        st.rz = red[1]; // γ₀
        aux.pap = red[2]; // pAp₀ = δ₀ (p₀ = u₀ makes them equal)
        ctx.recycle_f64s(red);

        // β₀ = 0 collapses the first recurrences: p = u, s = w.
        st.p.copy_from_slice(&st.z);
        st.q.copy_from_slice(&aux.w);
        st.beta_prev = 0.0;
        st.aux = Some(aux);
        (st, bnorm2, rr)
    }

    /// Redundant copies of p (explicit; the research twist), then the
    /// starred copies on the second iteration of an ESRP storage stage.
    fn protect(&mut self, ctx: &mut Ctx, node: &mut Node<'_>, j: usize, _: bool) {
        // The pipelined SpMV communicates m = M⁻¹w, not p, so the ASpMV's
        // free halo ride of the search direction disappears. Augmented
        // iterations therefore ship p explicitly over the same augmented
        // index sets, keeping the redundancy queue's coverage guarantee
        // (and its contents) identical to Classic's.
        if node.sched.augmented(j) {
            let mut captured = node.capture_buffer();
            capture_direction(
                ctx,
                node.shared,
                &node.st.p,
                j,
                Tag::PipelinedP,
                &mut node.full,
                &mut captured,
            );
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

    /// The starred copies (and Alg. 2) cover only the classic state
    /// x, r, u(=z), p — deliberately, so ESRP's per-node storage is
    /// unchanged by pipelining. The auxiliary recurrence vectors are
    /// rebuilt *globally* from their definitions: w = Au, s = Ap,
    /// h = M⁻¹s, g = Ah, plus the fused [γ, pᵀAp] reduction. The
    /// three SpMVs need every rank anyway (halo entries of the
    /// reconstructed chunks flow to the survivors), so this costs
    /// the survivors no extra rounds. Survivor aux values are
    /// re-derived rather than bitwise-preserved; the trajectory
    /// stays within the variant's rounding tolerance.
    ///
    /// IMCR blobs carry γ and pᵀAp directly (pᵀAp is a running recurrence,
    /// not recomputable from the vectors), so that rollback is already
    /// complete and bitwise; the variant is shared config, so every rank
    /// skips the rebuild together.
    ///
    /// The rebuild works on the *current* (rolled-back) `x, r, z, p` of
    /// every rank: three distributed SpMVs for `w`, `s ≡ q`, `g`, one local
    /// preconditioner application for `h`, and one fused allreduce
    /// re-establishing the replicated γ = r·u and pᵀAp. Runs under
    /// [`Phase::RecoveryReset`].
    fn resync_after_rollback(&mut self, ctx: &mut Ctx, node: &mut Node<'_>, bitwise: bool) {
        if bitwise {
            return;
        }
        let (shared, be, range) = (node.shared, node.be, node.range.clone());
        let (st, full) = (&mut node.st, &mut node.full);
        let mut aux = st
            .aux
            .take()
            .expect("pipelined recovery requires aux state");
        {
            let NodeState { z, p, q, .. } = &mut *st;
            dist_spmv(ctx, shared, be, z, RECOVERY_TAG_W, full, &mut aux.w, None);
            dist_spmv(ctx, shared, be, p, RECOVERY_TAG_S, full, q, None);
        }
        shared.precond.apply_local(range.clone(), &st.q, &mut aux.h);
        ctx.charge_flops(shared.precond.apply_flops(range.clone()));
        dist_spmv(
            ctx,
            shared,
            be,
            &aux.h,
            RECOVERY_TAG_G,
            full,
            &mut aux.g,
            None,
        );

        let rz_loc = be.dot(&st.r, &st.z);
        let pq_loc = be.dot(&st.p, &st.q);
        ctx.charge_flops(4 * range.len() as u64);
        let red = ctx.allreduce(&[rz_loc, pq_loc]);
        st.rz = red[0];
        aux.pap = red[1];
        ctx.recycle_f64s(red);
        st.aux = Some(aux);
    }

    fn advance(&mut self, ctx: &mut Ctx, node: &mut Node<'_>, j: usize) -> (usize, f64) {
        let (shared, be, range) = (node.shared, node.be, node.range.clone());
        let nloc = range.len();
        let st = &mut node.st;

        // --- α = γ / pᵀAp (both replicated; no reduction needed) ----------
        let pap = st.aux.as_ref().expect("pipelined state").pap;
        assert!(
            pap > 0.0,
            "pᵀAp = {pap} ≤ 0: matrix not SPD to working precision, or the \
             pipelined recurrence drifted past the attainable accuracy"
        );
        let alpha = st.rz / pap;

        // --- x += αp, r −= αs, u −= αh, w −= αg ---------------------------
        ctx.set_phase(Phase::VecOps);
        {
            let NodeState {
                x, r, z, p, q, aux, ..
            } = &mut *st;
            let aux = aux.as_mut().expect("pipelined state");
            be.fused_axpy2(alpha, p, q, x, r);
            be.axpby(-alpha, &aux.h, 1.0, z);
            be.axpby(-alpha, &aux.g, 1.0, &mut aux.w);
        }
        ctx.charge_flops(8 * nloc as u64);

        // --- Fire the fused reduction [γ', δ', ‖r‖²] ----------------------
        ctx.set_phase(Phase::Reduction);
        let (gamma_loc, delta_loc, rr_loc) = {
            let aux = st.aux.as_ref().expect("pipelined state");
            (
                be.dot(&st.r, &st.z),
                be.dot(&aux.w, &st.z),
                be.dot(&st.r, &st.r),
            )
        };
        ctx.charge_flops(6 * nloc as u64);
        let pending = node
            .log
            .allreduce_start(ctx, &[gamma_loc, delta_loc, rr_loc]);

        // --- m = M⁻¹w and n = Am while the reduction flies ----------------
        let mut aux = st.aux.take().expect("pipelined state");
        ctx.set_phase(Phase::Precond);
        shared
            .precond
            .apply_local(range.clone(), &aux.w, &mut aux.m);
        ctx.charge_flops(shared.precond.apply_flops(range));
        ctx.set_phase(Phase::SpMV);
        let full = &mut node.full;
        dist_spmv(ctx, shared, be, &aux.m, j as u32, full, &mut aux.n, None);

        // --- Complete the recurrence scalars ------------------------------
        ctx.set_phase(Phase::Reduction);
        let red = pending.finish(ctx, &mut node.log);
        let (gamma_new, delta, rr) = (red[0], red[1], red[2]);
        ctx.recycle_f64s(red);
        let beta = gamma_new / st.rz;
        aux.pap = delta - beta * beta * aux.pap;
        st.rz = gamma_new;

        // --- p = u + βp, s = w + βs, h = m + βh, g = n + βg ---------------
        ctx.set_phase(Phase::VecOps);
        be.axpby(1.0, &st.z, beta, &mut st.p);
        be.axpby(1.0, &aux.w, beta, &mut st.q);
        be.axpby(1.0, &aux.m, beta, &mut aux.h);
        be.axpby(1.0, &aux.n, beta, &mut aux.g);
        ctx.charge_flops(8 * nloc as u64);
        st.beta_prev = beta;
        st.aux = Some(aux);

        (1, (rr / node.bnorm2).sqrt())
    }
}
