//! The s-step (communication-avoiding) PCG recurrence: one fused Gram
//! reduction per outer step of up to `s` iterations. Each trip
//!
//! 1. protects the **block-start** state (IMCR checkpoint round, explicit
//!    redundant copies of p^(ĵ−1)/p^(ĵ), ESRP starred copies — all of
//!    which land on outer-step boundaries, where the state is exactly
//!    classic-shaped and the transient Krylov block is empty),
//! 2. builds the block basis V = [ρ₀…ρ_s, ζ₀…ζ_{s−1}] by a matrix-powers
//!    sweep (ρ₀ = p, ζ₀ = z, each power one split-phase-halo SpMV plus one
//!    local preconditioner apply; the A-images W fall out for free),
//! 3. reduces the small Gram system [VᵀW, WᵀW, Vᵀr₀, Wᵀr₀, r₀·r₀] with a
//!    **single** fused allreduce,
//! 4. replays up to `s` scalar CG updates on the replicated coordinate
//!    vectors (serial O(s²) arithmetic — bitwise identical on every rank
//!    and across thread counts), truncating early if the monomial basis
//!    runs out of accuracy, then materializes x/r/z/p at the block end.
//!
//! A failure whose iteration falls anywhere inside the window is detected
//! at the block start and rolls back to the last protected block start —
//! the re-executed scalar updates are replicated, so trajectories stay
//! deterministic. See `ARCHITECTURE.md` §"s-step pipeline".

use std::ops::Range;

use esrcg_cluster::{Ctx, Phase, Tag};

use super::recovery::RecoveryOutcome;
use super::state::SStepAux;
use super::tuning::IntervalSchedule;
use super::{capture_direction, dist_spmv, Node, Recurrence};

/// The block size plus what the blocks carry across trips. None of it is
/// node state in the paper's sense: the workspace is per-block scratch
/// (see [`SStepAux`]) and the two labels are replicated control flow.
pub(super) struct SStep {
    s: usize,
    /// Per-block workspace, allocated once: every column is fully
    /// overwritten each outer step.
    aux: SStepAux,
    /// The last block start whose state is protected (checkpoint round,
    /// ESR capture, or ESRP starred copies): the rollback target for any
    /// failure inside a later window. Replicated control flow — identical
    /// on every rank, and it survives failure injection just as the loop
    /// counter does (the paper wipes *node state*, not the program).
    last_protect: Option<usize>,
    /// The iteration label the materialized `aux.p_prev` belongs to
    /// (`Some(j − 1)` entering a block start at j whose predecessor block
    /// completed normally; `None` right after init or a degenerate resume).
    p_prev_at: Option<usize>,
}

impl SStep {
    pub(super) fn new(s: usize, nloc: usize) -> Self {
        SStep {
            s,
            aux: SStepAux::new(s, nloc),
            last_protect: None,
            p_prev_at: None,
        }
    }
}

impl Recurrence for SStep {
    /// Committed updates are counted after the block (a block that ends in
    /// a rollback committed none).
    const COUNTS_TRIP_ON_ENTRY: bool = false;

    fn window(&self, j: usize, max_iters: usize) -> Range<usize> {
        j..(j + self.s).min(max_iters)
    }

    /// One Gram block per outer step. A rollback target lies at most
    /// `t + s − 1` iterations before the current block start, and a block
    /// normally covers `s` of them (a basis breakdown truncates it, and the
    /// log then grows).
    fn log_bound(&self, t: usize) -> usize {
        (t.div_ceil(self.s) + 1) * gram_len(self.s)
    }

    fn protect(&mut self, ctx: &mut Ctx, node: &mut Node<'_>, j: usize, checkpointed: bool) {
        let mut window = self.window(j, node.shared.cfg.max_iters);
        // Checkpoints land on the block start, so the blob stays
        // classic-shaped ([x; r; z; p; β]) — the Krylov block is rebuilt
        // from definitions after any rollback.
        if checkpointed {
            self.last_protect = Some(j);
        }

        // --- Redundant copies of p^(j−1), p^(j) (explicit, block-aligned) --
        // The matrix-powers sweep communicates basis columns, not p, so —
        // as with the pipelined variant — augmented iterations ship the
        // search directions explicitly over the augmented index sets.
        // Both block-start directions are captured so the reconstruction
        // (paper Alg. 2) finds p^(ĵ−1) and p^(ĵ) under its usual labels.
        // ESR (T = 1) protects every block start. ESRP (T > 1) protects
        // only block starts whose window completes a storage stage —
        // capturing at every augmented window would push extra pairs and
        // evict the starred pair from the depth-3 queue before a failure
        // can use it. (`storage_second` is never true for IMCR, and
        // `augmented` never for IMCR either, so IMCR captures nothing.)
        let esr = node.sched.interval() == Some(1);
        let capture_due = j >= 1
            && self.p_prev_at == Some(j - 1)
            && window.any(|jj| {
                if esr {
                    node.sched.augmented(jj)
                } else {
                    node.sched.storage_second(jj)
                }
            });
        if capture_due {
            // After a rollback the queue may still hold slots at or past
            // this block start (survivors keep everything up to the
            // recovery point); drop them so the re-executed captures leave
            // the queue identical to an undisturbed run's. No-op otherwise.
            node.st.queue.purge_after(j - 1);
            for label in [j - 1, j] {
                let mut captured = node.capture_buffer();
                let p = if label < j {
                    &self.aux.p_prev
                } else {
                    &node.st.p
                };
                capture_direction(
                    ctx,
                    node.shared,
                    p,
                    label,
                    Tag::SStepBasis,
                    &mut node.full,
                    &mut captured,
                );
                node.push_capture(label, captured);
            }
            if esr {
                // ESR: every captured block start is a protection round.
                node.note_round();
            } else {
                // --- ESRP storage stage falling in this window: starred
                // copies, β* = β^(j−1) included — the star lands on the
                // block start rather than mid-stage.
                node.star(ctx, j);
            }
            self.last_protect = Some(j);
        }
    }

    /// The last protected block start: every protection event lands on an
    /// outer-step boundary, so a mid-block failure resumes at the enclosing
    /// outer step rather than where the per-iteration schedule would point.
    fn rollback_target(&self, _: &IntervalSchedule, _: usize) -> Option<usize> {
        self.last_protect
    }

    fn resumed(&mut self, ctx: &mut Ctx, node: &mut Node<'_>, out: &RecoveryOutcome) {
        let j = out.resumed_at;
        self.last_protect = (!out.full_restart).then_some(j);
        // Re-materialize p^(ĵ−1) for the re-executed block-start
        // captures: p = z + β·p_prev at the resume point inverts to
        // (p − z)/β. Replicated arithmetic on replicated state.
        if node.shared.cfg.strategy.uses_aspmv() {
            let st = &node.st;
            if j >= 1 && st.beta_prev != 0.0 {
                ctx.set_phase(Phase::RecoveryReset);
                let beta = st.beta_prev;
                for l in 0..st.p.len() {
                    self.aux.p_prev[l] = (st.p[l] - st.z[l]) / beta;
                }
                ctx.charge_flops(2 * st.p.len() as u64);
                self.p_prev_at = Some(j - 1);
            } else {
                self.p_prev_at = None;
            }
        }
    }

    fn advance(&mut self, ctx: &mut Ctx, node: &mut Node<'_>, j: usize) -> (usize, f64) {
        let s = self.s;
        let s_eff = self.window(j, node.shared.cfg.max_iters).len();
        let (shared, cfg, be, range) = (node.shared, &node.shared.cfg, node.be, node.range.clone());
        let nloc = range.len();
        let nv = 2 * s + 1;
        let nw = 2 * s - 1;
        // V-index u → W-index of A·v_u (None for ρ_s and ζ_{s−1}, whose
        // A-images the sweep never needs).
        let aimg = |u: usize| -> Option<usize> {
            match u {
                _ if u < s => Some(u),
                _ if u == s => None,
                _ if u < 2 * s => Some(u - 1),
                _ => None,
            }
        };
        // V-index u → V-index of M⁻¹A·v_u (the basis shift; same None set).
        let shift = |u: usize| -> Option<usize> {
            if u == s || u == 2 * s {
                None
            } else {
                Some(u + 1)
            }
        };
        let bnorm2 = node.bnorm2;
        let (st, full) = (&mut node.st, &mut node.full);
        // Always overwritten: the first update of a block either commits
        // or panics.
        let mut relres = f64::INFINITY;

        // --- Matrix-powers sweep: the block basis and its A-images --------
        // 2s−1 SpMVs and preconditioner applies per block (≈2× the classic
        // work — the communication-avoiding trade), each over the
        // configured halo schedule. Tag subs repeat across the two chains;
        // per-(source, tag) FIFO matching keeps sequential reuse safe.
        ctx.set_phase(Phase::SpMV);
        {
            let SStepAux { v, w, .. } = &mut self.aux;
            v[0].copy_from_slice(&st.p);
            v[s + 1].copy_from_slice(&st.z);
            // One power: w_wi = A·v_vi, then v_(vi+1) = M⁻¹·w_wi.
            let mut power = |vi: usize, wi: usize, tag_sub: u32| {
                dist_spmv(ctx, shared, be, &v[vi], tag_sub, full, &mut w[wi], None);
                ctx.set_phase(Phase::Precond);
                shared
                    .precond
                    .apply_local(range.clone(), &w[wi], &mut v[vi + 1]);
                ctx.charge_flops(shared.precond.apply_flops(range.clone()));
                ctx.set_phase(Phase::SpMV);
            };
            for k in 0..s {
                power(k, k, (j + k) as u32);
            }
            for k in 0..s - 1 {
                power(s + 1 + k, s + k, (j + k) as u32);
            }
        }

        // --- The one fused Gram reduction of the outer step ---------------
        // [G = VᵀW | upper(H = WᵀW) | Vᵀr₀ | Wᵀr₀ | r₀·r₀] in a pooled
        // buffer; started and finished through the split-phase reduce path.
        ctx.set_phase(Phase::Reduction);
        let n_dots = gram_len(s);
        let mut buf = ctx.take_f64s();
        {
            let SStepAux { v, w, .. } = &self.aux;
            for vu in v.iter() {
                for wt in w.iter() {
                    buf.push(be.dot(vu, wt));
                }
            }
            for (a, wa) in w.iter().enumerate() {
                for wb in &w[a..] {
                    buf.push(be.dot(wa, wb));
                }
            }
            for vu in v.iter() {
                buf.push(be.dot(vu, &st.r));
            }
            for wt in w.iter() {
                buf.push(be.dot(wt, &st.r));
            }
            buf.push(be.dot(&st.r, &st.r));
        }
        debug_assert_eq!(buf.len(), n_dots);
        ctx.charge_flops(2 * n_dots as u64 * nloc as u64);
        let pending = node.log.allreduce_start(ctx, &buf);
        ctx.recycle_f64s(buf);
        let red = pending.finish(ctx, &mut node.log);
        let rr0;
        {
            let SStepAux { g, h, vr, wr, .. } = &mut self.aux;
            g.copy_from_slice(&red[..nv * nw]);
            let mut idx = nv * nw;
            for a in 0..nw {
                for b in a..nw {
                    h[a * nw + b] = red[idx];
                    h[b * nw + a] = red[idx];
                    idx += 1;
                }
            }
            vr.copy_from_slice(&red[idx..idx + nv]);
            idx += nv;
            wr.copy_from_slice(&red[idx..idx + nw]);
            idx += nw;
            rr0 = red[idx];
        }
        ctx.recycle_f64s(red);

        // --- Up to s scalar CG updates from replicated coordinates --------
        // All arithmetic below is serial and replicated: every rank holds
        // the same Gram blocks, so every rank derives bitwise-identical
        // α/β/convergence decisions with no further communication.
        ctx.set_phase(Phase::VecOps);
        let mut i_exec = 0usize;
        let mut rz = st.rz;
        let mut beta_last = st.beta_prev;
        {
            let SStepAux {
                g,
                h,
                vr,
                wr,
                ca,
                ca_prev,
                cc,
                ce,
                cf,
                cc_t,
                ce_t,
                cf_t,
                ..
            } = &mut self.aux;
            ca.fill(0.0);
            ca[0] = 1.0; // p = ρ₀
            cc.fill(0.0);
            cc[s + 1] = 1.0; // z = ζ₀
            ce.fill(0.0);
            cf.fill(0.0);
            for i in 0..s_eff {
                // pᵀAp through the Gram block: Σ_t ca_t Σ_u ca_u·(v_u·Av_t).
                let mut pap = 0.0;
                for (t, &cat) in ca.iter().enumerate() {
                    if cat == 0.0 {
                        continue;
                    }
                    let Some(wi) = aimg(t) else {
                        debug_assert!(false, "ca support leaked past the A-image columns");
                        continue;
                    };
                    pap += cat * coord_dot(ca, |u| g[u * nw + wi]);
                }
                if i == 0 {
                    // The i = 0 Gram value is the exact dot p·Ap (up to
                    // reduction rounding): a violation means the matrix,
                    // not the basis.
                    assert!(
                        pap > 0.0,
                        "pᵀAp = {pap} ≤ 0: matrix not SPD to working precision"
                    );
                } else if pap <= 0.0 || pap.is_nan() {
                    // The monomial basis ran out of accuracy mid-block:
                    // truncate without committing. The state stays at
                    // iteration j + i and the next block starts a fresh
                    // basis from the materialized vectors.
                    break;
                }
                let alpha = rz / pap;
                // Tentative coordinate updates (committed only if the
                // derived scalars stay finite).
                for u in 0..nv {
                    ce_t[u] = ce[u] + alpha * ca[u];
                }
                cf_t.copy_from_slice(cf);
                cc_t.copy_from_slice(cc);
                for (t, &cat) in ca.iter().enumerate() {
                    if cat == 0.0 {
                        continue;
                    }
                    match (aimg(t), shift(t)) {
                        (Some(wi), Some(sh)) => {
                            cf_t[wi] -= alpha * cat; // r −= α·Ap
                            cc_t[sh] -= alpha * cat; // z −= α·M⁻¹Ap
                        }
                        _ => debug_assert!(false, "ca support leaked past the basis range"),
                    }
                }
                // ‖r‖² and r·z of the tentative iterate, from the Gram
                // blocks (r = r₀ + W·cf, z = V·cc).
                let mut rr_new = rr0;
                for (wi, &cfw) in cf_t.iter().enumerate() {
                    if cfw == 0.0 {
                        continue;
                    }
                    rr_new += 2.0 * cfw * wr[wi];
                    rr_new += cfw * coord_dot(cf_t, |w2| h[wi * nw + w2]);
                }
                let mut rz_new = coord_dot(cc_t, |u| vr[u]);
                for (wi, &cfw) in cf_t.iter().enumerate() {
                    if cfw != 0.0 {
                        rz_new += cfw * coord_dot(cc_t, |u| g[u * nw + wi]);
                    }
                }
                if !(rr_new.is_finite() && rz_new.is_finite()) {
                    assert!(
                        i > 0,
                        "s-step Gram recurrence non-finite on the first update"
                    );
                    break;
                }
                // Commit, mirroring one classic iteration (including the
                // unconditional p-update — classic never gates on β's sign).
                std::mem::swap(ce, ce_t);
                std::mem::swap(cf, cf_t);
                std::mem::swap(cc, cc_t);
                i_exec = i + 1;
                let beta = rz_new / rz;
                for u in 0..nv {
                    ca_prev[u] = ca[u];
                    ca[u] = cc[u] + beta * ca_prev[u];
                }
                beta_last = beta;
                rz = rz_new;
                relres = (rr_new.max(0.0) / bnorm2).sqrt();
                if relres < cfg.rtol || j + i + 1 >= cfg.max_iters {
                    break;
                }
            }
        }
        ctx.charge_flops(i_exec as u64 * (4 * nv * nw + 2 * nw * nw + 8 * nv) as u64);

        // --- Materialize the block-end state ------------------------------
        // Column-by-column axpys in fixed index order: bitwise identical
        // across thread counts and formats (the backend's per-vector
        // kernels already are).
        ctx.set_phase(Phase::VecOps);
        let j_next = j + i_exec;
        let aux = &mut self.aux;
        let mut axpys = 0u64;
        // dst += Σ_u c_u·col_u over the nonzero coordinates, one axpy each.
        let mut combine = |coef: &[f64], cols: &[Vec<f64>], dst: &mut [f64]| {
            for (&c, col) in coef.iter().zip(cols) {
                if c != 0.0 {
                    be.axpby(c, col, 1.0, dst);
                    axpys += 1;
                }
            }
        };
        combine(&aux.ce, &aux.v, &mut st.x);
        combine(&aux.cf, &aux.w, &mut st.r);
        st.z.fill(0.0);
        combine(&aux.cc, &aux.v, &mut st.z);
        st.p.fill(0.0);
        combine(&aux.ca, &aux.v, &mut st.p);
        let converged_now = relres < cfg.rtol;
        if cfg.strategy.uses_aspmv() && !converged_now {
            // p^(j_next − 1) for the next block start's capture. After
            // ≥ 1 committed update ca_prev holds the previous p's
            // coordinates in *this* block's basis.
            aux.p_prev.fill(0.0);
            combine(&aux.ca_prev, &aux.v, &mut aux.p_prev);
            self.p_prev_at = Some(j_next - 1);
        }
        ctx.charge_flops(axpys * 2 * nloc as u64);
        st.rz = rz;
        st.beta_prev = beta_last;

        (i_exec, relres)
    }
}

/// The length of one outer step's fused Gram reduction
/// `[G = VᵀW | upper(H = WᵀW) | Vᵀr₀ | Wᵀr₀ | r₀·r₀]`.
fn gram_len(s: usize) -> usize {
    let (nv, nw) = (2 * s + 1, 2 * s - 1);
    nv * nw + nw * (nw + 1) / 2 + nv + nw + 1
}

/// Σ_u c_u·m(u) over the nonzero coordinates, accumulated in index order.
fn coord_dot(c: &[f64], m: impl Fn(usize) -> f64) -> f64 {
    let mut acc = 0.0;
    for (u, &cu) in c.iter().enumerate() {
        if cu != 0.0 {
            acc += cu * m(u);
        }
    }
    acc
}
