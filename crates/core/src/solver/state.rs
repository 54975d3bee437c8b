//! Per-node dynamic solver state.
//!
//! Everything in `NodeState` is *dynamic data* in the paper's sense
//! (§1.1): it is lost when the node fails. Static data (matrix rows,
//! preconditioner, right-hand side) lives in
//! [`SharedProblem`](crate::solver::SharedProblem) and is considered
//! re-loadable from safe storage.

use std::collections::HashMap;

use crate::queue::RedundancyQueue;

/// Auxiliary recurrence state of the **pipelined** PCG variant
/// (Ghysels–Vanroose; see `ARCHITECTURE.md` §"Pipelined reduction
/// pipeline"). The pipelined recurrence reuses `NodeState::z` as
/// `u = M⁻¹r` and `NodeState::q` as `s = Ap` (identical mathematical
/// roles), so only three extra recurrence vectors, two per-trip scratch
/// vectors, and the `pᵀAp` recurrence scalar are genuinely new.
#[derive(Debug, Clone)]
pub(crate) struct PipelinedAux {
    /// w = A u (the preconditioned-residual image under A).
    pub w: Vec<f64>,
    /// h = M⁻¹ s (the preconditioned search-direction image).
    pub h: Vec<f64>,
    /// g = A h.
    pub g: Vec<f64>,
    /// Per-trip scratch m = M⁻¹ w (held here so the loop allocates
    /// nothing; never checkpointed).
    pub m: Vec<f64>,
    /// Per-trip scratch n = A m (never checkpointed).
    pub n: Vec<f64>,
    /// The replicated pᵀAp of the current iteration, maintained by the
    /// recurrence `pAp' = δ' − β²·pAp` instead of a dedicated reduction.
    pub pap: f64,
}

impl PipelinedAux {
    pub(crate) fn new(nloc: usize) -> Self {
        PipelinedAux {
            w: vec![0.0; nloc],
            h: vec![0.0; nloc],
            g: vec![0.0; nloc],
            m: vec![0.0; nloc],
            n: vec![0.0; nloc],
            pap: 0.0,
        }
    }
}

/// Per-block workspace of the **s-step** (communication-avoiding) PCG
/// variant (Chronopoulos–Gear / Carson–Demmel lineage; see
/// `ARCHITECTURE.md` §"s-step pipeline"). Unlike [`PipelinedAux`] this is
/// *not* part of [`NodeState`]: every column is fully overwritten by the
/// matrix-powers sweep at the start of each outer step, so the basis is
/// per-block scratch — a failed node's replacement rebuilds it from
/// definitions and `wipe` never needs to touch it. The s-step recurrence
/// owns one, allocated once before the outer loop.
#[derive(Debug, Clone)]
pub(crate) struct SStepAux {
    /// Basis columns V = [ρ₀…ρ_s, ζ₀…ζ_{s−1}]: ρ₀ = p, ρ_{k+1} = M⁻¹Aρ_k,
    /// ζ₀ = z, ζ_{k+1} = M⁻¹Aζ_k — `2s+1` columns of `nloc` each.
    pub v: Vec<Vec<f64>>,
    /// A-images W = [Aρ₀…Aρ_{s−1}, Aζ₀…Aζ_{s−2}] (`2s−1` columns),
    /// produced for free by the sweep (each power is one SpMV into a W
    /// column followed by one local preconditioner apply into V).
    pub w: Vec<Vec<f64>>,
    /// Gram block G = VᵀW after the fused reduction, row-major `nv × nw`.
    pub g: Vec<f64>,
    /// Gram block H = WᵀW, full `nw × nw` (mirrored from the packed
    /// upper triangle carried by the reduction payload).
    pub h: Vec<f64>,
    /// Vᵀr₀ (`nv`) — r₀ is the residual at the block start.
    pub vr: Vec<f64>,
    /// Wᵀr₀ (`nw`).
    pub wr: Vec<f64>,
    /// Replicated coordinates of p in the V basis (length `nv`).
    pub ca: Vec<f64>,
    /// Coordinates of the *previous* p (for the redundancy captures).
    pub ca_prev: Vec<f64>,
    /// Coordinates of z in the V basis (length `nv`).
    pub cc: Vec<f64>,
    /// Coordinates of x − x₀ in the V basis (length `nv`).
    pub ce: Vec<f64>,
    /// Coordinates of r − r₀ in the W basis (length `nw`).
    pub cf: Vec<f64>,
    /// Tentative copies — an inner update computes into these and only
    /// commits when the replicated scalars stay finite and usable, so a
    /// truncated block leaves consistent state at the last good iterate.
    pub cc_t: Vec<f64>,
    pub ce_t: Vec<f64>,
    pub cf_t: Vec<f64>,
    /// p^(ĵ−1) materialized from `ca_prev` at a block start whose window
    /// contains an augmented iteration (redundant-copy capture).
    pub p_prev: Vec<f64>,
}

impl SStepAux {
    /// Workspace for block size `s` on a node owning `nloc` indices.
    /// All later solver work is allocation-free against these buffers.
    pub(crate) fn new(s: usize, nloc: usize) -> Self {
        let nv = 2 * s + 1;
        let nw = 2 * s - 1;
        SStepAux {
            v: vec![vec![0.0; nloc]; nv],
            w: vec![vec![0.0; nloc]; nw],
            g: vec![0.0; nv * nw],
            h: vec![0.0; nw * nw],
            vr: vec![0.0; nv],
            wr: vec![0.0; nw],
            ca: vec![0.0; nv],
            ca_prev: vec![0.0; nv],
            cc: vec![0.0; nv],
            ce: vec![0.0; nv],
            cf: vec![0.0; nw],
            cc_t: vec![0.0; nv],
            ce_t: vec![0.0; nv],
            cf_t: vec![0.0; nw],
            p_prev: vec![0.0; nloc],
        }
    }
}

/// One rollback copy of a node's dynamic state, tagged with the iteration
/// it belongs to and the replicated `r·z` there. ESRP's starred copies
/// `x*, r*, z*, p*, β*` (paper §3: the
/// state at the end of the last completed storage stage, duplicated locally
/// so survivors roll back without communication), a node's own IMCR
/// checkpoint, and an IMCR checkpoint held **for another rank** are all this:
/// the paper's point that ESRP is checkpoint-restart whose remote copy is
/// implicit. [`NodeState::checkpoint_blob_into`] defines the layout.
#[derive(Debug, Clone, Default)]
pub(crate) struct Snapshot {
    /// The iteration the copied state belongs to (ĵ = mT+1 for the starred
    /// copies, the checkpoint iteration for IMCR).
    pub iter: usize,
    /// The replicated `r·z` at `iter` — the same on every rank, so a copy
    /// held for another rank records the holder's own. Kept beside the
    /// blob, whose layout (and hence the checkpoint traffic) it leaves alone.
    pub rz: f64,
    /// [`checkpoint_blob_len`] values for the owner's `nloc`.
    pub blob: Vec<f64>,
}

/// The length of a checkpoint blob for a node owning `nloc` indices — the
/// one definition of the layout's size. Classic (and s-step, whose
/// checkpoints are classic-shaped): `[x; r; z; p; β]`. Pipelined:
/// `[x; r; z; p; q; w; h; g; β; γ; pᵀAp]`.
pub(crate) fn checkpoint_blob_len(nloc: usize, pipelined: bool) -> usize {
    if pipelined {
        8 * nloc + 3
    } else {
        4 * nloc + 1
    }
}

/// All dynamic data of one simulated node.
#[derive(Debug, Clone)]
pub(crate) struct NodeState {
    /// Local chunk of the iterand x.
    pub x: Vec<f64>,
    /// Local chunk of the residual r.
    pub r: Vec<f64>,
    /// Local chunk of the preconditioned residual z (the pipelined
    /// recurrence's `u` — same definition, M⁻¹r).
    pub z: Vec<f64>,
    /// Local chunk of the search direction p.
    pub p: Vec<f64>,
    /// Local chunk of q = A p. Scratch recomputed every iteration for
    /// Classic; carried recurrence state (`s`) for Pipelined.
    pub q: Vec<f64>,
    /// The replicated scalar r·z of the current iteration (the pipelined
    /// recurrence's γ — same definition).
    pub rz: f64,
    /// The replicated scalar β of the previous iteration.
    pub beta_prev: f64,
    /// This node's local rollback copy: ESRP's starred copies or its own
    /// IMCR checkpoint (None before the first completed storage stage or
    /// checkpoint round, and for ESR, whose current state is the target).
    pub snapshot: Option<Snapshot>,
    /// Redundant search-direction copies this node holds for others.
    pub queue: RedundancyQueue,
    /// IMCR: checkpoints held for other ranks, keyed by owner rank.
    pub held_ckpts: HashMap<usize, Snapshot>,
    /// Pipelined-variant auxiliary state (None for Classic runs).
    pub aux: Option<Box<PipelinedAux>>,
}

impl NodeState {
    /// Fresh (pre-initialization) state for a node owning `nloc` indices.
    pub(crate) fn new(nloc: usize) -> Self {
        NodeState {
            x: vec![0.0; nloc],
            r: vec![0.0; nloc],
            z: vec![0.0; nloc],
            p: vec![0.0; nloc],
            q: vec![0.0; nloc],
            rz: 0.0,
            beta_prev: 0.0,
            snapshot: None,
            queue: RedundancyQueue::new(),
            held_ckpts: HashMap::new(),
            aux: None,
        }
    }

    /// Fresh state carrying the pipelined auxiliary vectors.
    pub(crate) fn new_pipelined(nloc: usize) -> Self {
        let mut st = NodeState::new(nloc);
        st.aux = Some(Box::new(PipelinedAux::new(nloc)));
        st
    }

    /// Simulates the node failure exactly as the paper does (§4): zero out
    /// every vector entry and scalar, and drop all redundant/checkpoint
    /// data residing on this node.
    pub(crate) fn wipe(&mut self) {
        self.x.fill(0.0);
        self.r.fill(0.0);
        self.z.fill(0.0);
        self.p.fill(0.0);
        self.q.fill(0.0);
        self.rz = 0.0;
        self.beta_prev = 0.0;
        self.snapshot = None;
        self.queue.clear();
        self.held_ckpts.clear();
        if let Some(aux) = self.aux.as_mut() {
            aux.w.fill(0.0);
            aux.h.fill(0.0);
            aux.g.fill(0.0);
            aux.m.fill(0.0);
            aux.n.fill(0.0);
            aux.pap = 0.0;
        }
    }

    /// Records this node's local rollback copy at iteration `iter`. ESRP
    /// passes `with_aux = false` — the starred copies are `x, r, z, p` and
    /// β* = β^(ĵ−1) whatever the recurrence, so its per-node storage is
    /// unchanged by pipelining; IMCR passes `true`, so a pipelined checkpoint
    /// also carries `q(=s)`, `w`, `h`, `g`, γ and the recurrence pᵀAp and a
    /// rollback restores the full recurrence bitwise. The previous copy is
    /// overwritten in place, so only the first one (and the first after a
    /// [`NodeState::wipe`]) allocates.
    pub(crate) fn take_snapshot(&mut self, iter: usize, with_aux: bool) {
        let mut snap = self.snapshot.take().unwrap_or_default();
        snap.iter = iter;
        snap.rz = self.rz;
        self.checkpoint_blob_into(with_aux, &mut snap.blob);
        self.snapshot = Some(snap);
    }

    /// Rolls this node back to its local rollback copy (survivor side of an
    /// ESRP or IMCR recovery), the replicated `r·z` included.
    ///
    /// # Panics
    /// Panics if there is none — callers must have established that a
    /// storage stage or checkpoint round completed.
    pub(crate) fn rollback_to_snapshot(&mut self) {
        let snap = self.snapshot.take().expect("rollback requires a snapshot");
        self.restore_from_blob(&snap.blob);
        self.rz = snap.rz;
        self.snapshot = Some(snap);
    }

    /// Serializes the dynamic state into a caller-supplied buffer (cleared
    /// first) — lets the checkpoint path stage into a pooled payload buffer
    /// instead of allocating per event. The layout is
    /// [`checkpoint_blob_len`]'s: the classic part `[x; r; z; p]`, the
    /// pipelined vectors `[q; w; h; g]` if the state has them and `with_aux`
    /// asks for them, then the scalars (β, and with the vectors γ and pᵀAp).
    pub(crate) fn checkpoint_blob_into(&self, with_aux: bool, blob: &mut Vec<f64>) {
        let aux = self.aux.as_ref().filter(|_| with_aux);
        blob.clear();
        blob.reserve(checkpoint_blob_len(self.x.len(), aux.is_some()));
        blob.extend_from_slice(&self.x);
        blob.extend_from_slice(&self.r);
        blob.extend_from_slice(&self.z);
        blob.extend_from_slice(&self.p);
        if let Some(aux) = aux {
            blob.extend_from_slice(&self.q);
            blob.extend_from_slice(&aux.w);
            blob.extend_from_slice(&aux.h);
            blob.extend_from_slice(&aux.g);
        }
        blob.push(self.beta_prev);
        if let Some(aux) = aux {
            blob.push(self.rz);
            blob.push(aux.pap);
        }
    }

    /// Restores the node's vectors and scalars from a blob
    /// [`NodeState::checkpoint_blob_into`] wrote. A classic-length blob on a
    /// pipelined state restores `x, r, z, p, β` and leaves the auxiliary
    /// recurrence state alone (`resync_after_rollback` rebuilds it); only
    /// the pipelined layout carries `r·z`.
    ///
    /// # Panics
    /// Panics if the blob length is neither layout's for this state.
    pub(crate) fn restore_from_blob(&mut self, blob: &[f64]) {
        let nloc = self.x.len();
        let with_aux = self.aux.is_some() && blob.len() != checkpoint_blob_len(nloc, false);
        assert_eq!(
            blob.len(),
            checkpoint_blob_len(nloc, with_aux),
            "checkpoint blob length mismatch"
        );
        // Read back in the order `checkpoint_blob_into` wrote.
        let mut rest = blob;
        let mut take = |dst: &mut [f64]| {
            let (head, tail) = rest.split_at(dst.len());
            dst.copy_from_slice(head);
            rest = tail;
        };
        take(&mut self.x);
        take(&mut self.r);
        take(&mut self.z);
        take(&mut self.p);
        let aux = self.aux.as_mut().filter(|_| with_aux);
        if let Some(aux) = aux {
            take(&mut self.q);
            take(&mut aux.w);
            take(&mut aux.h);
            take(&mut aux.g);
            self.rz = rest[1];
            aux.pap = rest[2];
        }
        self.beta_prev = rest[0];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(nloc: usize) -> NodeState {
        let mut st = NodeState::new(nloc);
        for i in 0..nloc {
            st.x[i] = i as f64;
            st.r[i] = 10.0 + i as f64;
            st.z[i] = 20.0 + i as f64;
            st.p[i] = 30.0 + i as f64;
        }
        st.rz = 1.5;
        st.beta_prev = 0.25;
        st
    }

    fn filled_pipelined(nloc: usize) -> NodeState {
        let mut st = NodeState::new_pipelined(nloc);
        for i in 0..nloc {
            st.x[i] = i as f64;
            st.r[i] = 10.0 + i as f64;
            st.z[i] = 20.0 + i as f64;
            st.p[i] = 30.0 + i as f64;
            st.q[i] = 40.0 + i as f64;
        }
        st.rz = 1.5;
        st.beta_prev = 0.25;
        let aux = st.aux.as_mut().unwrap();
        for i in 0..nloc {
            aux.w[i] = 50.0 + i as f64;
            aux.h[i] = 60.0 + i as f64;
            aux.g[i] = 70.0 + i as f64;
        }
        aux.pap = 3.5;
        st
    }

    /// What a rollback may touch, as bits: the classic part `x, r, z, p, β`
    /// with the replicated `r·z`, and the rest `q, w, h, g, pᵀAp`.
    fn bits(st: &NodeState) -> (Vec<u64>, Vec<u64>) {
        let bits = |vs: &[&[f64]]| vs.concat().iter().map(|v| v.to_bits()).collect();
        let classic = bits(&[&st.x, &st.r, &st.z, &st.p, &[st.beta_prev, st.rz]]);
        let rest = match st.aux.as_ref() {
            Some(aux) => bits(&[&st.q, &aux.w, &aux.h, &aux.g, &[aux.pap]]),
            None => bits(&[&st.q]),
        };
        (classic, rest)
    }

    /// Overwrites everything `bits` reads.
    fn scramble(st: &mut NodeState) {
        for v in [&mut st.x, &mut st.r, &mut st.z, &mut st.p, &mut st.q] {
            v.fill(-1.0);
        }
        (st.beta_prev, st.rz) = (9.0, -9.0);
        if let Some(aux) = st.aux.as_mut() {
            for v in [&mut aux.w, &mut aux.h, &mut aux.g] {
                v.fill(-1.0);
            }
            aux.pap = -9.0;
        }
    }

    #[test]
    fn wipe_zeroes_everything() {
        let mut st = filled(3);
        st.take_snapshot(7, false);
        let mut captured = crate::queue::Capture::default();
        captured.record(2, &[1.0]);
        st.queue.push(7, captured);
        st.held_ckpts.insert(
            2,
            Snapshot {
                iter: 5,
                rz: 1.5,
                blob: vec![1.0],
            },
        );
        st.wipe();
        assert!(st.x.iter().all(|&v| v == 0.0));
        assert!(st.p.iter().all(|&v| v == 0.0));
        assert_eq!(st.rz, 0.0);
        assert_eq!(st.beta_prev, 0.0);
        assert!(st.snapshot.is_none());
        assert!(st.queue.is_empty());
        assert_eq!(st.queue.received(7, 2), None, "the copies are lost");
        assert!(st.held_ckpts.is_empty());
    }

    #[test]
    fn star_round_trip() {
        let mut st = filled(4);
        st.take_snapshot(11, false);
        // Mutate, then roll back.
        st.x.fill(-1.0);
        st.r.fill(-1.0);
        st.z.fill(-1.0);
        st.p.fill(-1.0);
        st.beta_prev = 9.0;
        st.rz = -9.0;
        st.rollback_to_snapshot();
        assert_eq!(st.x[2], 2.0);
        assert_eq!(st.r[0], 10.0);
        assert_eq!(st.z[3], 23.0);
        assert_eq!(st.p[1], 31.0);
        assert_eq!(st.beta_prev, 0.25, "beta* is beta_prev at the star");
        assert_eq!(st.rz, 1.5, "r·z is the replicated value at the star");
        assert_eq!(st.snapshot.as_ref().unwrap().iter, 11);
    }

    #[test]
    fn snapshot_round_trip_restores_the_state_bit_for_bit_in_both_layouts() {
        for mut st in [filled(5), filled_pipelined(5)] {
            let pipelined = st.aux.is_some();
            let want = bits(&st);
            st.take_snapshot(8, true);
            let blob = &st.snapshot.as_ref().unwrap().blob;
            assert_eq!(blob.len(), checkpoint_blob_len(5, pipelined));
            scramble(&mut st);
            let scrambled = bits(&st);
            st.rollback_to_snapshot();
            // The classic layout leaves the scratch q alone: the recurrence
            // recomputes it. r·z comes back from the snapshot in both.
            let rest = if pipelined { want.1 } else { scrambled.1 };
            assert_eq!(bits(&st), (want.0, rest), "pipelined = {pipelined}");
            // Retaking overwrites in place: same buffer, new label.
            let at = st.snapshot.as_ref().unwrap().blob.as_ptr();
            st.take_snapshot(16, true);
            let snap = st.snapshot.as_ref().unwrap();
            assert_eq!((snap.iter, snap.blob.as_ptr()), (16, at));
        }
    }

    #[test]
    fn a_classic_snapshot_of_a_pipelined_state_leaves_the_aux_state_alone() {
        // ESRP under the pipelined recurrence: the starred copies stay
        // [x; r; z; p; β] beside r·z, and the rollback hands q, w, h, g and
        // pᵀAp to `resync_after_rollback` untouched.
        let mut st = filled_pipelined(3);
        let want = bits(&st);
        st.take_snapshot(6, false);
        let blob = &st.snapshot.as_ref().unwrap().blob;
        assert_eq!(blob.len(), checkpoint_blob_len(3, false));
        scramble(&mut st);
        let scrambled = bits(&st);
        st.rollback_to_snapshot();
        assert_eq!(bits(&st), (want.0, scrambled.1));
    }

    #[test]
    fn checkpoint_blob_round_trip() {
        let st = filled(3);
        let mut blob = vec![99.0; 2]; // stale contents must be cleared
        st.checkpoint_blob_into(true, &mut blob);
        assert_eq!(blob.len(), 13);
        let mut st2 = NodeState::new(3);
        st2.restore_from_blob(&blob);
        assert_eq!(st2.x, st.x);
        assert_eq!(st2.r, st.r);
        assert_eq!(st2.z, st.z);
        assert_eq!(st2.p, st.p);
        assert_eq!(st2.beta_prev, st.beta_prev);
    }

    #[test]
    fn blob_len_is_what_the_blob_writer_writes() {
        let mut blob = Vec::new();
        for nloc in [0, 1, 3, 7] {
            let classic = filled(nloc);
            classic.checkpoint_blob_into(true, &mut blob);
            assert_eq!(
                blob.len(),
                checkpoint_blob_len(nloc, false),
                "classic {nloc}"
            );
            let pipelined = filled_pipelined(nloc);
            pipelined.checkpoint_blob_into(true, &mut blob);
            assert_eq!(
                blob.len(),
                checkpoint_blob_len(nloc, true),
                "pipelined {nloc}"
            );
            pipelined.checkpoint_blob_into(false, &mut blob);
            assert_eq!(
                blob.len(),
                checkpoint_blob_len(nloc, false),
                "pipelined {nloc} without the aux part"
            );
        }
    }

    #[test]
    fn own_checkpoint_round_trip() {
        let mut st = filled(2);
        st.take_snapshot(20, true);
        st.x.fill(0.0);
        st.beta_prev = -1.0;
        st.rollback_to_snapshot();
        assert_eq!(st.x, vec![0.0_f64, 1.0]);
        assert_eq!(st.beta_prev, 0.25);
        assert_eq!(st.snapshot.as_ref().unwrap().iter, 20);
    }

    #[test]
    fn pipelined_blob_round_trip() {
        let st = filled_pipelined(3);
        let mut blob = Vec::new();
        st.checkpoint_blob_into(true, &mut blob);
        assert_eq!(blob.len(), 8 * 3 + 3);
        let mut st2 = NodeState::new_pipelined(3);
        st2.restore_from_blob(&blob);
        assert_eq!(st2.q, st.q);
        assert_eq!(st2.aux.as_ref().unwrap().w, st.aux.as_ref().unwrap().w);
        assert_eq!(st2.aux.as_ref().unwrap().g, st.aux.as_ref().unwrap().g);
        assert_eq!(st2.rz, 1.5);
        assert_eq!(st2.aux.as_ref().unwrap().pap, 3.5);
        assert_eq!(st2.beta_prev, 0.25);
    }

    #[test]
    fn pipelined_checkpoint_round_trip_restores_scalars() {
        let mut st = filled_pipelined(2);
        st.take_snapshot(8, true);
        st.q.fill(-1.0);
        st.aux.as_mut().unwrap().w.fill(-1.0);
        st.rz = -9.0;
        st.aux.as_mut().unwrap().pap = -9.0;
        st.rollback_to_snapshot();
        assert_eq!(st.q, vec![40.0, 41.0]);
        assert_eq!(st.aux.as_ref().unwrap().w, vec![50.0, 51.0]);
        assert_eq!(st.rz, 1.5, "gamma restored from the checkpoint");
        assert_eq!(st.aux.as_ref().unwrap().pap, 3.5, "pAp restored bitwise");
    }

    #[test]
    fn pipelined_wipe_zeroes_aux() {
        let mut st = filled_pipelined(2);
        st.wipe();
        let aux = st.aux.as_ref().unwrap();
        assert!(aux.w.iter().chain(&aux.h).chain(&aux.g).all(|&v| v == 0.0));
        assert_eq!(aux.pap, 0.0);
    }

    #[test]
    #[should_panic(expected = "requires a snapshot")]
    fn rollback_without_star_panics() {
        NodeState::new(2).rollback_to_snapshot();
    }

    #[test]
    #[should_panic(expected = "blob length")]
    fn bad_blob_rejected() {
        NodeState::new(3).restore_from_blob(&[0.0; 5]);
    }

    #[test]
    #[should_panic(expected = "blob length")]
    fn classic_state_rejects_pipelined_blob() {
        let mut blob = Vec::new();
        filled_pipelined(3).checkpoint_blob_into(true, &mut blob);
        NodeState::new(3).restore_from_blob(&blob);
    }

    #[test]
    fn sstep_aux_dimensions() {
        let aux = SStepAux::new(4, 6);
        assert_eq!(aux.v.len(), 9, "2s+1 basis columns");
        assert_eq!(aux.w.len(), 7, "2s-1 A-image columns");
        assert!(aux.v.iter().all(|c| c.len() == 6));
        assert_eq!(aux.g.len(), 9 * 7);
        assert_eq!(aux.h.len(), 7 * 7);
        assert_eq!(aux.ca.len(), 9);
        assert_eq!(aux.cf.len(), 7);
        assert_eq!(aux.p_prev.len(), 6);
    }
}
