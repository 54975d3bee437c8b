//! The distributed resilient PCG node program.
//!
//! [`solve_node`] is the SPMD body each simulated node runs (paper Alg. 3):
//! the PCG loop with pluggable resilience — ASpMV storage stages (ESR/ESRP),
//! buddy checkpointing (IMCR), failure injection, and recovery. The
//! [`SharedProblem`] holds all *static* data (matrix, preconditioner,
//! right-hand side, communication plans), which the paper assumes
//! retrievable from safe storage after a failure.

pub mod recovery;
pub mod state;
pub mod tuning;
pub mod workspace;

use std::sync::Arc;

use esrcg_cluster::{Ctx, InstantKind, Payload, Phase, Tag};
use esrcg_precond::{PrecondSpec, Preconditioner};
use esrcg_sparse::{
    CsrMatrix, FormatCache, KernelBackend, Partition, RowSplitSet, SparseError, SpmvFormat,
};

use crate::aspmv::{AspmvPlan, BuddyMap};
use crate::dist::halo::{exchange_halo, HaloExchange};
use crate::dist::plan::CommPlan;
use crate::strategy::{IntervalPolicy, Strategy};
use recovery::{recover, RecoveryOutcome};
use state::{HeldCheckpoint, NodeState, SStepAux};
pub use tuning::TuneEvent;
use tuning::{IntervalSchedule, IntervalTuner};
pub use workspace::SolverWorkspace;

/// Halo-exchange tag used during (re)initialization.
const INIT_TAG: u32 = u32::MAX - 1;
/// Halo-exchange tag used by the post-convergence drift computation.
const DRIFT_TAG: u32 = u32::MAX;
/// Second and third initialization SpMVs of the pipelined variant
/// (`w = Au` and `g = Ah`).
const INIT_TAG_W: u32 = u32::MAX - 2;
const INIT_TAG_G: u32 = u32::MAX - 3;
/// Pipelined recovery: the auxiliary-vector rebuild SpMVs (`w = Au`,
/// `s = Ap`, `g = Ah`). Per-(source, tag) FIFO matching makes reuse across
/// recovery events safe.
pub(crate) const RECOVERY_TAG_W: u32 = u32::MAX - 4;
pub(crate) const RECOVERY_TAG_S: u32 = u32::MAX - 5;
pub(crate) const RECOVERY_TAG_G: u32 = u32::MAX - 6;

/// How the distributed SpMV schedules its halo exchange.
///
/// Both modes are **bitwise identical** in every result: per-row
/// floating-point order never changes, only *when* the communication
/// completes relative to the compute. They differ (deterministically) in
/// modeled time — split-phase hides the halo wait under the interior rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpmvMode {
    /// Full halo exchange, then all owned rows — the classic form, kept as
    /// the measurable baseline of the overlap.
    Blocking,
    /// Split-phase: fire the halo sends, compute the interior rows (which
    /// read only owned entries) while the messages fly, drain the receives,
    /// then compute the boundary rows. Per split-phase stage the modeled
    /// clock pays `max(comm, interior compute)` instead of the sum.
    #[default]
    SplitPhase,
}

impl SpmvMode {
    /// Short name for reports: `blocking` or `split-phase`.
    pub fn name(self) -> &'static str {
        match self {
            SpmvMode::Blocking => "blocking",
            SpmvMode::SplitPhase => "split-phase",
        }
    }
}

/// Which PCG recurrence the solver runs.
///
/// Unlike [`SpmvMode`], the two variants are **not** bitwise identical:
/// pipelining restructures the recurrence (Ghysels–Vanroose), trading one
/// of the two blocking allreduces per iteration plus extra vector
/// operations for a single fused reduction whose latency hides under the
/// preconditioner and SpMV of the same iteration. Trajectories agree to
/// rounding (same iteration count ± a few on well-conditioned problems);
/// `Classic` remains the bitwise-reference baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PcgVariant {
    /// The paper's PCG loop (Alg. 3): two blocking reductions per
    /// iteration (pᵀAp, then the fused rz/rr).
    #[default]
    Classic,
    /// Pipelined PCG: one fused rz/δ/rr reduction per iteration, fired
    /// before the preconditioner + SpMV and completed after them, with
    /// auxiliary recurrence vectors w/s/h/g (see `ARCHITECTURE.md`
    /// §"Pipelined reduction pipeline").
    Pipelined,
    /// s-step (communication-avoiding) PCG: one fused Gram reduction per
    /// **s** iterations (Chronopoulos–Gear / Carson–Demmel lineage). Each
    /// outer step builds the Krylov block basis by a matrix-powers sweep
    /// (2s−1 SpMVs over the split-phase halo path), reduces the small Gram
    /// system once, then replays s scalar CG updates from the replicated
    /// coefficients. Trajectories agree with Classic to rounding; the
    /// reduction count per iteration drops from 2 (Classic) / 1
    /// (Pipelined) to 1/s. See `ARCHITECTURE.md` §"s-step pipeline".
    SStep {
        /// Block size s ∈ {2, 4, 8}.
        s: usize,
    },
}

impl PcgVariant {
    /// Short name for reports: `classic`, `pipelined`, or `sstep<s>`.
    pub fn name(self) -> &'static str {
        match self {
            PcgVariant::Classic => "classic",
            PcgVariant::Pipelined => "pipelined",
            PcgVariant::SStep { s: 2 } => "sstep2",
            PcgVariant::SStep { s: 4 } => "sstep4",
            PcgVariant::SStep { s: 8 } => "sstep8",
            PcgVariant::SStep { .. } => "sstep",
        }
    }
}

/// Solver configuration: strategy, redundancy level, tolerances, and the
/// injected failure events.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// The resilience strategy.
    pub strategy: Strategy,
    /// How the strategy's interval T evolves over the run: held fixed
    /// (the default, bitwise-legacy behavior) or re-tuned to the measured
    /// Daly/Young optimum at recovery points (see
    /// [`tuning::IntervalTuner`](crate::solver::tuning)).
    pub interval_policy: IntervalPolicy,
    /// Number of simultaneous node failures to tolerate (φ). Ignored for
    /// `Strategy::None`.
    pub phi: usize,
    /// Convergence threshold on `‖r‖₂ / ‖b‖₂` (the paper uses 1e-8).
    pub rtol: f64,
    /// Iteration cap.
    pub max_iters: usize,
    /// The simulated node-failure events, ordered by strictly increasing
    /// trigger iteration. The paper evaluates a single event per run;
    /// multiple sequential events are supported as long as each event's
    /// rank count is at most φ (and, for full redundancy-coverage
    /// guarantees, consecutive events are separated by a completed storage
    /// stage / checkpoint round — the round re-executed right after a
    /// rollback already repopulates the redundant copies).
    pub failures: Vec<esrcg_cluster::FailureSpec>,
    /// Relative tolerance of the inner reconstruction solve (paper: 1e-14).
    pub inner_rtol: f64,
    /// Iteration cap of the inner solve.
    pub inner_max_iters: usize,
    /// Block size of the inner solve's block Jacobi preconditioner
    /// (paper: 10).
    pub inner_max_block: usize,
    /// Which kernel backend executes the hot paths (SpMV, reductions,
    /// vector updates). Defaults to the parallel backend; all backends are
    /// bitwise identical (see [`esrcg_sparse::backend`]), so this only
    /// changes speed, never results.
    pub backend: KernelBackend,
    /// How the distributed SpMV schedules its halo exchange. Defaults to
    /// [`SpmvMode::SplitPhase`]; both modes are bitwise identical in every
    /// result (see [`SpmvMode`]), so this only changes modeled/wall time.
    pub spmv_mode: SpmvMode,
    /// Which PCG recurrence runs. Defaults to [`PcgVariant::Classic`]
    /// (the bitwise-reference baseline); `Pipelined` overlaps the per-
    /// iteration reduction with the preconditioner + SpMV.
    pub variant: PcgVariant,
    /// Which storage format the SpMV hot loops use. Defaults to
    /// [`SpmvFormat::Csr`]; all formats are bitwise identical (see
    /// [`esrcg_sparse::format`]), so this only changes speed, never
    /// results. Non-CSR formats are converted once per problem into the
    /// [`SharedProblem`]'s format cache.
    pub spmv_format: SpmvFormat,
}

impl SolverConfig {
    /// Paper-default tolerances for the given strategy and φ.
    pub fn new(strategy: Strategy, phi: usize) -> Self {
        SolverConfig {
            strategy,
            interval_policy: IntervalPolicy::Fixed,
            phi,
            rtol: 1e-8,
            max_iters: 200_000,
            failures: Vec::new(),
            inner_rtol: 1e-14,
            inner_max_iters: 100_000,
            inner_max_block: 10,
            backend: KernelBackend::default(),
            spmv_mode: SpmvMode::default(),
            variant: PcgVariant::default(),
            spmv_format: SpmvFormat::default(),
        }
    }

    /// Validates the configuration against a cluster size.
    ///
    /// # Errors
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self, n_ranks: usize) -> Result<(), String> {
        self.strategy.validate()?;
        self.interval_policy.validate()?;
        self.spmv_format.validate()?;
        if self.interval_policy.is_adaptive() && self.strategy == Strategy::None {
            return Err("adaptive interval tuning needs a resilient strategy".into());
        }
        if self.strategy != Strategy::None {
            if self.phi == 0 {
                return Err("phi must be at least 1 for a resilient strategy".into());
            }
            if self.phi >= n_ranks {
                return Err(format!(
                    "phi ({}) must be smaller than the number of ranks ({n_ranks})",
                    self.phi
                ));
            }
        }
        for (i, f) in self.failures.iter().enumerate() {
            if self.strategy == Strategy::None {
                return Err("cannot inject a failure without a resilience strategy".into());
            }
            if f.count() > self.phi {
                return Err(format!(
                    "injecting {} failures but phi = {} copies",
                    f.count(),
                    self.phi
                ));
            }
            for &r in f.ranks() {
                if r >= n_ranks {
                    return Err(format!("failure rank {r} out of range"));
                }
            }
            if i > 0 && f.at_iteration() <= self.failures[i - 1].at_iteration() {
                return Err(
                    "failure events must have strictly increasing trigger iterations".into(),
                );
            }
        }
        if self.rtol <= 0.0
            || self.rtol.is_nan()
            || self.inner_rtol <= 0.0
            || self.inner_rtol.is_nan()
        {
            return Err("tolerances must be positive".into());
        }
        if let PcgVariant::SStep { s } = self.variant {
            if !matches!(s, 2 | 4 | 8) {
                return Err(format!("s-step block size must be 2, 4, or 8 (got {s})"));
            }
        }
        Ok(())
    }
}

/// All static data of a distributed solve, shared read-only by every rank.
pub struct SharedProblem {
    /// The system matrix (every rank reads only its rows plus recovery
    /// submatrices; replicating it in-process stands in for safe storage).
    pub a: Arc<CsrMatrix>,
    /// The right-hand side.
    pub b: Arc<Vec<f64>>,
    /// The initial guess.
    pub x0: Arc<Vec<f64>>,
    /// The block-row distribution.
    pub part: Arc<Partition>,
    /// The preconditioner.
    pub precond: Arc<dyn Preconditioner>,
    /// The SpMV communication plan.
    pub plan: Arc<CommPlan>,
    /// Per-rank interior/boundary row classification (built once per
    /// matrix + partition, alongside the plan) — what the split-phase SpMV
    /// computes while the halo is in flight.
    pub row_split: Arc<RowSplitSet>,
    /// The converted SpMV pieces when a non-CSR [`SpmvFormat`] is
    /// configured: per rank, the owned range plus the interior/boundary
    /// split lists, built **once per problem** next to the `RowSplitSet`
    /// and shared read-only by every rank. `None` under plain CSR.
    pub fmt_cache: Option<Arc<FormatCache>>,
    /// The ASpMV augmentation plan (ESR/ESRP strategies).
    pub aspmv: Option<Arc<AspmvPlan>>,
    /// The buddy map (IMCR strategy).
    pub buddies: Option<Arc<BuddyMap>>,
    /// Solver configuration.
    pub cfg: SolverConfig,
}

impl SharedProblem {
    /// Assembles the shared problem: partitions the matrix, builds the
    /// communication plan, the preconditioner, and the strategy-specific
    /// redundancy plans.
    ///
    /// # Errors
    /// Returns configuration errors as strings and factorization failures
    /// as [`SparseError`] (stringified).
    pub fn assemble(
        a: CsrMatrix,
        b: Vec<f64>,
        x0: Vec<f64>,
        n_ranks: usize,
        precond_spec: PrecondSpec,
        cfg: SolverConfig,
    ) -> Result<Self, String> {
        Self::assemble_shared(Arc::new(a), b, x0, n_ranks, precond_spec, cfg)
    }

    /// [`SharedProblem::assemble`] over an already-shared matrix handle —
    /// no copy is taken, so batch drivers (the campaign fleet) can
    /// assemble many problems from one materialized matrix.
    ///
    /// # Errors
    /// Same as [`SharedProblem::assemble`].
    pub fn assemble_shared(
        a: Arc<CsrMatrix>,
        b: Vec<f64>,
        x0: Vec<f64>,
        n_ranks: usize,
        precond_spec: PrecondSpec,
        cfg: SolverConfig,
    ) -> Result<Self, String> {
        if a.nrows() != a.ncols() {
            return Err("matrix must be square".into());
        }
        if b.len() != a.nrows() || x0.len() != a.nrows() {
            return Err("b and x0 must match the matrix size".into());
        }
        cfg.validate(n_ranks)?;
        let part = Arc::new(Partition::balanced(a.nrows(), n_ranks));
        let plan = Arc::new(CommPlan::build(&a, &part));
        let row_split = Arc::new(RowSplitSet::build(&a, &part));
        let fmt_cache = FormatCache::build(&a, &part, &row_split, cfg.spmv_format).map(Arc::new);
        let precond = precond_spec
            .build(&a, &part)
            .map_err(|e: SparseError| e.to_string())?;
        let aspmv = cfg
            .strategy
            .uses_aspmv()
            .then(|| Arc::new(AspmvPlan::build(&plan, &part, cfg.phi)));
        let buddies = cfg
            .strategy
            .uses_checkpoints()
            .then(|| Arc::new(BuddyMap::new(n_ranks, cfg.phi)));
        Ok(SharedProblem {
            a,
            b: Arc::new(b),
            x0: Arc::new(x0),
            part,
            precond,
            plan,
            row_split,
            fmt_cache,
            aspmv,
            buddies,
            cfg,
        })
    }
}

/// What one rank reports after the solve.
#[derive(Debug, Clone)]
pub struct NodeOutcome {
    /// Whether `‖r‖₂/‖b‖₂ < rtol` was reached.
    pub converged: bool,
    /// The logical iteration index at exit (the paper's C for reference
    /// runs).
    pub iterations: usize,
    /// Loop trips actually executed (≥ `iterations` when a rollback redid
    /// work).
    pub total_loop_trips: usize,
    /// Final recurrence relative residual `‖r‖₂/‖b‖₂`.
    pub final_relres: f64,
    /// Final *true* relative residual `‖b − Ax‖₂/‖b‖₂`.
    pub true_relres: f64,
    /// The paper's residual drift metric (Eq. 2):
    /// `(‖r‖₂ − ‖b−Ax‖₂) / ‖b−Ax‖₂`.
    pub residual_drift: f64,
    /// This rank's chunk of the solution.
    pub x_local: Vec<f64>,
    /// Recovery details, one entry per processed failure event, in order.
    pub recoveries: Vec<RecoveryOutcome>,
    /// Interval-tuner decisions, one entry per processed failure event
    /// under [`IntervalPolicy::Adaptive`] (empty under `Fixed`). Replicated:
    /// identical on every rank.
    pub tuning: Vec<TuneEvent>,
}

/// One distributed SpMV `q = (A x)[range]` of the vector whose owned chunk
/// is `local`, scheduled per the configured [`SpmvMode`]:
///
/// * `Blocking` — full halo exchange, then all owned rows (the PR 2
///   pipeline, kept as the measurable baseline),
/// * `SplitPhase` — halo sends fire, *interior* rows (whose columns all lie
///   in the owned range, see [`RowSplitSet`]) compute while the messages
///   fly, receives drain, *boundary* rows finish.
///
/// `captured` is forwarded to the halo receive path (ASpMV redundant-copy
/// capture); its (source rank, index) order is identical under both modes.
/// The two schedules write bit-identical `q`/`full`/`captured` — only the
/// modeled clock differs, by exactly the halo wait the interior rows hide.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dist_spmv(
    ctx: &mut Ctx,
    shared: &SharedProblem,
    be: KernelBackend,
    local: &[f64],
    tag_sub: u32,
    full: &mut [f64],
    q: &mut [f64],
    captured: Option<&mut Vec<(usize, f64)>>,
) {
    dist_spmv_hooked(
        ctx,
        shared,
        be,
        local,
        tag_sub,
        full,
        q,
        captured,
        |_, _| {},
    );
}

/// [`dist_spmv`] with an `after_comm` hook, called once the halo receives
/// (and thus `captured`) are complete but before the remaining rows are
/// computed — under `Blocking` that is before the whole product, under
/// `SplitPhase` between `finish` and the boundary rows. The augmented
/// ASpMV hangs its extra redundant-copy traffic here, so both scheduling
/// arms live in exactly one place and cannot drift apart. The hook may
/// change the attributed phase; it must restore it if the remaining rows
/// should stay accounted as SpMV.
#[allow(clippy::too_many_arguments)]
fn dist_spmv_hooked<F>(
    ctx: &mut Ctx,
    shared: &SharedProblem,
    be: KernelBackend,
    local: &[f64],
    tag_sub: u32,
    full: &mut [f64],
    q: &mut [f64],
    mut captured: Option<&mut Vec<(usize, f64)>>,
    after_comm: F,
) where
    F: FnOnce(&mut Ctx, Option<&mut Vec<(usize, f64)>>),
{
    let rank = ctx.rank();
    let range = shared.part.range(rank);
    // Non-CSR formats read their converted pieces from the shared cache;
    // flops stay charged from the CSR structure (2 × real nnz, format-
    // invariant), so the modeled clock is identical across formats.
    let pieces = shared.fmt_cache.as_deref().map(|c| c.of(rank));
    match shared.cfg.spmv_mode {
        SpmvMode::Blocking => {
            exchange_halo(
                ctx,
                &shared.plan,
                &shared.part,
                local,
                tag_sub,
                full,
                captured.as_deref_mut(),
            );
            after_comm(ctx, captured);
            match pieces {
                Some(p) => be.spmv_fmt_into(&p.owned, full, q),
                None => be.spmv_rows_into(&shared.a, range.clone(), full, q),
            }
            ctx.charge_flops(shared.a.spmv_rows_flops(range));
        }
        SpmvMode::SplitPhase => {
            let split = shared.row_split.of(rank);
            let hx = HaloExchange::start(ctx, &shared.plan, &shared.part, local, tag_sub, full);
            match pieces {
                Some(p) => be.spmv_fmt_into(&p.interior, full, q),
                None => be.spmv_row_runs_into(&shared.a, split.interior(), range.start, full, q),
            }
            ctx.charge_flops(split.interior_flops());
            hx.finish(ctx, &shared.plan, full, captured.as_deref_mut());
            after_comm(ctx, captured);
            match pieces {
                Some(p) => be.spmv_fmt_into(&p.boundary, full, q),
                None => be.spmv_row_runs_into(&shared.a, split.boundary(), range.start, full, q),
            }
            ctx.charge_flops(split.boundary_flops());
        }
    }
}

/// Initializes (or re-initializes) the PCG state from the static data:
/// `x = x0`, `r = b − A x`, `z = P r`, `p = z`, plus the replicated `r·z`.
/// Returns `(‖b‖₂², r·r)` — one fused vector allreduce carries all init
/// scalars (b·b, r·z, r·r), so startup pays a single tree latency where it
/// used to pay two. Element-wise tree sums are component-independent, so
/// each fused value is bitwise identical to its formerly separate
/// reduction. Compute charges to the surrounding phase; the reduction is
/// attributed to [`Phase::Reduction`].
pub(crate) fn init_state(
    ctx: &mut Ctx,
    shared: &SharedProblem,
    st: &mut NodeState,
    full: &mut [f64],
) -> (f64, f64) {
    let rank = ctx.rank();
    let part = &*shared.part;
    // Each rank runs on its own OS thread: divide the kernel thread budget
    // so the ranks together use the machine once over, not n_ranks times.
    let be = shared.cfg.backend.subdivided(ctx.size());
    let range = part.range(rank);
    let nloc = range.len();

    st.x.copy_from_slice(&shared.x0[range.clone()]);
    let NodeState { x, q, .. } = st;
    dist_spmv(ctx, shared, be, x, INIT_TAG, full, q, None);
    for i in 0..nloc {
        st.r[i] = shared.b[range.start + i] - st.q[i];
    }
    ctx.charge_flops(nloc as u64);
    shared.precond.apply_local(range.clone(), &st.r, &mut st.z);
    ctx.charge_flops(shared.precond.apply_flops(range.clone()));
    st.p.copy_from_slice(&st.z);

    let b_loc = &shared.b[range.clone()];
    let bb_loc = be.dot(b_loc, b_loc);
    let rz_loc = be.dot(&st.r, &st.z);
    let rr_loc = be.dot(&st.r, &st.r);
    ctx.charge_flops(6 * nloc as u64);
    let prev = ctx.set_phase(Phase::Reduction);
    let red = ctx.allreduce_sum(&[bb_loc, rz_loc, rr_loc]);
    ctx.set_phase(prev);
    let (bnorm2, rr) = (red[0], red[2]);
    st.rz = red[1];
    st.beta_prev = 0.0;
    ctx.recycle_f64s(red);
    (bnorm2, rr)
}

/// Initializes (or re-initializes) the **pipelined** recurrence: on top of
/// the classic state (`x`, `r`, `z ≡ u = M⁻¹r`, `p = z`) it establishes
/// `w = Au`, `s ≡ q = Ap = w`, `h = M⁻¹s`, `g = Ah`, γ = r·z, and
/// `pAp = δ = w·u`. The single fused init allreduce
/// `[b·b, γ, δ, r·r]` is *started* before the `h`/`g` stage and finished
/// after it, so even initialization overlaps its reduction. Returns
/// `(‖b‖₂², r·r)`.
pub(crate) fn init_pipelined(
    ctx: &mut Ctx,
    shared: &SharedProblem,
    st: &mut NodeState,
    full: &mut [f64],
) -> (f64, f64) {
    let rank = ctx.rank();
    let part = &*shared.part;
    let be = shared.cfg.backend.subdivided(ctx.size());
    let range = part.range(rank);
    let nloc = range.len();

    st.x.copy_from_slice(&shared.x0[range.clone()]);
    {
        let NodeState { x, q, .. } = st;
        dist_spmv(ctx, shared, be, x, INIT_TAG, full, q, None);
    }
    for i in 0..nloc {
        st.r[i] = shared.b[range.start + i] - st.q[i];
    }
    ctx.charge_flops(nloc as u64);
    shared.precond.apply_local(range.clone(), &st.r, &mut st.z);
    ctx.charge_flops(shared.precond.apply_flops(range.clone()));

    // w = A u (u lives in z). The aux box is detached while distributed
    // kernels borrow both it and the rest of the state.
    let mut aux = st.aux.take().expect("pipelined init requires aux state");
    {
        let NodeState { z, .. } = st;
        dist_spmv(ctx, shared, be, z, INIT_TAG_W, full, &mut aux.w, None);
    }

    let b_loc = &shared.b[range.clone()];
    let bb_loc = be.dot(b_loc, b_loc);
    let gamma_loc = be.dot(&st.r, &st.z);
    let delta_loc = be.dot(&aux.w, &st.z);
    let rr_loc = be.dot(&st.r, &st.r);
    ctx.charge_flops(8 * nloc as u64);
    let prev = ctx.set_phase(Phase::Reduction);
    let pending = ctx.allreduce_sum_start(&[bb_loc, gamma_loc, delta_loc, rr_loc]);

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
    (bnorm2, rr)
}

/// Applies one tuner decision after a recovery: proposes the new interval
/// from the replicated failure/cost observations, re-anchors the schedule
/// at the resume point when it changed, and re-establishes the anchor's
/// protection data (ESRP starred copies / an IMCR checkpoint round) so the
/// anchor is a valid rollback target for the next failure.
/// The cluster-mean analytic per-round protection cost under the run's
/// cost model — the α–β floor the adaptive tuner blends with the measured
/// phase means (satellite of the s-step PR; see `IntervalTuner::propose`).
/// Computed from replicated shared data (partition, plans, buddy fan-out),
/// so every rank derives the identical value without communication.
fn analytic_round_cost_mean(ctx: &Ctx, shared: &SharedProblem) -> f64 {
    let cost = ctx.cost_model();
    let n = ctx.size();
    let total: f64 = (0..n)
        .map(|r| match shared.cfg.strategy {
            Strategy::Imcr { .. } => {
                let nloc = shared.part.range(r).len();
                // The checkpoint blob is [x; r; z; p; β] for the classic
                // and s-step recurrences, plus [w; q; u; β**] pipelined
                // extras (see `NodeState::checkpoint_blob_into`).
                let blob_len = match shared.cfg.variant {
                    PcgVariant::Pipelined => 8 * nloc + 3,
                    PcgVariant::Classic | PcgVariant::SStep { .. } => 4 * nloc + 1,
                };
                tuning::analytic_checkpoint_round_cost(&cost, shared.cfg.phi, blob_len)
            }
            Strategy::Esrp { .. } => {
                let sends = shared.plan.sends_of(r).iter().map(|(_, g)| g.len());
                let extras = shared
                    .aspmv
                    .as_ref()
                    .map(|a| a.extras_of(r))
                    .unwrap_or(&[])
                    .iter()
                    .map(|(_, g)| g.len());
                tuning::analytic_storage_stage_cost(&cost, sends.chain(extras))
            }
            Strategy::None => 0.0,
        })
        .sum();
    total / n as f64
}

fn retune_after_recovery(
    ctx: &mut Ctx,
    shared: &SharedProblem,
    st: &mut NodeState,
    sched: &mut IntervalSchedule,
    tuner: &mut IntervalTuner,
    rec: &RecoveryOutcome,
    total_loop_trips: usize,
) -> TuneEvent {
    let analytic = analytic_round_cost_mean(ctx, shared);
    let ev = tuner.propose(ctx, sched, rec, total_loop_trips, analytic);
    if ev.interval_after != ev.interval_before {
        ctx.trace_instant(InstantKind::TunerDecision, ev.interval_after as u64);
        sched.reanchor(ev.interval_after, rec.resumed_at);
        if rec.resumed_at > 0 {
            match sched.strategy() {
                Strategy::Esrp { t } if t > 1 => {
                    // The recovery left β^(a−1) in beta_prev on every rank;
                    // star it so rollbacks to the anchor restore the same
                    // recurrence state the legacy storage stage would have.
                    ctx.set_phase(Phase::RecoveryReset);
                    st.beta_ss = st.beta_prev;
                    st.make_star(rec.resumed_at);
                }
                Strategy::Imcr { .. } => {
                    checkpoint_exchange(ctx, shared, st, rec.resumed_at);
                    tuner.note_round();
                }
                _ => {}
            }
        }
    }
    ev
}

/// The SPMD body: runs the resilient PCG to convergence on this rank,
/// dispatching on the configured [`PcgVariant`].
///
/// # Panics
/// Panics on configuration errors (call [`SolverConfig::validate`] first),
/// protocol violations, and unrecoverable failures (e.g. ψ > φ).
pub fn solve_node(ctx: &mut Ctx, shared: &SharedProblem) -> NodeOutcome {
    match shared.cfg.variant {
        PcgVariant::Classic => solve_node_classic(ctx, shared),
        PcgVariant::Pipelined => solve_node_pipelined(ctx, shared),
        PcgVariant::SStep { s } => solve_node_sstep(ctx, shared, s),
    }
}

/// The classic PCG loop (paper Alg. 3) — the bitwise-reference baseline.
fn solve_node_classic(ctx: &mut Ctx, shared: &SharedProblem) -> NodeOutcome {
    let cfg = &shared.cfg;
    debug_assert!(cfg.validate(ctx.size()).is_ok(), "invalid solver config");
    let part = &*shared.part;
    assert_eq!(ctx.size(), part.n_ranks(), "rank count mismatch");
    let rank = ctx.rank();
    let be = cfg.backend.subdivided(ctx.size());
    let range = part.range(rank);
    let nloc = range.len();

    ctx.set_phase(Phase::Setup);
    let mut full = vec![0.0f64; part.n()];
    let mut ws = SolverWorkspace::new();

    let mut st = NodeState::new(nloc);
    let (bnorm2, rr0) = init_state(ctx, shared, &mut st, &mut full);
    assert!(bnorm2 > 0.0, "zero right-hand side: x = 0 is the solution");
    let mut relres = (rr0 / bnorm2).sqrt();

    let mut j: usize = 0;
    let mut next_event = 0usize;
    let mut recovery_reports: Vec<RecoveryOutcome> = Vec::new();
    let mut tuning_events: Vec<TuneEvent> = Vec::new();
    let mut sched = IntervalSchedule::new(cfg.strategy);
    let mut tuner = IntervalTuner::for_policy(cfg.interval_policy);
    let mut total_loop_trips = 0usize;
    let mut converged = false;

    loop {
        if relres < cfg.rtol {
            converged = true;
            break;
        }
        if j >= cfg.max_iters {
            break;
        }
        total_loop_trips += 1;
        ctx.trace_instant(InstantKind::Iteration, j as u64);

        // --- IMCR checkpoint (before the SpMV, state is iteration j) ------
        if sched.checkpoint(j) {
            checkpoint_exchange(ctx, shared, &mut st, j);
            if let Some(tn) = tuner.as_mut() {
                tn.note_round();
            }
        }

        // --- SpMV / ASpMV --------------------------------------------------
        let augmented = sched.augmented(j);
        ctx.set_phase(Phase::SpMV);
        if augmented {
            // Both modes preserve the blocking capture order — halo
            // receives in source order (complete when the hook runs), then
            // the extras — so the redundancy queue is bit-identical under
            // either schedule.
            let mut captured: Vec<(usize, f64)> = Vec::new();
            let NodeState { p, q, .. } = &mut st;
            let p_ref: &[f64] = p;
            dist_spmv_hooked(
                ctx,
                shared,
                be,
                p_ref,
                j as u32,
                &mut full,
                q,
                Some(&mut captured),
                |ctx, cap| {
                    let cap = cap.expect("augmented SpMV always captures");
                    aspmv_extras(ctx, shared, p_ref, range.start, j, cap);
                    ctx.trace_instant(InstantKind::StorageRound, j as u64);
                    ctx.set_phase(Phase::SpMV);
                },
            );
            st.queue.push(j, captured);
            if let (Some(tn), Some(1)) = (tuner.as_mut(), sched.interval()) {
                // ESR: every augmented iteration is one protection round.
                tn.note_round();
            }
        } else {
            let NodeState { p, q, .. } = &mut st;
            dist_spmv(ctx, shared, be, p, j as u32, &mut full, q, None);
        }

        // --- ESRP storage stage, second iteration: starred copies ---------
        if sched.storage_second(j) {
            ctx.set_phase(Phase::Storage);
            st.make_star(j);
            if let Some(tn) = tuner.as_mut() {
                tn.note_round();
            }
        }

        // --- Failure injection + recovery ---------------------------------
        if let Some(f) = cfg.failures.get(next_event) {
            if f.triggers_at(j) {
                next_event += 1;
                ctx.trace_instant(InstantKind::FailureTrigger, j as u64);
                let event = f.clone();
                if event.affects(rank) {
                    st.wipe();
                }
                let target = sched.rollback_target(j);
                let rec = recover(
                    ctx, shared, &mut st, &mut ws, &mut full, j, target, &event, &sched,
                );
                j = rec.resumed_at;
                if let Some(tn) = tuner.as_mut() {
                    let ev = retune_after_recovery(
                        ctx,
                        shared,
                        &mut st,
                        &mut sched,
                        tn,
                        &rec,
                        total_loop_trips,
                    );
                    tuning_events.push(ev);
                }
                recovery_reports.push(rec);
                // Not converged; the residual norm is recomputed at the end
                // of the re-executed iteration.
                relres = f64::INFINITY;
                continue;
            }
        }

        // --- α = r·z / p·Ap ------------------------------------------------
        ctx.set_phase(Phase::Reduction);
        let pq_loc = be.dot(&st.p, &st.q);
        ctx.charge_flops(2 * nloc as u64);
        let pap = ctx.allreduce_sum_scalar(pq_loc);
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
        ctx.charge_flops(shared.precond.apply_flops(range.clone()));

        // --- β and the convergence norm (one fused reduction) -------------
        ctx.set_phase(Phase::Reduction);
        let rz_loc = be.dot(&st.r, &st.z);
        let rr_loc = be.dot(&st.r, &st.r);
        ctx.charge_flops(4 * nloc as u64);
        let red = ctx.allreduce_sum(&[rz_loc, rr_loc]);
        let (rz_new, rr) = (red[0], red[1]);
        ctx.recycle_f64s(red);
        let beta = rz_new / st.rz;
        st.rz = rz_new;

        // --- ESRP storage stage, first iteration: stash β** ---------------
        if sched.storage_first(j) {
            ctx.set_phase(Phase::Storage);
            st.beta_ss = beta;
        }

        // --- p = z + βp -----------------------------------------------------
        ctx.set_phase(Phase::VecOps);
        be.axpby(1.0, &st.z, beta, &mut st.p);
        ctx.charge_flops(2 * nloc as u64);
        st.beta_prev = beta;

        j += 1;
        relres = (rr / bnorm2).sqrt();
    }

    drift_epilogue(
        ctx,
        shared,
        be,
        st,
        &mut full,
        bnorm2,
        converged,
        j,
        total_loop_trips,
        recovery_reports,
        tuning_events,
    )
}

/// The pipelined PCG loop (Ghysels–Vanroose recurrence): one fused
/// γ/δ/‖r‖² reduction per iteration, started before the preconditioner and
/// SpMV and finished after them. Entering a trip, the state carries
/// iteration-`j` values of `x, r, u(=z), w, p, s(=q), h, g` plus the
/// replicated γ = r·u and the recurrence pᵀAp, so α = γ/pᵀAp is known
/// immediately and the only reduction of the trip overlaps the heavy
/// kernels. See `ARCHITECTURE.md` §"Pipelined reduction pipeline".
fn solve_node_pipelined(ctx: &mut Ctx, shared: &SharedProblem) -> NodeOutcome {
    let cfg = &shared.cfg;
    debug_assert!(cfg.validate(ctx.size()).is_ok(), "invalid solver config");
    let part = &*shared.part;
    assert_eq!(ctx.size(), part.n_ranks(), "rank count mismatch");
    let rank = ctx.rank();
    let be = cfg.backend.subdivided(ctx.size());
    let range = part.range(rank);
    let nloc = range.len();

    ctx.set_phase(Phase::Setup);
    let mut full = vec![0.0f64; part.n()];
    let mut ws = SolverWorkspace::new();

    let mut st = NodeState::new_pipelined(nloc);
    let (bnorm2, rr0) = init_pipelined(ctx, shared, &mut st, &mut full);
    assert!(bnorm2 > 0.0, "zero right-hand side: x = 0 is the solution");
    let mut relres = (rr0 / bnorm2).sqrt();

    let mut j: usize = 0;
    let mut next_event = 0usize;
    let mut recovery_reports: Vec<RecoveryOutcome> = Vec::new();
    let mut tuning_events: Vec<TuneEvent> = Vec::new();
    let mut sched = IntervalSchedule::new(cfg.strategy);
    let mut tuner = IntervalTuner::for_policy(cfg.interval_policy);
    let mut total_loop_trips = 0usize;
    let mut converged = false;

    loop {
        if relres < cfg.rtol {
            converged = true;
            break;
        }
        if j >= cfg.max_iters {
            break;
        }
        total_loop_trips += 1;
        ctx.trace_instant(InstantKind::Iteration, j as u64);

        // --- IMCR checkpoint (entry state is iteration j) -----------------
        if sched.checkpoint(j) {
            checkpoint_exchange(ctx, shared, &mut st, j);
            if let Some(tn) = tuner.as_mut() {
                tn.note_round();
            }
        }

        // --- Redundant copies of p (explicit; the research twist) ---------
        // The pipelined SpMV communicates m = M⁻¹w, not p, so the ASpMV's
        // free halo ride of the search direction disappears. Augmented
        // iterations therefore ship p explicitly over the same halo +
        // extras index sets, keeping the redundancy queue's coverage
        // guarantee (and its contents) identical to Classic's.
        if sched.augmented(j) {
            let mut captured: Vec<(usize, f64)> = Vec::new();
            capture_direction(
                ctx,
                shared,
                &st.p,
                range.start,
                j,
                Tag::PipelinedP,
                &mut captured,
            );
            st.queue.push(j, captured);
            if let (Some(tn), Some(1)) = (tuner.as_mut(), sched.interval()) {
                // ESR: every augmented iteration is one protection round.
                tn.note_round();
            }
        }

        // --- ESRP storage stage, second iteration: starred copies ---------
        if sched.storage_second(j) {
            ctx.set_phase(Phase::Storage);
            st.make_star(j);
            if let Some(tn) = tuner.as_mut() {
                tn.note_round();
            }
        }

        // --- Failure injection + recovery ---------------------------------
        if let Some(f) = cfg.failures.get(next_event) {
            if f.triggers_at(j) {
                next_event += 1;
                ctx.trace_instant(InstantKind::FailureTrigger, j as u64);
                let event = f.clone();
                if event.affects(rank) {
                    st.wipe();
                }
                let target = sched.rollback_target(j);
                let rec = recover(
                    ctx, shared, &mut st, &mut ws, &mut full, j, target, &event, &sched,
                );
                j = rec.resumed_at;
                if let Some(tn) = tuner.as_mut() {
                    let ev = retune_after_recovery(
                        ctx,
                        shared,
                        &mut st,
                        &mut sched,
                        tn,
                        &rec,
                        total_loop_trips,
                    );
                    tuning_events.push(ev);
                }
                recovery_reports.push(rec);
                relres = f64::INFINITY;
                continue;
            }
        }

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
            } = &mut st;
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
        let pending = ctx.allreduce_sum_start(&[gamma_loc, delta_loc, rr_loc]);

        // --- m = M⁻¹w and n = Am while the reduction flies ----------------
        let mut aux = st.aux.take().expect("pipelined state");
        ctx.set_phase(Phase::Precond);
        shared
            .precond
            .apply_local(range.clone(), &aux.w, &mut aux.m);
        ctx.charge_flops(shared.precond.apply_flops(range.clone()));
        ctx.set_phase(Phase::SpMV);
        dist_spmv(
            ctx, shared, be, &aux.m, j as u32, &mut full, &mut aux.n, None,
        );

        // --- Complete the recurrence scalars ------------------------------
        ctx.set_phase(Phase::Reduction);
        let red = pending.finish(ctx);
        let (gamma_new, delta, rr) = (red[0], red[1], red[2]);
        ctx.recycle_f64s(red);
        let beta = gamma_new / st.rz;
        aux.pap = delta - beta * beta * aux.pap;
        st.rz = gamma_new;
        st.aux = Some(aux);

        // --- ESRP storage stage, first iteration: stash β** ---------------
        if sched.storage_first(j) {
            ctx.set_phase(Phase::Storage);
            st.beta_ss = beta;
        }

        // --- p = u + βp, s = w + βs, h = m + βh, g = n + βg ---------------
        ctx.set_phase(Phase::VecOps);
        {
            let NodeState { z, p, q, aux, .. } = &mut st;
            let aux = aux.as_mut().expect("pipelined state");
            be.axpby(1.0, z, beta, p);
            be.axpby(1.0, &aux.w, beta, q);
            be.axpby(1.0, &aux.m, beta, &mut aux.h);
            be.axpby(1.0, &aux.n, beta, &mut aux.g);
        }
        ctx.charge_flops(8 * nloc as u64);
        st.beta_prev = beta;

        j += 1;
        relres = (rr / bnorm2).sqrt();
    }

    drift_epilogue(
        ctx,
        shared,
        be,
        st,
        &mut full,
        bnorm2,
        converged,
        j,
        total_loop_trips,
        recovery_reports,
        tuning_events,
    )
}

/// The s-step (communication-avoiding) PCG loop: one fused Gram reduction
/// per outer step of up to `s` iterations. Each trip
///
/// 1. protects the **block-start** state (IMCR checkpoint round, explicit
///    redundant copies of p^(ĵ−1)/p^(ĵ), ESRP starred copies — all of
///    which land on outer-step boundaries, where the state is exactly
///    classic-shaped and the transient Krylov block is empty),
/// 2. builds the block basis V = [ρ₀…ρ_s, ζ₀…ζ_{s−1}] by a matrix-powers
///    sweep (ρ₀ = p, ζ₀ = z, each power one split-phase-halo SpMV plus one
///    local preconditioner apply; the A-images W fall out for free),
/// 3. reduces the small Gram system [VᵀW, WᵀW, Vᵀr₀, Wᵀr₀, r₀·r₀] with a
///    **single** fused allreduce,
/// 4. replays up to `s` scalar CG updates on the replicated coordinate
///    vectors (serial O(s²) arithmetic — bitwise identical on every rank
///    and across thread counts), truncating early if the monomial basis
///    runs out of accuracy, then materializes x/r/z/p at the block end.
///
/// A failure whose iteration falls anywhere inside the window is detected
/// at the block start and rolls back to the last protected block start —
/// the re-executed scalar updates are replicated, so trajectories stay
/// deterministic. See `ARCHITECTURE.md` §"s-step pipeline".
fn solve_node_sstep(ctx: &mut Ctx, shared: &SharedProblem, s: usize) -> NodeOutcome {
    let cfg = &shared.cfg;
    debug_assert!(cfg.validate(ctx.size()).is_ok(), "invalid solver config");
    let part = &*shared.part;
    assert_eq!(ctx.size(), part.n_ranks(), "rank count mismatch");
    let rank = ctx.rank();
    let be = cfg.backend.subdivided(ctx.size());
    let range = part.range(rank);
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

    ctx.set_phase(Phase::Setup);
    let mut full = vec![0.0f64; part.n()];
    let mut ws = SolverWorkspace::new();
    // Per-block workspace, allocated once: every column is fully
    // overwritten each outer step (see [`SStepAux`]).
    let mut aux = Box::new(SStepAux::new(s, nloc));

    let mut st = NodeState::new(nloc);
    let (bnorm2, rr_init) = init_state(ctx, shared, &mut st, &mut full);
    assert!(bnorm2 > 0.0, "zero right-hand side: x = 0 is the solution");
    let mut relres = (rr_init / bnorm2).sqrt();

    let mut j: usize = 0;
    let mut next_event = 0usize;
    let mut recovery_reports: Vec<RecoveryOutcome> = Vec::new();
    let mut tuning_events: Vec<TuneEvent> = Vec::new();
    let mut sched = IntervalSchedule::new(cfg.strategy);
    let mut tuner = IntervalTuner::for_policy(cfg.interval_policy);
    let mut total_loop_trips = 0usize;
    let mut converged = false;
    // The last block start whose state is protected (checkpoint round,
    // ESR capture, or ESRP starred copies): the rollback target for any
    // failure inside a later window. Replicated control flow — identical
    // on every rank, and it survives failure injection just as the loop
    // counter does (the paper wipes *node state*, not the program).
    let mut last_protect: Option<usize> = None;
    // The iteration label the materialized `aux.p_prev` belongs to
    // (`Some(j − 1)` entering a block start at j whose predecessor block
    // completed normally; `None` right after init or a degenerate resume).
    let mut p_prev_at: Option<usize> = None;

    loop {
        if relres < cfg.rtol {
            converged = true;
            break;
        }
        if j >= cfg.max_iters {
            break;
        }
        let window_end = (j + s).min(cfg.max_iters);
        let window = j..window_end;
        let s_eff = window_end - j;
        // One mark per loop trip (an s-step block), labeled with its start.
        ctx.trace_instant(InstantKind::Iteration, j as u64);

        // --- IMCR checkpoint when any window iteration is due -------------
        // Checkpoints land on the block start, so the blob stays
        // classic-shaped ([x; r; z; p; β]) — the Krylov block is rebuilt
        // from definitions after any rollback.
        if window.clone().any(|jj| sched.checkpoint(jj)) {
            checkpoint_exchange(ctx, shared, &mut st, j);
            last_protect = Some(j);
            if let Some(tn) = tuner.as_mut() {
                tn.note_round();
            }
        }

        // --- Redundant copies of p^(j−1), p^(j) (explicit, block-aligned) --
        // The matrix-powers sweep communicates basis columns, not p, so —
        // as with the pipelined variant — augmented iterations ship the
        // search directions explicitly over the halo + extras index sets.
        // Both block-start directions are captured so the reconstruction
        // (paper Alg. 2) finds p^(ĵ−1) and p^(ĵ) under its usual labels.
        // ESR (T = 1) protects every block start. ESRP (T > 1) protects
        // only block starts whose window completes a storage stage —
        // capturing at every augmented window would push extra pairs and
        // evict the starred pair from the depth-3 queue before a failure
        // can use it. (`storage_second` is never true for IMCR, and
        // `augmented` never for IMCR either, so IMCR captures nothing.)
        let capture_due = j >= 1
            && p_prev_at == Some(j - 1)
            && if sched.interval() == Some(1) {
                window.clone().any(|jj| sched.augmented(jj))
            } else {
                window.clone().any(|jj| sched.storage_second(jj))
            };
        if capture_due {
            // After a rollback the queue may still hold slots at or past
            // this block start (survivors keep everything up to the
            // recovery point); drop them so the re-executed captures leave
            // the queue identical to an undisturbed run's. No-op otherwise.
            st.queue.purge_after(j - 1);
            let mut cap_prev: Vec<(usize, f64)> = Vec::new();
            capture_direction(
                ctx,
                shared,
                &aux.p_prev,
                range.start,
                j - 1,
                Tag::SStepBasis,
                &mut cap_prev,
            );
            st.queue.push(j - 1, cap_prev);
            let mut cap_cur: Vec<(usize, f64)> = Vec::new();
            capture_direction(
                ctx,
                shared,
                &st.p,
                range.start,
                j,
                Tag::SStepBasis,
                &mut cap_cur,
            );
            st.queue.push(j, cap_cur);
            if sched.interval() == Some(1) {
                // ESR: every captured block start is a protection round.
                last_protect = Some(j);
                if let Some(tn) = tuner.as_mut() {
                    tn.note_round();
                }
            }
        }

        // --- ESRP storage stage falling in this window: starred copies ----
        // β^(j−1) is exactly the β* the per-iteration schedule would have
        // promoted at its stage end, because the star lands on the block
        // start rather than mid-stage.
        if capture_due && window.clone().any(|jj| sched.storage_second(jj)) {
            ctx.set_phase(Phase::Storage);
            st.beta_ss = st.beta_prev;
            st.make_star(j);
            last_protect = Some(j);
            if let Some(tn) = tuner.as_mut() {
                tn.note_round();
            }
        }

        // --- Failure injection + recovery (anywhere inside the window) ----
        if let Some(f) = cfg.failures.get(next_event) {
            let j_f = f.at_iteration();
            if window.contains(&j_f) {
                next_event += 1;
                ctx.trace_instant(InstantKind::FailureTrigger, j_f as u64);
                let event = f.clone();
                if event.affects(rank) {
                    st.wipe();
                }
                let rec = recover(
                    ctx,
                    shared,
                    &mut st,
                    &mut ws,
                    &mut full,
                    j_f,
                    last_protect,
                    &event,
                    &sched,
                );
                j = rec.resumed_at;
                last_protect = (!rec.full_restart).then_some(rec.resumed_at);
                if let Some(tn) = tuner.as_mut() {
                    let ev = retune_after_recovery(
                        ctx,
                        shared,
                        &mut st,
                        &mut sched,
                        tn,
                        &rec,
                        total_loop_trips,
                    );
                    tuning_events.push(ev);
                }
                // Re-materialize p^(ĵ−1) for the re-executed block-start
                // captures: p = z + β·p_prev at the resume point inverts to
                // (p − z)/β. Replicated arithmetic on replicated state.
                if cfg.strategy.uses_aspmv() {
                    if j >= 1 && st.beta_prev != 0.0 {
                        ctx.set_phase(Phase::RecoveryReset);
                        let beta = st.beta_prev;
                        for l in 0..nloc {
                            aux.p_prev[l] = (st.p[l] - st.z[l]) / beta;
                        }
                        ctx.charge_flops(2 * nloc as u64);
                        p_prev_at = Some(j - 1);
                    } else {
                        p_prev_at = None;
                    }
                }
                recovery_reports.push(rec);
                relres = f64::INFINITY;
                continue;
            }
        }

        // --- Matrix-powers sweep: the block basis and its A-images --------
        // 2s−1 SpMVs and preconditioner applies per block (≈2× the classic
        // work — the communication-avoiding trade), each over the
        // configured halo schedule. Tag subs repeat across the two chains;
        // per-(source, tag) FIFO matching keeps sequential reuse safe.
        ctx.set_phase(Phase::SpMV);
        {
            let SStepAux { v, w, .. } = &mut *aux;
            v[0].copy_from_slice(&st.p);
            for k in 0..s {
                dist_spmv(
                    ctx,
                    shared,
                    be,
                    &v[k],
                    (j + k) as u32,
                    &mut full,
                    &mut w[k],
                    None,
                );
                ctx.set_phase(Phase::Precond);
                shared
                    .precond
                    .apply_local(range.clone(), &w[k], &mut v[k + 1]);
                ctx.charge_flops(shared.precond.apply_flops(range.clone()));
                ctx.set_phase(Phase::SpMV);
            }
            v[s + 1].copy_from_slice(&st.z);
            for k in 0..s - 1 {
                dist_spmv(
                    ctx,
                    shared,
                    be,
                    &v[s + 1 + k],
                    (j + k) as u32,
                    &mut full,
                    &mut w[s + k],
                    None,
                );
                ctx.set_phase(Phase::Precond);
                shared
                    .precond
                    .apply_local(range.clone(), &w[s + k], &mut v[s + 2 + k]);
                ctx.charge_flops(shared.precond.apply_flops(range.clone()));
                ctx.set_phase(Phase::SpMV);
            }
        }

        // --- The one fused Gram reduction of the outer step ---------------
        // [G = VᵀW | upper(H = WᵀW) | Vᵀr₀ | Wᵀr₀ | r₀·r₀] in a pooled
        // buffer; started and finished through the split-phase reduce path.
        ctx.set_phase(Phase::Reduction);
        let n_dots = nv * nw + nw * (nw + 1) / 2 + nv + nw + 1;
        let mut buf = ctx.take_f64s();
        {
            let SStepAux { v, w, .. } = &*aux;
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
        let pending = ctx.allreduce_sum_start(&buf);
        ctx.recycle_f64s(buf);
        let red = pending.finish(ctx);
        let rr0;
        {
            let SStepAux { g, h, vr, wr, .. } = &mut *aux;
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
            } = &mut *aux;
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
                    let mut acc = 0.0;
                    for (u, &cau) in ca.iter().enumerate() {
                        if cau != 0.0 {
                            acc += cau * g[u * nw + wi];
                        }
                    }
                    pap += cat * acc;
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
                    let mut acc = 0.0;
                    for (w2, &cf2) in cf_t.iter().enumerate() {
                        if cf2 != 0.0 {
                            acc += cf2 * h[wi * nw + w2];
                        }
                    }
                    rr_new += cfw * acc;
                }
                let mut rz_new = 0.0;
                for (u, &ccu) in cc_t.iter().enumerate() {
                    if ccu != 0.0 {
                        rz_new += ccu * vr[u];
                    }
                }
                for (wi, &cfw) in cf_t.iter().enumerate() {
                    if cfw == 0.0 {
                        continue;
                    }
                    let mut acc = 0.0;
                    for (u, &ccu) in cc_t.iter().enumerate() {
                        if ccu != 0.0 {
                            acc += ccu * g[u * nw + wi];
                        }
                    }
                    rz_new += cfw * acc;
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
        // across thread counts, dispatch modes, and formats (the backend's
        // per-vector kernels already are).
        ctx.set_phase(Phase::VecOps);
        let j_next = j + i_exec;
        {
            let SStepAux {
                v,
                w,
                ca,
                ca_prev,
                cc,
                ce,
                cf,
                p_prev,
                ..
            } = &mut *aux;
            let mut axpys = 0u64;
            for (&c, vu) in ce.iter().zip(v.iter()) {
                if c != 0.0 {
                    be.axpby(c, vu, 1.0, &mut st.x);
                    axpys += 1;
                }
            }
            for (&c, wt) in cf.iter().zip(w.iter()) {
                if c != 0.0 {
                    be.axpby(c, wt, 1.0, &mut st.r);
                    axpys += 1;
                }
            }
            st.z.fill(0.0);
            for (&c, vu) in cc.iter().zip(v.iter()) {
                if c != 0.0 {
                    be.axpby(c, vu, 1.0, &mut st.z);
                    axpys += 1;
                }
            }
            st.p.fill(0.0);
            for (&c, vu) in ca.iter().zip(v.iter()) {
                if c != 0.0 {
                    be.axpby(c, vu, 1.0, &mut st.p);
                    axpys += 1;
                }
            }
            let converged_now = relres < cfg.rtol;
            if cfg.strategy.uses_aspmv() && !converged_now {
                // p^(j_next − 1) for the next block start's capture. After
                // ≥ 1 committed update ca_prev holds the previous p's
                // coordinates in *this* block's basis.
                p_prev.fill(0.0);
                for (&c, vu) in ca_prev.iter().zip(v.iter()) {
                    if c != 0.0 {
                        be.axpby(c, vu, 1.0, p_prev);
                        axpys += 1;
                    }
                }
                p_prev_at = Some(j_next - 1);
            }
            ctx.charge_flops(axpys * 2 * nloc as u64);
        }
        st.rz = rz;
        st.beta_prev = beta_last;
        total_loop_trips += i_exec;
        j = j_next;
    }

    drift_epilogue(
        ctx,
        shared,
        be,
        st,
        &mut full,
        bnorm2,
        converged,
        j,
        total_loop_trips,
        recovery_reports,
        tuning_events,
    )
}

/// Sends and receives explicit redundant copies of a search direction:
/// the outer halo index sets plus the ASpMV extras, so the captured set
/// (and hence the queue's coverage guarantee) matches the classic
/// augmented SpMV exactly. Runs under [`Phase::Storage`]. The pipelined
/// variant ships each iteration's p under [`Tag::PipelinedP`]; the s-step
/// variant ships the block-start pair p^(ĵ−1)/p^(ĵ) under
/// [`Tag::SStepBasis`] (a separate kind so the two copies of one block
/// start cannot mix with the matrix-powers halo traffic), with `label`
/// doubling as the tag sub and the queue iteration label.
fn capture_direction(
    ctx: &mut Ctx,
    shared: &SharedProblem,
    p_local: &[f64],
    range_start: usize,
    label: usize,
    kind: Tag,
    captured: &mut Vec<(usize, f64)>,
) {
    let rank = ctx.rank();
    ctx.set_phase(Phase::Storage);
    ctx.trace_instant(InstantKind::StorageRound, label as u64);
    let tag = kind.with(label as u32);
    for (dst, gidx) in shared.plan.sends_of(rank) {
        let mut pairs = ctx.take_pairs();
        pairs.extend(gidx.iter().map(|&g| (g, p_local[g - range_start])));
        ctx.send(*dst, tag, Payload::Pairs(pairs));
    }
    for (src, _) in shared.plan.recvs_of(rank) {
        let pairs = ctx.recv(*src, tag).into_pairs();
        captured.extend_from_slice(&pairs);
        ctx.recycle_pairs(pairs);
    }
    aspmv_extras(ctx, shared, p_local, range_start, label, captured);
}

/// Post-convergence accuracy metrics: the paper's residual drift (Eq. 2)
/// from one extra true-residual SpMV, with the final reduction attributed
/// to [`Phase::Reduction`].
#[allow(clippy::too_many_arguments)]
fn drift_epilogue(
    ctx: &mut Ctx,
    shared: &SharedProblem,
    be: KernelBackend,
    mut st: NodeState,
    full: &mut [f64],
    bnorm2: f64,
    converged: bool,
    iterations: usize,
    total_loop_trips: usize,
    recoveries: Vec<RecoveryOutcome>,
    tuning: Vec<TuneEvent>,
) -> NodeOutcome {
    let range = shared.part.range(ctx.rank());
    let nloc = range.len();
    ctx.set_phase(Phase::Other);
    {
        let NodeState { x, q, .. } = &mut st;
        dist_spmv(ctx, shared, be, x, DRIFT_TAG, full, q, None);
    }
    let mut tr_loc = 0.0f64;
    for i in 0..nloc {
        let tri = shared.b[range.start + i] - st.q[i];
        tr_loc += tri * tri;
    }
    let rr_loc = be.dot(&st.r, &st.r);
    ctx.charge_flops(5 * nloc as u64);
    ctx.set_phase(Phase::Reduction);
    let red = ctx.allreduce_sum(&[rr_loc, tr_loc]);
    ctx.set_phase(Phase::Other);
    let rnorm = red[0].sqrt();
    let true_rnorm = red[1].sqrt();
    ctx.recycle_f64s(red);
    let bnorm = bnorm2.sqrt();

    NodeOutcome {
        converged,
        iterations,
        total_loop_trips,
        final_relres: rnorm / bnorm,
        true_relres: true_rnorm / bnorm,
        residual_drift: (rnorm - true_rnorm) / true_rnorm,
        x_local: st.x,
        recoveries,
        tuning,
    }
}

/// Sends and receives the ASpMV extra redundant copies (paper §2.2.1) and
/// appends everything received to `captured`.
fn aspmv_extras(
    ctx: &mut Ctx,
    shared: &SharedProblem,
    p_local: &[f64],
    range_start: usize,
    j: usize,
    captured: &mut Vec<(usize, f64)>,
) {
    let aspmv = shared
        .aspmv
        .as_ref()
        .expect("ASpMV iteration requires an augmentation plan");
    let rank = ctx.rank();
    ctx.set_phase(Phase::Storage);
    let tag = Tag::Redundant.with(j as u32);
    for (dst, gidx) in aspmv.extras_of(rank) {
        let mut pairs = ctx.take_pairs();
        pairs.extend(gidx.iter().map(|&g| (g, p_local[g - range_start])));
        ctx.send(*dst, tag, Payload::Pairs(pairs));
    }
    for &src in aspmv.extra_sources_of(rank) {
        let pairs = ctx.recv(src, tag).into_pairs();
        captured.extend_from_slice(&pairs);
        ctx.recycle_pairs(pairs);
    }
}

/// One IMCR checkpoint round (paper §3.1): every rank sends its dynamic
/// vectors to its φ buddies and keeps a local rollback copy.
fn checkpoint_exchange(ctx: &mut Ctx, shared: &SharedProblem, st: &mut NodeState, j: usize) {
    let buddies = shared.buddies.as_ref().expect("IMCR requires a buddy map");
    let rank = ctx.rank();
    ctx.set_phase(Phase::Checkpoint);
    ctx.trace_instant(InstantKind::CheckpointRound, j as u64);
    let tag = Tag::Checkpoint.with(j as u32);
    // Stage the blob in a pooled buffer: the whole round allocates nothing
    // at steady state.
    let mut blob = ctx.take_f64s();
    st.checkpoint_blob_into(&mut blob);
    for &d in buddies.out_buddies(rank) {
        let mut copy = ctx.take_f64s();
        copy.extend_from_slice(&blob);
        ctx.send(d, tag, Payload::F64s(copy));
    }
    ctx.recycle_f64s(blob);
    for &s in buddies.in_buddies(rank) {
        let data = ctx.recv(s, tag).into_f64s();
        let replaced = st.held_ckpts.insert(
            s,
            HeldCheckpoint {
                iter: j,
                blob: data,
            },
        );
        if let Some(old) = replaced {
            ctx.recycle_f64s(old.blob);
        }
    }
    st.take_own_checkpoint(j);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcg::pcg;
    use esrcg_cluster::{run_spmd, CostModel, FailureSpec};
    use esrcg_sparse::gen::poisson2d;
    use esrcg_sparse::vector::max_abs_diff;

    fn shared_for(
        n_ranks: usize,
        strategy: Strategy,
        phi: usize,
        failure: Option<FailureSpec>,
    ) -> SharedProblem {
        let a = poisson2d(12, 12);
        let n = a.nrows();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).sin()).collect();
        let b = a.spmv(&x_true);
        let mut cfg = SolverConfig::new(strategy, phi);
        cfg.failures = failure.into_iter().collect();
        SharedProblem::assemble(
            a,
            b,
            vec![0.0; n],
            n_ranks,
            PrecondSpec::paper_default(),
            cfg,
        )
        .expect("valid problem")
    }

    fn run(shared: SharedProblem, n_ranks: usize) -> (Vec<NodeOutcome>, f64) {
        let shared = Arc::new(shared);
        let out = run_spmd(n_ranks, CostModel::default(), {
            let shared = shared.clone();
            move |ctx| solve_node(ctx, &shared)
        });
        (out.results, out.modeled_time)
    }

    fn gather_x(outs: &[NodeOutcome]) -> Vec<f64> {
        outs.iter()
            .flat_map(|o| o.x_local.iter().copied())
            .collect()
    }

    #[test]
    fn distributed_matches_sequential_reference() {
        let shared = shared_for(4, Strategy::None, 0, None);
        let seq = pcg(
            &shared.a,
            &shared.b,
            &shared.x0,
            shared.precond.as_ref(),
            shared.cfg.rtol,
            shared.cfg.max_iters,
        );
        let (outs, _) = run(shared_for(4, Strategy::None, 0, None), 4);
        assert!(outs.iter().all(|o| o.converged));
        assert_eq!(outs[0].iterations, seq.iterations);
        let x = gather_x(&outs);
        assert!(max_abs_diff(&x, &seq.x) < 1e-12);
    }

    #[test]
    fn all_strategies_follow_identical_trajectories_failure_free() {
        // Resilience without failures must not change the arithmetic: same
        // iteration count, bitwise identical solution.
        let (ref_outs, _) = run(shared_for(4, Strategy::None, 0, None), 4);
        let ref_x = gather_x(&ref_outs);
        let c = ref_outs[0].iterations;
        for strategy in [
            Strategy::esr(),
            Strategy::Esrp { t: 5 },
            Strategy::Esrp { t: 20 },
            Strategy::Imcr { t: 5 },
        ] {
            let (outs, _) = run(shared_for(4, strategy, 2, None), 4);
            assert!(outs.iter().all(|o| o.converged), "{strategy}");
            assert_eq!(outs[0].iterations, c, "{strategy}");
            assert_eq!(gather_x(&outs), ref_x, "{strategy}: bitwise identical");
        }
    }

    #[test]
    fn esrp_recovers_from_single_failure() {
        let (ref_outs, _) = run(shared_for(4, Strategy::None, 0, None), 4);
        let c = ref_outs[0].iterations;
        let ref_x = gather_x(&ref_outs);
        let failure = FailureSpec::contiguous(c / 2, 1, 1, 4);
        let (outs, _) = run(shared_for(4, Strategy::Esrp { t: 5 }, 1, Some(failure)), 4);
        assert!(outs.iter().all(|o| o.converged));
        let rec = outs[0].recoveries.first().expect("recovery happened");
        assert!(!rec.full_restart);
        assert!(rec.resumed_at <= rec.failed_at);
        assert!(rec.recovery_time > 0.0);
        // Same trajectory ⇒ same iteration count and ~same solution.
        assert_eq!(outs[0].iterations, c);
        let x = gather_x(&outs);
        assert!(max_abs_diff(&x, &ref_x) < 1e-8);
    }

    #[test]
    fn esr_recovers_with_zero_wasted_iterations() {
        let (ref_outs, _) = run(shared_for(4, Strategy::None, 0, None), 4);
        let c = ref_outs[0].iterations;
        let failure = FailureSpec::contiguous(c / 2, 2, 1, 4);
        let (outs, _) = run(shared_for(4, Strategy::esr(), 1, Some(failure)), 4);
        assert!(outs.iter().all(|o| o.converged));
        let rec = outs[0].recoveries.first().unwrap();
        assert_eq!(
            rec.wasted_iterations, 0,
            "ESR reconstructs the current iteration"
        );
        assert_eq!(outs[0].iterations, c);
    }

    #[test]
    fn imcr_recovers_from_single_failure() {
        let (ref_outs, _) = run(shared_for(4, Strategy::None, 0, None), 4);
        let c = ref_outs[0].iterations;
        let ref_x = gather_x(&ref_outs);
        let failure = FailureSpec::contiguous(c / 2, 0, 1, 4);
        let (outs, _) = run(shared_for(4, Strategy::Imcr { t: 5 }, 1, Some(failure)), 4);
        assert!(outs.iter().all(|o| o.converged));
        let rec = outs[0].recoveries.first().unwrap();
        assert!(!rec.full_restart);
        assert_eq!(rec.resumed_at, (c / 2) / 5 * 5);
        // IMCR rollback is bitwise: identical trajectory and solution.
        assert_eq!(outs[0].iterations, c);
        assert_eq!(gather_x(&outs), ref_x);
    }

    #[test]
    fn multi_rank_failure_recovers() {
        let (ref_outs, _) = run(shared_for(6, Strategy::None, 0, None), 6);
        let c = ref_outs[0].iterations;
        let ref_x = gather_x(&ref_outs);
        let failure = FailureSpec::contiguous(c / 2, 2, 3, 6);
        let (outs, _) = run(shared_for(6, Strategy::Esrp { t: 4 }, 3, Some(failure)), 6);
        assert!(outs.iter().all(|o| o.converged));
        assert_eq!(outs[0].iterations, c);
        let x = gather_x(&outs);
        assert!(max_abs_diff(&x, &ref_x) < 1e-8);
    }

    #[test]
    fn failure_before_first_checkpoint_restarts() {
        let failure = FailureSpec::contiguous(3, 0, 1, 4);
        let (outs, _) = run(shared_for(4, Strategy::Esrp { t: 50 }, 1, Some(failure)), 4);
        assert!(outs.iter().all(|o| o.converged));
        let rec = outs[0].recoveries.first().unwrap();
        assert!(rec.full_restart);
        assert_eq!(rec.resumed_at, 0);
    }

    #[test]
    fn drift_metric_is_small_and_consistent() {
        let (outs, _) = run(shared_for(4, Strategy::None, 0, None), 4);
        for o in &outs {
            assert_eq!(o.residual_drift, outs[0].residual_drift);
            assert!(o.residual_drift.abs() < 1.0);
            assert!(o.true_relres < 1e-6);
        }
    }

    #[test]
    fn split_phase_is_bitwise_identical_and_faster_on_the_modeled_clock() {
        let mk = |mode| {
            let mut s = shared_for(4, Strategy::None, 0, None);
            s.cfg.spmv_mode = mode;
            s
        };
        let (b_outs, t_blocking) = run(mk(SpmvMode::Blocking), 4);
        let (s_outs, t_split) = run(mk(SpmvMode::SplitPhase), 4);
        assert_eq!(b_outs[0].iterations, s_outs[0].iterations);
        assert_eq!(gather_x(&b_outs), gather_x(&s_outs), "bitwise identical");
        assert_eq!(
            b_outs[0].final_relres.to_bits(),
            s_outs[0].final_relres.to_bits()
        );
        // The overlap hides halo wait under interior rows: the modeled
        // clock (deterministic) must be strictly better.
        assert!(
            t_split < t_blocking,
            "split-phase {t_split} vs blocking {t_blocking}"
        );
    }

    #[test]
    fn formats_are_bitwise_identical_in_both_spmv_modes() {
        let (ref_outs, t_ref) = run(shared_for(4, Strategy::None, 0, None), 4);
        let ref_x = gather_x(&ref_outs);
        let c = ref_outs[0].iterations;
        let a = poisson2d(12, 12);
        let n = a.nrows();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).sin()).collect();
        let b = a.spmv(&x_true);
        for fmt in [
            SpmvFormat::sell(),
            SpmvFormat::bcsr3(),
            SpmvFormat::Sellcs { c: 4, sigma: 8 },
        ] {
            for mode in [SpmvMode::Blocking, SpmvMode::SplitPhase] {
                let mut cfg = SolverConfig::new(Strategy::None, 0);
                cfg.spmv_mode = mode;
                cfg.spmv_format = fmt;
                let shared = SharedProblem::assemble(
                    a.clone(),
                    b.clone(),
                    vec![0.0; n],
                    4,
                    PrecondSpec::paper_default(),
                    cfg,
                )
                .expect("valid problem");
                assert!(shared.fmt_cache.is_some(), "non-CSR formats are cached");
                let (outs, t) = run(shared, 4);
                assert!(outs.iter().all(|o| o.converged), "{}", fmt.name());
                assert_eq!(outs[0].iterations, c, "{}", fmt.name());
                assert_eq!(
                    gather_x(&outs),
                    ref_x,
                    "{} {} bitwise identical",
                    fmt.name(),
                    mode.name()
                );
                if mode == SpmvMode::SplitPhase {
                    // Flops are charged from the CSR structure regardless of
                    // format, so the modeled clock is format-invariant too.
                    assert_eq!(t.to_bits(), t_ref.to_bits(), "{}", fmt.name());
                }
            }
        }
    }

    #[test]
    fn modeled_time_reflects_redundancy_overhead() {
        let (_, t_none) = run(shared_for(4, Strategy::None, 0, None), 4);
        let (_, t_esr) = run(shared_for(4, Strategy::esr(), 3, None), 4);
        let (_, t_esrp) = run(shared_for(4, Strategy::Esrp { t: 20 }, 3, None), 4);
        assert!(t_esr > t_none, "ESR pays redundancy every iteration");
        assert!(t_esrp > t_none, "ESRP pays some redundancy");
        assert!(t_esrp < t_esr, "ESRP(T=20) must be cheaper than ESR");
    }

    #[test]
    fn config_validation() {
        let ok = SolverConfig::new(Strategy::Esrp { t: 5 }, 2);
        assert!(ok.validate(8).is_ok());
        let mut auto = SolverConfig::new(Strategy::Esrp { t: 5 }, 2);
        auto.interval_policy = IntervalPolicy::Adaptive {
            min_t: 1,
            max_t: 40,
        };
        assert!(auto.validate(8).is_ok());
        let mut bad = SolverConfig::new(Strategy::None, 0);
        bad.interval_policy = IntervalPolicy::Adaptive {
            min_t: 1,
            max_t: 40,
        };
        assert!(
            bad.validate(8).is_err(),
            "adaptive policy without a strategy rejected"
        );
        let mut bad = SolverConfig::new(Strategy::Esrp { t: 5 }, 2);
        bad.interval_policy = IntervalPolicy::Adaptive { min_t: 9, max_t: 4 };
        assert!(bad.validate(8).is_err(), "inverted bounds rejected");
        let mut bad = SolverConfig::new(Strategy::Esrp { t: 5 }, 2);
        bad.failures = vec![FailureSpec::contiguous(10, 0, 3, 8)];
        assert!(bad.validate(8).is_err(), "psi > phi rejected");
        let bad = SolverConfig::new(Strategy::Esrp { t: 5 }, 8);
        assert!(bad.validate(8).is_err(), "phi >= n_ranks rejected");
        let mut bad = SolverConfig::new(Strategy::None, 0);
        bad.failures = vec![FailureSpec::contiguous(10, 0, 1, 8)];
        assert!(
            bad.validate(8).is_err(),
            "failure without strategy rejected"
        );
    }
}
