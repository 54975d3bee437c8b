//! The distributed resilient PCG node program.
//!
//! [`solve_node`] is the SPMD body each simulated node runs (paper Alg. 3):
//! the PCG loop with pluggable resilience — ASpMV storage stages (ESR/ESRP),
//! buddy checkpointing (IMCR), failure injection, and recovery. The
//! [`SharedProblem`] holds all *static* data (matrix, preconditioner,
//! right-hand side, communication plans), which the paper assumes
//! retrievable from safe storage after a failure.

mod classic;
mod pipelined;
pub(crate) mod recovery;
mod reduction_log;
mod sstep;
pub(crate) mod state;
pub(crate) mod tuning;
pub(crate) mod workspace;

use std::ops::Range;
use std::sync::Arc;

use esrcg_cluster::{Ctx, InstantKind, Payload, Phase, Tag};
use esrcg_precond::{BlockJacobiPrecond, PrecondSpec};
use esrcg_sparse::{
    CsrMatrix, FormatCache, KernelBackend, Partition, RowSplitSet, SparseError, SpmvFormat,
};

use crate::aspmv::{AspmvPlan, BuddyMap};
use crate::dist::halo::{HaloExchange, PlanView};
use crate::dist::plan::CommPlan;
use crate::queue::Capture;
use crate::strategy::{IntervalPolicy, Strategy};
use recovery::{recover, settle_and_end_solve, settle_background, RecoveryOutcome, RecoveryState};
use reduction_log::ReductionLog;
use state::{checkpoint_blob_len, NodeState, Snapshot};
use tuning::TuneEvent;
use tuning::{IntervalSchedule, IntervalTuner};

/// Halo-exchange tag used during (re)initialization.
const INIT_TAG: u32 = u32::MAX - 1;
/// Halo-exchange tag used by the post-convergence drift computation.
const DRIFT_TAG: u32 = u32::MAX;

/// Which PCG recurrence the solver runs.
///
/// Unlike the kernel backend or the SpMV storage format, the variants are
/// **not** bitwise identical: pipelining restructures the recurrence
/// (Ghysels–Vanroose), trading one of the two blocking allreduces per
/// iteration plus extra vector operations for a single fused reduction
/// whose latency hides under the preconditioner and SpMV of the same
/// iteration. Trajectories agree to rounding (same iteration count ± a few
/// on well-conditioned problems); `Classic` remains the bitwise-reference
/// baseline.
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

/// How a recovery gives the solve back its state: how the replacements of an
/// ESR/ESRP event get their lost block of `x` back (paper Alg. 2, lines 7–8:
/// `w = b_f − r_f − A[f, s] x_s`, then solve `A[I_f, I_f] x_f = w`), and
/// what the iterations an ESRP or IMCR rollback redoes pay.
///
/// Nothing after a recovery reads `x` until the epilogue: the state the
/// outer loop carries is rebuilt from the redundant copies of `p`, from β and
/// from `P[f,f] r_f = z_f`. So the inner error δ_f of `x_f` rides along
/// unchanged to the end of the solve, and the solve itself can wait there.
/// By Cauchy interlacing λ_min(A_KK) ≥ λ_min(A), so an inner solve stopped
/// at ‖w − A_KK x_K‖ ≤ η · rtol · ‖b‖ leaves ‖δ_K‖ ≤ η · ‖A⁻¹‖ · rtol · ‖b‖:
/// η times the forward error the outer tolerance already admits. Under
/// either rule the inner solve also stops at
/// [`SolverConfig::inner_max_iters`].
///
/// The redo starts from the state the original trips started from — bitwise
/// after an IMCR rollback, exactly in exact arithmetic after an ESRP one — so
/// its reductions would reduce to values every rank received before the
/// failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryRule {
    /// The paper's rule: every event solves for `x_f` at once and stops when
    /// ‖w − A_ff x_f‖ < 1e-14 · ‖w‖, and the redo re-runs every reduction.
    /// The reproduction tables run it, so that they measure the paper's
    /// reconstruction and redo costs.
    Paper,
    /// An event with ψ ≥ 2, or whose failed ranks are pending or neighbour a
    /// pending rank in the plan's peer graph, runs only lines 1–6 and adds
    /// its ranks to the pending set U. At exit from the loop each connected
    /// component K of U solves `A_KK x_K = b_K − r_K − A_{K,S} x_S` from the
    /// final `r` and the survivors' final `x`, the components concurrently,
    /// to ‖w − A_KK x_K‖ ≤ η · rtol · ‖b‖ (η = 0.01, `rtol` the outer
    /// tolerance [`SolverConfig::rtol`]). A lone replacement with no pending
    /// neighbour solves at once, to the same target: its inner solve sends no
    /// message, while a deferred one would join a component that pays one
    /// member round per inner iteration. That solve runs in the background
    /// (`Ctx::background`): its modeled time is paid out of the replacement's
    /// later receive waits, and the rest is charged before the next event or
    /// at the loop's exit. A full restart empties U.
    ///
    /// Every rank logs the loop's reduction results since the current
    /// rollback target, and the trips a rollback redoes take them from the
    /// log instead of the tree: a redone trip pays its SpMV halo and its
    /// local flops, and the first reduction past the failure point runs
    /// live. A replacement receives the logged values in the recovery
    /// round's one message from the rank that sends it scalars. ESR redoes
    /// nothing and a full restart replays nothing.
    Extended,
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
    /// `tuning::IntervalTuner`).
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
    /// rollback already repopulates the redundant copies). Under
    /// [`RecoveryRule::Extended`] an event may strike ranks that are
    /// still pending from an earlier one: their `x` is solved for once, at
    /// the end, whatever the number of events that hit them.
    pub failures: Vec<esrcg_cluster::FailureSpec>,
    /// When and how tightly the lost block of `x` is solved for, and whether
    /// a rollback's redo replays the logged reductions.
    /// [`SolverConfig::new`] picks [`RecoveryRule::Extended`]; the paper's
    /// rule is [`RecoveryRule::Paper`].
    pub recovery_rule: RecoveryRule,
    /// Iteration cap of the inner solve.
    pub inner_max_iters: usize,
    /// Which kernel backend executes the hot paths (SpMV, reductions,
    /// vector updates). Defaults to the parallel backend; all backends are
    /// bitwise identical (see [`esrcg_sparse::backend`]), so this only
    /// changes speed, never results.
    pub backend: KernelBackend,
    /// Which PCG recurrence runs. Defaults to [`PcgVariant::Classic`]
    /// (the bitwise-reference baseline); `Pipelined` overlaps the per-
    /// iteration reduction with the preconditioner + SpMV.
    pub variant: PcgVariant,
    /// Which storage format the SpMV hot loops use. Defaults to
    /// [`SpmvFormat::Csr`]; all formats are bitwise identical (see
    /// `esrcg_sparse::format`), so this only changes speed, never
    /// results. Non-CSR formats are converted once per problem into the
    /// [`SharedProblem`]'s format cache.
    pub spmv_format: SpmvFormat,
}

impl SolverConfig {
    /// Paper-default tolerances for the given strategy and φ, except for
    /// the recovery: the reconstruction of `x` is deferred and stops at
    /// η = 0.01 of the outer target, and a rollback's redo replays the logged
    /// reductions ([`RecoveryRule::Extended`]).
    pub fn new(strategy: Strategy, phi: usize) -> Self {
        SolverConfig {
            strategy,
            interval_policy: IntervalPolicy::Fixed,
            phi,
            rtol: 1e-8,
            max_iters: 200_000,
            failures: Vec::new(),
            recovery_rule: RecoveryRule::Extended,
            inner_max_iters: 100_000,
            backend: KernelBackend::default(),
            variant: PcgVariant::default(),
            spmv_format: SpmvFormat::default(),
        }
    }

    /// Validates the configuration against a cluster size.
    ///
    /// # Errors
    /// Returns a human-readable description of the first problem found.
    pub(crate) fn validate(&self, n_ranks: usize) -> Result<(), String> {
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
        if !(self.rtol > 0.0 && self.rtol.is_finite()) {
            return Err(format!(
                "rtol must be positive and finite (got {})",
                self.rtol
            ));
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
    /// The block Jacobi preconditioner, factored once per problem. The
    /// outer loop applies it over a rank's range, and so does every inner
    /// solve of a reconstruction: a rank's blocks are those of its own
    /// principal submatrix, so no replacement factors a second copy.
    pub precond: BlockJacobiPrecond,
    /// The SpMV communication plan.
    pub plan: Arc<CommPlan>,
    /// Per-rank interior/boundary row classification (built once per
    /// matrix + partition, alongside the plan) — what the split-phase SpMV
    /// computes while the halo is in flight.
    pub row_split: Arc<RowSplitSet>,
    /// The converted SpMV pieces when a non-CSR [`SpmvFormat`] is
    /// configured: per rank, the interior and boundary row lists, built
    /// **once per problem** next to the `RowSplitSet` and shared read-only
    /// by every rank. `None` under plain CSR.
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
    /// redundancy plans. The matrix handle is shared, not copied, so batch
    /// drivers (the campaign fleet) can assemble many problems from one
    /// materialized matrix.
    ///
    /// # Errors
    /// Returns configuration errors as strings and factorization failures
    /// as [`SparseError`] (stringified).
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
        if precond_spec.max_block == 0 {
            return Err("block Jacobi max_block must be at least 1".into());
        }
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

    /// The exchange of the augmented SpMV, among the peers `view` accepts.
    ///
    /// # Panics
    /// Panics under a strategy without an ASpMV plan.
    fn augmented<'a>(&'a self, view: PlanView<'a>) -> PlanView<'a> {
        let aspmv = self.aspmv.as_deref();
        view.augmented_by(aspmv.expect("ESR/ESRP hold an ASpMV plan"))
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
/// is `local`, on the split-phase schedule: the halo sends fire, the
/// *interior* rows (whose columns all lie in the owned range, see
/// [`RowSplitSet`]) compute while the messages fly, the receives drain, and
/// the *boundary* rows finish. Per stage the modeled clock pays
/// `max(comm, interior compute)` instead of the sum; per-row floating-point
/// order is that of the plain row-block product, which the unit tests hold
/// this function to bit for bit (`exchange_halo`, then every owned row).
///
/// A `captured` buffer makes this the augmented SpMV (ASpMV, paper §2.2.1)
/// of iteration `tag_sub`: the same exchange over the augmented index sets
/// ([`PlanView::augmented_by`]), its receive path capturing the redundant
/// copies into the buffer. A top-up bound for a halo peer travels inside
/// the halo message that peer receives anyway, in flight under the interior
/// rows. A top-up for a designated destination that is no halo peer is a
/// message of its own (`Tag::Redundant`, [`Phase::Storage`]): injected after
/// the halo sends, and drained after the boundary rows — no row reads it,
/// so it stays off the product's critical path. Capture order: the halo
/// peers in source order, then the stand-alone sources in source order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dist_spmv(
    ctx: &mut Ctx,
    shared: &SharedProblem,
    be: KernelBackend,
    local: &[f64],
    tag_sub: u32,
    full: &mut [f64],
    q: &mut [f64],
    mut captured: Option<&mut Capture>,
) {
    let rank = ctx.rank();
    let (part, base) = (&*shared.part, &*shared.plan);
    let range = part.range(rank);
    let split = shared.row_split.of(rank);
    // Non-CSR formats read their converted pieces from the shared cache;
    // flops stay charged from the CSR structure (2 × real nnz, format-
    // invariant), so the modeled clock is identical across formats.
    let pieces = shared.fmt_cache.as_deref().map(|c| c.of(rank));
    // Symmetric in the two ranks, so both ends of a message agree on which
    // of the two exchanges it belongs to.
    let halo_peer = |p: usize| base.are_peers(rank, p);
    let stand_alone = |p: usize| !halo_peer(p);
    let augmented = captured.is_some();
    let halo = if augmented {
        shared.augmented(PlanView::filtered(base, &halo_peer))
    } else {
        PlanView::full(base)
    };
    let top_ups = augmented.then(|| shared.augmented(PlanView::filtered(base, &stand_alone)));

    let hx = HaloExchange::start_view(ctx, &halo, part, local, Tag::Halo.with(tag_sub), full);
    let tx = top_ups.as_ref().map(|view| {
        let spmv = ctx.set_phase(Phase::Storage);
        let tag = Tag::Redundant.with(tag_sub);
        let tx = HaloExchange::start_view(ctx, view, part, local, tag, full);
        ctx.set_phase(spmv);
        tx
    });
    match pieces {
        Some(p) => be.spmv_fmt_into(&p.interior, full, q),
        None => be.spmv_row_runs_into(&shared.a, split.interior(), range.start, full, q),
    }
    ctx.charge_flops(split.interior_flops());
    hx.finish_view(ctx, &halo, full, captured.as_deref_mut());
    match pieces {
        Some(p) => be.spmv_fmt_into(&p.boundary, full, q),
        None => be.spmv_row_runs_into(&shared.a, split.boundary(), range.start, full, q),
    }
    ctx.charge_flops(split.boundary_flops());
    if let (Some(tx), Some(view)) = (tx, top_ups) {
        let spmv = ctx.set_phase(Phase::Storage);
        tx.finish_view(ctx, &view, full, captured);
        ctx.trace_instant(InstantKind::StorageRound, tag_sub as u64);
        ctx.set_phase(spmv);
    }
}

/// A PCG recurrence plugged into [`resilient_loop`]. The loop owns the
/// whole ESR/ESRP/IMCR protocol; an impl supplies only what genuinely
/// differs between recurrences. The defaults are the classic-shaped
/// answer, which the s-step recurrence shares wherever it is asked at a
/// block start (its state there is exactly `x, r, z, p, β`).
trait Recurrence {
    /// Whether a loop trip is counted when it is entered — so a trip that
    /// ends in a rollback still counts — or by [`Recurrence::advance`]'s
    /// return value afterwards.
    const COUNTS_TRIP_ON_ENTRY: bool = true;

    /// Builds the iteration-0 state from the static data (also the full
    /// restart); returns `(state, ‖b‖₂², r·r)`.
    fn init(
        &mut self,
        ctx: &mut Ctx,
        shared: &SharedProblem,
        full: &mut [f64],
    ) -> (NodeState, f64, f64) {
        classic::init_state(ctx, shared, full)
    }

    /// The iterations one loop trip starting at `j` covers.
    fn window(&self, j: usize, _max_iters: usize) -> Range<usize> {
        j..j + 1
    }

    /// The values the [`ReductionLog`] holds at most when no rollback
    /// reaches back more than `t` iterations. A classic-shaped trip logs
    /// three values (pᵀAp, then r·z and r·r; pipelined: γ, δ and r·r), and
    /// the log keeps the trips from the rollback target to the current one:
    /// at most `t + 1`.
    fn log_bound(&self, t: usize) -> usize {
        3 * (t + 1)
    }

    /// The recurrence's protection events for the trip starting at `j` —
    /// redundant copies of the search direction, starred copies — run
    /// before the failure check. `checkpointed` tells whether the loop just
    /// ran an IMCR checkpoint round there.
    fn protect(&mut self, ctx: &mut Ctx, node: &mut Node<'_>, j: usize, checkpointed: bool);

    /// Where a failure in the trip starting at `j` rolls back to.
    fn rollback_target(&self, sched: &IntervalSchedule, j: usize) -> Option<usize> {
        sched.rollback_target(j)
    }

    /// Last step of a recovery, inside its timed span, on all ranks: the
    /// vectors hold the rollback iteration again and whatever else the
    /// recurrence carries is re-established. `bitwise` is true after an
    /// IMCR rollback (every rank copied a checkpoint back) and false after
    /// an ESR/ESRP reconstruction.
    ///
    /// Nothing is left to do for a classic-shaped state (x, r, z, p, β and
    /// the replicated r·z): the recovery restored r·z with the rest — from
    /// the snapshot, or on a replacement from the gather or the fetched
    /// checkpoint. SStep rolls back to a block start, where its state is
    /// exactly classic-shaped and the transient Krylov block is
    /// definitionally empty — the next outer step rebuilds the basis from
    /// definitions.
    fn resync_after_rollback(&mut self, _ctx: &mut Ctx, _node: &mut Node<'_>, _bitwise: bool) {}

    /// Called once the loop has resumed at `out.resumed_at` and the tuner
    /// has had its say, outside the recovery's timed span.
    fn resumed(&mut self, _ctx: &mut Ctx, _node: &mut Node<'_>, _out: &RecoveryOutcome) {}

    /// Runs the iterations of the trip starting at `j`; returns how many it
    /// advanced and the relative residual after them.
    fn advance(&mut self, ctx: &mut Ctx, node: &mut Node<'_>, j: usize) -> (usize, f64);
}

/// What one rank carries around the loop, shared between the protocol
/// skeleton and the recurrence hooks.
struct Node<'a> {
    shared: &'a SharedProblem,
    /// The kernel backend with the thread budget divided among the ranks.
    be: KernelBackend,
    /// The rank's owned index range.
    range: Range<usize>,
    /// The full-length gather buffer of the distributed SpMV.
    full: Vec<f64>,
    st: NodeState,
    /// What the recovery path keeps between events, the pending set
    /// included.
    recovery: RecoveryState,
    sched: IntervalSchedule,
    tuner: Option<IntervalTuner>,
    /// The capture buffer the redundancy queue last handed back; the next
    /// capture fills it, so augmented iterations stop allocating once the
    /// queue is full.
    spare: Capture,
    /// ‖b‖₂².
    bnorm2: f64,
    /// The loop's reduction results since the rollback target, which a
    /// rollback's redo replays ([`RecoveryRule::Extended`]). Replicated.
    log: ReductionLog,
}

impl Node<'_> {
    /// An empty buffer for the next redundant-copy capture.
    fn capture_buffer(&mut self) -> Capture {
        let mut buf = std::mem::take(&mut self.spare);
        buf.clear();
        buf
    }

    /// Queues the copies captured for iteration `iter`.
    fn push_capture(&mut self, iter: usize, captured: Capture) {
        self.spare = self.st.queue.push(iter, captured).unwrap_or_default();
    }

    /// Records one completed protection round with the tuner, if any.
    fn note_round(&mut self) {
        if let Some(tn) = self.tuner.as_mut() {
            tn.note_round();
        }
    }

    /// ESRP storage stage, second iteration: the starred copies of
    /// `x, r, z, p` and β* = β^(j−1), which `beta_prev` holds entering
    /// iteration `j`.
    fn star(&mut self, ctx: &mut Ctx, j: usize) {
        ctx.set_phase(Phase::Storage);
        self.st.take_snapshot(j, false);
        self.note_round();
    }

    /// Applies one tuner decision after a recovery (`None` under the fixed
    /// policy): proposes the new interval from the replicated failure/cost
    /// observations, re-anchors the schedule at the resume point when it
    /// changed, and re-establishes the anchor's protection data (ESRP
    /// starred copies / an IMCR checkpoint round) so the anchor is a valid
    /// rollback target for the next failure.
    fn retune_after_recovery(
        &mut self,
        ctx: &mut Ctx,
        rec: &RecoveryOutcome,
        total_loop_trips: usize,
    ) -> Option<TuneEvent> {
        let tuner = self.tuner.as_mut()?;
        let analytic = analytic_round_cost_mean(ctx, self.shared, &self.st);
        let ev = tuner.propose(ctx, &self.sched, rec, total_loop_trips, analytic);
        if ev.interval_after != ev.interval_before {
            ctx.trace_instant(InstantKind::TunerDecision, ev.interval_after as u64);
            self.sched.reanchor(ev.interval_after, rec.resumed_at);
            if rec.resumed_at > 0 {
                match self.sched.strategy() {
                    Strategy::Esrp { t } if t > 1 => {
                        // The recovery left β^(a−1) in beta_prev on every rank;
                        // star it so rollbacks to the anchor restore the same
                        // recurrence state the legacy storage stage would have.
                        ctx.set_phase(Phase::RecoveryReset);
                        self.st.take_snapshot(rec.resumed_at, false);
                    }
                    Strategy::Imcr { .. } => {
                        checkpoint_exchange(ctx, self.shared, &mut self.st, rec.resumed_at);
                        tuner.note_round();
                    }
                    _ => {}
                }
            }
        }
        Some(ev)
    }
}

/// The cluster-mean analytic per-round protection cost under the run's
/// cost model — the α–β floor the adaptive tuner blends with the
/// measured phase means (satellite of the s-step PR; see
/// `IntervalTuner::propose`). Computed from replicated shared data
/// (partition, plans, buddy fan-out), so every rank derives the
/// identical value without communication.
fn analytic_round_cost_mean(ctx: &Ctx, shared: &SharedProblem, st: &NodeState) -> f64 {
    let cost = ctx.cost_model();
    let n = ctx.size();
    let total: f64 = (0..n)
        .map(|r| match shared.cfg.strategy {
            Strategy::Imcr { .. } => {
                let nloc = shared.part.range(r).len();
                let blob_len = checkpoint_blob_len(nloc, st.aux.is_some());
                tuning::analytic_checkpoint_round_cost(&cost, shared.cfg.phi, blob_len)
            }
            Strategy::Esrp { .. } => {
                // Classic top-ups ride the SpMV's own exchange wherever their
                // destination is a halo peer; pipelined / s-step ship the
                // whole augmented exchange on top of their SpMVs.
                let aspmv = shared.aspmv.as_ref().expect("ESRP has an ASpMV plan");
                let classic = shared.cfg.variant == PcgVariant::Classic;
                let rides = |d: usize| classic && !shared.plan.indices_to(r, d).is_empty();
                let view = PlanView::full(&shared.plan).augmented_by(aspmv);
                let messages = view.sends_of(r).map(|(d, halo, top_up)| {
                    let shipped = if classic { 0 } else { halo.len() };
                    (shipped + top_up.len(), rides(d))
                });
                tuning::analytic_storage_stage_cost(&cost, messages.filter(|m| m.0 > 0))
            }
            Strategy::None => 0.0,
        })
        .sum();
    total / n as f64
}

/// The SPMD body: runs the resilient PCG to convergence on this rank,
/// dispatching on the configured [`PcgVariant`].
///
/// # Panics
/// Panics on configuration errors (call `SolverConfig::validate` first),
/// protocol violations, and unrecoverable failures (e.g. ψ > φ).
pub fn solve_node(ctx: &mut Ctx, shared: &SharedProblem) -> NodeOutcome {
    match shared.cfg.variant {
        PcgVariant::Classic => resilient_loop(ctx, shared, classic::Classic),
        PcgVariant::Pipelined => resilient_loop(ctx, shared, pipelined::Pipelined),
        PcgVariant::SStep { s } => {
            let nloc = shared.part.local_len(ctx.rank());
            resilient_loop(ctx, shared, sstep::SStep::new(s, nloc))
        }
    }
}

/// The resilient PCG loop (paper Alg. 3), written once around any
/// [`Recurrence`]: each trip tests for exit, runs the window's protection
/// events (IMCR checkpoint round, then the recurrence's own), injects a due
/// failure — wipe, recover, re-tune, resume — and otherwise advances.
fn resilient_loop<R: Recurrence>(ctx: &mut Ctx, shared: &SharedProblem, mut rec: R) -> NodeOutcome {
    let cfg = &shared.cfg;
    debug_assert!(cfg.validate(ctx.size()).is_ok(), "invalid solver config");
    let part = &*shared.part;
    assert_eq!(ctx.size(), part.n_ranks(), "rank count mismatch");
    let rank = ctx.rank();

    ctx.set_phase(Phase::Setup);
    let mut full = vec![0.0f64; part.n()];
    let (st, bnorm2, rr0) = rec.init(ctx, shared, &mut full);
    assert!(bnorm2 > 0.0, "zero right-hand side: x = 0 is the solution");
    let mut relres = (rr0 / bnorm2).sqrt();
    // A rollback redoes work only where an interval above 1 can be in play.
    let longest = cfg
        .interval_policy
        .max_interval(cfg.strategy.interval().unwrap_or(0));
    let logs = cfg.recovery_rule == RecoveryRule::Extended && longest > 1;
    let mut node = Node {
        shared,
        be: cfg.backend.subdivided(ctx.size()),
        range: part.range(rank),
        full,
        st,
        recovery: RecoveryState::default(),
        sched: IntervalSchedule::new(cfg.strategy),
        tuner: IntervalTuner::for_policy(cfg.interval_policy),
        spare: Capture::default(),
        bnorm2,
        log: ReductionLog::new(logs, rec.log_bound(longest)),
    };

    let mut j: usize = 0;
    let mut next_event = 0usize;
    let mut recoveries: Vec<RecoveryOutcome> = Vec::new();
    let mut tuning: Vec<TuneEvent> = Vec::new();
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
        let window = rec.window(j, cfg.max_iters);
        if R::COUNTS_TRIP_ON_ENTRY {
            total_loop_trips += 1;
        }
        // One mark per loop trip, labeled with its start.
        ctx.trace_instant(InstantKind::Iteration, j as u64);

        // --- IMCR checkpoint when any window iteration is due (before the
        // SpMV: the state is iteration j) --------------------------------
        let checkpointed = window.clone().any(|jj| node.sched.checkpoint(jj));
        if checkpointed {
            checkpoint_exchange(ctx, shared, &mut node.st, j);
            node.note_round();
        }
        rec.protect(ctx, &mut node, j, checkpointed);
        let target = rec.rollback_target(&node.sched, j);
        node.log.begin_trip(j, target);

        // --- Failure injection + recovery (anywhere inside the window) ----
        if let Some(event) = cfg.failures.get(next_event) {
            let j_f = event.at_iteration();
            if window.contains(&j_f) {
                next_event += 1;
                settle_background(ctx, recoveries.last_mut());
                ctx.trace_instant(InstantKind::FailureTrigger, j_f as u64);
                if event.affects(rank) {
                    node.st.wipe();
                }
                // A survivor keeps its log since the target, a failed rank
                // refills it in the recovery round; the redo replays it up
                // to this trip.
                node.log.roll_back(j, target, event.affects(rank));
                let out = recover(ctx, &mut node, &mut rec, j_f, target, event);
                j = out.resumed_at;
                tuning.extend(node.retune_after_recovery(ctx, &out, total_loop_trips));
                rec.resumed(ctx, &mut node, &out);
                recoveries.push(out);
                // Not converged; the residual norm is recomputed at the end
                // of the re-executed iteration.
                relres = f64::INFINITY;
                continue;
            }
        }

        let (advanced, relres_next) = rec.advance(ctx, &mut node, j);
        relres = relres_next;
        if !R::COUNTS_TRIP_ON_ENTRY {
            total_loop_trips += advanced;
        }
        j += advanced;
    }

    settle_and_end_solve(ctx, &mut node, recoveries.last_mut());
    drift_epilogue(
        ctx,
        node,
        converged,
        j,
        total_loop_trips,
        recoveries,
        tuning,
    )
}

/// Sends and receives explicit redundant copies of a search direction: the
/// augmented exchange — the one the classic ASpMV runs under `Tag::Halo` —
/// blocking and under a tag of its own, so the captured set (and hence the
/// queue's coverage guarantee) matches the classic augmented SpMV exactly.
/// `full` is scratch: no row is computed from what lands in it. Runs under
/// [`Phase::Storage`]. The pipelined variant ships each iteration's p under
/// [`Tag::PipelinedP`]; the s-step variant ships the block-start pair
/// p^(ĵ−1)/p^(ĵ) under [`Tag::SStepBasis`] (a separate kind so the two
/// copies of one block start cannot mix with the matrix-powers halo
/// traffic), with `label` doubling as the tag sub and the queue iteration
/// label.
fn capture_direction(
    ctx: &mut Ctx,
    shared: &SharedProblem,
    p_local: &[f64],
    label: usize,
    kind: Tag,
    full: &mut [f64],
    captured: &mut Capture,
) {
    ctx.set_phase(Phase::Storage);
    ctx.trace_instant(InstantKind::StorageRound, label as u64);
    let view = shared.augmented(PlanView::full(&shared.plan));
    let tag = kind.with(label as u32);
    HaloExchange::start_view(ctx, &view, &shared.part, p_local, tag, full).finish_view(
        ctx,
        &view,
        full,
        Some(captured),
    );
}

/// Post-convergence accuracy metrics: the paper's residual drift (Eq. 2)
/// from one extra true-residual SpMV, with the final reduction attributed
/// to [`Phase::Reduction`].
fn drift_epilogue(
    ctx: &mut Ctx,
    node: Node<'_>,
    converged: bool,
    iterations: usize,
    total_loop_trips: usize,
    recoveries: Vec<RecoveryOutcome>,
    tuning: Vec<TuneEvent>,
) -> NodeOutcome {
    let Node {
        shared,
        be,
        range,
        mut full,
        mut st,
        bnorm2,
        ..
    } = node;
    let nloc = range.len();
    ctx.set_phase(Phase::Other);
    dist_spmv(
        ctx, shared, be, &st.x, DRIFT_TAG, &mut full, &mut st.q, None,
    );
    let mut tr_loc = 0.0f64;
    for i in 0..nloc {
        let tri = shared.b[range.start + i] - st.q[i];
        tr_loc += tri * tri;
    }
    let rr_loc = be.dot(&st.r, &st.r);
    ctx.charge_flops(5 * nloc as u64);
    ctx.set_phase(Phase::Reduction);
    let red = ctx.allreduce(&[rr_loc, tr_loc]);
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
    st.checkpoint_blob_into(true, &mut blob);
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
            Snapshot {
                iter: j,
                rz: st.rz,
                blob: data,
            },
        );
        if let Some(old) = replaced {
            ctx.recycle_f64s(old.blob);
        }
    }
    st.take_snapshot(j, true);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcg::pcg;
    use esrcg_cluster::{run_spmd, CostModel, FailureSpec};
    use esrcg_sparse::gen::poisson2d;
    use esrcg_sparse::vector::max_abs_diff;

    /// `kernel-bound`'s peak RSS is bimodal in this size: the harness keeps
    /// each set-up call's problems in a `Vec<SharedProblem>` of capacity 4,
    /// and glibc places that block so that every size probed below 256 B
    /// (240, 248) peaks at 45 MiB, while 256 B and every padded size from
    /// 264 to 320 B peak at 38.6 MiB. The block Jacobi is held by value,
    /// not behind an `Arc` (248 B). A field change that moves the size
    /// needs a `peak_rss_mb` A/B first.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn the_shared_problem_stays_296_bytes() {
        assert_eq!(std::mem::size_of::<SharedProblem>(), 296);
    }

    /// This rank's node around `st`, with nothing recovered yet, as
    /// [`resilient_loop`] builds it under a fixed interval and no log.
    pub(super) fn node_for<'a>(
        ctx: &Ctx,
        shared: &'a SharedProblem,
        st: NodeState,
        bnorm2: f64,
    ) -> Node<'a> {
        Node {
            shared,
            be: shared.cfg.backend.subdivided(ctx.size()),
            range: shared.part.range(ctx.rank()),
            full: vec![0.0; shared.part.n()],
            st,
            recovery: RecoveryState::default(),
            sched: IntervalSchedule::new(shared.cfg.strategy),
            tuner: None,
            spare: Capture::default(),
            bnorm2,
            log: ReductionLog::new(false, 0),
        }
    }

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
        SharedProblem::assemble_shared(
            Arc::new(a),
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
            &shared.precond,
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
        // A resilient strategy without failures must not change the
        // arithmetic: same iteration count, bitwise identical solution.
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

    /// One rank's `q` and `full` after a distributed SpMV, as bits, and its
    /// capture.
    type SpmvBits = (Vec<u64>, Vec<u64>, Capture);

    /// Runs one distributed SpMV of `x` on every rank — [`dist_spmv`], or
    /// the blocking oracle it is held to: one blocking exchange over the
    /// whole plan (topped up when `capture` makes it the augmented product),
    /// then every owned row through the sequential CSR kernel.
    fn one_spmv(shared: &Arc<SharedProblem>, oracle: bool, capture: bool) -> (Vec<SpmvBits>, f64) {
        let n = shared.a.nrows();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).cos()).collect();
        let shared = shared.clone();
        let out = run_spmd(shared.part.n_ranks(), CostModel::default(), move |ctx| {
            let range = shared.part.range(ctx.rank());
            let local = &x[range.clone()];
            let mut full = vec![0.0; n];
            let mut q = vec![f64::NAN; range.len()];
            let mut captured = Capture::default();
            let cap = capture.then_some(&mut captured);
            if oracle {
                let mut view = PlanView::full(&shared.plan);
                if capture {
                    view = shared.augmented(view);
                }
                let tag = Tag::Halo.with(7);
                HaloExchange::start_view(ctx, &view, &shared.part, local, tag, &mut full)
                    .finish_view(ctx, &view, &mut full, cap);
                shared.a.spmv_rows_into(range.clone(), &full, &mut q);
                ctx.charge_flops(shared.a.spmv_rows_flops(range));
            } else {
                let be = shared.cfg.backend.subdivided(ctx.size());
                dist_spmv(ctx, &shared, be, local, 7, &mut full, &mut q, cap);
            }
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect();
            (bits(q), bits(full), captured)
        });
        (out.results, out.modeled_time)
    }

    #[test]
    fn dist_spmv_matches_the_blocking_oracle_bitwise_and_beats_its_clock() {
        let cases = [
            (poisson2d(12, 12), 1),
            (poisson2d(12, 12), 4),
            (poisson2d(12, 12), 5),
            (poisson2d(2, 2), 6), // n < n_ranks: no interior rows, two empty ranks
            (CsrMatrix::identity(24), 4), // empty plan: every row is interior
        ];
        let levels = [(0, Strategy::None), (2, Strategy::esr())];
        let cost = CostModel::default();
        for (a, n_ranks) in cases {
            let n = a.nrows();
            let mut t_plain_blocking = f64::NAN;
            for (phi, strategy) in levels.into_iter().filter(|&(phi, _)| phi < n_ranks) {
                for fmt in [SpmvFormat::Csr, SpmvFormat::sell(), SpmvFormat::bcsr3()] {
                    let label = format!("n={n} ranks={n_ranks} phi={phi} {}", fmt.name());
                    let mut cfg = SolverConfig::new(strategy, phi);
                    cfg.spmv_format = fmt;
                    let (b, x0, pre) = (vec![1.0; n], vec![0.0; n], PrecondSpec::paper_default());
                    let shared = SharedProblem::assemble_shared(
                        Arc::new(a.clone()),
                        b,
                        x0,
                        n_ranks,
                        pre,
                        cfg,
                    );
                    let shared = Arc::new(shared.expect("valid problem"));
                    assert_eq!(shared.fmt_cache.is_some(), !fmt.is_csr(), "{label}");
                    let (want, t_oracle) = one_spmv(&shared, true, phi > 0);
                    let (got, t_split) = one_spmv(&shared, false, phi > 0);
                    // What `src` sends `me` in an ASpMV: I(src,me) ++ Rc(src→me).
                    let copies = |src, me| {
                        shared.aspmv.as_deref().map_or(0, |aspmv| {
                            shared.plan.indices_to(src, me).len() + aspmv.extras_to(src, me).len()
                        })
                    };
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    for (rank, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(g.0, w.0, "{label}: q on rank {rank}");
                        assert_eq!(g.1, w.1, "{label}: full on rank {rank}");
                        // The same copies per source, though the oracle
                        // drains every peer in source order and `dist_spmv`
                        // the halo peers first. A capture takes one message
                        // per source, so these slices are all it holds.
                        for src in 0..n_ranks {
                            let (g, w) = (g.2.sent_by(src), w.2.sent_by(src));
                            let at = format!("{label}: captured on rank {rank} from {src}");
                            assert_eq!(bits(g), bits(w), "{at}");
                            assert_eq!(g.len(), copies(src, rank), "{at}");
                        }
                    }
                    let captures = got.iter().any(|g| g.2 != Capture::default());
                    assert_eq!(captures, phi > 0, "{label}: the ASpMV captures copies");
                    if let Some(aspmv) = shared.aspmv.as_deref() {
                        // And it costs no more than the second protocol did
                        // on top of the blocking halo: φ injections, then φ
                        // pair messages of at most |Rc| entries.
                        let rc = (0..n_ranks).flat_map(|s| aspmv.extras_of(s));
                        let rc = rc.map(|(_, idx)| idx.len()).max().unwrap_or(0);
                        let second = phi as f64 * (cost.alpha + cost.transfer_time(16 * rc));
                        assert!(t_split <= t_plain_blocking + second, "{label}: {t_split}");
                    } else {
                        t_plain_blocking = t_oracle;
                    }
                    // The overlap hides the halo wait under the interior
                    // rows; with neither halo nor extras the schedules cost
                    // the same, and the overlap never costs anything.
                    let has_halo = |r| !shared.plan.recvs_of(r).is_empty();
                    let has_interior = |r| shared.row_split.of(r).interior_flops() > 0;
                    if n_ranks >= 4 && (0..n_ranks).any(|r| has_halo(r) && has_interior(r)) {
                        assert!(t_split < t_oracle, "{label}: {t_split} vs {t_oracle}");
                    } else if phi == 0 && !(0..n_ranks).any(has_halo) {
                        assert_eq!(t_split.to_bits(), t_oracle.to_bits(), "{label}");
                    } else {
                        assert!(t_split <= t_oracle, "{label}: {t_split} vs {t_oracle}");
                    }
                }
            }
        }
    }

    #[test]
    fn formats_are_bitwise_identical_to_csr() {
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
            let mut cfg = SolverConfig::new(Strategy::None, 0);
            cfg.spmv_format = fmt;
            let shared = SharedProblem::assemble_shared(
                Arc::new(a.clone()),
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
            assert_eq!(gather_x(&outs), ref_x, "{} bitwise identical", fmt.name());
            // Flops are charged from the CSR structure regardless of
            // format, so the modeled clock is format-invariant too.
            assert_eq!(t.to_bits(), t_ref.to_bits(), "{}", fmt.name());
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
