//! The five workloads: what one *pass* runs, what its set-up stage does,
//! and how each result is checked.
//!
//! A pass is the workload's full list of solves through the public driver
//! (`Experiment::run`: assembly, SPMD run and report aggregation included)
//! or, for `fleet`, one whole campaign through `CampaignRunner`. Everything
//! the program receives is generated here from `--seed`; all solves use
//! rtol 1e-8, block-Jacobi(10) and the default cost model.

use std::sync::Arc;

use esrcg_campaign::{CampaignReport, CampaignRunner, CampaignSpec, FaultProcess, ProblemSpec};
use esrcg_cluster::{BufferPoolStats, CostModel, Phase, RankStats, TraceConfig, N_PHASES};
use esrcg_core::driver::{paper_failure_iteration, MatrixSource, RhsSpec, RunReport};
use esrcg_core::solver::{SharedProblem, SolverConfig};
use esrcg_core::{Experiment, IntervalPolicy, PcgVariant, Strategy};
use esrcg_precond::PrecondSpec;
use esrcg_sparse::rng::SplitMix64;
use esrcg_sparse::{CsrMatrix, SpmvFormat};

use crate::host;
use crate::spans::Spans;

/// Convergence tolerance of every solve.
pub const RTOL: f64 = 1e-8;

/// A resilient classic run must reproduce its reference's solution to this
/// relative 2-norm distance (measured: ≤ 5e-15).
const X_RTOL: f64 = 1e-9;

/// Where a failure event lands, resolved against the reference run's
/// iteration count `C` once it is known.
#[derive(Debug, Clone, Copy)]
pub enum EventAt {
    /// The paper's worst case: two iterations before the end of the
    /// checkpoint interval that holds `C/2`.
    PaperWorst,
    /// Near `k·C/7`, moved to the middle of its checkpoint interval so
    /// every event of an interval strategy loses the same `T/2` iterations
    /// whatever `C` the seed's right-hand side gives.
    Seventh(usize),
}

/// One failure event of a case.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Iteration placement.
    pub at: EventAt,
    /// First failed rank (the block wraps around the rank count).
    pub start_rank: usize,
    /// Number of ranks that fail together (ψ).
    pub width: usize,
}

impl Event {
    fn iteration(&self, c: usize, strategy: Strategy) -> usize {
        let t = strategy.interval().unwrap_or(1);
        match self.at {
            EventAt::PaperWorst => paper_failure_iteration(c, t),
            EventAt::Seventh(k) if t <= 1 => (k * c / 7).max(1),
            EventAt::Seventh(k) => (k * c / 7) / t * t + t / 2,
        }
    }
}

/// One solve of a pass. A case with `Strategy::None` under the classic
/// recurrence is a reference: it fixes `C`, `t₀` and `x` for the resilient
/// cases that follow it on the same rank count.
#[derive(Debug, Clone)]
pub struct Case {
    /// Label, unique within the workload; per-layer metrics look cases up
    /// by it.
    pub label: String,
    /// Simulated ranks.
    pub ranks: usize,
    /// PCG recurrence.
    pub variant: PcgVariant,
    /// Resilience strategy (`None` = reference).
    pub strategy: Strategy,
    /// Redundancy level φ.
    pub phi: usize,
    /// Failure events.
    pub events: Vec<Event>,
}

impl Case {
    fn reference(label: &str, ranks: usize) -> Case {
        Case {
            label: label.to_string(),
            ranks,
            variant: PcgVariant::Classic,
            strategy: Strategy::None,
            phi: 0,
            events: Vec::new(),
        }
    }

    fn resilient(label: String, ranks: usize, strategy: Strategy, phi: usize) -> Case {
        Case {
            label,
            ranks,
            variant: PcgVariant::Classic,
            strategy,
            phi,
            events: Vec::new(),
        }
    }

    fn variant(mut self, v: PcgVariant) -> Case {
        self.variant = v;
        self
    }

    fn events(mut self, events: Vec<Event>) -> Case {
        self.events = events;
        self
    }

    fn is_reference(&self) -> bool {
        self.strategy == Strategy::None && self.variant == PcgVariant::Classic
    }

    /// The solver configuration `Experiment::run` assembles for this case
    /// (failure schedule aside, which assembly only stores).
    fn solver_config(&self) -> SolverConfig {
        let mut cfg = SolverConfig::new(self.strategy, self.phi);
        cfg.rtol = RTOL;
        cfg.variant = self.variant;
        cfg
    }
}

/// What a workload runs.
#[derive(Debug, Clone)]
pub enum Plan {
    /// A list of solves on one matrix.
    Solves {
        /// The matrix family and size.
        source: MatrixSource,
        /// The solves of a pass, in order.
        cases: Vec<Case>,
    },
    /// One campaign.
    Fleet(CampaignSpec),
}

/// A workload: its plan plus the protocol constants that belong to it.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name, one of [`crate::names::WORKLOADS`].
    pub name: &'static str,
    /// What a pass runs.
    pub plan: Plan,
    /// Calls of the set-up stage in the set-up loop (fixed, so `setup_s` is
    /// the same statistic on both sides of any comparison).
    pub setup_calls: usize,
    seed: u64,
}

/// Events per storm run.
pub const STORM_EVENTS: usize = 6;

/// The strategies of the storm, with the labels their cases carry.
pub const STORM_STRATEGIES: [(&str, Strategy); 3] = [
    ("esr", Strategy::Esrp { t: 1 }),
    ("esrp", Strategy::Esrp { t: 20 }),
    ("imcr", Strategy::Imcr { t: 20 }),
];

/// `recovery-storm`: a reference, then each strategy at φ = 3 hit by six
/// events — event k near iteration k·C/7, on ranks starting at 5k mod 16
/// and 1 + k mod 3 wide. With `matched`, each storm run is
/// preceded by its failure-free twin, which is what the recovery probe
/// subtracts to get the host cost of an event.
fn storm_plan(matched: bool) -> Plan {
    let storm: Vec<Event> = (1..=STORM_EVENTS)
        .map(|k| Event {
            at: EventAt::Seventh(k),
            start_rank: 5 * k % 16,
            width: 1 + k % 3,
        })
        .collect();
    let mut cases = vec![Case::reference("reference", 16)];
    for (name, strategy) in STORM_STRATEGIES {
        if matched {
            cases.push(Case::resilient(format!("{name}.ff"), 16, strategy, 3));
        }
        cases.push(Case::resilient(format!("{name}.storm"), 16, strategy, 3).events(storm.clone()));
    }
    Plan::Solves {
        source: MatrixSource::EmiliaLike {
            nx: 12,
            ny: 12,
            nz: 64,
        },
        cases,
    }
}

fn strategy_label(s: Strategy) -> String {
    match s.interval() {
        Some(t) if t > 1 => format!("{}{t}", s.name()),
        _ => s.name().to_string(),
    }
}

impl Workload {
    /// Builds the workload `name` with inputs generated from `seed`.
    ///
    /// # Errors
    /// Returns the list of known names for an unknown one.
    pub fn new(name: &str, seed: u64) -> Result<Workload, String> {
        let esrp20 = Strategy::Esrp { t: 20 };
        let name = *crate::names::WORKLOADS
            .iter()
            .find(|w| **w == name)
            .ok_or_else(|| {
                format!(
                    "unknown workload '{name}' (known: {})",
                    crate::names::WORKLOADS.join(", ")
                )
            })?;
        let (plan, setup_calls) = match name {
            // Host time is the kernels: few ranks, large rows-per-rank, no
            // oversubscription on a 2-core host.
            "kernel-bound" => (
                Plan::Solves {
                    source: MatrixSource::Poisson3d {
                        nx: 48,
                        ny: 48,
                        nz: 48,
                    },
                    cases: vec![
                        Case::reference("reference.r1", 1),
                        Case::reference("reference", 2),
                        Case::resilient("esrp20.phi1.ff".into(), 2, esrp20, 1),
                    ],
                },
                12,
            ),
            // Host time is the runtime: 128 ranks of 128 rows each, so
            // threads, channels and wake-ups dominate and kernels vanish.
            "rank-bound" => (
                Plan::Solves {
                    source: MatrixSource::Poisson2d { nx: 128, ny: 64 },
                    cases: vec![
                        Case::reference("reference", 128),
                        Case::resilient("esrp20.phi3.ff".into(), 128, esrp20, 3),
                        Case::resilient("esrp20.phi3.ff.pipelined".into(), 128, esrp20, 3)
                            .variant(PcgVariant::Pipelined),
                        Case::resilient("esrp20.phi3.ff.sstep4".into(), 128, esrp20, 3)
                            .variant(PcgVariant::SStep { s: 4 }),
                    ],
                },
                100,
            ),
            // The paper's Table 2 shape: every strategy failure-free and
            // with one ψ = φ event at the worst-case iteration.
            "paper-grid" => {
                let mut cases = vec![Case::reference("reference", 16)];
                let grid = [
                    (Strategy::esr(), 1),
                    (Strategy::esr(), 3),
                    (esrp20, 1),
                    (esrp20, 3),
                    (Strategy::Imcr { t: 20 }, 1),
                    (Strategy::Imcr { t: 20 }, 3),
                    (Strategy::Esrp { t: 50 }, 1),
                ];
                for (strategy, phi) in grid {
                    let stem = format!("{}.phi{phi}", strategy_label(strategy));
                    cases.push(Case::resilient(format!("{stem}.ff"), 16, strategy, phi));
                    cases.push(
                        Case::resilient(format!("{stem}.fail"), 16, strategy, phi).events(vec![
                            Event {
                                at: EventAt::PaperWorst,
                                start_rank: 8,
                                width: phi,
                            },
                        ]),
                    );
                }
                (
                    Plan::Solves {
                        source: MatrixSource::EmiliaLike {
                            nx: 12,
                            ny: 12,
                            nz: 32,
                        },
                        cases,
                    },
                    100,
                )
            }
            // The same solver layer used the other way: six events per
            // run, so reconstruction rather than storage carries the cost.
            "recovery-storm" => (storm_plan(false), 100),
            "fleet" => (Plan::Fleet(fleet_spec(seed)), 100),
            _ => unreachable!("every listed workload has a plan"),
        };
        Ok(Workload {
            name,
            plan,
            setup_calls,
            seed,
        })
    }

    /// The recovery probe of the traced run: `recovery-storm`'s solves,
    /// each paired with its failure-free twin. Not a listed workload.
    pub fn recovery_probe(seed: u64) -> Workload {
        Workload {
            name: "recovery-probe",
            plan: storm_plan(true),
            setup_calls: 1,
            seed,
        }
    }

    fn rhs(&self) -> RhsSpec {
        RhsSpec::Random { seed: self.seed }
    }
}

/// The campaign `fleet` runs: the axes `CampaignSpec::smoke()` had when
/// this benchmark was defined, written out so that re-pointing `smoke()`
/// does not move the workload. `seed` 7 reproduces that campaign exactly.
/// The seed drives the right-hand side, like everywhere else; the fault
/// traces keep smoke's own two seeds, because with two draws per cell the
/// number of events a trace seed happens to produce would otherwise swing
/// the modeled totals by a quarter from one benchmark seed to the next.
pub fn fleet_spec(seed: u64) -> CampaignSpec {
    CampaignSpec {
        problems: vec![ProblemSpec::new(
            "poisson2d-16x16",
            MatrixSource::Poisson2d { nx: 16, ny: 16 },
            RhsSpec::Random { seed },
        )],
        rank_counts: vec![4],
        variants: vec![
            PcgVariant::Classic,
            PcgVariant::Pipelined,
            PcgVariant::SStep { s: 4 },
        ],
        cost_models: vec![CostModel::default(), CostModel::latency_dominated()],
        formats: vec![SpmvFormat::Csr],
        strategies: vec![
            Strategy::esr(),
            Strategy::Esrp { t: 10 },
            Strategy::Imcr { t: 10 },
        ],
        policies: vec![
            IntervalPolicy::Fixed,
            IntervalPolicy::Adaptive {
                min_t: 2,
                max_t: 12,
            },
        ],
        phis: vec![1, 2],
        processes: vec![
            FaultProcess::None,
            FaultProcess::Exponential { mtbf: 30.0 },
            FaultProcess::Burst {
                mtbf: 45.0,
                mean_width: 2.0,
            },
            FaultProcess::PaperWorstCase,
        ],
        seeds: vec![11, 17],
        rtol: RTOL,
        max_iters: 200_000,
        max_runs: None,
    }
}

/// The campaign probe of the traced run: `fleet`'s campaign cut to the
/// classic recurrence, the default cost model and fixed intervals — 36 runs
/// against one baseline, small enough to run at two worker counts.
pub fn campaign_probe_spec(seed: u64) -> CampaignSpec {
    CampaignSpec {
        variants: vec![PcgVariant::Classic],
        cost_models: vec![CostModel::default()],
        policies: vec![IntervalPolicy::Fixed],
        ..fleet_spec(seed)
    }
}

/// The right-hand side `Experiment::run` generates for
/// `RhsSpec::Random { seed }` — the set-up stage needs the vector itself.
pub fn random_rhs(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect()
}

/// What one call of the set-up stage built.
pub struct SetupProducts {
    /// The problem matrices (one, or the campaign's problems).
    pub matrices: Vec<Arc<CsrMatrix>>,
    /// One assembled problem per solve of a pass.
    pub assembled: Vec<SharedProblem>,
}

impl Workload {
    /// The set-up stage: everything the driver does for one pass before its
    /// first rank thread starts — generate the matrix, generate the
    /// right-hand side, and `SharedProblem::assemble_shared` once per
    /// solve (partition, communication plan, row split, preconditioner
    /// factorisation, redundancy plans). For `fleet`: enumerate the
    /// campaign, build its problems, and assemble once per enumerated run.
    /// Single-threaded and deterministic.
    ///
    /// # Errors
    /// Returns generation and assembly errors.
    pub fn setup(&self, spans: &mut Spans) -> Result<SetupProducts, String> {
        match &self.plan {
            Plan::Solves { source, cases } => {
                let a = spans.scope("sparse:generate", |_| source.build_arc())?;
                let n = a.nrows();
                let b = spans.scope("driver:rhs", |_| random_rhs(n, self.seed));
                let assembled = cases
                    .iter()
                    .map(|case| {
                        spans.scope("driver:assemble", |_| {
                            SharedProblem::assemble_shared(
                                a.clone(),
                                b.clone(),
                                vec![0.0; n],
                                case.ranks,
                                PrecondSpec::paper_default(),
                                case.solver_config(),
                            )
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(SetupProducts {
                    matrices: vec![a],
                    assembled,
                })
            }
            Plan::Fleet(spec) => {
                let enumeration = spans.scope("campaign:enumerate", |_| spec.enumerate())?;
                let mut matrices = Vec::new();
                let mut rhs = Vec::new();
                for p in &spec.problems {
                    let a = spans.scope("sparse:generate", |_| p.source.build_arc())?;
                    let RhsSpec::Random { seed } = p.rhs else {
                        return Err("fleet problems use a seeded right-hand side".into());
                    };
                    rhs.push(spans.scope("driver:rhs", |_| random_rhs(a.nrows(), seed)));
                    matrices.push(a);
                }
                let mut assembled = Vec::with_capacity(enumeration.planned_runs);
                spans.scope("driver:assemble", |_| {
                    for cell in &enumeration.cells {
                        let a = &matrices[cell.problem];
                        let mut cfg = SolverConfig::new(cell.strategy, cell.phi);
                        cfg.interval_policy = cell.policy;
                        cfg.rtol = spec.rtol;
                        cfg.variant = cell.variant;
                        cfg.spmv_format = cell.format;
                        for _ in &cell.seeds {
                            assembled.push(SharedProblem::assemble_shared(
                                a.clone(),
                                rhs[cell.problem].clone(),
                                vec![0.0; a.nrows()],
                                cell.n_ranks,
                                PrecondSpec::paper_default(),
                                cfg.clone(),
                            )?);
                        }
                    }
                    Ok::<(), String>(())
                })?;
                Ok(SetupProducts {
                    matrices,
                    assembled,
                })
            }
        }
    }
}

/// What one pass produced: the op count and failures, the exact (modeled
/// and counted) totals, and a fingerprint later passes must reproduce.
#[derive(Debug, Clone, Default)]
pub struct PassSummary {
    /// Operations attempted: one per solve, one per cell-run for `fleet`.
    pub ops: usize,
    /// Operations that failed a check.
    pub failed: usize,
    /// One line per failed check.
    pub complaints: Vec<String>,
    /// Σ modeled time-to-solution (modeled seconds).
    pub modeled_s: f64,
    /// 100·(Σt − Σt₀)/Σt₀ over the classic resilient solves against their
    /// references — the paper's headline overhead.
    pub overhead_pct: f64,
    /// Σ modeled recovery time.
    pub recovery_s: f64,
    /// `(hash of the modeled facts, ops it covers)` per comparison unit:
    /// one per solve, one for a whole campaign.
    pub fingerprint: Vec<(u64, usize)>,
    /// Σ solver loop trips.
    pub loop_trips: u64,
    /// Σ ranks × loop trips — rank-iterations the simulator executed.
    pub rank_trips: u64,
    /// Σ over ranks and solves of modeled seconds per phase.
    pub phase_seconds: [f64; N_PHASES],
    /// Σ modeled seconds blocked in `recv` (0 for `fleet`: campaign cells
    /// do not carry per-rank counters).
    pub recv_wait_s: f64,
    /// Σ messages sent (0 for `fleet`).
    pub msgs: u64,
    /// Σ payload bytes sent (0 for `fleet`).
    pub bytes: u64,
    /// Σ buffer-pool counters.
    pub pool: BufferPoolStats,
    /// Largest |residual drift| of a solve (0 for `fleet`).
    pub residual_drift_max: f64,
    /// Every solve of the pass, in order (empty for `fleet`).
    pub cases: Vec<CaseResult>,
}

/// One solve of a pass: its modeled facts and its host time.
#[derive(Debug, Clone)]
pub struct CaseResult {
    /// The case's label.
    pub label: String,
    /// Logical iterations to convergence.
    pub iterations: usize,
    /// Modeled time-to-solution.
    pub modeled_s: f64,
    /// Host seconds `Experiment::run` took.
    pub wall_s: f64,
    /// Σ modeled recovery time over the events.
    pub recovery_s: f64,
    /// Σ iterations redone after rollbacks.
    pub wasted_iterations: usize,
    /// Σ inner-solve iterations of the reconstructions.
    pub inner_iterations: usize,
    /// Events that had no rollback point and restarted from x⁰.
    pub full_restarts: usize,
}

impl PassSummary {
    /// The solve labelled `label`.
    pub fn case(&self, label: &str) -> Option<&CaseResult> {
        self.cases.iter().find(|c| c.label == label)
    }

    /// Share of all modeled rank-seconds spent in `phase`.
    pub fn phase_share(&self, phase: Phase) -> f64 {
        self.phase_seconds[phase as usize] / self.phase_seconds.iter().sum::<f64>()
    }

    /// Counts the ops whose modeled facts differ from the warm-up pass's
    /// as failed: every pass of a run must reproduce the same bits.
    pub fn check_against(&mut self, warm_up: &PassSummary) {
        for (i, (mine, theirs)) in self
            .fingerprint
            .iter()
            .zip(&warm_up.fingerprint)
            .enumerate()
        {
            if mine != theirs {
                self.failed += mine.1;
                self.complaints.push(format!(
                    "unit {i}: modeled facts differ from the warm-up pass"
                ));
            }
        }
        if self.fingerprint.len() != warm_up.fingerprint.len() {
            self.failed = self.ops;
            self.complaints
                .push("pass ran a different number of units than the warm-up".into());
        }
        self.failed = self.failed.min(self.ops);
    }
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What the resilient cases of a pass are checked against.
struct Reference {
    ranks: usize,
    iterations: usize,
    modeled_s: f64,
    x: Vec<f64>,
}

fn relative_distance(x: &[f64], reference: &[f64]) -> f64 {
    let (mut diff, mut norm) = (0.0f64, 0.0f64);
    for (a, b) in x.iter().zip(reference) {
        diff += (a - b) * (a - b);
        norm += b * b;
    }
    (diff / norm).sqrt()
}

impl Workload {
    /// Runs one pass with the flight recorder at `trace`, recording a
    /// harness span around every call into the program.
    ///
    /// # Errors
    /// Returns errors that stop the pass from producing numbers at all (a
    /// driver error, a campaign whose baseline fails). A solve that runs
    /// but gives a wrong answer is a failed op, not an error.
    pub fn pass(
        &self,
        matrices: &[Arc<CsrMatrix>],
        trace: TraceConfig,
        spans: &mut Spans,
    ) -> Result<PassSummary, String> {
        spans.scope("pass", |spans| match &self.plan {
            Plan::Solves { cases, .. } => self.solve_pass(cases, &matrices[0], trace, spans),
            Plan::Fleet(spec) => fleet_pass(spec, spans),
        })
    }

    fn solve_pass(
        &self,
        cases: &[Case],
        a: &Arc<CsrMatrix>,
        trace: TraceConfig,
        spans: &mut Spans,
    ) -> Result<PassSummary, String> {
        let mut sum = PassSummary::default();
        let mut reference: Option<Reference> = None;
        let (mut t_resilient, mut t_reference) = (0.0f64, 0.0f64);
        for case in cases {
            let matched = reference.as_ref().filter(|r| r.ranks == case.ranks);
            let mut exp = Experiment::builder()
                .matrix(MatrixSource::Shared(a.clone()))
                .rhs(self.rhs())
                .n_ranks(case.ranks)
                .variant(case.variant)
                .strategy(case.strategy)
                .phi(case.phi)
                .rtol(RTOL)
                .trace(trace);
            if !case.events.is_empty() {
                let c = matched
                    .ok_or_else(|| format!("{}: events need a reference before it", case.label))?
                    .iterations;
                for e in &case.events {
                    exp = exp.failure_at(e.iteration(c, case.strategy), e.start_rank, e.width);
                }
            }
            let started = std::time::Instant::now();
            let report = spans.scope(&format!("solve:{}", case.label), |_| exp.run())?;
            let wall_s = started.elapsed().as_secs_f64();

            let complaints_before = sum.complaints.len();
            let mut complain =
                |what: String| sum.complaints.push(format!("{}: {what}", case.label));
            if !report.converged {
                complain("did not converge".into());
            }
            // `<=` is false for a NaN, so a NaN fails the check.
            let residual_ok = report.true_relres <= 10.0 * RTOL;
            if !residual_ok {
                complain(format!("true residual {:e}", report.true_relres));
            }
            if !report.residual_drift.is_finite() {
                complain(format!("residual drift {}", report.residual_drift));
            }
            if report.recoveries.len() != case.events.len() {
                complain(format!(
                    "{} of {} failure events triggered",
                    report.recoveries.len(),
                    case.events.len()
                ));
            }
            if case.variant == PcgVariant::Classic && case.strategy != Strategy::None {
                let r = matched.ok_or_else(|| {
                    format!("{}: no reference on {} ranks", case.label, case.ranks)
                })?;
                if report.iterations != r.iterations {
                    complain(format!(
                        "{} iterations, reference took {}",
                        report.iterations, r.iterations
                    ));
                }
                let d = relative_distance(&report.x, &r.x);
                let same_solution = d <= X_RTOL;
                if !same_solution {
                    complain(format!("solution is {d:e} from the reference's"));
                }
                t_resilient += report.modeled_time;
                t_reference += r.modeled_s;
            }
            sum.ops += 1;
            sum.failed += usize::from(sum.complaints.len() > complaints_before);

            let recovery_s: f64 = report.recoveries.iter().map(|r| r.recovery_time).sum();
            sum.modeled_s += report.modeled_time;
            sum.recovery_s += recovery_s;
            sum.fingerprint.push((
                fnv1a(
                    [
                        report.modeled_time.to_bits(),
                        recovery_s.to_bits(),
                        report.iterations as u64,
                        report.total_loop_trips as u64,
                    ]
                    .into_iter()
                    .flat_map(u64::to_le_bytes),
                ),
                1,
            ));
            sum.loop_trips += report.total_loop_trips as u64;
            sum.rank_trips += (report.total_loop_trips * case.ranks) as u64;
            fold_stats(&mut sum, &report);
            sum.residual_drift_max = sum.residual_drift_max.max(report.residual_drift.abs());
            sum.cases.push(CaseResult {
                label: case.label.clone(),
                iterations: report.iterations,
                modeled_s: report.modeled_time,
                wall_s,
                recovery_s,
                wasted_iterations: report.recoveries.iter().map(|r| r.wasted_iterations).sum(),
                inner_iterations: report.recoveries.iter().map(|r| r.inner_iterations).sum(),
                full_restarts: report.recoveries.iter().filter(|r| r.full_restart).count(),
            });
            if case.is_reference() {
                reference = Some(Reference {
                    ranks: case.ranks,
                    iterations: report.iterations,
                    modeled_s: report.modeled_time,
                    x: report.x,
                });
            }
        }
        sum.overhead_pct = 100.0 * (t_resilient - t_reference) / t_reference;
        Ok(sum)
    }
}

fn fold_stats(sum: &mut PassSummary, report: &RunReport) {
    let s: &RankStats = &report.stats_total;
    for p in 0..N_PHASES {
        sum.phase_seconds[p] += s.modeled_time[p];
    }
    sum.recv_wait_s += s.total_recv_wait();
    sum.msgs += s.total_msgs();
    sum.bytes += s.total_bytes();
    sum.pool.absorb(&report.buffer_stats_total);
}

/// One campaign through the public runner with as many workers as the host
/// has hardware threads, plus both renderings of its report.
fn fleet_pass(spec: &CampaignSpec, spans: &mut Spans) -> Result<PassSummary, String> {
    let report = spans.scope("campaign:run", |_| {
        CampaignRunner::new(host::nproc()).run(spec)
    })?;
    let json = spans.scope("campaign:render_json", |_| report.to_json());
    let markdown = spans.scope("campaign:render_markdown", |_| report.to_markdown());
    std::hint::black_box(markdown);
    Ok(summarize_campaign(&report, &json))
}

/// Folds a campaign report into a pass summary. An op is one cell-run; it
/// fails when the campaign recorded an error, a panic or a convergence
/// failure for it. The fingerprint is the JSON artifact itself, which the
/// campaign engine guarantees byte-identical for identical inputs.
pub fn summarize_campaign(report: &CampaignReport, json: &str) -> PassSummary {
    let mut sum = PassSummary {
        ops: report.planned_runs,
        fingerprint: vec![(fnv1a(json.bytes()), report.planned_runs)],
        ..PassSummary::default()
    };
    for b in &report.baselines {
        sum.modeled_s += b.t0;
        sum.loop_trips += b.c as u64;
        sum.rank_trips += (b.c * b.n_ranks) as u64;
    }
    let (mut t_resilient, mut t_reference) = (0.0f64, 0.0f64);
    for cell in &report.cells {
        let bad = cell.runs - cell.ok_runs + cell.convergence_failures;
        if bad > 0 {
            sum.failed += bad;
            sum.complaints.push(format!(
                "cell {} {} {} φ={} {}: {} of {} runs failed {:?}",
                cell.variant,
                cell.strategy,
                cell.policy,
                cell.phi,
                cell.process,
                bad,
                cell.runs,
                cell.errors
            ));
        }
        // A cell has one or two runs (deterministic process or two trace
        // seeds), so median × count is their sum.
        let converged = (cell.ok_runs - cell.convergence_failures) as f64;
        let t = cell.modeled_time.map_or(0.0, |s| s.median * converged);
        sum.modeled_s += t;
        if cell.variant == "classic" {
            let base = report.baselines.iter().find(|b| {
                b.problem == cell.problem
                    && b.n_ranks == cell.n_ranks
                    && b.variant == cell.variant
                    && b.cost_model == cell.cost_model
            });
            if let Some(b) = base {
                t_resilient += t;
                t_reference += b.t0 * converged;
            }
        }
        let m = &cell.metrics;
        sum.recovery_s += m.recovery_seconds;
        sum.loop_trips += m.iterations;
        sum.rank_trips += m.iterations * cell.n_ranks as u64;
        for p in 0..N_PHASES {
            sum.phase_seconds[p] += m.phase_seconds[p];
        }
        sum.pool.absorb(&m.buffer_pool);
    }
    sum.overhead_pct = 100.0 * (t_resilient - t_reference) / t_reference;
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_workload_builds_and_unknown_names_are_refused() {
        for name in crate::names::WORKLOADS {
            let w = Workload::new(name, 7).unwrap();
            assert_eq!(w.name, name);
            assert!(w.setup_calls >= 8);
            if let Plan::Solves { cases, .. } = &w.plan {
                assert!(cases[0].is_reference(), "{name} starts with its reference");
                let mut labels: Vec<&str> = cases.iter().map(|c| c.label.as_str()).collect();
                labels.sort_unstable();
                labels.dedup();
                assert_eq!(labels.len(), cases.len(), "{name}: labels are unique");
            }
        }
        let err = Workload::new("nope", 7).unwrap_err();
        assert!(err.contains("kernel-bound"), "{err}");
    }

    #[test]
    fn paper_grid_has_the_fifteen_solves_of_table_2() {
        let w = Workload::new("paper-grid", 7).unwrap();
        let Plan::Solves { cases, .. } = &w.plan else {
            panic!("paper-grid is a list of solves");
        };
        assert_eq!(cases.len(), 15);
        for label in [
            "esr.phi1.ff",
            "esrp20.phi3.fail",
            "imcr20.phi1.ff",
            "esrp50.phi1.fail",
        ] {
            assert!(cases.iter().any(|c| c.label == label), "{label}");
        }
        for c in cases.iter().filter(|c| !c.events.is_empty()) {
            assert_eq!(c.events[0].width, c.phi, "ψ = φ");
        }
    }

    #[test]
    fn storm_events_land_mid_interval_and_stay_apart() {
        let esrp = Strategy::Esrp { t: 20 };
        for c in [150usize, 233, 400] {
            let its: Vec<usize> = (1..=6)
                .map(|k| {
                    Event {
                        at: EventAt::Seventh(k),
                        start_rank: 0,
                        width: 1,
                    }
                    .iteration(c, esrp)
                })
                .collect();
            for w in its.windows(2) {
                assert!(w[1] >= w[0] + 20, "C={c}: {its:?}");
            }
            assert!(its.iter().all(|i| i % 20 == 10 && *i < c), "C={c}: {its:?}");
        }
        let e = Event {
            at: EventAt::Seventh(3),
            start_rank: 0,
            width: 1,
        };
        assert_eq!(e.iteration(210, Strategy::esr()), 90, "ESR: k·C/7 as is");
    }

    #[test]
    fn fleet_spec_at_seed_7_is_the_smoke_campaign_it_was_copied_from() {
        let ours = fleet_spec(7).enumerate().unwrap();
        assert_eq!(ours.planned_runs, 432);
        assert_eq!(ours.cells.len(), 288);
        // While `smoke()` still is what it was, the copy matches it axis
        // for axis; once ROADMAP A re-points it, only the literal remains.
        let smoke = CampaignSpec::smoke();
        if smoke.enumerate().map(|e| e.planned_runs) == Ok(432) {
            assert_eq!(format!("{:?}", fleet_spec(7)), format!("{smoke:?}"));
        }
    }

    #[test]
    fn a_pass_checks_answers_and_repeats_bit_for_bit() {
        // paper-grid's matrix family, small enough for a unit test.
        let mut w = Workload::new("paper-grid", 3).unwrap();
        let Plan::Solves { source, cases } = &mut w.plan else {
            unreachable!()
        };
        *source = MatrixSource::EmiliaLike {
            nx: 6,
            ny: 6,
            nz: 16,
        };
        cases.retain(|c| c.label == "reference" || c.label.starts_with("esrp20.phi1"));
        for c in cases.iter_mut() {
            c.ranks = 4;
            for e in &mut c.events {
                e.start_rank = 2;
            }
        }
        let products = w.setup(&mut Spans::off()).unwrap();
        assert_eq!(products.assembled.len(), 3);
        let mut spans = Spans::on("test");
        let first = w
            .pass(&products.matrices, TraceConfig::Off, &mut spans)
            .unwrap();
        assert_eq!((first.ops, first.failed), (3, 0), "{:?}", first.complaints);
        assert!(first.overhead_pct > 0.0 && first.recovery_s > 0.0);
        assert_eq!(spans.len(), 4, "one span per solve inside the pass span");

        let mut second = w
            .pass(&products.matrices, TraceConfig::Spans, &mut Spans::off())
            .unwrap();
        second.check_against(&first);
        assert_eq!(second.failed, 0, "recorder level never moves modeled facts");
        assert_eq!(second.modeled_s.to_bits(), first.modeled_s.to_bits());

        // A pass whose modeled facts moved is a failed op, not a fast one.
        let mut tampered = first.clone();
        tampered.fingerprint[1].0 ^= 1;
        tampered.check_against(&first);
        assert_eq!(tampered.failed, 1);
    }
}
