//! The declarative campaign matrix and its budget-aware enumerator.
//!
//! A [`CampaignSpec`] is the cross product *problems × rank counts ×
//! PCG variants × cost models × SpMV formats × strategies × interval
//! policies × φ × fault processes*, replicated over trace seeds.
//! [`CampaignSpec::enumerate`] flattens it into an ordered list of
//! [`CellPlan`]s — the unit of aggregation — skipping combinations that can
//! never run (φ ≥ ranks), collapsing seed replicates of deterministic
//! processes, and truncating against an optional run budget. Enumeration
//! order is the row-major spec order and nothing else, so the cell list —
//! and with it every downstream report — is independent of how the fleet
//! later schedules the work.

use esrcg_cluster::CostModel;
use esrcg_core::driver::{MatrixSource, RhsSpec};
use esrcg_core::solver::PcgVariant;
use esrcg_core::strategy::{IntervalPolicy, Strategy};
use esrcg_sparse::SpmvFormat;

use crate::trace::FaultProcess;

/// A named workload: the matrix family plus the right-hand-side recipe.
#[derive(Debug, Clone)]
pub struct ProblemSpec {
    /// Report label (must be unique within a campaign).
    pub name: String,
    /// The matrix source.
    pub source: MatrixSource,
    /// The right-hand side.
    pub rhs: RhsSpec,
}

impl ProblemSpec {
    /// A named problem with the given matrix and right-hand side.
    pub fn new(name: impl Into<String>, source: MatrixSource, rhs: RhsSpec) -> Self {
        ProblemSpec {
            name: name.into(),
            source,
            rhs,
        }
    }
}

/// The declarative experiment matrix of one campaign.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Workloads.
    pub problems: Vec<ProblemSpec>,
    /// Simulated cluster sizes.
    pub rank_counts: Vec<usize>,
    /// PCG recurrence variants under test. Baselines are matched per
    /// variant: a pipelined cell is compared against the pipelined
    /// failure-free reference, never against classic.
    pub variants: Vec<PcgVariant>,
    /// Network cost-model presets the campaign is clocked under. Baselines
    /// are matched per cost model — modeled overheads only make sense
    /// against a reference run on the *same* clock — so this axis splits
    /// baselines exactly like the variant axis does. The
    /// latency-dominated preset is where the s-step variant's fused
    /// reduction pays off; the default preset keeps the classic crossover
    /// visible.
    pub cost_models: Vec<CostModel>,
    /// SpMV storage formats under test. All formats are bitwise identical
    /// and charge the same flops (the modeled clock is format-invariant),
    /// so the axis exercises code paths rather than splitting baselines —
    /// every format shares the (problem, ranks, variant) baseline.
    pub formats: Vec<SpmvFormat>,
    /// Resilient strategies under test (`Strategy::None` is implicit: the
    /// matched baseline of every (problem, rank count) pair always runs).
    pub strategies: Vec<Strategy>,
    /// Interval policies under test: fixed T (the spec strategy's interval
    /// as-is) and/or adaptive Daly/Young tuning. The bisection axis for
    /// validating `Strategy::auto` — sweep fixed T values against
    /// `IntervalPolicy::Adaptive` on the same fault process.
    pub policies: Vec<IntervalPolicy>,
    /// Redundancy levels φ.
    pub phis: Vec<usize>,
    /// Fault processes generating the failure scenarios.
    pub processes: Vec<FaultProcess>,
    /// Trace seeds: each stochastic cell runs once per seed.
    pub seeds: Vec<u64>,
    /// Convergence tolerance of every run.
    pub rtol: f64,
    /// Iteration cap of every run.
    pub max_iters: usize,
    /// Optional budget: at most this many measured runs (baselines not
    /// counted). The kept cells are a strict prefix of the enumeration —
    /// from the first cell that does not fit, everything is dropped — and
    /// the report records how many runs the budget cut, so a truncated
    /// campaign never masquerades as a complete (or unbiased) one.
    pub max_runs: Option<usize>,
}

impl CampaignSpec {
    /// The CI/acceptance smoke campaign: one small Poisson problem on 4
    /// ranks, all three PCG variants (classic, pipelined, s-step s=4),
    /// the default and latency-dominated cost models, all three
    /// strategies (ESR, ESRP, IMCR), fixed and adaptive interval
    /// policies, φ ∈ {1, 2}, the failure-free control, two stochastic
    /// processes × two seeds, and the paper's worst-case event as one
    /// deterministic cell.
    pub fn smoke() -> Self {
        CampaignSpec {
            problems: vec![ProblemSpec::new(
                "poisson2d-16x16",
                MatrixSource::Poisson2d { nx: 16, ny: 16 },
                RhsSpec::Random { seed: 7 },
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
            rtol: 1e-8,
            max_iters: 200_000,
            max_runs: None,
        }
    }

    /// Validates the matrix dimensions and every axis value.
    ///
    /// # Errors
    /// Returns the first problem found: an empty axis, a duplicate problem
    /// name, an invalid strategy or fault process, or a non-positive
    /// tolerance.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.problems.is_empty() {
            return Err("campaign needs at least one problem".into());
        }
        for (i, p) in self.problems.iter().enumerate() {
            if self.problems[..i].iter().any(|q| q.name == p.name) {
                return Err(format!("duplicate problem name '{}'", p.name));
            }
        }
        if self.rank_counts.is_empty() || self.rank_counts.contains(&0) {
            return Err("rank counts must be non-empty and positive".into());
        }
        if self.variants.is_empty() {
            return Err("campaign needs at least one PCG variant".into());
        }
        for (i, v) in self.variants.iter().enumerate() {
            if self.variants[..i].contains(v) {
                return Err(format!("duplicate PCG variant '{}'", v.name()));
            }
        }
        if self.cost_models.is_empty() {
            return Err("campaign needs at least one cost model".into());
        }
        for (i, c) in self.cost_models.iter().enumerate() {
            if self.cost_models[..i].contains(c) {
                return Err(format!("duplicate cost model '{}'", c.name()));
            }
        }
        if self.formats.is_empty() {
            return Err("campaign needs at least one SpMV format".into());
        }
        for (i, f) in self.formats.iter().enumerate() {
            if self.formats[..i].contains(f) {
                return Err(format!("duplicate SpMV format '{}'", f.name()));
            }
            f.validate()?;
        }
        if self.strategies.is_empty() {
            return Err("campaign needs at least one strategy".into());
        }
        for s in &self.strategies {
            if *s == Strategy::None {
                return Err(
                    "Strategy::None is implicit (the matched baseline always runs); \
                     list only resilient strategies"
                        .into(),
                );
            }
            s.validate()?;
        }
        if self.policies.is_empty() {
            return Err("campaign needs at least one interval policy".into());
        }
        for (i, p) in self.policies.iter().enumerate() {
            if self.policies[..i].contains(p) {
                return Err(format!("duplicate interval policy '{}'", p.name()));
            }
            p.validate()?;
        }
        if self.phis.is_empty() || self.phis.contains(&0) {
            return Err("phi values must be non-empty and positive".into());
        }
        if self.processes.is_empty() {
            return Err("campaign needs at least one fault process".into());
        }
        for p in &self.processes {
            p.validate()?;
        }
        if self.seeds.is_empty() {
            return Err("campaign needs at least one trace seed".into());
        }
        if self.rtol <= 0.0 || self.rtol.is_nan() || self.max_iters == 0 {
            return Err("tolerance must be positive and the iteration cap nonzero".into());
        }
        Ok(())
    }
}

/// One cell of the enumerated campaign: a unique
/// (problem, ranks, variant, cost model, format, strategy, policy, φ,
/// process) combination plus the seeds it runs under. Aggregation happens
/// per cell, over its seed replicates.
#[derive(Debug, Clone)]
pub struct CellPlan {
    /// Index into [`CampaignSpec::problems`].
    pub problem: usize,
    /// Simulated ranks.
    pub n_ranks: usize,
    /// The PCG recurrence variant.
    pub variant: PcgVariant,
    /// The cost model this cell (and its matched baseline) is clocked
    /// with.
    pub cost: CostModel,
    /// The SpMV storage format.
    pub format: SpmvFormat,
    /// The resilience strategy.
    pub strategy: Strategy,
    /// The interval policy (fixed T vs adaptive tuning).
    pub policy: IntervalPolicy,
    /// Redundancy level φ.
    pub phi: usize,
    /// The fault process generating this cell's failure scenarios.
    pub process: FaultProcess,
    /// Trace seeds (collapsed to the first spec seed for deterministic
    /// processes — identical replicates measure nothing).
    pub seeds: Vec<u64>,
}

/// The flattened campaign: ordered cells plus the enumeration accounting.
#[derive(Debug, Clone)]
pub struct Enumeration {
    /// Cells in deterministic spec order.
    pub cells: Vec<CellPlan>,
    /// Measured runs the kept cells will execute (Σ seeds per cell).
    pub planned_runs: usize,
    /// Combinations skipped as unrunnable (φ ≥ rank count).
    pub skipped_combos: usize,
    /// Runs cut by [`CampaignSpec::max_runs`] (whole trailing cells).
    pub dropped_runs: usize,
}

impl CampaignSpec {
    /// Flattens the matrix into ordered [`CellPlan`]s (see the module docs
    /// for the skipping, collapsing, and truncation rules).
    ///
    /// # Errors
    /// Returns `CampaignSpec::validate` failures.
    pub fn enumerate(&self) -> Result<Enumeration, String> {
        self.validate()?;
        let mut cells = Vec::new();
        let mut skipped_combos = 0usize;
        let mut planned_runs = 0usize;
        let mut dropped_runs = 0usize;
        let budget = self.max_runs.unwrap_or(usize::MAX);
        // Once one cell does not fit, every later cell is dropped too —
        // the kept cells are a strict *prefix* of the full enumeration,
        // never a cherry-pick of whichever later cells happen to be small
        // (that would bias a truncated campaign toward cheap
        // deterministic cells).
        let mut exhausted = false;
        for (pi, _) in self.problems.iter().enumerate() {
            for &n_ranks in &self.rank_counts {
                for &variant in &self.variants {
                    for &cost in &self.cost_models {
                        for &format in &self.formats {
                            for &strategy in &self.strategies {
                                for &policy in &self.policies {
                                    for &phi in &self.phis {
                                        if phi >= n_ranks {
                                            skipped_combos += self.processes.len();
                                            continue;
                                        }
                                        for &process in &self.processes {
                                            let seeds: Vec<u64> = if process.is_stochastic() {
                                                self.seeds.clone()
                                            } else {
                                                vec![self.seeds[0]]
                                            };
                                            if exhausted || planned_runs + seeds.len() > budget {
                                                exhausted = true;
                                                dropped_runs += seeds.len();
                                                continue;
                                            }
                                            planned_runs += seeds.len();
                                            cells.push(CellPlan {
                                                problem: pi,
                                                n_ranks,
                                                variant,
                                                cost,
                                                format,
                                                strategy,
                                                policy,
                                                phi,
                                                process,
                                                seeds,
                                            });
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(Enumeration {
            cells,
            planned_runs,
            skipped_combos,
            dropped_runs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_spec_enumerates_all_strategies_and_processes() {
        let spec = CampaignSpec::smoke();
        let e = spec.enumerate().unwrap();
        // 3 variants × 2 cost models × 3 strategies × 2 policies × 2 phis
        // × 4 processes, nothing skipped.
        assert_eq!(e.cells.len(), 288);
        assert_eq!(e.skipped_combos, 0);
        assert_eq!(e.dropped_runs, 0);
        // All variants are covered, including with failures.
        for variant in [
            PcgVariant::Classic,
            PcgVariant::Pipelined,
            PcgVariant::SStep { s: 4 },
        ] {
            assert!(e
                .cells
                .iter()
                .any(|c| c.variant == variant && c.process.is_stochastic()));
        }
        // Both cost models are covered, for every variant.
        for cost in [CostModel::default(), CostModel::latency_dominated()] {
            for variant in [
                PcgVariant::Classic,
                PcgVariant::Pipelined,
                PcgVariant::SStep { s: 4 },
            ] {
                assert!(e
                    .cells
                    .iter()
                    .any(|c| c.cost == cost && c.variant == variant));
            }
        }
        // Stochastic cells carry both seeds, deterministic ones collapse.
        let stochastic = e.cells.iter().filter(|c| c.process.is_stochastic());
        for c in stochastic {
            assert_eq!(c.seeds, vec![11, 17]);
        }
        for c in e.cells.iter().filter(|c| !c.process.is_stochastic()) {
            assert_eq!(c.seeds, vec![11]);
        }
        // 2 stochastic × 2 seeds + 2 deterministic × 1 seed, per 72 combos.
        assert_eq!(e.planned_runs, 72 * (2 * 2 + 2));
    }

    #[test]
    fn enumeration_order_is_spec_order() {
        let spec = CampaignSpec::smoke();
        let a = spec.enumerate().unwrap();
        let b = spec.enumerate().unwrap();
        let key = |c: &CellPlan| {
            (
                c.problem,
                c.n_ranks,
                c.variant,
                c.strategy.to_string(),
                c.phi,
                c.process.name(),
            )
        };
        assert_eq!(
            a.cells.iter().map(key).collect::<Vec<_>>(),
            b.cells.iter().map(key).collect::<Vec<_>>()
        );
    }

    #[test]
    fn unrunnable_phi_combos_are_skipped() {
        let mut spec = CampaignSpec::smoke();
        spec.rank_counts = vec![2, 4];
        spec.phis = vec![1, 3];
        let e = spec.enumerate().unwrap();
        // ranks=2 skips phi=3 (and phi < ranks keeps phi=1); ranks=4 keeps
        // both.
        assert_eq!(
            e.skipped_combos,
            3 * 2 * 3 * 2 * 4,
            "3 variants × 2 cost models × 3 strategies × 2 policies × 4 \
             processes"
        );
        assert!(e.cells.iter().all(|c| c.phi < c.n_ranks,));
    }

    #[test]
    fn run_budget_keeps_a_strict_prefix() {
        let mut spec = CampaignSpec::smoke();
        spec.max_runs = Some(7);
        let e = spec.enumerate().unwrap();
        assert!(e.planned_runs <= 7);
        assert!(e.dropped_runs > 0, "the budget visibly cut runs");
        let full = {
            let mut s = spec.clone();
            s.max_runs = None;
            s.enumerate().unwrap()
        };
        assert_eq!(
            e.planned_runs + e.dropped_runs,
            full.planned_runs,
            "no silent loss"
        );
        // The kept cells are exactly the first k of the full enumeration —
        // a later small (deterministic) cell must never slip past a
        // dropped earlier one, or the truncated sample would be biased.
        let key = |c: &CellPlan| {
            (
                c.problem,
                c.n_ranks,
                c.variant,
                c.strategy,
                c.phi,
                c.process.name(),
            )
        };
        assert_eq!(
            e.cells.iter().map(key).collect::<Vec<_>>(),
            full.cells[..e.cells.len()]
                .iter()
                .map(key)
                .collect::<Vec<_>>(),
            "kept cells are a prefix"
        );
    }

    #[test]
    fn validation_catches_misconfiguration() {
        let ok = CampaignSpec::smoke();
        assert!(ok.validate().is_ok());

        let mut bad = CampaignSpec::smoke();
        bad.strategies = vec![Strategy::None];
        assert!(bad.validate().unwrap_err().contains("implicit"));

        let mut bad = CampaignSpec::smoke();
        bad.strategies = vec![Strategy::Esrp { t: 2 }];
        assert!(bad.validate().is_err(), "T = 2 rejected like the solver");

        let mut bad = CampaignSpec::smoke();
        bad.seeds.clear();
        assert!(bad.validate().is_err());

        let mut bad = CampaignSpec::smoke();
        bad.processes = vec![FaultProcess::Exponential { mtbf: -1.0 }];
        assert!(bad.validate().is_err());

        let mut bad = CampaignSpec::smoke();
        bad.problems.push(ProblemSpec::new(
            "poisson2d-16x16",
            MatrixSource::Poisson2d { nx: 4, ny: 4 },
            RhsSpec::Ones,
        ));
        assert!(bad.validate().unwrap_err().contains("duplicate"));

        let mut bad = CampaignSpec::smoke();
        bad.phis = vec![0];
        assert!(bad.validate().is_err());

        let mut bad = CampaignSpec::smoke();
        bad.variants.clear();
        assert!(bad.validate().unwrap_err().contains("variant"));

        let mut bad = CampaignSpec::smoke();
        bad.variants = vec![PcgVariant::Pipelined, PcgVariant::Pipelined];
        assert!(bad.validate().unwrap_err().contains("duplicate"));

        let mut bad = CampaignSpec::smoke();
        bad.policies.clear();
        assert!(bad.validate().unwrap_err().contains("interval policy"));

        let mut bad = CampaignSpec::smoke();
        bad.policies = vec![IntervalPolicy::Fixed, IntervalPolicy::Fixed];
        assert!(bad.validate().unwrap_err().contains("duplicate"));

        let mut bad = CampaignSpec::smoke();
        bad.policies = vec![IntervalPolicy::Adaptive { min_t: 5, max_t: 3 }];
        assert!(bad.validate().is_err(), "inverted bounds rejected");

        let mut bad = CampaignSpec::smoke();
        bad.cost_models.clear();
        assert!(bad.validate().unwrap_err().contains("cost model"));

        let mut bad = CampaignSpec::smoke();
        bad.cost_models = vec![CostModel::default(), CostModel::default()];
        assert!(bad.validate().unwrap_err().contains("duplicate cost model"));
    }

    #[test]
    fn format_axis_multiplies_the_cells() {
        let mut spec = CampaignSpec::smoke();
        let single = spec.enumerate().unwrap();
        spec.formats = vec![SpmvFormat::Csr, SpmvFormat::sell(), SpmvFormat::bcsr3()];
        let e = spec.enumerate().unwrap();
        assert_eq!(
            e.cells.len(),
            3 * single.cells.len(),
            "the format axis triples the grid"
        );
        for f in [SpmvFormat::Csr, SpmvFormat::sell(), SpmvFormat::bcsr3()] {
            assert!(e.cells.iter().any(|c| c.format == f));
        }

        let mut bad = CampaignSpec::smoke();
        bad.formats.clear();
        assert!(bad.validate().unwrap_err().contains("SpMV format"));
        let mut bad = CampaignSpec::smoke();
        bad.formats = vec![SpmvFormat::Csr, SpmvFormat::Csr];
        assert!(bad.validate().unwrap_err().contains("duplicate"));
        let mut bad = CampaignSpec::smoke();
        bad.formats = vec![SpmvFormat::Sellcs { c: 99, sigma: 4 }];
        assert!(bad.validate().is_err(), "format parameters are validated");
    }

    #[test]
    fn policy_axis_multiplies_the_cells() {
        let mut spec = CampaignSpec::smoke();
        spec.policies = vec![IntervalPolicy::Fixed];
        let single = spec.enumerate().unwrap();
        spec.policies = vec![
            IntervalPolicy::Fixed,
            IntervalPolicy::Adaptive {
                min_t: 1,
                max_t: 64,
            },
        ];
        let e = spec.enumerate().unwrap();
        assert_eq!(
            e.cells.len(),
            2 * single.cells.len(),
            "the policy axis doubles the grid"
        );
        for p in [
            IntervalPolicy::Fixed,
            IntervalPolicy::Adaptive {
                min_t: 1,
                max_t: 64,
            },
        ] {
            assert!(e.cells.iter().any(|c| c.policy == p));
        }
    }
}
