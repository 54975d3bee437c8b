//! Stochastic fault processes compiled into failure schedules.
//!
//! The paper's evaluation (§5) injects *hand-picked worst-case* events; a
//! campaign instead draws failure scenarios from a seeded stochastic
//! process and runs hundreds of them. A [`FaultProcess`] is such a model:
//! given a seed and a [`TraceBudget`] (the planned iteration budget plus
//! the cell's cluster shape), [`FaultProcess::compile`] materializes a
//! sorted, solver-valid `Vec<FailureSpec>` — the same event type the
//! single-shot experiments use, so every downstream path (injection,
//! recovery, validation) is shared with the paper reproduction.
//!
//! All sampling is [`SplitMix64`]-based and fully determined by
//! `(process, seed, budget)`: the same cell always re-runs the same trace,
//! on any host, which is what makes campaign aggregates byte-reproducible.

use esrcg_cluster::FailureSpec;
use esrcg_core::driver::paper_failure_iteration;
use esrcg_sparse::rng::SplitMix64;

/// The frame a trace is compiled against: the planned iteration budget
/// (the matched baseline's iteration count `C`) and the cell's cluster
/// shape and redundancy level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceBudget {
    /// Planned iterations (`C` of the matched failure-free baseline);
    /// events are placed strictly before this.
    pub iterations: usize,
    /// Simulated ranks of the cell.
    pub n_ranks: usize,
    /// Tolerated simultaneous failures (φ) — no event exceeds this width.
    pub phi: usize,
    /// The strategy's storage/checkpoint interval `T` (1 for ESR). Used
    /// for the paper's worst-case placement and to separate consecutive
    /// events by at least `T + 2` iterations, so the re-executed storage
    /// stage / checkpoint round between two events has repopulated the
    /// redundant copies (see `SolverConfig::failures`).
    pub interval: usize,
}

impl TraceBudget {
    /// Minimum iterations between consecutive events: a full storage stage
    /// / checkpoint round plus the two-iteration stage width.
    pub fn min_separation(&self) -> usize {
        self.interval + 2
    }
}

/// A seeded stochastic (or degenerate deterministic) node-fault model.
///
/// The stochastic variants draw event *arrivals* from an exponential
/// inter-arrival law (iterations between failures with the given mean —
/// the discrete stand-in for a Poisson fault process with the given MTBF).
/// They differ in the event *width*:
///
/// * [`FaultProcess::Exponential`] — independent single-node faults,
/// * [`FaultProcess::Burst`] — correlated faults taking out a contiguous
///   block of ranks (geometric width with the given mean, capped at φ) —
///   the paper's switch-fault rationale: a failed switch in a fat tree
///   removes a contiguous range of ranks,
/// * [`FaultProcess::PaperWorstCase`] — the paper's §5 adversarial
///   placement as a degenerate process: one φ-wide contiguous event, two
///   iterations before the end of the storage interval containing `C/2`.
/// * [`FaultProcess::None`] — the failure-free control (empty schedule).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultProcess {
    /// No failures: the cell measures the strategy's failure-free overhead.
    None,
    /// Independent single-node faults with exponential inter-arrival times.
    Exponential {
        /// Mean iterations between failure events.
        mtbf: f64,
    },
    /// Correlated contiguous-block faults (switch failures): exponential
    /// arrivals, geometric block width.
    Burst {
        /// Mean iterations between failure events.
        mtbf: f64,
        /// Mean ranks per event (geometric, capped at φ).
        mean_width: f64,
    },
    /// The paper's hand-picked worst case: one contiguous φ-wide event at
    /// [`paper_failure_iteration`]`(C, T)` — reproduced here so the
    /// evaluation's scenario is one cell of a larger stochastic matrix.
    PaperWorstCase,
}

impl FaultProcess {
    /// Short name for reports, including the parameters (e.g.
    /// `exp(mtbf=40)`), so distinct processes never alias in a report.
    pub fn name(&self) -> String {
        match self {
            FaultProcess::None => "none".to_string(),
            FaultProcess::Exponential { mtbf } => format!("exp(mtbf={mtbf})"),
            FaultProcess::Burst { mtbf, mean_width } => {
                format!("burst(mtbf={mtbf},w={mean_width})")
            }
            FaultProcess::PaperWorstCase => "paper-worst-case".to_string(),
        }
    }

    /// True if the compiled trace depends on the seed. Deterministic
    /// processes collapse all seeds of a cell into one run (see the
    /// enumerator).
    pub(crate) fn is_stochastic(&self) -> bool {
        matches!(
            self,
            FaultProcess::Exponential { .. } | FaultProcess::Burst { .. }
        )
    }

    /// Validates the model parameters.
    ///
    /// # Errors
    /// Returns a description of the first problem (non-positive or
    /// non-finite MTBF / mean width).
    pub(crate) fn validate(&self) -> Result<(), String> {
        match *self {
            FaultProcess::None | FaultProcess::PaperWorstCase => Ok(()),
            FaultProcess::Exponential { mtbf } => {
                if !(mtbf.is_finite() && mtbf > 0.0) {
                    return Err(format!("exponential mtbf must be positive, got {mtbf}"));
                }
                Ok(())
            }
            FaultProcess::Burst { mtbf, mean_width } => {
                if !(mtbf.is_finite() && mtbf > 0.0) {
                    return Err(format!("burst mtbf must be positive, got {mtbf}"));
                }
                if !(mean_width.is_finite() && mean_width >= 1.0) {
                    return Err(format!("burst mean width must be >= 1, got {mean_width}"));
                }
                Ok(())
            }
        }
    }

    /// Compiles the process into a sorted failure schedule against
    /// `budget`: trigger iterations strictly increase, start at 1, stay
    /// below `budget.iterations`, keep the coverage-safe separation of
    /// [`TraceBudget::min_separation`], and every event is a contiguous
    /// block of at most φ ranks. The result is directly consumable by
    /// `Experiment::failures` / `SolverConfig::failures`.
    ///
    /// Deterministic per `(self, seed, budget)`.
    ///
    /// # Panics
    /// Panics if the budget is degenerate (`phi == 0` or
    /// `phi >= n_ranks`) while the process generates events.
    pub fn compile(&self, seed: u64, budget: &TraceBudget) -> Vec<FailureSpec> {
        let mut events = Vec::new();
        if matches!(self, FaultProcess::None) || budget.iterations <= 1 {
            return events;
        }
        assert!(
            budget.phi >= 1 && budget.phi < budget.n_ranks,
            "fault process {} (seed {}) needs 1 <= phi < n_ranks, \
             got phi = {} over {} ranks",
            self.name(),
            seed,
            budget.phi,
            budget.n_ranks
        );
        match *self {
            FaultProcess::None => {}
            FaultProcess::PaperWorstCase => {
                let j_f = paper_failure_iteration(budget.iterations, budget.interval);
                if j_f < budget.iterations {
                    events.push(FailureSpec::contiguous(j_f, 0, budget.phi, budget.n_ranks));
                }
            }
            FaultProcess::Exponential { mtbf } => {
                let mut rng = SplitMix64::new(seed);
                sample_arrivals(&mut rng, mtbf, budget, &mut events, |_| 1);
            }
            FaultProcess::Burst { mtbf, mean_width } => {
                let mut rng = SplitMix64::new(seed);
                let p = 1.0 / mean_width;
                sample_arrivals(&mut rng, mtbf, budget, &mut events, |rng| {
                    // Width = 1 + Geometric(p) by inverse transform, so the
                    // mean (uncapped) is `mean_width`.
                    let u = rng.next_f64();
                    let extra = if p >= 1.0 {
                        0.0
                    } else {
                        (1.0 - u).ln() / (1.0 - p).ln()
                    };
                    1 + extra as usize
                });
            }
        }
        debug_assert!(
            events
                .windows(2)
                .all(|w| w[0].at_iteration() < w[1].at_iteration()),
            "compiled schedules are sorted and strictly increasing"
        );
        events
    }
}

/// Draws exponential arrivals and appends one contiguous event per
/// arrival, with the width chosen by `width` (capped at φ) and a uniform
/// start rank. Shared by the stochastic processes so their arrival law —
/// and thus their comparability in a report — is identical.
fn sample_arrivals(
    rng: &mut SplitMix64,
    mtbf: f64,
    budget: &TraceBudget,
    events: &mut Vec<FailureSpec>,
    mut width: impl FnMut(&mut SplitMix64) -> usize,
) {
    let min_sep = budget.min_separation();
    let mut j = 0usize;
    loop {
        // Exponential inter-arrival, at least one iteration.
        let u = rng.next_f64();
        let delta = (-mtbf * (1.0 - u).ln()).ceil().max(1.0);
        // Saturate instead of overflowing for absurd draws.
        j = j.saturating_add(delta.min(usize::MAX as f64 / 2.0) as usize);
        if let Some(prev) = events.last() {
            j = j.max(prev.at_iteration() + min_sep);
        }
        if j >= budget.iterations {
            return;
        }
        let count = width(rng).clamp(1, budget.phi);
        let start = rng.range_usize(0, budget.n_ranks);
        events.push(FailureSpec::contiguous(j, start, count, budget.n_ranks));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget() -> TraceBudget {
        TraceBudget {
            iterations: 200,
            n_ranks: 8,
            phi: 2,
            interval: 10,
        }
    }

    #[test]
    fn none_compiles_empty() {
        assert!(FaultProcess::None.compile(1, &budget()).is_empty());
    }

    #[test]
    fn compile_is_deterministic_per_seed() {
        let p = FaultProcess::Exponential { mtbf: 25.0 };
        let a = p.compile(42, &budget());
        let b = p.compile(42, &budget());
        let c = p.compile(43, &budget());
        assert_eq!(a, b, "same seed, same schedule");
        assert!(!a.is_empty(), "mtbf 25 over 200 iterations yields events");
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn schedules_respect_the_budget() {
        for seed in 0..50 {
            for p in [
                FaultProcess::Exponential { mtbf: 10.0 },
                FaultProcess::Burst {
                    mtbf: 15.0,
                    mean_width: 2.5,
                },
            ] {
                let b = budget();
                let events = p.compile(seed, &b);
                let mut prev: Option<usize> = None;
                for e in &events {
                    assert!(e.at_iteration() >= 1);
                    assert!(e.at_iteration() < b.iterations);
                    assert!(e.count() >= 1 && e.count() <= b.phi, "width within phi");
                    assert!(e.ranks().iter().all(|&r| r < b.n_ranks));
                    if let Some(pj) = prev {
                        assert!(
                            e.at_iteration() >= pj + b.min_separation(),
                            "separation {} < {}",
                            e.at_iteration() - pj,
                            b.min_separation()
                        );
                    }
                    prev = Some(e.at_iteration());
                }
            }
        }
    }

    #[test]
    fn burst_widths_exceed_one_and_cap_at_phi() {
        let p = FaultProcess::Burst {
            mtbf: 5.0,
            mean_width: 3.0,
        };
        let b = TraceBudget {
            iterations: 2000,
            n_ranks: 8,
            phi: 3,
            interval: 1,
        };
        let widths: Vec<usize> = (0..20)
            .flat_map(|seed| p.compile(seed, &b))
            .map(|e| e.count())
            .collect();
        assert!(widths.iter().any(|&w| w > 1), "bursts are correlated");
        assert!(widths.iter().all(|&w| w <= 3), "capped at phi");
    }

    #[test]
    fn paper_worst_case_is_the_papers_placement() {
        let b = TraceBudget {
            iterations: 100,
            n_ranks: 8,
            phi: 2,
            interval: 20,
        };
        let events = FaultProcess::PaperWorstCase.compile(7, &b);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].at_iteration(), paper_failure_iteration(100, 20));
        assert_eq!(events[0].ranks(), &[0, 1], "phi-wide contiguous block");
        // Seed-independent: a deterministic process.
        assert_eq!(events, FaultProcess::PaperWorstCase.compile(8, &b));
        assert!(!FaultProcess::PaperWorstCase.is_stochastic());
    }

    #[test]
    fn tiny_budgets_yield_empty_schedules() {
        let b = TraceBudget {
            iterations: 1,
            n_ranks: 4,
            phi: 1,
            interval: 5,
        };
        for p in [
            FaultProcess::Exponential { mtbf: 1.0 },
            FaultProcess::PaperWorstCase,
        ] {
            assert!(p.compile(3, &b).is_empty(), "{}", p.name());
        }
    }

    #[test]
    #[should_panic(expected = "fault process exp(mtbf=25) (seed 9)")]
    fn degenerate_budget_panic_names_the_cell() {
        let b = TraceBudget {
            iterations: 100,
            n_ranks: 4,
            phi: 4, // phi >= n_ranks: unrunnable, the enumerator should have skipped it
            interval: 5,
        };
        FaultProcess::Exponential { mtbf: 25.0 }.compile(9, &b);
    }

    #[test]
    fn names_are_parameterized_and_distinct() {
        assert_eq!(FaultProcess::None.name(), "none");
        assert_eq!(
            FaultProcess::Exponential { mtbf: 40.0 }.name(),
            "exp(mtbf=40)"
        );
        assert_ne!(
            FaultProcess::Exponential { mtbf: 40.0 }.name(),
            FaultProcess::Exponential { mtbf: 80.0 }.name()
        );
        assert_eq!(
            FaultProcess::Burst {
                mtbf: 60.0,
                mean_width: 2.0
            }
            .name(),
            "burst(mtbf=60,w=2)"
        );
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(FaultProcess::Exponential { mtbf: 0.0 }.validate().is_err());
        assert!(FaultProcess::Exponential { mtbf: f64::NAN }
            .validate()
            .is_err());
        assert!(FaultProcess::Burst {
            mtbf: 10.0,
            mean_width: 0.5
        }
        .validate()
        .is_err());
        assert!(FaultProcess::Burst {
            mtbf: 10.0,
            mean_width: 2.0
        }
        .validate()
        .is_ok());
        assert!(FaultProcess::None.validate().is_ok());
    }
}
