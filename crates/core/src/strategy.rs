//! The resilience strategy and its interval policy.

use std::fmt;

/// Which resilience strategy the solver runs.
///
/// * `None` — the plain PCG reference (the paper's t₀ baseline),
/// * `Esrp { t: 1 }` — classic **ESR**: redundant storage in *every*
///   iteration (papers [7, 20, 21]),
/// * `Esrp { t >= 3 }` — **ESRP**: storage stages of two consecutive ASpMV
///   iterations every `t` iterations (this paper's contribution),
/// * `Imcr { t }` — in-memory buddy checkpoint-restart every `t` iterations
///   (the paper's comparison baseline, §3.1).
///
/// `t = 2` is rejected for ESRP: the paper notes it stores copies every
/// iteration anyway, so plain ESR should be used instead (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// No resilience (reference runs).
    None,
    /// Exact state reconstruction with periodic storage; `t = 1` is ESR.
    Esrp {
        /// Checkpointing interval in iterations (`T` in the paper).
        t: usize,
    },
    /// In-memory buddy checkpoint-restart.
    Imcr {
        /// Checkpointing interval in iterations.
        t: usize,
    },
}

impl Strategy {
    /// Classic ESR (ESRP with `t = 1`).
    pub fn esr() -> Self {
        Strategy::Esrp { t: 1 }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns a description of the problem for `t = 0` or ESRP with
    /// `t = 2`.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            Strategy::None => Ok(()),
            Strategy::Esrp { t: 0 } | Strategy::Imcr { t: 0 } => {
                Err("checkpoint interval must be at least 1".into())
            }
            Strategy::Esrp { t: 2 } => Err(
                "ESRP with T = 2 stores copies every iteration; use ESR (T = 1) instead \
                 (paper §3)"
                    .into(),
            ),
            _ => Ok(()),
        }
    }

    /// Whether the strategy stores redundant copies through the augmented
    /// SpMV (i.e. needs an [`crate::aspmv::AspmvPlan`]).
    pub fn uses_aspmv(&self) -> bool {
        matches!(self, Strategy::Esrp { .. })
    }

    /// Whether the strategy checkpoints to buddy ranks (needs a
    /// [`crate::aspmv::BuddyMap`]).
    pub fn uses_checkpoints(&self) -> bool {
        matches!(self, Strategy::Imcr { .. })
    }

    /// The checkpointing interval, if any.
    pub fn interval(&self) -> Option<usize> {
        match *self {
            Strategy::None => None,
            Strategy::Esrp { t } | Strategy::Imcr { t } => Some(t),
        }
    }

    /// True for classic ESR (every-iteration storage).
    pub(crate) fn is_esr(&self) -> bool {
        matches!(self, Strategy::Esrp { t: 1 })
    }

    /// Short name for reports: `none`, `esr`, `esrp`, `imcr`.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::None => "none",
            Strategy::Esrp { t: 1 } => "esr",
            Strategy::Esrp { .. } => "esrp",
            Strategy::Imcr { .. } => "imcr",
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Strategy::None => f.write_str("none"),
            Strategy::Esrp { t: 1 } => f.write_str("esr"),
            Strategy::Esrp { t } => write!(f, "esrp(T={t})"),
            Strategy::Imcr { t } => write!(f, "imcr(T={t})"),
        }
    }
}

/// How the checkpoint/storage interval `T` evolves over a run.
///
/// `Fixed` (the default) keeps the configured `T` forever — every run
/// before this type existed behaved like that, and the solver is bitwise
/// unchanged under it. `Adaptive` re-tunes `T` at recovery points from the
/// observed failure stream: after every recovery the solver re-estimates
/// MTBF and the per-round checkpoint cost and moves `T` toward the
/// Daly/Young optimum `T* = √(2·MTBF·C_ckpt)` (in iteration units), clamped
/// to `[min_t, max_t]`. Until two failures have been observed there is no
/// MTBF estimate and the configured `T` stands, so an adaptive run with
/// fewer than two failures is bitwise identical to the fixed run. Set it
/// with `Experiment::interval_policy`; it needs a resilient strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntervalPolicy {
    /// Keep the configured interval for the whole run.
    #[default]
    Fixed,
    /// Re-tune toward the Daly/Young optimum at every recovery point,
    /// clamped to `[min_t, max_t]`.
    Adaptive {
        /// Smallest interval the tuner may choose (at least 1).
        min_t: usize,
        /// Largest interval the tuner may choose (at least `min_t`).
        max_t: usize,
    },
}

impl IntervalPolicy {
    /// True for the adaptive policy.
    pub(crate) fn is_adaptive(&self) -> bool {
        matches!(self, IntervalPolicy::Adaptive { .. })
    }

    /// The largest interval this policy can put in play, given the
    /// configured strategy interval `t`. Trace budgets use this so event
    /// separation stays coverage-safe whatever the tuner picks.
    pub fn max_interval(&self, t: usize) -> usize {
        match *self {
            IntervalPolicy::Fixed => t,
            IntervalPolicy::Adaptive { max_t, .. } => max_t.max(t),
        }
    }

    /// Validates the policy bounds.
    ///
    /// # Errors
    /// Returns a description of the problem for `min_t = 0` or
    /// `min_t > max_t`.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            IntervalPolicy::Fixed => Ok(()),
            IntervalPolicy::Adaptive { min_t, max_t } => {
                if min_t == 0 {
                    return Err("adaptive interval bounds need min_t >= 1".into());
                }
                if min_t > max_t {
                    return Err(format!(
                        "adaptive interval bounds are inverted: min_t = {min_t} > max_t = {max_t}"
                    ));
                }
                Ok(())
            }
        }
    }

    /// Short name for reports: `fixed` or `auto[min..max]`.
    pub fn name(&self) -> String {
        match *self {
            IntervalPolicy::Fixed => "fixed".to_string(),
            IntervalPolicy::Adaptive { min_t, max_t } => format!("auto[{min_t}..{max_t}]"),
        }
    }
}

impl fmt::Display for IntervalPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rules() {
        assert!(Strategy::None.validate().is_ok());
        assert!(Strategy::esr().validate().is_ok());
        assert!(Strategy::Esrp { t: 3 }.validate().is_ok());
        assert!(Strategy::Esrp { t: 100 }.validate().is_ok());
        assert!(Strategy::Imcr { t: 20 }.validate().is_ok());
        assert!(Strategy::Esrp { t: 2 }.validate().is_err());
        assert!(Strategy::Esrp { t: 0 }.validate().is_err());
        assert!(Strategy::Imcr { t: 0 }.validate().is_err());
    }

    #[test]
    fn classification() {
        assert!(Strategy::esr().is_esr());
        assert!(!Strategy::Esrp { t: 5 }.is_esr());
        assert!(Strategy::Esrp { t: 5 }.uses_aspmv());
        assert!(!Strategy::Imcr { t: 5 }.uses_aspmv());
        assert!(Strategy::Imcr { t: 5 }.uses_checkpoints());
        assert!(!Strategy::None.uses_aspmv());
        assert_eq!(Strategy::Esrp { t: 7 }.interval(), Some(7));
        assert_eq!(Strategy::None.interval(), None);
    }

    #[test]
    fn names_and_display() {
        assert_eq!(Strategy::None.name(), "none");
        assert_eq!(Strategy::esr().name(), "esr");
        assert_eq!(Strategy::Esrp { t: 20 }.name(), "esrp");
        assert_eq!(Strategy::Imcr { t: 20 }.name(), "imcr");
        assert_eq!(Strategy::Esrp { t: 20 }.to_string(), "esrp(T=20)");
        assert_eq!(Strategy::esr().to_string(), "esr");
        assert_eq!(Strategy::Imcr { t: 50 }.to_string(), "imcr(T=50)");
    }

    #[test]
    fn policy_validation_and_names() {
        assert!(IntervalPolicy::Fixed.validate().is_ok());
        assert!(IntervalPolicy::Adaptive {
            min_t: 1,
            max_t: 80
        }
        .validate()
        .is_ok());
        assert!(IntervalPolicy::Adaptive {
            min_t: 0,
            max_t: 10
        }
        .validate()
        .is_err());
        assert!(IntervalPolicy::Adaptive { min_t: 9, max_t: 3 }
            .validate()
            .unwrap_err()
            .contains("inverted"));
        assert_eq!(IntervalPolicy::Fixed.name(), "fixed");
        assert_eq!(
            IntervalPolicy::Adaptive {
                min_t: 1,
                max_t: 80
            }
            .name(),
            "auto[1..80]"
        );
        assert_eq!(IntervalPolicy::default(), IntervalPolicy::Fixed);
    }

    #[test]
    fn auto_and_fixed_constructors() {
        use crate::solver::SolverConfig;

        let auto = IntervalPolicy::Adaptive {
            min_t: 1,
            max_t: 80,
        };
        assert!(auto.is_adaptive());
        assert_eq!(auto.max_interval(10), 80);
        assert_eq!(auto.max_interval(100), 100, "the starting interval counts");
        assert!(!IntervalPolicy::Fixed.is_adaptive());
        assert_eq!(IntervalPolicy::Fixed.max_interval(20), 20);

        let with = |strategy: Strategy, policy: IntervalPolicy| {
            let mut cfg = SolverConfig::new(strategy, 1);
            cfg.interval_policy = policy;
            cfg.validate(4)
        };
        assert!(with(Strategy::Esrp { t: 10 }, auto).is_ok());
        assert!(with(Strategy::Imcr { t: 20 }, IntervalPolicy::Fixed).is_ok());
        assert!(
            with(Strategy::None, auto).is_err(),
            "nothing to tune without a resilient strategy"
        );
        assert!(with(Strategy::Esrp { t: 2 }, auto).is_err());
        assert!(with(
            Strategy::Imcr { t: 5 },
            IntervalPolicy::Adaptive { min_t: 4, max_t: 2 }
        )
        .is_err());
    }
}
