//! Recovery drills: named, repeatable failure-recovery rehearsals held to a
//! tracked byte-exact artifact.
//!
//! Each drill is a small, fully deterministic experiment exercising one
//! recovery path end to end — fail-stop events, φ-wide bursts, failures
//! landing inside a checkpoint round, pre-recovery-point full restarts,
//! the pipelined variant, a mid-block failure of the s-step variant,
//! IMCR rollback, the adaptive interval tuner
//! under exponential and burst fault processes, a flight-recorder
//! replay that re-derives the recovery time from the recorded trace, and a
//! neighbour failing while a lone replacement still owes its background
//! inner solve.
//! Every drill emits one machine-parseable artifact line
//!
//! ```text
//! drill=<name> recovery_modeled_s=<seconds> iters_overhead=<n>
//! ```
//!
//! clocked by the deterministic modeled clock, so the lines are
//! **byte-identical** across repeated runs and across `--workers` counts.
//! The tracked `BENCH_drills.txt` is [`artifact_text`] of the whole catalog:
//! `drills --check` and `tests/drills.rs` compare against it byte for byte,
//! so a change that moves any modeled recovery number re-records the file
//! on purpose (`DRILLS.md` says how).

use esrcg_campaign::fleet::run_jobs;
use esrcg_campaign::{FaultProcess, TraceBudget};
use esrcg_cluster::{validate_trace_json, FailureSpec, InstantKind, TraceConfig, TraceEvent};
use esrcg_core::driver::{Experiment, MatrixSource, RunReport};
use esrcg_core::solver::PcgVariant;
use esrcg_core::{IntervalPolicy, Strategy};

/// The drill catalog, in the order the harness runs and reports them.
pub const DRILLS: [&str; 13] = [
    "esr-single-fail-stop",
    "esrp-phi-block-burst",
    "imcr-checkpoint-round-failure",
    "esrp-pre-recovery-point-full-restart",
    "esrp-pipelined",
    "sstep-midblock-esrp",
    "imcr-rollback",
    "exp-fixed-t",
    "exp-auto",
    "burst-fixed-t",
    "burst-auto",
    "trace-replay",
    "lone-then-neighbour",
];

/// The measured result of one drill.
#[derive(Debug, Clone, PartialEq)]
pub struct DrillOutcome {
    /// Drill name (one of [`DRILLS`]).
    pub name: &'static str,
    /// Total modeled recovery time across the drill's recoveries (s).
    pub recovery_modeled_s: f64,
    /// Loop trips beyond the logical iteration count — the re-executed
    /// work the failures cost.
    pub iters_overhead: usize,
    /// Recoveries the drill drove.
    pub recoveries: usize,
    /// Recoveries that had no rollback point and restarted from x⁰.
    pub full_restarts: usize,
}

impl DrillOutcome {
    /// The tracked artifact line (deterministic bytes).
    pub(crate) fn artifact_line(&self) -> String {
        format!(
            "drill={} recovery_modeled_s={:.9} iters_overhead={}",
            self.name, self.recovery_modeled_s, self.iters_overhead
        )
    }
}

/// The artifact lines of `outcomes`, one per line — what `drills` prints
/// and `BENCH_drills.txt` tracks.
pub fn artifact_text(outcomes: &[DrillOutcome]) -> String {
    outcomes.iter().map(|o| o.artifact_line() + "\n").collect()
}

/// All drills share one small Poisson problem on 4 ranks: large enough
/// that every fixed failure placement below iteration 30 triggers, small
/// enough that the whole catalog runs in well under a second.
fn matrix() -> MatrixSource {
    MatrixSource::Poisson2d { nx: 24, ny: 24 }
}

fn base(strategy: Strategy, phi: usize) -> Experiment {
    Experiment::builder()
        .matrix(matrix())
        .n_ranks(4)
        .strategy(strategy)
        .phi(phi)
}

fn outcome(name: &'static str, report: &RunReport) -> Result<DrillOutcome, String> {
    if !report.converged {
        return Err(format!("drill {name}: run did not converge"));
    }
    Ok(DrillOutcome {
        name,
        recovery_modeled_s: report.recovery_seconds(),
        iters_overhead: report.total_loop_trips.saturating_sub(report.iterations),
        recoveries: report.recoveries.len(),
        full_restarts: report.recoveries.iter().filter(|r| r.full_restart).count(),
    })
}

/// The adaptive drills' policy. *All* stochastic drills budget their
/// traces against its largest interval, so the fixed and auto cells of a
/// pair replay the **same** failure schedule.
const AUTO: IntervalPolicy = IntervalPolicy::Adaptive { min_t: 2, max_t: 8 };

/// ESRP(T = 6) under `policy` against a fault trace compiled from
/// `process`.
fn stochastic(
    name: &'static str,
    process: FaultProcess,
    seed: u64,
    phi: usize,
    policy: IntervalPolicy,
) -> Result<DrillOutcome, String> {
    let reference = Experiment::builder().matrix(matrix()).n_ranks(4).run()?;
    let schedule = process.compile(
        seed,
        &TraceBudget {
            iterations: reference.iterations,
            n_ranks: 4,
            phi,
            interval: AUTO.max_interval(6),
        },
    );
    if schedule.is_empty() {
        return Err(format!("drill {name}: trace compiled empty"));
    }
    let report = base(Strategy::Esrp { t: 6 }, phi)
        .interval_policy(policy)
        .failures(schedule)
        .run()?;
    outcome(name, &report)
}

/// Runs one drill by name.
///
/// # Errors
/// Unknown names, configuration errors, and non-converging runs.
pub fn run_drill(name: &str) -> Result<DrillOutcome, String> {
    match name {
        // One fail-stop node under classic ESR: the bread-and-butter
        // single-failure recovery of the paper.
        "esr-single-fail-stop" => {
            let report = base(Strategy::esr(), 1).failure_at(17, 0, 1).run()?;
            outcome("esr-single-fail-stop", &report)
        }
        // A φ-wide contiguous block (the paper's switch-fault scenario)
        // under ESRP: recovery reconstructs two ranks at once.
        "esrp-phi-block-burst" => {
            let report = base(Strategy::Esrp { t: 5 }, 2)
                .failure_at(18, 1, 2)
                .run()?;
            outcome("esrp-phi-block-burst", &report)
        }
        // The failure lands exactly on an IMCR checkpoint iteration: the
        // round in flight must not be counted on, and recovery rolls back
        // to the previous completed checkpoint.
        "imcr-checkpoint-round-failure" => {
            let report = base(Strategy::Imcr { t: 6 }, 1)
                .failure_at(18, 2, 1)
                .run()?;
            outcome("imcr-checkpoint-round-failure", &report)
        }
        // The failure precedes the first completed storage stage, so there
        // is no recovery point at all: the solver restarts from x⁰.
        "esrp-pre-recovery-point-full-restart" => {
            let report = base(Strategy::Esrp { t: 10 }, 1)
                .failure_at(3, 0, 1)
                .run()?;
            outcome("esrp-pre-recovery-point-full-restart", &report)
        }
        // The same ESRP recovery driven through the pipelined PCG variant.
        "esrp-pipelined" => {
            let report = base(Strategy::Esrp { t: 5 }, 1)
                .variant(PcgVariant::Pipelined)
                .failure_at(21, 0, 1)
                .run()?;
            outcome("esrp-pipelined", &report)
        }
        // A failure landing *inside* an s-step block (iteration 21, block
        // 20..24 for s = 4): recovery rolls back to the protected block
        // start and the solver resumes at the enclosing outer step.
        "sstep-midblock-esrp" => {
            let report = base(Strategy::Esrp { t: 5 }, 1)
                .variant(PcgVariant::SStep { s: 4 })
                .failure_at(21, 0, 1)
                .run()?;
            outcome("sstep-midblock-esrp", &report)
        }
        // IMCR buddy-checkpoint rollback mid-interval.
        "imcr-rollback" => {
            let report = base(Strategy::Imcr { t: 5 }, 1)
                .failure_at(23, 1, 1)
                .run()?;
            outcome("imcr-rollback", &report)
        }
        // Fixed-T vs auto-tuned ESRP under the same exponential fault
        // trace: the pair that shows what the tuner buys (or costs).
        "exp-fixed-t" => stochastic(
            "exp-fixed-t",
            FaultProcess::Exponential { mtbf: 10.0 },
            9,
            1,
            IntervalPolicy::Fixed,
        ),
        "exp-auto" => stochastic(
            "exp-auto",
            FaultProcess::Exponential { mtbf: 10.0 },
            9,
            1,
            AUTO,
        ),
        // The same pair under correlated φ-wide bursts.
        "burst-fixed-t" => stochastic(
            "burst-fixed-t",
            FaultProcess::Burst {
                mtbf: 12.0,
                mean_width: 2.0,
            },
            9,
            2,
            IntervalPolicy::Fixed,
        ),
        "burst-auto" => stochastic(
            "burst-auto",
            FaultProcess::Burst {
                mtbf: 12.0,
                mean_width: 2.0,
            },
            9,
            2,
            AUTO,
        ),
        // Flight-recorder replay: the mid-block s-step failure re-run with
        // the recorder at Full. The drill passes only when the trace is
        // phase-covered, recovery-attributed, structurally valid Perfetto
        // JSON, and its recovery spans reproduce the artifact line's
        // recovery_modeled_s bit for bit.
        "trace-replay" => {
            let report = trace_replay_run()?;
            let o = outcome("trace-replay", &report)?;
            let trace = report
                .trace
                .as_ref()
                .ok_or("trace-replay: no trace recorded")?;
            trace.validate().map_err(|e| format!("trace-replay: {e}"))?;
            trace
                .validate_recovery_attribution()
                .map_err(|e| format!("trace-replay: {e}"))?;
            validate_trace_json(&trace.to_perfetto_json())
                .map_err(|e| format!("trace-replay: {e}"))?;
            let replayed = trace.recovery_seconds();
            if replayed.to_bits() != o.recovery_modeled_s.to_bits() {
                return Err(format!(
                    "trace-replay: trace recovery spans ({replayed:.12}) do not \
                     reproduce the artifact's recovery_modeled_s ({:.12})",
                    o.recovery_modeled_s
                ));
            }
            Ok(o)
        }
        // Rank 1 fails alone under ESR and solves for its `x` in the
        // background of its later receive waits; one iteration later its
        // halo peer rank 2 fails, whose gather reads rank 1's `x`. The drill
        // passes only when rank 1 still owed part of the solve then, so
        // that the debt is settled as a span of the first event before the
        // second one's trigger.
        "lone-then-neighbour" => {
            let report = base(Strategy::esr(), 1)
                .failures(vec![
                    FailureSpec::contiguous(17, 1, 1, 4),
                    FailureSpec::contiguous(18, 2, 1, 4),
                ])
                .trace(TraceConfig::Spans)
                .run()?;
            let trace = report
                .trace
                .as_ref()
                .ok_or("lone-then-neighbour: no trace recorded")?;
            let mut first_episode = trace.ranks[1]
                .events
                .iter()
                .skip_while(|ev| !is_trigger(ev));
            first_episode.next();
            let spans = first_episode
                .take_while(|ev| !is_trigger(ev))
                .filter(|ev| matches!(ev, TraceEvent::RecoverySpan { .. }))
                .count();
            if spans != 2 {
                return Err(format!(
                    "lone-then-neighbour: rank 1 records {spans} recovery spans \
                     before the second failure, not its own and the settled debt"
                ));
            }
            outcome("lone-then-neighbour", &report)
        }
        other => Err(format!("unknown drill '{other}'")),
    }
}

fn is_trigger(ev: &TraceEvent) -> bool {
    matches!(
        ev,
        TraceEvent::Instant {
            kind: InstantKind::FailureTrigger,
            ..
        }
    )
}

/// The trace-replay drill's experiment: the `sstep-midblock-esrp` scenario
/// with the flight recorder at [`TraceConfig::Full`].
fn trace_replay_run() -> Result<RunReport, String> {
    base(Strategy::Esrp { t: 5 }, 1)
        .variant(PcgVariant::SStep { s: 4 })
        .failure_at(21, 0, 1)
        .trace(TraceConfig::Full)
        .run()
}

/// Runs the trace-replay experiment and returns its Chrome/Perfetto trace
/// document — the payload behind `drills --trace-out`. Pure modeled clock,
/// so the bytes are identical across hosts and worker counts.
///
/// # Errors
/// Configuration errors and non-converging runs.
pub fn trace_replay_perfetto() -> Result<String, String> {
    let report = trace_replay_run()?;
    let trace = report
        .trace
        .as_ref()
        .ok_or("trace-replay: no trace recorded")?;
    let json = trace.to_perfetto_json();
    validate_trace_json(&json).map_err(|e| format!("trace-replay: {e}"))?;
    Ok(json)
}

/// Runs the whole catalog on `workers` threads. Results come back in
/// catalog order whatever the scheduling, so the artifact lines are
/// byte-identical across worker counts.
///
/// # Errors
/// The first drill error, prefixed with the drill name.
pub fn run_all(workers: usize) -> Result<Vec<DrillOutcome>, String> {
    let results = run_jobs(
        workers,
        DRILLS.to_vec(),
        |_, name| run_drill(name),
        |_, _| {},
    );
    results
        .into_iter()
        .zip(DRILLS)
        .map(|(r, name)| r.unwrap_or_else(|panic| Err(format!("drill {name}: {panic}"))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failure_free_outcome_renders_a_positive_zero() {
        let report = base(Strategy::Esrp { t: 5 }, 1).run().expect("runs");
        assert!(report.recoveries.is_empty());
        let line = outcome("failure-free", &report).unwrap().artifact_line();
        assert_eq!(
            line,
            "drill=failure-free recovery_modeled_s=0.000000000 iters_overhead=0"
        );
    }
}
