//! Campaign determinism: the whole pipeline — trace compilation, fleet
//! execution, aggregation, rendering — is a pure function of the spec.
//!
//! * Same `CampaignSpec` (same seeds) ⇒ identical compiled schedules.
//! * The aggregated JSON artifact is **byte-identical** across repeated
//!   runs and across fleet worker counts {1, 4, 8} — scheduling must never
//!   leak into the report (the acceptance criterion of the campaign bin).
//! * Multi-event stochastic traces drive full recoveries through all three
//!   strategies (ESR, ESRP, IMCR) and preserve the reference trajectory.

use esrcg_campaign::{CampaignRunner, CampaignSpec, FaultProcess, ProblemSpec, TraceBudget};
use esrcg_core::driver::{Experiment, MatrixSource, RhsSpec};
use esrcg_core::solver::PcgVariant;
use esrcg_core::strategy::Strategy;
use esrcg_sparse::SpmvFormat;

fn test_spec() -> CampaignSpec {
    CampaignSpec {
        problems: vec![ProblemSpec::new(
            "poisson2d-12x12",
            MatrixSource::Poisson2d { nx: 12, ny: 12 },
            RhsSpec::FromKnownSolution,
        )],
        rank_counts: vec![4],
        variants: vec![
            PcgVariant::Classic,
            PcgVariant::Pipelined,
            PcgVariant::SStep { s: 4 },
        ],
        cost_models: vec![
            esrcg_cluster::CostModel::default(),
            esrcg_cluster::CostModel::latency_dominated(),
        ],
        formats: vec![SpmvFormat::Csr, SpmvFormat::sell()],
        strategies: vec![
            Strategy::esr(),
            Strategy::Esrp { t: 5 },
            Strategy::Imcr { t: 5 },
        ],
        policies: vec![esrcg_core::strategy::IntervalPolicy::Fixed],
        phis: vec![1],
        processes: vec![
            FaultProcess::Exponential { mtbf: 15.0 },
            FaultProcess::PaperWorstCase,
        ],
        seeds: vec![5, 6],
        rtol: 1e-8,
        max_iters: 200_000,
        max_runs: None,
    }
}

#[test]
fn same_spec_compiles_identical_schedules() {
    let budget = TraceBudget {
        iterations: 120,
        n_ranks: 6,
        phi: 2,
        interval: 5,
    };
    for p in [
        FaultProcess::Exponential { mtbf: 12.0 },
        FaultProcess::Burst {
            mtbf: 18.0,
            mean_width: 2.0,
        },
        FaultProcess::PaperWorstCase,
        FaultProcess::None,
    ] {
        for seed in [1u64, 99, 123_456_789] {
            assert_eq!(
                p.compile(seed, &budget),
                p.compile(seed, &budget),
                "{} seed {seed}",
                p.name()
            );
        }
    }
}

#[test]
fn aggregated_json_is_byte_identical_across_worker_counts() {
    let spec = test_spec();
    let reference = CampaignRunner::new(4).run(&spec).unwrap().to_json();
    assert!(reference.contains("\"schema\": \"esrcg-campaign-v7\""));
    assert!(
        reference.contains("\"variant\": \"pipelined\""),
        "pipelined cells reach the artifact"
    );
    assert!(
        reference.contains("\"variant\": \"sstep4\""),
        "s-step cells reach the artifact"
    );
    assert!(
        reference.contains("\"cost_model\": \"latency-dominated\""),
        "the cost-model axis reaches the artifact"
    );
    assert!(
        reference.contains("\"format\": \"sell-8-64\""),
        "non-CSR format cells reach the artifact"
    );
    // Repeated run, same worker count: rendering and execution are pure.
    let again = CampaignRunner::new(4).run(&spec).unwrap().to_json();
    assert_eq!(reference, again, "repeated runs");
    // Worker counts 1 and 8: scheduling must never reach the artifact.
    for workers in [1usize, 8] {
        let json = CampaignRunner::new(workers).run(&spec).unwrap().to_json();
        assert_eq!(reference, json, "{workers} workers");
    }
}

#[test]
fn multi_event_traces_recover_through_all_three_strategies() {
    let matrix = MatrixSource::Poisson2d { nx: 12, ny: 12 };
    let reference = Experiment::builder()
        .matrix(matrix.clone())
        .n_ranks(4)
        .run()
        .expect("reference");
    let c = reference.iterations;

    for (strategy, t) in [
        (Strategy::esr(), 1usize),
        (Strategy::Esrp { t: 4 }, 4),
        (Strategy::Imcr { t: 4 }, 4),
    ] {
        let budget = TraceBudget {
            iterations: c,
            n_ranks: 4,
            phi: 1,
            interval: t,
        };
        // Hunt a seed whose trace carries at least two events — mtbf well
        // under C makes that the common case; determinism makes whichever
        // seed we land on stable forever.
        let process = FaultProcess::Exponential { mtbf: 7.0 };
        let (seed, schedule) = (0u64..20)
            .map(|s| (s, process.compile(s, &budget)))
            .find(|(_, sched)| sched.len() >= 2)
            .expect("some seed yields a multi-event trace");
        let triggering = schedule.iter().filter(|e| e.at_iteration() < c).count();
        assert!(triggering >= 2, "{strategy}: seed {seed}");

        let report = Experiment::builder()
            .matrix(matrix.clone())
            .n_ranks(4)
            .strategy(strategy)
            .phi(1)
            .failures(schedule.clone())
            .run()
            .unwrap_or_else(|e| panic!("{strategy}: {e}"));
        assert!(report.converged, "{strategy}");
        assert_eq!(
            report.recoveries.len(),
            triggering,
            "{strategy}: every scheduled event below C triggered"
        );
        assert_eq!(
            report.iterations, c,
            "{strategy}: trajectory preserved through every recovery"
        );
        for (rec, event) in report.recoveries.iter().zip(&schedule) {
            assert_eq!(rec.failed_at, event.at_iteration(), "{strategy}");
        }
    }
}
