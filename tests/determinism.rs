//! Determinism guarantees: the simulated cluster must produce bitwise
//! reproducible results and modeled times regardless of thread scheduling,
//! and the distributed solver must agree with the sequential reference.

use esrcg::core::aspmv::AspmvPlan;
use esrcg::core::dist::plan::CommPlan;
use esrcg::core::pcg::pcg;
use esrcg::prelude::*;
use esrcg::sparse::vector::max_abs_diff;

fn matrix() -> MatrixSource {
    MatrixSource::AudikwLike {
        nx: 4,
        ny: 4,
        nz: 8,
    }
}

#[test]
fn repeated_runs_are_bitwise_identical() {
    let run = || {
        Experiment::builder()
            .matrix(matrix())
            .n_ranks(5)
            .strategy(Strategy::Esrp { t: 5 })
            .phi(2)
            .failure_at(12, 1, 2)
            .run()
            .expect("run")
    };
    let a = run();
    let b = run();
    assert_eq!(a.x, b.x, "solutions bitwise identical");
    assert_eq!(
        a.modeled_time.to_bits(),
        b.modeled_time.to_bits(),
        "modeled time bitwise identical"
    );
    assert_eq!(a.iterations, b.iterations);
    assert_eq!(a.recoveries, b.recoveries);
    assert_eq!(a.residual_drift.to_bits(), b.residual_drift.to_bits());
}

#[test]
fn distributed_solution_matches_sequential_pcg() {
    let m = matrix().build().expect("matrix");
    let n = m.nrows();
    let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.137).sin() + 0.5).collect();
    let b = m.spmv(&x_true);
    let part = Partition::balanced(n, 1);
    let precond = PrecondSpec::paper_default()
        .build(&m, &part)
        .expect("precond");
    let seq = pcg(&m, &b, &vec![0.0; n], &precond, 1e-8, 100_000);
    assert!(seq.converged);

    // With a single rank the distributed solver must match bitwise; with
    // more ranks the block Jacobi blocks change (node-local blocks), so the
    // trajectory differs but the solution agrees to solver tolerance.
    let dist1 = Experiment::builder()
        .matrix(matrix())
        .n_ranks(1)
        .run()
        .expect("single-rank run");
    assert_eq!(dist1.iterations, seq.iterations);
    assert_eq!(
        dist1.x, seq.x,
        "single rank is bitwise the sequential solver"
    );

    for n_ranks in [2usize, 3, 7] {
        let dist = Experiment::builder()
            .matrix(matrix())
            .n_ranks(n_ranks)
            .run()
            .expect("multi-rank run");
        assert!(dist.converged, "{n_ranks} ranks");
        assert!(
            max_abs_diff(&dist.x, &x_true) < 1e-5,
            "{n_ranks} ranks: solution error {}",
            max_abs_diff(&dist.x, &x_true)
        );
    }
}

#[test]
fn modeled_time_ordering_is_stable() {
    // The qualitative cost ordering must be deterministic and sensible:
    // reference < ESRP(T=20) < ESR, all failure-free.
    let run = |strategy: Strategy, phi: usize| {
        Experiment::builder()
            .matrix(matrix())
            .n_ranks(5)
            .strategy(strategy)
            .phi(phi)
            .run()
            .expect("run")
            .modeled_time
    };
    let t_ref = run(Strategy::None, 0);
    let t_esrp = run(Strategy::Esrp { t: 20 }, 2);
    let t_esr = run(Strategy::esr(), 2);
    assert!(t_ref < t_esrp, "{t_ref} < {t_esrp}");
    assert!(t_esrp < t_esr, "{t_esrp} < {t_esr}");
}

#[test]
fn phase_accounting_is_consistent() {
    let report = Experiment::builder()
        .matrix(matrix())
        .n_ranks(4)
        .strategy(Strategy::Esrp { t: 5 })
        .phi(1)
        .failure_at(12, 0, 1)
        .run()
        .expect("run");
    // Per-rank modeled time sums over phases equal the final clock
    // (every clock advance is attributed to exactly one phase), and the
    // maximum equals the reported modeled time.
    let max_total = report
        .per_rank_stats
        .iter()
        .map(|s| s.total_time())
        .fold(0.0f64, f64::max);
    assert!((max_total - report.modeled_time).abs() <= 1e-12 * report.modeled_time.max(1.0));
    // The failure run must have spent time in recovery phases.
    let recovery = [
        Phase::RecoveryGather,
        Phase::RecoveryInner,
        Phase::RecoveryReset,
    ];
    let recovery_time: f64 = report
        .per_rank_stats
        .iter()
        .flat_map(|s| recovery.map(|p| s.phase_time(p)))
        .sum();
    assert!(recovery_time > 0.0);
    // Flops were charged in the main phases.
    let total = report.stats_total;
    assert!(total.flops[Phase::SpMV as usize] > 0);
    assert!(total.flops[Phase::Precond as usize] > 0);
    assert!(total.msgs_sent[Phase::Reduction as usize] > 0);
}

#[test]
fn the_redundant_copies_cost_exactly_their_bytes_on_the_wire() {
    // Failure-free ESR against the reference, same SpMVs: every one of the
    // C augmented iterations ships the plan's extra entries as 8-byte
    // values — inside the halo messages wherever the designated destination
    // is a halo peer, so only the stand-alone top-ups add messages, and
    // those are what `Phase::Storage` counts.
    let (n_ranks, phi) = (5, 2);
    let run = |strategy: Strategy, phi: usize| {
        Experiment::builder()
            .matrix(matrix())
            .n_ranks(n_ranks)
            .strategy(strategy)
            .phi(phi)
            .run()
            .expect("run")
    };
    let (plain, esrp, esr) = (
        run(Strategy::None, 0),
        run(Strategy::Esrp { t: 20 }, phi),
        run(Strategy::esr(), phi),
    );
    let a = matrix().build().expect("matrix");
    let part = Partition::balanced(a.nrows(), n_ranks);
    let plan = CommPlan::build(&a, &part);
    let aspmv = AspmvPlan::build(&plan, &part, phi);
    let stand_alone: Vec<usize> = (0..n_ranks)
        .flat_map(|s| {
            aspmv
                .extras_of(s)
                .iter()
                .map(move |(d, rc)| (s, *d, rc.len()))
        })
        .filter(|&(s, d, _)| plan.indices_to(s, d).is_empty() && plan.indices_to(d, s).is_empty())
        .map(|(_, _, entries)| entries)
        .collect();
    assert!(!stand_alone.is_empty() && stand_alone.len() < n_ranks * phi);

    let c = esr.iterations as u64;
    assert_eq!(plain.iterations as u64, c);
    let (t_plain, t_esr) = (&plain.stats_total, &esr.stats_total);
    assert_eq!(
        t_esr.total_bytes() - t_plain.total_bytes(),
        8 * aspmv.total_extra_traffic() as u64 * c
    );
    assert_eq!(
        t_esr.total_msgs() - t_plain.total_msgs(),
        stand_alone.len() as u64 * c
    );
    let storage = Phase::Storage as usize;
    assert_eq!(t_esr.msgs_sent[storage], stand_alone.len() as u64 * c);
    assert_eq!(
        t_esr.bytes_sent[storage],
        8 * stand_alone.iter().sum::<usize>() as u64 * c
    );
    assert_eq!(t_plain.msgs_sent[storage], 0);
    // Hidden under the interior rows or not, it never comes for free in
    // the other direction.
    assert!(plain.modeled_time <= esrp.modeled_time);
    assert!(esrp.modeled_time <= esr.modeled_time);
}

#[test]
fn iteration_count_is_rank_count_invariant_for_jacobi() {
    // With point Jacobi (blocks of one row, so none depends on the
    // ranks), the preconditioned operator is identical for every
    // partition, and the deterministic reductions make even the iteration
    // count invariant.
    let runs: Vec<RunReport> = [1usize, 2, 4, 8]
        .iter()
        .map(|&r| {
            Experiment::builder()
                .matrix(matrix())
                .precond(PrecondSpec { max_block: 1 })
                .n_ranks(r)
                .run()
                .expect("run")
        })
        .collect();
    for r in &runs[1..] {
        assert!(r.converged);
        assert_eq!(r.iterations, runs[0].iterations);
        assert!(max_abs_diff(&r.x, &runs[0].x) < 1e-9);
    }
}
