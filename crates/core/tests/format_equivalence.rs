//! Storage-format equivalence: SELL-C-σ and BCSR solves are **bitwise
//! identical** to CSR — same iterates, same iteration count, same modeled
//! clock — across thread counts, rank counts, and through ESRP/IMCR
//! failure recoveries.
//!
//! This is the contract that makes the format axis safe to flip anywhere:
//! every converted structure replays each row as one sequential
//! ascending-column accumulation, padding is never read, and flops are
//! charged from the CSR structure, so the format cannot perturb a single
//! bit of the trajectory or the modeled time.

use esrcg_core::driver::{Experiment, MatrixSource, RhsSpec};
use esrcg_core::{RunReport, Strategy};
use esrcg_sparse::{KernelBackend, SpmvFormat};

const THREADS: [usize; 3] = [1, 2, 8];
const RANKS: [usize; 3] = [1, 2, 4];

fn formats() -> [SpmvFormat; 2] {
    [SpmvFormat::sell(), SpmvFormat::bcsr3()]
}

fn matrices() -> [(&'static str, MatrixSource); 2] {
    [
        ("poisson2d", MatrixSource::Poisson2d { nx: 16, ny: 16 }),
        (
            // 3-DOF elasticity: the matrix BCSR 3×3 tiles exactly.
            "elasticity",
            MatrixSource::AudikwLike {
                nx: 4,
                ny: 4,
                nz: 4,
            },
        ),
    ]
}

fn run(
    matrix: &MatrixSource,
    n_ranks: usize,
    threads: usize,
    format: SpmvFormat,
    strategy: Option<(Strategy, usize)>,
) -> RunReport {
    let mut b = Experiment::builder()
        .matrix(matrix.clone())
        .rhs(RhsSpec::Random { seed: 42 })
        .n_ranks(n_ranks)
        .backend(KernelBackend::parallel(threads))
        .spmv_format(format);
    if let Some((strategy, fail_at)) = strategy {
        b = b.strategy(strategy).phi(1).failure_at(fail_at, 0, 1);
    }
    b.run().expect("experiment runs")
}

fn assert_bitwise(reference: &RunReport, report: &RunReport, what: &str) {
    assert!(report.converged, "{what}: converged");
    assert_eq!(
        report.iterations, reference.iterations,
        "{what}: iteration count"
    );
    assert_eq!(report.x, reference.x, "{what}: iterates must match bitwise");
    assert_eq!(
        report.modeled_time.to_bits(),
        reference.modeled_time.to_bits(),
        "{what}: flops are charged from the CSR structure, so the modeled \
         clock is format-invariant"
    );
}

/// Failure-free solves: every format × thread count × rank count produces
/// the reference CSR trajectory bit for bit.
#[test]
fn formats_match_csr_bitwise_across_threads_and_ranks() {
    for (name, matrix) in matrices() {
        for &n_ranks in &RANKS {
            let reference = run(&matrix, n_ranks, 1, SpmvFormat::Csr, None);
            assert!(reference.converged, "{name}: reference converged");
            for format in formats() {
                for &threads in &THREADS {
                    let report = run(&matrix, n_ranks, threads, format, None);
                    let what = format!("{name} @ {n_ranks}r/{threads}t/{}", format.name());
                    assert_bitwise(&reference, &report, &what);
                }
            }
        }
    }
}

/// Recovery paths: a mid-solve rank failure recovered via ESRP and IMCR
/// (both exercise the `DomainCache` masked products and the inner solver's
/// split-phase interior/boundary pieces) stays bitwise-identical across
/// formats and thread counts.
#[test]
fn formats_match_csr_bitwise_through_recoveries() {
    let (_, matrix) = matrices()[0].clone();
    let probe = run(&matrix, 4, 1, SpmvFormat::Csr, None);
    let c = probe.iterations;
    for (strategy, label) in [
        (Strategy::Esrp { t: 5 }, "ESRP(5)"),
        (Strategy::Imcr { t: 5 }, "IMCR(5)"),
    ] {
        let reference = run(&matrix, 4, 1, SpmvFormat::Csr, Some((strategy, c / 2)));
        assert!(reference.converged, "{label}: reference converged");
        let rec = reference.recoveries.first().expect("failure processed");
        assert_eq!(rec.failed_at, c / 2, "{label}");
        assert!(!rec.full_restart, "{label}: a recovery point existed");
        for format in formats() {
            for &threads in &THREADS {
                let report = run(&matrix, 4, threads, format, Some((strategy, c / 2)));
                let what = format!("{label} @ 4r/{threads}t/{}", format.name());
                assert_bitwise(&reference, &report, &what);
                let rec = report.recoveries.first().expect("failure processed");
                assert_eq!(rec.failed_at, c / 2, "{what}");
                assert!(!rec.full_restart, "{what}");
            }
        }
    }
}
