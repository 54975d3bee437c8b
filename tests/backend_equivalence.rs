//! The deterministic-backend contract, end to end: the parallel backend
//! must be **bitwise identical** to the sequential reference — for the raw
//! kernels, for whole PCG trajectories, and for full distributed resilient
//! runs — at 1, 2, and 8 threads.

use esrcg::core::pcg::{pcg_with, PcgWorkspace};
use esrcg::prelude::*;
use esrcg::sparse::backend::VECTOR_PARALLEL_CUTOFF;
use esrcg::sparse::gen::{audikw_like, banded_spd, poisson3d};
use esrcg::sparse::rng::SplitMix64;
use esrcg::sparse::{vector, DenseMatrix, FormatCache, RowSplitSet, SpmvFormat};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn backends() -> Vec<KernelBackend> {
    let mut v = vec![KernelBackend::Sequential];
    v.extend(THREAD_COUNTS.map(KernelBackend::parallel));
    v
}

#[test]
fn kernel_results_bit_identical_across_thread_counts() {
    // Sizes chosen to straddle the vector-kernel cutoff and block boundaries.
    let mut rng = SplitMix64::new(99);
    for n in [
        1000usize,
        VECTOR_PARALLEL_CUTOFF,
        3 * VECTOR_PARALLEL_CUTOFF + 17,
    ] {
        let a: Vec<f64> = (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        let b: Vec<f64> = (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect();
        let dot_ref = vector::dot(&a, &b);
        let norm_ref = vector::norm2(&a);
        for be in backends() {
            assert_eq!(
                be.dot(&a, &b).to_bits(),
                dot_ref.to_bits(),
                "dot {} n={n}",
                be.name()
            );
            assert_eq!(
                be.norm2(&a).to_bits(),
                norm_ref.to_bits(),
                "norm2 {} n={n}",
                be.name()
            );
        }
    }
}

#[test]
fn spmv_bit_identical_on_poisson_and_elasticity() {
    for (label, m) in [
        ("poisson3d", poisson3d(22, 22, 22)),     // 10_648 rows
        ("audikw-like", audikw_like(14, 14, 18)), // 10_584 rows
    ] {
        let n = m.nrows();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.113).sin()).collect();
        let reference = m.spmv(&x);
        for be in backends() {
            assert_eq!(be.spmv(&m, &x), reference, "{label} {}", be.name());
        }
    }
}

#[test]
fn pcg_trajectories_bit_identical_on_poisson() {
    let a = poisson3d(16, 16, 16); // 4096 rows
    let n = a.nrows();
    let part = Partition::balanced(n, 1);
    let precond = PrecondSpec::paper_default()
        .build(&a, &part)
        .expect("precond");
    let b: Vec<f64> = (0..n).map(|i| ((i % 13) as f64 - 6.0) / 13.0).collect();
    let mut reference = None;
    for be in backends() {
        let mut ws = PcgWorkspace::new(n);
        let res = pcg_with(
            &a,
            &b,
            &vec![0.0; n],
            precond.as_ref(),
            1e-9,
            50_000,
            be,
            &mut ws,
        );
        assert!(res.converged, "{}", be.name());
        match &reference {
            None => reference = Some(res),
            Some(r) => {
                assert_eq!(res.iterations, r.iterations, "{}", be.name());
                assert_eq!(res.x, r.x, "{}: bitwise trajectory", be.name());
                assert_eq!(res.relres.to_bits(), r.relres.to_bits(), "{}", be.name());
            }
        }
    }
}

#[test]
fn pcg_trajectories_bit_identical_on_elasticity() {
    let a = audikw_like(8, 8, 8); // 1536 rows
    let n = a.nrows();
    let part = Partition::balanced(n, 1);
    let precond = PrecondSpec::paper_default()
        .build(&a, &part)
        .expect("precond");
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.31).cos()).collect();
    let mut reference = None;
    for be in backends() {
        let mut ws = PcgWorkspace::new(n);
        let res = pcg_with(
            &a,
            &b,
            &vec![0.0; n],
            precond.as_ref(),
            1e-8,
            50_000,
            be,
            &mut ws,
        );
        assert!(res.converged, "{}", be.name());
        match &reference {
            None => reference = Some(res),
            Some(r) => {
                assert_eq!(res.iterations, r.iterations, "{}", be.name());
                assert_eq!(res.x, r.x, "{}: bitwise trajectory", be.name());
            }
        }
    }
}

#[test]
fn distributed_resilient_run_bit_identical_across_backends() {
    // A full ESRP run with a two-rank failure: the recovery path (masked
    // SpMV splits, inner distributed solve, workspace reuse) must also be
    // backend-invariant, bit for bit.
    let run = |backend: KernelBackend| {
        Experiment::builder()
            .matrix(MatrixSource::Poisson3d {
                nx: 8,
                ny: 8,
                nz: 8,
            })
            .n_ranks(5)
            .strategy(Strategy::Esrp { t: 5 })
            .phi(2)
            .failure_at(12, 1, 2)
            .backend(backend)
            .run()
            .expect("run")
    };
    let reference = run(KernelBackend::Sequential);
    assert!(reference.converged);
    for t in THREAD_COUNTS {
        let r = run(KernelBackend::parallel(t));
        assert_eq!(r.iterations, reference.iterations, "par({t})");
        assert_eq!(r.x, reference.x, "par({t}): bitwise solution");
        assert_eq!(
            r.modeled_time.to_bits(),
            reference.modeled_time.to_bits(),
            "par({t}): modeled time"
        );
        assert_eq!(r.recovery, reference.recovery, "par({t})");
    }
}

#[test]
fn imcr_run_bit_identical_across_backends() {
    let run = |backend: KernelBackend| {
        Experiment::builder()
            .matrix(MatrixSource::EmiliaLike {
                nx: 6,
                ny: 6,
                nz: 6,
            })
            .n_ranks(4)
            .strategy(Strategy::Imcr { t: 5 })
            .phi(1)
            .failure_at(11, 2, 1)
            .backend(backend)
            .run()
            .expect("run")
    };
    let reference = run(KernelBackend::Sequential);
    assert!(reference.converged);
    for t in THREAD_COUNTS {
        let r = run(KernelBackend::parallel(t));
        assert_eq!(r.x, reference.x, "par({t})");
        assert_eq!(r.iterations, reference.iterations, "par({t})");
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn block_jacobi_is_bitwise_the_per_block_cholesky() {
    // 4 096 rows over uneven ranks: one empty, one of three blocks (fewer
    // than a lane group), two with full groups, leftovers and both block
    // sizes.
    let a = poisson3d(16, 16, 16);
    let n = a.nrows();
    let part = Partition::from_offsets(vec![0, 0, 25, 1_000, n]);
    let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() - 0.2).collect();
    for max_block in [1usize, 3, 10, 16, 25] {
        let precond = PrecondSpec::BlockJacobi { max_block }
            .build(&a, &part)
            .expect("precond");
        for (_, range) in part.iter() {
            // The reference: every block factored and solved on its own.
            let mut expected = r[range.clone()].to_vec();
            if !range.is_empty() {
                let nb = range.len().div_ceil(max_block);
                let (base, extra) = (range.len() / nb, range.len() % nb);
                let mut pos = 0;
                for b in 0..nb {
                    let bl = base + usize::from(b < extra);
                    let idx: Vec<usize> = (range.start + pos..range.start + pos + bl).collect();
                    DenseMatrix::from_csr_block(&a, &idx)
                        .cholesky()
                        .expect("SPD block")
                        .solve_in_place(&mut expected[pos..pos + bl]);
                    pos += bl;
                }
            }
            let mut z = vec![f64::NAN; range.len()];
            precond.apply_local(range.clone(), &r[range.clone()], &mut z);
            assert_eq!(
                bits(&z),
                bits(&expected),
                "apply_local, max_block {max_block}, rows {range:?}"
            );
        }
    }
}

#[test]
fn split_phase_spmv_matches_the_list_oracle_across_formats_and_threads() {
    // Random sparsity inside a band: rows near a rank edge touch the
    // neighbor or not at random, so both classes fragment into many runs,
    // while the rank's middle is one run long enough to dispatch.
    let a = banded_spd(60_000, 40, 0.12, 3);
    let n = a.nrows();
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.113).sin()).collect();
    let part = Partition::balanced(n, 2);
    let splits = RowSplitSet::build(&a, &part);
    for (rank, range) in part.iter() {
        let split = splits.of(rank);
        assert!(
            split.interior().runs().len() > 2 && split.boundary().runs().len() > 2,
            "rank {rank}: the interior must not be one run"
        );
        // Oracle: the sequential index-list kernel.
        let mut expected = vec![f64::NAN; range.len()];
        a.spmv_rows_subset_into(&split.interior().to_vec(), range.start, &x, &mut expected);
        a.spmv_rows_subset_into(&split.boundary().to_vec(), range.start, &x, &mut expected);
        for be in backends() {
            let mut y = vec![f64::NAN; range.len()];
            be.spmv_row_runs_into(&a, split.interior(), range.start, &x, &mut y);
            be.spmv_row_runs_into(&a, split.boundary(), range.start, &x, &mut y);
            assert_eq!(bits(&y), bits(&expected), "csr rank {rank} {}", be.name());
        }
    }
    // The converted pieces are built from the same runs.
    for fmt in [SpmvFormat::sell(), SpmvFormat::bcsr3()] {
        let cache = FormatCache::build(&a, &part, &splits, fmt).expect("non-CSR format");
        for (rank, range) in part.iter() {
            let mut expected = vec![0.0; range.len()];
            a.spmv_rows_into(range.clone(), &x, &mut expected);
            let pieces = cache.of(rank);
            for be in backends() {
                let mut y = vec![f64::NAN; range.len()];
                be.spmv_fmt_into(&pieces.interior, &x, &mut y);
                be.spmv_fmt_into(&pieces.boundary, &x, &mut y);
                assert_eq!(
                    bits(&y),
                    bits(&expected),
                    "{} rank {rank} {}",
                    fmt.name(),
                    be.name()
                );
            }
        }
    }
}

/// A full ESRP run with a two-rank failure, pinned to the bits it produced
/// before block Jacobi moved to the packed lane-interleaved arena and the
/// row split to runs (recorded at the parent commit): the solution, the
/// iteration count and both modeled clocks must not move.
#[test]
fn esrp_failure_run_reproduces_the_recorded_bits() {
    for be in [KernelBackend::Sequential, KernelBackend::parallel(2)] {
        let r = Experiment::builder()
            .matrix(MatrixSource::Poisson3d {
                nx: 12,
                ny: 12,
                nz: 12,
            })
            .n_ranks(4)
            .strategy(Strategy::Esrp { t: 5 })
            .phi(2)
            .failure_at(12, 1, 2)
            .backend(be)
            .run()
            .expect("run");
        assert!(r.converged);
        assert_eq!(r.iterations, 40, "{}", be.name());
        assert_eq!(
            r.modeled_time.to_bits(),
            0x3f6e97afe465d62a,
            "{}",
            be.name()
        );
        assert_eq!(r.recoveries.len(), 1);
        assert_eq!(
            r.recoveries[0].recovery_time.to_bits(),
            0x3f5b2db3a38ff056,
            "{}",
            be.name()
        );
        // FNV-1a over the solution's bit patterns.
        let x_hash = r.x.iter().fold(0xcbf29ce484222325u64, |h, v| {
            (h ^ v.to_bits()).wrapping_mul(0x100000001b3)
        });
        assert_eq!(x_hash, 0xc7ae1b02529d4835, "{}", be.name());
    }
}
