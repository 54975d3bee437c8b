//! Lifecycle contract of the persistent worker pool behind the parallel
//! backend: results must be bitwise stable across pool reuse, pool
//! teardown/rebuild, and concurrent `subdivided()` backends — the pool is a
//! pure scheduling artifact, invisible to the arithmetic. Pools are
//! thread-local and every test runs on its own thread, so the tests share
//! no state.

use esrcg::core::pcg::pcg_with;
use esrcg::prelude::*;
use esrcg::sparse::backend::VECTOR_PARALLEL_CUTOFF;
use esrcg::sparse::gen::poisson3d;
use esrcg::sparse::pool::{drop_local_pool, local_pool_threads};
use esrcg::sparse::rng::SplitMix64;
use esrcg::sparse::vector;

/// Above the backend's vector-kernel cutoff, so `dot` actually dispatches.
const N: usize = VECTOR_PARALLEL_CUTOFF + 8_928;

fn vecs(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = SplitMix64::new(seed);
    let a = (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect();
    let b = (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect();
    (a, b)
}

#[test]
fn repeated_pool_reuse_is_bitwise_stable() {
    let (a, b) = vecs(N, 1);
    let reference = vector::dot(&a, &b);
    let be = KernelBackend::parallel(4);
    // Hundreds of rounds through the same pool: every result identical to
    // the sequential reference, no drift, no corruption.
    for round in 0..300 {
        let got = be.dot(&a, &b);
        assert_eq!(got.to_bits(), reference.to_bits(), "round {round}");
    }
    let m = poisson3d(22, 22, 22);
    let x: Vec<f64> = (0..m.nrows()).map(|i| (i as f64 * 0.113).sin()).collect();
    let spmv_ref = m.spmv(&x);
    let mut y = vec![0.0; m.nrows()];
    for round in 0..50 {
        be.spmv_into(&m, &x, &mut y);
        assert_eq!(y, spmv_ref, "round {round}");
    }
}

#[test]
fn pool_drop_and_rebuild_preserves_results() {
    let (a, b) = vecs(N, 2);
    let reference = vector::dot(&a, &b);
    let be = KernelBackend::parallel(3);

    assert_eq!(be.dot(&a, &b).to_bits(), reference.to_bits());
    assert!(
        local_pool_threads() >= 3,
        "the kernel call built this thread's pool"
    );

    // Tear the pool down mid-stream; the next call transparently rebuilds.
    drop_local_pool();
    assert_eq!(local_pool_threads(), 0);
    assert_eq!(be.dot(&a, &b).to_bits(), reference.to_bits());
    assert!(local_pool_threads() >= 3);

    // Several drop/rebuild cycles: still bitwise identical.
    for _ in 0..5 {
        drop_local_pool();
        assert_eq!(be.dot(&a, &b).to_bits(), reference.to_bits());
    }
}

#[test]
fn pool_grows_for_wider_backends() {
    drop_local_pool();
    let (a, b) = vecs(N, 3);
    let reference = vector::dot(&a, &b);
    // Narrow first, then wider: the pool must grow, never shrink, and every
    // width must agree bitwise.
    for threads in [2usize, 4, 8] {
        let got = KernelBackend::parallel(threads).dot(&a, &b);
        assert_eq!(got.to_bits(), reference.to_bits(), "threads {threads}");
        assert!(local_pool_threads() >= threads);
    }
    let grown = local_pool_threads();
    // A narrower call afterwards reuses the grown pool.
    let got = KernelBackend::parallel(2).dot(&a, &b);
    assert_eq!(got.to_bits(), reference.to_bits());
    assert_eq!(local_pool_threads(), grown, "no shrink on narrower calls");
}

#[test]
fn subdivided_backends_share_no_state_across_threads() {
    // The SPMD solver hands each rank a subdivided backend, and each of
    // its worker threads builds its own pool. Run several such threads truly
    // concurrently on shared inputs and check every result is bitwise the
    // sequential reference — and that each thread saw its *own* pool.
    let parent = KernelBackend::parallel(8);
    let (a, b) = vecs(N, 4);
    let reference = vector::dot(&a, &b);
    let ranks = 4;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..ranks {
            let (a, b) = (&a, &b);
            handles.push(scope.spawn(move || {
                assert_eq!(
                    local_pool_threads(),
                    0,
                    "fresh rank thread starts with no pool"
                );
                let be = parent.subdivided(ranks);
                let mut bits = Vec::new();
                for _ in 0..50 {
                    bits.push(be.dot(a, b).to_bits());
                }
                (bits, local_pool_threads())
            }));
        }
        for h in handles {
            let (bits, pool_threads) = h.join().expect("rank thread");
            assert!(bits.iter().all(|&x| x == reference.to_bits()));
            assert_eq!(
                pool_threads,
                parent.subdivided(ranks).threads(),
                "each rank thread built a pool of its own subdivided width"
            );
        }
    });
}

#[test]
fn pcg_workspace_reuse_on_one_pool_matches_reference() {
    // The realistic composition: repeated PCG solves reusing this
    // thread's worker pool.
    let a = poisson3d(14, 14, 14);
    let n = a.nrows();
    let part = Partition::balanced(n, 1);
    let precond = PrecondSpec::paper_default()
        .build(&a, &part)
        .expect("precond");
    let b: Vec<f64> = (0..n).map(|i| ((i % 11) as f64 - 5.0) / 11.0).collect();
    let be = KernelBackend::parallel(4);
    let mut reference = None;
    for round in 0..4 {
        if round == 2 {
            // Mid-series pool teardown must be invisible.
            drop_local_pool();
        }
        let res = pcg_with(&a, &b, &vec![0.0; n], &precond, 1e-9, 50_000, be);
        assert!(res.converged, "round {round}");
        match &reference {
            None => reference = Some(res),
            Some(r) => {
                assert_eq!(res.iterations, r.iterations, "round {round}");
                assert_eq!(res.x, r.x, "round {round}: bitwise trajectory");
            }
        }
    }
}

#[test]
fn full_esrp_run_on_the_pool_matches_sequential() {
    // End to end: a distributed resilient run with a failure on pooled
    // workers must match the sequential backend bit for bit.
    let run = |backend: KernelBackend| {
        Experiment::builder()
            .matrix(MatrixSource::Poisson3d {
                nx: 7,
                ny: 7,
                nz: 7,
            })
            .n_ranks(4)
            .strategy(Strategy::Esrp { t: 5 })
            .phi(1)
            .failure_at(11, 2, 1)
            .backend(backend)
            .run()
            .expect("run")
    };
    let reference = run(KernelBackend::Sequential);
    assert!(reference.converged);
    let pooled = run(KernelBackend::parallel(4));
    assert_eq!(pooled.iterations, reference.iterations);
    assert_eq!(pooled.x, reference.x, "bitwise solution");
}
