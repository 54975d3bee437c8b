//! The deterministic-backend contract, end to end: the parallel backend
//! must be **bitwise identical** to the sequential reference — for the raw
//! kernels, for whole PCG trajectories, and for full distributed resilient
//! runs — at 1, 2, and 8 threads.

use esrcg::core::pcg::pcg_with;
use esrcg::core::IntervalPolicy;
use esrcg::precond::BlockJacobiPrecond;
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
        for be in backends() {
            assert_eq!(
                be.dot(&a, &b).to_bits(),
                dot_ref.to_bits(),
                "dot {} n={n}",
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
            let mut y = vec![0.0; n];
            be.spmv_into(&m, &x, &mut y);
            assert_eq!(y, reference, "{label} {}", be.name());
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
        let res = pcg_with(&a, &b, &vec![0.0; n], &precond, 1e-9, 50_000, be);
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
        let res = pcg_with(&a, &b, &vec![0.0; n], &precond, 1e-8, 50_000, be);
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
        assert_eq!(r.recoveries, reference.recoveries, "par({t})");
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
        let precond = PrecondSpec { max_block }.build(&a, &part).expect("precond");
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
fn block_jacobi_over_a_rank_is_bitwise_that_of_its_principal_submatrix() {
    // The inner solve of a reconstruction preconditions `A[own, own]` with
    // the problem's block Jacobi over `own`. That is sound because a rank's
    // blocks depend on its own rows alone: factoring the principal
    // submatrix on its own gives the same blocks and the same bits. Same
    // uneven ranks as above: one empty, both block sizes.
    let a = poisson3d(16, 16, 16);
    let n = a.nrows();
    let part = Partition::from_offsets(vec![0, 0, 25, 1_000, n]);
    let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() - 0.2).collect();
    for max_block in [1usize, 3, 10, 16] {
        let full = BlockJacobiPrecond::new(&a, &part, max_block).expect("SPD blocks");
        for (rank, own) in part.iter() {
            let nloc = own.len();
            let idx: Vec<usize> = own.clone().collect();
            let a_own = a.principal_submatrix(&idx);
            let local = BlockJacobiPrecond::new(&a_own, &Partition::balanced(nloc, 1), max_block)
                .expect("SPD blocks");
            let mut z_local = vec![f64::NAN; nloc];
            local.apply_local(0..nloc, &r[own.clone()], &mut z_local);
            let mut z_full = vec![f64::NAN; nloc];
            full.apply_local(own.clone(), &r[own.clone()], &mut z_full);
            let what = format!("max_block {max_block}, rank {rank}");
            assert_eq!(bits(&z_local), bits(&z_full), "{what}");
            assert_eq!(local.apply_flops(0..nloc), full.apply_flops(own), "{what}");
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

/// One row of the recorded-bits table: a failing run and everything it
/// must reproduce bit for bit.
struct PinnedRun {
    name: &'static str,
    variant: PcgVariant,
    /// The strategy and its interval policy.
    strategy: (Strategy, IntervalPolicy),
    phi: usize,
    /// `(at_iteration, start_rank, count)` per failure event.
    failures: &'static [(usize, usize, usize)],
    iterations: usize,
    total_loop_trips: usize,
    modeled_bits: u64,
    /// `(failed_at, resumed_at, recovery_time.to_bits())` per event.
    recoveries: &'static [(usize, usize, u64)],
    /// The tuner's `interval_after` per event (empty under `Fixed`).
    intervals_after: &'static [usize],
    /// FNV-1a over the solution's bit patterns.
    x_hash: u64,
}

/// Failing runs of all three recurrences under ESR, ESRP and IMCR — one
/// mid-run failure each, plus a mid-block s-step failure, failures before
/// the first storage stage (full restart) and two-event runs under the
/// adaptive interval policy — pinned to the bits they produced when the
/// solver still carried one hand-written resilient loop per recurrence
/// (recorded at the parent commit of the one-loop refactor; the first row
/// is older: it was recorded before block Jacobi moved to the packed
/// arena). Modeled clocks and recovery costs have been re-recorded on
/// purpose since — when the ASpMV's copies began riding the halo, and when
/// the inner solve's reductions became a subgroup all-gather and the
/// recovery barriers a dissemination barrier — each time with every other
/// field asserted unchanged and every clock lower. The inner solve's
/// single-reduction recurrence re-recorded the ESR/ESRP reconstruction rows
/// once more: their `x_hash` moved (the inner solve rounds differently and
/// nothing else reads `x`), ψ = 2 recoveries 15–16 % cheaper, ψ = 1
/// recoveries 4.3–4.7 % dearer, every count, resume point and tuner
/// decision unchanged, every IMCR and full-restart row untouched. The
/// one-round recovery protocol (one gather message per survivor and
/// replacement, `r·z` restored instead of re-reduced, no exit barrier)
/// re-recorded every row: every modeled clock lower, every recovery cost
/// lower or (full restarts, pipelined IMCR) unchanged, every iteration
/// count, loop trip and resume point unchanged. The classic and pipelined
/// IMCR solutions kept their bits, the s-step IMCR rows now return the
/// failure-free solution (0x182d…, as the full restarts do), and the s-step
/// ESR/ESRP rows and the classic ESRP two-event row moved their `x_hash`
/// (`r·z` is now the undisturbed run's value). The s-step ESRP two-event
/// row's second tuner decision moved 1 → 5: survivors now wait for the
/// replacement in the first protection round after a recovery, where the
/// exit barrier used to absorb that wait, and the tuner measures the
/// round's cost. The inner solve's default stopping rule becoming
/// `InnerTolerance::OfOuter`, η = 0.01 (it stopped at 1e-14 · ‖w‖),
/// re-recorded the twelve ESR/ESRP reconstruction rows once more: their
/// `x_hash` moved (the inner error stays in `x`), every recovery 22–27 %
/// cheaper, every modeled clock 3.5–9.7 % lower, every count, resume point
/// and tuner decision unchanged, every IMCR and full-restart row untouched.
/// Deferring a ψ ≥ 2 event's `x` to one solve at the end
/// (`RecoveryRule::Extended`) re-recorded the four ψ = 2 ESRP rows: their
/// `x_hash` moved, every modeled clock 0.21–0.27 % (≈ 6 µs) higher, every
/// recovery (the event plus the end solve) 0.47–0.75 % dearer, every count
/// and resume point unchanged; every ψ = 1, IMCR, full-restart and
/// two-event row untouched. Replaying the logged reductions in a rollback's
/// redo (`RecoveryRule::Extended`) re-recorded the thirteen ESRP/IMCR rows
/// with a non-empty redo window: every modeled clock 0.44–5.12 % lower,
/// every recovery cost unchanged or up to 0.8 µs dearer (the logged values
/// ride the root's or the buddy's message), every iteration count, loop
/// trip and resume point unchanged, every IMCR `x_hash` unchanged; the
/// pipelined ESRP two-event row's second tuner decision moved 1 → 3 (its
/// first redo no longer reduces, so the tuner's measured time per trip
/// fell); every ESR and full-restart row untouched. Running the end solve
/// of a multi-rank component as pipelined PCG at one message round per
/// inner iteration re-recorded the same four ψ = 2 ESRP rows: their
/// `x_hash` moved, every modeled clock 3.3–4.1 % (93 µs) lower, every
/// recovery 10.7–11.3 % cheaper, every count, resume point and tuner
/// decision unchanged; every other row untouched. Running a lone
/// replacement's inner solve in the background of its later receive waits
/// (`Ctx::background`, `RecoveryRule::Extended`) re-recorded the eight
/// ψ = 1 ESR/ESRP rows that solve at once: every modeled clock 8.1–24.8 %
/// lower, every recovery 28–94 % cheaper, `x_hash`, every count and resume
/// point unchanged; the s-step ESRP two-event row's second tuner decision
/// moved 5 → 3; every IMCR, full-restart and ψ = 2 row untouched.
/// The
/// solution, both iteration counts, the modeled clock, every recovery's
/// resume point and modeled cost and the tuner's decisions must not move.
/// A mismatch prints the observed row in table syntax.
#[test]
fn failure_runs_reproduce_the_recorded_bits() {
    const SSTEP4: PcgVariant = PcgVariant::SStep { s: 4 };
    const AUTO: IntervalPolicy = IntervalPolicy::Adaptive {
        min_t: 1,
        max_t: 40,
    };
    let esr = (Strategy::esr(), IntervalPolicy::Fixed);
    let esrp = (Strategy::Esrp { t: 5 }, IntervalPolicy::Fixed);
    let imcr = (Strategy::Imcr { t: 5 }, IntervalPolicy::Fixed);
    let table = [
        PinnedRun {
            name: "classic esr mid-run",
            variant: PcgVariant::Classic,
            strategy: esr,
            phi: 1,
            failures: &[(12, 1, 1)],
            iterations: 40,
            total_loop_trips: 41,
            modeled_bits: 0x3f5f7e1d6b5a63d8,
            recoveries: &[(12, 12, 0x3ef619a86b213f20)],
            intervals_after: &[],
            x_hash: 0xb5cdc8242e20ad44,
        },
        PinnedRun {
            name: "pipelined esr mid-run",
            variant: PcgVariant::Pipelined,
            strategy: esr,
            phi: 1,
            failures: &[(12, 1, 1)],
            iterations: 40,
            total_loop_trips: 41,
            modeled_bits: 0x3f5a1b6c908ea5dd,
            recoveries: &[(12, 12, 0x3f115eb7243fb6e0)],
            intervals_after: &[],
            x_hash: 0x91969a3185b4ad5b,
        },
        PinnedRun {
            name: "sstep4 esr mid-run",
            variant: SSTEP4,
            strategy: esr,
            phi: 1,
            failures: &[(12, 1, 1)],
            iterations: 40,
            total_loop_trips: 40,
            modeled_bits: 0x3f609bb40520a653,
            recoveries: &[(12, 12, 0x3f24ab12c377ca08)],
            intervals_after: &[],
            x_hash: 0xace594c6b3cc6fed,
        },
        PinnedRun {
            name: "classic esrp5 mid-run",
            variant: PcgVariant::Classic,
            strategy: esrp,
            phi: 2,
            failures: &[(12, 1, 2)],
            iterations: 40,
            total_loop_trips: 42,
            modeled_bits: 0x3f65843ef3ce213c,
            recoveries: &[(12, 11, 0x3f4795b9dc248384)],
            intervals_after: &[],
            x_hash: 0xa48ee4dd53fe695e,
        },
        PinnedRun {
            name: "pipelined esrp5 mid-run",
            variant: PcgVariant::Pipelined,
            strategy: esrp,
            phi: 2,
            failures: &[(12, 1, 2)],
            iterations: 40,
            total_loop_trips: 42,
            modeled_bits: 0x3f61bfddd97a8df6,
            recoveries: &[(12, 11, 0x3f48ff0a1b478cde)],
            intervals_after: &[],
            x_hash: 0x3f6b45421d8645cf,
        },
        PinnedRun {
            name: "sstep4 esrp5 mid-run",
            variant: SSTEP4,
            strategy: esrp,
            phi: 2,
            failures: &[(12, 1, 2)],
            iterations: 40,
            total_loop_trips: 44,
            modeled_bits: 0x3f666af8b5bf1cd4,
            recoveries: &[(12, 8, 0x3f47a2e9dc248374)],
            intervals_after: &[],
            x_hash: 0x021aefb2b7a3b7af,
        },
        PinnedRun {
            name: "classic imcr5 mid-run",
            variant: PcgVariant::Classic,
            strategy: imcr,
            phi: 1,
            failures: &[(12, 1, 1)],
            iterations: 40,
            total_loop_trips: 43,
            modeled_bits: 0x3f60c88e24b2e7ed,
            recoveries: &[(12, 10, 0x3ef9238705ee2c00)],
            intervals_after: &[],
            x_hash: 0xec525586400599f5,
        },
        PinnedRun {
            name: "pipelined imcr5 mid-run",
            variant: PcgVariant::Pipelined,
            strategy: imcr,
            phi: 1,
            failures: &[(12, 1, 1)],
            iterations: 40,
            total_loop_trips: 43,
            modeled_bits: 0x3f59bcd6f64b87da,
            recoveries: &[(12, 10, 0x3f03d59cdc443910)],
            intervals_after: &[],
            x_hash: 0x39c5c71d248ffa5f,
        },
        PinnedRun {
            name: "sstep4 imcr5 mid-run",
            variant: SSTEP4,
            strategy: imcr,
            phi: 1,
            failures: &[(12, 1, 1)],
            iterations: 40,
            total_loop_trips: 40,
            modeled_bits: 0x3f5e87b3e738333c,
            recoveries: &[(12, 12, 0x3ef8025ac471b4c0)],
            intervals_after: &[],
            x_hash: 0x182d3418dbc7be37,
        },
        PinnedRun {
            name: "sstep4 esr mid-block",
            variant: SSTEP4,
            strategy: esr,
            phi: 1,
            failures: &[(18, 1, 1)],
            iterations: 40,
            total_loop_trips: 40,
            modeled_bits: 0x3f60db7963be5a48,
            recoveries: &[(18, 16, 0x3f28a768ad530958)],
            intervals_after: &[],
            x_hash: 0x5bcc4ff807f43e60,
        },
        PinnedRun {
            name: "sstep4 esrp5 mid-block",
            variant: SSTEP4,
            strategy: esrp,
            phi: 2,
            failures: &[(18, 1, 2)],
            iterations: 40,
            total_loop_trips: 40,
            modeled_bits: 0x3f652d6ac7042d72,
            recoveries: &[(18, 16, 0x3f479c39dc248388)],
            intervals_after: &[],
            x_hash: 0x5c6ae88b8c75a817,
        },
        PinnedRun {
            name: "sstep4 imcr5 mid-block",
            variant: SSTEP4,
            strategy: imcr,
            phi: 1,
            failures: &[(18, 1, 1)],
            iterations: 40,
            total_loop_trips: 44,
            modeled_bits: 0x3f607f3e20da0425,
            recoveries: &[(18, 12, 0x3efaf539b8887280)],
            intervals_after: &[],
            x_hash: 0x182d3418dbc7be37,
        },
        PinnedRun {
            name: "classic esrp5 full restart",
            variant: PcgVariant::Classic,
            strategy: esrp,
            phi: 1,
            failures: &[(3, 0, 1)],
            iterations: 40,
            total_loop_trips: 44,
            modeled_bits: 0x3f60c05492f6f981,
            recoveries: &[(3, 0, 0x3f035c0752c0d344)],
            intervals_after: &[],
            x_hash: 0xec525586400599f5,
        },
        PinnedRun {
            name: "pipelined esrp5 full restart",
            variant: PcgVariant::Pipelined,
            strategy: esrp,
            phi: 1,
            failures: &[(3, 0, 1)],
            iterations: 40,
            total_loop_trips: 44,
            modeled_bits: 0x3f58af36a3e3b9a3,
            recoveries: &[(3, 0, 0x3f0d1bb3c8219fe0)],
            intervals_after: &[],
            x_hash: 0x39c5c71d248ffa5f,
        },
        PinnedRun {
            name: "sstep4 esrp5 full restart",
            variant: SSTEP4,
            strategy: esrp,
            phi: 1,
            failures: &[(3, 0, 1)],
            iterations: 40,
            total_loop_trips: 40,
            modeled_bits: 0x3f5e8761cff18978,
            recoveries: &[(3, 0, 0x3f03dee0ac0df69f)],
            intervals_after: &[],
            x_hash: 0x182d3418dbc7be37,
        },
        PinnedRun {
            name: "classic imcr5 full restart",
            variant: PcgVariant::Classic,
            strategy: imcr,
            phi: 1,
            failures: &[(3, 0, 1)],
            iterations: 40,
            total_loop_trips: 44,
            modeled_bits: 0x3f6198a8f5a9762f,
            recoveries: &[(3, 0, 0x3f035c0752c0d344)],
            intervals_after: &[],
            x_hash: 0xec525586400599f5,
        },
        PinnedRun {
            name: "pipelined imcr5 full restart",
            variant: PcgVariant::Pipelined,
            strategy: imcr,
            phi: 1,
            failures: &[(3, 0, 1)],
            iterations: 40,
            total_loop_trips: 44,
            modeled_bits: 0x3f5a765d7bcc4368,
            recoveries: &[(3, 0, 0x3f0d1bb3c8219fe0)],
            intervals_after: &[],
            x_hash: 0x39c5c71d248ffa5f,
        },
        PinnedRun {
            name: "sstep4 imcr5 full restart",
            variant: SSTEP4,
            strategy: imcr,
            phi: 1,
            failures: &[(3, 0, 1)],
            iterations: 40,
            total_loop_trips: 40,
            modeled_bits: 0x3f5e7fd289e62631,
            recoveries: &[(3, 0, 0x3f03dee0ac0df69f)],
            intervals_after: &[],
            x_hash: 0x182d3418dbc7be37,
        },
        PinnedRun {
            name: "classic esrp5 adaptive two-event",
            variant: PcgVariant::Classic,
            strategy: (Strategy::Esrp { t: 5 }, AUTO),
            phi: 1,
            failures: &[(12, 1, 1), (25, 2, 1)],
            iterations: 40,
            total_loop_trips: 47,
            modeled_bits: 0x3f60b3fa8640cc76,
            recoveries: &[(12, 11, 0x3ef62f21fa036fc0), (25, 21, 0x3ef734d4ac9db640)],
            intervals_after: &[5, 1],
            x_hash: 0x8987ea9c010ba0c2,
        },
        PinnedRun {
            name: "pipelined esrp5 adaptive two-event",
            variant: PcgVariant::Pipelined,
            strategy: (Strategy::Esrp { t: 5 }, AUTO),
            phi: 1,
            failures: &[(12, 1, 1), (25, 2, 1)],
            iterations: 40,
            total_loop_trips: 47,
            modeled_bits: 0x3f5f714ccadb63e1,
            recoveries: &[(12, 11, 0x3f2bf574f4ba8d52), (25, 21, 0x3f28a253962c4848)],
            intervals_after: &[5, 3],
            x_hash: 0x658419e44ff50281,
        },
        PinnedRun {
            name: "sstep4 esrp5 adaptive two-event",
            variant: SSTEP4,
            strategy: (Strategy::Esrp { t: 5 }, AUTO),
            phi: 1,
            failures: &[(12, 1, 1), (25, 2, 1)],
            iterations: 40,
            total_loop_trips: 44,
            modeled_bits: 0x3f64bac3d02d0fbf,
            recoveries: &[(12, 8, 0x3f312fc8e2786bc8), (25, 24, 0x3f2f60d31e758bf0)],
            intervals_after: &[5, 3],
            x_hash: 0x7136bfd7d02cce32,
        },
        PinnedRun {
            name: "classic imcr5 adaptive two-event",
            variant: PcgVariant::Classic,
            strategy: (Strategy::Imcr { t: 5 }, AUTO),
            phi: 1,
            failures: &[(12, 1, 1), (25, 2, 1)],
            iterations: 40,
            total_loop_trips: 44,
            modeled_bits: 0x3f619b7d88c9c651,
            recoveries: &[(12, 10, 0x3ef9238705ee2c00), (25, 25, 0x3ef8025ac471b4c0)],
            intervals_after: &[5, 3],
            x_hash: 0xec525586400599f5,
        },
        PinnedRun {
            name: "pipelined imcr5 adaptive two-event",
            variant: PcgVariant::Pipelined,
            strategy: (Strategy::Imcr { t: 5 }, AUTO),
            phi: 1,
            failures: &[(12, 1, 1), (25, 2, 1)],
            iterations: 40,
            total_loop_trips: 44,
            modeled_bits: 0x3f5ba91db57361a8,
            recoveries: &[(12, 10, 0x3f03d59cdc443910), (25, 25, 0x3f03cf9cdc443940)],
            intervals_after: &[5, 4],
            x_hash: 0x39c5c71d248ffa5f,
        },
        PinnedRun {
            name: "sstep4 imcr5 adaptive two-event",
            variant: SSTEP4,
            strategy: (Strategy::Imcr { t: 5 }, AUTO),
            phi: 1,
            failures: &[(12, 1, 1), (25, 2, 1)],
            iterations: 40,
            total_loop_trips: 40,
            modeled_bits: 0x3f6010bf27835a69,
            recoveries: &[(12, 12, 0x3ef8025ac471b4c0), (25, 24, 0x3efa1d39b8887280)],
            intervals_after: &[5, 3],
            x_hash: 0x182d3418dbc7be37,
        },
    ];
    // Rank counts that neither 2 nor 4 scheduler workers divide, so worker
    // blocks are uneven and tree hops cross workers (recorded on the
    // thread-per-rank runtime, at the parent commit of the coroutine
    // scheduler).
    let uneven = [
        (
            5,
            PinnedRun {
                name: "classic esrp5 mid-run, 5 ranks",
                variant: PcgVariant::Classic,
                strategy: esrp,
                phi: 1,
                failures: &[(12, 3, 1)],
                iterations: 40,
                total_loop_trips: 42,
                modeled_bits: 0x3f60cd24ef121394,
                recoveries: &[(12, 11, 0x3ef7f481c94355c0)],
                intervals_after: &[],
                x_hash: 0x4a781c9531bdaeae,
            },
        ),
        (
            7,
            PinnedRun {
                name: "pipelined imcr5 mid-run, 7 ranks",
                variant: PcgVariant::Pipelined,
                strategy: imcr,
                phi: 1,
                failures: &[(12, 5, 1)],
                iterations: 40,
                total_loop_trips: 43,
                modeled_bits: 0x3f5a22b67a0e3952,
                recoveries: &[(12, 10, 0x3efe3505cbe0adb0)],
                intervals_after: &[],
                x_hash: 0x165fa5c733195817,
            },
        ),
    ];
    let rows = table
        .iter()
        .map(|row| (4, row))
        .chain(uneven.iter().map(|(n_ranks, row)| (*n_ranks, row)));
    let mut mismatches = Vec::new();
    for (n_ranks, row) in rows {
        for be in [KernelBackend::Sequential, KernelBackend::parallel(2)] {
            let mut exp = Experiment::builder()
                .matrix(MatrixSource::Poisson3d {
                    nx: 12,
                    ny: 12,
                    nz: 12,
                })
                .n_ranks(n_ranks)
                .variant(row.variant)
                .strategy(row.strategy.0)
                .interval_policy(row.strategy.1)
                .phi(row.phi)
                .backend(be);
            for &(at, start, count) in row.failures {
                exp = exp.failure_at(at, start, count);
            }
            let r = exp.run().expect("run");
            assert!(r.converged, "{} {}", row.name, be.name());
            let recoveries: Vec<(usize, usize, u64)> = r
                .recoveries
                .iter()
                .map(|rec| (rec.failed_at, rec.resumed_at, rec.recovery_time.to_bits()))
                .collect();
            let intervals_after: Vec<usize> = r.tuning.iter().map(|t| t.interval_after).collect();
            let x_hash = r.x.iter().fold(0xcbf29ce484222325u64, |h, v| {
                (h ^ v.to_bits()).wrapping_mul(0x100000001b3)
            });
            let same = r.iterations == row.iterations
                && r.total_loop_trips == row.total_loop_trips
                && r.modeled_time.to_bits() == row.modeled_bits
                && recoveries == row.recoveries
                && intervals_after == row.intervals_after
                && x_hash == row.x_hash;
            if !same {
                mismatches.push(format!(
                    "{} [{}]: iterations: {}, total_loop_trips: {}, modeled_bits: {:#018x}, \
                     recoveries: &[{}], intervals_after: &{:?}, x_hash: {:#018x}",
                    row.name,
                    be.name(),
                    r.iterations,
                    r.total_loop_trips,
                    r.modeled_time.to_bits(),
                    recoveries
                        .iter()
                        .map(|(f, at, bits)| format!("({f}, {at}, {bits:#018x})"))
                        .collect::<Vec<_>>()
                        .join(", "),
                    intervals_after,
                    x_hash
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "runs moved off their recorded bits:\n{}",
        mismatches.join("\n")
    );
}
