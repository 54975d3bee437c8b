//! Layer probes of the traced run: each calls one layer's public functions
//! directly and times them from outside, on fixed inputs that do not depend
//! on the workload. Host rates are medians over repeated batches; bytes are
//! *computed* from array sizes (cache misses not counted), flops from the
//! stored-entry count.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use esrcg_campaign::{CampaignRunner, FaultProcess, TraceBudget};
use esrcg_cluster::{run_spmd, CostModel, Ctx, Payload, Phase, Tag, TraceConfig};
use esrcg_core::dist::halo::exchange_halo;
use esrcg_core::dist::plan::CommPlan;
use esrcg_core::driver::MatrixSource;
use esrcg_precond::PrecondSpec;
use esrcg_sparse::{pool, FormatMatrix, KernelBackend, Partition, SpmvFormat};

use crate::host;
use crate::report::MetricSet;
use crate::spans::Spans;
use crate::stats;
use crate::workloads::{
    campaign_probe_spec, fleet_spec, random_rhs, Plan, Workload, STORM_EVENTS, STORM_STRATEGIES,
};

/// Elements per array of the triad probe: 32 MiB each, 96 MiB for the three.
/// The sizing rule for a memory-bandwidth figure is four times the last-level
/// cache, which a host reporting a 260 MiB L3 puts out of reach; the result
/// file states the host's cache size next to this number, and the figure is
/// an upper bound on what a kernel streaming from memory can reach.
const TRIAD_LEN: usize = 4 << 20;

/// Seconds per call: the median over `reps` batches of `batch` calls each,
/// after one untimed batch. Returns the median and the per-batch values.
fn per_call(reps: usize, batch: usize, mut f: impl FnMut()) -> (f64, Vec<f64>) {
    for _ in 0..batch {
        f();
    }
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_secs_f64() / batch as f64
        })
        .collect();
    (stats::median(&times), times)
}

/// Records `work / seconds-per-call` as a rate metric, with the per-batch
/// rates as its repetitions.
fn put_rate(m: &mut MetricSet, name: &str, work: f64, timing: (f64, Vec<f64>)) {
    let (median, reps) = timing;
    m.put_reps(name, work / median, reps.iter().map(|t| work / t).collect());
}

fn put_time(m: &mut MetricSet, name: &str, scale: f64, timing: (f64, Vec<f64>)) {
    let (median, reps) = timing;
    m.put_reps(
        name,
        median * scale,
        reps.iter().map(|t| t * scale).collect(),
    );
}

fn matrix_of(workload: &str) -> MatrixSource {
    match Workload::new(workload, 0).map(|w| w.plan) {
        Ok(Plan::Solves { source, .. }) => source,
        _ => unreachable!("{workload} is a listed solve workload"),
    }
}

/// `sparse` and `precond`: every kernel the solver calls, on the
/// `kernel-bound` matrix with the sequential backend (one core's rate), plus
/// the parallel speed-up of SpMV, generation and format conversion.
pub fn kernels(m: &mut MetricSet, spans: &mut Spans) -> Result<(), String> {
    let source = matrix_of("kernel-bound");
    let gen = per_call(3, 1, || {
        black_box(source.build_arc().expect("generated matrices cannot fail"));
    });
    put_time(m, "sparse.gen_s", 1.0, gen);
    let a = source.build_arc()?;
    let (n, nnz) = (a.nrows(), a.nnz());
    let seq = KernelBackend::Sequential;
    let x = random_rhs(n, 1);
    let mut y = vec![0.0; n];

    spans.scope("sparse:kernels", |_| {
        let flops = 2.0 * nnz as f64 / 1e9;
        // Values and column indices per entry; row pointer, x and y per row.
        let csr_bytes = (16 * nnz + 24 * n) as f64 / 1e9;
        let csr = per_call(7, 4, || seq.spmv_into(&a, &x, &mut y));
        put_rate(m, "sparse.spmv_csr_gbps", csr_bytes, csr.clone());
        let t_seq = csr.0;
        put_rate(m, "sparse.spmv_csr_gflops", flops, csr);
        let par = per_call(7, 4, || KernelBackend::default().spmv_into(&a, &x, &mut y));
        m.put("sparse.spmv_par_speedup", t_seq / par.0);

        let mut convert_s = 0.0;
        for (name, format) in [
            ("sparse.spmv_sell_gflops", SpmvFormat::sell()),
            ("sparse.spmv_bcsr_gflops", SpmvFormat::bcsr3()),
        ] {
            let t = Instant::now();
            let converted = FormatMatrix::from_csr(&a, format).expect("a non-CSR format converts");
            convert_s += t.elapsed().as_secs_f64();
            let timing = per_call(7, 4, || seq.spmv_fmt_into(&converted, &x, &mut y));
            put_rate(m, name, flops, timing);
        }
        m.put("sparse.format_convert_s", convert_s);

        // Recovery's masked product: a quarter of the rows, with the columns
        // of a failed block masked out.
        let rows: Vec<usize> = (0..n / 4).collect();
        let masked_flops = 2.0 * rows.iter().map(|&r| a.row_nnz(r)).sum::<usize>() as f64 / 1e9;
        let mut y_rows = vec![0.0; rows.len()];
        let (lo, hi) = (n / 8, n / 4);
        let timing = per_call(7, 4, || {
            seq.spmv_rows_masked_into(&a, &rows, &x, |c| c >= lo && c < hi, &mut y_rows);
        });
        put_rate(m, "sparse.spmv_masked_gflops", masked_flops, timing);

        let z = random_rhs(n, 2);
        let timing = per_call(7, 16, || {
            black_box(seq.dot(&x, &z));
        });
        put_rate(m, "sparse.dot_gflops", 2.0 * n as f64 / 1e9, timing);
        let timing = per_call(7, 16, || seq.axpby(0.5, &x, 0.5, &mut y));
        put_rate(m, "sparse.axpby_gbps", 24.0 * n as f64 / 1e9, timing);
        let (mut x2, mut r) = (random_rhs(n, 3), random_rhs(n, 4));
        let timing = per_call(7, 16, || seq.fused_axpy2(1e-3, &x, &z, &mut x2, &mut r));
        put_rate(m, "sparse.fused_axpy2_gbps", 48.0 * n as f64 / 1e9, timing);
    });

    spans.scope("sparse:triad", |_| {
        let (b, c) = (random_rhs(TRIAD_LEN, 5), random_rhs(TRIAD_LEN, 6));
        let mut out = vec![0.0; TRIAD_LEN];
        let timing = per_call(5, 1, || {
            for ((o, b), c) in out.iter_mut().zip(&b).zip(&c) {
                *o = b + 3.0 * c;
            }
            black_box(&mut out);
        });
        put_rate(
            m,
            "sparse.triad_gbps",
            24.0 * TRIAD_LEN as f64 / 1e9,
            timing,
        );
    });

    spans.scope("sparse:pool_dispatch", |_| {
        // 1024 empty broadcasts over the hardware threads: what every
        // parallel kernel call pays before any arithmetic.
        let threads = host::nproc();
        let timing = pool::with_local_pool(threads, |p| {
            per_call(5, 1024, || p.broadcast(threads, |_| {}))
        });
        put_time(m, "sparse.pool_dispatch_us", 1e6, timing);
    });

    spans.scope("precond:probe", |_| {
        let part = Partition::balanced(n, 2);
        let spec = PrecondSpec::paper_default();
        let build = per_call(3, 1, || {
            black_box(spec.build(&a, &part).expect("Poisson blocks are SPD"));
        });
        put_time(m, "precond.build_s", 1.0, build);
        let p = spec.build(&a, &part).map_err(|e| e.to_string())?;
        let range = part.range(0);
        let mut z = vec![0.0; range.len()];
        let apply = per_call(7, 4, || {
            p.apply_local(range.clone(), &x[range.clone()], &mut z)
        });
        put_time(
            m,
            "precond.apply_ns_per_row",
            1e9 / range.len() as f64,
            apply,
        );
        Ok::<(), String>(())
    })
}

/// Host seconds and modeled seconds per call of `op`, measured on rank 0 of
/// an `n_ranks` SPMD run between a barrier and the last of `calls` calls.
/// `init` builds each rank's buffers before the barrier.
fn spmd_per_call<S>(
    n_ranks: usize,
    calls: usize,
    init: impl Fn(&Ctx) -> S + Sync,
    op: impl Fn(&mut Ctx, &mut S) + Sync,
) -> (f64, f64) {
    let out = run_spmd(n_ranks, CostModel::default(), |ctx| {
        let mut state = init(ctx);
        ctx.barrier();
        let (clock, t) = (ctx.clock(), Instant::now());
        for _ in 0..calls {
            op(ctx, &mut state);
        }
        (
            t.elapsed().as_secs_f64() / calls as f64,
            (ctx.clock() - clock) / calls as f64,
        )
    });
    out.results[0]
}

/// `cluster` and `core.dist`: the runtime primitives every solve is made of.
pub fn runtime(m: &mut MetricSet, spans: &mut Spans) -> Result<(), String> {
    spans.scope("cluster:primitives", |_| {
        let spawn = per_call(5, 1, || {
            black_box(run_spmd(128, CostModel::default(), |_| ()));
        });
        put_time(m, "cluster.spawn_us_per_rank", 1e6 / 128.0, spawn);

        let tag = Tag::Halo.bare();
        let (round_trip, _) = spmd_per_call(
            2,
            2000,
            |_| (),
            |ctx, ()| {
                if ctx.rank() == 0 {
                    ctx.send(1, tag, Payload::Scalar(1.0));
                    black_box(ctx.recv(1, tag));
                } else {
                    black_box(ctx.recv(0, tag));
                    ctx.send(0, tag, Payload::Scalar(1.0));
                }
            },
        );
        m.put("cluster.sendrecv_host_us", round_trip * 1e6);

        let allreduce = |ctx: &mut Ctx, (): &mut ()| {
            black_box(ctx.allreduce_sum_scalar(1.0));
        };
        let (host_r16, _) = spmd_per_call(16, 500, |_| (), allreduce);
        m.put("cluster.allreduce_host_us_r16", host_r16 * 1e6);
        let (host_r128, modeled_r128) = spmd_per_call(128, 100, |_| (), allreduce);
        m.put("cluster.allreduce_host_us_r128", host_r128 * 1e6);
        m.put("cluster.allreduce_modeled_us_r128", modeled_r128 * 1e6);
    });

    spans.scope("dist:probe", |_| {
        let a = matrix_of("paper-grid").build_arc()?;
        let part = Arc::new(Partition::balanced(a.nrows(), 16));
        let build = per_call(5, 1, || {
            black_box(CommPlan::build(&a, &part));
        });
        put_time(m, "dist.plan_build_s", 1.0, build);
        let plan = CommPlan::build(&a, &part);
        let (halo, _) = spmd_per_call(
            16,
            300,
            |ctx| (vec![1.0; part.local_len(ctx.rank())], vec![0.0; part.n()]),
            |ctx, (local, full)| {
                exchange_halo(ctx, &plan, &part, local, 0, full, None);
                black_box(&full);
            },
        );
        m.put("dist.halo_host_us_r16", halo * 1e6);
        Ok(())
    })
}

/// `core.recovery`: `recovery-storm`'s three runs next to their failure-free
/// twins. Modeled numbers come from the recovery reports; the host cost of
/// an event is the storm run's wall time minus its twin's, each the smaller
/// of two passes, over the six events.
pub fn recovery(
    m: &mut MetricSet,
    seed: u64,
    spans: &mut Spans,
) -> Result<(usize, usize, Vec<String>), String> {
    let probe = Workload::recovery_probe(seed);
    let matrices = probe.setup(&mut Spans::off())?.matrices;
    // One span for the whole probe: its solves carry the same labels as
    // `recovery-storm`'s and would read as that workload's in the trace.
    let passes = spans.scope("recovery:probe", |_| {
        (0..2)
            .map(|_| probe.pass(&matrices, TraceConfig::Off, &mut Spans::off()))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let [first, second] = &passes[..] else {
        unreachable!("two passes ran")
    };
    let wall = |label: &str| {
        let of = |p: &crate::workloads::PassSummary| p.case(label).map_or(f64::NAN, |c| c.wall_s);
        of(first).min(of(second))
    };

    let events = STORM_EVENTS as f64;
    let (mut inner, mut inner_runs) = (0usize, 0usize);
    let mut restarts = 0usize;
    for (name, strategy) in STORM_STRATEGIES {
        let storm = first
            .case(&format!("{name}.storm"))
            .ok_or("the probe runs every storm strategy")?;
        m.put(
            &format!("recovery.modeled_ms_per_event.{name}"),
            storm.recovery_s / events * 1e3,
        );
        m.put(
            &format!("recovery.wasted_iters_per_event.{name}"),
            storm.wasted_iterations as f64 / events,
        );
        m.put(
            &format!("recovery.host_ms_per_event.{name}"),
            (wall(&format!("{name}.storm")) - wall(&format!("{name}.ff"))) / events * 1e3,
        );
        restarts += storm.full_restarts;
        if strategy.uses_aspmv() {
            inner += storm.inner_iterations;
            inner_runs += 1;
        }
    }
    m.put(
        "recovery.inner_iters_per_event",
        inner as f64 / (events * inner_runs as f64),
    );
    m.put("recovery.full_restarts", restarts as f64);
    let recovery_total: f64 = [
        Phase::RecoveryGather,
        Phase::RecoveryInner,
        Phase::RecoveryReset,
    ]
    .iter()
    .map(|&p| first.phase_seconds[p as usize])
    .sum();
    for (name, phase) in [
        ("gather", Phase::RecoveryGather),
        ("inner", Phase::RecoveryInner),
        ("reset", Phase::RecoveryReset),
    ] {
        m.put(
            &format!("recovery.phase_share.{name}"),
            first.phase_seconds[phase as usize] / recovery_total,
        );
    }
    let mut second = second.clone();
    second.check_against(first);
    let mut complaints = first.complaints.clone();
    complaints.extend(second.complaints);
    Ok((
        first.ops + second.ops,
        first.failed + second.failed,
        complaints,
    ))
}

/// `campaign`: enumeration and trace compilation on `fleet`'s own campaign,
/// then the 36-run probe campaign at one worker and at one per hardware
/// thread, and both renderings of its report.
pub fn campaign(m: &mut MetricSet, seed: u64, spans: &mut Spans) -> Result<(), String> {
    spans.scope("campaign:probe", |_| {
        let full = fleet_spec(seed);
        let enumerate = per_call(7, 4, || {
            black_box(full.enumerate().expect("the fleet spec is valid"));
        });
        put_time(m, "campaign.enumerate_ms", 1e3, enumerate);

        let budget = TraceBudget {
            iterations: 100,
            n_ranks: 4,
            phi: 1,
            interval: 10,
        };
        let process = FaultProcess::Exponential { mtbf: 30.0 };
        let mut trace_seed = seed;
        let compile = per_call(7, 512, || {
            trace_seed += 1;
            black_box(process.compile(trace_seed, &budget));
        });
        put_time(m, "campaign.trace_compile_us", 1e6, compile);

        let probe = campaign_probe_spec(seed);
        let mut report = None;
        let mut rate = |workers: usize| -> Result<f64, String> {
            let mut walls = Vec::new();
            for _ in 0..3 {
                let t = Instant::now();
                let r = CampaignRunner::new(workers).run(&probe)?;
                walls.push(t.elapsed().as_secs_f64());
                report = Some(r);
            }
            Ok(probe.enumerate()?.planned_runs as f64 / stats::median(&walls))
        };
        let (w1, wn) = (rate(1)?, rate(host::nproc())?);
        m.put("campaign.runs_per_s_w1", w1);
        m.put("campaign.runs_per_s_wN", wn);
        m.put("campaign.worker_scaling", wn / w1);

        let report = report.expect("the probe campaign ran");
        let render = per_call(5, 1, || {
            black_box((report.to_json(), report.to_markdown()));
        });
        put_time(m, "campaign.render_ms", 1e3, render);
        m.put("campaign.report_kb", report.to_json().len() as f64 / 1024.0);
        let failed_cells = report
            .cells
            .iter()
            .filter(|c| c.ok_runs < c.runs || c.convergence_failures > 0)
            .count();
        m.put("campaign.failed_cells", failed_cells as f64);
        Ok(())
    })
}
