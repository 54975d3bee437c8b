//! Emits `BENCH_kernels.json`: GFLOP/s and ns/row of PCG's per-iteration
//! kernels (SpMV, dot, block-Jacobi apply, contiguous vs split-phase
//! row-range SpMV) per backend and thread count on Poisson-3D workloads,
//! plus the storage-format sweep — CSR vs SELL-C-σ vs BCSR — the
//! dispatch-cutoff rows (SpMV nnz gate, streaming-vector gate), the
//! modeled-clock overlap sweep (PCG variant × cost model) with its crossover
//! winners, and the flight-recorder probe.
//!
//! ```text
//! cargo run --release -p esrcg-bench --bin kernels -- [options]
//!
//! options:
//!   --out PATH            output file (default: BENCH_kernels.json)
//!   --sizes LIST          comma-separated row counts (default: 10000,100000,1000000)
//!   --threads LIST        comma-separated thread counts (default: 1,4)
//!   --samples N           timed repetitions per cell (default: 10)
//!   --overlap-ranks LIST  rank counts for the overlap sweep
//!                         (default: 4,8,16; empty list skips the sweep)
//!   --overlap-grid N      grid edge of the sweep's 2-D Poisson problem
//!                         (default: 128, i.e. 16384 rows)
//!   --variant V           PCG recurrences of the overlap sweep:
//!                         classic | pipelined | sstep:<s> | both | all
//!                         (default: both; `both` = classic + pipelined,
//!                         `all` adds sstep:2, sstep:4, sstep:8)
//!   --cost-model LIST     comma-separated cost-model presets the overlap
//!                         sweep is clocked under: default,
//!                         latency-dominated, compute-only, comm-only
//!                         (default: default)
//!   --formats LIST        storage formats of the format sweep, e.g.
//!                         csr,sell-8-64,bcsr-3x3 (the default; empty list
//!                         skips the sweep)
//!   --format-target N     approximate rows of each format-sweep generator
//!                         matrix (default: 110000)
//!   --matrix PATH         additionally run the format sweep on a
//!                         Matrix Market file (repeatable)
//!   --workers N           OS threads running format-sweep matrices
//!                         concurrently (default: 1; never changes output
//!                         row order)
//!   --deterministic       zero all wall-clock fields so the JSON is
//!                         byte-identical across runs and --workers counts
//!   --trace-out PATH      also write the flight-recorder probe's Chrome/
//!                         Perfetto trace JSON (chrome://tracing, ui.perfetto.dev);
//!                         pure modeled clock, byte-identical across hosts
//! ```

use esrcg_bench::kernels::{
    format_sweep_matrices, run_cutoff_sweep, run_format_sweep, run_kernel_bench, run_overlap_sweep,
    FormatSweepSpec,
};
use esrcg_cluster::CostModel;
use esrcg_core::solver::PcgVariant;
use esrcg_sparse::mm::read_matrix_market_file;
use esrcg_sparse::SpmvFormat;

struct Options {
    out: String,
    sizes: Vec<usize>,
    threads: Vec<usize>,
    samples: usize,
    overlap_ranks: Vec<usize>,
    overlap_grid: usize,
    variants: Vec<PcgVariant>,
    cost_models: Vec<CostModel>,
    formats: Vec<SpmvFormat>,
    format_target: usize,
    matrix_files: Vec<String>,
    workers: usize,
    deterministic: bool,
    trace_out: Option<String>,
}

fn parse_list(v: &str) -> Result<Vec<usize>, String> {
    v.split(',')
        .map(|s| s.trim().parse().map_err(|_| format!("bad number '{s}'")))
        .collect()
}

fn parse_args() -> Result<Options, String> {
    let mut opt = Options {
        out: "BENCH_kernels.json".to_string(),
        sizes: vec![10_000, 100_000, 1_000_000],
        threads: vec![1, 4],
        samples: 10,
        overlap_ranks: vec![4, 8, 16],
        overlap_grid: 128,
        variants: vec![PcgVariant::Classic, PcgVariant::Pipelined],
        cost_models: vec![CostModel::default()],
        formats: vec![SpmvFormat::Csr, SpmvFormat::sell(), SpmvFormat::bcsr3()],
        format_target: 110_000,
        matrix_files: Vec::new(),
        workers: 1,
        deterministic: false,
        trace_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--out" => opt.out = args.next().ok_or("missing value for --out")?,
            "--sizes" => opt.sizes = parse_list(&args.next().ok_or("missing value for --sizes")?)?,
            "--threads" => {
                opt.threads = parse_list(&args.next().ok_or("missing value for --threads")?)?
            }
            "--samples" => {
                opt.samples = args
                    .next()
                    .ok_or("missing value for --samples")?
                    .parse()
                    .map_err(|_| "bad --samples")?
            }
            "--overlap-ranks" => {
                let v = args.next().ok_or("missing value for --overlap-ranks")?;
                opt.overlap_ranks = if v.trim().is_empty() {
                    Vec::new()
                } else {
                    parse_list(&v)?
                }
            }
            "--overlap-grid" => {
                opt.overlap_grid = args
                    .next()
                    .ok_or("missing value for --overlap-grid")?
                    .parse()
                    .map_err(|_| "bad --overlap-grid")?
            }
            "--variant" => {
                opt.variants = match args.next().ok_or("missing value for --variant")?.as_str() {
                    "classic" => vec![PcgVariant::Classic],
                    "pipelined" => vec![PcgVariant::Pipelined],
                    "both" => vec![PcgVariant::Classic, PcgVariant::Pipelined],
                    "all" => vec![
                        PcgVariant::Classic,
                        PcgVariant::Pipelined,
                        PcgVariant::SStep { s: 2 },
                        PcgVariant::SStep { s: 4 },
                        PcgVariant::SStep { s: 8 },
                    ],
                    other => match other.strip_prefix("sstep:") {
                        Some(s) => {
                            let s: usize =
                                s.parse().map_err(|_| format!("bad --variant '{other}'"))?;
                            if ![2, 4, 8].contains(&s) {
                                return Err(format!(
                                    "bad --variant '{other}': s must be 2, 4, or 8"
                                ));
                            }
                            vec![PcgVariant::SStep { s }]
                        }
                        None => return Err(format!("bad --variant '{other}'")),
                    },
                }
            }
            "--cost-model" => {
                opt.cost_models = args
                    .next()
                    .ok_or("missing value for --cost-model")?
                    .split(',')
                    .map(|s| CostModel::parse(s.trim()))
                    .collect::<Result<_, _>>()?
            }
            "--formats" => {
                let v = args.next().ok_or("missing value for --formats")?;
                opt.formats = if v.trim().is_empty() {
                    Vec::new()
                } else {
                    v.split(',')
                        .map(|s| SpmvFormat::parse(s.trim()))
                        .collect::<Result<_, _>>()?
                }
            }
            "--format-target" => {
                opt.format_target = args
                    .next()
                    .ok_or("missing value for --format-target")?
                    .parse()
                    .map_err(|_| "bad --format-target")?
            }
            "--matrix" => opt
                .matrix_files
                .push(args.next().ok_or("missing value for --matrix")?),
            "--workers" => {
                opt.workers = args
                    .next()
                    .ok_or("missing value for --workers")?
                    .parse()
                    .map_err(|_| "bad --workers")?
            }
            "--deterministic" => opt.deterministic = true,
            "--trace-out" => {
                opt.trace_out = Some(args.next().ok_or("missing value for --trace-out")?)
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(opt)
}

fn main() {
    let opt = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "kernel bench: sizes {:?}, threads {:?}, {} samples (host parallelism: {})",
        opt.sizes,
        opt.threads,
        opt.samples,
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    let mut report = run_kernel_bench(&opt.sizes, &opt.threads, opt.samples);
    if !opt.formats.is_empty() {
        let mut specs = format_sweep_matrices(opt.format_target);
        for path in &opt.matrix_files {
            let a = match read_matrix_market_file(path) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("--matrix {path}: {e}");
                    std::process::exit(2);
                }
            };
            let name = std::path::Path::new(path)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.clone());
            specs.push(FormatSweepSpec { name, a });
        }
        report.formats =
            run_format_sweep(&specs, &opt.formats, &opt.threads, opt.samples, opt.workers);
        report.cutoff = run_cutoff_sweep(&opt.threads, opt.samples);
    }
    if !opt.overlap_ranks.is_empty() {
        report.overlap = run_overlap_sweep(
            &opt.overlap_ranks,
            opt.overlap_grid,
            opt.overlap_grid,
            &opt.variants,
            &opt.cost_models,
        );
    }
    if opt.deterministic {
        report.zero_wall_clock();
    }
    for m in &report.results {
        eprintln!(
            "  {:<13} n={:<8} {:<9} {:>10.3} ms/iter  {:>8.3} ns/row  {:>8.3} GFLOP/s",
            m.kernel,
            m.n,
            m.backend,
            m.secs * 1e3,
            m.secs * 1e9 / m.n.max(1) as f64,
            m.gflops
        );
    }
    if !report.formats.is_empty() {
        eprintln!("storage formats (bitwise-identical SpMV, flops charged from CSR):");
        for m in &report.formats {
            eprintln!(
                "  {:<18} n={:<8} {:<10} {:<9} pad {:>5.2}x {:>10.3} ms/iter  {:>8.3} GFLOP/s",
                m.matrix,
                m.n,
                m.format,
                m.backend,
                m.padding_ratio(),
                m.secs * 1e3,
                m.gflops
            );
        }
        eprintln!(
            "dispatch cutoffs (par backend vs seq around the SpMV nnz gate and the vector gate):"
        );
        for m in &report.cutoff {
            eprintln!(
                "  {:<11} n={:<8} nnz={:<8} par({}) {} {:>10.3} µs seq  {:>10.3} µs par  ({:.2}x)",
                m.kernel,
                m.n,
                m.nnz,
                m.threads,
                if m.gated { "gated " } else { "dispatch" },
                m.seq_secs * 1e6,
                m.par_secs * 1e6,
                m.par_over_seq()
            );
        }
    }
    if !report.overlap.is_empty() {
        eprintln!("overlap (modeled clock, per variant):");
        for m in &report.overlap {
            eprintln!(
                "  {} [{:<9}|{:<17}] n={} ranks={:<3} {:>9.3} µs/iter  \
                 ({:.2} reductions/iter)",
                m.matrix,
                m.variant,
                m.cost_model,
                m.n,
                m.n_ranks,
                m.split_per_iter() * 1e6,
                m.reductions_per_iteration
            );
        }
        eprintln!("crossover (fastest variant per n × ranks × cost model):");
        for w in report.crossover_winners() {
            eprintln!(
                "  n={} ranks={:<3} {:<17} -> {:<9} ({:>9.3} µs/iter)",
                w.n,
                w.n_ranks,
                w.cost_model,
                w.variant,
                w.split_per_iter() * 1e6
            );
        }
    }
    if let Some(probe) = &report.trace {
        eprintln!(
            "flight recorder: {} under {} (phi {}), failure at iter {} -> \
             {} events, recovery {:.9} modeled s",
            probe.variant,
            probe.strategy,
            probe.phi,
            probe.failure_at,
            probe.events,
            probe.recovery_seconds
        );
        if let Some(path) = &opt.trace_out {
            std::fs::write(path, &probe.perfetto).expect("write trace file");
            eprintln!("wrote {path}");
        }
    }
    let json = report.to_json();
    std::fs::write(&opt.out, &json).expect("write output file");
    eprintln!("wrote {}", opt.out);
}
