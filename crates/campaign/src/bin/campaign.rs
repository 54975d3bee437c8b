//! Emits `BENCH_campaign.json`: per-cell resilience statistics of a
//! stochastic failure campaign, plus a Markdown summary on stdout.
//!
//! ```text
//! cargo run --release -p esrcg-campaign --bin campaign -- [options]
//!
//! options:
//!   --smoke           the CI/acceptance matrix (one small Poisson problem,
//!                     classic + pipelined + s-step PCG × default and
//!                     latency-dominated cost models × ESR/ESRP/IMCR ×
//!                     phi {1,2} × 4 fault processes, 2 seeds) — also the
//!                     default when no sizing flag is given
//!   --grid N          edge of the 2-D Poisson problem (default 16)
//!   --ranks LIST      comma-separated rank counts (default 4)
//!   --seeds LIST      comma-separated trace seeds (default 11,17)
//!   --formats LIST    comma-separated SpMV storage formats, e.g.
//!                     csr,sell-8-64,bcsr-3x3 (default csr; formats are
//!                     bitwise-identical — the axis varies storage only)
//!   --cost-models LIST comma-separated cost-model presets, e.g.
//!                     default,latency-dominated,compute-only,comm-only
//!                     (default: default,latency-dominated)
//!   --max-runs N      budget: cap the number of measured runs
//!   --workers N       fleet worker threads (default: the host's available
//!                     parallelism); the artifact is byte-identical for
//!                     any value
//!   --out PATH        output file (default BENCH_campaign.json)
//!   --trace-out PATH  also write one flight-recorder rollup line per
//!                     measured run (JSONL, enumeration order) — the bytes
//!                     are identical for any --workers value
//!   --quiet           suppress progress lines on stderr
//! ```

use esrcg_campaign::{CampaignRunner, CampaignSpec};
use esrcg_cluster::CostModel;
use esrcg_core::driver::MatrixSource;
use esrcg_sparse::SpmvFormat;

struct Options {
    grid: usize,
    ranks: Vec<usize>,
    seeds: Vec<u64>,
    formats: Vec<SpmvFormat>,
    cost_models: Option<Vec<CostModel>>,
    max_runs: Option<usize>,
    workers: usize,
    out: String,
    trace_out: Option<String>,
    quiet: bool,
}

fn parse_list<T: std::str::FromStr>(v: &str) -> Result<Vec<T>, String> {
    v.split(',')
        .map(|s| s.trim().parse().map_err(|_| format!("bad number '{s}'")))
        .collect()
}

fn parse_args() -> Result<Options, String> {
    let mut opt = Options {
        grid: 16,
        ranks: vec![4],
        seeds: vec![11, 17],
        formats: vec![SpmvFormat::Csr],
        cost_models: None,
        max_runs: None,
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        out: "BENCH_campaign.json".to_string(),
        trace_out: None,
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--smoke" => {} // the defaults *are* the smoke matrix
            "--grid" => {
                opt.grid = args
                    .next()
                    .ok_or("missing value for --grid")?
                    .parse()
                    .map_err(|_| "bad --grid")?
            }
            "--ranks" => opt.ranks = parse_list(&args.next().ok_or("missing value for --ranks")?)?,
            "--seeds" => opt.seeds = parse_list(&args.next().ok_or("missing value for --seeds")?)?,
            "--formats" => {
                opt.formats = args
                    .next()
                    .ok_or("missing value for --formats")?
                    .split(',')
                    .map(|s| SpmvFormat::parse(s.trim()))
                    .collect::<Result<_, _>>()?
            }
            "--cost-models" => {
                opt.cost_models = Some(
                    args.next()
                        .ok_or("missing value for --cost-models")?
                        .split(',')
                        .map(|s| CostModel::parse(s.trim()))
                        .collect::<Result<_, _>>()?,
                )
            }
            "--max-runs" => {
                opt.max_runs = Some(
                    args.next()
                        .ok_or("missing value for --max-runs")?
                        .parse()
                        .map_err(|_| "bad --max-runs")?,
                )
            }
            "--workers" => {
                opt.workers = args
                    .next()
                    .ok_or("missing value for --workers")?
                    .parse()
                    .map_err(|_| "bad --workers")?
            }
            "--out" => opt.out = args.next().ok_or("missing value for --out")?,
            "--trace-out" => {
                opt.trace_out = Some(args.next().ok_or("missing value for --trace-out")?)
            }
            "--quiet" => opt.quiet = true,
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
    let mut spec = CampaignSpec::smoke();
    spec.problems[0].name = format!("poisson2d-{0}x{0}", opt.grid);
    spec.problems[0].source = MatrixSource::Poisson2d {
        nx: opt.grid,
        ny: opt.grid,
    };
    spec.rank_counts = opt.ranks;
    spec.seeds = opt.seeds;
    spec.formats = opt.formats;
    if let Some(cost_models) = opt.cost_models {
        spec.cost_models = cost_models;
    }
    spec.max_runs = opt.max_runs;

    let report = match CampaignRunner::new(opt.workers)
        .verbose(!opt.quiet)
        .run(&spec)
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!("campaign failed: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = std::fs::write(&opt.out, report.to_json()) {
        eprintln!("cannot write {}: {e}", opt.out);
        std::process::exit(1);
    }
    if let Some(path) = &opt.trace_out {
        let mut body = report.run_traces.join("\n");
        body.push('\n');
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
    println!("{}", report.to_markdown());
    eprintln!("wrote {}", opt.out);
}
