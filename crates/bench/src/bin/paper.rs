//! Regenerates every table and figure of the paper's evaluation (§5).
//!
//! ```text
//! cargo run --release -p esrcg-bench --bin paper -- <artifact> [options]
//!
//! artifacts:
//!   table2    overheads on the Emilia_923 stand-in
//!   table3    overheads on the audikw_1 stand-in
//!   table4    residual drift for both matrices
//!   fig1      redundancy-queue evolution (T = 20)
//!   fig2      overhead-vs-interval figure, Emilia stand-in
//!   fig3      overhead-vs-interval figure, audikw stand-in
//!   all       everything above
//!
//! options:
//!   --scale small|default|large   workload scale (default: default)
//!   --reps N                      repetitions per cell (default per scale)
//!   --ranks N                     simulated cluster size (default per scale)
//!   --seed N                      base RHS seed (default 1)
//!   --csv DIR                     also write raw CSV grids into DIR
//!   --quiet                       suppress progress logging
//! ```
//!
//! Absolute numbers depend on the cost model and scale; the *shapes* are
//! the reproduction target: ESRP's failure-free overhead falls as T grows,
//! and IMCR's reconstruction overhead stays far below ESRP's — asserted in
//! `crates/bench/tests/paper_shapes.rs`. The output of `all --scale small
//! --quiet --csv BENCH_paper_small` is tracked in `BENCH_paper_small/` and
//! compared byte for byte under `cargo test` and in CI (the larger scales
//! are not; ROADMAP.md, direction F).

use esrcg_bench::{render_paper, Scale};

struct Options {
    artifact: String,
    scale: Scale,
    reps: Option<usize>,
    ranks: Option<usize>,
    seed: u64,
    csv_dir: Option<String>,
    quiet: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let artifact = args.next().ok_or_else(usage)?;
    let mut opt = Options {
        artifact,
        scale: Scale::Default,
        reps: None,
        ranks: None,
        seed: 1,
        csv_dir: None,
        quiet: false,
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--scale" => {
                let v = args.next().ok_or("missing value for --scale")?;
                opt.scale = Scale::parse(&v)
                    .ok_or_else(|| format!("unknown scale '{v}' (small|default|large)"))?;
            }
            "--reps" => {
                let v = args.next().ok_or("missing value for --reps")?;
                opt.reps = Some(v.parse().map_err(|_| format!("bad --reps '{v}'"))?);
            }
            "--ranks" => {
                let v = args.next().ok_or("missing value for --ranks")?;
                opt.ranks = Some(v.parse().map_err(|_| format!("bad --ranks '{v}'"))?);
            }
            "--seed" => {
                let v = args.next().ok_or("missing value for --seed")?;
                opt.seed = v.parse().map_err(|_| format!("bad --seed '{v}'"))?;
            }
            "--csv" => {
                opt.csv_dir = Some(args.next().ok_or("missing value for --csv")?);
            }
            "--quiet" => opt.quiet = true,
            other => return Err(format!("unknown option '{other}'\n{}", usage())),
        }
    }
    Ok(opt)
}

fn usage() -> String {
    "usage: paper <table2|table3|table4|fig1|fig2|fig3|all> \
     [--scale small|default|large] [--reps N] [--ranks N] [--seed N] \
     [--csv DIR] [--quiet]"
        .to_string()
}

fn main() {
    let opt = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    // Each grid the artifact needs runs once; the artifacts share the data.
    let spec = |which: &str| {
        let mut spec = opt.scale.table_spec(which);
        spec.n_ranks = opt.ranks.unwrap_or(spec.n_ranks);
        spec.reps = opt.reps.unwrap_or(spec.reps);
        spec.seed = opt.seed;
        spec.progress = !opt.quiet;
        spec
    };
    let Some((stdout, csvs)) = render_paper(&opt.artifact, spec) else {
        eprintln!("unknown artifact '{}'\n{}", opt.artifact, usage());
        std::process::exit(2);
    };
    if let Some(dir) = &opt.csv_dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
        for (label, csv) in csvs {
            let path = format!("{dir}/{label}.csv");
            std::fs::write(&path, csv).expect("write csv");
            eprintln!("wrote {path}");
        }
    }
    print!("{stdout}");
}
