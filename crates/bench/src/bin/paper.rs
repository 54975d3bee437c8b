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
//! `cmp`-gated by CI (the larger scales are not; ROADMAP.md, direction F).

use std::collections::HashMap;

use esrcg_bench::figures::{render_figure, render_figure1};
use esrcg_bench::format::{render_csv, render_drift_table, render_overhead_table};
use esrcg_bench::grid::{run_table, TableData, TableSpec};
use esrcg_bench::Scale;

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

fn spec_for(opt: &Options, which: &str) -> TableSpec {
    let (label, matrix) = match which {
        "emilia" => ("emilia-like", opt.scale.emilia()),
        _ => ("audikw-like", opt.scale.audikw()),
    };
    TableSpec {
        label: label.to_string(),
        matrix,
        n_ranks: opt.ranks.unwrap_or_else(|| opt.scale.n_ranks()),
        t_values: opt.scale.t_values(),
        phi_values: opt.scale.phi_values(),
        reps: opt.reps.unwrap_or_else(|| opt.scale.reps()),
        seed: opt.seed,
        progress: !opt.quiet,
    }
}

fn main() {
    let opt = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    let needs: Vec<&str> = match opt.artifact.as_str() {
        "table2" | "fig2" => vec!["emilia"],
        "table3" | "fig3" => vec!["audikw"],
        "table4" | "all" => vec!["emilia", "audikw"],
        "fig1" => vec![],
        other => {
            eprintln!("unknown artifact '{other}'\n{}", usage());
            std::process::exit(2);
        }
    };

    // Run each needed grid once; artifacts share the data.
    let mut grids: HashMap<&str, TableData> = HashMap::new();
    for which in needs {
        let spec = spec_for(&opt, which);
        eprintln!(
            "running {} grid (scale {:?}, {} ranks, {} reps; this is the slow part)...",
            spec.label, opt.scale, spec.n_ranks, spec.reps
        );
        let data = run_table(&spec);
        if let Some(dir) = &opt.csv_dir {
            std::fs::create_dir_all(dir).expect("create csv dir");
            let path = format!("{dir}/{}.csv", spec.label);
            std::fs::write(&path, render_csv(&data)).expect("write csv");
            eprintln!("wrote {path}");
        }
        grids.insert(which, data);
    }

    let artifact = opt.artifact.as_str();
    if artifact == "fig1" || artifact == "all" {
        println!("=== Figure 1: redundancy-queue evolution ===\n");
        println!("{}", render_figure1(20));
    }
    if artifact == "table2" || artifact == "all" {
        println!("=== Table 2: overheads, Emilia_923 stand-in ===\n");
        println!("{}", render_overhead_table(&grids["emilia"]));
    }
    if artifact == "table3" || artifact == "all" {
        println!("=== Table 3: overheads, audikw_1 stand-in ===\n");
        println!("{}", render_overhead_table(&grids["audikw"]));
    }
    if artifact == "table4" || artifact == "all" {
        println!("=== Table 4: residual drift ===\n");
        let tables: Vec<&TableData> = ["emilia", "audikw"]
            .iter()
            .filter_map(|k| grids.get(k))
            .collect();
        println!("{}", render_drift_table(&tables));
    }
    if artifact == "fig2" || artifact == "all" {
        println!("=== Figure 2: Emilia_923 stand-in ===\n");
        println!("{}", render_figure(&grids["emilia"], false));
        println!("{}", render_figure(&grids["emilia"], true));
    }
    if artifact == "fig3" || artifact == "all" {
        println!("=== Figure 3: audikw_1 stand-in ===\n");
        println!("{}", render_figure(&grids["audikw"], false));
        println!("{}", render_figure(&grids["audikw"], true));
    }
}
