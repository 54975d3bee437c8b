//! The repo's benchmark: five workloads on two clocks. See `README.md`
//! next to this package for the metric tables and the protocol.
//!
//! ```text
//! benchmark [run|trace] --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]
//! benchmark compare A B [--benchmark-json PATH]
//! ```

mod compare;
mod host;
mod json;
mod names;
mod probes;
mod report;
mod run;
mod spans;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use report::RunRecord;
use workloads::Workload;

const USAGE: &str = "usage:
  benchmark [run|trace] --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]
  benchmark compare A B [--benchmark-json PATH]
run from the repository root; NAME is one of kernel-bound, rank-bound, paper-grid,
recovery-storm, fleet";

/// Options of a measured or traced run.
struct RunOptions {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_run(mut args: impl Iterator<Item = String>, trace: bool) -> Result<RunOptions, String> {
    let mut o = RunOptions {
        workload: String::new(),
        seed: 7,
        seconds: 15.0,
        trace,
        out_dir: PathBuf::from("benchmark/out"),
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = value()?,
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--out-dir" => o.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if o.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(o)
}

fn run(o: &RunOptions) -> Result<ExitCode, String> {
    let workload = Workload::new(&o.workload, o.seed)?;
    let record = RunRecord::start();
    let outcome = if o.trace {
        trace::trace(&workload, o.seed, &o.out_dir)?
    } else {
        run::measure(&workload, o.seed, o.seconds)?
    };
    let path = record.finish(&outcome, &o.out_dir)?;

    println!(
        "workload {} seed {} ({})",
        outcome.workload, o.seed, outcome.mode
    );
    outcome.metrics.print();
    for c in &outcome.complaints {
        println!("FAILED {c}");
    }
    println!(
        "{} of {} ops failed; result file {}",
        outcome.failed,
        outcome.attempted,
        path.display()
    );
    println!("{}", outcome.result_line());
    Ok(if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare(mut args: impl Iterator<Item = String>) -> Result<ExitCode, String> {
    let mut paths = Vec::new();
    let mut benchmark_json = PathBuf::from("BENCHMARK.json");
    while let Some(arg) = args.next() {
        if arg == "--benchmark-json" {
            benchmark_json = PathBuf::from(args.next().ok_or("--benchmark-json needs a value")?);
        } else if arg.starts_with("--") {
            return Err(format!("unknown argument '{arg}'"));
        } else {
            paths.push(PathBuf::from(arg));
        }
    }
    let [a, b] = &paths[..] else {
        return Err("compare takes exactly two result files or directories".into());
    };
    Ok(if compare::compare(a, b, &benchmark_json)? {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let result = match args.peek().map(String::as_str) {
        Some("compare") => {
            args.next();
            compare(args)
        }
        Some("-h" | "--help") | None => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        // `run`, `trace`, or the benchmark contract's form: flags only, with
        // `--trace` picking the mode.
        Some(word) => {
            let trace = word == "trace";
            if matches!(word, "run" | "trace") {
                args.next();
            }
            parse_run(args, trace).and_then(|o| run(&o))
        }
    };
    result.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
