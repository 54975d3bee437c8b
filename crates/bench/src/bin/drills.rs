//! Recovery-drill harness: runs the drill catalog, prints the artifact
//! lines, and (optionally) compares them with the tracked copy.
//!
//! ```text
//! cargo run --release -p esrcg-bench --bin drills -- [options]
//!
//! options:
//!   --workers N       fleet worker threads (default: the host's available
//!                     parallelism); the artifact lines are byte-identical
//!                     for any N
//!   --check PATH      compare the artifact lines with the file at PATH
//!                     (BENCH_drills.txt) byte for byte; print every line
//!                     that differs as expected / got and exit 1
//!   --trace-out PATH  write the trace-replay drill's Chrome/Perfetto trace
//!                     JSON (pure modeled clock, byte-identical across hosts
//!                     and workers)
//!   --quiet           suppress the summary on stderr
//! ```
//!
//! Exit status: 0 when every drill ran and the check (if requested) found
//! the same bytes, 1 otherwise.

use esrcg_bench::drills::{artifact_text, run_all, trace_replay_perfetto};

struct Options {
    workers: usize,
    check: Option<String>,
    trace_out: Option<String>,
    quiet: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opt = Options {
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        check: None,
        trace_out: None,
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workers" => {
                opt.workers = args
                    .next()
                    .ok_or("missing value for --workers")?
                    .parse()
                    .map_err(|_| "bad --workers")?;
                if opt.workers == 0 {
                    return Err("--workers must be at least 1".into());
                }
            }
            "--check" => opt.check = Some(args.next().ok_or("missing value for --check")?),
            "--trace-out" => {
                opt.trace_out = Some(args.next().ok_or("missing value for --trace-out")?)
            }
            "--quiet" => opt.quiet = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(opt)
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("drills: {msg}");
    std::process::exit(1);
}

fn main() {
    let opt = parse_args().unwrap_or_else(|e| fail(e));
    let outcomes = run_all(opt.workers).unwrap_or_else(|e| fail(e));
    let lines = artifact_text(&outcomes);
    print!("{lines}");

    if let Some(path) = &opt.trace_out {
        let json = trace_replay_perfetto().unwrap_or_else(|e| fail(e));
        std::fs::write(path, json).unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
        if !opt.quiet {
            eprintln!("drills: wrote {path}");
        }
    }

    let Some(path) = &opt.check else {
        if !opt.quiet {
            eprintln!("drills: {} drills ran (no --check)", outcomes.len());
        }
        return;
    };
    let tracked =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    if tracked == lines {
        if !opt.quiet {
            eprintln!("drills: {} lines identical to {path}", outcomes.len());
        }
        return;
    }
    let (mut expected, mut got) = (tracked.lines(), lines.lines());
    for n in 1.. {
        match (expected.next(), got.next()) {
            (None, None) => break,
            (e, g) if e != g => eprintln!(
                "drills: {path}:{n} differs\n  expected: {}\n  got:      {}",
                e.unwrap_or("<no line>"),
                g.unwrap_or("<no line>")
            ),
            _ => {}
        }
    }
    fail(format!(
        "artifact lines differ from {path} (DRILLS.md: how to re-record it)"
    ));
}
