//! Recovery-drill harness: runs the drill catalog, prints the tracked
//! artifact lines, and (optionally) gates against the `DRILLS.md`
//! baselines.
//!
//! ```text
//! cargo run --release -p esrcg-bench --bin drills -- [options]
//!
//! options:
//!   --workers N                 fleet worker threads (default: the host's
//!                               available parallelism); the artifact
//!                               lines are byte-identical for any N
//!   --check PATH                diff against the baselines in PATH
//!                               (DRILLS.md) and exit 1 on a >20% recovery
//!                               regression without a rationale entry
//!   --out PATH                  also write the artifact lines plus the
//!                               baseline-vs-latest table to PATH
//!   --inject-slow-recovery PCT  inflate every measured recovery time by
//!                               PCT percent — CI's self-test that the gate
//!                               actually trips
//!   --trace-out PATH            write the trace-replay drill's Chrome/
//!                               Perfetto trace JSON (pure modeled clock,
//!                               byte-identical across hosts and workers)
//!   --quiet                     suppress the summary on stderr
//! ```
//!
//! Exit status: 0 when every drill ran and the gate (if requested) passed,
//! 1 otherwise.

use esrcg_bench::drills::{
    check_regressions, comparison_table, run_all, trace_replay_perfetto, REGRESSION_THRESHOLD,
};

struct Options {
    workers: usize,
    check: Option<String>,
    out: Option<String>,
    inject_pct: f64,
    trace_out: Option<String>,
    quiet: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opt = Options {
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        check: None,
        out: None,
        inject_pct: 0.0,
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
            "--out" => opt.out = Some(args.next().ok_or("missing value for --out")?),
            "--inject-slow-recovery" => {
                opt.inject_pct = args
                    .next()
                    .ok_or("missing value for --inject-slow-recovery")?
                    .parse()
                    .map_err(|_| "bad --inject-slow-recovery")?;
            }
            "--trace-out" => {
                opt.trace_out = Some(args.next().ok_or("missing value for --trace-out")?)
            }
            "--quiet" => opt.quiet = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(opt)
}

fn main() {
    let opt = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("drills: {e}");
            std::process::exit(1);
        }
    };

    let mut outcomes = match run_all(opt.workers) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("drills: {e}");
            std::process::exit(1);
        }
    };
    if opt.inject_pct != 0.0 {
        for o in &mut outcomes {
            o.recovery_modeled_s *= 1.0 + opt.inject_pct / 100.0;
        }
        if !opt.quiet {
            eprintln!(
                "drills: injected a {}% recovery slowdown (gate self-test)",
                opt.inject_pct
            );
        }
    }

    let mut lines = String::new();
    for o in &outcomes {
        lines.push_str(&o.artifact_line());
        lines.push('\n');
    }
    print!("{lines}");

    let baseline_md = opt.check.as_ref().map(|path| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("drills: cannot read {path}: {e}");
            std::process::exit(1);
        })
    });

    if let Some(path) = &opt.out {
        let table = comparison_table(baseline_md.as_deref().unwrap_or(""), &outcomes);
        let report = format!("# Drill run\n\n```text\n{lines}```\n\n{table}");
        if let Err(e) = std::fs::write(path, report) {
            eprintln!("drills: cannot write {path}: {e}");
            std::process::exit(1);
        }
        if !opt.quiet {
            eprintln!("drills: wrote {path}");
        }
    }

    if let Some(path) = &opt.trace_out {
        let json = match trace_replay_perfetto() {
            Ok(j) => j,
            Err(e) => {
                eprintln!("drills: {e}");
                std::process::exit(1);
            }
        };
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("drills: cannot write {path}: {e}");
            std::process::exit(1);
        }
        if !opt.quiet {
            eprintln!("drills: wrote {path}");
        }
    }

    if let Some(md) = baseline_md {
        let gate = check_regressions(&md, &outcomes, REGRESSION_THRESHOLD);
        for w in &gate.waived {
            eprintln!("drills: waived by rationale: {w}");
        }
        for f in &gate.failures {
            eprintln!("drills: GATE FAILURE: {f}");
        }
        if !gate.passed() {
            std::process::exit(1);
        }
        if !opt.quiet {
            eprintln!(
                "drills: gate passed ({} drills, {} waived)",
                outcomes.len(),
                gate.waived.len()
            );
        }
    } else if !opt.quiet {
        eprintln!("drills: {} drills ran (no --check gate)", outcomes.len());
    }
}
