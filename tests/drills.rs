//! The recovery-drill harness, end to end: every cataloged scenario runs,
//! exercises the recovery path it names, and emits artifact lines that are
//! byte-stable across fleet worker counts and byte-equal to the tracked
//! `BENCH_drills.txt`.

use esrcg_bench::drills::{artifact_text, run_all, run_drill, DrillOutcome, DRILLS};

fn by_name<'a>(outcomes: &'a [DrillOutcome], name: &str) -> &'a DrillOutcome {
    outcomes
        .iter()
        .find(|o| o.name == name)
        .unwrap_or_else(|| panic!("drill {name} missing from the catalog run"))
}

#[test]
fn every_drill_exercises_its_named_recovery_path() {
    let outcomes = run_all(2).expect("catalog runs");
    assert_eq!(outcomes.len(), DRILLS.len());

    for o in &outcomes {
        assert!(
            o.recoveries >= 1,
            "{}: drills must drive a recovery",
            o.name
        );
        assert!(
            o.recovery_modeled_s > 0.0,
            "{}: recovery costs modeled time",
            o.name
        );
    }

    // The pre-recovery-point drill is the only full restart in the catalog.
    for o in &outcomes {
        let expected = usize::from(o.name == "esrp-pre-recovery-point-full-restart");
        assert_eq!(
            o.full_restarts, expected,
            "{}: full restarts misattributed",
            o.name
        );
    }

    // The stochastic pairs replay the same schedule, so the event counts
    // match within each pair; any delta is the tuner's doing.
    for (fixed, auto) in [("exp-fixed-t", "exp-auto"), ("burst-fixed-t", "burst-auto")] {
        let f = by_name(&outcomes, fixed);
        let a = by_name(&outcomes, auto);
        assert_eq!(f.recoveries, a.recoveries, "{fixed} vs {auto}");
        assert!(
            f.recoveries >= 3,
            "{fixed}: the trace must feed the tuner enough failures, got {}",
            f.recoveries
        );
        assert!(
            a.iters_overhead <= f.iters_overhead,
            "{auto}: re-tuning must not redo more work than fixed T \
             ({} vs {})",
            a.iters_overhead,
            f.iters_overhead
        );
    }
}

#[test]
fn artifact_lines_are_byte_identical_across_worker_counts() {
    let reference = artifact_text(&run_all(1).expect("1 worker"));
    for workers in [4usize, 8] {
        let lines = artifact_text(&run_all(workers).expect("catalog runs"));
        assert_eq!(reference, lines, "{workers} workers");
    }
    for name in DRILLS {
        assert!(
            reference.contains(&format!("drill={name} recovery_modeled_s=")),
            "missing artifact line for {name}"
        );
    }
}

#[test]
fn unknown_drills_are_rejected() {
    assert!(run_drill("no-such-drill").unwrap_err().contains("unknown"));
}

/// The modeled clock is deterministic, so the tracked file is an exact
/// oracle: a change that moves any recovery number fails here (tier-1, not
/// only CI), naming the first differing line, until `BENCH_drills.txt` is
/// re-recorded on purpose.
#[test]
fn tracked_artifact_is_reproduced_byte_for_byte() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_drills.txt");
    let tracked = std::fs::read_to_string(path).expect("BENCH_drills.txt is tracked");
    let got = artifact_text(&run_all(2).expect("catalog runs"));
    let (mut want_lines, mut got_lines) = (tracked.lines(), got.lines());
    for line in 1.. {
        match (want_lines.next(), got_lines.next()) {
            (Some(w), Some(g)) if w == g => {}
            (None, None) => break,
            (w, g) => panic!(
                "BENCH_drills.txt:{line} differs\n  expected: {}\n  got:      {}",
                w.unwrap_or("<end of file>"),
                g.unwrap_or("<end of file>")
            ),
        }
    }
    assert_eq!(got, tracked, "the line endings differ");
}
