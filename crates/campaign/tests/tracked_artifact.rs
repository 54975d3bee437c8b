//! The smoke campaign renders the tracked `BENCH_campaign.json` byte for
//! byte, at one fleet worker and at two: `campaign --smoke --out` ≟ the
//! tracked file, under `cargo test`. A mismatch names the first differing
//! line.

use esrcg_campaign::{CampaignRunner, CampaignSpec};

/// Panics naming the first line where `got` differs from `want`.
fn assert_same_text(what: &str, want: &str, got: &str) {
    if want == got {
        return;
    }
    let (mut want_lines, mut got_lines) = (want.lines(), got.lines());
    for line in 1.. {
        match (want_lines.next(), got_lines.next()) {
            (Some(w), Some(g)) if w == g => {}
            (None, None) => panic!("{what}: the line endings differ"),
            (w, g) => panic!(
                "{what}:{line} differs\n  expected: {}\n  got:      {}",
                w.unwrap_or("<end of file>"),
                g.unwrap_or("<end of file>")
            ),
        }
    }
}

#[test]
fn the_smoke_campaign_renders_the_tracked_artifact_at_one_and_two_workers() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_campaign.json");
    let tracked = std::fs::read_to_string(path).expect("BENCH_campaign.json is tracked");
    for workers in [1, 2] {
        let report = CampaignRunner::new(workers)
            .run(&CampaignSpec::smoke())
            .expect("smoke campaign runs");
        let what = format!("BENCH_campaign.json at {workers} workers");
        assert_same_text(&what, &tracked, &report.to_json());
    }
}
