//! `paper all --scale small` through the library: its stdout and both CSVs
//! are the tracked `BENCH_paper_small/` byte for byte (`paper all --scale
//! small --quiet --csv DIR` ≟ the tracked directory, under `cargo test`). A
//! mismatch names the first differing line.

use esrcg_bench::{render_paper, Scale, TableSpec};

/// Panics naming the first line where `got` differs from the tracked
/// `BENCH_paper_small/<name>`.
fn assert_tracked(name: &str, got: &str) {
    let path = format!(
        "{}/../../BENCH_paper_small/{name}",
        env!("CARGO_MANIFEST_DIR")
    );
    let want = std::fs::read_to_string(&path).expect("BENCH_paper_small/ is tracked");
    if want == got {
        return;
    }
    let (mut want_lines, mut got_lines) = (want.lines(), got.lines());
    for line in 1.. {
        match (want_lines.next(), got_lines.next()) {
            (Some(w), Some(g)) if w == g => {}
            (None, None) => panic!("{name}: the line endings differ"),
            (w, g) => panic!(
                "{name}:{line} differs\n  expected: {}\n  got:      {}",
                w.unwrap_or("<end of file>"),
                g.unwrap_or("<end of file>")
            ),
        }
    }
}

#[test]
fn the_small_tables_reproduce_the_tracked_files() {
    let quiet = |which: &str| TableSpec {
        progress: false,
        ..Scale::Small.table_spec(which)
    };
    let (stdout, csvs) = render_paper("all", quiet).expect("a known artifact");
    assert_tracked("stdout.txt", &stdout);
    let labels: Vec<&str> = csvs.iter().map(|(label, _)| label.as_str()).collect();
    assert_eq!(labels, ["emilia-like", "audikw-like"]);
    for (label, csv) in &csvs {
        assert_tracked(&format!("{label}.csv"), csv);
    }
}
