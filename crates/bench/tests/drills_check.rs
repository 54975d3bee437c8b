//! `drills --check` through the binary: the tracked `BENCH_drills.txt`
//! passes, and a copy with one digit edited exits 1 and names the line.

use std::process::Command;

fn check(path: &std::path::Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_drills"))
        .args(["--workers", "2", "--quiet", "--check"])
        .arg(path)
        .output()
        .expect("drills runs")
}

#[test]
fn check_passes_on_the_tracked_file_and_names_the_line_of_a_one_digit_edit() {
    let tracked = std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_drills.txt"
    ));
    let out = check(tracked);
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(tracked).expect("BENCH_drills.txt is tracked");
    assert_eq!(String::from_utf8_lossy(&out.stdout), text);

    // Line 7 with the last digit of its recovery time changed.
    let want = text.lines().nth(6).expect("twelve lines");
    let (head, tail) = want.split_once(" iters_overhead=").expect("artifact line");
    let (head, digit) = head.split_at(head.len() - 1);
    let other = if digit == "0" { "1" } else { "0" };
    let edited = format!("{head}{other} iters_overhead={tail}");
    let copy = std::env::temp_dir().join(format!("esrcg_drills_{}.txt", std::process::id()));
    std::fs::write(&copy, text.replace(want, &edited)).expect("temp file");
    let out = check(&copy);
    std::fs::remove_file(&copy).ok();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let report = format!(
        "{}:7 differs\n  expected: {edited}\n  got:      {want}\n",
        copy.display()
    );
    assert!(stderr.contains(&report), "{stderr}");
    assert_eq!(stderr.matches(" differs\n").count(), 1, "{stderr}");
}
