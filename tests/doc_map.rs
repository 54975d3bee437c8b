//! The documentation map points at files that exist: every backticked
//! `….rs` path in `ARCHITECTURE.md`, `PAPER.md` and `README.md` names a
//! source file of the tree, so deleting or moving a file cannot leave the
//! docs pointing at nothing.
//!
//! A path may be written from the repository root (`crates/core/src/pcg.rs`),
//! from a crate (`esrcg-core/src/pcg.rs`, `core/src/pcg.rs`) or as a bare
//! file name (`pcg.rs`); it resolves when some source file's path ends
//! with it, component by component.

use std::fs;
use std::path::{Path, PathBuf};

const DOCS: [&str; 3] = ["ARCHITECTURE.md", "PAPER.md", "README.md"];

/// Every `.rs` file under `dir`, as `/`-joined paths relative to `root`,
/// skipping build output and hidden directories.
fn sources(root: &Path, dir: &Path, out: &mut Vec<String>) {
    for entry in fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                sources(root, &path, out);
            }
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).expect("under the root");
            let parts: Vec<_> = rel.iter().map(|c| c.to_string_lossy()).collect();
            out.push(parts.join("/"));
        }
    }
}

/// The inline-code tokens of `text` that end in `.rs` and contain no
/// space. Code spans are read line by line, outside fenced blocks.
fn rs_paths(text: &str) -> Vec<&str> {
    let mut fenced = false;
    let mut out = Vec::new();
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced {
            continue;
        }
        let spans = line.split('`').skip(1).step_by(2);
        out.extend(spans.filter(|t| t.ends_with(".rs") && !t.contains(char::is_whitespace)));
    }
    out
}

#[test]
fn every_rs_path_in_the_docs_exists() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    sources(&root, &root, &mut files);
    let mut missing = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).expect("doc readable");
        for path in rs_paths(&text) {
            // `esrcg-core/src/…` names the crate's package; its directory
            // is `crates/core`.
            let path = path.strip_prefix("esrcg-").unwrap_or(path);
            let suffix = format!("/{path}");
            if !files.iter().any(|f| *f == path || f.ends_with(&suffix)) {
                missing.push(format!("{doc}: `{path}`"));
            }
            checked += 1;
        }
    }
    assert!(checked > 0, "the docs name no source file at all");
    assert!(
        missing.is_empty(),
        "paths naming no file:\n{}",
        missing.join("\n")
    );
}

#[test]
fn the_path_scan_reads_only_backticked_rs_tokens() {
    let text = "see `a/b.rs` and `c.rs`, not d.rs, `x y.rs` or `e.rsx`\n\
                ```text\n`f.rs` in a fence\n```\nafter `g.rs`";
    assert_eq!(rs_paths(text), ["a/b.rs", "c.rs", "g.rs"]);
}
