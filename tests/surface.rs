//! The surface of the workspace as a committed number: `SURFACE.txt` holds,
//! per crate, the non-blank, non-comment lines and the `pub` items of its
//! sources before their test module; then the `SolverConfig` fields, the
//! `--` flags each bin matches on, the environment variables the sources
//! read and the cargo features. A change that grows or shrinks any of them
//! shows as a diff of that file, so the file is the change's ledger of
//! what it added and what it retired.
//!
//! The inventory walks `crates/*/src` and `src`. A file is read up to its
//! test module: the first `#[cfg(test)]` line whose next non-blank line
//! opens a `mod`. A line counts when, trimmed, it is non-empty and does not
//! start with `//`; a `pub` item is a counted line that starts with `pub `
//! and an item keyword (`pub(crate)` and `pub` fields do not count).
//!
//! When the inventory differs, the test names the first differing line and
//! writes the fresh inventory to the cargo target's test scratch directory;
//! copy it over `SURFACE.txt` when the change is intended.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

const ITEM_KEYWORDS: [&str; 11] = [
    "fn", "struct", "enum", "trait", "const", "static", "type", "mod", "use", "unsafe", "union",
];

/// Every `.rs` file under `dir`, sorted by path.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .expect("readable directory")
        .map(|e| e.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The counted lines of `text` before its test module, trimmed.
fn code_lines(text: &str) -> Vec<&str> {
    let lines: Vec<&str> = text.lines().map(str::trim).collect();
    let test_module = (0..lines.len()).find(|&i| {
        let next = lines[i + 1..].iter().find(|l| !l.is_empty());
        lines[i] == "#[cfg(test)]" && next.is_some_and(|l| l.starts_with("mod "))
    });
    let body = &lines[..test_module.unwrap_or(lines.len())];
    body.iter()
        .copied()
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .collect()
}

fn is_pub_item(line: &str) -> bool {
    let Some(rest) = line.strip_prefix("pub ") else {
        return false;
    };
    let keyword = rest.split(|c: char| !c.is_alphanumeric()).next();
    keyword.is_some_and(|k| ITEM_KEYWORDS.contains(&k))
}

/// The `name = "…"` of a manifest's `[package]` table.
fn package_name(manifest: &str) -> String {
    let line = manifest
        .lines()
        .skip_while(|l| l.trim() != "[package]")
        .find(|l| l.trim_start().starts_with("name"))
        .expect("a package name");
    line.split('"').nth(1).expect("a quoted name").to_string()
}

/// The entries of a manifest's `[features]` table.
fn features(manifest: &str) -> Vec<String> {
    let table = manifest
        .lines()
        .skip_while(|l| l.trim() != "[features]")
        .skip(1);
    let entries = table.take_while(|l| !l.trim_start().starts_with('['));
    let names = entries.filter_map(|l| l.split_once('=').map(|(k, _)| k.trim().to_string()));
    names
        .filter(|k| !k.is_empty() && !k.starts_with('#'))
        .collect()
}

/// The string literals in `line` that follow `marker`.
fn quoted_after<'a>(line: &'a str, marker: &str) -> Vec<&'a str> {
    let pieces = line.split(marker).skip(1);
    pieces.filter_map(|p| p.split('"').next()).collect()
}

fn inventory(root: &Path) -> String {
    let mut crates: Vec<PathBuf> = vec![root.to_path_buf()];
    let mut members: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("a crates directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    members.sort();
    crates.extend(members);

    let mut out = String::new();
    let mut config_fields = Vec::new();
    let mut flags = Vec::new();
    let mut env_vars = BTreeSet::new();
    let mut all_features = Vec::new();
    for dir in &crates {
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).expect("a manifest");
        let name = package_name(&manifest);
        all_features.extend(
            features(&manifest)
                .into_iter()
                .map(|f| format!("{name} {f}")),
        );
        let mut files = Vec::new();
        rs_files(&dir.join("src"), &mut files);
        let (mut lines, mut items) = (0, 0);
        for file in &files {
            let text = fs::read_to_string(file).expect("a readable source");
            let code = code_lines(&text);
            lines += code.len();
            items += code.iter().filter(|l| is_pub_item(l)).count();
            let rel = file.strip_prefix(dir.join("src")).expect("under src");
            if rel.starts_with("bin") {
                let bin = rel
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .expect("a bin name");
                for line in code
                    .iter()
                    .filter(|l| l.starts_with("\"--") && l.contains("=>"))
                {
                    let (arms, _) = line.split_once("=>").expect("a match arm");
                    for arm in arms.split('|') {
                        flags.push(format!("{bin} {}", arm.trim().trim_matches('"')));
                    }
                }
            }
            for line in &code {
                for marker in ["env::var(\"", "env::var_os(\"", "env!(\""] {
                    env_vars.extend(quoted_after(line, marker).into_iter().map(String::from));
                }
            }
            let fields = code
                .iter()
                .skip_while(|l| **l != "pub struct SolverConfig {")
                .skip(1)
                .take_while(|l| **l != "}");
            for field in fields.filter(|l| l.starts_with("pub ")) {
                let (name, _) = field["pub ".len()..].split_once(':').expect("a field");
                config_fields.push(name.to_string());
            }
        }
        writeln!(out, "crate {name}: {lines} lines, {items} pub items").unwrap();
    }
    let none = |v: &mut Vec<String>| {
        if v.is_empty() {
            v.push("(none)".into());
        }
    };
    let mut env_vars: Vec<String> = env_vars.into_iter().collect();
    none(&mut config_fields);
    none(&mut flags);
    none(&mut env_vars);
    none(&mut all_features);
    for (label, list) in [
        ("SolverConfig field", &config_fields),
        ("flag", &flags),
        ("env var", &env_vars),
        ("feature", &all_features),
    ] {
        for entry in list {
            writeln!(out, "{label} {entry}").unwrap();
        }
    }
    out
}

#[test]
fn the_surface_matches_surface_txt() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let got = inventory(&root);
    let expected = fs::read_to_string(root.join("SURFACE.txt")).unwrap_or_default();
    if got == expected {
        return;
    }
    let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join("SURFACE.txt");
    fs::write(&fresh, &got).expect("writable target scratch");
    let (mut e, mut g) = (expected.lines(), got.lines());
    let line = (1..)
        .find_map(|n| {
            let (a, b) = (e.next(), g.next());
            (a != b).then(|| format!("line {n}: expected {a:?}, got {b:?}"))
        })
        .expect("the inventories differ");
    panic!(
        "SURFACE.txt differs from the tree at {line}; the fresh inventory is in {}",
        fresh.display()
    );
}

#[test]
fn the_line_scan_stops_at_the_test_module_and_skips_comments() {
    let text = "//! doc\npub fn a() {}\n\n    // note\n#[cfg(test)]\npub(crate) fn b() {}\n\
                pub struct C {\n    pub d: u8,\n}\n#[cfg(test)]\n\nmod tests {\n    fn e() {}\n}\n";
    let code = code_lines(text);
    assert_eq!(
        code,
        [
            "pub fn a() {}",
            "#[cfg(test)]",
            "pub(crate) fn b() {}",
            "pub struct C {",
            "pub d: u8,",
            "}"
        ]
    );
    let items: Vec<_> = code.iter().filter(|l| is_pub_item(l)).collect();
    assert_eq!(items, [&"pub fn a() {}", &"pub struct C {"]);
}
