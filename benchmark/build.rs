//! Records the version of the compiler that builds the harness, so result
//! files name the rustc the numbers were measured with, not whichever one
//! happens to be on `PATH` when the benchmark later runs.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=BENCHMARK_RUSTC_VERSION={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
