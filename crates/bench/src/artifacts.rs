//! What the `paper` binary prints and writes, rendered as strings so that
//! tests can compare them with the tracked `BENCH_paper_small/` byte for
//! byte.

use crate::figures::{render_figure, render_figure1};
use crate::format::{render_csv, render_drift_table, render_overhead_table};
use crate::grid::{run_table, TableData, TableSpec};

/// Runs the grids `artifact` needs — `emilia`, `audikw` or both, each once;
/// `spec` builds each one's [`TableSpec`] — and renders what `paper
/// <artifact>` prints. Returns that text and, per grid in run order, its
/// label and CSV; `None` for an unknown artifact.
pub fn render_paper(
    artifact: &str,
    spec: impl Fn(&str) -> TableSpec,
) -> Option<(String, Vec<(String, String)>)> {
    let needs: &[&str] = match artifact {
        "table2" | "fig2" => &["emilia"],
        "table3" | "fig3" => &["audikw"],
        "table4" | "all" => &["emilia", "audikw"],
        "fig1" => &[],
        _ => return None,
    };
    let mut grids: Vec<(&str, TableData)> = Vec::new();
    for &which in needs {
        let spec = spec(which);
        if spec.progress {
            eprintln!(
                "running {} grid ({} ranks, {} reps; this is the slow part)...",
                spec.label, spec.n_ranks, spec.reps
            );
        }
        grids.push((which, run_table(&spec)));
    }
    let grid = |which: &str| &grids.iter().find(|g| g.0 == which).expect("grid ran").1;

    let mut out = String::new();
    let mut section = |title: &str, bodies: &[String]| {
        out.push_str(&format!("=== {title} ===\n\n"));
        for body in bodies {
            out.push_str(body);
            out.push('\n');
        }
    };
    let all = artifact == "all";
    if artifact == "fig1" || all {
        section(
            "Figure 1: redundancy-queue evolution",
            &[render_figure1(20)],
        );
    }
    if artifact == "table2" || all {
        let table = render_overhead_table(grid("emilia"));
        section("Table 2: overheads, Emilia_923 stand-in", &[table]);
    }
    if artifact == "table3" || all {
        let table = render_overhead_table(grid("audikw"));
        section("Table 3: overheads, audikw_1 stand-in", &[table]);
    }
    if artifact == "table4" || all {
        let tables: Vec<&TableData> = grids.iter().map(|g| &g.1).collect();
        section("Table 4: residual drift", &[render_drift_table(&tables)]);
    }
    for (fig, which, name) in [
        ("fig2", "emilia", "Figure 2: Emilia_923 stand-in"),
        ("fig3", "audikw", "Figure 3: audikw_1 stand-in"),
    ] {
        if artifact == fig || all {
            let data = grid(which);
            section(
                name,
                &[render_figure(data, false), render_figure(data, true)],
            );
        }
    }
    let csvs = grids
        .iter()
        .map(|(_, data)| (data.label.clone(), render_csv(data)));
    Some((out, csvs.collect()))
}
