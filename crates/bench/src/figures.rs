//! Figure renderers: the paper's Fig. 1 (queue evolution) and Figs. 2/3
//! (median overhead vs checkpoint interval, log-scale series with ESRP /
//! ESR / IMCR lines and φ ∈ {1, 3, 8} markers).

use std::fmt::Write as _;

use esrcg_core::queue::{Capture, RedundancyQueue};

use crate::grid::TableData;

/// One series point of Figs. 2/3: median overhead for (strategy, T, φ).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FigPoint {
    /// Cluster (checkpoint interval).
    pub t: usize,
    /// Line within the cluster.
    pub strategy: &'static str,
    /// Marker within the line.
    pub phi: usize,
    /// Median relative overhead (over locations and repetitions for the
    /// failure panel; over repetitions for the failure-free panel).
    pub overhead: f64,
}

/// Extracts the Fig. 2/3 series from a measured grid.
///
/// `with_failures` selects panel (b) (overheads under ψ = φ failures,
/// medians over both locations) versus panel (a) (failure-free). As in the
/// paper, the ESR line repeats the ESRP T = 1 result in every T cluster.
pub(crate) fn figure_series(data: &TableData, with_failures: bool) -> Vec<FigPoint> {
    let mut points = Vec::new();
    let mut ts: Vec<usize> = data.rows.iter().filter(|r| r.t > 1).map(|r| r.t).collect();
    ts.sort_unstable();
    ts.dedup();
    let mut phis: Vec<usize> = data.rows.iter().map(|r| r.phi).collect();
    phis.sort_unstable();
    phis.dedup();

    for &t in &ts {
        for strategy in ["ESRP", "ESR", "IMCR"] {
            for &phi in &phis {
                let row = match strategy {
                    "ESR" => data.row("ESRP", 1, phi),
                    s => data.row(s, t, phi),
                };
                let Some(row) = row else { continue };
                let overhead = if with_failures {
                    // Median over the two locations = midpoint of the two
                    // medians for an even sample of 2.
                    let mut o: Vec<f64> = row.failures.iter().map(|f| f.overhead).collect();
                    o.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
                    if o.is_empty() {
                        continue;
                    }
                    (o[0] + o[o.len() - 1]) / 2.0
                } else {
                    row.failure_free
                };
                points.push(FigPoint {
                    t,
                    strategy,
                    phi,
                    overhead,
                });
            }
        }
    }
    points
}

/// Renders a Fig. 2/3 panel as text: clusters by T, lines per strategy,
/// φ markers left to right, plus a crude log-scale ASCII chart.
pub(crate) fn render_figure(data: &TableData, with_failures: bool) -> String {
    let points = figure_series(data, with_failures);
    let mut out = String::new();
    let panel = if with_failures {
        "(b) node failures introduced (psi = phi)"
    } else {
        "(a) failure-free solver"
    };
    let _ = writeln!(
        out,
        "Median runtime overhead vs checkpoint interval — {}, {panel}",
        data.label
    );

    let mut ts: Vec<usize> = points.iter().map(|p| p.t).collect();
    ts.sort_unstable();
    ts.dedup();
    let mut phis: Vec<usize> = points.iter().map(|p| p.phi).collect();
    phis.sort_unstable();
    phis.dedup();

    let _ = write!(out, "{:<10}", "series");
    for &t in &ts {
        for &phi in &phis {
            let _ = write!(out, " T={t:<3} φ={phi:<2}");
        }
    }
    let _ = writeln!(out);
    for strategy in ["ESRP", "ESR", "IMCR"] {
        let _ = write!(out, "{strategy:<10}");
        for &t in &ts {
            for &phi in &phis {
                match points
                    .iter()
                    .find(|p| p.strategy == strategy && p.t == t && p.phi == phi)
                {
                    Some(p) => {
                        let _ = write!(out, " {:>9.2}%", 100.0 * p.overhead);
                    }
                    None => {
                        let _ = write!(out, " {:>10}", "-");
                    }
                }
            }
        }
        let _ = writeln!(out);
    }

    // ASCII log-scale chart: one column per (T, strategy, φ) point.
    let min_o = points
        .iter()
        .map(|p| p.overhead.max(1e-5))
        .fold(f64::INFINITY, f64::min);
    let max_o = points
        .iter()
        .map(|p| p.overhead.max(1e-5))
        .fold(0.0f64, f64::max);
    if max_o > min_o {
        let levels = 12usize;
        let pos = |o: f64| -> usize {
            let o = o.max(1e-5);
            let frac = (o / min_o).ln() / (max_o / min_o).ln();
            ((levels - 1) as f64 * frac).round() as usize
        };
        let _ = writeln!(out, "\nlog-scale sketch (E=ESRP, R=ESR, I=IMCR):");
        for level in (0..levels).rev() {
            let boundary = min_o * (max_o / min_o).powf(level as f64 / (levels - 1) as f64);
            let _ = write!(out, "{:>8.2}% |", 100.0 * boundary);
            for &t in &ts {
                for strategy in ["ESRP", "ESR", "IMCR"] {
                    let mark = match strategy {
                        "ESRP" => 'E',
                        "ESR" => 'R',
                        _ => 'I',
                    };
                    for &phi in &phis {
                        let ch = points
                            .iter()
                            .find(|p| p.strategy == strategy && p.t == t && p.phi == phi)
                            .map(|p| if pos(p.overhead) == level { mark } else { ' ' })
                            .unwrap_or(' ');
                        let _ = write!(out, "{ch}");
                    }
                    let _ = write!(out, " ");
                }
                let _ = write!(out, "| ");
            }
            let _ = writeln!(out);
        }
        let _ = write!(out, "{:>10} ", "");
        for &t in &ts {
            let cluster_width = 3 * (phis.len() + 1);
            let label = format!("T={t}");
            let _ = write!(out, "{label:^cluster_width$}");
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders the paper's Fig. 1: the queue-state evolution over iterations
/// for a checkpoint interval `t`, with the rollback target per iteration.
pub(crate) fn render_figure1(t: usize) -> String {
    assert!(
        t >= 3,
        "ESRP requires T >= 3 (T = 1 is ESR, T = 2 is rejected)"
    );
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Redundancy-queue evolution, T = {t} (paper Fig. 1). Lists show the \
         stored search-direction copies; `rollback` is how far a failure at \
         that moment reverts."
    );
    let mut q = RedundancyQueue::new();
    for j in 0..=(2 * t + 2) {
        let first = j % t == 0 && j >= t;
        let second = j % t == 1 && j > t;
        if first || second {
            q.push(j, Capture::default());
        }
        let mut cells: Vec<String> = q.iters().iter().map(|i| format!("p'({i})")).collect();
        while cells.len() < 3 {
            cells.insert(0, "_".into());
        }
        // The newest consecutive pair the queue holds is the ĵ a recovery
        // reconstructs.
        let rollback = q
            .latest_consecutive_pair()
            .map(|jh| jh.to_string())
            .unwrap_or_else(|| "restart".into());
        let note = if first {
            "ASpMV, β** stashed"
        } else if second {
            "ASpMV, starred copies taken"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "j = {j:>3}  Q = [{:<24}]  rollback -> {rollback:<8} {note}",
            cells.join(", ")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{FailureCell, TableRow};

    fn sample() -> TableData {
        let row = |strategy: &'static str, t: usize, phi: usize, ff: f64, ov: f64| TableRow {
            strategy,
            t,
            phi,
            failure_free: ff,
            failures: vec![
                FailureCell {
                    location: "start",
                    overhead: ov,
                    reconstruction: ov / 2.0,
                    wasted: 10,
                    inner_iterations: 5,
                },
                FailureCell {
                    location: "center",
                    overhead: ov * 1.5,
                    reconstruction: ov / 2.0,
                    wasted: 10,
                    inner_iterations: 5,
                },
            ],
        };
        TableData {
            label: "fixture".into(),
            t0: 1.0,
            c: 100,
            n: 64,
            n_ranks: 4,
            rows: vec![
                row("ESRP", 1, 1, 0.05, 0.08),
                row("ESRP", 20, 1, 0.01, 0.03),
                row("IMCR", 20, 1, 0.02, 0.02),
            ],
            drift_reference: 0.0,
            failure_drifts: vec![0.0],
        }
    }

    #[test]
    fn series_repeats_esr_in_every_cluster() {
        let pts = figure_series(&sample(), false);
        let esr: Vec<&FigPoint> = pts.iter().filter(|p| p.strategy == "ESR").collect();
        assert_eq!(esr.len(), 1, "one ESR point per T cluster (T=20 only)");
        assert_eq!(esr[0].overhead, 0.05, "ESR line carries the T=1 value");
        assert!(pts.iter().any(|p| p.strategy == "ESRP" && p.t == 20));
    }

    #[test]
    fn failure_panel_uses_location_midpoint() {
        let pts = figure_series(&sample(), true);
        let esrp = pts
            .iter()
            .find(|p| p.strategy == "ESRP" && p.t == 20)
            .expect("point exists");
        assert!((esrp.overhead - 0.0375).abs() < 1e-12); // (0.03 + 0.045)/2
    }

    #[test]
    fn figure_renders_both_panels() {
        let s = render_figure(&sample(), false);
        assert!(s.contains("failure-free"));
        assert!(s.contains("ESRP") && s.contains("IMCR"));
        let s = render_figure(&sample(), true);
        assert!(s.contains("failures introduced"));
    }

    #[test]
    fn figure1_matches_paper_trace() {
        let s = render_figure1(5);
        // At j = 10 (= 2T) the queue is [p'(5), p'(6), p'(10)] and the
        // rollback target is 6 — the paper's key observation.
        assert!(s.contains("j =  10  Q = [p'(5), p'(6), p'(10)"), "{s}");
        assert!(s
            .lines()
            .find(|l| l.starts_with("j =  10"))
            .unwrap()
            .contains("-> 6"));
        // Before the first complete stage, recovery is a restart.
        assert!(s
            .lines()
            .find(|l| l.starts_with("j =   5"))
            .unwrap()
            .contains("restart"));
    }
}
