//! Rendering of the measured grids in the paper's table layouts.

use std::fmt::Write as _;

use crate::grid::TableData;

/// Renders a [`TableData`] in the layout of the paper's Tables 2/3:
/// failure-free overhead, overhead with node failures, and reconstruction
/// overhead, by strategy × T × φ × location.
pub(crate) fn render_overhead_table(data: &TableData) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Results for {} (n = {}, {} ranks). Reference t0 = {:.3} ms (modeled), \
         C = {} iterations.",
        data.label,
        data.n,
        data.n_ranks,
        data.t0 * 1e3,
        data.c
    );
    let _ = writeln!(
        out,
        "All overheads relative to t0; medians over repetitions. \
         psi = phi node failures per event."
    );
    let phis: Vec<usize> = {
        let mut p: Vec<usize> = data.rows.iter().map(|r| r.phi).collect();
        p.sort_unstable();
        p.dedup();
        p
    };

    // Header.
    let _ = write!(out, "{:<8} {:>4} | ", "Strategy", "T");
    for &phi in &phis {
        let _ = write!(out, "ff phi={phi:<2} ");
    }
    let _ = write!(out, "| {:<8} ", "Location");
    for &phi in &phis {
        let _ = write!(out, "ov psi={phi:<2} ");
    }
    let _ = write!(out, "| ");
    for &phi in &phis {
        let _ = write!(out, "rc psi={phi:<2} ");
    }
    let _ = writeln!(out, "|  (all in %)");
    let width = out.lines().last().map(str::len).unwrap_or(100);
    let _ = writeln!(out, "{}", "-".repeat(width));

    // Rows grouped by (strategy, T); the paper prints one line per location.
    let mut keys: Vec<(&str, usize)> = data.rows.iter().map(|r| (r.strategy, r.t)).collect();
    keys.dedup();
    for (strategy, t) in keys {
        for (li, location) in ["start", "center"].iter().enumerate() {
            if li == 0 {
                let _ = write!(out, "{strategy:<8} {t:>4} | ");
                for &phi in &phis {
                    match data.row(strategy, t, phi) {
                        Some(r) => {
                            let _ = write!(out, "{:>8.2} ", 100.0 * r.failure_free);
                        }
                        None => {
                            let _ = write!(out, "{:>8} ", "-");
                        }
                    }
                }
            } else {
                let _ = write!(out, "{:<8} {:>4} | ", "", "");
                for _ in &phis {
                    let _ = write!(out, "{:>8} ", "");
                }
            }
            let _ = write!(out, "| {location:<8} ");
            for &phi in &phis {
                let cell = data
                    .row(strategy, t, phi)
                    .and_then(|r| r.failures.iter().find(|f| f.location == *location));
                match cell {
                    Some(f) => {
                        let _ = write!(out, "{:>8.2} ", 100.0 * f.overhead);
                    }
                    None => {
                        let _ = write!(out, "{:>8} ", "-");
                    }
                }
            }
            let _ = write!(out, "| ");
            for &phi in &phis {
                let cell = data
                    .row(strategy, t, phi)
                    .and_then(|r| r.failures.iter().find(|f| f.location == *location));
                match cell {
                    Some(f) => {
                        let _ = write!(out, "{:>8.2} ", 100.0 * f.reconstruction);
                    }
                    None => {
                        let _ = write!(out, "{:>8} ", "-");
                    }
                }
            }
            let _ = writeln!(out, "|");
        }
    }
    out
}

/// Renders the paper's Table 4 (residual drift) for a set of workloads.
pub(crate) fn render_drift_table(tables: &[&TableData]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Residual drift (paper Eq. 2): (‖r‖₂ − ‖b−Ax‖₂)/‖b−Ax‖₂ at convergence."
    );
    let _ = writeln!(
        out,
        "{:<28} {:>14} {:>14} {:>14}",
        "Matrix", "Reference", "Median", "Minimum"
    );
    for t in tables {
        let _ = writeln!(
            out,
            "{:<28} {:>14.3e} {:>14.3e} {:>14.3e}",
            t.label,
            t.drift_reference,
            t.drift_median(),
            t.drift_min()
        );
    }
    out
}

/// Renders the grid as CSV (one line per strategy × T × φ × location).
pub(crate) fn render_csv(data: &TableData) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "matrix,n,n_ranks,t0_seconds,c,strategy,t,phi,failure_free_overhead,\
         location,failure_overhead,reconstruction_overhead,wasted_iterations,\
         inner_iterations"
    );
    for r in &data.rows {
        for f in &r.failures {
            let _ = writeln!(
                out,
                "{},{},{},{:.9},{},{},{},{},{:.6},{},{:.6},{:.6},{},{}",
                data.label,
                data.n,
                data.n_ranks,
                data.t0,
                data.c,
                r.strategy,
                r.t,
                r.phi,
                r.failure_free,
                f.location,
                f.overhead,
                f.reconstruction,
                f.wasted,
                f.inner_iterations
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{FailureCell, TableRow};

    fn sample() -> TableData {
        TableData {
            label: "sample".into(),
            t0: 0.1,
            c: 500,
            n: 1000,
            n_ranks: 8,
            rows: vec![TableRow {
                strategy: "ESRP",
                t: 20,
                phi: 1,
                failure_free: 0.015,
                failures: vec![
                    FailureCell {
                        location: "start",
                        overhead: 0.04,
                        reconstruction: 0.02,
                        wasted: 17,
                        inner_iterations: 50,
                    },
                    FailureCell {
                        location: "center",
                        overhead: 0.05,
                        reconstruction: 0.025,
                        wasted: 17,
                        inner_iterations: 40,
                    },
                ],
            }],
            drift_reference: -1e-2,
            failure_drifts: vec![-2e-2, -5e-3, -3e-2],
        }
    }

    #[test]
    fn overhead_table_contains_cells() {
        let s = render_overhead_table(&sample());
        assert!(s.contains("ESRP"));
        assert!(s.contains("1.50"), "failure-free %:\n{s}");
        assert!(s.contains("4.00") && s.contains("5.00"));
        assert!(s.contains("start") && s.contains("center"));
    }

    #[test]
    fn drift_table_reports_stats() {
        let t = sample();
        let s = render_drift_table(&[&t]);
        assert!(s.contains("sample"));
        assert!(s.contains("-1.000e-2") || s.contains("-1.000e-02"), "{s}");
    }

    #[test]
    fn csv_has_one_line_per_location() {
        let s = render_csv(&sample());
        assert_eq!(s.lines().count(), 3); // header + 2 locations
        assert!(s.lines().nth(1).unwrap().contains("ESRP,20,1"));
    }
}
