//! `compare A B`: the same command checks two runs of one commit against
//! each other (A/A) and a change against its parent (before/after).
//!
//! For every workload and end-to-end metric it gives B over A, with A as the
//! base, against the bound `BENCHMARK.json` fixes. Host-clock metrics are
//! `within`, `improved`, `WORSE`, or `unresolved` when either side's own
//! repetitions spread wider than the bound (then the difference cannot be
//! told from noise, and saying "unchanged" would be a claim). Exact metrics
//! carry no noise at a fixed seed: they are `identical` by bits, `improved`,
//! or `WORSE` however small the difference — so an A/A check passes only if
//! every exact row reads `identical`, and a change meant to speed the
//! simulator up must read `identical` on all of them too.

use std::fs;
use std::path::Path;

use crate::json::{self, Value};
use crate::names::WORKLOADS;

/// One end-to-end metric as `BENCHMARK.json` defines it.
struct Bounded {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn load(path: &Path) -> Result<Value, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn bounds(benchmark_json: &Path) -> Result<Vec<Bounded>, String> {
    let doc = load(benchmark_json)?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{}: no 'end_to_end' list", benchmark_json.display()))?;
    list.iter()
        .map(|e| {
            let text = |k: &str| e.get(k).and_then(Value::as_str);
            match (
                text("name"),
                text("better"),
                e.get("bound").and_then(Value::as_f64),
            ) {
                (Some(name), Some(better @ ("lower" | "higher")), Some(bound)) => Ok(Bounded {
                    name: name.to_string(),
                    lower_is_better: better == "lower",
                    bound,
                }),
                _ => Err(format!(
                    "{}: an end_to_end entry lacks name, better or bound",
                    benchmark_json.display()
                )),
            }
        })
        .collect()
}

/// The measured-run result files under `path`: the file itself, or every
/// `<workload>.run.json` of a directory, keyed by workload.
fn results(path: &Path) -> Result<Vec<(String, Value)>, String> {
    let files: Vec<_> = if path.is_dir() {
        WORKLOADS
            .iter()
            .map(|w| path.join(format!("{w}.run.json")))
            .filter(|p| p.is_file())
            .collect()
    } else {
        vec![path.to_path_buf()]
    };
    if files.is_empty() {
        return Err(format!("{}: no <workload>.run.json files", path.display()));
    }
    files
        .iter()
        .map(|f| {
            let doc = load(f)?;
            match (
                doc.get("workload").and_then(Value::as_str),
                doc.get("mode").and_then(Value::as_str),
            ) {
                (Some(w), Some("run")) => Ok((w.to_string(), doc)),
                _ => Err(format!("{}: not a measured-run result file", f.display())),
            }
        })
        .collect()
}

/// Spread of a metric's own repetitions: (q3 − q1) / median, 0 for a
/// metric that is not a statistic over repetitions.
fn own_spread(metric: &Value) -> f64 {
    let q = |k: &str| metric.get(k).and_then(Value::as_f64);
    match (q("q1"), q("median"), q("q3")) {
        (Some(q1), Some(median), Some(q3)) => (q3 - q1) / median,
        _ => 0.0,
    }
}

/// The verdict on one (workload, metric) pair and whether it is a breach.
fn verdict(m: &Bounded, a: &Value, b: &Value) -> Result<(String, bool), String> {
    let value = |v: &Value| {
        v.get("value")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("metric '{}' has no value", m.name))
    };
    let (va, vb) = (value(a)?, value(b)?);
    let worse_by = if m.lower_is_better { vb - va } else { va - vb } / va.abs();
    let exact = a.get("exact") == Some(&Value::Bool(true));
    Ok(if exact {
        if va.to_bits() == vb.to_bits() {
            ("identical".into(), false)
        } else if worse_by > 0.0 {
            (format!("WORSE by {:.3} % (exact)", 100.0 * worse_by), true)
        } else {
            (
                format!("improved by {:.3} % (exact)", -100.0 * worse_by),
                false,
            )
        }
    } else {
        let spread = own_spread(a).max(own_spread(b));
        if spread > m.bound {
            (
                format!("unresolved (own spread {:.1} %)", 100.0 * spread),
                false,
            )
        } else if worse_by > m.bound {
            (format!("WORSE by {:.1} %", 100.0 * worse_by), true)
        } else if worse_by < -m.bound {
            (format!("improved by {:.1} %", -100.0 * worse_by), false)
        } else {
            ("within".into(), false)
        }
    })
}

/// Compares the result files under `a` and `b`; returns whether any pair
/// breached its bound.
///
/// # Errors
/// Returns unreadable or mismatched inputs: a workload present on one side
/// only, different seeds, a metric `BENCHMARK.json` lists that a file lacks.
pub fn compare(a: &Path, b: &Path, benchmark_json: &Path) -> Result<bool, String> {
    let metrics = bounds(benchmark_json)?;
    let (ra, rb) = (results(a)?, results(b)?);
    let names = |r: &[(String, Value)]| r.iter().map(|(w, _)| w.clone()).collect::<Vec<_>>();
    if names(&ra) != names(&rb) {
        return Err(format!(
            "the two sides hold different workloads: {:?} vs {:?}",
            names(&ra),
            names(&rb)
        ));
    }
    println!(
        "{:<15} {:<13} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "bound"
    );
    let mut breached = false;
    for ((workload, da), (_, db)) in ra.iter().zip(&rb) {
        if da.get("seed") != db.get("seed") {
            return Err(format!("{workload}: the two sides ran different seeds"));
        }
        for (side, doc) in [("A", da), ("B", db)] {
            let failed = doc
                .get("failed")
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN);
            if failed != 0.0 {
                println!("{workload:<15} side {side}: {failed} ops FAILED");
                breached = true;
            }
        }
        for m in &metrics {
            let of = |doc: &Value, side: &str| {
                doc.get("metrics")
                    .and_then(|ms| ms.get(&m.name))
                    .cloned()
                    .ok_or_else(|| format!("{workload}: side {side} lacks metric '{}'", m.name))
            };
            let (ma, mb) = (of(da, "A")?, of(db, "B")?);
            let (text, breach) = verdict(m, &ma, &mb)?;
            breached |= breach;
            let v = |x: &Value| x.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            println!(
                "{:<15} {:<13} {:>14.6} {:>14.6} {:>8.4} {:>5.0}%  {}",
                workload,
                m.name,
                v(&ma),
                v(&mb),
                v(&mb) / v(&ma),
                100.0 * m.bound,
                text
            );
        }
    }
    println!(
        "{}",
        if breached {
            "BREACH: at least one pair is worse than its bound allows"
        } else {
            "no pair is worse than its bound allows"
        }
    );
    Ok(breached)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Object;

    fn metric(value: f64, exact: bool, quartiles: Option<[f64; 3]>) -> Value {
        let mut m = Object::new();
        m.set("value", value).set("exact", exact);
        if let Some([q1, q2, q3]) = quartiles {
            m.set("q1", q1).set("median", q2).set("q3", q3);
        }
        Value::Obj(m)
    }

    fn lower(bound: f64) -> Bounded {
        Bounded {
            name: "wall_s".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn host_metrics_are_judged_against_the_bound() {
        let tight = Some([0.99, 1.0, 1.01]);
        let a = metric(1.0, false, tight);
        let within = verdict(&lower(0.1), &a, &metric(1.08, false, tight)).unwrap();
        assert_eq!(within, ("within".to_string(), false));
        let (text, breach) = verdict(&lower(0.1), &a, &metric(1.2, false, tight)).unwrap();
        assert!(breach && text.starts_with("WORSE by 20.0"), "{text}");
        let (text, breach) = verdict(&lower(0.1), &a, &metric(0.8, false, tight)).unwrap();
        assert!(!breach && text.starts_with("improved by 20.0"), "{text}");
        // Higher-is-better flips the direction.
        let higher = Bounded {
            lower_is_better: false,
            ..lower(0.1)
        };
        assert!(verdict(&higher, &a, &metric(0.8, false, tight)).unwrap().1);
    }

    #[test]
    fn a_side_noisier_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = Some([0.9, 1.0, 1.1]); // 20 % own spread
        let (text, breach) = verdict(
            &lower(0.1),
            &metric(1.0, false, Some([0.99, 1.0, 1.01])),
            &metric(1.3, false, noisy),
        )
        .unwrap();
        assert!(!breach && text.starts_with("unresolved"), "{text}");
    }

    #[test]
    fn exact_metrics_are_compared_by_bits() {
        let a = metric(0.1 + 0.2, true, None);
        let same = verdict(&lower(0.05), &a, &metric(0.1 + 0.2, true, None)).unwrap();
        assert_eq!(same, ("identical".to_string(), false));
        // One ulp worse is a breach however wide the bound: nothing but a
        // change of the modeled execution can move an exact metric.
        let ulp_up = f64::from_bits((0.1f64 + 0.2).to_bits() + 1);
        let (text, breach) = verdict(&lower(0.05), &a, &metric(ulp_up, true, None)).unwrap();
        assert!(breach && text.starts_with("WORSE"), "{text}");
        let (text, breach) = verdict(&lower(0.05), &a, &metric(0.29, true, None)).unwrap();
        assert!(!breach && text.starts_with("improved"), "{text}");
    }
}
