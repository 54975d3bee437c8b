//! What a run reports: the metric set checked against the name tables,
//! the one-line result the benchmark contract reads, and the result file
//! `compare` reads back.

use std::fs;
use std::path::{Path, PathBuf};

use crate::host;
use crate::json::{Object, Value};
use crate::names::MetricDef;
use crate::stats;

/// A run is flagged, not failed, when the hypervisor stole more than this
/// share of the host's CPU time during it, or when a metric's repetitions
/// spread (interquartile range over median) wider than this.
const FLAG_SHARE: f64 = 0.10;

/// One reported metric: the value plus the repetitions behind it, if it is
/// a statistic over repetitions.
#[derive(Debug, Clone)]
struct Entry {
    def: &'static MetricDef,
    value: f64,
    reps: Vec<f64>,
}

/// The metrics of one run, filled by name against one of the tables of
/// [`crate::names`].
#[derive(Debug)]
pub struct MetricSet {
    table: &'static [MetricDef],
    entries: Vec<Entry>,
}

impl MetricSet {
    /// An empty set that accepts exactly the names of `table`.
    pub fn new(table: &'static [MetricDef]) -> Self {
        MetricSet {
            table,
            entries: Vec::with_capacity(table.len()),
        }
    }

    /// Records a single measured or exact value.
    ///
    /// # Panics
    /// Panics on a name outside the table or recorded twice: the harness
    /// and the tables disagree, which is a bug here, never input.
    pub fn put(&mut self, name: &str, value: f64) {
        self.put_reps(name, value, Vec::new());
    }

    /// Records a statistic `value` over the repetitions `reps`.
    ///
    /// # Panics
    /// As [`MetricSet::put`].
    pub fn put_reps(&mut self, name: &str, value: f64, reps: Vec<f64>) {
        let def = self
            .table
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric '{name}' is not in the name table"));
        assert!(
            self.entries.iter().all(|e| e.def.name != name),
            "metric '{name}' recorded twice"
        );
        self.entries.push(Entry { def, value, reps });
    }

    /// Checks the set against its table: every name present, every value a
    /// finite number.
    ///
    /// # Errors
    /// Names what is missing or not finite.
    pub fn finish(mut self) -> Result<MetricSet, String> {
        let missing: Vec<&str> = self
            .table
            .iter()
            .map(|m| m.name)
            .filter(|n| self.entries.iter().all(|e| e.def.name != *n))
            .collect();
        if !missing.is_empty() {
            return Err(format!("metrics never recorded: {}", missing.join(", ")));
        }
        if let Some(e) = self.entries.iter().find(|e| !e.value.is_finite()) {
            return Err(format!("metric '{}' is {}", e.def.name, e.value));
        }
        let order = |name: &str| self.table.iter().position(|m| m.name == name);
        self.entries.sort_by_key(|e| order(e.def.name));
        Ok(self)
    }

    /// `name → {value, unit}`: the `metrics` member of the result line.
    fn to_line_object(&self) -> Object {
        let mut o = Object::new();
        for e in &self.entries {
            let mut m = Object::new();
            m.set("value", e.value).set("unit", e.def.unit);
            o.set(e.def.name, m);
        }
        o
    }

    /// The same with direction, exactness and the repetitions' quartiles.
    fn to_file_object(&self) -> Object {
        let mut o = Object::new();
        for e in &self.entries {
            let mut m = Object::new();
            m.set("value", e.value)
                .set("unit", e.def.unit)
                .set("better", e.def.better.name())
                .set("exact", e.def.exact);
            if !e.reps.is_empty() {
                let [q1, q2, q3] = stats::quartiles(&e.reps);
                m.set("reps", e.reps.len())
                    .set("min", stats::min(&e.reps))
                    .set("q1", q1)
                    .set("median", q2)
                    .set("q3", q3);
            }
            o.set(e.def.name, m);
        }
        o
    }

    /// Names of metrics whose repetitions spread wider than the flag share.
    fn wide_spreads(&self) -> Vec<String> {
        self.entries
            .iter()
            .filter(|e| e.reps.len() > 1 && stats::iqr_share(&e.reps) > FLAG_SHARE)
            .map(|e| {
                format!(
                    "{}: repetitions spread {:.1} % of their median",
                    e.def.name,
                    100.0 * stats::iqr_share(&e.reps)
                )
            })
            .collect()
    }

    /// Prints every metric by name with its unit, one per line.
    pub fn print(&self) {
        for e in &self.entries {
            let clock = if e.def.exact { "exact" } else { "host" };
            // Six decimals read well down to a thousandth; below that
            // (residual drift, microsecond set-ups) switch to exponents.
            let value = if e.value == 0.0 || e.value.abs() >= 1e-3 {
                format!("{:.6}", e.value)
            } else {
                format!("{:.6e}", e.value)
            };
            println!(
                "{:<44} {value:>16} {:<8} ({clock}, {} is better)",
                e.def.name,
                e.def.unit,
                e.def.better.name()
            );
        }
    }
}

/// Samples taken when a run starts, closed by [`RunRecord::finish`].
#[derive(Debug)]
pub struct RunRecord {
    host: Object,
    steal_at_start: Option<(u64, u64)>,
}

/// Everything a finished run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `"run"` or `"trace"`.
    pub mode: &'static str,
    /// Operations attempted over all passes.
    pub attempted: usize,
    /// Operations that failed a check.
    pub failed: usize,
    /// One line per failed check.
    pub complaints: Vec<String>,
    /// The metrics, checked against their table.
    pub metrics: MetricSet,
}

impl RunRecord {
    /// Samples the host facts, load and steal counters at the start of a run.
    pub fn start() -> RunRecord {
        RunRecord {
            host: host::describe(),
            steal_at_start: host::steal_ticks(),
        }
    }

    /// Writes the result file `<dir>/<workload>.<mode>.json` and returns its
    /// path: host facts, steal delta, flags, and every metric with its
    /// repetitions' quartiles.
    ///
    /// # Errors
    /// Returns I/O errors with the path.
    pub fn finish(mut self, outcome: &Outcome, dir: &Path) -> Result<PathBuf, String> {
        let mut flags = outcome.metrics.wide_spreads();
        let steal_share = match (self.steal_at_start, host::steal_ticks()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                Some((s1 - s0) as f64 / (t1 - t0) as f64)
            }
            _ => None,
        };
        if let Some(share) = steal_share.filter(|s| *s > FLAG_SHARE) {
            flags.push(format!(
                "hypervisor stole {:.1} % of host CPU time during the run",
                100.0 * share
            ));
        }
        self.host.set(
            "steal_share_during_run",
            steal_share.map_or(Value::Null, Value::Num),
        );

        let text = |v: &[String]| Value::Arr(v.iter().map(|s| Value::Str(s.clone())).collect());
        let mut doc = Object::new();
        doc.set("schema", "esrcg-benchmark-v1")
            .set("workload", outcome.workload.as_str())
            .set("mode", outcome.mode)
            .set("seed", outcome.seed)
            .set("host", self.host)
            .set("attempted", outcome.attempted)
            .set("failed", outcome.failed)
            .set("complaints", text(&outcome.complaints))
            .set("flags", text(&flags))
            .set("metrics", outcome.metrics.to_file_object());

        for flag in &flags {
            eprintln!("flag: {flag}");
        }
        let path = dir.join(format!("{}.{}.json", outcome.workload, outcome.mode));
        fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        fs::write(&path, Value::Obj(doc).to_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    }
}

impl Outcome {
    /// The one JSON object the benchmark contract reads from the last line
    /// of standard output.
    pub fn result_line(&self) -> String {
        let mut o = Object::new();
        o.set("correct", self.failed == 0)
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", self.metrics.to_line_object());
        Value::Obj(o).to_line()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::names::END_TO_END;

    fn full_set() -> MetricSet {
        let mut m = MetricSet::new(&END_TO_END);
        // Recorded out of table order on purpose.
        m.put("overhead_pct", 0.65);
        m.put("modeled_s", 0.0123);
        m.put("peak_rss_mb", 41.5);
        m.put_reps("setup_s", 0.0021, vec![0.0021, 0.0022, 0.0020]);
        m.put_reps("wall_s", 1.5, vec![1.0, 1.5, 1.6, 2.4, 1.4]);
        m.finish().unwrap()
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            workload: "paper-grid".into(),
            seed: 7,
            mode: "run",
            attempted: 120,
            failed: 0,
            complaints: Vec::new(),
            metrics: full_set(),
        };
        let line = outcome.result_line();
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        let names: Vec<&str> = doc
            .get("metrics")
            .and_then(Value::as_obj)
            .unwrap()
            .iter()
            .map(|(k, _)| k)
            .collect();
        let table: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, table, "every end-to-end metric, in table order");
        let wall = doc.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("value").and_then(Value::as_f64), Some(1.5));
        assert_eq!(wall.get("unit").and_then(Value::as_str), Some("s"));
    }

    #[test]
    fn incomplete_or_non_finite_sets_are_refused() {
        let mut m = MetricSet::new(&END_TO_END);
        m.put("wall_s", 1.0);
        let err = m.finish().unwrap_err();
        assert!(
            err.contains("setup_s") && err.contains("overhead_pct"),
            "{err}"
        );

        let mut m = MetricSet::new(&END_TO_END);
        for def in &END_TO_END {
            m.put(
                def.name,
                if def.name == "modeled_s" {
                    f64::NAN
                } else {
                    1.0
                },
            );
        }
        assert!(m.finish().unwrap_err().contains("modeled_s"));
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn a_metric_recorded_twice_is_a_bug() {
        let mut m = MetricSet::new(&END_TO_END);
        m.put("wall_s", 1.0);
        m.put("wall_s", 2.0);
    }

    #[test]
    fn result_file_records_host_quartiles_and_flags() {
        // Under the package's ignored `out/`, so a test run leaves nothing
        // outside the checkout.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("unit-test-{}", std::process::id()));
        let outcome = Outcome {
            workload: "paper-grid".into(),
            seed: 7,
            mode: "run",
            attempted: 120,
            failed: 0,
            complaints: Vec::new(),
            metrics: full_set(),
        };
        let path = RunRecord::start().finish(&outcome, &dir).unwrap();
        let doc = json::parse(&fs::read_to_string(&path).unwrap()).unwrap();
        fs::remove_dir_all(&dir).unwrap();

        assert!(doc.get("host").unwrap().get("nproc").is_some());
        assert!(doc
            .get("host")
            .unwrap()
            .get("steal_share_during_run")
            .is_some());
        let wall = doc.get("metrics").unwrap().get("wall_s").unwrap();
        assert_eq!(wall.get("reps").and_then(Value::as_f64), Some(5.0));
        assert_eq!(wall.get("median").and_then(Value::as_f64), Some(1.5));
        assert!(wall.get("q1").is_some() && wall.get("q3").is_some());
        // wall_s spreads (2.0 − 1.2)/1.5 = 53 %: flagged, and nothing else is.
        let flags = doc.get("flags").and_then(Value::as_arr).unwrap();
        let spread_flags: Vec<&str> = flags
            .iter()
            .filter_map(Value::as_str)
            .filter(|f| f.contains("repetitions spread"))
            .collect();
        assert_eq!(spread_flags.len(), 1, "{flags:?}");
        assert!(spread_flags[0].starts_with("wall_s"));
    }
}
