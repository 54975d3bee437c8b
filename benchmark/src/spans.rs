//! Harness-side host-clock spans: one around every call into a layer of
//! the program (generate, assemble, each solve, render), recorded from the
//! benchmark's own files. Spans are kept in memory and written when the
//! run ends, as Chrome trace-event JSON that Perfetto and `chrome://tracing`
//! load. Spans inside the program are not recorded here.

use std::time::Instant;

use crate::json::{Object, Value};

/// One closed span.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    /// Index of the span that was open when this one started.
    parent: Option<usize>,
    start_us: f64,
    end_us: f64,
}

/// A span recorder. The disabled recorder makes [`Spans::scope`] a plain
/// call, so measured passes and the traced pass run the same code.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Spans {
        Spans {
            enabled: false,
            origin: Instant::now(),
            workload: String::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for the traced pass of `workload`; every span carries
    /// the workload name as its shared identifier.
    pub fn on(workload: &str) -> Spans {
        Spans {
            enabled: true,
            workload: workload.to_string(),
            ..Spans::off()
        }
    }

    /// Runs `f` inside a span named `name`, child of the span open now.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_us: self.origin.elapsed().as_secs_f64() * 1e6,
            end_us: f64::NAN,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.origin.elapsed().as_secs_f64() * 1e6;
        out
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total duration in seconds of the spans named `name`.
    pub fn seconds_of(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_us - s.start_us) * 1e-6)
            .sum()
    }

    /// `(name, count, total seconds, self seconds)` per span name, in order
    /// of first appearance. A span's self time is its duration minus the
    /// part its direct children cover: where the host seconds of a layer go
    /// once the layers it calls are taken out.
    pub fn by_name(&self) -> Vec<(String, usize, f64, f64)> {
        let mut children_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children_us[p] += s.end_us - s.start_us;
            }
        }
        let mut rows: Vec<(String, usize, f64, f64)> = Vec::new();
        for (s, child_us) in self.spans.iter().zip(children_us) {
            let total = (s.end_us - s.start_us) * 1e-6;
            let own = total - child_us * 1e-6;
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += total;
                    r.3 += own;
                }
                None => rows.push((s.name.clone(), 1, total, own)),
            }
        }
        rows
    }

    /// The Chrome trace-event document: complete (`"ph": "X"`) events on
    /// one track, with span id, parent id and workload in `args`.
    pub fn to_chrome_trace(&self) -> Value {
        let events: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = Object::new();
                args.set("id", id)
                    .set("parent", s.parent.map_or(Value::Null, Value::from))
                    .set("workload", self.workload.as_str());
                let mut e = Object::new();
                e.set("name", s.name.as_str())
                    .set("cat", "harness")
                    .set("ph", "X")
                    .set("ts", s.start_us)
                    .set("dur", s.end_us - s.start_us)
                    .set("pid", 1usize)
                    .set("tid", 1usize)
                    .set("args", args);
                Value::Obj(e)
            })
            .collect();
        let mut doc = Object::new();
        doc.set("displayTimeUnit", "ms").set("traceEvents", events);
        Value::Obj(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_render_as_loadable_trace_events() {
        let mut s = Spans::on("paper-grid");
        let out = s.scope("pass", |s| {
            s.scope("solve:reference", |_| std::hint::black_box(1 + 1));
            s.scope("solve:esr", |_| 40) + 2
        });
        assert_eq!(out, 42, "scope returns the closure's value");
        assert_eq!(s.len(), 3);

        let doc = s.to_chrome_trace();
        let events = doc.get("traceEvents").and_then(Value::as_arr).unwrap();
        assert_eq!(events.len(), 3);
        let parent_of = |i: usize| {
            events[i]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .clone()
        };
        assert_eq!(parent_of(0), Value::Null);
        assert_eq!(parent_of(1), Value::Num(0.0));
        assert_eq!(parent_of(2), Value::Num(0.0));
        for e in events {
            assert_eq!(e.get("ph").and_then(Value::as_str), Some("X"));
            assert!(e.get("dur").and_then(Value::as_f64).unwrap() >= 0.0);
            let args = e.get("args").unwrap();
            assert_eq!(
                args.get("workload").and_then(Value::as_str),
                Some("paper-grid")
            );
        }
        // Children lie inside the parent, so self time is non-negative and
        // no larger than the whole.
        let rows = s.by_name();
        assert_eq!(rows.len(), 3);
        let (name, count, total, own) = &rows[0];
        assert_eq!((name.as_str(), *count), ("pass", 1));
        assert!(*own >= 0.0 && own <= total);
        assert_eq!(*total, s.seconds_of("pass"));
        // The repo's own Perfetto validator accepts the rendering.
        assert_eq!(esrcg_cluster::validate_trace_json(&doc.to_pretty()), Ok(3));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::off();
        assert_eq!(s.scope("pass", |s| s.scope("solve", |_| 7)), 7);
        assert_eq!(s.len(), 0);
    }
}
