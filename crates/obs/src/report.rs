//! `RunReport`: one serializable end-to-end record of a run.
//!
//! The report is built from the event stream alone ([`RunReport::from_events`]):
//! span totals give the wall clock per layer, and the points every engine emits
//! (`sample.pass`, `stream.finish`, `congest.round`, `solver.done`, …) give its
//! ledger. Each section is named scalar fields plus named numeric series, so the
//! bench bins emit one JSONL line per run instead of each inventing its own
//! printing.

use serde::{Serialize, Value};

use crate::{span_totals, Event, EventKind, FieldValue};

/// One named group of metrics (e.g. `"spanner"`, `"congest"`, `"solver"`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Section {
    /// Section name.
    pub name: String,
    /// Scalar metrics, in insertion order.
    pub fields: Vec<(String, f64)>,
    /// Per-round / per-level / per-iteration trajectories.
    pub series: Vec<(String, Vec<f64>)>,
}

impl Section {
    /// Creates an empty section.
    pub fn new(name: &str) -> Section {
        Section {
            name: name.to_string(),
            ..Section::default()
        }
    }

    /// Adds a scalar field (builder style).
    pub fn field(mut self, key: &str, value: f64) -> Section {
        self.fields.push((key.to_string(), value));
        self
    }

    /// Adds a numeric series (builder style).
    pub fn series(mut self, key: &str, values: Vec<f64>) -> Section {
        self.series.push((key.to_string(), values));
        self
    }
}

/// A full-run report: identity plus a list of [`Section`]s.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Bench / experiment name (e.g. `"sparsify-dense"`).
    pub bench: String,
    /// Workload label (e.g. `"er(4000,150)"`).
    pub workload: String,
    /// Metric sections.
    pub sections: Vec<Section>,
}

impl RunReport {
    /// Creates an empty report for a bench + workload.
    pub fn new(bench: &str, workload: &str) -> RunReport {
        RunReport {
            bench: bench.to_string(),
            workload: workload.to_string(),
            sections: Vec::new(),
        }
    }

    /// Builds a report from recorded events: a `spans` section with
    /// `<name>_count` and `<name>_ms` per span name (see [`span_totals`]), then one
    /// section per point name in order of first appearance. A point seen once
    /// gives scalar fields; a point seen more than once gives one series per field.
    /// `Bool` fields become 0/1 and `Str` fields are dropped.
    pub fn from_events(bench: &str, workload: &str, events: &[Event]) -> RunReport {
        let mut report = RunReport::new(bench, workload);
        let mut spans = Section::new("spans");
        for (name, total) in span_totals(events) {
            spans = spans
                .field(&format!("{name}_count"), total.count as f64)
                .field(&format!("{name}_ms"), total.total_ms);
        }
        report.push(spans);

        let mut points: Vec<(&str, Vec<&Event>)> = Vec::new();
        for ev in events.iter().filter(|e| e.kind == EventKind::Point) {
            match points.iter_mut().find(|(name, _)| *name == ev.name) {
                Some((_, seen)) => seen.push(ev),
                None => points.push((ev.name, vec![ev])),
            }
        }
        for (name, seen) in points {
            let mut columns: Vec<(&str, Vec<f64>)> = Vec::new();
            for ev in &seen {
                for &(key, value) in &ev.fields {
                    let Some(x) = numeric(value) else { continue };
                    match columns.iter_mut().find(|(k, _)| *k == key) {
                        Some((_, xs)) => xs.push(x),
                        None => columns.push((key, vec![x])),
                    }
                }
            }
            let mut section = Section::new(name);
            for (key, xs) in columns {
                section = if seen.len() == 1 {
                    section.field(key, xs[0])
                } else {
                    section.series(key, xs)
                };
            }
            report.push(section);
        }
        report
    }

    /// Appends a section.
    pub fn push(&mut self, section: Section) {
        self.sections.push(section);
    }

    /// Renders the report as a single compact JSON line (JSONL-appendable).
    pub fn to_jsonl_line(&self) -> String {
        serde_json::to_string(&self.to_value()).unwrap_or_default()
    }
}

/// A field value as a report number; `None` for labels.
fn numeric(value: FieldValue) -> Option<f64> {
    match value {
        FieldValue::U64(x) => Some(x as f64),
        FieldValue::I64(x) => Some(x as f64),
        FieldValue::F64(x) => Some(x),
        FieldValue::Bool(x) => Some(if x { 1.0 } else { 0.0 }),
        FieldValue::Str(_) => None,
    }
}

impl Serialize for Section {
    fn to_value(&self) -> Value {
        let fields = Value::Object(
            self.fields
                .iter()
                .map(|(k, v)| (k.clone(), Value::Float(*v)))
                .collect(),
        );
        let series = Value::Object(
            self.series
                .iter()
                .map(|(k, vs)| {
                    (
                        k.clone(),
                        Value::Array(vs.iter().map(|v| Value::Float(*v)).collect()),
                    )
                })
                .collect(),
        );
        Value::Object(vec![
            ("name".to_string(), Value::Str(self.name.clone())),
            ("fields".to_string(), fields),
            ("series".to_string(), series),
        ])
    }
}

impl Serialize for RunReport {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("bench".to_string(), Value::Str(self.bench.clone())),
            ("workload".to_string(), Value::Str(self.workload.clone())),
            (
                "sections".to_string(),
                Value::Array(self.sections.iter().map(Serialize::to_value).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn report_round_trips_through_the_parser() {
        let mut r = RunReport::new("exp_demo", "er(300,0.15)");
        r.push(
            Section::new("solver")
                .field("iterations", 12.0)
                .field("residual", 3.5e-9)
                .series("residuals", vec![1.0, 0.5, 0.25]),
        );
        let line = r.to_jsonl_line();
        let v = json::parse(&line).unwrap();
        assert_eq!(
            json::as_str(json::get(&v, "bench").unwrap()),
            Some("exp_demo")
        );
        let sections = json::as_array(json::get(&v, "sections").unwrap()).unwrap();
        assert_eq!(sections.len(), 1);
        let fields = json::get(&sections[0], "fields").unwrap();
        assert_eq!(
            json::as_f64(json::get(fields, "iterations").unwrap()),
            Some(12.0)
        );
        // Textual round trip through the parser is exact.
        assert_eq!(serde_json::to_string(&v).unwrap(), line);
    }

    #[test]
    fn from_events_folds_spans_and_points() {
        let at = |name, kind, ts_us, fields| Event {
            name,
            kind,
            fields,
            ts_us,
            tid: 1,
        };
        use EventKind::{Point as P, SpanBegin as B, SpanEnd as E};
        let events = vec![
            at("work", B, 0, vec![]),
            at(
                "once",
                P,
                10,
                vec![("n", FieldValue::U64(3)), ("ok", FieldValue::Bool(true))],
            ),
            at(
                "twice",
                P,
                20,
                vec![("x", FieldValue::F64(0.5)), ("why", FieldValue::Str("a"))],
            ),
            at(
                "twice",
                P,
                30,
                vec![("x", FieldValue::I64(-2)), ("why", FieldValue::Str("b"))],
            ),
            at("work", E, 2000, vec![]),
        ];
        let r = RunReport::from_events("exp_demo", "w", &events);
        let names: Vec<&str> = r.sections.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["spans", "once", "twice"]);
        assert_eq!(
            r.sections[0].fields,
            vec![
                ("work_count".to_string(), 1.0),
                ("work_ms".to_string(), 2.0)
            ]
        );
        // Seen once: scalar fields, Bool as 0/1.
        assert_eq!(
            r.sections[1].fields,
            vec![("n".to_string(), 3.0), ("ok".to_string(), 1.0)]
        );
        assert!(r.sections[1].series.is_empty());
        // Seen twice: one series per numeric field; the Str field is dropped.
        assert!(r.sections[2].fields.is_empty());
        assert_eq!(
            r.sections[2].series,
            vec![("x".to_string(), vec![0.5, -2.0])]
        );
    }
}
