//! Per-layer figures from the `sgs-obs` event stream.
//!
//! The benchmark wraps each public call it times in a span named `bench.<layer>`
//! (see [`layer`]); the library emits its own spans (`spanner.decide`, `chain.build`,
//! `solver.solve`, …). [`aggregate`] pairs begins with ends per thread and sums the
//! durations by name. Metric names follow the span names: a span `bench.graph.io_read`
//! or `spanner.decide` feeds `graph.io_read_ms` or `spanner.decide_ms`.

use std::collections::BTreeMap;

use sgs_obs::{Event, EventKind, FieldValue};

use crate::metrics::PER_LAYER;
use crate::Values;

const BENCH_PREFIX: &str = "bench.";

/// Runs `f` inside a span named `name`, which must start with `bench.`. While no sink
/// is installed the span costs one branch, so untraced runs pay nothing measurable.
pub fn layer<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    debug_assert!(name.starts_with(BENCH_PREFIX));
    let _span = sgs_obs::span!(name);
    f()
}

/// Runs `f` `reps` times inside one span that reports the time per call, for calls
/// too short for the trace clock's microsecond resolution.
pub fn layer_reps(name: &'static str, reps: u64, mut f: impl FnMut()) {
    debug_assert!(name.starts_with(BENCH_PREFIX));
    let _span = sgs_obs::span!(name, reps = reps);
    for _ in 0..reps {
        f();
    }
}

#[derive(Debug, Default)]
struct SpanStat {
    total_ms: f64,
    max_ms: f64,
    count: u64,
}

/// The events of one traced stretch of work, summed by span name.
#[derive(Debug, Default)]
pub struct SpanTotals {
    spans: BTreeMap<&'static str, SpanStat>,
    /// Time covered by top-level library spans (not `bench.`), per thread, summed.
    pub attributed_ms: f64,
    /// Σ duration of `spanner.*` spans that ran inside `chain.build`.
    spanner_in_chain_ms: f64,
    /// Number of events of every kind.
    pub events: usize,
}

impl SpanTotals {
    /// Per-layer values of every span seen (only the benchmark's own spans when
    /// `bench_only`), under the registered `<span>_ms` names, plus the extras.
    pub fn values(&self, bench_only: bool) -> Values {
        let mut v = Values::new();
        for (&name, stat) in &self.spans {
            let bench = name.strip_prefix(BENCH_PREFIX);
            if bench_only && bench.is_none() {
                continue;
            }
            let key = bench.unwrap_or(name);
            if let Some(m) = PER_LAYER
                .iter()
                .find(|m| m.name.strip_suffix("_ms") == Some(key))
            {
                v.insert(m.name, stat.total_ms);
            }
        }
        if let Some(s) = self.spans.get("bench.graph.io_read") {
            v.insert("graph.io_read_calls", s.count as f64);
        }
        if let Some(s) = self.spans.get("bench.stream.ingest") {
            v.insert("stream.ingest_max_ms", s.max_ms);
        }
        if !bench_only && self.spans.contains_key("chain.build") {
            v.insert("solver.build_spanner_ms", self.spanner_in_chain_ms);
        }
        v
    }
}

/// Sums the spans of `events` by name.
pub fn aggregate(events: &[Event]) -> SpanTotals {
    struct Open {
        name: &'static str,
        start_us: u64,
        reps: u64,
    }
    let mut totals = SpanTotals {
        events: events.len(),
        ..SpanTotals::default()
    };
    let mut stacks: BTreeMap<u64, Vec<Open>> = BTreeMap::new();
    for ev in events {
        let stack = stacks.entry(ev.tid).or_default();
        match ev.kind {
            EventKind::SpanBegin => {
                let reps = ev.fields.iter().find_map(|(k, v)| match (k, v) {
                    (&"reps", FieldValue::U64(r)) => Some((*r).max(1)),
                    _ => None,
                });
                stack.push(Open {
                    name: ev.name,
                    start_us: ev.ts_us,
                    reps: reps.unwrap_or(1),
                });
            }
            EventKind::SpanEnd => {
                // An end closes the innermost open span of the same name on its thread.
                let Some(pos) = stack.iter().rposition(|o| o.name == ev.name) else {
                    continue;
                };
                let open = stack.remove(pos);
                let ms = ev.ts_us.saturating_sub(open.start_us) as f64 / 1e3 / open.reps as f64;
                let stat = totals.spans.entry(open.name).or_default();
                stat.total_ms += ms;
                stat.max_ms = stat.max_ms.max(ms);
                stat.count += 1;
                let outer = &stack[..pos];
                let library = |o: &str| !o.starts_with(BENCH_PREFIX);
                if library(open.name) && !outer.iter().any(|o| library(o.name)) {
                    totals.attributed_ms += ms;
                }
                if open.name.starts_with("spanner.")
                    && outer.iter().any(|o| o.name == "chain.build")
                {
                    totals.spanner_in_chain_ms += ms;
                }
            }
            EventKind::Point | EventKind::Counter => {}
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, kind: EventKind, ts_us: u64) -> Event {
        Event {
            name,
            kind,
            fields: Vec::new(),
            ts_us,
            tid: 1,
        }
    }

    #[test]
    fn sums_by_name_and_attributes_only_top_level_library_spans() {
        use EventKind::{SpanBegin as B, SpanEnd as E};
        let mut spmv = ev("bench.linalg.spmv", B, 100);
        spmv.fields.push(("reps", FieldValue::U64(4)));
        let events = [
            ev("bench.stream.ingest", B, 0),
            ev("chain.build", B, 10),
            ev("spanner.decide", B, 20),
            ev("spanner.decide", E, 50),
            ev("chain.build", E, 70),
            ev("spanner.decide", B, 80),
            ev("spanner.decide", E, 90),
            ev("bench.stream.ingest", E, 100),
            ev("spanner.round", EventKind::Point, 100),
            spmv,
            ev("bench.linalg.spmv", E, 140),
        ];
        let t = aggregate(&events);
        // chain.build (60 us) and the second decide (10 us); the nested decide is
        // covered by chain.build and the benchmark's own spans never count.
        assert!((t.attributed_ms - 0.07).abs() < 1e-12);
        assert_eq!(t.events, 11);
        let v = t.values(false);
        assert!((v["spanner.decide_ms"] - 0.04).abs() < 1e-12);
        assert!((v["stream.ingest_ms"] - 0.1).abs() < 1e-12);
        assert!((v["stream.ingest_max_ms"] - 0.1).abs() < 1e-12);
        assert!((v["solver.build_spanner_ms"] - 0.03).abs() < 1e-12);
        assert!((v["linalg.spmv_ms"] - 0.01).abs() < 1e-12);
        let bench = t.values(true);
        assert!(!bench.contains_key("spanner.decide_ms"));
        assert!(bench.contains_key("stream.ingest_ms"));
    }
}
