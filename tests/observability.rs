//! Observability invariants: tracing observes, never perturbs.
//!
//! Three contracts are pinned here:
//!
//! 1. **Structure determinism** — the event stream's count, names, and field
//!    values (everything except timestamps / thread ids) are a pure function of
//!    the input: identical across rayon pool widths and stream batch chops.
//! 2. **Non-interference** — the engines' outputs are byte-identical with a
//!    recording sink installed vs. fully disabled, and the pre-existing golden
//!    fixtures still hold while recording.
//! 3. **Exporter validity** — the JSONL and Chrome `trace_event` exports parse
//!    back through `sgs_obs::json` with an exact textual round-trip, and the
//!    committed sample trace (`docs/sample_trace.json`) is valid `trace_event`
//!    JSON.
//!
//! The global sink is process-wide state, so every test that installs one
//! serialises on [`OBS_LOCK`]; the engine outputs they compare are unaffected
//! either way.

mod common;

use common::{fnv1a, on_pool};

use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use spectral_sparsify::distributed::{
    distributed_sample_with_faults, FaultConfig, FaultPlan, ReliabilityConfig,
};
use spectral_sparsify::graph::generators;
use spectral_sparsify::obs::{self, json, EventKind};
use spectral_sparsify::solver::{SddSolver, SolverConfig, SolverMethod};
use spectral_sparsify::spanner::{baswana_sen_spanner, SpannerConfig};
use spectral_sparsify::sparsify::{
    parallel_sparsify, BundleSizing, SamplingPolicy, SparsifyConfig,
};
use spectral_sparsify::stream::{StreamConfig, StreamOutput, StreamSparsifier};

/// Serialises sink-installing tests within this binary (cargo runs `#[test]`s
/// on parallel threads; the sink is a process-wide singleton).
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    OBS_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `op` with a fresh recording sink installed, returning its result and
/// the recorded events. Clears the sink before returning.
fn record<R>(op: impl FnOnce() -> R) -> (R, Vec<obs::Event>) {
    let sink = obs::install_recording();
    let out = op();
    obs::clear();
    (out, sink.take())
}

fn stream_run(batch_edges: usize) -> StreamOutput {
    let g = generators::erdos_renyi(350, 0.3, 1.0, 47);
    let cfg = StreamConfig::new(0.75, g.m() / 3)
        .with_bundle_sizing(BundleSizing::Fixed(2))
        .with_seed(13);
    let mut s = StreamSparsifier::new(g.n(), cfg);
    for chunk in g.edges().chunks(batch_edges) {
        s.ingest_batch(chunk).unwrap();
    }
    s.finish()
}

#[test]
fn event_structure_is_identical_across_thread_widths() {
    let _guard = lock();
    let g = generators::erdos_renyi(400, 0.2, 1.0, 31);
    let cfg = SparsifyConfig::new(0.75, 4.0)
        .with_bundle_sizing(BundleSizing::Fixed(4))
        .with_seed(5);
    let (base_out, base_events) = record(|| on_pool(1, || parallel_sparsify(&g, &cfg)));
    assert!(!base_events.is_empty(), "instrumented run recorded nothing");
    let base_fp = obs::structure_fingerprint(&base_events);
    for threads in [2usize, 4, 8] {
        let (out, events) = record(|| on_pool(threads, || parallel_sparsify(&g, &cfg)));
        assert_eq!(out.sparsifier.edges(), base_out.sparsifier.edges());
        assert_eq!(
            events.len(),
            base_events.len(),
            "event count @ {threads} threads"
        );
        assert_eq!(
            obs::structure_fingerprint(&events),
            base_fp,
            "event structure @ {threads} threads"
        );
    }
}

#[test]
fn span_counts_are_identical_across_thread_widths() {
    let _guard = lock();
    let g = generators::erdos_renyi(400, 0.2, 1.0, 31);
    let cfg = SparsifyConfig::new(0.75, 4.0)
        .with_bundle_sizing(BundleSizing::Fixed(4))
        .with_seed(5);
    let counts = |threads| {
        let (_, events) = record(|| on_pool(threads, || parallel_sparsify(&g, &cfg)));
        obs::span_totals(&events)
            .into_iter()
            .map(|(name, total)| (name, total.count))
            .collect::<Vec<_>>()
    };
    let base = counts(1);
    for name in [
        "spanner.decide",
        "spanner.apply",
        "spanner.sweep",
        "spanner.join",
        "spanner.view",
        "spanner.peel",
        "sample.coins",
    ] {
        assert!(
            base.iter().any(|&(n, c)| n == name && c > 0),
            "no {name} span in {base:?}"
        );
    }
    assert_eq!(counts(4), base);
}

/// The CONGEST engine is covered by spans: one `congest.sample` per sampling round,
/// one `congest.spanner` per spanner run inside it, and one `congest.reliable_round`
/// per logical round of the reliable layer, whose end carries the sub-rounds it took.
#[test]
fn congest_spans_cover_sampling_spanner_runs_and_reliable_rounds() {
    let _guard = lock();
    let g = generators::erdos_renyi(120, 0.2, 1.0, 42);
    let cfg = SparsifyConfig::new(0.75, 4.0)
        .with_bundle_sizing(BundleSizing::Fixed(2))
        .with_seed(3);
    let faults = FaultConfig {
        plan: FaultPlan::iid_loss(9, 0.1),
        reliability: Some(ReliabilityConfig::default()),
    };
    let (out, events) = record(|| distributed_sample_with_faults(&g, &cfg, &faults));
    let totals = obs::span_totals(&events);
    assert_eq!(totals["congest.sample"].count, 1);
    assert_eq!(
        totals["congest.spanner"].count, 2,
        "one run per bundle component"
    );
    let rounds = totals["congest.reliable_round"].count;
    assert!(rounds > 0);
    let subrounds: u64 = events
        .iter()
        .filter(|e| e.name == "congest.reliable_round" && e.kind == EventKind::SpanEnd)
        .map(|e| match e.fields.as_slice() {
            [("subrounds", obs::FieldValue::U64(s))] => *s,
            other => panic!("reliable_round end without subrounds: {other:?}"),
        })
        .sum();
    assert_eq!(
        subrounds, out.metrics.rounds as u64,
        "sub-rounds add up to transport rounds"
    );
}

/// Each transport round of the reliable layer emits one `congest.round` point after
/// the reliable ledger is updated, so the per-round deltas add up to the run's
/// `NetworkMetrics`, the reliable columns (acks, retransmits, suppressed duplicates,
/// abandoned frames) included.
#[test]
fn congest_round_points_add_up_to_the_reliable_run_metrics() {
    let _guard = lock();
    let g = generators::erdos_renyi(120, 0.2, 1.0, 42);
    let cfg = SparsifyConfig::new(0.75, 4.0)
        .with_bundle_sizing(BundleSizing::Fixed(2))
        .with_seed(3);
    let faults = FaultConfig {
        plan: FaultPlan::iid_loss(9, 0.1),
        reliability: Some(ReliabilityConfig::default()),
    };
    let (out, events) = record(|| distributed_sample_with_faults(&g, &cfg, &faults));
    let points: Vec<&obs::Event> = events
        .iter()
        .filter(|e| e.name == "congest.round" && e.kind == EventKind::Point)
        .collect();
    let column = |key: &str| -> Vec<u64> {
        points
            .iter()
            .map(|e| match e.fields.iter().find(|(k, _)| *k == key) {
                Some((_, obs::FieldValue::U64(x))) => *x,
                other => panic!("congest.round point without {key}: {other:?}"),
            })
            .collect()
    };
    let sum = |key: &str| column(key).iter().sum::<u64>();
    let m = &out.metrics;
    assert_eq!(points.len(), m.rounds, "one point per transport round");
    assert_eq!(sum("messages"), m.messages);
    assert_eq!(sum("bits"), m.total_bits);
    assert_eq!(
        column("max_message_bits").into_iter().max(),
        Some(m.max_message_bits as u64)
    );
    assert_eq!(sum("dropped"), m.dropped);
    assert_eq!(sum("duplicated"), m.duplicated);
    assert_eq!(sum("delayed"), m.delayed);
    assert_eq!(sum("retransmits"), m.retransmits);
    assert_eq!(sum("acks"), m.acks);
    assert_eq!(sum("dup_suppressed"), m.dup_suppressed);
    assert_eq!(sum("abandoned"), m.abandoned);
    assert!(
        m.acks > 0 && m.retransmits > 0 && m.dup_suppressed > 0 && m.abandoned > 0,
        "the run exercises every reliable column: {m:?}"
    );
}

/// The per-round `sample.pass` points add up to the `WorkStats` ledger of the run,
/// and so do the `spanner.run` points of the bundles' spanner runs.
#[test]
fn sample_pass_points_add_up_to_the_work_stats() {
    let _guard = lock();
    let g = generators::erdos_renyi(500, 0.4, 1.0, 3);
    let cfg = SparsifyConfig::new(0.75, 4.0)
        .with_bundle_sizing(BundleSizing::Fixed(3))
        .with_seed(5);
    let (out, events) = record(|| parallel_sparsify(&g, &cfg));
    let points = |name: &str| -> Vec<&obs::Event> {
        events
            .iter()
            .filter(|e| e.name == name && e.kind == EventKind::Point)
            .collect()
    };
    let sum = |name: &str, key: &str| -> u64 {
        points(name)
            .iter()
            .map(|e| match e.fields.iter().find(|(k, _)| *k == key) {
                Some((_, obs::FieldValue::U64(x))) => *x,
                other => panic!("{name} point without {key}: {other:?}"),
            })
            .sum()
    };
    assert_eq!(out.rounds_executed, 2);
    assert_eq!(points("sample.pass").len(), 2, "one point per round");
    assert_eq!(points("sparsify.round").len(), 2);
    assert_eq!(sum("sample.pass", "bundle_work"), out.stats.spanner_work);
    assert_eq!(sum("sample.pass", "m"), out.stats.sampling_work);
    // Each round's bundle work is the work of its spanner runs.
    assert_eq!(sum("spanner.run", "work"), out.stats.spanner_work);
}

#[test]
fn event_structure_is_identical_across_batch_chops() {
    let _guard = lock();
    let g = generators::erdos_renyi(350, 0.3, 1.0, 47);
    let m = g.m();
    // One batch for the whole stream vs. eleven chops: the leaf/reduce event
    // stream depends only on the stream position, never on ingest granularity.
    let (out_1, events_1) = record(|| on_pool(2, || stream_run(m)));
    let (out_11, events_11) = record(|| on_pool(2, || stream_run(m.div_ceil(11))));
    assert!(events_1.iter().any(|e| e.name == "stream.leaf"));
    assert_eq!(out_1.sparsifier.edges(), out_11.sparsifier.edges());
    assert_eq!(events_1.len(), events_11.len(), "event count across chops");
    assert_eq!(
        obs::structure_fingerprint(&events_1),
        obs::structure_fingerprint(&events_11),
        "event structure across chops"
    );
}

/// The `u64` field `key` of `event`.
fn field(event: &obs::Event, key: &str) -> u64 {
    match event.fields.iter().find(|(k, _)| *k == key) {
        Some((_, obs::FieldValue::U64(x))) => *x,
        other => panic!("{} without {key}: {other:?}", event.name),
    }
}

/// An ER-policy stream emits one `resistance.estimate` span per resistance estimate:
/// one per sampling round of every reduction above the leaves (depth 0 and the
/// leaves flip the uniform coin). Each span carries the round's `m` and the policy's
/// row count, its end the summed CG iterations, and the counts match across widths.
#[test]
fn er_stream_emits_one_resistance_span_per_estimate() {
    let _guard = lock();
    let g = generators::erdos_renyi(350, 0.3, 1.0, 47);
    let cfg = StreamConfig::new(0.75, g.m() / 3)
        .with_bundle_sizing(BundleSizing::Fixed(2))
        .with_interior_sampling(SamplingPolicy::effective_resistance(4, 1e-3))
        .with_seed(13);
    let run = |threads| {
        record(|| {
            on_pool(threads, || {
                let mut s = StreamSparsifier::new(g.n(), cfg.clone());
                s.ingest_batch(g.edges()).unwrap();
                s.finish()
            })
        })
    };
    let (out, events) = run(1);
    // Walk the stream in order: each round's `sample.pass` point follows its
    // estimate, and a `stream.leaf` / `stream.reduce` point closes its rounds.
    let (mut estimates, mut er_rounds) = (0, 0);
    let mut pending: Vec<(Option<u64>, u64)> = Vec::new();
    for e in &events {
        match (e.name, e.kind) {
            ("resistance.estimate", EventKind::SpanBegin) => {
                assert_eq!(field(e, "rows"), 4);
                estimates += 1;
                pending.push((Some(field(e, "m")), 0));
            }
            ("resistance.estimate", EventKind::SpanEnd) => {
                assert!(
                    field(e, "iterations") > 0,
                    "an estimate ran no CG iteration"
                );
            }
            ("sample.pass", EventKind::Point) => match pending.last_mut() {
                Some(last @ (Some(_), 0)) => last.1 = field(e, "m"),
                _ => pending.push((None, field(e, "m"))),
            },
            ("stream.leaf" | "stream.reduce", EventKind::Point) => {
                let er = e.name == "stream.reduce" && field(e, "depth") > 0;
                for &(estimate_m, m) in &pending {
                    if er {
                        assert_eq!(estimate_m, Some(m), "an ER round's estimate sees its m");
                        er_rounds += 1;
                    } else {
                        assert_eq!(estimate_m, None, "a uniform round ran an estimate");
                    }
                }
                pending.clear();
            }
            _ => {}
        }
    }
    assert!(pending.is_empty());
    assert!(er_rounds > 0, "the stream ran no ER reduction");
    assert_eq!(estimates, er_rounds);
    let (wide_out, wide_events) = run(4);
    assert_eq!(wide_out.sparsifier.edges(), out.sparsifier.edges());
    let totals = |events: &[obs::Event]| obs::span_totals(events)["resistance.estimate"].count;
    assert_eq!(totals(&events), estimates as u64);
    assert_eq!(totals(&wide_events), totals(&events));
}

/// Rows copied verbatim from `tests/golden_spanner.rs` (`GOLDEN_DEFAULT_K`):
/// (graph seed 42 er300, spanner seed, edge_count, fnv1a(edge_ids), rounds, work).
const GOLDEN_ER300: &[(u64, usize, u64, usize, u64)] = &[
    (1, 1446, 0xacf024ffc5491afa, 9, 99337),
    (2, 1216, 0x0f3e9dfecdf9ed99, 9, 94249),
    (3, 1040, 0xf1a82ec6c1c52e84, 9, 83209),
];

#[test]
fn golden_fixtures_hold_with_a_recording_sink_installed() {
    let _guard = lock();
    let g = generators::erdos_renyi(300, 0.15, 1.0, 42);
    for &(seed, len, hash, rounds, work) in GOLDEN_ER300 {
        let ((), events) = record(|| {
            let r = baswana_sen_spanner(&g, &SpannerConfig::with_seed(seed));
            assert_eq!(
                (r.edge_ids.len(), fnv1a(&r.edge_ids), r.rounds, r.work),
                (len, hash, rounds, work),
                "golden er300 seed={seed} while recording"
            );
        });
        assert!(
            events.iter().any(|e| e.name == "spanner.run"),
            "recording sink saw no spanner events"
        );
    }
}

#[test]
fn outputs_are_byte_identical_with_and_without_a_sink() {
    let _guard = lock();
    let g = generators::erdos_renyi(300, 0.2, 1.0, 33);
    let cfg = SparsifyConfig::new(0.5, 4.0)
        .with_bundle_sizing(BundleSizing::Fixed(3))
        .with_seed(7);
    assert!(!obs::enabled());
    let silent = parallel_sparsify(&g, &cfg);
    let (traced, events) = record(|| parallel_sparsify(&g, &cfg));
    assert!(!events.is_empty());
    assert_eq!(silent.sparsifier.edges(), traced.sparsifier.edges());
    for (a, b) in silent
        .sparsifier
        .edges()
        .iter()
        .zip(traced.sparsifier.edges())
    {
        assert_eq!(a.w.to_bits(), b.w.to_bits());
    }
    assert_eq!(silent.stats, traced.stats);
}

/// Tracing overhead gate: with a recording sink installed, single-thread
/// `parallel_sparsify` on er(4000, deg 150) takes at most 10% longer than with
/// tracing off, in the median of 9 pairs that alternate which side runs first, after
/// one warm-up call of each. A wall-clock gate, so it is ignored by default and run
/// alone in release:
/// `cargo test --release --test observability tracing_overhead_is_within_ten_percent -- --ignored --exact`.
#[test]
#[ignore = "wall-clock gate: run alone in release"]
fn tracing_overhead_is_within_ten_percent() {
    let _guard = lock();
    let g = generators::erdos_renyi(4000, 150.0 / 3999.0, 1.0, 51);
    let cfg = SparsifyConfig::new(0.75, 8.0)
        .with_bundle_sizing(BundleSizing::Fixed(4))
        .with_seed(5);
    let timed = || {
        on_pool(1, || {
            let start = Instant::now();
            let out = parallel_sparsify(&g, &cfg);
            (out, start.elapsed().as_secs_f64() * 1e3)
        })
    };
    let run = |traced: bool| {
        if traced {
            record(timed).0
        } else {
            timed()
        }
    };
    let (expected, _) = run(false);
    let (warm, _) = run(true);
    assert_eq!(warm.sparsifier.edges(), expected.sparsifier.edges());
    // Wall clock per side, indexed by `traced as usize`.
    let mut ms: [Vec<f64>; 2] = Default::default();
    for pair in 0..9 {
        let order = if pair % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for traced in order {
            let (out, t) = run(traced);
            assert_eq!(out.sparsifier.edges(), expected.sparsifier.edges());
            assert_eq!(out.stats, expected.stats);
            ms[traced as usize].push(t);
        }
    }
    let [untraced, traced] = ms.map(|mut side| {
        side.sort_by(f64::total_cmp);
        side[side.len() / 2]
    });
    let ratio = traced / untraced;
    println!("median sparsify_ms untraced {untraced:.1}, traced {traced:.1}, ratio {ratio:.3}");
    assert!(ratio <= 1.10, "tracing overhead {ratio:.3} > 1.10");
}

#[test]
fn solver_emits_scoped_pcg_trajectory() {
    let _guard = lock();
    let g = generators::path(300, 1.0);
    let mut b = vec![0.0; 300];
    b[0] = 1.0;
    b[299] = -1.0;
    let (outcome, events) = record(|| {
        let solver = SddSolver::for_laplacian(g, SolverConfig::default());
        solver.solve_with(&b, SolverMethod::ChainPcg)
    });
    assert!(outcome.converged);
    let iters = events.iter().filter(|e| e.name == "pcg.iter").count();
    assert_eq!(
        iters, outcome.iterations,
        "one pcg.iter event per outer PCG iteration"
    );
    assert!(events.iter().any(|e| e.name == "chain.level"));
    let stops: Vec<_> = events.iter().filter(|e| e.name == "chain.stop").collect();
    assert_eq!(stops.len(), 1, "one chain.stop point per chain build");
    for key in ["reason", "depth", "rejected_m"] {
        assert!(
            stops[0].fields.iter().any(|(k, _)| *k == key),
            "chain.stop lacks {key}"
        );
    }
    assert!(events.iter().any(|e| e.name == "solver.done"));
    assert!(outcome.stats.preconditioner_applies >= outcome.iterations as u64);
    assert!(!outcome.stats.per_level_work.is_empty());
}

#[test]
fn exports_round_trip_through_the_json_parser() {
    let _guard = lock();
    let g = generators::erdos_renyi(200, 0.2, 1.0, 11);
    let cfg = SparsifyConfig::new(0.5, 4.0)
        .with_bundle_sizing(BundleSizing::Fixed(3))
        .with_seed(3);
    let (_, events) = record(|| parallel_sparsify(&g, &cfg));
    assert!(!events.is_empty());

    // JSONL: every line is a standalone document with the fixed envelope, and
    // re-rendering the parsed value reproduces the line exactly.
    let jsonl = obs::export_jsonl(&events);
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), events.len());
    for line in &lines {
        let v = json::parse(line).expect("jsonl line parses");
        for key in ["name", "kind", "ts_us", "tid", "fields"] {
            assert!(json::get(&v, key).is_some(), "missing {key} in {line}");
        }
        assert_eq!(&serde_json::to_string(&v).unwrap(), line);
    }

    // Chrome trace: a traceEvents array whose entries carry the trace_event
    // envelope, with span begins and ends balanced per name.
    let trace = obs::export_chrome_trace(&events);
    let v = json::parse(&trace).expect("chrome trace parses");
    let list = json::get(&v, "traceEvents")
        .and_then(json::as_array)
        .expect("traceEvents array");
    assert_eq!(list.len(), events.len());
    let mut open = 0i64;
    for entry in list {
        let ph = json::get(entry, "ph").and_then(json::as_str).unwrap();
        assert!(matches!(ph, "B" | "E" | "i" | "C"), "bad phase {ph}");
        assert!(json::get(entry, "name").is_some());
        assert!(json::get(entry, "ts").is_some());
        match ph {
            "B" => open += 1,
            "E" => {
                open -= 1;
                assert!(open >= 0, "span end before begin");
            }
            _ => {}
        }
    }
    assert_eq!(open, 0, "unbalanced spans in chrome trace");

    // The event kinds in the recording map onto the phases 1:1.
    for (event, entry) in events.iter().zip(list) {
        let ph = json::get(entry, "ph").and_then(json::as_str).unwrap();
        let expect = match event.kind {
            EventKind::SpanBegin => "B",
            EventKind::SpanEnd => "E",
            EventKind::Point => "i",
            EventKind::Counter => "C",
        };
        assert_eq!(ph, expect);
    }
}

#[test]
fn committed_sample_trace_is_valid_trace_event_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/docs/sample_trace.json");
    let text = std::fs::read_to_string(path).expect("docs/sample_trace.json exists");
    let v = json::parse(&text).expect("sample trace parses as JSON");
    let list = json::get(&v, "traceEvents")
        .and_then(json::as_array)
        .expect("sample trace has a traceEvents array");
    assert!(list.len() > 100, "sample trace is implausibly small");
    for entry in list {
        assert!(json::get(entry, "name").is_some());
        let ph = json::get(entry, "ph").and_then(json::as_str).unwrap();
        assert!(matches!(ph, "B" | "E" | "i" | "C"), "bad phase {ph}");
        assert!(json::get(entry, "ts").and_then(json::as_f64).is_some());
        assert_eq!(json::get(entry, "pid").and_then(json::as_f64), Some(1.0));
    }
    // The run that produced it traced the spanner and sampler layers.
    let names: Vec<&str> = list
        .iter()
        .filter_map(|e| json::get(e, "name").and_then(json::as_str))
        .collect();
    assert!(names.contains(&"spanner.decide"));
    assert!(names.contains(&"sample.pass"));
}
