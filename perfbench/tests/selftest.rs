//! Self-test of the benchmark: every workload at `--size tiny` on a seed other than
//! the default, untraced and traced. Each run must pass all its checks and emit
//! exactly the metrics `BENCHMARK.json` names for that mode, with the same units.

use std::path::Path;
use std::process::Command;

use serde::Value;

const SEED: &str = "7";

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key:?}")),
        _ => panic!("not an object when looking up {key:?}"),
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn number(v: &Value) -> f64 {
    match *v {
        Value::Int(i) => i as f64,
        Value::UInt(u) => u as f64,
        Value::Float(f) => f,
        ref other => panic!("expected a number, got {other:?}"),
    }
}

fn entries(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let raw = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the package");
    sgs_obs::json::parse(&raw).expect("BENCHMARK.json parses")
}

/// (name, unit) of every metric in one `BENCHMARK.json` table.
fn declared(table: &str) -> Vec<(String, String)> {
    entries(field(&benchmark_json(), table))
        .iter()
        .map(|m| (text(field(m, "name")).into(), text(field(m, "unit")).into()))
        .collect()
}

fn run(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", SEED, "--seconds", "0.5"])
        .args(["--trace", trace, "--size", "tiny"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    sgs_obs::json::parse(last).expect("the last line is JSON")
}

fn check(workload: &str) {
    for (trace, table) in [("0", "end_to_end"), ("1", "per_layer")] {
        let result = run(workload, trace);
        assert!(
            matches!(field(&result, "correct"), Value::Bool(true)),
            "{workload} --trace {trace} reported incorrect output"
        );
        assert!(number(field(&result, "attempted")) >= 1.0);
        assert_eq!(number(field(&result, "failed")), 0.0);
        let Value::Object(metrics) = field(&result, "metrics") else {
            panic!("metrics is not an object");
        };
        let emitted: Vec<(String, String)> = metrics
            .iter()
            .map(|(name, m)| {
                assert!(number(field(m, "value")).is_finite());
                (name.clone(), text(field(m, "unit")).into())
            })
            .collect();
        assert_eq!(emitted, declared(table), "{workload} --trace {trace}");
    }
}

#[test]
fn workloads_match_benchmark_json() {
    let bench = benchmark_json();
    let names: Vec<&str> = entries(field(&bench, "workloads"))
        .iter()
        .map(|w| text(field(w, "name")))
        .collect();
    assert_eq!(
        names,
        [
            "sparsify-dense",
            "stream-spill",
            "solve-image",
            "congest-loss"
        ]
    );
}

#[test]
fn sparsify_dense() {
    check("sparsify-dense");
}

#[test]
fn stream_spill() {
    check("stream-spill");
}

#[test]
fn solve_image() {
    check("solve-image");
}

#[test]
fn congest_loss() {
    check("congest-loss");
}
