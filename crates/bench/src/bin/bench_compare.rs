//! Perf-trajectory gate: compares two `exp_scaling --bench-json` snapshots and fails
//! (exit code 1) when a watched metric regressed by more than the allowed fraction on
//! the single-thread row, or when the candidate's multicore speedup falls below a
//! requested floor.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p sgs-bench --bin bench_compare -- \
//!     BENCH_7.json BENCH_ci.json [--max-regress 0.25] [--metrics spanner_ms,sparsify_ms] \
//!     [--min-speedup 1.8 --speedup-metric sparsify_ms --speedup-threads 4]
//! ```
//!
//! The baseline and candidate must describe the same workload (the tool refuses to
//! compare apples to oranges). Only the `threads = 1` row is gated on regressions:
//! multi-thread wall-clock depends on the host's core count, which differs between the
//! machine that committed the baseline and the CI runner, while single-thread time is
//! the architecture-stable signal the >25% budget is meant for. When the two
//! snapshots' `host_cores` differ, the tool says so explicitly — their multi-thread
//! rows are not comparable to each other.
//!
//! The `--min-speedup` gate is *candidate-internal*: it divides the candidate's own
//! `threads = 1` wall-clock by its `threads = T` wall-clock, so it needs no
//! cross-host baseline. If the candidate snapshot was captured on fewer than `T`
//! cores (e.g. a 1-core container, where every speedup is legitimately ~1.0×), the
//! gate is skipped with a warning instead of failing.
//!
//! The vendored `serde_json` shim is serialize-only, so this tool carries a minimal
//! field scanner for the snapshot layout `exp_scaling` itself emits (string fields and
//! `["name", number]` pairs); it is not a general JSON parser.

use std::process::ExitCode;

/// Extracts the string value of `"key": "…"`.
fn string_field(json: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\"");
    let at = json.find(&pat)?;
    let rest = &json[at + pat.len()..];
    let colon = rest.find(':')?;
    let rest = rest[colon + 1..].trim_start();
    let rest = rest.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

/// Extracts the numeric second element of the `["name", number]` pair that follows
/// `anchor` (the row label), i.e. the named column of one snapshot row.
fn row_metric(json: &str, row_label: &str, metric: &str) -> Option<f64> {
    let row_pat = format!("\"{row_label}\"");
    let row_at = json.find(&row_pat)?;
    let rest = &json[row_at + row_pat.len()..];
    // Bound the scan at the next row's "label" key so a metric missing from this row
    // errors out instead of silently reading a later row's value.
    let row = match rest.find("\"label\"") {
        Some(next_row) => &rest[..next_row],
        None => rest,
    };
    let metric_pat = format!("\"{metric}\"");
    let at = row.find(&metric_pat)?;
    let rest = &row[at + metric_pat.len()..];
    let comma = rest.find(',')?;
    let tail = rest[comma + 1..].trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// Extracts the numeric value of a top-level `"key": N` field (e.g. `host_cores`).
/// Distinct from [`row_metric`]: snapshot scalars are plain JSON fields, not
/// `["name", number]` row pairs.
fn number_field(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\"");
    let at = json.find(&pat)?;
    let rest = &json[at + pat.len()..];
    let colon = rest.find(':')?;
    let tail = rest[colon + 1..].trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn run(args: &[String]) -> Result<(), String> {
    let files: Vec<&String> = args
        .iter()
        .skip(1)
        .take_while(|a| !a.starts_with("--"))
        .collect();
    let [baseline_path, current_path] = files.as_slice() else {
        return Err(
            "usage: bench_compare <baseline.json> <current.json> [--max-regress F] [--metrics a,b]"
                .into(),
        );
    };
    let max_regress: f64 = flag_value(args, "--max-regress")
        .map(|v| v.parse().expect("--max-regress takes a float"))
        .unwrap_or(0.25);
    let metrics: Vec<String> = flag_value(args, "--metrics")
        .map(|v| v.split(',').map(|s| s.trim().to_string()).collect())
        .unwrap_or_else(|| vec!["spanner_ms".to_string(), "sparsify_ms".to_string()]);
    let min_speedup: Option<f64> =
        flag_value(args, "--min-speedup").map(|v| v.parse().expect("--min-speedup takes a float"));
    let speedup_metric =
        flag_value(args, "--speedup-metric").unwrap_or_else(|| "sparsify_ms".to_string());
    let speedup_threads: usize = flag_value(args, "--speedup-threads")
        .map(|v| v.parse().expect("--speedup-threads takes an integer"))
        .unwrap_or(4);

    let baseline = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("reading {baseline_path}: {e}"))?;
    let current = std::fs::read_to_string(current_path)
        .map_err(|e| format!("reading {current_path}: {e}"))?;

    let wl_base = string_field(&baseline, "workload")
        .ok_or_else(|| format!("{baseline_path}: no workload field"))?;
    let wl_cur = string_field(&current, "workload")
        .ok_or_else(|| format!("{current_path}: no workload field"))?;
    if wl_base != wl_cur {
        return Err(format!(
            "workload mismatch: baseline is {wl_base}, candidate is {wl_cur}"
        ));
    }

    let cores_base = number_field(&baseline, "host_cores");
    let cores_cur = number_field(&current, "host_cores");
    if cores_base != cores_cur {
        // Wall-clock rows from different hosts are not mutually comparable; the
        // regression gate below stays valid because it reads only the
        // architecture-stable threads = 1 row, but say so loudly.
        println!(
            "note: host_cores differ (baseline {}, candidate {}); multi-thread rows are not \
             cross-comparable, gating only the single-thread row",
            cores_base.map_or("?".to_string(), |c| format!("{c:.0}")),
            cores_cur.map_or("?".to_string(), |c| format!("{c:.0}")),
        );
    }

    let row = "threads = 1";
    let mut failures = Vec::new();
    println!(
        "perf gate: {wl_cur} @ {row}, budget {:.0}%",
        max_regress * 100.0
    );
    for metric in &metrics {
        let base = row_metric(&baseline, row, metric)
            .ok_or_else(|| format!("{baseline_path}: missing {metric} in '{row}' row"))?;
        let cur = row_metric(&current, row, metric)
            .ok_or_else(|| format!("{current_path}: missing {metric} in '{row}' row"))?;
        let ratio = cur / base;
        let verdict = if ratio > 1.0 + max_regress {
            failures.push(metric.clone());
            "REGRESSION"
        } else if ratio < 1.0 {
            "improved"
        } else {
            "ok"
        };
        println!("  {metric:>12}: {base:10.3} ms -> {cur:10.3} ms  ({ratio:5.2}x)  {verdict}");
    }

    if let Some(min) = min_speedup {
        // Candidate-internal: threads = 1 vs threads = T from the *same* snapshot, so
        // no cross-host baseline is involved.
        match cores_cur {
            Some(cores) if cores >= speedup_threads as f64 => {
                let t_row = format!("threads = {speedup_threads}");
                let one = row_metric(&current, row, &speedup_metric).ok_or_else(|| {
                    format!("{current_path}: missing {speedup_metric} in '{row}' row")
                })?;
                let many = row_metric(&current, &t_row, &speedup_metric).ok_or_else(|| {
                    format!("{current_path}: missing {speedup_metric} in '{t_row}' row")
                })?;
                let speedup = one / many;
                if speedup < min {
                    println!(
                        "  {speedup_metric} speedup @ {speedup_threads} threads: {speedup:.2}x < {min:.2}x  SCALING FAILURE"
                    );
                    failures.push(format!(
                        "{speedup_metric} speedup ({speedup:.2}x < {min:.2}x)"
                    ));
                } else {
                    println!(
                        "  {speedup_metric} speedup @ {speedup_threads} threads: {speedup:.2}x >= {min:.2}x  ok"
                    );
                }
            }
            Some(cores) => println!(
                "  speedup gate SKIPPED: candidate snapshot captured on {cores:.0} core(s) < \
                 {speedup_threads} gate threads (speedups ~1.0x are expected there)"
            ),
            None => println!("  speedup gate SKIPPED: candidate snapshot has no host_cores field"),
        }
    }

    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "perf gate failed ({:.0}% single-thread budget): {}",
            max_regress * 100.0,
            failures.join(", ")
        ))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("bench_compare: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SNAPSHOT: &str = r#"{
  "bench": "exp_scaling",
  "workload": "er(n=4000,deg=150)",
  "host_cores": 1,
  "rows": [
    {
      "label": "threads = 1",
      "values": [["threads", 1], ["sparsify_ms", 663.892947], ["spanner_ms", 119.033917]]
    },
    {
      "label": "threads = 2",
      "values": [["threads", 2], ["sparsify_ms", 705.98], ["spanner_ms", 127.16], ["only_here", 3.5]]
    }
  ]
}"#;

    /// A 4-core capture of the same workload: threads = 4 runs 2.4x faster than
    /// threads = 1, which clears a 1.8x speedup floor.
    const SNAPSHOT_4CORE: &str = r#"{
  "bench": "exp_scaling",
  "workload": "er(n=4000,deg=150)",
  "host_cores": 4,
  "rows": [
    {
      "label": "threads = 1",
      "values": [["threads", 1], ["sparsify_ms", 660.0], ["spanner_ms", 120.0]]
    },
    {
      "label": "threads = 4",
      "values": [["threads", 4], ["sparsify_ms", 275.0], ["spanner_ms", 55.0]]
    }
  ]
}"#;

    #[test]
    fn extracts_fields_and_row_metrics() {
        assert_eq!(
            string_field(SNAPSHOT, "workload").as_deref(),
            Some("er(n=4000,deg=150)")
        );
        assert_eq!(number_field(SNAPSHOT, "host_cores"), Some(1.0));
        assert_eq!(number_field(SNAPSHOT_4CORE, "host_cores"), Some(4.0));
        assert_eq!(number_field(SNAPSHOT, "no_such_field"), None);
        let v = row_metric(SNAPSHOT, "threads = 1", "spanner_ms").unwrap();
        assert!((v - 119.033917).abs() < 1e-9);
        let v2 = row_metric(SNAPSHOT, "threads = 2", "sparsify_ms").unwrap();
        assert!((v2 - 705.98).abs() < 1e-9);
        assert!(row_metric(SNAPSHOT, "threads = 1", "nope").is_none());
        // A metric present only in a *later* row must not leak into this row's lookup.
        assert!(row_metric(SNAPSHOT, "threads = 1", "only_here").is_none());
        let v3 = row_metric(SNAPSHOT, "threads = 2", "only_here").unwrap();
        assert!((v3 - 3.5).abs() < 1e-12);
    }

    #[test]
    fn gate_passes_and_fails_correctly() {
        let dir = std::env::temp_dir();
        let base_path = dir.join("bench_compare_base.json");
        let fast_path = dir.join("bench_compare_fast.json");
        let slow_path = dir.join("bench_compare_slow.json");
        std::fs::write(&base_path, SNAPSHOT).unwrap();
        std::fs::write(&fast_path, SNAPSHOT.replace("663.892947", "400.0")).unwrap();
        std::fs::write(&slow_path, SNAPSHOT.replace("663.892947", "900.0")).unwrap();
        let argv = |cur: &std::path::Path| {
            vec![
                "bench_compare".to_string(),
                base_path.to_string_lossy().into_owned(),
                cur.to_string_lossy().into_owned(),
            ]
        };
        assert!(run(&argv(&fast_path)).is_ok());
        let err = run(&argv(&slow_path)).unwrap_err();
        assert!(err.contains("sparsify_ms"), "{err}");
        // Workload mismatch is refused.
        let other_path = dir.join("bench_compare_other.json");
        std::fs::write(&other_path, SNAPSHOT.replace("n=4000", "n=2000")).unwrap();
        let err = run(&argv(&other_path)).unwrap_err();
        assert!(err.contains("workload mismatch"), "{err}");
    }

    #[test]
    fn speedup_gate_passes_fails_and_skips() {
        let dir = std::env::temp_dir();
        let base_path = dir.join("bench_compare_su_base.json");
        let scaling_path = dir.join("bench_compare_su_ok.json");
        let flat_path = dir.join("bench_compare_su_flat.json");
        let onecore_path = dir.join("bench_compare_su_1core.json");
        std::fs::write(&base_path, SNAPSHOT_4CORE).unwrap();
        // Scales 2.4x at 4 threads.
        std::fs::write(&scaling_path, SNAPSHOT_4CORE).unwrap();
        // Barely scales: 660 -> 600 is 1.1x, under the 1.8x floor.
        std::fs::write(&flat_path, SNAPSHOT_4CORE.replace("275.0", "600.0")).unwrap();
        // Captured on a 1-core host: the gate must skip, not fail, even though the
        // snapshot's own speedup is ~1.0x.
        std::fs::write(
            &onecore_path,
            SNAPSHOT_4CORE
                .replace("\"host_cores\": 4", "\"host_cores\": 1")
                .replace("275.0", "660.0"),
        )
        .unwrap();
        let argv = |cur: &std::path::Path| {
            vec![
                "bench_compare".to_string(),
                base_path.to_string_lossy().into_owned(),
                cur.to_string_lossy().into_owned(),
                "--min-speedup".to_string(),
                "1.8".to_string(),
                "--speedup-metric".to_string(),
                "sparsify_ms".to_string(),
                "--speedup-threads".to_string(),
                "4".to_string(),
            ]
        };
        assert!(run(&argv(&scaling_path)).is_ok());
        let err = run(&argv(&flat_path)).unwrap_err();
        assert!(err.contains("speedup"), "{err}");
        assert!(run(&argv(&onecore_path)).is_ok());
        // Without --min-speedup the flat snapshot passes (regression gate only looks
        // at the unchanged threads = 1 row).
        let argv_nogate = vec![
            "bench_compare".to_string(),
            base_path.to_string_lossy().into_owned(),
            flat_path.to_string_lossy().into_owned(),
        ];
        assert!(run(&argv_nogate).is_ok());
    }
}
