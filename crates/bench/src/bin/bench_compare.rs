//! Perf-trajectory gate: compares two `--bench-json` snapshots of the same experiment
//! (`exp_scaling`, `exp_stream`, `exp_outofcore`, …) and fails (exit code 1) when a
//! watched metric regressed by more than the allowed fraction on the single-thread
//! row, or when the candidate's multicore speedup falls below a requested floor.
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
//! rows are not comparable to each other. A gated metric may also be a deterministic
//! count (`peak_resident_edges`, `m_out_er`); only `*_ms` metrics print a unit.
//!
//! The `--min-speedup` gate is *candidate-internal*: it divides the candidate's own
//! `threads = 1` wall-clock by its `threads = T` wall-clock, so it needs no
//! cross-host baseline. If the candidate snapshot was captured on fewer than `T`
//! cores (e.g. a 1-core container, where every speedup is legitimately ~1.0×), the
//! gate is skipped with a warning instead of failing.
//!
//! Snapshots are read with `sgs_obs::json`; a malformed file or flag value is an
//! error (exit code 1), never a panic.

use std::process::ExitCode;

use serde::Value;
use sgs_bench::{snapshot_rows, Cli};
use sgs_obs::json;

/// Reads and parses one snapshot file.
fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The named column of the row labelled `row_label`.
fn row_metric(snapshot: &Value, row_label: &str, metric: &str) -> Option<f64> {
    let rows = snapshot_rows(snapshot);
    let (_, columns) = rows.iter().find(|(label, _)| *label == row_label)?;
    columns
        .iter()
        .find(|(name, _)| *name == metric)
        .map(|&(_, v)| v)
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
    let cli = Cli::from_args(args.to_vec());
    let max_regress: f64 = cli.parsed("--max-regress")?.unwrap_or(0.25);
    let metrics: Vec<String> = cli
        .value("--metrics")
        .map(|v| v.split(',').map(|s| s.trim().to_string()).collect())
        .unwrap_or_else(|| vec!["spanner_ms".to_string(), "sparsify_ms".to_string()]);
    let min_speedup: Option<f64> = cli.parsed("--min-speedup")?;
    let speedup_metric = cli
        .value("--speedup-metric")
        .unwrap_or_else(|| "sparsify_ms".to_string());
    let speedup_threads: usize = cli.parsed("--speedup-threads")?.unwrap_or(4);

    let baseline = load(baseline_path)?;
    let current = load(current_path)?;

    let workload = |v: &Value, path: &str| {
        json::get(v, "workload")
            .and_then(json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("{path}: no workload field"))
    };
    let wl_base = workload(&baseline, baseline_path)?;
    let wl_cur = workload(&current, current_path)?;
    if wl_base != wl_cur {
        return Err(format!(
            "workload mismatch: baseline is {wl_base}, candidate is {wl_cur}"
        ));
    }

    let cores_base = json::get(&baseline, "host_cores").and_then(json::as_f64);
    let cores_cur = json::get(&current, "host_cores").and_then(json::as_f64);
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
        let unit = if metric.ends_with("_ms") { " ms" } else { "" };
        println!(
            "  {metric:>12}: {base:10.3}{unit} -> {cur:10.3}{unit}  ({ratio:5.2}x)  {verdict}"
        );
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
    fn reads_row_metrics_through_the_parser() {
        let snap = json::parse(SNAPSHOT).unwrap();
        let v = row_metric(&snap, "threads = 1", "spanner_ms").unwrap();
        assert!((v - 119.033917).abs() < 1e-9);
        let v2 = row_metric(&snap, "threads = 2", "sparsify_ms").unwrap();
        assert!((v2 - 705.98).abs() < 1e-9);
        assert!(row_metric(&snap, "threads = 1", "nope").is_none());
        assert!(row_metric(&snap, "threads = 9", "sparsify_ms").is_none());
        // A metric present only in a *later* row must not leak into this row's lookup.
        assert!(row_metric(&snap, "threads = 1", "only_here").is_none());
        let v3 = row_metric(&snap, "threads = 2", "only_here").unwrap();
        assert!((v3 - 3.5).abs() < 1e-12);
    }

    #[test]
    fn committed_snapshot_gates_against_itself() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_7.json");
        let argv: Vec<String> = [
            "bench_compare",
            path,
            path,
            "--max-regress",
            "0.25",
            "--metrics",
            "spanner_ms,sparsify_ms,work_ops",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        run(&argv).unwrap();
        let snap = load(path).unwrap();
        assert_eq!(snapshot_rows(&snap).len(), 3);
    }

    #[test]
    fn malformed_flags_and_files_are_errors() {
        let dir = std::env::temp_dir();
        let base_path = dir.join("bench_compare_flags_base.json");
        let broken_path = dir.join("bench_compare_flags_broken.json");
        std::fs::write(&base_path, SNAPSHOT).unwrap();
        std::fs::write(&broken_path, &SNAPSHOT[..40]).unwrap();
        let base = base_path.to_string_lossy().into_owned();
        let argv = |cur: &str, extra: &[&str]| {
            let mut v = vec!["bench_compare".to_string(), base.clone(), cur.to_string()];
            v.extend(extra.iter().map(|s| s.to_string()));
            v
        };
        for flag in ["--max-regress", "--min-speedup", "--speedup-threads"] {
            let err = run(&argv(&base, &[flag, "x"])).unwrap_err();
            assert!(err.contains(flag), "{err}");
        }
        let err = run(&argv(&broken_path.to_string_lossy(), &[])).unwrap_err();
        assert!(err.contains("json parse error"), "{err}");
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
