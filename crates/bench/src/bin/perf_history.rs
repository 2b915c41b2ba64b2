//! Perf-trajectory registry: appends an `exp_scaling --bench-json` snapshot as one
//! JSONL row to the repo-root `PERF_HISTORY.jsonl`, so every CI scaling run on `main`
//! leaves a queryable record (commit, host cores, full row set) instead of silently
//! overwriting the previous number.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p sgs-bench --bin perf_history -- \
//!     BENCH_7.json --commit abc1234 [--source BENCH_7.json] [--history PERF_HISTORY.jsonl]
//! ```
//!
//! Each line of the history is a self-contained JSON object:
//!
//! ```text
//! {"commit":"abc1234","source":"BENCH_7.json","snapshot":{...}}
//! ```
//!
//! where `snapshot` is the snapshot file parsed with `sgs_obs::json` and written back
//! on one line by `serde_json`. The snapshot already carries `workload`, `host_cores`
//! and the per-thread rows, so a history line never needs the original file again.
//! Appends are idempotent per (commit, source), compared on the parsed fields of each
//! existing line whatever its spacing: re-running on the same commit is a no-op, so a
//! CI retry doesn't duplicate rows.
//!
//! # Report mode
//!
//! ```text
//! cargo run --release -p sgs-bench --bin perf_history -- report \
//!     [--history PERF_HISTORY.jsonl] [--metrics sparsify_ms,spanner_ms] [--max-regress 0.25]
//! ```
//!
//! Parses the history back (via `sgs_obs::json`) and summarises the trend of each
//! `(source, metric)` pair on the single-thread row: first / last / best value and how
//! many commit-to-commit steps exceeded the regression budget (default 25%, matching
//! the CI `bench_compare` gate). Metrics default to every `*_ms` wall-clock column.

use std::process::ExitCode;

use serde::Value;
use sgs_bench::{snapshot_rows, Cli};
use sgs_obs::json;

/// One `(commit, source)` history line reduced to the single-thread row's metrics.
struct HistoryEntry {
    commit: String,
    source: String,
    metrics: Vec<(String, f64)>,
}

/// The `threads = 1` row (falling back to the first row) of one parsed snapshot.
fn entry_metrics(snapshot: &Value) -> Vec<(String, f64)> {
    let rows = snapshot_rows(snapshot);
    let row = rows
        .iter()
        .find(|(label, _)| *label == "threads = 1")
        .or_else(|| rows.first());
    row.map(|(_, columns)| {
        columns
            .iter()
            .map(|&(name, value)| (name.to_string(), value))
            .collect()
    })
    .unwrap_or_default()
}

/// A string field of a parsed history line.
fn str_field<'v>(line: &'v Value, key: &str) -> Option<&'v str> {
    json::get(line, key).and_then(json::as_str)
}

fn report(args: &[String]) -> Result<(), String> {
    let cli = Cli::from_args(args.to_vec());
    let history_path = cli
        .value("--history")
        .unwrap_or_else(|| "PERF_HISTORY.jsonl".to_string());
    let budget: f64 = cli.parsed("--max-regress")?.unwrap_or(0.25);
    let wanted: Option<Vec<String>> = cli
        .value("--metrics")
        .map(|v| v.split(',').map(|m| m.trim().to_string()).collect());

    let text = std::fs::read_to_string(&history_path)
        .map_err(|e| format!("reading {history_path}: {e}"))?;
    let mut entries = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("{history_path}:{}: {e}", idx + 1))?;
        let commit = str_field(&v, "commit").unwrap_or("?").to_string();
        let source = str_field(&v, "source").unwrap_or("?").to_string();
        let snapshot = json::get(&v, "snapshot")
            .ok_or_else(|| format!("{history_path}:{}: missing snapshot", idx + 1))?;
        entries.push(HistoryEntry {
            commit,
            source,
            metrics: entry_metrics(snapshot),
        });
    }
    if entries.is_empty() {
        println!("perf_history report: {history_path} is empty");
        return Ok(());
    }

    // Group by source, preserving first-seen order.
    let mut sources: Vec<String> = Vec::new();
    for e in &entries {
        if !sources.contains(&e.source) {
            sources.push(e.source.clone());
        }
    }

    println!(
        "== perf history report: {history_path} ({} lines, budget {:.0}%) ==",
        entries.len(),
        budget * 100.0
    );
    println!(
        "{:<20} {:<22} {:>4} {:>12} {:>12} {:>12} {:>12}",
        "source", "metric", "runs", "first", "last", "best", "regressions"
    );
    let mut total_regressions = 0usize;
    for source in &sources {
        let series: Vec<&HistoryEntry> = entries.iter().filter(|e| &e.source == source).collect();
        // Metric names from the first entry of this source, filtered to the
        // requested list (default: wall-clock columns).
        let names: Vec<String> = series[0]
            .metrics
            .iter()
            .map(|(n, _)| n.clone())
            .filter(|n| match &wanted {
                Some(list) => list.contains(n),
                None => n.ends_with("_ms"),
            })
            .collect();
        for name in &names {
            let values: Vec<(f64, &str)> = series
                .iter()
                .filter_map(|e| {
                    e.metrics
                        .iter()
                        .find(|(n, _)| n == name)
                        .map(|(_, v)| (*v, e.commit.as_str()))
                })
                .collect();
            if values.is_empty() {
                continue;
            }
            let first = values[0].0;
            let last = values[values.len() - 1].0;
            let best = values.iter().map(|(v, _)| *v).fold(f64::INFINITY, f64::min);
            let regressions = values
                .windows(2)
                .filter(|w| w[1].0 > w[0].0 * (1.0 + budget))
                .count();
            total_regressions += regressions;
            println!(
                "{:<20} {:<22} {:>4} {:>12.3} {:>12.3} {:>12.3} {:>12}",
                source,
                name,
                values.len(),
                first,
                last,
                best,
                regressions
            );
            for w in values.windows(2) {
                if w[1].0 > w[0].0 * (1.0 + budget) {
                    println!(
                        "    regression: {} -> {}: {:.3} -> {:.3} (+{:.1}%)",
                        w[0].1,
                        w[1].1,
                        w[0].0,
                        w[1].0,
                        (w[1].0 / w[0].0 - 1.0) * 100.0
                    );
                }
            }
        }
    }
    println!(
        "{} step regression(s) exceeded the {:.0}% budget",
        total_regressions,
        budget * 100.0
    );
    Ok(())
}

fn run(args: &[String]) -> Result<(), String> {
    if args.get(1).map(String::as_str) == Some("report") {
        return report(args);
    }
    let files: Vec<&String> = args
        .iter()
        .skip(1)
        .take_while(|a| !a.starts_with("--"))
        .collect();
    let [snapshot_path] = files.as_slice() else {
        return Err(
            "usage: perf_history <snapshot.json> --commit SHA [--source LABEL] [--history PATH]"
                .into(),
        );
    };
    let cli = Cli::from_args(args.to_vec());
    let commit = cli.value("--commit").ok_or("--commit SHA is required")?;
    let source = cli
        .value("--source")
        .unwrap_or_else(|| snapshot_path.to_string());
    let history_path = cli
        .value("--history")
        .unwrap_or_else(|| "PERF_HISTORY.jsonl".to_string());

    let snapshot = std::fs::read_to_string(snapshot_path)
        .map_err(|e| format!("reading {snapshot_path}: {e}"))?;
    let snapshot = json::parse(&snapshot).map_err(|e| format!("{snapshot_path}: {e}"))?;

    let existing = std::fs::read_to_string(&history_path).unwrap_or_default();
    for (idx, l) in existing.lines().enumerate() {
        if l.trim().is_empty() {
            continue;
        }
        let v = json::parse(l).map_err(|e| format!("{history_path}:{}: {e}", idx + 1))?;
        if str_field(&v, "commit") == Some(&commit) && str_field(&v, "source") == Some(&source) {
            println!(
                "perf_history: {history_path} already has ({commit}, {source}); nothing to do"
            );
            return Ok(());
        }
    }
    let line = Value::Object(vec![
        ("commit".to_string(), Value::Str(commit.clone())),
        ("source".to_string(), Value::Str(source.clone())),
        ("snapshot".to_string(), snapshot),
    ]);
    let line = serde_json::to_string(&line).map_err(|e| e.to_string())?;

    let mut out = existing;
    if !out.is_empty() && !out.ends_with('\n') {
        out.push('\n');
    }
    out.push_str(&line);
    out.push('\n');
    std::fs::write(&history_path, out).map_err(|e| format!("writing {history_path}: {e}"))?;
    println!("perf_history: appended ({commit}, {source}) to {history_path}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perf_history: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_is_idempotent_per_commit_and_source() {
        let dir = std::env::temp_dir();
        let snap_path = dir.join("perf_history_snap.json");
        let hist_path = dir.join("perf_history_test.jsonl");
        std::fs::write(
            &snap_path,
            "{\n  \"workload\": \"er\",\n  \"host_cores\": 1\n}",
        )
        .unwrap();
        let _ = std::fs::remove_file(&hist_path);
        let argv = |commit: &str| {
            vec![
                "perf_history".to_string(),
                snap_path.to_string_lossy().into_owned(),
                "--commit".to_string(),
                commit.to_string(),
                "--source".to_string(),
                "BENCH_X.json".to_string(),
                "--history".to_string(),
                hist_path.to_string_lossy().into_owned(),
            ]
        };
        run(&argv("aaa1111")).unwrap();
        run(&argv("aaa1111")).unwrap(); // retry: must not duplicate
        run(&argv("bbb2222")).unwrap();
        let hist = std::fs::read_to_string(&hist_path).unwrap();
        let lines: Vec<&str> = hist.lines().collect();
        assert_eq!(lines.len(), 2, "{hist}");
        assert_eq!(
            lines[0],
            r#"{"commit": "aaa1111", "source": "BENCH_X.json", "snapshot": {"workload": "er", "host_cores": 1}}"#
        );
        let second = json::parse(lines[1]).unwrap();
        assert_eq!(str_field(&second, "commit"), Some("bbb2222"));
    }

    #[test]
    fn append_over_a_compact_row_is_a_no_op() {
        let dir = std::env::temp_dir();
        let snap_path = dir.join("perf_history_compact_snap.json");
        let hist_path = dir.join("perf_history_compact.jsonl");
        std::fs::write(&snap_path, "{\"workload\": \"er\"}").unwrap();
        // The compact spelling earlier versions of this tool wrote.
        let compact =
            r#"{"commit":"ccc3333","source":"BENCH_X.json","snapshot":{"workload":"er"}}"#;
        std::fs::write(&hist_path, format!("{compact}\n")).unwrap();
        run(&[
            "perf_history".to_string(),
            snap_path.to_string_lossy().into_owned(),
            "--commit".to_string(),
            "ccc3333".to_string(),
            "--source".to_string(),
            "BENCH_X.json".to_string(),
            "--history".to_string(),
            hist_path.to_string_lossy().into_owned(),
        ])
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(&hist_path).unwrap(),
            format!("{compact}\n")
        );
    }

    #[test]
    fn committed_history_rows_re_serialize_without_drift() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../PERF_HISTORY.jsonl");
        let text = std::fs::read_to_string(path).unwrap();
        let squeeze = |s: &str| s.split_whitespace().collect::<String>();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let v = json::parse(line).unwrap();
            assert_eq!(squeeze(&serde_json::to_string(&v).unwrap()), squeeze(line));
        }
    }

    #[test]
    fn missing_commit_is_an_error() {
        let err = run(&["perf_history".to_string(), "x.json".to_string()]).unwrap_err();
        assert!(err.contains("--commit"), "{err}");
    }

    #[test]
    fn report_reads_the_single_thread_row() {
        let snapshot = json::parse(
            "{\"bench\": \"exp_scaling\", \"rows\": [\
             {\"label\": \"threads = 1\", \"values\": [[\"sparsify_ms\", 120.5], [\"m_out\", 4000]]},\
             {\"label\": \"threads = 2\", \"values\": [[\"sparsify_ms\", 70.1], [\"m_out\", 4000]]}]}",
        )
        .unwrap();
        let metrics = entry_metrics(&snapshot);
        assert_eq!(metrics.len(), 2);
        assert_eq!(metrics[0], ("sparsify_ms".to_string(), 120.5));
    }

    #[test]
    fn report_runs_over_an_appended_history() {
        let dir = std::env::temp_dir();
        let hist_path = dir.join("perf_history_report_test.jsonl");
        // Two commits where sparsify_ms regresses by 50% — one step over a 25% budget.
        let lines = [
            "{\"commit\":\"aaa\",\"source\":\"BENCH_7.json\",\"snapshot\":{\"rows\":[{\"label\":\"threads = 1\",\"values\":[[\"sparsify_ms\",100]]}]}}",
            "{\"commit\":\"bbb\",\"source\":\"BENCH_7.json\",\"snapshot\":{\"rows\":[{\"label\":\"threads = 1\",\"values\":[[\"sparsify_ms\",150]]}]}}",
        ];
        std::fs::write(&hist_path, lines.join("\n")).unwrap();
        run(&[
            "perf_history".to_string(),
            "report".to_string(),
            "--history".to_string(),
            hist_path.to_string_lossy().into_owned(),
        ])
        .unwrap();
        // An explicit metric list and budget parse too.
        run(&[
            "perf_history".to_string(),
            "report".to_string(),
            "--history".to_string(),
            hist_path.to_string_lossy().into_owned(),
            "--metrics".to_string(),
            "sparsify_ms".to_string(),
            "--max-regress".to_string(),
            "0.6".to_string(),
        ])
        .unwrap();
    }
}
