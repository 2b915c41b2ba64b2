//! # sgs-bench
//!
//! Shared infrastructure for the experiment binaries (`src/bin/exp_*.rs`). Each one
//! is run by a CI job; the paper's quantitative claims are asserted by tests, and the
//! repository benchmark is `perfbench/`.
//!
//! Each experiment binary prints a table of rows (one per workload or parameter
//! setting) and writes the same rows as JSON with `--json-out PATH`. In `exp_scaling`
//! and `exp_stream`, `--trace-out` or `--report-out` records the run through
//! `sgs-obs`, and the run report is built from the recorded events plus the table
//! rows.

#![warn(missing_docs)]

use serde::Serialize;

use sgs_graph::{generators, Graph};
use sgs_obs::{RunReport, Section};

/// The Erdős–Rényi workload the experiment binaries run: `G(n, p)` with `p` chosen so
/// the expected average degree is `deg`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Number of vertices.
    pub n: usize,
    /// Target average degree.
    pub deg: usize,
}

impl Workload {
    /// Short label used in tables.
    pub fn label(&self) -> String {
        format!("er(n={},deg={})", self.n, self.deg)
    }

    /// Materialises the workload graph with a fixed seed.
    pub fn build(&self, seed: u64) -> Graph {
        let p = (self.deg as f64 / (self.n as f64 - 1.0)).min(1.0);
        generators::erdos_renyi(self.n, p, 1.0, seed)
    }
}

/// A single row of an experiment table: a label plus named numeric columns.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Row label (workload / parameter setting).
    pub label: String,
    /// Named numeric values.
    pub values: Vec<(String, f64)>,
}

impl Row {
    /// Creates a row.
    pub fn new(label: impl Into<String>) -> Self {
        Row {
            label: label.into(),
            values: Vec::new(),
        }
    }

    /// Adds a named value.
    pub fn push(mut self, name: &str, value: f64) -> Self {
        self.values.push((name.to_string(), value));
        self
    }
}

/// Prints a table of rows with aligned columns (`--json-out` writes the same rows as
/// JSON, see [`Cli::write_json_out`]).
pub fn print_table(title: &str, rows: &[Row]) {
    println!("\n== {title} ==");
    if rows.is_empty() {
        println!("(no rows)");
        return;
    }
    // Header from the first row's value names.
    let headers: Vec<&str> = rows[0].values.iter().map(|(n, _)| n.as_str()).collect();
    print!("{:<26}", "workload");
    for h in &headers {
        print!(" {h:>14}");
    }
    println!();
    for row in rows {
        print!("{:<26}", row.label);
        for (_, v) in &row.values {
            if v.abs() >= 1000.0 || (*v != 0.0 && v.abs() < 0.01) {
                print!(" {v:>14.3e}");
            } else {
                print!(" {v:>14.3}");
            }
        }
        println!();
    }
}

/// Measures the wall-clock time of a closure in milliseconds, returning the result too.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Parsed command line shared by every experiment binary, so that the common flags
/// (`--seed`, `--threads`, `--json-out PATH`, `--trace-out PATH`,
/// `--report-out PATH`) carry the same spelling and semantics everywhere instead of
/// each binary re-implementing its own `flag_value` helper.
#[derive(Debug, Clone)]
pub struct Cli {
    args: Vec<String>,
}

impl Cli {
    /// Captures the process arguments.
    pub fn parse() -> Self {
        Cli {
            args: std::env::args().collect(),
        }
    }

    /// Builds a CLI from explicit arguments (for tests).
    pub fn from_args(args: Vec<String>) -> Self {
        Cli { args }
    }

    /// Whether a bare flag (`--verify`, `--distributed`, …) is present.
    pub fn has(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }

    /// The value following `name`, if present.
    pub fn value(&self, name: &str) -> Option<String> {
        self.args
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.args.get(i + 1).cloned())
    }

    /// An integer-valued flag with a default.
    pub fn usize_flag(&self, name: &str, default: usize) -> usize {
        self.value(name)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("{name} takes an integer"))
            })
            .unwrap_or(default)
    }

    /// A float-valued flag with a default.
    pub fn f64_flag(&self, name: &str, default: f64) -> f64 {
        self.value(name)
            .map(|v| v.parse().unwrap_or_else(|_| panic!("{name} takes a float")))
            .unwrap_or(default)
    }

    /// A `u64`-valued flag with a default.
    pub fn u64_flag(&self, name: &str, default: u64) -> u64 {
        self.value(name)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("{name} takes an integer"))
            })
            .unwrap_or(default)
    }

    /// The `--seed` flag (configuration seed; workload generators keep their own
    /// pinned seeds so the graph under test stays comparable across runs).
    pub fn seed(&self, default: u64) -> u64 {
        self.u64_flag("--seed", default)
    }

    /// The `--threads 1,2,4` comma-list, with a default sweep.
    pub fn threads(&self, default: &[usize]) -> Vec<usize> {
        self.value("--threads")
            .map(|v| {
                v.split(',')
                    .map(|t| t.trim().parse().expect("--threads takes a comma list"))
                    .collect()
            })
            .unwrap_or_else(|| default.to_vec())
    }

    /// The `--trace-out PATH` flag: where to write the Chrome `trace_event` JSON.
    pub fn trace_out(&self) -> Option<String> {
        self.value("--trace-out")
    }

    /// The `--report-out PATH` flag: where to append the run's [`RunReport`] JSONL line.
    pub fn report_out(&self) -> Option<String> {
        self.value("--report-out")
    }

    /// Installs a global recording sink when `--trace-out` or `--report-out` is
    /// present, returning it for [`Cli::finish_observability`]. With neither flag the
    /// run stays untraced: [`sgs_obs::enabled`] remains false and every emission site
    /// is a single untaken branch.
    pub fn start_observability(&self) -> Option<&'static sgs_obs::RecordingSink> {
        if self.trace_out().is_some() || self.report_out().is_some() {
            Some(sgs_obs::install_recording())
        } else {
            None
        }
    }

    /// Uninstalls the sink and writes whatever the command line asked for: the Chrome
    /// trace to `--trace-out` and one appended [`RunReport`] JSONL line to
    /// `--report-out`. The report is [`RunReport::from_events`] over the recorded
    /// events, followed by one section per table row (the row label names the
    /// section, the columns become its fields).
    pub fn finish_observability(
        &self,
        sink: Option<&'static sgs_obs::RecordingSink>,
        bench: &str,
        workload: &str,
        rows: &[Row],
    ) {
        let Some(sink) = sink else { return };
        sgs_obs::clear();
        let events = sink.take();
        if let Some(path) = self.trace_out() {
            std::fs::write(&path, sgs_obs::export_chrome_trace(&events))
                .expect("writing --trace-out file");
            println!("chrome trace written to {path} ({} events)", events.len());
        }
        if let Some(path) = self.report_out() {
            use std::io::Write;
            let mut report = RunReport::from_events(bench, workload, &events);
            for row in rows {
                report.push(Section {
                    name: row.label.clone(),
                    fields: row.values.clone(),
                    ..Section::default()
                });
            }
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .expect("opening --report-out file");
            writeln!(file, "{}", report.to_jsonl_line()).expect("writing --report-out file");
            println!("run report appended to {path}");
        }
    }

    /// Writes `rows` to the `--json-out` path when the flag is present.
    pub fn write_json_out(&self, rows: &[Row]) {
        if let Some(path) = self.value("--json-out") {
            let json = serde_json::to_string_pretty(rows).expect("serializable rows");
            std::fs::write(&path, json).expect("writing --json-out file");
            println!("rows written to {path}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_build_nonempty_graphs() {
        let w = Workload { n: 100, deg: 10 };
        let g = w.build(3);
        assert_eq!(g.n(), 100);
        assert!(g.m() > 0);
        assert_eq!(w.label(), "er(n=100,deg=10)");
    }

    #[test]
    fn cli_flags_parse_with_shared_semantics() {
        let cli = Cli::from_args(
            [
                "exp",
                "--n",
                "100",
                "--seed",
                "9",
                "--threads",
                "1, 2,4",
                "--keep",
                "0.25",
                "--verify",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        );
        assert_eq!(cli.usize_flag("--n", 4000), 100);
        assert_eq!(cli.usize_flag("--deg", 150), 150);
        assert_eq!(cli.seed(5), 9);
        assert_eq!(cli.threads(&[1, 2]), vec![1, 2, 4]);
        assert!((cli.f64_flag("--keep", 0.5) - 0.25).abs() < 1e-12);
        assert!(cli.has("--verify"));
        assert!(!cli.has("--distributed"));
        assert!(cli.value("--json-out").is_none());
    }

    /// Every experiment binary must be run by a CI job: a binary nothing runs prints
    /// claims nothing checks. A claim worth keeping belongs in a test.
    #[test]
    fn every_experiment_binary_is_run_by_ci() {
        let manifest = include_str!("../Cargo.toml");
        let workflow = include_str!("../../../.github/workflows/ci.yml");
        let bins: Vec<&str> = manifest
            .split("[[bin]]")
            .skip(1)
            .filter_map(|section| {
                let line = section
                    .lines()
                    .find(|l| l.trim_start().starts_with("name"))?;
                line.split('"').nth(1)
            })
            .collect();
        assert!(!bins.is_empty(), "no [[bin]] entries found");
        let words: Vec<&str> = workflow.split_whitespace().collect();
        let unrun: Vec<&str> = bins
            .iter()
            .copied()
            .filter(|bin| !words.windows(2).any(|w| w == ["--bin", *bin]))
            .collect();
        assert!(unrun.is_empty(), "binaries no CI job runs: {unrun:?}");
    }

    #[test]
    fn rows_and_timer() {
        let row = Row::new("x").push("a", 1.0).push("b", 2.0);
        assert_eq!(row.values.len(), 2);
        let (v, ms) = time_ms(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
        print_table("test table", &[row]);
        print_table("empty", &[]);
    }
}
