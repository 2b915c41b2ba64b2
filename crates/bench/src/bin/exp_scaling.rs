//! Experiment E6 — parallel scalability (the CRCW PRAM → rayon substitution).
//!
//! Runs PARALLELSPARSIFY and the Baswana–Sen spanner on a fixed dense graph under rayon
//! thread pools of growing size and reports wall-clock speed-ups, plus the work counter
//! (which is thread-count independent, as the PRAM work measure should be).
//!
//! Run with: `cargo run --release -p sgs-bench --bin exp_scaling [-- FLAGS]`
//!
//! Flags:
//! * `--n N` / `--deg D` — workload size: Erdős–Rényi with `N` vertices and expected
//!   average degree `D` (defaults 4000 / 150, ≈300k edges).
//! * `--threads 1,2,4` — comma-separated pool widths to sweep (default `1,2,4,8,16`).
//! * `--seed S` — configuration seed (default 5; the workload graph keeps its own
//!   pinned seed so runs stay comparable).
//! * `--distributed` — also run the distributed (CONGEST) pipeline per thread count and
//!   append `dist_sample_ms` / `dist_spanner_ms` wall-clock plus the communication
//!   columns `dist_rounds` / `dist_messages` / `dist_bits` (which must be identical
//!   across rows: the simulator's accounting is deterministic per seed).
//! * `--json` — append the rows as JSON to stdout (as in every experiment binary).
//! * `--json-out PATH` — write the rows as a JSON file (for CI artifacts).
//! * `--trace-out PATH` / `--report-out PATH` — record the run through `sgs-obs` and
//!   write a Chrome `trace_event` JSON / append a `RunReport` JSONL line. Tracing
//!   changes no output: the kept edge set and every counter stay byte-identical.
//!
//! Reading the output: `sparsify_ms` / `spanner_ms` / `bundle_ms` are wall-clock; the
//! `*_speedup` columns are relative to the first (usually 1-thread) row, so ideal
//! scaling shows `speedup ≈ threads` until the machine runs out of cores. On a traced
//! run (`--trace-out` or `--report-out`) the `decide_ms` / `apply_ms` / `sweep_ms` /
//! `join_ms` / `sampling_ms` columns break the sparsify wall-clock into the engine's
//! phases, summed from the `spanner.{decide,apply,sweep,join}` and `sample.coins`
//! spans of that row's `parallel_sparsify` call — in particular `apply_ms` must
//! shrink with the pool like `decide_ms` does, demonstrating that the decision commit
//! is no longer a serial section. Untraced runs omit those columns: their wall clock
//! is the end-to-end measurement and carries no tracing cost. `work_ops`, `m_out`,
//! `spanner_edges` and `bundle_edges` must be **identical** across rows — the
//! outputs are deterministic per seed regardless of the thread count; only the wall
//! clock (and hence the phase timings) may change. CI runs this binary untraced and
//! traced on the same workload and fails when tracing adds more than 10% to
//! `sparsify_ms`.

use sgs_bench::{print_table, time_ms, Cli, Row, Workload};
use sgs_core::{parallel_sparsify, BundleSizing, SparsifyConfig};
use sgs_distributed::{distributed_sample, distributed_spanner, DistSpannerConfig};
use sgs_spanner::{baswana_sen_spanner, t_bundle, BundleConfig, SpannerConfig};

/// The phase columns of a traced row and the span each one sums.
const PHASES: [(&str, &str); 5] = [
    ("decide_ms", "spanner.decide"),
    ("apply_ms", "spanner.apply"),
    ("sweep_ms", "spanner.sweep"),
    ("join_ms", "spanner.join"),
    ("sampling_ms", "sample.coins"),
];

fn main() {
    let cli = Cli::parse();
    let sink = cli.start_observability();
    let n = cli.usize_flag("--n", 4000);
    let deg = cli.usize_flag("--deg", 150);
    let thread_counts = cli.threads(&[1, 2, 4, 8, 16]);
    let distributed = cli.has("--distributed");
    let seed = cli.seed(5);

    let workload = Workload::ErdosRenyi { n, deg };
    let g = workload.build(51);
    println!("graph: n = {}, m = {}", g.n(), g.m());

    let cfg = SparsifyConfig::new(0.75, 8.0)
        .with_bundle_sizing(BundleSizing::Fixed(4))
        .with_seed(seed);

    let mut rows = Vec::new();
    let mut baseline_sparsify = f64::NAN;
    let mut baseline_spanner = f64::NAN;
    for &threads in &thread_counts {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool");
        let first_event = sink.map_or(0, |s| s.len());
        let (sparsify_out, sparsify_ms) = pool.install(|| time_ms(|| parallel_sparsify(&g, &cfg)));
        // Events of this call only: the spans that follow belong to other engines.
        let phase_spans = sink.map(|s| sgs_obs::span_totals(&s.events()[first_event..]));
        let (spanner_out, spanner_ms) =
            pool.install(|| time_ms(|| baswana_sen_spanner(&g, &SpannerConfig::with_seed(3))));
        let (bundle_out, bundle_ms) =
            pool.install(|| time_ms(|| t_bundle(&g, &BundleConfig::new(3).with_seed(3))));
        if baseline_sparsify.is_nan() {
            baseline_sparsify = sparsify_ms;
            baseline_spanner = spanner_ms;
        }
        let mut row = Row::new(format!("threads = {threads}"))
            .push("threads", threads as f64)
            .push("sparsify_ms", sparsify_ms)
            .push("sparsify_speedup", baseline_sparsify / sparsify_ms);
        if let Some(spans) = &phase_spans {
            for (column, span) in PHASES {
                row = row.push(column, spans.get(span).map_or(0.0, |t| t.total_ms));
            }
        }
        row = row
            .push("spanner_ms", spanner_ms)
            .push("spanner_speedup", baseline_spanner / spanner_ms)
            .push("bundle_ms", bundle_ms)
            .push("work_ops", sparsify_out.stats.total_work() as f64)
            .push("m_out", sparsify_out.sparsifier.m() as f64)
            .push("spanner_edges", spanner_out.edge_ids.len() as f64)
            .push("bundle_edges", bundle_out.bundle_size as f64);
        if distributed {
            // Same workload through the CONGEST simulator: the wall clock tracks the
            // engine, the rounds/messages/bits columns track Theorem 2 / Corollary 3
            // accounting (deterministic per seed, so identical across thread rows).
            let dist_cfg = SparsifyConfig::new(0.75, 4.0)
                .with_bundle_sizing(BundleSizing::Fixed(2))
                .with_seed(seed);
            let (dist_out, dist_sample_ms) =
                pool.install(|| time_ms(|| distributed_sample(&g, &dist_cfg)));
            let (dist_sp, dist_spanner_ms) = pool
                .install(|| time_ms(|| distributed_spanner(&g, &DistSpannerConfig::with_seed(3))));
            row = row
                .push("dist_sample_ms", dist_sample_ms)
                .push("dist_spanner_ms", dist_spanner_ms)
                .push("dist_rounds", dist_out.metrics.rounds as f64)
                .push("dist_messages", dist_out.metrics.messages as f64)
                .push("dist_bits", dist_out.metrics.total_bits as f64)
                .push("dist_m_out", dist_out.sparsifier.m() as f64)
                .push("dist_spanner_edges", dist_sp.edge_ids.len() as f64);
        }
        rows.push(row);
    }
    print_table(
        "E6: parallel scalability — wall clock vs threads at fixed work (CRCW PRAM substitute)",
        &rows,
    );
    println!(
        "the work counter and the outputs are identical across thread counts (deterministic\n\
         seeding); only the wall clock changes, which is the PRAM work/depth separation."
    );

    cli.write_json_out(&rows);
    cli.finish_observability(sink, "exp_scaling", &workload.label(), &rows);
}
