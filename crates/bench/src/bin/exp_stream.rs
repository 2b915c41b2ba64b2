//! Experiment E8 — the semi-streaming engine (`sgs-stream`) under a memory budget.
//!
//! Streams a fixed Erdős–Rényi workload through `StreamSparsifier` in a configurable
//! number of batches under a configurable resident-edge budget, sweeping rayon pool
//! widths, and reports wall-clock plus the memory/ε accounting. The outputs
//! (`m_out`, `peak_resident_edges`, ε ledger) must be identical across thread rows —
//! the engine is thread-count and batch-chop deterministic — so only the wall clock
//! varies.
//!
//! Each thread row also runs the leverage-aware configuration — effective-resistance
//! interior sampling plus the ER-weighted final reduction pass — and reports its
//! output size (`m_out_er`), the standalone cost of the final pass on the uniform
//! tree's output (`er_pass_ms`), and the Laplacian solves consumed (`er_solves`).
//! The uniform run's `stream_sparsify_ms` is timed separately, so the leverage-aware
//! run does not change it.
//!
//! Run with: `cargo run --release -p sgs-bench --bin exp_stream [-- FLAGS]`
//!
//! Flags:
//! * `--n N` / `--deg D` — workload size (defaults 4000 / 150, ≈300k edges).
//! * `--batches B` — how many equal batches the edge stream is chopped into
//!   (default 16; informational only — the output provably does not depend on it).
//! * `--batch-edges E` — alternative to `--batches`: explicit batch size in edges.
//! * `--budget-edges M` — resident-edge budget (default `m / 4`).
//! * `--threads 1,2,4` — comma-separated pool widths to sweep (default `1,2,4`).
//! * `--seed S` — configuration seed (default 5; the workload graph keeps its own
//!   pinned seed so runs stay comparable).
//! * `--t N` / `--keep P` / `--rho R` / `--arity K` — per-reduction bundle size,
//!   off-bundle keep probability, sparsification factor, and merge fan-in (defaults
//!   2 / 0.5 / 2 / 2; ablation knobs for the quality-vs-memory trade).
//! * `--er-oversample C` / `--er-dims K` / `--er-tol T` — final-pass sample budget
//!   constant, JL sketch dimensions, and CG tolerance (defaults 0.02 / 8 / 1e-4).
//! * `--verify` — also certify the spectral bounds of the final sparsifier against
//!   the full graph (adds a few seconds of CG-powered power iteration).
//! * `--json-out PATH` — write the rows as a JSON file. The deterministic
//!   columns of the 2000/60, 8-batch, 30k-budget configuration (`m_out`,
//!   `peak_resident_edges`, `m_out_er`, the ε ledgers) are pinned exactly by
//!   `tests/golden_stream.rs`.
//! * `--trace-out PATH` / `--report-out PATH` — record the run through `sgs-obs`
//!   (leaf flushes, tree reductions, spills, the ER pass) and write a Chrome trace /
//!   append a `RunReport` JSONL line. Tracing changes no output.

use sgs_bench::{print_table, time_ms, Cli, Row, Workload};
use sgs_core::{resparsify_er, BundleSizing, SamplingPolicy};
use sgs_linalg::spectral::{approximation_bounds, CertifyOptions};
use sgs_stream::{FinalPassConfig, StreamConfig, StreamOutput, StreamSparsifier};

fn main() {
    let cli = Cli::parse();
    let sink = cli.start_observability();
    let n = cli.usize_flag("--n", 4000);
    let deg = cli.usize_flag("--deg", 150);
    let thread_counts = cli.threads(&[1, 2, 4]);
    let verify = cli.has("--verify");

    let workload = Workload { n, deg };
    let g = workload.build(51);
    let m = g.m();
    let budget = cli.usize_flag("--budget-edges", m / 4);
    let batch_edges = cli.value("--batch-edges").map_or_else(
        || {
            let batches = cli.usize_flag("--batches", 16);
            m.div_ceil(batches.max(1)).max(1)
        },
        |v| v.parse().expect("--batch-edges takes an integer"),
    );
    println!(
        "graph: n = {}, m = {m}, budget = {budget} resident edges, batches of {batch_edges}",
        g.n()
    );

    let t = cli.usize_flag("--t", 2);
    let keep = cli.f64_flag("--keep", 0.5);
    let rho = cli.f64_flag("--rho", 2.0);
    let arity = cli.usize_flag("--arity", 2);
    let seed = cli.seed(5);
    let er_oversample = cli.f64_flag("--er-oversample", 0.02);
    let er_dims = cli.usize_flag("--er-dims", 8);
    let er_tol = cli.f64_flag("--er-tol", 1e-4);
    let cfg = StreamConfig::new(0.75, budget)
        .with_bundle_sizing(BundleSizing::Fixed(t))
        .with_keep_probability(keep)
        .with_rho(rho)
        .with_arity(arity)
        .with_seed(seed);
    // The leverage-aware configuration: ER sampling on interior reductions (where the
    // inputs are already sparsifiers and the solve cost is small) plus the ER-weighted
    // final pass on the tree's output.
    let pass_cfg = FinalPassConfig::new()
        .with_oversample(er_oversample)
        .with_jl_dims(er_dims)
        .with_cg_tol(er_tol);
    let cfg_er = cfg
        .clone()
        .with_interior_sampling(SamplingPolicy::effective_resistance(er_dims, er_tol))
        .with_final_pass(pass_cfg.clone());
    let (pass_eps, pass_seed) = (cfg_er.final_pass_epsilon(), cfg_er.final_pass_seed());

    let run = |cfg: &StreamConfig| -> StreamOutput {
        let mut stream = StreamSparsifier::new(g.n(), cfg.clone());
        for chunk in g.edges().chunks(batch_edges) {
            stream.ingest_batch(chunk).expect("valid edges");
        }
        stream.finish()
    };

    let mut rows = Vec::new();
    let mut baseline_ms = f64::NAN;
    for &threads in &thread_counts {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool");
        let (out, stream_ms) = pool.install(|| time_ms(|| run(&cfg)));
        let (out_er, stream_er_ms) = pool.install(|| time_ms(|| run(&cfg_er)));
        // Standalone timing of the ER pass on the uniform tree's output: the pass cost
        // in isolation, on an input whose size does not depend on the ER knobs.
        let (pass_out, er_pass_ms) = pool
            .install(|| time_ms(|| resparsify_er(&out.sparsifier, &pass_cfg, pass_eps, pass_seed)));
        if baseline_ms.is_nan() {
            baseline_ms = stream_ms;
        }
        let er_solves =
            out_er.stats.er_pass.as_ref().map(|p| p.solves).unwrap_or(0) + pass_out.solves as u64;
        let mut row = Row::new(format!("threads = {threads}"))
            .push("threads", threads as f64)
            .push("stream_sparsify_ms", stream_ms)
            .push("stream_speedup", baseline_ms / stream_ms)
            .push("peak_resident_edges", out.stats.peak_resident_edges as f64)
            .push("budget_edges", budget as f64)
            .push("batches", out.stats.batches_ingested as f64)
            .push("m_out", out.sparsifier.m() as f64)
            .push("m_out_er", out_er.sparsifier.m() as f64)
            .push("stream_er_ms", stream_er_ms)
            .push("er_pass_ms", er_pass_ms)
            .push("er_solves", er_solves as f64)
            .push("eps_spent_er", out_er.stats.epsilon_spent())
            .push("leaves", out.stats.leaves as f64)
            .push("forced", out.stats.forced_reductions as f64)
            .push("depth", out.stats.final_depth as f64)
            .push("eps_spent", out.stats.epsilon_spent())
            .push("work_ops", out.stats.total_work() as f64);
        if verify {
            let bounds = approximation_bounds(&g, &out.sparsifier, &CertifyOptions::default());
            let bounds_er =
                approximation_bounds(&g, &out_er.sparsifier, &CertifyOptions::default());
            row = row
                .push("bound_lower", bounds.lower)
                .push("bound_upper", bounds.upper)
                .push("achieved_eps", bounds.epsilon())
                .push("achieved_eps_er", bounds_er.epsilon());
        }
        rows.push(row);
    }
    print_table(
        "E8: semi-streaming sparsification — wall clock vs threads at a fixed memory budget",
        &rows,
    );
    println!(
        "peak_resident_edges, m_out, m_out_er and the ε ledgers are identical across rows\n\
         (the engine is thread-count and batch-chop deterministic); only wall clocks change."
    );

    cli.write_json_out(&rows);
    cli.finish_observability(sink, "exp_stream", &workload.label(), &rows);
}
