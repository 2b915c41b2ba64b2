//! Experiment E9 — out-of-core streaming: generator → spilling merge tree → solver.
//!
//! Drives a deterministic generator-backed edge stream (path skeleton plus splitmix64
//! extras, never materialised as a `Graph`) through `StreamSparsifier` twice — once
//! with the default in-memory node store and once with `SpillStore` under a small
//! resident-byte budget — then grounds and chains the spill run's sparsifier with
//! `Chain::build_from_stream` and solves an SDD system against it with chain-PCG.
//!
//! The binary **asserts** the out-of-core contract, so a CI run gates on the
//! deterministic ledger rather than wall-clock:
//!
//! * the spill run's output is bitwise identical to the in-memory run's (same edges,
//!   same weights, same algorithmic stats);
//! * the spill ledger shows real traffic (`spilled_nodes > 0`);
//! * the spill run's `peak_resident_bytes` is at most the configured RSS budget,
//!   which the in-memory run *exceeds* (resident-only execution cannot meet it);
//! * the total streamed edges are at least 10× the store's resident budget.
//!
//! Run with: `cargo run --release -p sgs-bench --bin exp_outofcore [-- FLAGS]`
//!
//! Flags:
//! * `--n N` — vertices (default 1000).
//! * `--total-edges M` — streamed edges (default 600000).
//! * `--budget-edges B` — the tree's resident-edge budget (default 100000).
//! * `--store-budget-edges S` — `SpillStore` resident cap in edges (default `B / 8`).
//! * `--rss-budget-bytes R` — the gated RAM high-water mark (default
//!   `24 · (B/2 + 3 · S)`; must sit between the spill and in-memory peaks).
//! * `--batch-edges E` — ingestion batch size (default 65536; informational).
//! * `--threads 1,4` — pool widths to sweep (default `1,4`).
//! * `--seed S` — configuration seed (default 9; the stream keeps its own seed).
//! * `--json` / `--json-out PATH` — as in every experiment binary.
//! * `--trace-out PATH` / `--report-out PATH` — record the run through `sgs-obs`
//!   (spill evictions, read-backs, chain levels, PCG iterations) and write a Chrome
//!   trace / append a `RunReport` JSONL line. Tracing changes no output.

use sgs_bench::{print_table, time_ms, Cli, Row};
use sgs_core::BundleSizing;
use sgs_graph::generators;
use sgs_solver::{SddSolver, SolverConfig};
use sgs_stream::store::EDGE_BYTES;
use sgs_stream::{SpillConfig, StreamConfig, StreamOutput, StreamSparsifier};

fn main() {
    let cli = Cli::parse();
    let sink = cli.start_observability();
    let n = cli.usize_flag("--n", 1000);
    let total_edges = cli.usize_flag("--total-edges", 600_000);
    let budget = cli.usize_flag("--budget-edges", 100_000);
    let store_budget_edges = cli.usize_flag("--store-budget-edges", budget / 8);
    let rss_budget_bytes = cli.usize_flag(
        "--rss-budget-bytes",
        (budget / 2 + 3 * store_budget_edges) * EDGE_BYTES,
    );
    let batch_edges = cli.usize_flag("--batch-edges", 65_536).max(1);
    let thread_counts = cli.threads(&[1, 4]);
    let seed = cli.seed(9);
    let stream_seed = 0xE9;

    assert!(
        total_edges >= 10 * store_budget_edges,
        "the stream must dwarf the store budget: {total_edges} < 10 * {store_budget_edges}"
    );
    println!(
        "stream: n = {n}, {total_edges} edges ({} MB), tree budget {budget} edges, \
         store budget {store_budget_edges} edges, RSS gate {rss_budget_bytes} bytes",
        total_edges * EDGE_BYTES / (1024 * 1024),
    );

    let cfg = StreamConfig::new(0.75, budget)
        .with_bundle_sizing(BundleSizing::Fixed(2))
        .with_seed(seed);
    let spill_cfg = cfg
        .clone()
        .with_spill(SpillConfig::new(store_budget_edges * EDGE_BYTES));

    let run = |cfg: &StreamConfig| -> StreamOutput {
        let mut stream = StreamSparsifier::new(n, cfg.clone());
        let mut batch = Vec::with_capacity(batch_edges);
        for e in generators::streaming_edges(n, total_edges, stream_seed) {
            batch.push(e);
            if batch.len() == batch_edges {
                stream.ingest_batch(&batch).expect("valid generated edges");
                batch.clear();
            }
        }
        if !batch.is_empty() {
            stream.ingest_batch(&batch).expect("valid generated edges");
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
        let (mem_out, mem_ms) = pool.install(|| time_ms(|| run(&cfg)));
        let (spill_out, spill_ms) = pool.install(|| time_ms(|| run(&spill_cfg)));

        println!(
            "threads = {threads}: mem peak {} B, spill peak {} B, gate {rss_budget_bytes} B, \
             forced {}, spilled {} nodes / {} B, read back {} nodes",
            mem_out.stats.peak_resident_bytes,
            spill_out.stats.peak_resident_bytes,
            spill_out.stats.forced_reductions,
            spill_out.stats.spill.spilled_nodes,
            spill_out.stats.spill.spilled_bytes,
            spill_out.stats.spill.readback_nodes,
        );
        // The out-of-core contract, asserted (CI gates on these, not on wall-clock).
        assert_eq!(
            mem_out.sparsifier.edges(),
            spill_out.sparsifier.edges(),
            "spill output must be bitwise identical to the in-memory output"
        );
        assert!(
            mem_out.stats.eq_modulo_storage(&spill_out.stats),
            "algorithmic stats must not depend on storage"
        );
        let ledger = spill_out.stats.spill;
        assert!(ledger.spilled_nodes > 0, "no spilling happened");
        assert!(
            spill_out.stats.peak_resident_bytes <= rss_budget_bytes,
            "spill run busted the RSS budget: {} > {rss_budget_bytes}",
            spill_out.stats.peak_resident_bytes
        );
        assert!(
            mem_out.stats.peak_resident_bytes > rss_budget_bytes,
            "RSS gate is vacuous: the in-memory run ({} bytes) already fits it",
            mem_out.stats.peak_resident_bytes
        );

        let peak_mem = mem_out.stats.peak_resident_bytes;
        let peak_spill = spill_out.stats.peak_resident_bytes;
        let forced = spill_out.stats.forced_reductions;
        let eps = spill_out.stats.epsilon_spent();
        let m_out = spill_out.sparsifier.m();
        let batches = spill_out.stats.batches_ingested;
        drop(mem_out);

        // Ground + chain the sparsifier straight off the stream and solve.
        let ((solver, _stream_stats), chain_ms) =
            pool.install(|| time_ms(|| SddSolver::for_stream(spill_out, SolverConfig::default())));
        let mut b = vec![0.0; n];
        b[0] = 1.0;
        b[n - 1] = -1.0;
        let (solve_out, solve_ms) = pool.install(|| time_ms(|| solver.solve(&b)));
        assert!(
            solve_out.converged,
            "chain-PCG failed to converge: residual {}",
            solve_out.relative_residual
        );

        if baseline_ms.is_nan() {
            baseline_ms = spill_ms;
        }
        rows.push(
            Row::new(format!("threads = {threads}"))
                .push("threads", threads as f64)
                .push("stream_mem_ms", mem_ms)
                .push("stream_spill_ms", spill_ms)
                .push("spill_speedup", baseline_ms / spill_ms)
                .push("chain_build_ms", chain_ms)
                .push("solve_ms", solve_ms)
                .push("batches", batches as f64)
                .push("m_out", m_out as f64)
                .push("peak_mem_bytes", peak_mem as f64)
                .push("peak_spill_bytes", peak_spill as f64)
                .push("rss_budget_bytes", rss_budget_bytes as f64)
                .push("spilled_nodes", ledger.spilled_nodes as f64)
                .push("spilled_edges", ledger.spilled_edges as f64)
                .push("spilled_bytes", ledger.spilled_bytes as f64)
                .push("readback_nodes", ledger.readback_nodes as f64)
                .push("readback_edges", ledger.readback_edges as f64)
                .push("readback_bytes", ledger.readback_bytes as f64)
                .push("forced", forced as f64)
                .push("eps_spent", eps)
                .push("chain_depth", solve_out.chain_depth as f64)
                .push("chain_edges", solve_out.chain_edges as f64)
                .push("pcg_iterations", solve_out.iterations as f64)
                .push("residual", solve_out.relative_residual),
        );
    }
    print_table(
        "E9: out-of-core streaming — spill to disk, solve from the stream",
        &rows,
    );
    println!(
        "the spill and in-memory runs produce bitwise-identical sparsifiers; only\n\
         peak_resident_bytes and the spill ledger differ (that difference is the point)."
    );

    let label = format!("stream(n={n},edges={total_edges})");
    cli.write_json_out(&rows);
    cli.finish_observability(sink, "exp_outofcore", &label, &rows);
}
