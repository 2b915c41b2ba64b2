//! The metric registry: every metric the benchmark can print, with its unit and — for
//! per-layer metrics — the end-to-end metric and workload it is expected to move.
//! `BENCHMARK.json` lists the same names and units in the same order, with the
//! direction that counts as better; the self-test checks that they agree.

/// One named metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// What the metric measures; for a per-layer metric, which end-to-end metric a
    /// change in that layer should move, on which workload, and where it should stay
    /// near zero.
    pub target: &'static str,
}

const fn m(name: &'static str, unit: &'static str, target: &'static str) -> Metric {
    Metric { name, unit, target }
}

/// Printed by an untraced run (`--trace 0`) on every workload.
pub const END_TO_END: &[Metric] = &[
    m(
        "setup_s",
        "s",
        "median of three set-ups: generate the input, write it as SGSB, run one warm-up operation",
    ),
    m(
        "op_s",
        "s",
        "median wall time of one checked operation (see the workload table in README.md)",
    ),
    m(
        "peak_heap_bytes",
        "bytes",
        "process peak of live heap bytes after the timed operations, before the quality check",
    ),
];

/// Printed by a traced run (`--trace 1`) on every workload; 0 where a workload does
/// not exercise the layer.
pub const PER_LAYER: &[Metric] = &[
    // The per-workload end-to-end figures, measured untraced inside the traced run.
    m("sparsify_s", "s", "sparsify-dense: one parallel_sparsify call"),
    m("stream_s", "s", "stream-spill: open the SGSB file until finish() returns"),
    m("chain_build_s", "s", "solve-image: SddSolver::for_laplacian"),
    m("solve_s", "s", "solve-image: one chain-PCG solve to 1e-8, median over the right-hand sides"),
    m("congest_s", "s", "congest-loss: clean distributed_sparsify"),
    m("congest_ft_s", "s", "congest-loss: lossy distributed_sparsify with reliable delivery"),
    m("congest_rounds", "count", "congest-loss: rounds of the clean run"),
    m("congest_ft_rounds", "count", "congest-loss: rounds of the lossy run"),
    m("congest_messages", "count", "congest-loss: messages of the clean run"),
    m("peak_resident_bytes", "bytes", "stream-spill: StreamStats RAM high-water mark"),
    m("max_rss_bytes", "bytes", "all: process resident-set peak (VmHWM) after the timed operations, before the quality check"),
    m("m_out", "edges", "output size of sparsify-dense, stream-spill, congest-loss (lower is better while spectral_kappa holds)"),
    m("spectral_kappa", "ratio", "lambda_max/lambda_min of approximation_bounds(G, H); outside the timed region"),
    // graph
    m("graph.generate_ms", "ms", "all -> setup_s"),
    m("graph.io_write_ms", "ms", "all -> setup_s"),
    m("graph.io_read_ms", "ms", "stream-spill -> stream_s; near zero on the others"),
    m("graph.io_read_calls", "count", "stream-spill -> stream_s; zero on the others"),
    // spanner
    m("spanner.engine_build_ms", "ms", "sparsify-dense -> sparsify_s; zero on congest-loss"),
    m("spanner.bundle_ms", "ms", "sparsify-dense -> sparsify_s; zero on congest-loss"),
    m("spanner.decide_ms", "ms", "sparsify-dense -> sparsify_s, stream-spill -> stream_s, solve-image -> chain_build_s; zero on congest-loss"),
    m("spanner.apply_ms", "ms", "sparsify-dense -> sparsify_s, stream-spill -> stream_s, solve-image -> chain_build_s; zero on congest-loss"),
    m("spanner.sweep_ms", "ms", "sparsify-dense -> sparsify_s, stream-spill -> stream_s, solve-image -> chain_build_s; zero on congest-loss"),
    m("spanner.join_ms", "ms", "sparsify-dense -> sparsify_s, stream-spill -> stream_s, solve-image -> chain_build_s; zero on congest-loss"),
    m("spanner.bundle_edges", "edges", "count (BundleResult of the t=4 bundle probe)"),
    m("spanner.work_ops", "count", "count (spanner edge examinations from WorkStats / LevelStats)"),
    // core
    m("core.sample_ms", "ms", "sparsify-dense -> sparsify_s; zero on solve-image"),
    m("core.sample_rest_ms", "ms", "difference: core.sample_ms - engine_build - bundle; sparsify-dense -> sparsify_s"),
    m("core.rounds", "count", "count (SparsifyOutput rounds)"),
    m("core.er_solves", "count", "count (ErPassStats solves of the stream's final pass)"),
    // stream
    m("stream.ingest_ms", "ms", "stream-spill -> stream_s; zero on the others"),
    m("stream.ingest_max_ms", "ms", "stream-spill -> stream_s; zero on the others"),
    m("stream.finish_ms", "ms", "stream-spill -> stream_s; zero on the others"),
    m("stream.leaves", "count", "count (StreamStats)"),
    m("stream.reductions", "count", "count (StreamStats)"),
    m("stream.forced", "count", "count (StreamStats)"),
    m("stream.eps_spent", "eps", "StreamStats::epsilon_spent"),
    m("stream.spill_bytes", "bytes", "stream-spill -> stream_s, peak_resident_bytes; zero on sparsify-dense"),
    m("stream.readback_bytes", "bytes", "stream-spill -> stream_s, peak_resident_bytes; zero on sparsify-dense"),
    m("stream.spilled_nodes", "count", "stream-spill -> stream_s, peak_resident_bytes; zero on sparsify-dense"),
    // linalg
    m("linalg.er_estimate_ms", "ms", "stream-spill -> stream_s; zero on sparsify-dense"),
    m("linalg.spmv_ms", "ms", "solve-image -> solve_s; zero on sparsify-dense"),
    m("linalg.spmv_bytes", "bytes", "computed from n and m, not measured: 24 bytes per edge + 24 per vertex; solve-image -> solve_s"),
    m("linalg.cert_ms", "ms", "the cost of the quality check (not part of any end-to-end time)"),
    // solver
    m("solver.apply_inverse_ms", "ms", "solve-image -> solve_s; zero on the others"),
    m("solver.build_spanner_ms", "ms", "solve-image -> chain_build_s"),
    m("solver.chain_depth", "count", "solve-image -> chain_build_s, solve_s"),
    m("solver.chain_edges", "edges", "solve-image -> chain_build_s, solve_s"),
    m("solver.chain_edges_per_m", "ratio", "solve-image -> chain_build_s, solve_s (base: input m)"),
    m("solver.pcg_iters", "count", "solve-image -> solve_s"),
    m("solver.precond_applies", "count", "solve-image -> solve_s"),
    m("solver.jacobi_pcg_ms", "ms", "reference that bypasses the chain: no chain change should move it"),
    m("solver.jacobi_iters", "count", "reference that bypasses the chain: no chain change should move it"),
    // distributed
    m("distributed.spanner_ms", "ms", "congest-loss -> congest_s; zero on the others"),
    m("distributed.retransmits", "count", "congest-loss -> congest_ft_s, congest_ft_rounds; zero on the clean run"),
    m("distributed.acks", "count", "congest-loss -> congest_ft_s, congest_ft_rounds; zero on the clean run"),
    m("distributed.dropped", "count", "congest-loss -> congest_ft_s, congest_ft_rounds; zero on the clean run"),
    m("distributed.abandoned", "count", "congest-loss -> congest_ft_s, congest_ft_rounds; zero on the clean run"),
    m("distributed.useful_ratio", "ratio", "clean messages / lossy messages; congest-loss -> congest_ft_s"),
    // obs and execution
    m("obs.overhead_ratio", "ratio", "every workload: traced wall / untraced wall"),
    m("obs.events", "count", "every workload: trace events per operation"),
    m("obs.unattributed_share", "share", "every workload: 1 - top-level library span time / wall"),
    m("exec.nproc_speedup", "ratio", "width-1 wall / width-nproc wall; for information only on a 2-core host"),
];

/// Looks a metric up by name in both tables.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}
