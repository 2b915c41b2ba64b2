//! Golden fixtures for the semi-streaming engine (`sgs-stream`).
//!
//! Each row pins the **full deterministic contract** of `StreamSparsifier` for one
//! (graph, seed) pair: the output edge stream (edge endpoints *and* weight bits,
//! FNV-hashed), the output size, and the tree accounting (leaves, forced reductions,
//! depth, peak resident census). Every fixture is asserted twice — streamed as one
//! batch and as eleven ragged batches — because batch-chop invariance is part of the
//! contract, not a separate property.
//!
//! If a legitimate algorithm change alters these streams, re-pin by running the
//! committed fixture printer and pasting its output over the table below:
//!
//! ```sh
//! cargo test --release --test golden_stream -- --ignored print_current_fixtures --nocapture
//! ```
//!
//! and document the change in vendor/README.md (as for `golden_spanner.rs`).

use spectral_sparsify::graph::{generators, Edge, Graph};
use spectral_sparsify::sparsify::{BundleSizing, SamplingPolicy};
use spectral_sparsify::stream::{
    FinalPassConfig, SpillConfig, SpillLedger, StreamConfig, StreamOutput, StreamSparsifier,
};

/// Runs `op` pinned to a pool of `threads` threads.
fn on_pool<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool");
    pool.install(op)
}

/// FNV-1a over each edge's `(u, v, w)` — endpoints as little-endian u64, the weight
/// by its exact bit pattern, so any reweighting drift re-pins the fixture.
fn fingerprint(g: &Graph) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut absorb = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for e in g.edges() {
        absorb(e.u as u64);
        absorb(e.v as u64);
        absorb(e.w.to_bits());
    }
    h
}

fn graph(name: &str) -> Graph {
    match name {
        "er300" => generators::erdos_renyi(300, 0.15, 1.0, 42),
        "er250" => generators::erdos_renyi(250, 0.3, 1.0, 7),
        "pa400" => generators::preferential_attachment(400, 5, 1.0, 11),
        "grid20" => generators::grid2d(20, 20, 1.0),
        "complete80" => generators::complete(80, 1.0),
        other => panic!("unknown fixture graph {other}"),
    }
}

fn config(g: &Graph, seed: u64) -> StreamConfig {
    StreamConfig::new(0.75, (g.m() / 3).max(16))
        .with_bundle_sizing(BundleSizing::Fixed(2))
        .with_seed(seed)
}

fn run(g: &Graph, seed: u64, batches: usize) -> StreamOutput {
    let mut s = StreamSparsifier::new(g.n(), config(g, seed));
    let chunk = g.m().div_ceil(batches).max(1);
    for batch in g.edges().chunks(chunk) {
        s.ingest_batch(batch).unwrap();
    }
    s.finish()
}

/// (graph, seed, m_out, fingerprint, leaves, forced, depth, peak_resident_edges).
#[allow(clippy::type_complexity)]
const GOLDEN_STREAM: &[(&str, u64, usize, u64, u64, u64, usize, usize)] = &[
    ("er300", 1, 1874, 0xf35ea61be84dce02, 18, 16, 18, 4107),
    ("er300", 2, 1803, 0xb2328bd2d69309b6, 19, 17, 19, 4014),
    ("er300", 3, 1844, 0x57b0e35816b1025a, 19, 17, 19, 3969),
    ("er250", 1, 1723, 0xac2034a365f841f5, 12, 10, 12, 4424),
    ("er250", 2, 1579, 0x1844c5f070ec4630, 13, 11, 13, 4446),
    ("er250", 3, 1823, 0x658c51db551255f0, 12, 10, 12, 4324),
    ("pa400", 1, 1719, 0xfa8e2fabbec4271c, 21, 19, 21, 3480),
    ("pa400", 2, 1756, 0xc114f99f2d023758, 21, 19, 21, 3564),
    ("pa400", 3, 1740, 0xdcc8ec8c5f493017, 21, 19, 21, 3562),
    ("grid20", 1, 760, 0xea500d4775b5a90e, 21, 19, 21, 1520),
    ("grid20", 2, 760, 0xea500d4775b5a90e, 21, 19, 21, 1520),
    ("grid20", 3, 760, 0xea500d4775b5a90e, 21, 19, 21, 1520),
    ("complete80", 1, 547, 0xeb70a913f7d510b2, 10, 8, 10, 1291),
    ("complete80", 2, 519, 0x2ed060dcda9b3162, 10, 8, 10, 1209),
    ("complete80", 3, 498, 0x63a54fa6b3ee27aa, 11, 9, 11, 1401),
];

#[test]
fn stream_fixtures_match_for_one_and_many_batches() {
    for &(name, seed, m_out, fp, leaves, forced, depth, peak) in GOLDEN_STREAM {
        let g = graph(name);
        for batches in [1usize, 11] {
            let out = run(&g, seed, batches);
            let label = format!("{name}/seed {seed}/{batches} batch(es)");
            assert_eq!(out.sparsifier.m(), m_out, "{label}: m_out");
            assert_eq!(fingerprint(&out.sparsifier), fp, "{label}: fingerprint");
            assert_eq!(out.stats.leaves, leaves, "{label}: leaves");
            assert_eq!(out.stats.forced_reductions, forced, "{label}: forced");
            assert_eq!(out.stats.final_depth, depth, "{label}: depth");
            assert_eq!(out.stats.peak_resident_edges, peak, "{label}: peak");
            assert_eq!(out.stats.edges_ingested, g.m() as u64, "{label}: ingested");
        }
    }
}

#[test]
fn stream_fixtures_are_parallelism_mode_independent() {
    // A 1-thread pool is the sequential run and must reproduce the same streams (the
    // rayon shim chunks deterministically, whatever the pool width).
    for &(name, seed, m_out, fp, ..) in &GOLDEN_STREAM[..5] {
        let g = graph(name);
        let out = on_pool(1, || {
            let mut s = StreamSparsifier::new(g.n(), config(&g, seed));
            s.ingest_batch(g.edges()).unwrap();
            s.finish()
        });
        assert_eq!(out.sparsifier.m(), m_out, "{name}/seed {seed} 1 thread");
        assert_eq!(
            fingerprint(&out.sparsifier),
            fp,
            "{name}/seed {seed} 1 thread"
        );
    }
}

/// The ISSUE-5 acceptance scenario: er(n = 4000, deg = 150) streamed in 16 batches
/// under a budget of `m/4` resident edges.
#[test]
fn acceptance_er4000_budget_quarter_m() {
    let n = 4000usize;
    let p = 150.0 / (n as f64 - 1.0);
    let g = generators::erdos_renyi(n, p, 1.0, 51);
    let m = g.m();
    let budget = m / 4;
    let batch = m / 16;
    let cfg = StreamConfig::new(0.75, budget)
        .with_bundle_sizing(BundleSizing::Fixed(2))
        .with_keep_probability(0.22)
        .with_seed(5);

    let mut s = StreamSparsifier::new(n, cfg.clone());
    for chunk in g.edges().chunks(batch) {
        s.ingest_batch(chunk).unwrap();
    }
    let out = s.finish();

    // Memory: the resident census never exceeded budget + one ingest batch.
    assert!(
        out.stats.peak_resident_edges <= budget + batch,
        "peak {} > budget {budget} + batch {batch}",
        out.stats.peak_resident_edges
    );
    // The sparsifier itself fits in half the budget and spans the graph.
    assert!(
        out.sparsifier.m() <= budget / 2,
        "m_out {}",
        out.sparsifier.m()
    );
    assert!(spectral_sparsify::graph::connectivity::is_connected(
        &out.sparsifier
    ));
    // ε ledger: never overspends the configured total.
    assert!(out.stats.epsilon_spent() <= 0.75 + 1e-12);

    // Spectral sanity under the tight budget: the quadratic-form ratio on random
    // probes stays two-sided and centered. (The *certified* extremes degrade with
    // the forced-chain depth this budget imposes — the measured frontier is
    // documented in README/exp_stream; the certified within-ε regime is pinned by
    // the faithful-constants property test in tests/properties.rs.)
    let (lo, hi) = spectral_sparsify::linalg::spectral::ratio_samples(&g, &out.sparsifier, 16, 3);
    assert!(lo > 0.5 && hi < 2.0, "probe ratio envelope [{lo}, {hi}]");

    // Batch-chop invariance: the identical permutation in one batch gives the
    // identical sparsifier, accounting included.
    let mut one = StreamSparsifier::new(n, cfg);
    one.ingest_batch(g.edges()).unwrap();
    let one = one.finish();
    assert_eq!(one.sparsifier.edges(), out.sparsifier.edges());
    assert_eq!(one.stats.levels, out.stats.levels);
    assert_eq!(one.stats.peak_resident_edges, out.stats.peak_resident_edges);
}

/// The `exp_stream --n 2000 --deg 60 --batches 8 --budget-edges 30000` configuration,
/// replayed exactly. It is the only fixture where forced merges push the resident
/// peak above budget plus one batch, and the only one that runs the ER final pass
/// inside the stream, so its deterministic columns are pinned here.
///
/// ROADMAP items 1 (an honest ε ledger) and 2 (a spill budget that holds) are
/// expected to re-pin these values.
#[test]
fn er2000_forced_merge_and_er_final_pass_are_pinned() {
    let n = 2000usize;
    let g = generators::erdos_renyi(n, 60.0 / (n as f64 - 1.0), 1.0, 51);
    let batch = g.m().div_ceil(8);
    assert_eq!(batch, 7518, "input drifted");
    let cfg = StreamConfig::new(0.75, 30000)
        .with_bundle_sizing(BundleSizing::Fixed(2))
        .with_keep_probability(0.5)
        .with_rho(2.0)
        .with_arity(2)
        .with_seed(5);
    let cfg_er = cfg
        .clone()
        .with_interior_sampling(SamplingPolicy::effective_resistance(8, 1e-4))
        .with_final_pass(
            FinalPassConfig::new()
                .with_oversample(0.02)
                .with_jl_dims(8)
                .with_cg_tol(1e-4),
        );
    let stream = |cfg: StreamConfig| {
        let mut s = StreamSparsifier::new(n, cfg);
        for chunk in g.edges().chunks(batch) {
            s.ingest_batch(chunk).unwrap();
        }
        s.finish()
    };

    let out = stream(cfg);
    assert_eq!(out.sparsifier.m(), 20688, "m_out");
    assert_eq!(out.stats.peak_resident_edges, 46312, "peak_resident_edges");
    assert_eq!(out.stats.leaves, 9, "leaves");
    assert_eq!(out.stats.forced_reductions, 7, "forced");
    assert_eq!(out.stats.final_depth, 9, "depth");
    assert_eq!(
        out.stats.epsilon_spent().to_bits(),
        0.74853515625f64.to_bits(),
        "epsilon_spent {}",
        out.stats.epsilon_spent()
    );
    assert_eq!(out.stats.total_work(), 5095199, "total work");

    let er = stream(cfg_er);
    assert_eq!(er.sparsifier.m(), 6663, "m_out_er");
    assert_eq!(
        fingerprint(&er.sparsifier),
        0x1cf197bfb38fa3e6,
        "fingerprint_er"
    );
    assert_eq!(
        er.stats.epsilon_spent().to_bits(),
        0.7490234375f64.to_bits(),
        "epsilon_spent_er {}",
        er.stats.epsilon_spent()
    );
}

/// Storage-backend determinism: replaying a fixture through a `SpillStore` whose
/// budget forces most tree nodes to disk reproduces the **pinned** fingerprint —
/// same edges, same weight bits, same algorithmic accounting — at every batch chop
/// and thread count. Only the storage columns (`peak_resident_bytes`, the spill
/// ledger) may differ from the in-memory run; that difference is the point of the
/// spill store, and `eq_modulo_storage` pins everything else.
#[test]
fn stream_fixtures_survive_spilling_across_chops_and_threads() {
    for &(name, seed, m_out, fp, ..) in &GOLDEN_STREAM[..6] {
        let g = graph(name);
        // A store budget of ~a tenth of the tree budget guarantees real spill traffic.
        let store_budget_bytes = (g.m() / 30).max(8) * std::mem::size_of::<Edge>();
        for batches in [1usize, 11] {
            let mem = run(&g, seed, batches);
            assert_eq!(
                mem.stats.spill,
                SpillLedger::default(),
                "in-memory runs must report an empty spill ledger"
            );
            for threads in [1usize, 4] {
                let out = on_pool(threads, || {
                    let cfg = config(&g, seed).with_spill(SpillConfig::new(store_budget_bytes));
                    let mut s = StreamSparsifier::new(g.n(), cfg);
                    let chunk = g.m().div_ceil(batches).max(1);
                    for batch in g.edges().chunks(chunk) {
                        s.ingest_batch(batch).unwrap();
                    }
                    s.finish()
                });
                let label = format!("{name}/seed {seed}/{batches} batch(es)/{threads} thread(s)");
                assert_eq!(out.sparsifier.m(), m_out, "{label}: m_out");
                assert_eq!(fingerprint(&out.sparsifier), fp, "{label}: fingerprint");
                assert_eq!(
                    out.sparsifier.edges(),
                    mem.sparsifier.edges(),
                    "{label}: edge streams"
                );
                assert!(
                    mem.stats.eq_modulo_storage(&out.stats),
                    "{label}: algorithmic stats drifted:\n{:?}\nvs\n{:?}",
                    mem.stats,
                    out.stats
                );
                assert!(
                    out.stats.spill.spilled_nodes > 0,
                    "{label}: fixture exercised no spilling"
                );
            }
        }
    }
}

/// Re-pin helper: prints the fixture table in the exact source format.
#[test]
#[ignore = "fixture printer; run with --ignored --nocapture to re-pin"]
fn print_current_fixtures() {
    for name in ["er300", "er250", "pa400", "grid20", "complete80"] {
        let g = graph(name);
        for seed in 1u64..=3 {
            let out = run(&g, seed, 11);
            println!(
                "    (\"{name}\", {seed}, {}, {:#018x}, {}, {}, {}, {}),",
                out.sparsifier.m(),
                fingerprint(&out.sparsifier),
                out.stats.leaves,
                out.stats.forced_reductions,
                out.stats.final_depth,
                out.stats.peak_resident_edges,
            );
        }
    }
}
