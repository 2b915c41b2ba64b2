//! End-to-end determinism of the parallel pipeline across thread counts.
//!
//! The vendored rayon executor chunks work as a function of input length and
//! hints only — never of the pool width — so every fixed-seed result in this
//! workspace must be **byte-identical** between a 1-thread and an N-thread
//! pool. These tests pin that property for the paper's pipeline stages: CSR
//! mat-vec, effective resistances, Baswana–Sen spanners, edge sampling, and
//! the full `PARALLELSPARSIFY` loop.

use spectral_sparsify::distributed::{distributed_sparsify, DistSpannerConfig};
use spectral_sparsify::graph::{generators, stretch};
use spectral_sparsify::linalg::{approx_effective_resistances, CsrMatrix};
use spectral_sparsify::spanner::{baswana_sen_spanner, t_bundle, BundleConfig, SpannerConfig};
use spectral_sparsify::sparsify::{
    parallel_sample, parallel_sparsify, resparsify_er, BundleSizing, ErPassConfig, SamplingPolicy,
    SparsifyConfig,
};
use spectral_sparsify::stream::{FinalPassConfig, StreamConfig, StreamSparsifier};

/// Runs `op` pinned to a pool of `threads` threads.
fn on_pool<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool");
    pool.install(op)
}

/// Pool widths every engine is pinned against the 1-thread reference. The spread
/// matters: 2/3 exercise uneven block-to-worker ratios, 4 the CI runner's width, and
/// 8 an oversubscribed pool — and since the density-aware `BlockPartition` cuts
/// *different* blocks at different widths, each width is a genuinely different
/// schedule that must still produce byte-identical outputs and metrics.
const WIDTHS: [usize; 4] = [2, 3, 4, 8];

#[test]
fn matvec_is_identical_across_thread_counts() {
    let g = generators::grid2d(60, 60, 1.0); // n = 3600, above the parallel cutoff
    let l = CsrMatrix::laplacian(&g);
    let x: Vec<f64> = (0..g.n()).map(|i| (i as f64 * 0.731).sin()).collect();
    let y1 = on_pool(1, || l.apply(&x));
    let y4 = on_pool(4, || l.apply(&x));
    assert_eq!(y1.len(), y4.len());
    for (a, b) in y1.iter().zip(&y4) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn effective_resistances_are_identical_across_thread_counts() {
    let g = generators::erdos_renyi(200, 0.15, 1.0, 9);
    let r1 = on_pool(1, || approx_effective_resistances(&g, 2.0, 11));
    let r4 = on_pool(4, || approx_effective_resistances(&g, 2.0, 11));
    assert_eq!(r1.len(), r4.len());
    for (a, b) in r1.iter().zip(&r4) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

#[test]
fn spanner_is_identical_across_thread_counts() {
    let g = generators::erdos_renyi(400, 0.1, 1.0, 13);
    let cfg = SpannerConfig::with_seed(21);
    let s1 = on_pool(1, || baswana_sen_spanner(&g, &cfg));
    for w in WIDTHS {
        let sw = on_pool(w, || baswana_sen_spanner(&g, &cfg));
        assert_eq!(s1.edge_ids, sw.edge_ids, "edge ids @ {w} threads");
        assert_eq!(s1.work, sw.work, "work @ {w} threads");
        assert_eq!(s1.rounds, sw.rounds, "rounds @ {w} threads");
    }
}

#[test]
fn parallel_apply_is_identical_across_thread_counts_on_skewed_degrees() {
    // Pins the two-phase parallel commit specifically: a preferential-attachment
    // graph gives the density-aware `BlockPartition` maximally uneven cuts (hub
    // blocks at the 64-vertex floor, tail blocks huge), so at every width the
    // decision batches are committed by a different set of workers in a different
    // interleaving — and the order-invariance argument of `apply_batch` is what
    // keeps edge ids AND the work tally bitwise equal to the 1-thread walk.
    let g = generators::preferential_attachment(600, 4, 1.0, 35);
    let cfg = SpannerConfig::with_seed(11);
    let s1 = on_pool(1, || baswana_sen_spanner(&g, &cfg));
    for w in WIDTHS {
        let sw = on_pool(w, || baswana_sen_spanner(&g, &cfg));
        assert_eq!(s1.edge_ids, sw.edge_ids, "edge ids @ {w} threads");
        assert_eq!(s1.work, sw.work, "work @ {w} threads");
    }
}

#[test]
fn t_bundle_is_identical_across_thread_counts() {
    // Pins the scratch-based engine itself (not just the full sparsifier): the
    // `map_init` per-worker scratch and the in-place CSR compaction must never make
    // the bundle depend on how blocks were distributed over threads.
    let g = generators::erdos_renyi(350, 0.15, 1.0, 27);
    let cfg = BundleConfig::new(3).with_seed(19);
    let b1 = on_pool(1, || t_bundle(&g, &cfg));
    for w in WIDTHS {
        let bw = on_pool(w, || t_bundle(&g, &cfg));
        assert_eq!(b1.components, bw.components, "components @ {w} threads");
        assert_eq!(b1.in_bundle, bw.in_bundle, "bundle mask @ {w} threads");
        assert_eq!(b1.bundle_size, bw.bundle_size, "bundle size @ {w} threads");
        assert_eq!(b1.work, bw.work, "work @ {w} threads");
    }
}

#[test]
fn sampling_is_identical_across_thread_counts() {
    let g = generators::erdos_renyi(300, 0.25, 1.0, 5);
    let cfg = SparsifyConfig::new(0.5, 2.0)
        .with_bundle_sizing(BundleSizing::Fixed(3))
        .with_seed(17);
    let a = on_pool(1, || parallel_sample(&g, &cfg));
    let b = on_pool(4, || parallel_sample(&g, &cfg));
    assert_eq!(a.sparsifier.edges(), b.sparsifier.edges());
    assert_eq!(a.bundle_edges, b.bundle_edges);
    assert_eq!(a.sampled_edges, b.sampled_edges);
}

#[test]
fn full_sparsifier_is_byte_identical_across_thread_counts() {
    let g = generators::erdos_renyi(400, 0.2, 1.0, 31);
    let cfg = SparsifyConfig::new(0.75, 4.0)
        .with_bundle_sizing(BundleSizing::Fixed(4))
        .with_seed(5);
    let a = on_pool(1, || parallel_sparsify(&g, &cfg));
    for w in WIDTHS {
        let b = on_pool(w, || parallel_sparsify(&g, &cfg));
        assert_eq!(a.sparsifier.edges(), b.sparsifier.edges(), "@ {w} threads");
        assert_eq!(a.stats, b.stats, "stats @ {w} threads");
    }
}

#[test]
fn er_strategy_sparsifier_is_byte_identical_across_thread_counts() {
    // The leverage-aware strategy solves Laplacians per round (parallel CG rows) and
    // normalises scores sequentially, so its thresholds — and therefore the sampled
    // stream — must be byte-identical at any pool width.
    let g = generators::erdos_renyi(300, 0.2, 1.0, 33);
    let cfg = SparsifyConfig::new(0.5, 4.0)
        .with_bundle_sizing(BundleSizing::Fixed(3))
        .with_sampling(SamplingPolicy::effective_resistance(4, 1e-3))
        .with_seed(7);
    let a = on_pool(1, || parallel_sparsify(&g, &cfg));
    let b = on_pool(4, || parallel_sparsify(&g, &cfg));
    assert_eq!(a.sparsifier.edges(), b.sparsifier.edges());
    for (x, y) in a.sparsifier.edges().iter().zip(b.sparsifier.edges()) {
        assert_eq!(x.w.to_bits(), y.w.to_bits());
    }
    assert_eq!(a.stats.total_work(), b.stats.total_work());
}

#[test]
fn er_final_pass_is_byte_identical_across_thread_counts() {
    let g = generators::erdos_renyi(300, 0.3, 1.0, 21);
    let cfg = ErPassConfig::new()
        .with_oversample(0.25)
        .with_jl_dims(4)
        .with_cg_tol(1e-3);
    let a = on_pool(1, || resparsify_er(&g, &cfg, 0.5, 11));
    let b = on_pool(4, || resparsify_er(&g, &cfg, 0.5, 11));
    assert!(a.resampled && b.resampled);
    assert_eq!(a.solves, b.solves);
    assert_eq!(a.sparsifier.edges(), b.sparsifier.edges());
    for (x, y) in a.sparsifier.edges().iter().zip(b.sparsifier.edges()) {
        assert_eq!(x.w.to_bits(), y.w.to_bits());
    }
}

#[test]
fn er_configured_stream_is_identical_across_thread_counts() {
    // The full leverage-aware streaming stack: ER interior sampling plus the
    // ER-weighted final pass, pinned across pool widths like the uniform stream.
    let g = generators::erdos_renyi(300, 0.3, 1.0, 29);
    let cfg = StreamConfig::new(0.75, g.m() / 4)
        .with_bundle_sizing(BundleSizing::Fixed(2))
        .with_interior_sampling(SamplingPolicy::effective_resistance(4, 1e-3))
        .with_final_pass(
            FinalPassConfig::new()
                .with_oversample(0.04)
                .with_jl_dims(4)
                .with_cg_tol(1e-3),
        )
        .with_seed(13);
    let run = || {
        let mut s = StreamSparsifier::new(g.n(), cfg.clone());
        for chunk in g.edges().chunks(997) {
            s.ingest_batch(chunk).unwrap();
        }
        s.finish()
    };
    let a = on_pool(1, run);
    let b = on_pool(4, run);
    assert_eq!(a.sparsifier.edges(), b.sparsifier.edges());
    for (x, y) in a.sparsifier.edges().iter().zip(b.sparsifier.edges()) {
        assert_eq!(x.w.to_bits(), y.w.to_bits());
    }
    assert_eq!(a.stats, b.stats);
}

#[test]
fn stream_sparsifier_is_identical_across_thread_counts() {
    // Pins the semi-streaming engine end to end: every reduction runs on the
    // deterministic rayon executor and every trigger (leaf boundary, cascade, forced
    // reduction) is a function of the stream position — so edges, weights, AND the
    // full StreamStats accounting must be byte-identical at any pool width.
    let g = generators::erdos_renyi(350, 0.3, 1.0, 47);
    let cfg = StreamConfig::new(0.75, g.m() / 3)
        .with_bundle_sizing(BundleSizing::Fixed(2))
        .with_seed(13);
    let run = || {
        let mut s = StreamSparsifier::new(g.n(), cfg.clone());
        for chunk in g.edges().chunks(997) {
            s.ingest_batch(chunk).unwrap();
        }
        s.finish()
    };
    let a = on_pool(1, run);
    for w in WIDTHS {
        let b = on_pool(w, run);
        assert_eq!(a.sparsifier.edges(), b.sparsifier.edges(), "@ {w} threads");
        for (x, y) in a.sparsifier.edges().iter().zip(b.sparsifier.edges()) {
            assert_eq!(x.w.to_bits(), y.w.to_bits(), "weights @ {w} threads");
        }
        assert_eq!(a.stats, b.stats, "stream stats @ {w} threads");
        assert_eq!(a.stats.peak_resident_edges, b.stats.peak_resident_edges);
        assert_eq!(a.stats.total_work(), b.stats.total_work());
    }
}

#[test]
fn distributed_sparsify_is_identical_across_thread_counts() {
    // Pins the CONGEST engine end to end: the `par_step` vertex sweeps stage messages
    // in block order over density-aware `BlockPartition` cuts and the delivery sort
    // is stable, so the protocol's outputs *and* its communication accounting
    // (rounds / messages / bits) must be byte-identical no matter how wide the pool
    // is — even though the partition itself differs per width.
    let g = generators::erdos_renyi(250, 0.25, 1.0, 41);
    let cfg = SparsifyConfig::new(0.75, 4.0)
        .with_bundle_sizing(BundleSizing::Fixed(3))
        .with_seed(29);
    let a = on_pool(1, || distributed_sparsify(&g, &cfg));
    for w in WIDTHS {
        let b = on_pool(w, || distributed_sparsify(&g, &cfg));
        assert_eq!(a.sparsifier.edges(), b.sparsifier.edges(), "@ {w} threads");
        assert_eq!(a.metrics, b.metrics, "metrics @ {w} threads");
        assert_eq!(a.rounds_executed, b.rounds_executed, "rounds @ {w} threads");
        assert_eq!(a.bundle_edges, b.bundle_edges, "bundle @ {w} threads");
    }
}

#[test]
fn distributed_spanner_is_identical_across_thread_counts() {
    let g = generators::erdos_renyi(300, 0.15, 1.0, 43);
    let cfg = DistSpannerConfig::with_seed(23);
    let a = on_pool(1, || {
        spectral_sparsify::distributed::distributed_spanner(&g, &cfg)
    });
    for w in WIDTHS {
        let b = on_pool(w, || {
            spectral_sparsify::distributed::distributed_spanner(&g, &cfg)
        });
        assert_eq!(a.edge_ids, b.edge_ids, "edge ids @ {w} threads");
        assert_eq!(a.metrics, b.metrics, "metrics @ {w} threads");
    }
}

#[test]
fn stretch_computation_is_identical_across_thread_counts() {
    let g = generators::grid2d(12, 12, 1.0);
    let h = generators::grid_spanning_tree(12, 12, 1.0);
    let s1 = on_pool(1, || stretch::stretch_of_all_edges(&g, &h));
    let s4 = on_pool(4, || stretch::stretch_of_all_edges(&g, &h));
    for (a, b) in s1.iter().zip(&s4) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
