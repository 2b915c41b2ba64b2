//! Integration tests that check the paper's quantitative statements directly, on small
//! instances and deterministic quantities: sizes, stretch, leverage, rounds and
//! connectivity.

use spectral_sparsify::graph::{connectivity::is_connected, generators, stretch};
use spectral_sparsify::linalg::resistance::exact_effective_resistances;
use spectral_sparsify::spanner::{
    baswana_sen_spanner, default_stretch_bound, t_bundle, BundleConfig, SpannerConfig,
};
use spectral_sparsify::sparsify::{
    parallel_sample, parallel_sparsify, sample_uniform, BundleSizing, SparsifyConfig,
};

/// Theorem 1 (shape): the Baswana–Sen spanner has O(n log n) edges and stretch at most
/// 2 log n across several graph families.
#[test]
fn theorem_1_spanner_size_and_stretch() {
    let families: Vec<(&str, _)> = vec![
        ("erdos_renyi", generators::erdos_renyi(400, 0.1, 1.0, 3)),
        (
            "random_regular",
            generators::random_regular(400, 12, 1.0, 5),
        ),
        (
            "preferential",
            generators::preferential_attachment(400, 6, 1.0, 7),
        ),
    ];
    for (name, g) in families {
        if !is_connected(&g) {
            continue;
        }
        let r = baswana_sen_spanner(&g, &SpannerConfig::with_seed(11));
        let h = r.to_graph(&g);
        let bound = default_stretch_bound(g.n());
        let s = stretch::max_stretch(&g, &h);
        assert!(s <= bound + 1.0, "{name}: stretch {s} > {bound}");
        let size_budget = (8.0 * g.n() as f64 * (g.n() as f64).log2()) as usize;
        assert!(
            r.edge_ids.len() <= size_budget,
            "{name}: spanner size {} > O(n log n) budget {size_budget}",
            r.edge_ids.len()
        );
        // Work bound O(m log n) with a generous constant.
        assert!(r.work <= 10 * g.m() as u64 * (g.n() as f64).log2().ceil() as u64 + 1000);
    }
}

/// Lemma 1: for every edge outside a t-bundle spanner, `w_e · R_e[G] ≤ log n / t`
/// (checked against *exact* effective resistances).
#[test]
fn lemma_1_bundle_certificate_holds_exactly() {
    let g = generators::erdos_renyi(150, 0.25, 1.0, 13);
    assert!(is_connected(&g));
    let resistances = exact_effective_resistances(&g);
    let log_n = (g.n() as f64).log2();
    for t in [1usize, 2, 4, 8] {
        let bundle = t_bundle(&g, &BundleConfig::new(t).with_seed(3));
        let bound = log_n / t as f64;
        let mut worst: f64 = 0.0;
        let mut checked = 0;
        for (id, e) in g.edges().iter().enumerate() {
            if !bundle.in_bundle[id] {
                let leverage = e.w * resistances[id];
                worst = worst.max(leverage);
                checked += 1;
                assert!(
                    leverage <= bound + 1e-9,
                    "t = {t}: off-bundle edge {id} has leverage {leverage} > log n / t = {bound}"
                );
            }
        }
        // The bound must actually be exercised (off-bundle edges exist for small t on a
        // dense graph).
        if t <= 4 {
            assert!(checked > 0, "t = {t}: no off-bundle edges to check");
        }
        let _ = worst;
    }
}

/// Corollary 2 (shape): a t-bundle has O(t · n log n) edges.
#[test]
fn corollary_2_bundle_size() {
    let g = generators::erdos_renyi(300, 0.4, 1.0, 17);
    let n = g.n() as f64;
    for t in [1usize, 2, 4] {
        let bundle = t_bundle(&g, &BundleConfig::new(t).with_seed(5));
        let budget = (6.0 * t as f64 * n * n.log2()) as usize;
        assert!(
            bundle.bundle_size <= budget.min(g.m()),
            "t = {t}: bundle {} exceeds budget {budget}",
            bundle.bundle_size
        );
    }
}

/// Theorem 4 (shape): PARALLELSAMPLE's output size is about `bundle + (m − bundle)/4`
/// and the total edge weight is preserved in expectation.
#[test]
fn theorem_4_output_size_and_weight() {
    let g = generators::erdos_renyi(400, 0.4, 1.0, 19);
    let cfg = SparsifyConfig::new(0.5, 2.0)
        .with_bundle_sizing(BundleSizing::Fixed(2))
        .with_seed(23);
    let out = parallel_sample(&g, &cfg);
    let off_bundle = g.m() - out.stats.bundle_edges_per_round[0];
    let expected = out.stats.bundle_edges_per_round[0] as f64 + off_bundle as f64 / 4.0;
    let got = out.sparsifier.m() as f64;
    assert!(
        (got - expected).abs() < 5.0 * expected.sqrt() + 20.0,
        "size {got} vs expected {expected}"
    );
    let weight_ratio = out.sparsifier.total_weight() / g.total_weight();
    assert!(
        (weight_ratio - 1.0).abs() < 0.1,
        "weight ratio {weight_ratio}"
    );
}

/// Theorem 5 (shape): increasing rho increases the achieved compression while the
/// number of rounds follows ceil(log2 rho).
#[test]
fn theorem_5_rho_sweep_shape() {
    let g = generators::erdos_renyi(500, 0.3, 1.0, 29);
    let mut last_m = usize::MAX;
    for rho in [2.0, 4.0, 16.0] {
        let cfg = SparsifyConfig::new(0.75, rho)
            .with_bundle_sizing(BundleSizing::Fixed(3))
            .with_seed(31);
        let out = parallel_sparsify(&g, &cfg);
        assert!(out.rounds_executed <= rho.log2().ceil() as usize);
        assert!(
            out.sparsifier.m() <= last_m,
            "rho {rho}: {} edges, expected monotone decrease",
            out.sparsifier.m()
        );
        last_m = out.sparsifier.m();
    }
    // The most aggressive setting must have removed a large fraction of a dense graph.
    assert!(last_m < g.m() / 3);
}

/// The bundle is what makes the sampling safe (Theorem 4 context): on a barbell the
/// bridge is in every spanner, so `PARALLELSPARSIFY` always keeps it, while uniform
/// sampling at the same keep rate drops it and disconnects the graph on most seeds.
#[test]
fn bundle_keeps_the_barbell_bridge_that_uniform_sampling_drops() {
    let g = generators::barbell(60, 1, 1.0, 1.0);
    let none_verbatim = vec![false; g.m()];
    let mut uniform_disconnected = 0;
    for seed in 0..20 {
        let cfg = SparsifyConfig::new(0.5, 4.0)
            .with_bundle_sizing(BundleSizing::Fixed(4))
            .with_seed(seed);
        let ours = parallel_sparsify(&g, &cfg);
        assert!(
            is_connected(&ours.sparsifier),
            "seed {seed}: parallel_sparsify disconnected the barbell"
        );
        let p = ours.sparsifier.m() as f64 / g.m() as f64;
        if !is_connected(&sample_uniform(&g, &none_verbatim, p, seed)) {
            uniform_disconnected += 1;
        }
    }
    assert!(
        uniform_disconnected >= 10,
        "uniform sampling at matched size disconnected only {uniform_disconnected}/20 seeds"
    );
}
