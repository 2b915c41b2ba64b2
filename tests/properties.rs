//! Property-based tests (proptest) on cross-crate invariants.
//!
//! Each property draws random graphs / parameters and asserts an invariant that must
//! hold for *every* input, not just the hand-picked cases of the unit tests.

use proptest::prelude::*;

use spectral_sparsify::graph::{connectivity, generators, ops, stretch, Graph};
use spectral_sparsify::linalg::csr::CsrMatrix;
use spectral_sparsify::linalg::resistance::{exact_effective_resistances, total_leverage};
use spectral_sparsify::linalg::spectral::ratio_samples;
use spectral_sparsify::spanner::{baswana_sen_spanner, t_bundle, BundleConfig, SpannerConfig};
use spectral_sparsify::sparsify::{parallel_sample, BundleSizing, SparsifyConfig};

/// Strategy: a connected weighted Erdős–Rényi graph of moderate size.
fn connected_graph() -> impl Strategy<Value = Graph> {
    (20usize..80, 1u64..500, 1u32..4).prop_map(|(n, seed, wclass)| {
        let (lo, hi) = match wclass {
            1 => (1.0, 1.0),
            2 => (0.5, 2.0),
            _ => (0.1, 10.0),
        };
        // p chosen high enough that connectivity is overwhelmingly likely; fall back to
        // adding a cycle if the draw is disconnected so the property always gets a
        // connected input.
        let g = generators::erdos_renyi_weighted(n, 0.2, lo, hi, seed);
        if connectivity::is_connected(&g) {
            g
        } else {
            ops::add(&g, &generators::cycle(n, lo)).unwrap()
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The Laplacian quadratic form equals the weighted sum of squared differences and
    /// is invariant under coalescing parallel edges.
    #[test]
    fn quadratic_form_identities(g in connected_graph(), shift in -5.0f64..5.0) {
        let n = g.n();
        let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin() + shift).collect();
        let manual: f64 = g
            .edges()
            .iter()
            .map(|e| e.w * (x[e.u()] - x[e.v()]).powi(2))
            .sum();
        let via_graph = g.quadratic_form(&x);
        let via_matrix = CsrMatrix::laplacian(&g).quadratic_form(&x);
        let via_coalesced = g.coalesce().quadratic_form(&x);
        prop_assert!((via_graph - manual).abs() <= 1e-9 * manual.abs().max(1.0));
        prop_assert!((via_matrix - manual).abs() <= 1e-7 * manual.abs().max(1.0));
        prop_assert!((via_coalesced - manual).abs() <= 1e-9 * manual.abs().max(1.0));
        // Shifting x by a constant leaves the form unchanged.
        let shifted: Vec<f64> = x.iter().map(|v| v + 3.0).collect();
        prop_assert!((g.quadratic_form(&shifted) - via_graph).abs() <= 1e-9 * via_graph.abs().max(1.0));
    }

    /// Spanner invariants: stretch bounded by 2k−1 and connectivity preserved.
    #[test]
    fn spanner_invariants(g in connected_graph(), seed in 0u64..1000) {
        let cfg = SpannerConfig::with_seed(seed);
        let r = baswana_sen_spanner(&g, &cfg);
        let h = r.to_graph(&g);
        prop_assert!(connectivity::is_connected(&h));
        let k = (g.n().max(2) as f64).log2().ceil() as usize;
        let s = stretch::max_stretch(&g, &h);
        prop_assert!(s <= (2 * k) as f64 + 1e-9, "stretch {} with k {}", s, k);
        prop_assert!(r.edge_ids.len() <= g.m());
    }

    /// Lemma 1 on random inputs: off-bundle leverage scores never exceed log n / t.
    #[test]
    fn bundle_certificate(g in connected_graph(), t in 1usize..4, seed in 0u64..100) {
        let bundle = t_bundle(&g, &BundleConfig::new(t).with_seed(seed));
        let resistances = exact_effective_resistances(&g);
        let bound = (g.n() as f64).log2() / t as f64;
        for (id, e) in g.edges().iter().enumerate() {
            if !bundle.in_bundle[id] {
                prop_assert!(e.w * resistances[id] <= bound + 1e-9);
            }
        }
    }

    /// The total leverage identity: sum of w_e R_e over a connected graph equals n − 1.
    #[test]
    fn foster_theorem(g in connected_graph()) {
        let resistances = exact_effective_resistances(&g);
        let total = total_leverage(&g, &resistances);
        prop_assert!((total - (g.n() as f64 - 1.0)).abs() < 1e-4, "total {}", total);
    }

    /// PARALLELSAMPLE structural invariants: connectivity, vertex count, weight classes,
    /// and a non-degenerate quadratic-form ratio on random probe vectors.
    #[test]
    fn parallel_sample_invariants(g in connected_graph(), seed in 0u64..200) {
        let cfg = SparsifyConfig::new(0.5, 2.0)
            .with_bundle_sizing(BundleSizing::Fixed(2))
            .with_seed(seed);
        let out = parallel_sample(&g, &cfg);
        prop_assert_eq!(out.sparsifier.n(), g.n());
        prop_assert!(connectivity::is_connected(&out.sparsifier));
        prop_assert!(out.sparsifier.m() <= g.m());
        // Every output weight is either an original weight or 4x an original weight.
        for e in out.sparsifier.edges() {
            let ok = g
                .edges()
                .iter()
                .any(|orig| ((orig.w - e.w).abs() < 1e-9) || ((4.0 * orig.w - e.w).abs() < 1e-9));
            prop_assert!(ok, "unexpected weight {}", e.w);
        }
        // Quadratic-form ratios on random vectors stay within loose two-sided bounds
        // (a necessary condition of the (1 ± eps) guarantee with practical constants).
        let (lo, hi) = ratio_samples(&g, &out.sparsifier, 30, seed);
        prop_assert!(lo > 0.05, "ratio lower bound {}", lo);
        prop_assert!(hi < 6.0, "ratio upper bound {}", hi);
    }

    /// Graph algebra: the Laplacian of a*G1 + G2 acts like the weighted sum of the
    /// individual Laplacians.
    #[test]
    fn graph_algebra_is_linear(
        g1 in connected_graph(),
        scale in 0.5f64..4.0,
        seed in 0u64..50
    ) {
        let g2 = generators::erdos_renyi(g1.n(), 0.1, 1.0, seed);
        let combo = ops::add(&ops::scale(&g1, scale).unwrap(), &g2).unwrap();
        let x: Vec<f64> = (0..g1.n()).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let expect = scale * g1.quadratic_form(&x) + g2.quadratic_form(&x);
        prop_assert!((combo.quadratic_form(&x) - expect).abs() <= 1e-9 * expect.abs().max(1.0));
    }

    /// merge_union is the Laplacian sum with coalesced support: quadratic forms add
    /// exactly, the edge count never exceeds the concatenation, and self-merge
    /// doubles the form.
    #[test]
    fn merge_union_is_laplacian_sum(g1 in connected_graph(), seed in 0u64..50) {
        let g2 = generators::erdos_renyi(g1.n(), 0.15, 1.0, seed);
        let u = ops::merge_union(&g1, &g2).unwrap();
        prop_assert!(u.m() <= g1.m() + g2.m());
        let x: Vec<f64> = (0..g1.n()).map(|i| ((i as f64) * 0.61).cos()).collect();
        let expect = g1.quadratic_form(&x) + g2.quadratic_form(&x);
        prop_assert!((u.quadratic_form(&x) - expect).abs() <= 1e-9 * expect.abs().max(1.0));
        let d = ops::merge_union(&g1, &g1).unwrap();
        prop_assert!((d.quadratic_form(&x) - 2.0 * g1.quadratic_form(&x)).abs()
            <= 1e-9 * expect.abs().max(1.0));
    }
}

/// Chops `0..m` into a pseudo-random batch sequence derived from `salt` (an LCG —
/// proptest's strategies stay on the graph/seed axes, the chop must just be ragged).
fn random_batches(m: usize, salt: u64) -> Vec<usize> {
    let mut sizes = Vec::new();
    let mut left = m;
    let mut state = salt.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    while left > 0 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let take = 1 + (state >> 33) as usize % (m / 4 + 2);
        let take = take.min(left);
        sizes.push(take);
        left -= take;
    }
    sizes
}

fn stream_with_batches(
    g: &Graph,
    cfg: &spectral_sparsify::stream::StreamConfig,
    sizes: &[usize],
) -> spectral_sparsify::stream::StreamOutput {
    let mut s = spectral_sparsify::stream::StreamSparsifier::new(g.n(), cfg.clone());
    let mut at = 0usize;
    for &size in sizes {
        s.ingest_batch(&g.edges()[at..at + size]).unwrap();
        at += size;
    }
    assert_eq!(at, g.m());
    s.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The semi-streaming engine's batch-split invariance: any two chops of the same
    /// edge sequence give bitwise-identical sparsifiers with identical accounting —
    /// in particular the edge-count bound of the output never depends on the chop.
    #[test]
    fn stream_output_is_batch_split_invariant(
        g in connected_graph(),
        salt_a in 0u64..1000,
        salt_b in 1000u64..2000,
        seed in 0u64..100
    ) {
        let cfg = spectral_sparsify::stream::StreamConfig::new(0.75, (g.m() / 3).max(16))
            .with_bundle_sizing(BundleSizing::Fixed(2))
            .with_seed(seed);
        let a = stream_with_batches(&g, &cfg, &random_batches(g.m(), salt_a));
        let b = stream_with_batches(&g, &cfg, &random_batches(g.m(), salt_b));
        prop_assert_eq!(a.sparsifier.edges(), b.sparsifier.edges());
        prop_assert_eq!(&a.stats.levels, &b.stats.levels);
        prop_assert_eq!(a.stats.peak_resident_edges, b.stats.peak_resident_edges);
        prop_assert_eq!(a.stats.forced_reductions, b.stats.forced_reductions);
        // Edge-count bound: the output never exceeds the (coalesced) input support.
        prop_assert!(a.sparsifier.m() <= g.m());
        prop_assert!(connectivity::is_connected(&a.sparsifier));
    }

    /// End-to-end (1 ± ε_total) in the regime where the per-reduction guarantee
    /// actually holds (the paper's bundle constants): for random graphs, random batch
    /// chops and three stream seeds, the certified quadratic-form error of
    /// `finish()` against the full-graph Laplacian stays within ε_total.
    #[test]
    fn stream_error_within_epsilon_with_faithful_constants(
        g in connected_graph(),
        salt in 0u64..500,
    ) {
        let eps_total = 0.6f64;
        for stream_seed in [11u64, 22, 33] {
            let cfg = spectral_sparsify::stream::StreamConfig::new(eps_total, (g.m() / 2).max(16))
                .with_bundle_sizing(BundleSizing::Paper)
                .with_seed(stream_seed);
            let out = stream_with_batches(&g, &cfg, &random_batches(g.m(), salt));
            let bounds = spectral_sparsify::linalg::spectral::approximation_bounds(
                &g,
                &out.sparsifier,
                &spectral_sparsify::linalg::spectral::CertifyOptions::default(),
            );
            prop_assert!(
                bounds.within_epsilon(eps_total),
                "seed {}: bounds {:?} outside 1±{}", stream_seed, bounds, eps_total
            );
            prop_assert!(out.stats.epsilon_spent() <= eps_total + 1e-12);
            // The batch chop never changes the edge-count bound.
            prop_assert!(out.sparsifier.m() <= g.m());
        }
    }

    /// The ER-weighted final pass under the paper-faithful oversampling constant:
    /// `q = 24 · n log n / ε²` exceeds any input this strategy generates, so the pass
    /// must short-circuit honestly — zero solves, no ε charged — and the end-to-end
    /// certification of the tree (run at its reduced ε reservation) must stay within
    /// the configured ε_total. (The compressing small-constant regime is pinned by
    /// `tests/golden_er.rs`.)
    #[test]
    fn er_final_pass_preserves_certification_with_faithful_constants(
        g in connected_graph(),
        salt in 0u64..500,
    ) {
        let eps_total = 0.6f64;
        for stream_seed in [11u64, 22, 33] {
            let cfg = spectral_sparsify::stream::StreamConfig::new(eps_total, (g.m() / 2).max(16))
                .with_bundle_sizing(BundleSizing::Paper)
                .with_seed(stream_seed)
                .with_final_pass(
                    spectral_sparsify::stream::FinalPassConfig::new()
                        .with_oversample(24.0)
                        .with_jl_dims(4)
                        .with_cg_tol(1e-3),
                );
            let out = stream_with_batches(&g, &cfg, &random_batches(g.m(), salt));
            let pass = out.stats.er_pass.as_ref().expect("final pass configured");
            prop_assert!(!pass.resampled, "faithful q must cover the input");
            prop_assert_eq!(pass.solves, 0);
            prop_assert_eq!(pass.m_in, pass.m_out);
            let bounds = spectral_sparsify::linalg::spectral::approximation_bounds(
                &g,
                &out.sparsifier,
                &spectral_sparsify::linalg::spectral::CertifyOptions::default(),
            );
            prop_assert!(
                bounds.within_epsilon(eps_total),
                "seed {}: bounds {:?} outside 1±{}", stream_seed, bounds, eps_total
            );
            prop_assert!(out.stats.epsilon_spent() <= eps_total + 1e-12);
            prop_assert!(connectivity::is_connected(&out.sparsifier));
        }
    }
}

/// Strategy: adversarial near-format text — a (possibly lying) header followed by lines
/// of tokens drawn from the numeric/garbage edge-token alphabet. This hits the parser's
/// structured failure paths far more often than uniformly random bytes would.
fn near_format_text() -> impl Strategy<Value = String> {
    let token = prop_oneof![
        (0usize..200).prop_map(|x| x.to_string()),
        (-1_000_000_000_000i64..1_000_000_000_000).prop_map(|x| x.to_string()),
        (-1e308f64..1e308).prop_map(|x| x.to_string()),
        Just("inf".to_string()),
        Just("nan".to_string()),
        Just("99999999999999999999999999".to_string()),
        Just("zebra".to_string()),
        Just("#".to_string()),
        Just("".to_string()),
    ];
    let line = proptest::collection::vec(token, 0..5).prop_map(|ts| ts.join(" "));
    let header = prop_oneof![
        (0usize..100, 0usize..100).prop_map(|(n, m)| format!("{n} {m}")),
        Just(format!("3 {}", usize::MAX)),
        Just("zebra 4".to_string()),
        Just("".to_string()),
    ];
    (header, proptest::collection::vec(line, 0..12))
        .prop_map(|(h, ls)| format!("{h}\n{}", ls.join("\n")))
}

/// Strategy: unstructured garbage bytes (control characters included), lossily decoded.
fn garbage_text() -> impl Strategy<Value = String> {
    proptest::collection::vec((0u32..256).prop_map(|b| b as u8), 0..80)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The graph parser is total on hostile input: arbitrary bytes and near-format
    /// adversarial text both come back as `Ok` or a positioned `Err` — never a panic,
    /// and never an allocation proportional to what a lying header *declares*.
    #[test]
    fn graph_parser_never_panics(garbage in garbage_text(), crafted in near_format_text()) {
        for text in [garbage.as_str(), crafted.as_str()] {
            // Whole-text and streaming paths must agree on accept/reject.
            let whole = spectral_sparsify::graph::io::from_str(text);
            let streamed = spectral_sparsify::graph::io::EdgeBatchReader::new(text.as_bytes())
                .and_then(|mut r| {
                    let mut edges = Vec::new();
                    while r.next_batch(64, &mut edges)? != 0 {}
                    Ok(edges)
                });
            prop_assert_eq!(whole.is_ok(), streamed.is_ok(), "paths disagree on {:?}", text);
            if let (Ok(g), Ok(es)) = (&whole, &streamed) {
                prop_assert_eq!(g.edges(), es.as_slice());
                for e in g.edges() {
                    prop_assert!(e.u() < g.n() && e.v() < g.n() && e.u() != e.v());
                    prop_assert!(e.w.is_finite() && e.w > 0.0);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Serialize → parse is the identity on valid graphs (both read paths).
    #[test]
    fn graph_io_round_trips(g in connected_graph()) {
        let text = spectral_sparsify::graph::io::to_string(&g);
        let h = spectral_sparsify::graph::io::from_str(&text).unwrap();
        prop_assert_eq!(g.n(), h.n());
        prop_assert_eq!(g.m(), h.m());
        for (a, b) in g.edges().iter().zip(h.edges()) {
            prop_assert_eq!((a.u(), a.v()), (b.u(), b.v()));
            prop_assert!((a.w - b.w).abs() <= 1e-12 * a.w.abs().max(1.0));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Binary serialize → parse is the **bit-exact** identity on valid graphs: unlike
    /// the text format, endpoints and weight bit patterns survive unchanged, which is
    /// what lets the spill store round-trip merge-tree nodes without perturbing the
    /// deterministic output stream.
    #[test]
    fn bin_io_round_trips_bit_exact(g in connected_graph(), chunk in 1usize..97) {
        let mut bytes = Vec::new();
        {
            let mut w = spectral_sparsify::graph::io::BinEdgeWriter::new(&mut bytes, g.n(), g.m())
                .unwrap();
            w.write_batch(g.edges()).unwrap();
            w.finish().unwrap();
        }
        let mut r = spectral_sparsify::graph::io::BinEdgeReader::new(bytes.as_slice()).unwrap();
        prop_assert_eq!(r.n(), g.n());
        let mut edges = Vec::new();
        while r.next_batch(chunk, &mut edges).unwrap() != 0 {}
        prop_assert_eq!(edges.len(), g.m());
        for (a, b) in g.edges().iter().zip(&edges) {
            prop_assert_eq!((a.u(), a.v()), (b.u(), b.v()));
            prop_assert_eq!(a.w.to_bits(), b.w.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The binary reader is total on hostile input: arbitrary bytes, truncations of a
    /// valid file at every depth, and single-byte corruptions all come back as `Ok` or
    /// a positioned `Err` — never a panic, and never an allocation proportional to
    /// what a lying header *declares*.
    #[test]
    fn bin_reader_never_panics(
        garbage in proptest::collection::vec((0u32..256).prop_map(|b| b as u8), 0..96),
        cut in 0usize..4096,
        corrupt in (0u32..256).prop_map(|b| b as u8),
        pos in 0usize..4096,
    ) {
        let g = generators::erdos_renyi(40, 0.2, 1.0, 7);
        let mut valid = Vec::new();
        {
            let mut w = spectral_sparsify::graph::io::BinEdgeWriter::new(&mut valid, g.n(), g.m())
                .unwrap();
            w.write_batch(g.edges()).unwrap();
            w.finish().unwrap();
        }
        let truncated = &valid[..cut.min(valid.len())];
        let mut corrupted = valid.clone();
        let at = pos % corrupted.len();
        corrupted[at] ^= corrupt;
        for bytes in [garbage.as_slice(), truncated, corrupted.as_slice()] {
            let fed = match spectral_sparsify::graph::io::BinEdgeReader::new(bytes) {
                Ok(mut r) => {
                    let mut edges = Vec::new();
                    let mut total = 0usize;
                    loop {
                        match r.next_batch(64, &mut edges) {
                            Ok(0) => break,
                            Ok(k) => total += k,
                            Err(_) => break,
                        }
                    }
                    total
                }
                Err(_) => 0,
            };
            // Whatever came back before any error is a prefix of real records.
            prop_assert!(fed <= g.m());
        }
    }
}
