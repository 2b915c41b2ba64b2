//! `PARALLELSAMPLE` (Algorithm 1 of the paper).
//!
//! ```text
//! Input: graph G, parameter ε
//! 1: compute a (24 log² n / ε²)-bundle spanner H of G
//! 2: G̃ := H
//! 3: for each edge e ∉ H, with probability 1/4 add e to G̃ with weight 4 w_e
//! 4: return G̃
//! ```
//!
//! The bundle certifies (Lemma 1 / Corollary 1) that every off-bundle edge has leverage
//! `w_e R_e[G] ≤ log n / t`, so the matrix Chernoff bound (Theorem 3) shows the
//! uniformly sampled, reweighted graph is a `(1 ± ε)` approximation of `G` with
//! probability `1 − 1/n²` (Theorem 4). In expectation the off-bundle edge count drops by
//! a factor of 4 — the output has `O(n log³ n / ε² + m/2)` edges.

use rayon::prelude::*;

use sgs_graph::{splitmix64, Edge, Graph};
use sgs_spanner::{t_bundle_on_engine, BundleConfig, BundleResult, SpannerEngine};

use crate::config::SparsifyConfig;
use crate::engine::SparsifyEngine;
use crate::leverage::{leverage_probabilities, OffBudget, SamplingPolicy, SamplingScratch};
use crate::stats::WorkStats;

/// Counter-based per-edge coin: a uniform draw in `[0, 1)` from a splitmix64 mix of
/// seed and id.
///
/// Each edge gets its own stateless stream position, so the outcome is independent of
/// thread scheduling *and* costs two multiply-xor cascades instead of a full ChaCha8
/// key schedule per edge (the previous implementation seeded a fresh `ChaCha8Rng` per
/// edge, which dominated the sampling step's runtime). The seed is avalanched *before*
/// the id is XORed in: a plain `seed + id` mix would make nearby seeds produce shifted
/// copies of the same coin stream (`coin(s, id) == coin(s + d, id − d)`), correlating
/// exactly the consecutive small seeds that multi-seed experiments sweep. After the
/// pre-mix, streams of different seeds only coincide at a pseudorandom 64-bit id
/// offset, which never lands inside a real edge-id range. The top 53 bits give a
/// dyadic uniform double, the standard `u64 → f64` conversion.
#[inline]
pub fn edge_coin(seed: u64, id: u64) -> f64 {
    (splitmix64(splitmix64(seed) ^ id) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The uniform coin of Algorithm 1, step 3: edges marked in `verbatim` are kept as
/// they are, every other edge is kept with probability `p` at weight `w / p`.
///
/// Each edge reads its own [`edge_coin`] position `(seed, id)`, so the outcome is
/// independent of thread scheduling. Kept edges are collected in id order (the
/// executor concatenates chunks in domain order) and moved into the output graph
/// without a second pass.
pub fn sample_uniform(g: &Graph, verbatim: &[bool], p: f64, seed: u64) -> Graph {
    let reweight = 1.0 / p;
    let kept: Vec<Edge> = (0..g.m())
        .into_par_iter()
        .filter_map(|id| {
            let e = g.edge(id);
            if verbatim[id] {
                Some(e)
            } else if edge_coin(seed, id as u64) < p {
                Some(Edge::new(e.u(), e.v(), e.w * reweight))
            } else {
                None
            }
        })
        .collect();
    Graph::from_edges_unchecked(g.n(), kept)
}

/// [`sample_uniform`] with a per-edge threshold: edge `id` outside `verbatim` is kept
/// with probability `probs[id]` at weight `w / probs[id]`, on the same coin stream.
pub(crate) fn sample_weighted(g: &Graph, verbatim: &[bool], probs: &[f64], seed: u64) -> Graph {
    let kept: Vec<Edge> = (0..g.m())
        .into_par_iter()
        .filter_map(|id| {
            let e = g.edge(id);
            if verbatim[id] {
                return Some(e);
            }
            let p = probs[id];
            (edge_coin(seed, id as u64) < p).then(|| Edge::new(e.u(), e.v(), e.w / p))
        })
        .collect();
    Graph::from_edges_unchecked(g.n(), kept)
}

/// Output of one `PARALLELSAMPLE` round.
#[derive(Debug, Clone)]
pub struct SampleOutput {
    /// The sampled graph `G̃`.
    pub sparsifier: Graph,
    /// Number of edges that came from the bundle `H`.
    pub bundle_edges: usize,
    /// Number of off-bundle edges kept by the coin flips.
    pub sampled_edges: usize,
    /// The resolved bundle parameter `t`.
    pub t: usize,
    /// Work counters for this round.
    pub stats: WorkStats,
}

/// Runs one round of `PARALLELSAMPLE` on `g`.
///
/// `cfg` is the single source of truth for the round: accuracy (`cfg.epsilon`), bundle
/// sizing, keep probability, sampling policy and seed. Parallelism is the ambient
/// rayon pool's; a 1-thread pool yields the same output.
pub fn parallel_sample(g: &Graph, cfg: &SparsifyConfig) -> SampleOutput {
    SparsifyEngine::new().sample(g, cfg)
}

/// [`parallel_sample`] with step 1's t-bundle built by `build_bundle` from the round's
/// graph and [`BundleConfig`]. The CONGEST sampler of `sgs-distributed` runs this.
pub fn parallel_sample_with(
    g: &Graph,
    cfg: &SparsifyConfig,
    build_bundle: impl FnMut(&Graph, &BundleConfig) -> BundleResult,
) -> SampleOutput {
    sample_with(g, cfg, &mut SamplingScratch::default(), build_bundle)
}

/// The shared-memory bundle builder: [`t_bundle_on_engine`] on a reusable engine.
pub(crate) fn bundle_on(
    spanner: &mut SpannerEngine,
) -> impl FnMut(&Graph, &BundleConfig) -> BundleResult + '_ {
    move |g, cfg| {
        spanner.reset_from_graph(g);
        t_bundle_on_engine(spanner, cfg)
    }
}

/// One `PARALLELSAMPLE` round; the leverage kernel reuses `sampling`.
pub(crate) fn sample_with(
    g: &Graph,
    cfg: &SparsifyConfig,
    sampling: &mut SamplingScratch,
    mut build_bundle: impl FnMut(&Graph, &BundleConfig) -> BundleResult,
) -> SampleOutput {
    let eps = cfg.epsilon;
    assert!(eps > 0.0, "epsilon must be positive");
    let n = g.n();
    let m = g.m();
    let t = cfg.bundle_sizing.resolve(n, eps);

    // Step 1: the t-bundle spanner.
    let bundle = build_bundle(g, &BundleConfig::new(t).with_seed(cfg.seed));

    // Steps 2–3: keep the bundle, flip a coin for everything else. Under the
    // effective-resistance policy each off-bundle edge's threshold becomes its
    // leverage-weighted probability; both coins consume the same draw per edge, so
    // the uniform path stays byte-identical to the original Algorithm 1.
    let sampling_span = sgs_obs::span!("sample.coins");
    let seed = cfg.seed ^ 0xA5A5_5A5A_DEAD_BEEF;
    let weighted = match cfg.sampling {
        SamplingPolicy::Uniform => false,
        SamplingPolicy::EffectiveResistance { jl_dims, cg_tol } => leverage_probabilities(
            g,
            &bundle.in_bundle,
            jl_dims,
            cg_tol,
            cfg.seed ^ 0x7E57_ED5E_0DDB_A11E,
            OffBudget::Rate(cfg.keep_probability),
            sampling,
        ),
    };
    let sparsifier = if weighted {
        sample_weighted(g, &bundle.in_bundle, &sampling.probs, seed)
    } else {
        sample_uniform(g, &bundle.in_bundle, cfg.keep_probability, seed)
    };

    // Every bundle edge is kept unconditionally, so the split needs no re-scan.
    let bundle_edges = bundle.bundle_size;
    let sampled_edges = sparsifier.m() - bundle_edges;
    sgs_obs::point!(
        "sample.pass",
        m = m,
        t = t,
        bundle_edges = bundle_edges,
        sampled_edges = sampled_edges,
        bundle_work = bundle.work,
        weighted = weighted,
    );
    drop(sampling_span);

    let stats = WorkStats {
        spanner_work: bundle.work,
        sampling_work: m as u64,
        rounds: 1,
        edges_per_round: vec![m],
        bundle_t_per_round: vec![t],
        bundle_edges_per_round: vec![bundle.bundle_size],
    };

    SampleOutput {
        sparsifier,
        bundle_edges,
        sampled_edges,
        t,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BundleSizing;
    use sgs_graph::{connectivity::is_connected, generators};
    use sgs_linalg::spectral::{approximation_bounds, CertifyOptions};

    #[test]
    fn edge_coin_is_deterministic_and_uniform() {
        // Determinism: same (seed, id) → same draw; different ids decorrelate.
        assert_eq!(edge_coin(7, 42).to_bits(), edge_coin(7, 42).to_bits());
        assert_ne!(edge_coin(7, 42).to_bits(), edge_coin(7, 43).to_bits());
        assert_ne!(edge_coin(7, 42).to_bits(), edge_coin(8, 42).to_bits());
        // Uniformity: the empirical mean over consecutive counter values must sit near
        // 1/2 and every draw must be a valid probability.
        let n = 100_000u64;
        let mut sum = 0.0;
        let mut below_quarter = 0usize;
        for id in 0..n {
            let u = edge_coin(0xDEAD_BEEF, id);
            assert!((0.0..1.0).contains(&u));
            sum += u;
            if u < 0.25 {
                below_quarter += 1;
            }
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        let frac = below_quarter as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.01, "P[u < 1/4] ≈ {frac}");
    }

    #[test]
    fn edge_coin_streams_of_nearby_seeds_are_not_shifted_copies() {
        // A naive `splitmix64(seed + id)` mix satisfies coin(s, id) == coin(s+d, id-d),
        // turning multi-seed sweeps into correlated replicas. The pre-avalanched seed
        // must break that alignment at every small shift.
        for d in 1..4u64 {
            for id in d..1000 {
                assert_ne!(
                    edge_coin(7, id).to_bits(),
                    edge_coin(7 + d, id - d).to_bits(),
                    "shifted collision at d={d}, id={id}"
                );
            }
        }
    }

    fn base_cfg() -> SparsifyConfig {
        SparsifyConfig::new(0.5, 2.0)
            .with_bundle_sizing(BundleSizing::Fixed(3))
            .with_seed(17)
    }

    #[test]
    fn expectation_of_output_equals_input() {
        // E[G̃] = G: the total weight of the output should concentrate around the total
        // weight of the input (bundle kept at weight w, off-bundle kept at 4w w.p. 1/4).
        let g = generators::erdos_renyi(300, 0.3, 1.0, 5);
        let mut totals = Vec::new();
        for seed in 0..8 {
            let out = parallel_sample(&g, &base_cfg().with_seed(seed));
            totals.push(out.sparsifier.total_weight());
        }
        let mean = totals.iter().sum::<f64>() / totals.len() as f64;
        let rel = (mean - g.total_weight()).abs() / g.total_weight();
        assert!(rel < 0.05, "mean output weight off by {rel}");
    }

    #[test]
    fn off_bundle_edges_shrink_by_roughly_keep_probability() {
        let g = generators::erdos_renyi(400, 0.3, 1.0, 3);
        let out = parallel_sample(&g, &base_cfg());
        let off_bundle_total = g.m() - out.stats.bundle_edges_per_round[0];
        let expected = off_bundle_total as f64 * 0.25;
        let got = out.sampled_edges as f64;
        assert!(
            (got - expected).abs() < 4.0 * expected.sqrt() + 10.0,
            "sampled {got}, expected ≈ {expected}"
        );
        // Overall the output must be smaller than the input for a dense graph.
        assert!(out.sparsifier.m() < g.m());
    }

    #[test]
    fn sampled_edges_are_reweighted_by_inverse_probability() {
        let g = generators::complete(60, 2.0);
        let out = parallel_sample(&g, &base_cfg());
        // Every edge weight is either 2.0 (bundle) or 8.0 (kept off-bundle edge).
        for e in out.sparsifier.edges() {
            assert!(
                (e.w - 2.0).abs() < 1e-12 || (e.w - 8.0).abs() < 1e-12,
                "unexpected weight {}",
                e.w
            );
        }
        assert_eq!(out.bundle_edges + out.sampled_edges, out.sparsifier.m());
    }

    #[test]
    fn output_preserves_connectivity() {
        // The bundle contains at least one full spanner, which spans the graph.
        let g = generators::preferential_attachment(300, 5, 1.0, 7);
        let out = parallel_sample(&g, &base_cfg());
        assert!(is_connected(&out.sparsifier));
    }

    #[test]
    fn spectral_quality_is_reasonable_on_dense_graph() {
        let g = generators::erdos_renyi(200, 0.5, 1.0, 11);
        let out = parallel_sample(&g, &base_cfg().with_bundle_sizing(BundleSizing::Fixed(6)));
        let bounds = approximation_bounds(&g, &out.sparsifier, &CertifyOptions::default());
        // With a practical bundle the guarantee is looser than the paper's 1±ε, but the
        // approximation must still be two-sided and far from degenerate.
        assert!(bounds.lower > 0.4, "lower bound {}", bounds.lower);
        assert!(bounds.upper < 2.5, "upper bound {}", bounds.upper);
    }

    #[test]
    fn output_depends_on_the_seed() {
        let g = generators::erdos_renyi(250, 0.2, 1.0, 23);
        let a = parallel_sample(&g, &base_cfg());
        let c = parallel_sample(&g, &base_cfg().with_seed(99));
        assert_ne!(a.sparsifier.edges(), c.sparsifier.edges());
    }

    #[test]
    fn paper_constants_swallow_small_graphs() {
        // With the paper's t = 24 log²n/ε² the bundle contains every edge of a small
        // graph, so the output equals the input exactly — the algorithm never harms.
        let g = generators::erdos_renyi(100, 0.3, 1.0, 2);
        let cfg = SparsifyConfig::new(0.5, 2.0)
            .with_bundle_sizing(BundleSizing::Paper)
            .with_seed(3);
        let out = parallel_sample(&g, &cfg);
        assert_eq!(out.sparsifier.m(), g.m());
        assert_eq!(out.sampled_edges, 0);
    }

    #[test]
    fn stats_reflect_the_round() {
        let g = generators::erdos_renyi(200, 0.3, 1.0, 5);
        let out = parallel_sample(&g, &base_cfg());
        assert_eq!(out.stats.rounds, 1);
        assert_eq!(out.stats.edges_per_round, vec![g.m()]);
        assert_eq!(out.stats.bundle_t_per_round, vec![3]);
        assert_eq!(out.stats.sampling_work, g.m() as u64);
        assert!(out.stats.spanner_work > 0);
        assert_eq!(out.t, 3);
    }

    #[test]
    fn keep_probability_is_respected() {
        let g = generators::erdos_renyi(400, 0.3, 1.0, 31);
        let half = base_cfg().with_keep_probability(0.5);
        let quarter = base_cfg();
        let out_half = parallel_sample(&g, &half);
        let out_quarter = parallel_sample(&g, &quarter);
        assert!(out_half.sampled_edges > out_quarter.sampled_edges);
        // Reweighting factor should be 2x for p = 1/2.
        let has_2x = out_half
            .sparsifier
            .edges()
            .iter()
            .any(|e| (e.w - 2.0).abs() < 1e-12);
        assert!(has_2x);
    }

    #[test]
    fn er_strategy_output_is_connected_and_differs_from_uniform() {
        let g = generators::erdos_renyi(150, 0.25, 1.0, 13);
        let cfg = base_cfg().with_sampling(SamplingPolicy::effective_resistance(4, 1e-3));
        let a = parallel_sample(&g, &cfg);
        assert!(is_connected(&a.sparsifier));
        // The weighted path must actually diverge from the uniform coin.
        let uniform = parallel_sample(&g, &base_cfg());
        assert_ne!(a.sparsifier.edges(), uniform.sparsifier.edges());
    }

    #[test]
    fn er_strategy_keeps_expected_size_near_uniform_budget() {
        let g = generators::erdos_renyi(200, 0.3, 1.0, 29);
        let cfg = base_cfg().with_sampling(SamplingPolicy::effective_resistance(4, 1e-3));
        let out = parallel_sample(&g, &cfg);
        let uniform = parallel_sample(&g, &base_cfg());
        // Same expected budget → kept counts in the same ballpark (within 2x).
        let a = out.sampled_edges as f64;
        let b = uniform.sampled_edges.max(1) as f64;
        assert!(a < 2.0 * b && a > 0.3 * b, "er kept {a}, uniform kept {b}");
    }
}
