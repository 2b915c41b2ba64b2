//! Baseline sparsification algorithms used for the comparison experiments (E9).
//!
//! * [`effective_resistance_sparsify`] — the Spielman–Srivastava scheme \[23\]: sample `q`
//!   edges with replacement with probability proportional to `w_e R_e`, each kept at
//!   weight `w_e / (q p_e)`. Resistances are approximated with the random-projection
//!   estimator of `sgs_linalg`, which itself costs `O(log n)` Laplacian solves — this is
//!   the "needs a solver" dependence the paper's solve-free algorithm avoids.
//! * [`uniform_sparsify`] — keep every edge independently with probability `p` at weight
//!   `w_e / p`. Cheap, but has no spectral guarantee: it destroys low-connectivity
//!   structure (e.g. barbell bridges), which experiment E9 demonstrates.
//! * [`spanner_oversampling_sparsify`] — a Kapralov–Panigrahi-flavoured scheme: keep one
//!   spanner outright and sample the remaining edges uniformly, i.e. `PARALLELSAMPLE`
//!   with `t = 1` and a configurable keep probability. It sits between the two extremes
//!   and shows why the bundle (rather than a single spanner) is what buys the `1 ± ε`
//!   guarantee.

use rand::distributions::WeightedIndex;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

use sgs_graph::{Graph, GraphBuilder};
use sgs_linalg::resistance::approx_effective_resistances;
use sgs_spanner::{baswana_sen_spanner, SpannerConfig};

/// Output of a baseline sparsification run.
#[derive(Debug, Clone)]
pub struct BaselineOutput {
    /// The sparsified graph.
    pub sparsifier: Graph,
    /// Number of Laplacian solves spent estimating resistances (zero for the solve-free
    /// baselines).
    pub solves: usize,
}

/// Spielman–Srivastava effective-resistance sampling.
///
/// Draws `q = ⌈sample_factor · n log₂ n / ε²⌉` independent samples from the distribution
/// `p_e ∝ w_e R̃_e` and accumulates `w_e / (q p_e)` per drawn edge.
pub fn effective_resistance_sparsify(
    g: &Graph,
    eps: f64,
    sample_factor: f64,
    seed: u64,
) -> BaselineOutput {
    assert!(eps > 0.0, "epsilon must be positive");
    let n = g.n();
    let m = g.m();
    if m == 0 {
        return BaselineOutput {
            sparsifier: g.clone(),
            solves: 0,
        };
    }
    let jl_factor = 4.0;
    let resistances = approx_effective_resistances(g, jl_factor, seed);
    let solves = ((jl_factor * (n.max(2) as f64).log2()).ceil() as usize).max(1);

    // Sampling probabilities proportional to (approximate) leverage scores.
    let scores: Vec<f64> = g
        .edges()
        .iter()
        .zip(&resistances)
        .map(|(e, r)| (e.w * r).max(1e-12))
        .collect();
    let q = ((sample_factor * n as f64 * (n.max(2) as f64).log2() / (eps * eps)).ceil() as usize)
        .max(1);
    let total: f64 = scores.iter().sum();
    let dist = WeightedIndex::new(&scores).expect("positive weights");
    let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9E3779B97F4A7C15));
    let mut builder = GraphBuilder::new(n);
    for _ in 0..q {
        let id = dist.sample(&mut rng);
        let e = g.edge(id);
        let p_e = scores[id] / total;
        let w = e.w / (q as f64 * p_e);
        let _ = builder.add(e.u, e.v, w);
    }
    BaselineOutput {
        sparsifier: builder.build(),
        solves,
    }
}

/// Plain uniform sampling: keep each edge with probability `p`, reweighted by `1/p`.
pub fn uniform_sparsify(g: &Graph, p: f64, seed: u64) -> BaselineOutput {
    assert!(p > 0.0 && p <= 1.0, "keep probability must be in (0, 1]");
    let mut out = Graph::with_capacity(g.n(), (g.m() as f64 * p) as usize + 8);
    for (id, e) in g.edges().iter().enumerate() {
        let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(id as u64));
        if rng.gen::<f64>() < p {
            out.push_edge_unchecked(e.u, e.v, e.w / p);
        }
    }
    BaselineOutput {
        sparsifier: out,
        solves: 0,
    }
}

/// Spanner-plus-uniform-oversampling: keep one Baswana–Sen spanner at its original
/// weights and every remaining edge with probability `p` at weight `w_e / p`.
pub fn spanner_oversampling_sparsify(g: &Graph, p: f64, seed: u64) -> BaselineOutput {
    assert!(p > 0.0 && p <= 1.0, "keep probability must be in (0, 1]");
    let spanner = baswana_sen_spanner(g, &SpannerConfig::with_seed(seed));
    let mut in_spanner = vec![false; g.m()];
    for &id in &spanner.edge_ids {
        in_spanner[id] = true;
    }
    let mut out = Graph::with_capacity(g.n(), spanner.edge_ids.len() + (g.m() as f64 * p) as usize);
    for (id, e) in g.edges().iter().enumerate() {
        if in_spanner[id] {
            out.push_edge_unchecked(e.u, e.v, e.w);
        } else {
            let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(id as u64) ^ 0x5151);
            if rng.gen::<f64>() < p {
                out.push_edge_unchecked(e.u, e.v, e.w / p);
            }
        }
    }
    BaselineOutput {
        sparsifier: out,
        solves: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_graph::{connectivity::is_connected, generators};
    use sgs_linalg::spectral::{approximation_bounds, CertifyOptions};

    #[test]
    fn effective_resistance_sampling_preserves_spectrum_well() {
        let g = generators::erdos_renyi(150, 0.4, 1.0, 3);
        let out = effective_resistance_sparsify(&g, 0.5, 1.0, 7);
        assert!(out.solves > 0);
        assert!(
            is_connected(&out.sparsifier),
            "ER sampling keeps the graph connected whp"
        );
        let b = approximation_bounds(&g, &out.sparsifier, &CertifyOptions::default());
        assert!(b.lower > 0.4 && b.upper < 2.0, "{b:?}");
    }

    #[test]
    fn effective_resistance_sampling_is_sparser_than_input_on_dense_graphs() {
        let g = generators::complete(120, 1.0); // 7140 edges
        let out = effective_resistance_sparsify(&g, 1.0, 0.5, 5);
        assert!(out.sparsifier.m() < g.m() / 2);
    }

    #[test]
    fn uniform_sampling_keeps_about_p_fraction() {
        let g = generators::erdos_renyi(300, 0.3, 1.0, 11);
        let out = uniform_sparsify(&g, 0.25, 3);
        let got = out.sparsifier.m() as f64;
        let expected = g.m() as f64 * 0.25;
        assert!((got - expected).abs() < 5.0 * expected.sqrt() + 10.0);
        assert_eq!(out.solves, 0);
        // Weights are reweighted by 4.
        assert!(out
            .sparsifier
            .edges()
            .iter()
            .all(|e| (e.w - 4.0).abs() < 1e-12));
    }

    #[test]
    fn uniform_sampling_destroys_barbell_bridges() {
        // The bridge edge has very high leverage; uniform sampling drops it 75% of the
        // time, disconnecting the graph, while the spanner-based schemes always keep a
        // connected sparsifier.
        let g = generators::barbell(30, 1, 1.0, 1.0);
        let mut disconnected = 0;
        for seed in 0..20 {
            let out = uniform_sparsify(&g, 0.25, seed);
            if !is_connected(&out.sparsifier) {
                disconnected += 1;
            }
        }
        assert!(
            disconnected >= 10,
            "only {disconnected}/20 runs disconnected the barbell"
        );
        for seed in 0..5 {
            let out = spanner_oversampling_sparsify(&g, 0.25, seed);
            assert!(is_connected(&out.sparsifier));
        }
    }

    #[test]
    fn spanner_oversampling_is_between_uniform_and_full() {
        let g = generators::erdos_renyi(250, 0.4, 1.0, 13);
        let uni = uniform_sparsify(&g, 0.25, 5);
        let span = spanner_oversampling_sparsify(&g, 0.25, 5);
        assert!(span.sparsifier.m() >= uni.sparsifier.m());
        assert!(span.sparsifier.m() < g.m());
        assert!(is_connected(&span.sparsifier));
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::erdos_renyi(120, 0.3, 1.0, 17);
        let a = effective_resistance_sparsify(&g, 0.5, 1.0, 9);
        let b = effective_resistance_sparsify(&g, 0.5, 1.0, 9);
        assert_eq!(a.sparsifier.edges(), b.sparsifier.edges());
        let u1 = uniform_sparsify(&g, 0.3, 4);
        let u2 = uniform_sparsify(&g, 0.3, 4);
        assert_eq!(u1.sparsifier.edges(), u2.sparsifier.edges());
    }

    #[test]
    fn empty_graph_is_handled() {
        let g = Graph::new(10);
        let out = effective_resistance_sparsify(&g, 0.5, 1.0, 1);
        assert_eq!(out.sparsifier.m(), 0);
        let out = uniform_sparsify(&g, 0.5, 1);
        assert_eq!(out.sparsifier.m(), 0);
    }
    use sgs_graph::Graph;
}
