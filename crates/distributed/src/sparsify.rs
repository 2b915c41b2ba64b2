//! Distributed `PARALLELSAMPLE` and `PARALLELSPARSIFY` (Corollary 3 and the distributed
//! part of Theorems 4 and 5).
//!
//! The distributed versions are direct compositions of the distributed spanner:
//!
//! * a t-bundle is built by running the distributed spanner `t` times, each time on the
//!   residual edge set ("edges in earlier components declare themselves out", Section
//!   3.1), adding `O(t log² n)` rounds and `O(t m log n)` messages (Corollary 3);
//! * the uniform sampling step of Algorithm 1 is entirely local — every vertex owns the
//!   coin flips of its incident edges (the lower-endpoint owns the coin, so each edge is
//!   flipped exactly once) and no communication is needed. The step is the
//!   shared-memory uniform coin [`sample_uniform`] of `sgs-core`: each edge reads its
//!   own stateless counter-based stream position, so the outcome is independent of
//!   scheduling. The coin is always uniform — `cfg.sampling` is not read, because
//!   leverage scores would need Laplacian solves this protocol does not run;
//! * `PARALLELSPARSIFY` repeats the above `⌈log ρ⌉` times.

use sgs_core::config::SparsifyConfig;
use sgs_core::sample_uniform;
use sgs_graph::{EdgeId, Graph};

use crate::faults::FaultConfig;
use crate::network::NetworkMetrics;
use crate::spanner::{distributed_spanner_on_edges, DistSpannerConfig};

/// Result of a distributed sparsification run.
#[derive(Debug, Clone)]
pub struct DistSparsifyResult {
    /// The sparsified graph.
    pub sparsifier: Graph,
    /// Total communication metrics across every phase and round.
    pub metrics: NetworkMetrics,
    /// Number of `PARALLELSAMPLE` rounds executed.
    pub rounds_executed: usize,
    /// Number of edges contributed by bundles across all rounds (final round only for
    /// the single-round variant).
    pub bundle_edges: usize,
}

/// One distributed `PARALLELSAMPLE` round on `g`; `cfg` carries the round's accuracy
/// (`cfg.epsilon`) along with every other knob, matching the shared-memory API.
///
/// `cfg.sampling` is ignored: the off-bundle coin is always the uniform one, so an
/// effective-resistance policy silently runs the uniform coin here.
pub fn distributed_sample(g: &Graph, cfg: &SparsifyConfig) -> DistSparsifyResult {
    distributed_sample_with_faults(g, cfg, &FaultConfig::clean())
}

/// [`distributed_sample`] under a transport fault setup: every spanner run inherits
/// the fault plan (reseeded per run, so runs see independent fault streams) and the
/// optional reliable-delivery layer. A clean [`FaultConfig`] keeps the byte stream
/// identical to [`distributed_sample`].
pub fn distributed_sample_with_faults(
    g: &Graph,
    cfg: &SparsifyConfig,
    faults: &FaultConfig,
) -> DistSparsifyResult {
    let _span = sgs_obs::span!("congest.sample", m = g.m());
    let n = g.n();
    let m = g.m();
    let t = cfg.bundle_sizing.resolve(n, cfg.epsilon);
    let mut metrics = NetworkMetrics::default();

    // Build the t-bundle with t successive distributed spanner runs on residual edges.
    let mut in_bundle = vec![false; m];
    let mut active: Vec<EdgeId> = (0..m).collect();
    for i in 0..t {
        if active.is_empty() {
            break;
        }
        let run_seed = cfg
            .seed
            .wrapping_add((i as u64).wrapping_mul(0x9E3779B97F4A7C15));
        let mut spanner_cfg = DistSpannerConfig::with_seed(run_seed);
        if !faults.is_clean() {
            // Derive an independent fault-coin stream per spanner run so round `i`'s
            // losses are not correlated with round `i + 1`'s.
            spanner_cfg.faults = faults
                .plan
                .clone()
                .with_seed(faults.plan.seed ^ run_seed.rotate_left(17));
            spanner_cfg.reliability = faults.reliability.clone();
        }
        let result = distributed_spanner_on_edges(g, &active, &spanner_cfg);
        metrics.absorb(&result.metrics);
        for &id in &result.edge_ids {
            in_bundle[id] = true;
        }
        active.retain(|&id| !in_bundle[id]);
    }

    // Local sampling: the lower-id endpoint of each off-bundle edge flips the coin.
    // No communication happens here, so the step runs as the shared-memory uniform
    // coin, on this protocol's own seed.
    let sparsifier = sample_uniform(g, &in_bundle, cfg.keep_probability, cfg.seed ^ 0xD157_5A4D);
    // `active` was retained to exactly the off-bundle edges, so the split needs no
    // re-scan of the bitmap.
    let bundle_edges = m - active.len();

    DistSparsifyResult {
        sparsifier,
        metrics,
        rounds_executed: 1,
        bundle_edges,
    }
}

/// Distributed `PARALLELSPARSIFY`: `⌈log ρ⌉` rounds of [`distributed_sample`].
///
/// Like [`distributed_sample`], every round runs the uniform coin whatever
/// `cfg.sampling` says.
pub fn distributed_sparsify(g: &Graph, cfg: &SparsifyConfig) -> DistSparsifyResult {
    distributed_sparsify_with_faults(g, cfg, &FaultConfig::clean())
}

/// [`distributed_sparsify`] under a transport fault setup (see
/// [`distributed_sample_with_faults`]); a clean setup is byte-identical to
/// [`distributed_sparsify`].
pub fn distributed_sparsify_with_faults(
    g: &Graph,
    cfg: &SparsifyConfig,
    faults: &FaultConfig,
) -> DistSparsifyResult {
    let rounds = cfg.rounds();
    let per_round_eps = cfg.per_round_epsilon();
    let stop_threshold = cfg.stop_threshold(g.n());

    let mut current = g.clone();
    let mut metrics = NetworkMetrics::default();
    let mut rounds_executed = 0;
    let mut bundle_edges = 0;
    for round in 0..rounds {
        if current.m() <= stop_threshold {
            break;
        }
        let mut round_cfg = cfg.clone();
        round_cfg.epsilon = per_round_eps;
        round_cfg.seed = cfg.seed.wrapping_add(round as u64 * 0xD00D);
        let mut round_faults = faults.clone();
        if !round_faults.is_clean() {
            // Per-round fault reseed, same rationale as the per-run reseed above.
            round_faults.plan = round_faults
                .plan
                .with_seed(faults.plan.seed ^ (round_cfg.seed).rotate_left(29));
        }
        let out = distributed_sample_with_faults(&current, &round_cfg, &round_faults);
        metrics.absorb(&out.metrics);
        bundle_edges = out.bundle_edges;
        current = out.sparsifier;
        rounds_executed += 1;
    }
    DistSparsifyResult {
        sparsifier: current,
        metrics,
        rounds_executed,
        bundle_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_core::config::BundleSizing;
    use sgs_graph::{connectivity::is_connected, generators};
    use sgs_linalg::spectral::{approximation_bounds, CertifyOptions};

    fn cfg(seed: u64) -> SparsifyConfig {
        SparsifyConfig::new(0.75, 4.0)
            .with_bundle_sizing(BundleSizing::Fixed(2))
            .with_seed(seed)
    }

    #[test]
    fn distributed_sample_sparsifies_and_stays_connected() {
        let g = generators::erdos_renyi(150, 0.3, 1.0, 3);
        let out = distributed_sample(&g, &cfg(1));
        assert!(out.sparsifier.m() < g.m());
        assert!(is_connected(&out.sparsifier));
        assert!(out.bundle_edges > 0);
        assert!(out.metrics.rounds > 0);
        assert!(out.metrics.messages > 0);
    }

    #[test]
    fn communication_scales_with_bundle_size() {
        let g = generators::erdos_renyi(120, 0.25, 1.0, 7);
        let small = distributed_sample(&g, &cfg(1));
        let big = distributed_sample(&g, &cfg(1).with_bundle_sizing(BundleSizing::Fixed(6)));
        assert!(big.metrics.rounds > small.metrics.rounds);
        assert!(big.metrics.messages > small.metrics.messages);
    }

    #[test]
    fn corollary_3_bounds_hold() {
        let n = 100usize;
        let g = generators::erdos_renyi(n, 0.25, 1.0, 13);
        let t = 3usize;
        let out = distributed_sample(&g, &cfg(5).with_bundle_sizing(BundleSizing::Fixed(t)));
        let k = (n as f64).log2().ceil();
        let round_bound = (t as f64 * 4.0 * k * k) as usize + 10 * t;
        let msg_bound = (t as u64) * (6 * g.m() as u64 * k as u64 + 1000);
        assert!(
            out.metrics.rounds <= round_bound,
            "rounds {} > {round_bound}",
            out.metrics.rounds
        );
        assert!(
            out.metrics.messages <= msg_bound,
            "messages {} > {msg_bound}",
            out.metrics.messages
        );
        assert!(out.metrics.max_message_bits <= 64);
    }

    #[test]
    fn distributed_sparsify_matches_shared_memory_shape() {
        let g = generators::erdos_renyi(200, 0.4, 1.0, 17);
        let out = distributed_sparsify(&g, &cfg(3).with_bundle_sizing(BundleSizing::Fixed(4)));
        assert!(out.rounds_executed >= 1);
        assert!(out.sparsifier.m() < g.m(), "must shrink a dense graph");
        assert!(is_connected(&out.sparsifier));
        let b = approximation_bounds(&g, &out.sparsifier, &CertifyOptions::default());
        assert!(b.lower > 0.15 && b.upper < 4.0, "{b:?}");
    }

    #[test]
    fn sparse_input_is_left_untouched() {
        let g = generators::grid2d(20, 20, 1.0);
        let out = distributed_sparsify(&g, &cfg(2));
        assert_eq!(out.rounds_executed, 0);
        assert_eq!(out.sparsifier.m(), g.m());
        assert_eq!(out.metrics.messages, 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::erdos_renyi(100, 0.3, 1.0, 23);
        let a = distributed_sample(&g, &cfg(9));
        let b = distributed_sample(&g, &cfg(9));
        assert_eq!(a.sparsifier.edges(), b.sparsifier.edges());
        assert_eq!(a.metrics, b.metrics);
    }
}
