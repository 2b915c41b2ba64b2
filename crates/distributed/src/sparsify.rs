//! Distributed `PARALLELSAMPLE` and `PARALLELSPARSIFY` (Corollary 3 and the distributed
//! part of Theorems 4 and 5): `sgs-core`'s drivers [`parallel_sample_with`] and
//! [`parallel_sparsify_with`] with a CONGEST bundle builder, so only the cost model
//! differs from the shared-memory sparsifier:
//!
//! * a t-bundle is built by running the distributed spanner `t` times, each time on the
//!   residual edge set ("edges in earlier components declare themselves out", Section
//!   3.1), adding `O(t log² n)` rounds and `O(t m log n)` messages (Corollary 3);
//! * the uniform sampling step of Algorithm 1 is entirely local — the lower endpoint
//!   of each edge owns its counter-based coin, so no communication is needed. The coin
//!   is always uniform — `cfg.sampling` is not read, because leverage scores would
//!   need Laplacian solves this protocol does not run;
//! * `PARALLELSPARSIFY` repeats the above `⌈log ρ⌉` times, on the driver's rounds and
//!   seeds, so a clean run selects exactly `parallel_sparsify`'s edges.

use sgs_core::config::SparsifyConfig;
use sgs_core::{parallel_sample_with, parallel_sparsify_with, SamplingPolicy, WorkStats};
use sgs_graph::{EdgeId, Graph};
use sgs_spanner::{component_seed, BundleConfig, BundleResult};

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
    /// The driver's rounds and per-round series. The protocol's cost is `metrics`, so
    /// `spanner_work` is 0.
    pub stats: WorkStats,
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
/// the fault plan (reseeded per round and per run, so runs see independent fault
/// streams) and the optional reliable-delivery layer. A clean [`FaultConfig`] keeps
/// the byte stream identical to [`distributed_sample`].
pub fn distributed_sample_with_faults(
    g: &Graph,
    cfg: &SparsifyConfig,
    faults: &FaultConfig,
) -> DistSparsifyResult {
    let mut metrics = NetworkMetrics::default();
    let out = parallel_sample_with(g, &uniform(cfg), congest_bundle(faults, &mut metrics));
    DistSparsifyResult {
        sparsifier: out.sparsifier,
        metrics,
        stats: out.stats,
    }
}

/// Distributed `PARALLELSPARSIFY`: `⌈log ρ⌉` rounds of [`distributed_sample`], each on
/// the uniform coin whatever `cfg.sampling` says.
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
    let mut metrics = NetworkMetrics::default();
    let out = parallel_sparsify_with(g, &uniform(cfg), congest_bundle(faults, &mut metrics));
    DistSparsifyResult {
        sparsifier: out.sparsifier,
        metrics,
        stats: out.stats,
    }
}

/// `cfg` with the uniform coin, the only one the protocol runs.
fn uniform(cfg: &SparsifyConfig) -> SparsifyConfig {
    cfg.clone().with_sampling(SamplingPolicy::Uniform)
}

/// The CONGEST bundle builder: `t` distributed spanner runs on the residual edges of
/// the round's graph, adding their traffic to `metrics`.
fn congest_bundle<'a>(
    faults: &'a FaultConfig,
    metrics: &'a mut NetworkMetrics,
) -> impl FnMut(&Graph, &BundleConfig) -> BundleResult + 'a {
    move |g, cfg| {
        let _span = sgs_obs::span!("congest.sample", m = g.m());
        let m = g.m();
        let round_seed = cfg.spanner.seed;
        let mut in_bundle = vec![false; m];
        let mut active: Vec<EdgeId> = (0..m).collect();
        let mut components = Vec::new();
        for i in 0..cfg.t {
            if active.is_empty() {
                break;
            }
            let run_seed = component_seed(round_seed, i);
            let mut spanner_cfg = DistSpannerConfig::with_seed(run_seed);
            if !faults.is_clean() {
                // Derive an independent fault-coin stream per round and per spanner
                // run, so one run's losses are not correlated with the next one's.
                let seed = faults.plan.seed ^ round_seed.rotate_left(29) ^ run_seed.rotate_left(17);
                spanner_cfg.faults = faults.plan.clone().with_seed(seed);
                spanner_cfg.reliability = faults.reliability.clone();
            }
            let result = distributed_spanner_on_edges(g, &active, &spanner_cfg);
            metrics.absorb(&result.metrics);
            for &id in &result.edge_ids {
                in_bundle[id] = true;
            }
            active.retain(|&id| !in_bundle[id]);
            components.push(result.edge_ids);
        }
        BundleResult {
            components,
            in_bundle,
            bundle_size: m - active.len(),
            work: 0,
        }
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
        assert!(out.stats.bundle_edges_per_round[0] > 0);
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
        assert!(out.stats.rounds >= 1);
        assert!(out.sparsifier.m() < g.m(), "must shrink a dense graph");
        assert!(is_connected(&out.sparsifier));
        let b = approximation_bounds(&g, &out.sparsifier, &CertifyOptions::default());
        assert!(b.lower > 0.15 && b.upper < 4.0, "{b:?}");
    }

    #[test]
    fn sparse_input_is_left_untouched() {
        let g = generators::grid2d(20, 20, 1.0);
        let out = distributed_sparsify(&g, &cfg(2));
        assert_eq!(out.stats.rounds, 0);
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
