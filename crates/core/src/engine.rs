//! Re-entrant sparsification engine with cross-call scratch reuse.
//!
//! [`parallel_sample`](crate::parallel_sample) / [`parallel_sparsify`](crate::parallel_sparsify)
//! allocate a fresh [`SpannerEngine`] — the `O(m)` edge view, CSR incidence and
//! per-run masks — on every call. That is the right trade for one-shot use, but a batch
//! pipeline such as the semi-streaming sparsifier (`sgs-stream`) sparsifies hundreds of
//! similarly-sized graphs in sequence, and per-call setup allocation becomes steady-state
//! heap churn. [`SparsifyEngine`] owns the spanner engine and reuses its allocations
//! across calls; outputs are **byte-identical** to the free functions for the same
//! configuration and seed (the free functions are in fact one-shot wrappers over the
//! same code path).

use sgs_graph::Graph;
use sgs_spanner::SpannerEngine;

use crate::config::SparsifyConfig;
use crate::leverage::{resparsify_on_engine, ErPassConfig, ErPassOutput, SamplingScratch};
use crate::sample::{sample_on_engine, SampleOutput};
use crate::sparsify::{sparsify_on_engine, SparsifyOutput};

/// A reusable `PARALLELSAMPLE` / `PARALLELSPARSIFY` runner.
///
/// Construction is free (no allocation); the first call sizes the internal scratch and
/// subsequent calls on graphs of similar size reuse it. One engine serves any sequence
/// of graphs — vertex and edge counts may differ between calls.
///
/// ```
/// use sgs_graph::generators;
/// use sgs_core::{parallel_sparsify, BundleSizing, SparsifyConfig, SparsifyEngine};
///
/// let g = generators::erdos_renyi(300, 0.3, 1.0, 7);
/// let cfg = SparsifyConfig::new(0.5, 4.0)
///     .with_bundle_sizing(BundleSizing::Fixed(3))
///     .with_seed(1);
/// let mut engine = SparsifyEngine::new();
/// let a = engine.sparsify(&g, &cfg);
/// let b = parallel_sparsify(&g, &cfg);
/// assert_eq!(a.sparsifier.edges(), b.sparsifier.edges());
/// ```
#[derive(Debug)]
pub struct SparsifyEngine {
    pub(crate) spanner: SpannerEngine,
    pub(crate) sampling: SamplingScratch,
}

impl SparsifyEngine {
    /// Creates an engine with no allocations.
    pub fn new() -> SparsifyEngine {
        SparsifyEngine {
            spanner: SpannerEngine::empty(),
            sampling: SamplingScratch::default(),
        }
    }

    /// One round of `PARALLELSAMPLE` (Algorithm 1); byte-identical to
    /// [`crate::parallel_sample`].
    pub fn sample(&mut self, g: &Graph, cfg: &SparsifyConfig) -> SampleOutput {
        sample_on_engine(g, cfg, self)
    }

    /// Full `PARALLELSPARSIFY` (Algorithm 2); byte-identical to
    /// [`crate::parallel_sparsify`].
    pub fn sparsify(&mut self, g: &Graph, cfg: &SparsifyConfig) -> SparsifyOutput {
        sparsify_on_engine(g, cfg, self)
    }

    /// Effective-resistance resparsification pass (Spielman–Srivastava over a finished
    /// sparsifier); byte-identical to [`crate::resparsify_er`] but reuses this engine's
    /// JL/CG scratch.
    pub fn resparsify_er(
        &mut self,
        g: &Graph,
        cfg: &ErPassConfig,
        epsilon: f64,
        seed: u64,
    ) -> ErPassOutput {
        resparsify_on_engine(g, cfg, epsilon, seed, self)
    }
}

impl Default for SparsifyEngine {
    fn default() -> Self {
        SparsifyEngine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BundleSizing;
    use crate::{parallel_sample, parallel_sparsify};
    use sgs_graph::generators;

    fn cfg(seed: u64) -> SparsifyConfig {
        SparsifyConfig::new(0.75, 4.0)
            .with_bundle_sizing(BundleSizing::Fixed(3))
            .with_seed(seed)
    }

    #[test]
    fn reused_engine_matches_free_functions_across_a_graph_sequence() {
        // The engine is reused over graphs of different sizes and seeds; every output
        // must equal the one-shot free function's, including the work counters.
        let graphs = [
            generators::erdos_renyi(250, 0.3, 1.0, 3),
            generators::erdos_renyi(120, 0.5, 1.0, 4),
            generators::preferential_attachment(300, 5, 1.0, 9),
            generators::erdos_renyi(400, 0.2, 1.0, 5),
        ];
        let mut engine = SparsifyEngine::new();
        for (i, g) in graphs.iter().enumerate() {
            let c = cfg(10 + i as u64);
            let a = engine.sparsify(g, &c);
            let b = parallel_sparsify(g, &c);
            assert_eq!(a.sparsifier.edges(), b.sparsifier.edges());
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.rounds_executed, b.rounds_executed);

            let sa = engine.sample(g, &c);
            let sb = parallel_sample(g, &c);
            assert_eq!(sa.sparsifier.edges(), sb.sparsifier.edges());
            assert_eq!(sa.bundle_edges, sb.bundle_edges);
            assert_eq!(sa.sampled_edges, sb.sampled_edges);
            assert_eq!(sa.stats, sb.stats);
        }
    }

    #[test]
    fn default_is_new() {
        let g = generators::erdos_renyi(100, 0.3, 1.0, 2);
        let c = cfg(1);
        let a = SparsifyEngine::default().sparsify(&g, &c);
        let b = SparsifyEngine::new().sparsify(&g, &c);
        assert_eq!(a.sparsifier.edges(), b.sparsifier.edges());
    }
}
