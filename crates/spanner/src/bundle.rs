//! t-bundle spanners (Definition 1 of the paper).
//!
//! A t-bundle spanner of `G` is `H = H₁ + … + H_t` where `H_i` is a spanner of
//! `G − Σ_{j<i} H_j`. Lemma 1 shows that every edge *outside* the bundle has
//! `w_e · R_e[G] ≤ log n / t`: the `t` edge-disjoint spanner paths between its endpoints
//! act as parallel resistors, certifying a small effective resistance. That certificate
//! is what allows Algorithm 1 to sample off-bundle edges uniformly.
//!
//! The construction below peels spanners iteratively (Section 3.1): edges already placed
//! in earlier components simply "declare themselves out" of later iterations, which is
//! why the construction parallelises/distributes as easily as a single spanner.
//!
//! Implementation-wise the peeling runs on a [`SpannerEngine`]: the flat CSR incidence
//! over the edge view is built **once** per bundle and compacted in place after each
//! component, instead of re-collecting the remaining edges and rebuilding a
//! `Vec<Vec<usize>>` incidence structure `t` times.

use sgs_graph::{EdgeId, Graph};

use crate::baswana_sen::{SpannerConfig, SpannerEngine, SpannerResult};

/// Configuration for the t-bundle construction.
#[derive(Debug, Clone)]
pub struct BundleConfig {
    /// Number of spanner components `t`.
    pub t: usize,
    /// Configuration forwarded to every per-component spanner call (the seed is
    /// perturbed per component so components draw independent randomness).
    pub spanner: SpannerConfig,
}

impl BundleConfig {
    /// Bundle of `t` components with default spanner settings.
    pub fn new(t: usize) -> Self {
        BundleConfig {
            t,
            spanner: SpannerConfig::default(),
        }
    }

    /// Sets the base RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.spanner.seed = seed;
        self
    }
}

/// Result of a t-bundle construction.
#[derive(Debug, Clone)]
pub struct BundleResult {
    /// Edge ids of each component `H_i` (ids into the input graph).
    pub components: Vec<Vec<EdgeId>>,
    /// Membership mask over the input graph's edges: `true` if the edge belongs to any
    /// component of the bundle.
    pub in_bundle: Vec<bool>,
    /// Total number of edges in the bundle.
    pub bundle_size: usize,
    /// Accumulated spanner work (edge examinations) across components, bounded by
    /// `O(t · m log n)` (Corollary 2).
    pub work: u64,
}

impl BundleResult {
    /// The bundle `H = Σ H_i` as a graph on the same vertex set.
    pub fn bundle_graph(&self, g: &Graph) -> Graph {
        let mut ids: Vec<EdgeId> = Vec::with_capacity(self.bundle_size);
        ids.extend(
            self.in_bundle
                .iter()
                .enumerate()
                .filter_map(|(id, &inb)| if inb { Some(id) } else { None }),
        );
        g.with_edge_ids(&ids)
    }

    /// Ids of the edges of `g` that are *not* in the bundle (the uniformly sampled set
    /// of Algorithm 1).
    pub fn off_bundle_ids(&self) -> Vec<EdgeId> {
        let mut ids: Vec<EdgeId> = Vec::with_capacity(self.off_bundle_count());
        ids.extend(
            self.in_bundle
                .iter()
                .enumerate()
                .filter_map(|(id, &inb)| if inb { None } else { Some(id) }),
        );
        ids
    }

    /// Number of edges outside the bundle.
    pub fn off_bundle_count(&self) -> usize {
        self.in_bundle.len() - self.bundle_size
    }
}

/// The seed of a bundle's `i`-th component: one schedule for every bundle builder.
pub fn component_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add((i as u64).wrapping_mul(0x9E3779B97F4A7C15))
}

/// Computes a t-bundle spanner of `g`.
///
/// Each component is a Baswana–Sen spanner of the graph formed by the edges not yet
/// assigned to earlier components. The construction stops early if the remaining graph
/// runs out of edges (every edge is then in the bundle, and the Lemma 1 certificate is
/// vacuously unnecessary).
pub fn t_bundle(g: &Graph, cfg: &BundleConfig) -> BundleResult {
    // One engine for the whole bundle: the CSR incidence is compacted in place as
    // components are peeled off, never rebuilt.
    let mut engine = SpannerEngine::from_graph(g);
    t_bundle_on_engine(&mut engine, cfg)
}

/// Computes a t-bundle on an engine that has already been pointed at the graph (via
/// [`SpannerEngine::from_graph`] / [`SpannerEngine::reset_from_graph`]).
///
/// This is the re-entrant entry used by batch pipelines: the engine's view/CSR/mask
/// allocations survive across calls, so repeated bundles over a stream of graphs stop
/// paying the `O(m)` setup allocation per call. The engine's view is consumed
/// (compacted) exactly as by [`t_bundle`]; results are byte-identical.
pub fn t_bundle_on_engine(engine: &mut SpannerEngine, cfg: &BundleConfig) -> BundleResult {
    let m = engine.m();
    let mut in_bundle = vec![false; m];
    // Every component consumes at least one edge, so at most `m` of the `t` requested
    // components can materialise — never preallocate by raw `t` (the paper sizing at
    // tiny ε resolves to astronomically large `t`).
    let mut components = Vec::with_capacity(cfg.t.min(m));
    let mut work = 0u64;

    for i in 0..cfg.t {
        if engine.is_empty() {
            break;
        }
        let mut spanner_cfg = cfg.spanner.clone();
        spanner_cfg.seed = component_seed(cfg.spanner.seed, i);
        let SpannerResult {
            edge_ids, work: w, ..
        } = engine.spanner(&spanner_cfg);
        work += w;
        for &id in &edge_ids {
            in_bundle[id] = true;
        }
        // Drop the edges that entered this component from the engine's view.
        engine.peel_spanner_edges();
        components.push(edge_ids);
    }

    let bundle_size = in_bundle.iter().filter(|&&b| b).count();
    BundleResult {
        components,
        in_bundle,
        bundle_size,
        work,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_graph::{connectivity::is_connected, generators, stretch};

    #[test]
    fn components_are_edge_disjoint() {
        let g = generators::erdos_renyi(120, 0.3, 1.0, 3);
        let b = t_bundle(&g, &BundleConfig::new(4).with_seed(1));
        let mut seen = vec![false; g.m()];
        for comp in &b.components {
            for &id in comp {
                assert!(!seen[id], "edge {id} appears in two components");
                seen[id] = true;
            }
        }
        let total: usize = b.components.iter().map(Vec::len).sum();
        assert_eq!(total, b.bundle_size);
        assert_eq!(b.off_bundle_count(), g.m() - b.bundle_size);
    }

    #[test]
    fn each_component_is_a_spanner_of_the_residual_graph() {
        let g = generators::complete(60, 1.0);
        let b = t_bundle(&g, &BundleConfig::new(3).with_seed(7));
        let bound = 2.0 * (60f64).log2().ceil() + 1e-9;
        // Residual graph before component i: edges not in components 0..i.
        let mut assigned = vec![false; g.m()];
        for comp in &b.components {
            let residual_ids: Vec<usize> = (0..g.m()).filter(|&id| !assigned[id]).collect();
            let residual = g.with_edge_ids(&residual_ids);
            // Map component edge ids into the residual graph's index space.
            let comp_graph = g.with_edge_ids(comp);
            if is_connected(&residual) {
                let s = stretch::max_stretch(&residual, &comp_graph);
                assert!(s <= bound, "component stretch {s} exceeds {bound}");
            }
            for &id in comp {
                assigned[id] = true;
            }
        }
    }

    #[test]
    fn bundle_size_scales_roughly_linearly_in_t() {
        let g = generators::erdos_renyi(200, 0.4, 1.0, 9);
        let b1 = t_bundle(&g, &BundleConfig::new(1).with_seed(5));
        let b4 = t_bundle(&g, &BundleConfig::new(4).with_seed(5));
        assert!(b4.bundle_size > b1.bundle_size);
        // Corollary 2: a t-bundle has O(t · n log n) edges in expectation. Check against
        // a generous constant rather than against the 1-bundle (later components are
        // built on sparser residual graphs and can individually be larger).
        let budget = (4.0 * 6.0 * 200.0 * (200f64).log2()) as usize;
        assert!(
            b4.bundle_size <= budget,
            "4-bundle ({}) exceeds the O(t n log n) budget ({budget})",
            b4.bundle_size
        );
    }

    #[test]
    fn huge_t_swallows_the_whole_graph() {
        let g = generators::grid2d(8, 8, 1.0);
        // A grid is sparse: a handful of components exhausts every edge.
        let b = t_bundle(&g, &BundleConfig::new(50).with_seed(2));
        assert_eq!(b.bundle_size, g.m());
        assert!(b.components.len() < 50, "construction should stop early");
        assert!(b.off_bundle_ids().is_empty());
    }

    #[test]
    fn off_bundle_ids_partition_the_edge_set() {
        let g = generators::erdos_renyi(100, 0.3, 1.0, 4);
        let b = t_bundle(&g, &BundleConfig::new(2).with_seed(11));
        let off = b.off_bundle_ids();
        assert_eq!(off.len() + b.bundle_size, g.m());
        for id in off {
            assert!(!b.in_bundle[id]);
        }
    }

    #[test]
    fn bundle_graph_contains_exactly_the_bundle_edges() {
        let g = generators::erdos_renyi(80, 0.25, 1.0, 21);
        let b = t_bundle(&g, &BundleConfig::new(3).with_seed(3));
        let bg = b.bundle_graph(&g);
        assert_eq!(bg.m(), b.bundle_size);
        assert_eq!(bg.n(), g.n());
    }

    #[test]
    fn zero_components_gives_empty_bundle() {
        let g = generators::complete(20, 1.0);
        let b = t_bundle(&g, &BundleConfig::new(0).with_seed(1));
        assert_eq!(b.bundle_size, 0);
        assert!(b.components.is_empty());
        assert_eq!(b.off_bundle_count(), g.m());
    }

    #[test]
    fn reused_engine_is_byte_identical_to_fresh_engine() {
        // A single engine reset across a sequence of different graphs must reproduce
        // exactly what a fresh engine per graph produces — this is the contract the
        // re-entrant sparsify path (`SparsifyEngine` / `sgs-stream`) relies on.
        let graphs = [
            generators::erdos_renyi(150, 0.2, 1.0, 3),
            generators::complete(50, 1.0),
            generators::grid2d(12, 12, 1.0),
            generators::erdos_renyi(200, 0.1, 1.0, 8),
        ];
        let cfg = BundleConfig::new(3).with_seed(17);
        let mut engine = crate::SpannerEngine::empty();
        for g in &graphs {
            engine.reset_from_graph(g);
            let reused = t_bundle_on_engine(&mut engine, &cfg);
            let fresh = t_bundle(g, &cfg);
            assert_eq!(reused.in_bundle, fresh.in_bundle);
            assert_eq!(reused.components, fresh.components);
            assert_eq!(reused.bundle_size, fresh.bundle_size);
            assert_eq!(reused.work, fresh.work);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::erdos_renyi(150, 0.2, 1.0, 8);
        let a = t_bundle(&g, &BundleConfig::new(3).with_seed(42));
        let b = t_bundle(&g, &BundleConfig::new(3).with_seed(42));
        assert_eq!(a.in_bundle, b.in_bundle);
    }

    #[test]
    fn bundle_size_and_off_bundle_count_are_consistent() {
        // Direct consistency check of the preallocated accessors: sizes reported by
        // `bundle_size`, `off_bundle_count`, `off_bundle_ids` and the mask must agree,
        // and the two id lists must partition 0..m.
        for (t, seed) in [(1usize, 5u64), (3, 5), (4, 77)] {
            let g = generators::erdos_renyi(90, 0.3, 1.0, 13);
            let b = t_bundle(&g, &BundleConfig::new(t).with_seed(seed));
            let mask_count = b.in_bundle.iter().filter(|&&x| x).count();
            assert_eq!(b.bundle_size, mask_count);
            assert_eq!(b.off_bundle_count(), g.m() - mask_count);
            let off = b.off_bundle_ids();
            assert_eq!(off.len(), b.off_bundle_count());
            // `with_capacity` guarantees *at least* the request; growth past it would
            // mean the up-front sizing was wrong.
            assert!(
                off.capacity() >= b.off_bundle_count(),
                "undersized prealloc"
            );
            let bg = b.bundle_graph(&g);
            assert_eq!(bg.m(), b.bundle_size);
            let mut all: Vec<usize> = off;
            all.extend((0..g.m()).filter(|&id| b.in_bundle[id]));
            all.sort_unstable();
            assert_eq!(all, (0..g.m()).collect::<Vec<_>>());
        }
    }
}
