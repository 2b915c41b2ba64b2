//! The Peng–Spielman approximate inverse chain with `PARALLELSPARSIFY` inside.
//!
//! For `M = D − A` (with `D = degrees + excess`, `A ≥ 0` the adjacency of the level's
//! graph) the identity
//!
//! ```text
//! (D − A)⁻¹ = ½ [ D⁻¹ + (I + D⁻¹ A)(D − A D⁻¹ A)⁻¹(I + A D⁻¹) ]
//! ```
//!
//! reduces a solve with `M` to a solve with `M̃ = D − A D⁻¹ A`. The graph of `M̃` is a
//! union of per-vertex cliques (every pair of neighbors of `v` becomes an edge of weight
//! `a_uv a_vw / d_v`); materialising those cliques would be quadratic in the degrees, so
//! high-degree cliques are replaced by sparse unbiased samples (the Corollary 6.4 step
//! of Peng–Spielman), and the result is then sparsified with `PARALLELSPARSIFY` — this
//! is precisely where Section 4 of the paper plugs its new sparsifier into the
//! framework. The recursion stops when the level is strongly diagonally dominant, where
//! a handful of Jacobi sweeps is an adequate (and linear, hence PCG-safe) base solver.
//!
//! Section 4 brings every level "back to its original size", and Remark 3 concedes
//! that the sparsifier only pays above an `n log n` threshold. The chain therefore
//! admits a level only if it has at most `m₀` edges, the input system's edge count. A
//! level that would cost more to apply than the system it replaces is dropped, and the
//! current level becomes the Jacobi base instead. Below the threshold (sparse grids,
//! images) the chain is the input alone and the preconditioner a Jacobi polynomial.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

use sgs_core::{parallel_sparsify, BundleSizing, SparsifyConfig};
use sgs_graph::{Graph, GraphBuilder};
use sgs_linalg::cg::Preconditioner;
use sgs_stream::{StreamOutput, StreamStats};

use crate::sdd::GroundedLaplacian;

/// Per-level sparsification accuracy (the paper sets `ε = 1/O(log κ)`; this is a
/// practical fixed value).
const LEVEL_EPSILON: f64 = 0.5;
/// Sparsification factor `ρ` used when a level grows too dense.
const LEVEL_RHO: f64 = 4.0;
/// Bundle sizing for the inner `PARALLELSPARSIFY` calls.
const LEVEL_BUNDLE: BundleSizing = BundleSizing::Fixed(3);
/// Maximum chain depth.
const MAX_LEVELS: usize = 25;
/// Stop recursing once `min(excess_i / degree_i)` exceeds this ratio (strong diagonal
/// dominance: Jacobi converges geometrically).
const DOMINANCE_STOP: f64 = 4.0;
/// Number of Jacobi sweeps used by the base-case solver.
const BASE_JACOBI_SWEEPS: usize = 12;
/// Degree above which a level-construction clique is sampled instead of built exactly.
const CLIQUE_SAMPLE_THRESHOLD: usize = 16;

/// Configuration for building an approximate inverse chain.
#[derive(Debug, Clone)]
pub struct ChainConfig {
    /// Seed for clique sampling and sparsification.
    pub seed: u64,
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig { seed: 0x50D5 }
    }
}

/// One level of the chain: the operator `M_i = L(graph) + diag(excess)`, stored with its
/// full diagonal for fast application.
#[derive(Debug, Clone)]
pub struct ChainLevel {
    /// The level's graph (off-diagonal part).
    pub graph: Graph,
    /// Diagonal excess of the level.
    pub excess: Vec<f64>,
    /// Cached full diagonal `degrees + excess`.
    pub diagonal: Vec<f64>,
}

impl ChainLevel {
    fn new(graph: Graph, excess: Vec<f64>) -> Self {
        let diagonal: Vec<f64> = graph
            .weighted_degrees()
            .iter()
            .zip(&excess)
            .map(|(d, e)| d + e)
            .collect();
        ChainLevel {
            graph,
            excess,
            diagonal,
        }
    }

    /// Adjacency application: overwrites `y` with `A x` (off-diagonal only, positive
    /// weights).
    pub fn adjacency_apply_in(&self, x: &[f64], y: &mut [f64]) {
        y.fill(0.0);
        for e in self.graph.edges() {
            y[e.u] += e.w * x[e.v];
            y[e.v] += e.w * x[e.u];
        }
    }

    /// Ratio `min_v excess_v / degree_v` (∞ when the graph has no edges); the dominance
    /// measure that terminates the chain.
    fn dominance(&self) -> f64 {
        let deg = self.graph.weighted_degrees();
        let mut worst = f64::INFINITY;
        for (d, e) in deg.iter().zip(&self.excess) {
            if *d > 0.0 {
                worst = worst.min(e / d);
            }
        }
        worst
    }
}

/// Why [`Chain::build`] stopped adding levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainStop {
    /// The last level is strongly diagonally dominant (`DOMINANCE_STOP` reached).
    Dominance,
    /// The next level had this many edges, more than the input system, so it was
    /// dropped and the last level became the base.
    Oversize(usize),
    /// The last level has no edges.
    Empty,
    /// The chain reached `MAX_LEVELS` levels.
    MaxLevels,
}

impl ChainStop {
    /// The reason's name, as the `chain.stop` event reports it.
    pub fn as_str(self) -> &'static str {
        match self {
            ChainStop::Dominance => "dominance",
            ChainStop::Oversize(_) => "oversize",
            ChainStop::Empty => "empty",
            ChainStop::MaxLevels => "max_levels",
        }
    }

    /// Edge count of the dropped level (0 when no level was dropped).
    pub fn rejected_m(self) -> usize {
        match self {
            ChainStop::Oversize(m) => m,
            _ => 0,
        }
    }
}

/// The approximate inverse chain `{M₁, …, M_d}`.
#[derive(Debug, Clone)]
pub struct Chain {
    levels: Vec<ChainLevel>,
    stop: ChainStop,
}

impl Chain {
    /// Builds the chain for a grounded Laplacian. Every level has at most as many
    /// edges as the system itself.
    pub fn build(system: &GroundedLaplacian, config: &ChainConfig) -> Self {
        let build_span = sgs_obs::span!("chain.build", n = system.n());
        let mut levels = Vec::new();
        let mut current = ChainLevel::new(system.graph().clone(), system.excess().to_vec());
        let (n, m0) = (system.n(), system.m());
        let target_edges = (2.0 * n as f64 * (n.max(2) as f64).log2()).ceil() as usize;
        let stop = loop {
            let level_idx = levels.len();
            if current.graph.m() == 0 {
                break ChainStop::Empty;
            }
            if current.dominance() >= DOMINANCE_STOP {
                break ChainStop::Dominance;
            }
            if level_idx + 1 >= MAX_LEVELS {
                break ChainStop::MaxLevels;
            }
            let next = build_next_level(&current, config, level_idx, target_edges);
            if next.graph.m() > m0 {
                break ChainStop::Oversize(next.graph.m());
            }
            levels.push(std::mem::replace(&mut current, next));
        };
        levels.push(current);
        for (idx, level) in levels.iter().enumerate() {
            sgs_obs::point!(
                "chain.level",
                level = idx,
                n = level.graph.n(),
                m = level.graph.m(),
            );
        }
        sgs_obs::point!(
            "chain.stop",
            reason = stop.as_str(),
            depth = levels.len(),
            rejected_m = stop.rejected_m(),
        );
        drop(build_span);
        Chain { levels, stop }
    }

    /// Why the build stopped adding levels.
    pub fn stop(&self) -> ChainStop {
        self.stop
    }

    /// Number of levels in the chain.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The levels of the chain.
    pub fn levels(&self) -> &[ChainLevel] {
        &self.levels
    }

    /// Total number of edges stored across all levels (the chain-size quantity that
    /// Theorem 6 bounds).
    pub fn total_edges(&self) -> usize {
        self.levels.iter().map(|l| l.graph.m()).sum()
    }

    /// Applies the approximate inverse of the top-level operator to `b`, writing the
    /// result into `out` and reusing the buffers of `scratch` (grown on first use, then
    /// stable).
    pub fn apply_inverse_in(&self, b: &[f64], out: &mut [f64], scratch: &mut ChainScratch) {
        let n = self.levels[0].graph.n();
        assert_eq!(b.len(), n, "right-hand side has wrong dimension");
        assert_eq!(out.len(), n, "output buffer has wrong dimension");
        scratch.prepare(self.levels.len(), n);
        self.apply_inverse_rec(0, b, out, &mut scratch.levels);
    }

    fn apply_inverse_rec(&self, level: usize, b: &[f64], out: &mut [f64], bufs: &mut [LevelBufs]) {
        let lvl = &self.levels[level];
        let (mine, rest) = bufs
            .split_first_mut()
            .expect("scratch shallower than chain");
        if level + 1 == self.levels.len() {
            jacobi_sweeps_in(lvl, b, BASE_JACOBI_SWEEPS, out, &mut mine.tmp);
            return;
        }
        // x = 1/2 [ D^{-1} b + (I + D^{-1} A) M̃^{-1} (I + A D^{-1}) b ], with the
        // inner solve's result z landing directly in `out` (one shared buffer for the
        // whole recursion) and `tmp` serving as both A·D⁻¹b and A·z.
        for ((di, bi), d) in mine.din.iter_mut().zip(b).zip(&lvl.diagonal) {
            *di = bi / d;
        }
        lvl.adjacency_apply_in(&mine.din, &mut mine.tmp);
        for ((yi, bi), ai) in mine.rhs.iter_mut().zip(b).zip(&mine.tmp) {
            *yi = bi + ai;
        }
        self.apply_inverse_rec(level + 1, &mine.rhs, out, rest);
        lvl.adjacency_apply_in(out, &mut mine.tmp);
        for ((zi, di_b), (azi, d)) in out
            .iter_mut()
            .zip(&mine.din)
            .zip(mine.tmp.iter().zip(&lvl.diagonal))
        {
            let x2 = *zi + azi / d;
            *zi = 0.5 * (di_b + x2);
        }
    }

    /// A reusable, lock-guarded preconditioner view over this chain: each
    /// [`Preconditioner::apply`] call runs [`apply_inverse_in`](Self::apply_inverse_in)
    /// against one persistent [`ChainScratch`], so the PCG outer loop performs no
    /// per-iteration allocation.
    pub fn preconditioner(&self) -> ChainPreconditioner<'_> {
        ChainPreconditioner {
            chain: self,
            scratch: Mutex::new(ChainScratch::default()),
            applies: AtomicU64::new(0),
        }
    }

    /// Builds a chain (and the grounded system it preconditions) **directly from a
    /// streaming run's output** — the out-of-core path: the original graph, which may
    /// be arbitrarily larger than RAM, is never materialised; only its sparsifier
    /// (already resident, `O(n log n)` edges) is grounded and chained.
    pub fn build_from_stream(output: StreamOutput, config: &ChainConfig) -> StreamChain {
        let StreamOutput { sparsifier, stats } = output;
        let system = GroundedLaplacian::from_graph(sparsifier);
        let chain = Chain::build(&system, config);
        StreamChain {
            chain,
            system,
            stream_stats: stats,
        }
    }
}

/// Per-level workspace for [`Chain::apply_inverse_in`]. One `d_inv_b`/`tmp`/`rhs`
/// triple per level; the solution itself lives in the caller's `out` buffer, shared by
/// the whole recursion.
#[derive(Debug, Default)]
struct LevelBufs {
    din: Vec<f64>,
    tmp: Vec<f64>,
    rhs: Vec<f64>,
}

/// Reusable buffers for [`Chain::apply_inverse_in`]: three n-vectors per chain level,
/// grown on first use and reused verbatim afterwards.
#[derive(Debug, Default)]
pub struct ChainScratch {
    levels: Vec<LevelBufs>,
}

impl ChainScratch {
    /// An empty scratch; buffers are sized on the first
    /// [`Chain::apply_inverse_in`] call.
    pub fn new() -> Self {
        Self::default()
    }

    fn prepare(&mut self, depth: usize, n: usize) {
        if self.levels.len() < depth {
            self.levels.resize_with(depth, LevelBufs::default);
        }
        for bufs in &mut self.levels[..depth] {
            bufs.din.resize(n, 0.0);
            bufs.tmp.resize(n, 0.0);
            bufs.rhs.resize(n, 0.0);
        }
    }
}

/// A [`Preconditioner`] over a [`Chain`] that owns a persistent [`ChainScratch`]
/// behind a mutex, making every application allocation-free after the first. Built via
/// [`Chain::preconditioner`].
#[derive(Debug)]
pub struct ChainPreconditioner<'a> {
    chain: &'a Chain,
    scratch: Mutex<ChainScratch>,
    applies: AtomicU64,
}

impl ChainPreconditioner<'_> {
    /// Number of chain applications performed through this view so far (one per
    /// PCG preconditioner application).
    pub fn applies(&self) -> u64 {
        self.applies.load(Ordering::Relaxed)
    }
}

impl Preconditioner for ChainPreconditioner<'_> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.applies.fetch_add(1, Ordering::Relaxed);
        let mut scratch = self.scratch.lock().expect("chain scratch lock poisoned");
        self.chain.apply_inverse_in(r, z, &mut scratch);
    }
}

/// A chain built from a streaming sparsifier run: the grounded system (of the
/// *sparsifier*, the only graph ever resident), its approximate inverse chain, and the
/// spill/accuracy ledger the stream carried. Produced by [`Chain::build_from_stream`].
#[derive(Debug)]
pub struct StreamChain {
    /// The approximate inverse chain over the sparsifier's grounded Laplacian.
    pub chain: Chain,
    /// The grounded system the chain preconditions.
    pub system: GroundedLaplacian,
    /// Accounting of the streaming run that produced the sparsifier (peak resident
    /// bytes, spill ledger, ε spent).
    pub stream_stats: StreamStats,
}

/// A fixed number of Jacobi sweeps for `M x = b`, writing the iterate into `x` and
/// using `ax` as the adjacency scratch. A linear operator in `b`, which makes it safe to
/// use inside a (non-flexible) PCG iteration.
fn jacobi_sweeps_in(level: &ChainLevel, b: &[f64], sweeps: usize, x: &mut [f64], ax: &mut [f64]) {
    for ((xi, bi), di) in x.iter_mut().zip(b).zip(&level.diagonal) {
        *xi = bi / di;
    }
    for _ in 0..sweeps {
        // x ← D⁻¹ (b + A x)
        level.adjacency_apply_in(x, ax);
        for i in 0..x.len() {
            x[i] = (b[i] + ax[i]) / level.diagonal[i];
        }
    }
}

/// Builds level `i + 1` from level `i`: the two-hop graph of `M̃ = D − A D⁻¹ A`
/// (cliques, sampled above the degree threshold), its diagonal excess, and a
/// `PARALLELSPARSIFY` pass when the graph grows beyond the target size.
fn build_next_level(
    level: &ChainLevel,
    config: &ChainConfig,
    level_idx: usize,
    target_edges: usize,
) -> ChainLevel {
    let n = level.graph.n();
    let adj = level.graph.adjacency();
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(level_idx as u64 * 0xC11A));
    let mut builder = GraphBuilder::new(n);

    for v in 0..n {
        let neighbors = adj.neighbors(v);
        let deg = neighbors.len();
        if deg < 2 {
            continue;
        }
        let dv = level.diagonal[v];
        if deg <= CLIQUE_SAMPLE_THRESHOLD {
            // Exact clique.
            for i in 0..deg {
                for j in (i + 1)..deg {
                    let (a, b) = (&neighbors[i], &neighbors[j]);
                    if a.node == b.node {
                        continue;
                    }
                    let w = a.weight * b.weight / dv;
                    if w > 0.0 {
                        let _ = builder.add(a.node, b.node, w);
                    }
                }
            }
        } else {
            // Sparse unbiased approximation of the clique: sample endpoint pairs with
            // probability proportional to their weights and spread the clique's total
            // weight uniformly over the accepted samples.
            let total_w: f64 = neighbors.iter().map(|nb| nb.weight).sum();
            let sum_sq: f64 = neighbors.iter().map(|nb| nb.weight * nb.weight).sum();
            let clique_weight = (total_w * total_w - sum_sq) / (2.0 * dv);
            if clique_weight <= 0.0 {
                continue;
            }
            let samples = ((deg as f64) * (deg as f64).log2().max(1.0) * 2.0).ceil() as usize;
            // Cumulative distribution over neighbors, proportional to weight.
            let mut cumulative = Vec::with_capacity(deg);
            let mut acc = 0.0;
            for nb in neighbors {
                acc += nb.weight;
                cumulative.push(acc);
            }
            let draw = |rng: &mut ChaCha8Rng| -> usize {
                let x = rng.gen_range(0.0..acc);
                cumulative.partition_point(|&c| c < x).min(deg - 1)
            };
            let mut accepted = Vec::with_capacity(samples);
            for _ in 0..samples {
                let i = draw(&mut rng);
                let j = draw(&mut rng);
                if i != j && neighbors[i].node != neighbors[j].node {
                    accepted.push((neighbors[i].node, neighbors[j].node));
                }
            }
            if accepted.is_empty() {
                continue;
            }
            let w_each = clique_weight / accepted.len() as f64;
            for (a, b) in accepted {
                let _ = builder.add(a, b, w_each);
            }
        }
    }
    let two_hop = builder.build();

    // Exact diagonal excess of M̃: excess_u = D_u − Σ_v a_uv (Σ_w a_vw) / D_v.
    let a_row_sums = level.graph.weighted_degrees();
    let ratio: Vec<f64> = a_row_sums
        .iter()
        .zip(&level.diagonal)
        .map(|(s, d)| if *d > 0.0 { s / d } else { 0.0 })
        .collect();
    let mut a_ratio = vec![0.0; n];
    level.adjacency_apply_in(&ratio, &mut a_ratio);
    let excess: Vec<f64> = level
        .diagonal
        .iter()
        .zip(&a_ratio)
        .map(|(d, ar)| (d - ar).max(0.0))
        .collect();

    // Sparsify the two-hop graph when it exceeds the target size (the Section 4 step:
    // "bring the graph back to its original size" using Theorem 5).
    let graph = if two_hop.m() > target_edges {
        let cfg = SparsifyConfig::new(LEVEL_EPSILON, LEVEL_RHO)
            .with_bundle_sizing(LEVEL_BUNDLE)
            .with_seed(config.seed.wrapping_add(0xF00D + level_idx as u64));
        parallel_sparsify(&two_hop, &cfg).sparsifier
    } else {
        two_hop
    };

    ChainLevel::new(graph, excess)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::{SddSolver, SolverConfig};
    use sgs_graph::generators;
    use sgs_linalg::vector;

    fn build(g: Graph) -> Chain {
        Chain::build(&GroundedLaplacian::from_graph(g), &ChainConfig::default())
    }

    /// `chain.apply_inverse_in` into a fresh output and a fresh scratch.
    fn apply_fresh(chain: &Chain, b: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; b.len()];
        chain.apply_inverse_in(b, &mut out, &mut ChainScratch::new());
        out
    }

    #[test]
    fn two_hop_level_has_nonnegative_excess_and_more_dominance() {
        let chain = build(generators::erdos_renyi(200, 0.3, 1.0, 9));
        assert!(chain.depth() >= 2, "want a recursive chain");
        for level in chain.levels() {
            assert!(level.excess.iter().all(|&e| e >= 0.0));
        }
        let d0 = chain.levels()[0].dominance();
        let dl = chain.levels()[chain.depth() - 1].dominance();
        assert!(
            dl >= d0,
            "dominance should not decrease along the chain: {d0} -> {dl}"
        );
    }

    #[test]
    fn apply_inverse_is_a_positive_definite_preconditioner() {
        // PCG requires the preconditioner to be a symmetric positive-definite linear
        // map; we check positivity of bᵀ P b on a batch of right-hand sides and that the
        // map is linear (it is built only from linear operations).
        let g = generators::erdos_renyi(200, 0.3, 1.0, 9);
        let system = GroundedLaplacian::from_graph(g);
        let chain = Chain::build(&system, &ChainConfig::default());
        assert!(chain.depth() >= 2, "want a recursive chain");
        let n = system.n();
        for seed in 0..5u64 {
            let b = vector::random_unit_orthogonal(n, seed);
            let x = apply_fresh(&chain, &b);
            assert!(x.iter().all(|v| v.is_finite()));
            let btx = vector::dot(&b, &x);
            assert!(
                btx > 0.0,
                "preconditioner must be positive definite, got {btx}"
            );
        }
        // Linearity: P(2a - b) = 2 P(a) - P(b).
        let a = vector::random_unit_orthogonal(n, 101);
        let b = vector::random_unit_orthogonal(n, 102);
        let combo: Vec<f64> = a.iter().zip(&b).map(|(x, y)| 2.0 * x - y).collect();
        let pa = apply_fresh(&chain, &a);
        let pb = apply_fresh(&chain, &b);
        let pc = apply_fresh(&chain, &combo);
        for i in 0..n {
            let lin = 2.0 * pa[i] - pb[i];
            assert!((pc[i] - lin).abs() < 1e-9 * (1.0 + lin.abs()));
        }
    }

    #[test]
    fn reused_scratch_and_preconditioner_match_a_fresh_scratch_bitwise() {
        // One scratch reused across
        // right-hand sides must leave no stale buffer behind, and the mutex-guarded
        // preconditioner view — the path PCG runs — must give the same bits.
        let g = generators::erdos_renyi(200, 0.3, 1.0, 9);
        let system = GroundedLaplacian::from_graph(g);
        let chain = Chain::build(&system, &ChainConfig::default());
        assert_eq!(chain.depth(), 9, "want the recursive chain of this input");
        let n = system.n();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut scratch = ChainScratch::new();
        let mut out = vec![0.0; n];
        for seed in 0..4u64 {
            let b = vector::random_unit_orthogonal(n, seed);
            chain.apply_inverse_in(&b, &mut out, &mut scratch);
            assert_eq!(bits(&out), bits(&apply_fresh(&chain, &b)), "seed {seed}");
        }
        let pre = chain.preconditioner();
        let b = vector::random_unit_orthogonal(n, 9);
        let mut z = vec![0.0; n];
        pre.apply(&b, &mut z);
        assert_eq!(bits(&z), bits(&apply_fresh(&chain, &b)));
    }

    #[test]
    fn jacobi_base_case_is_linear() {
        let g = generators::path(30, 1.0);
        let excess = vec![3.0; 30]; // strongly dominant
        let level = ChainLevel::new(g, excess);
        let sweeps = |b: &[f64]| {
            let (mut x, mut ax) = (vec![0.0; 30], vec![0.0; 30]);
            jacobi_sweeps_in(&level, b, 8, &mut x, &mut ax);
            x
        };
        let b1: Vec<f64> = (0..30).map(|i| (i as f64).sin()).collect();
        let b2: Vec<f64> = (0..30).map(|i| (i as f64 * 0.3).cos()).collect();
        let x1 = sweeps(&b1);
        let x2 = sweeps(&b2);
        let combined: Vec<f64> = b1.iter().zip(&b2).map(|(a, b)| 2.0 * a - 0.5 * b).collect();
        let x_combined = sweeps(&combined);
        for i in 0..30 {
            let lin = 2.0 * x1[i] - 0.5 * x2[i];
            assert!(
                (x_combined[i] - lin).abs() < 1e-10,
                "Jacobi base case must be linear"
            );
        }
    }

    #[test]
    fn build_from_stream_matches_building_from_the_sparsifier() {
        use sgs_stream::StreamConfig;
        use sgs_stream::StreamSparsifier;
        let g = generators::erdos_renyi(150, 0.2, 1.0, 13);
        let cfg = StreamConfig::new(0.5, g.m() / 2).with_seed(3);
        let mut s = StreamSparsifier::new(g.n(), cfg);
        s.ingest_batch(g.edges()).unwrap();
        let output = s.finish();
        let expect_edges = output.sparsifier.edges().to_vec();
        let chain_cfg = ChainConfig::default();
        let direct = {
            let system = GroundedLaplacian::from_graph(output.sparsifier.clone());
            Chain::build(&system, &chain_cfg)
        };
        let streamed = Chain::build_from_stream(output, &chain_cfg);
        assert_eq!(streamed.system.graph().edges(), &expect_edges[..]);
        assert_eq!(streamed.chain.depth(), direct.depth());
        assert_eq!(streamed.chain.total_edges(), direct.total_edges());
        assert!(streamed.stream_stats.edges_ingested > 0);
    }

    #[test]
    fn strongly_dominant_systems_terminate_immediately() {
        let g = generators::cycle(20, 1.0);
        let excess = vec![10.0; 20];
        let system = GroundedLaplacian::from_graph_with_excess(g, excess);
        let chain = Chain::build(&system, &ChainConfig::default());
        assert_eq!(chain.depth(), 1);
        assert_eq!(chain.stop(), ChainStop::Dominance);
    }

    #[test]
    fn dense_levels_are_sparsified() {
        // A dense input: the two-hop graph would be denser still, and PARALLELSPARSIFY
        // brings every level back below the input's size. The size rule therefore
        // rejects nothing: depth and size are those of the chain without the rule.
        let g = generators::erdos_renyi(200, 0.3, 1.0, 9);
        let m_in = g.m();
        let chain = build(g);
        for (i, level) in chain.levels().iter().enumerate().skip(1) {
            assert!(
                level.graph.m() <= m_in,
                "level {i} blew up: {} edges vs input {m_in}",
                level.graph.m()
            );
        }
        assert_eq!(chain.depth(), 9);
        assert_eq!(chain.total_edges(), 37_278);
        assert_eq!(chain.stop(), ChainStop::Dominance);
    }

    #[test]
    fn image_inputs_stop_at_the_input_and_still_converge() {
        // The exact two-hop graph of a 4-neighbour image grid has about twice its
        // edges, so the chain is the input alone: a Jacobi polynomial preconditioner.
        let g = generators::image_affinity_grid(16, 16, 80.0, 7);
        let m0 = g.m();
        let solver = SddSolver::for_laplacian(g, SolverConfig::default());
        let chain = solver.chain().expect("chain");
        assert_eq!(chain.depth(), 1);
        assert_eq!(chain.total_edges(), m0);
        assert!(matches!(chain.stop(), ChainStop::Oversize(rejected_m) if rejected_m > m0));
        let n = solver.system().n();
        let b = vector::random_unit_orthogonal(n, 5);
        let out = solver.solve(&b);
        assert!(out.converged, "residual {}", out.relative_residual);
        assert!(out.relative_residual <= 1e-8);
    }

    #[test]
    fn paths_keep_a_recursive_chain() {
        // The two-hop graph of a path is a shorter path, so no level is ever rejected.
        let chain = build(generators::path(400, 1.0));
        assert!(chain.depth() >= 3, "depth {}", chain.depth());
        assert_eq!(chain.stop().rejected_m(), 0);
    }

    #[test]
    fn chain_has_bounded_depth_and_size() {
        // A small random graph, then sparse and dense random graphs, a grid and a
        // power law. No admitted level is larger than the input.
        let families = [
            generators::erdos_renyi(300, 0.1, 1.0, 3),
            generators::erdos_renyi(1000, 20.0 / 999.0, 1.0, 31),
            generators::erdos_renyi(1000, 60.0 / 999.0, 1.0, 31),
            generators::grid2d(40, 40, 1.0),
            generators::preferential_attachment(1000, 10, 1.0, 31),
        ];
        for g in families {
            let m0 = g.m();
            let chain = build(g);
            assert!((1..=25).contains(&chain.depth()));
            assert!(chain.total_edges() > 0);
            for (i, level) in chain.levels().iter().enumerate() {
                assert!(
                    level.graph.m() <= m0,
                    "level {i} has {} edges, input {m0}",
                    level.graph.m()
                );
            }
        }
    }
}
