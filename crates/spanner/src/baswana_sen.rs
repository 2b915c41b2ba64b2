//! The Baswana–Sen randomized spanner construction.
//!
//! Reference: S. Baswana and S. Sen, *A simple and linear time randomized algorithm for
//! computing sparse spanners in weighted graphs*, Random Structures & Algorithms 2007
//! (reference \[1\] of the paper). The algorithm computes a `(2k − 1)`-spanner with
//! `O(k · n^{1 + 1/k})` edges in expectation via `k − 1` rounds of randomized cluster
//! growing followed by a vertex–cluster joining phase.
//!
//! With `k = ⌈log₂ n⌉` the expected size is `O(n log n)` and the stretch is below
//! `2 log₂ n`, which is exactly the "spanner" object of the paper (Theorem 1). The
//! per-vertex decisions inside one round depend only on the previous round's clustering
//! and on each vertex's own incident edges, so they parallelise trivially — this is the
//! CRCW PRAM adaptation the paper leans on (Corollary 2), realised here with rayon.
//!
//! # Engine design (allocation-free hot path)
//!
//! The round logic (grouping, the decision rule, the join and the retire pass) is the
//! kernel in [`crate::round`], which the CONGEST protocol of `sgs-distributed` runs
//! too; the two engines differ only in the kernel's `SlotLookup`. This engine's lookup
//! reads the round-state arrays: the centers, the sampled flags and one `alive` flag
//! per edge. Around the kernel:
//!
//! * **Slot rows** ([`ViewCsr`]): one `offsets` array plus one [`Slot`] array,
//!   `{ nbr: u32, idx: u32, w: f64 }` (16 bytes) per incidence, built once per view
//!   (counting sort), so a row walk reads neighbour and weight in sequence and never
//!   loads the edge itself. The engine keeps only the `u32` original id per view edge
//!   beside it. The t-bundle construction *compacts* the rows in place as edges are
//!   peeled into components, so the structure is built once per bundle, not once per
//!   component.
//! * **Live prefix**: each vertex's row keeps the slots of its still-alive edges in a
//!   prefix of length `live[v]`. The decide pass and the join walk only that prefix,
//!   with no per-edge aliveness test. After each commit the kernel's block-parallel
//!   *retire pass* (the `spanner.sweep` span) swaps out of every prefix the slots
//!   whose edge was killed or whose endpoints now share a cluster, with no
//!   data-dependent branch; both tests are symmetric, so an edge leaves its two rows
//!   together. A round thus costs about the number of live edges, not the number of
//!   edges. The swaps leave rows unordered, so the decision breaks weight ties
//!   explicitly by lowest view index.
//! * **Join edge first**: a vertex with a sampled neighbour cluster finds its join
//!   edge in one pass over its prefix and groups only the clusters lighter than that
//!   edge, usually none; only a vertex that leaves the clustering groups its whole
//!   prefix.
//! * **Flat decision batches**: vertices are processed in contiguous blocks cut by
//!   the density-aware [`BlockPartition`](crate::partition) (edge-load balanced, a few
//!   blocks per thread, 64-vertex floor), each with one cluster-stamped grouping
//!   scratch per worker (for the lighter clusters, leaving vertices and the join),
//!   and each block emits compact per-vertex records plus flat add and kill id lists.
//! * **Parallel commit**: every decision reads round-start state only, and its writes
//!   are order-invariant — adds only set `in_spanner`, kills only clear `alive`, and
//!   each decided vertex writes only its own center. The flag writes therefore run
//!   concurrently through relaxed-atomic views ([`crate::atomic`]), and the final state
//!   is identical under any interleaving — the CRCW "common write" model of
//!   Corollary 2.
//!
//! The outputs (edge ids, round count, and the `work` counter) are byte-for-byte
//! identical to the original `BTreeMap`-based implementation — `work` still counts the
//! full row of each decided or joined vertex and one examination per alive edge in
//! the sweep; `tests/golden_spanner.rs` pins that equivalence against pre-rewrite
//! fixtures, and `tests/parallelism.rs` pins it across pool widths. Each phase runs
//! inside an `sgs-obs` span (`spanner.decide` / `apply` / `sweep` / `join`, plus
//! `spanner.view` for the CSR build and `spanner.peel` for the bundle compaction), so a
//! traced run shows where the wall clock went and the scaling experiments can prove
//! the apply phase is no longer a serial section.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

use sgs_graph::{EdgeId, Graph, NodeId};

use crate::partition::BlockPartition;
use crate::round::{self, resolve_k, Decision, GroupScratch, RoundBatch, SlotLookup, NO_CLUSTER};

/// Configuration for the Baswana–Sen construction.
#[derive(Debug, Clone)]
pub struct SpannerConfig {
    /// Stretch parameter `k`; the spanner has stretch `2k − 1`. Defaults to
    /// `⌈log₂ n⌉` when `None`, matching the paper's `log n`-spanner.
    pub k: Option<usize>,
    /// RNG seed; cluster sampling is the only source of randomness.
    pub seed: u64,
}

impl Default for SpannerConfig {
    fn default() -> Self {
        SpannerConfig {
            k: None,
            seed: 0xBA5EBA11,
        }
    }
}

impl SpannerConfig {
    /// Config with an explicit seed.
    pub fn with_seed(seed: u64) -> Self {
        SpannerConfig {
            seed,
            ..Default::default()
        }
    }

    /// Overrides the stretch parameter `k`.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = Some(k);
        self
    }
}

/// Result of a spanner construction.
#[derive(Debug, Clone)]
pub struct SpannerResult {
    /// Ids (into the input graph / edge view) of the edges kept in the spanner,
    /// deduplicated and sorted.
    pub edge_ids: Vec<EdgeId>,
    /// Number of clustering rounds executed (`k − 1` plus the joining phase).
    pub rounds: usize,
    /// Work counter: total number of edge examinations across all rounds, bounded by
    /// `O(m log n)` (Theorem 1; asserted in `tests/theorems.rs`).
    pub work: u64,
}

impl SpannerResult {
    /// Materialises the spanner as a graph over the same vertex set as `g`.
    pub fn to_graph(&self, g: &Graph) -> Graph {
        g.with_edge_ids(&self.edge_ids)
    }
}

/// A lightweight edge view: `(original id, u, v, w)`, the input of
/// [`baswana_sen_on_view`] and [`SpannerEngine::new`].
pub type EdgeView = (EdgeId, NodeId, NodeId, f64);

/// One incidence of a [`ViewCsr`] row: the neighbour across the edge, the edge's view
/// index and its weight, so a row walk never loads the edge itself.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Slot {
    /// The other endpoint of the edge.
    pub nbr: u32,
    /// The edge's index in the view the CSR was built over.
    pub idx: u32,
    /// The edge's weight.
    pub w: f64,
}

/// Flat CSR incidence over an edge view: `slots[offsets[v]..offsets[v+1]]` are the
/// edges incident to vertex `v`, one [`Slot`] per incidence.
///
/// Edge indices are `u32`; views are capped at `u32::MAX / 2` edges (every edge has
/// two slots), which `build` asserts. Views carry no self-loops (the [`Graph`]
/// invariant), so every slot's `nbr` differs from its row's vertex.
#[derive(Debug, Clone, Default)]
pub struct ViewCsr {
    pub(crate) offsets: Vec<u32>,
    pub(crate) slots: Vec<Slot>,
    /// Scratch for the counting-sort write cursors, kept so [`ViewCsr::rebuild`] is
    /// allocation-free in steady state (batch engines rebuild the same CSR per batch).
    cursor: Vec<u32>,
}

impl ViewCsr {
    /// Builds the incidence structure with a two-pass counting sort over the view's
    /// `(u, v, w)` edges; an edge's view index is its position in `edges`.
    pub fn build<I>(n: usize, edges: I) -> ViewCsr
    where
        I: IntoIterator<Item = (NodeId, NodeId, f64)>,
        I::IntoIter: Clone,
    {
        let mut csr = ViewCsr::default();
        csr.rebuild(n, edges);
        csr
    }

    /// Rebuilds the incidence structure in place over a new view, reusing the existing
    /// `offsets`/`slots`/`cursor` allocations. Semantically identical to
    /// [`ViewCsr::build`]; the re-entrant sparsify engine calls this once per batch
    /// instead of allocating three fresh vectors.
    pub fn rebuild<I>(&mut self, n: usize, edges: I)
    where
        I: IntoIterator<Item = (NodeId, NodeId, f64)>,
        I::IntoIter: Clone,
    {
        let edges = edges.into_iter();
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        let mut m = 0usize;
        for (u, v, _) in edges.clone() {
            debug_assert_ne!(u, v, "self-loop in an edge view");
            self.offsets[u + 1] += 1;
            self.offsets[v + 1] += 1;
            m += 1;
        }
        assert!(
            m <= (u32::MAX / 2) as usize,
            "edge view too large for u32 CSR indices"
        );
        for i in 0..n {
            self.offsets[i + 1] += self.offsets[i];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.offsets[..n]);
        self.slots.clear();
        self.slots.resize(2 * m, Slot::default());
        for (idx, (u, v, w)) in edges.enumerate() {
            let idx = idx as u32;
            self.slots[self.cursor[u] as usize] = Slot {
                nbr: v as u32,
                idx,
                w,
            };
            self.cursor[u] += 1;
            self.slots[self.cursor[v] as usize] = Slot {
                nbr: u as u32,
                idx,
                w,
            };
            self.cursor[v] += 1;
        }
    }

    /// The incident edges of `v`. A fresh build lists them by ascending view index;
    /// a spanner run reorders rows (its retire pass swaps dead slots out), so
    /// callers that run the spanner must not rely on the order.
    #[inline]
    pub fn row(&self, v: NodeId) -> &[Slot] {
        &self.slots[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Removes every edge for which `remap[idx] == u32::MAX` and renumbers the
    /// survivors, compacting `offsets`/`slots` in place with a single left-to-right
    /// sweep (the write cursor never passes the read cursor). Each row keeps the order
    /// its survivors had.
    fn compact(&mut self, remap: &[u32]) {
        let n = self.n();
        let mut cursor = 0usize;
        let mut row_start = self.offsets[0] as usize;
        for v in 0..n {
            let row_end = self.offsets[v + 1] as usize;
            self.offsets[v] = cursor as u32;
            for i in row_start..row_end {
                let slot = self.slots[i];
                let new_idx = remap[slot.idx as usize];
                if new_idx != u32::MAX {
                    self.slots[cursor] = Slot {
                        idx: new_idx,
                        ..slot
                    };
                    cursor += 1;
                }
            }
            row_start = row_end;
        }
        self.offsets[n] = cursor as u32;
        self.slots.truncate(cursor);
    }
}

/// Reusable per-run state; the t-bundle engine keeps one instance alive across
/// components so the masks and center arrays are allocated once per bundle.
#[derive(Debug, Default)]
struct EngineState {
    center: Vec<u32>,
    /// Per vertex, the length of the live prefix of its CSR row: the slots of the
    /// edges still alive at the start of the round.
    live: Vec<u32>,
    /// Per edge, cleared when a decision kills it; the retire pass then drops its
    /// slots. Edges retired as intra-cluster keep their flag: no live prefix holds
    /// them any more, so it is never read again.
    alive: Vec<bool>,
    in_spanner: Vec<bool>,
    sampled: Vec<bool>,
    /// Old-index → new-index map used by [`SpannerEngine::peel_spanner_edges`].
    remap: Vec<u32>,
}

impl EngineState {
    fn reset(&mut self, csr: &ViewCsr, m: usize) {
        let n = csr.n();
        self.center.clear();
        self.center.extend(0..n as u32);
        self.live.clear();
        self.live
            .extend(csr.offsets.windows(2).map(|pair| pair[1] - pair[0]));
        self.alive.clear();
        self.alive.resize(m, true);
        self.in_spanner.clear();
        self.in_spanner.resize(m, false);
        self.sampled.clear();
        self.sampled.resize(n, false);
    }
}

/// The shared-memory [`SlotLookup`]: the round-state arrays, one alive flag per edge.
#[derive(Clone, Copy)]
struct Arrays<'a> {
    center: &'a [u32],
    sampled: &'a [bool],
    alive: &'a [bool],
}

impl SlotLookup for Arrays<'_> {
    #[inline]
    fn center(&self, _v: NodeId, s: &Slot) -> u32 {
        self.center[s.nbr as usize]
    }

    #[inline]
    fn sampled(&self, _v: NodeId, s: &Slot) -> bool {
        let c = self.center[s.nbr as usize];
        debug_assert_ne!(
            c, NO_CLUSTER,
            "sampled() asked about an unclustered neighbour"
        );
        self.sampled[c as usize]
    }

    #[inline]
    fn known(&self, _v: NodeId, _s: &Slot) -> bool {
        true
    }

    #[inline]
    fn alive(&self, _v: NodeId, s: &Slot) -> bool {
        self.alive[s.idx as usize]
    }
}

/// Computes a Baswana–Sen spanner of `g`.
pub fn baswana_sen_spanner(g: &Graph, cfg: &SpannerConfig) -> SpannerResult {
    SpannerEngine::from_graph(g).spanner(cfg)
}

/// Computes a Baswana–Sen spanner over an explicit edge view on `n` vertices.
///
/// Returns original edge ids (the first component of each view entry).
pub fn baswana_sen_on_view(n: usize, view: &[EdgeView], cfg: &SpannerConfig) -> SpannerResult {
    SpannerEngine::new(n, view).spanner(cfg)
}

/// Runs the full construction over a prepared CSR of an `m`-edge view and returns
/// `(rounds, work)`; the selected edges are left in `state.in_spanner`. `state` buffers
/// are reset here and may be reused across calls (the t-bundle engine does). The run
/// reorders the CSR rows but keeps every slot.
///
/// `work` counts the full row of every decided or joined vertex, live slots or not,
/// plus one examination per alive edge in each retire pass.
fn run_spanner(
    csr: &mut ViewCsr,
    m: usize,
    cfg: &SpannerConfig,
    state: &mut EngineState,
) -> (usize, u64) {
    let n = csr.n();
    let k = resolve_k(n, cfg.k);
    debug_assert!(n > 2 && k > 1 && m > 0, "trivial cases handled by caller");
    state.reset(csr, m);

    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let sample_prob = (n as f64).powf(-1.0 / k as f64);
    // Density-aware blocks (degree-load balanced, 64-vertex floor). The partition may
    // depend on the pool width; outputs cannot (see module docs).
    let part = BlockPartition::adaptive(n, rayon::current_num_threads(), |v| csr.row(v).len());
    let mut total_work = 0u64;
    let mut rounds = 0usize;

    for _round in 1..k {
        rounds += 1;
        // Sample cluster centers for this round (the only RNG consumer: n draws per
        // round, a stream pinned by the golden fixtures).
        for s in state.sampled.iter_mut() {
            *s = rng.gen::<f64>() < sample_prob;
        }

        let decide_span = sgs_obs::span!("spanner.decide", round = rounds);
        let look = Arrays {
            center: &state.center,
            sampled: &state.sampled,
            alive: &state.alive,
        };
        let (csr_ref, live): (&ViewCsr, &[u32]) = (csr, &state.live);
        let batches: Vec<RoundBatch> = (0..part.len())
            .into_par_iter()
            .map_init(
                || GroupScratch::new(n),
                |scratch, b| {
                    let mut batch = RoundBatch::default();
                    for v in part.block(b) {
                        let c_v = look.center[v];
                        if c_v == NO_CLUSTER || look.sampled[c_v as usize] {
                            // Unclustered vertices are settled; sampled clusters carry
                            // over unchanged.
                            continue;
                        }
                        let full = csr_ref.row(v);
                        batch.work += full.len() as u64;
                        let row = &full[..live[v] as usize];
                        let joined = round::decide(v, c_v, row, look, scratch, &mut batch);
                        batch.verts.push(Decision {
                            v: v as u32,
                            center: joined.map_or(NO_CLUSTER, |(c, _)| c),
                            parent: NO_CLUSTER,
                        });
                    }
                    batch
                },
            )
            .collect();
        drop(decide_span);

        // Commit the decisions: every decision read round-start state only, so the
        // flag writes run concurrently and the centers can be overwritten in place.
        let apply_span = sgs_obs::span!("spanner.apply", round = rounds);
        round::commit(&batches, &mut state.in_spanner, &mut state.alive);
        for batch in &batches {
            total_work += batch.work;
            for dec in &batch.verts {
                state.center[dec.v as usize] = dec.center;
            }
        }
        drop(apply_span);

        let sweep_span = sgs_obs::span!("spanner.sweep", round = rounds);
        let look = Arrays {
            center: &state.center,
            sampled: &state.sampled,
            alive: &state.alive,
        };
        total_work += round::retire(csr, &mut state.live, &part, |v| look.center[v], look);
        drop(sweep_span);
        sgs_obs::point!("spanner.round", round = rounds, work = total_work);
    }

    // Phase 2: vertex–cluster joining on the final clustering.
    rounds += 1;
    let join_span = sgs_obs::span!("spanner.join", round = rounds);
    let look = Arrays {
        center: &state.center,
        sampled: &state.sampled,
        alive: &state.alive,
    };
    let (csr, live) = (&*csr, &state.live);
    let batches: Vec<RoundBatch> = (0..part.len())
        .into_par_iter()
        .map_init(
            || GroupScratch::new(n),
            |scratch, b| {
                let mut batch = RoundBatch::default();
                for v in part.block(b) {
                    let full = csr.row(v);
                    batch.work += full.len() as u64;
                    let row = &full[..live[v] as usize];
                    round::join(v, look.center[v], row, look, scratch, &mut batch.adds);
                }
                batch
            },
        )
        .collect();
    round::commit(&batches, &mut state.in_spanner, &mut state.alive);
    total_work += batches.iter().map(|batch| batch.work).sum::<u64>();
    drop(join_span);
    (rounds, total_work)
}

/// A reusable spanner engine over a shrinking edge view.
///
/// The t-bundle construction peels `t` spanners off the same graph; this engine builds
/// the flat CSR incidence **once** and compacts it (and the view's id list) in place
/// after each component, instead of rebuilding `remaining` + incidence per component.
/// The CSR slots carry each edge's endpoints and weight, so the engine keeps only the
/// original `u32` id per view edge. The per-run masks and center arrays are owned by
/// the engine and reused across runs.
#[derive(Debug)]
pub struct SpannerEngine {
    /// Original id of each view edge, in view order.
    ids: Vec<u32>,
    csr: ViewCsr,
    state: EngineState,
}

impl SpannerEngine {
    /// Builds an engine over an explicit view on `n` vertices; original ids must fit
    /// in `u32`.
    pub fn new(n: usize, view: &[EdgeView]) -> SpannerEngine {
        let ids = view
            .iter()
            .map(|&(id, ..)| u32::try_from(id).expect("edge id exceeds u32"))
            .collect();
        let csr = ViewCsr::build(n, view.iter().map(|&(_, u, v, w)| (u, v, w)));
        SpannerEngine {
            ids,
            csr,
            state: EngineState::default(),
        }
    }

    /// Builds an engine over all edges of `g` (view ids = graph edge ids).
    pub fn from_graph(g: &Graph) -> SpannerEngine {
        let mut engine = SpannerEngine::empty();
        engine.reset_from_graph(g);
        engine
    }

    /// Creates an engine with no view and no allocations; combine with
    /// [`SpannerEngine::reset_from_graph`] for reuse across many graphs.
    pub fn empty() -> SpannerEngine {
        SpannerEngine {
            ids: Vec::new(),
            csr: ViewCsr::default(),
            state: EngineState::default(),
        }
    }

    /// Re-targets the engine at `g`, reusing every internal allocation (id list, CSR
    /// offsets/slots, per-run masks). After this call the engine is in exactly the
    /// state [`SpannerEngine::from_graph`] would produce — batch pipelines
    /// (`sgs-stream`) call this once per batch so steady-state sparsification performs
    /// no `O(m)` engine allocations.
    pub fn reset_from_graph(&mut self, g: &Graph) {
        let _span = sgs_obs::span!("spanner.view", m = g.m());
        let m = u32::try_from(g.m()).expect("edge id exceeds u32");
        self.ids.clear();
        self.ids.extend(0..m);
        self.csr
            .rebuild(g.n(), g.edges().iter().map(|e| (e.u(), e.v(), e.w)));
        // Stale in_spanner state from a previous run must not leak into a `peel` on the
        // new view; `spanner`/`run_spanner` resize it, but clear defensively.
        self.state.in_spanner.clear();
    }

    /// Number of edges currently in the view.
    pub fn m(&self) -> usize {
        self.ids.len()
    }

    /// True when no edges remain.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Runs one Baswana–Sen construction over the current view.
    pub fn spanner(&mut self, cfg: &SpannerConfig) -> SpannerResult {
        let (n, m) = (self.csr.n(), self.ids.len());
        if n <= 2 || resolve_k(n, cfg.k) <= 1 || m == 0 {
            // The trivial cases (stretch-1 spanner / empty input) keep everything; mark
            // it all in-spanner so `peel_spanner_edges` drains the view.
            self.state.in_spanner.clear();
            self.state.in_spanner.resize(m, true);
            return SpannerResult {
                edge_ids: self.selected_ids(),
                rounds: 0,
                work: m as u64,
            };
        }
        let (rounds, work) = run_spanner(&mut self.csr, m, cfg, &mut self.state);
        let edge_ids = self.selected_ids();
        sgs_obs::point!(
            "spanner.run",
            rounds = rounds,
            work = work,
            edges = edge_ids.len(),
        );
        SpannerResult {
            edge_ids,
            rounds,
            work,
        }
    }

    /// The original ids of the edges the last run selected, sorted and deduplicated.
    fn selected_ids(&self) -> Vec<EdgeId> {
        let mut edge_ids: Vec<EdgeId> = self
            .ids
            .iter()
            .zip(&self.state.in_spanner)
            .filter_map(|(&id, &taken)| taken.then_some(id as EdgeId))
            .collect();
        edge_ids.sort_unstable();
        edge_ids.dedup();
        edge_ids
    }

    /// Removes the edges selected by the most recent [`SpannerEngine::spanner`] call
    /// from the view, compacting the id list and the CSR rows (live and dead slots
    /// alike) in place. Row order does not matter to the next run, so none is restored.
    pub fn peel_spanner_edges(&mut self) {
        let _span = sgs_obs::span!("spanner.peel", m = self.ids.len());
        let m = self.ids.len();
        debug_assert_eq!(self.state.in_spanner.len(), m, "peel before any run");
        let remap = &mut self.state.remap;
        remap.clear();
        remap.resize(m, u32::MAX);
        let mut kept = 0u32;
        for (slot, &taken) in remap.iter_mut().zip(&self.state.in_spanner) {
            if !taken {
                *slot = kept;
                kept += 1;
            }
        }
        // Compact the id list in place (retain preserves order, matching a rebuild).
        let in_spanner = &self.state.in_spanner;
        let mut idx = 0usize;
        self.ids.retain(|_| {
            let keep = !in_spanner[idx];
            idx += 1;
            keep
        });
        self.csr.compact(remap);
        debug_assert_eq!(self.ids.len(), kept as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_graph::{connectivity::is_connected, generators, stretch};

    fn check_spanner_invariants(g: &Graph, cfg: &SpannerConfig) -> (usize, f64) {
        let result = baswana_sen_spanner(g, cfg);
        let h = result.to_graph(g);
        // The spanner must span every connected component.
        if is_connected(g) {
            assert!(is_connected(&h), "spanner must be connected when G is");
        }
        let k = cfg
            .k
            .unwrap_or_else(|| (g.n() as f64).log2().ceil() as usize)
            .max(1);
        let bound = (2 * k - 1) as f64 + 1e-9;
        let max_stretch = stretch::max_stretch(g, &h);
        assert!(
            max_stretch <= bound,
            "stretch {max_stretch} exceeds 2k-1 = {bound} (k = {k})"
        );
        (h.m(), max_stretch)
    }

    #[test]
    fn spanner_of_sparse_graph_keeps_almost_everything() {
        let g = generators::cycle(30, 1.0);
        let (m, _) = check_spanner_invariants(&g, &SpannerConfig::with_seed(1));
        assert!(m >= 29, "cycle spanner keeps at least a spanning structure");
    }

    #[test]
    fn spanner_of_complete_graph_is_much_smaller() {
        let n = 120;
        let g = generators::complete(n, 1.0);
        let cfg = SpannerConfig::with_seed(7);
        let (m, _) = check_spanner_invariants(&g, &cfg);
        // O(n log n) edges versus n(n-1)/2 ≈ 7140.
        let k = (n as f64).log2().ceil();
        let budget = (6.0 * n as f64 * k) as usize;
        assert!(m <= budget, "spanner size {m} exceeds budget {budget}");
        assert!(m < g.m() / 3, "spanner should be much sparser than K_n");
    }

    #[test]
    fn stretch_bound_holds_on_weighted_random_graphs() {
        for seed in 0..3 {
            let g = generators::erdos_renyi_weighted(150, 0.15, 0.1, 10.0, seed);
            if !is_connected(&g) {
                continue;
            }
            check_spanner_invariants(&g, &SpannerConfig::with_seed(seed * 31 + 1));
        }
    }

    #[test]
    fn explicit_small_k_gives_denser_spanner_with_smaller_stretch() {
        let g = generators::erdos_renyi(200, 0.2, 1.0, 3);
        let loose = baswana_sen_spanner(&g, &SpannerConfig::with_seed(5));
        let tight = baswana_sen_spanner(&g, &SpannerConfig::with_seed(5).with_k(2));
        // k = 2 gives a 3-spanner: more edges, tighter stretch.
        let h_tight = tight.to_graph(&g);
        let s = stretch::max_stretch(&g, &h_tight);
        assert!(s <= 3.0 + 1e-9, "3-spanner stretch was {s}");
        assert!(tight.edge_ids.len() >= loose.edge_ids.len() / 2);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::preferential_attachment(300, 4, 1.0, 2);
        let a = baswana_sen_spanner(&g, &SpannerConfig::with_seed(3));
        let b = baswana_sen_spanner(&g, &SpannerConfig::with_seed(3));
        let c = baswana_sen_spanner(&g, &SpannerConfig::with_seed(4));
        assert_eq!(a.edge_ids, b.edge_ids);
        assert!(a.edge_ids != c.edge_ids || a.edge_ids.len() == g.m());
    }

    #[test]
    fn work_is_near_linear_in_m_per_round() {
        let g = generators::erdos_renyi(300, 0.1, 1.0, 5);
        let result = baswana_sen_spanner(&g, &SpannerConfig::with_seed(1));
        let k = (300f64).log2().ceil() as u64;
        // Work is bounded by a small constant times k · m (Theorem 1: O(m log n)).
        assert!(
            result.work <= 8 * k * g.m() as u64 + 1000,
            "work {} vs bound {}",
            result.work,
            8 * k * g.m() as u64
        );
        assert!(result.rounds as u64 <= k + 1);
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g = Graph::new(0);
        let r = baswana_sen_spanner(&g, &SpannerConfig::default());
        assert!(r.edge_ids.is_empty());
        let g = Graph::new(5);
        let r = baswana_sen_spanner(&g, &SpannerConfig::default());
        assert!(r.edge_ids.is_empty());
        let g = Graph::from_tuples(2, vec![(0, 1, 3.0)]).unwrap();
        let r = baswana_sen_spanner(&g, &SpannerConfig::default());
        assert_eq!(r.edge_ids, vec![0]);
    }

    #[test]
    fn disconnected_graph_gets_spanner_per_component() {
        let mut g = generators::complete(20, 1.0);
        // Add a second complete component on 20 more vertices.
        let other = generators::complete(20, 1.0);
        let mut big = Graph::new(40);
        for e in g.edges() {
            big.add_edge(e.u(), e.v(), e.w).unwrap();
        }
        for e in other.edges() {
            big.add_edge(20 + e.u(), 20 + e.v(), e.w).unwrap();
        }
        g = big;
        let r = baswana_sen_spanner(&g, &SpannerConfig::with_seed(2));
        let h = r.to_graph(&g);
        let (labels, count) = sgs_graph::connectivity::connected_components(&h);
        assert_eq!(count, 2);
        // Components must not be merged or split.
        assert_eq!(labels[0], labels[19]);
        assert_eq!(labels[20], labels[39]);
        assert_ne!(labels[0], labels[20]);
        let s = stretch::max_stretch(&g, &h);
        assert!(s <= 2.0 * (40f64).log2().ceil() + 1.0);
    }

    fn view_of(g: &Graph) -> Vec<EdgeView> {
        g.edges()
            .iter()
            .enumerate()
            .map(|(id, e)| (id, e.u(), e.v(), e.w))
            .collect()
    }

    fn build(n: usize, view: &[EdgeView]) -> ViewCsr {
        ViewCsr::build(n, view.iter().map(|&(_, u, v, w)| (u, v, w)))
    }

    /// Each row's slots sorted by view index: rows compared up to per-row order.
    fn sorted_rows(csr: &ViewCsr) -> Vec<Vec<(u32, u32, u64)>> {
        (0..csr.n())
            .map(|v| {
                let mut row: Vec<_> = csr
                    .row(v)
                    .iter()
                    .map(|s| (s.idx, s.nbr, s.w.to_bits()))
                    .collect();
                row.sort_unstable();
                row
            })
            .collect()
    }

    #[test]
    fn csr_build_matches_nested_incidence() {
        let g = generators::erdos_renyi(60, 0.2, 1.0, 3);
        let view = view_of(&g);
        let csr = build(g.n(), &view);
        let mut nested: Vec<Vec<Slot>> = vec![Vec::new(); g.n()];
        for (idx, &(_, u, v, w)) in view.iter().enumerate() {
            let idx = idx as u32;
            nested[u].push(Slot {
                nbr: v as u32,
                idx,
                w,
            });
            nested[v].push(Slot {
                nbr: u as u32,
                idx,
                w,
            });
        }
        assert_eq!(csr.n(), g.n());
        for (v, row) in nested.iter().enumerate() {
            assert_eq!(csr.row(v), row.as_slice(), "row {v}");
        }
    }

    #[test]
    fn csr_compact_equals_rebuild_from_compacted_view() {
        let g = generators::erdos_renyi(80, 0.25, 1.0, 9);
        let view = view_of(&g);
        let mut csr = build(g.n(), &view);
        // Kill every third edge, remap the survivors.
        let mut remap = vec![u32::MAX; view.len()];
        let mut kept_view = Vec::new();
        let mut kept = 0u32;
        for (idx, &e) in view.iter().enumerate() {
            if idx % 3 != 0 {
                remap[idx] = kept;
                kept += 1;
                kept_view.push(e);
            }
        }
        csr.compact(&remap);
        let rebuilt = build(g.n(), &kept_view);
        assert_eq!(csr.offsets, rebuilt.offsets);
        assert_eq!(csr.slots, rebuilt.slots);
    }

    /// Runs the engine loop directly on `csr`, returning (edge ids, rounds, work).
    fn run_on(
        csr: &mut ViewCsr,
        view: &[EdgeView],
        cfg: &SpannerConfig,
    ) -> (Vec<EdgeId>, usize, u64) {
        let mut state = EngineState::default();
        let (rounds, work) = run_spanner(csr, view.len(), cfg, &mut state);
        let ids = view
            .iter()
            .zip(&state.in_spanner)
            .filter_map(|(&(id, ..), &taken)| taken.then_some(id))
            .collect();
        (ids, rounds, work)
    }

    #[test]
    fn row_order_does_not_change_the_spanner() {
        // The lowest-index tie-break makes unordered rows safe: a weighted graph with
        // three weight classes ties often, but not always.
        let base = generators::erdos_renyi(150, 0.2, 1.0, 4);
        let edges: Vec<_> = base
            .edges()
            .iter()
            .enumerate()
            .map(|(id, e)| (e.u(), e.v(), 1.0 + (id % 3) as f64))
            .collect();
        let g = Graph::from_tuples(base.n(), edges).unwrap();
        let view = view_of(&g);
        for seed in [1u64, 2, 3] {
            for cfg in [
                SpannerConfig::with_seed(seed),
                SpannerConfig::with_seed(seed).with_k(3),
            ] {
                let expected = run_on(&mut build(g.n(), &view), &view, &cfg);
                let reference = baswana_sen_spanner(&g, &cfg);
                assert_eq!(
                    (&expected.0, expected.1, expected.2),
                    (&reference.edge_ids, reference.rounds, reference.work)
                );
                for shuffle in 0..2 {
                    let mut csr = build(g.n(), &view);
                    for v in 0..g.n() {
                        let (lo, hi) = (csr.offsets[v] as usize, csr.offsets[v + 1] as usize);
                        let row = &mut csr.slots[lo..hi];
                        if shuffle == 0 {
                            row.reverse();
                        } else {
                            row.rotate_left(row.len() / 2);
                        }
                    }
                    assert_eq!(run_on(&mut csr, &view, &cfg), expected, "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn compact_after_a_run_equals_rebuild_up_to_row_order() {
        let g = generators::erdos_renyi_weighted(120, 0.3, 0.1, 10.0, 8);
        let view = view_of(&g);
        let mut engine = SpannerEngine::new(g.n(), &view);
        engine.spanner(&SpannerConfig::with_seed(6));
        let before = engine.csr.clone();
        engine.peel_spanner_edges();
        let kept_view: Vec<EdgeView> = view
            .iter()
            .zip(&engine.state.in_spanner)
            .filter_map(|(&e, &taken)| (!taken).then_some(e))
            .collect();
        let rebuilt = build(g.n(), &kept_view);
        assert!(
            (0..g.n()).any(|v| before.row(v).windows(2).any(|p| p[0].idx > p[1].idx)),
            "the run should leave some row unordered"
        );
        assert_eq!(engine.csr.offsets, rebuilt.offsets);
        assert_eq!(sorted_rows(&engine.csr), sorted_rows(&rebuilt));
        let ids: Vec<u32> = kept_view.iter().map(|&(id, ..)| id as u32).collect();
        assert_eq!(engine.ids, ids);
    }

    #[test]
    fn engine_peel_matches_fresh_view_runs() {
        // Peeling two components through the engine must equal running the old-style
        // "rebuild the remaining view" loop by hand.
        let g = generators::erdos_renyi(120, 0.3, 1.0, 17);
        let cfg = SpannerConfig::with_seed(33);
        let mut engine = SpannerEngine::from_graph(&g);
        let first = engine.spanner(&cfg);
        engine.peel_spanner_edges();
        let second = engine.spanner(&cfg);

        let view = view_of(&g);
        let first_ref = baswana_sen_on_view(g.n(), &view, &cfg);
        assert_eq!(first.edge_ids, first_ref.edge_ids);
        let in_first: std::collections::HashSet<usize> =
            first_ref.edge_ids.iter().copied().collect();
        let remaining: Vec<EdgeView> = view
            .iter()
            .filter(|&&(id, _, _, _)| !in_first.contains(&id))
            .copied()
            .collect();
        let second_ref = baswana_sen_on_view(g.n(), &remaining, &cfg);
        assert_eq!(second.edge_ids, second_ref.edge_ids);
        assert_eq!(engine.m(), remaining.len());
        engine.peel_spanner_edges();
        assert_eq!(engine.m(), remaining.len() - second_ref.edge_ids.len());
    }
}
