//! The Baswana–Sen randomized spanner construction.
//!
//! Reference: S. Baswana and S. Sen, *A simple and linear time randomized algorithm for
//! computing sparse spanners in weighted graphs*, Random Structures & Algorithms 2007
//! (reference [1] of the paper). The algorithm computes a `(2k − 1)`-spanner with
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
//! The implementation is built for zero per-vertex heap traffic:
//!
//! * **Flat CSR incidence** ([`ViewCsr`]): `offsets` + `indices` arrays built once per
//!   view (counting sort), instead of `Vec<Vec<usize>>`. The t-bundle construction
//!   *compacts* the arrays in place as edges are peeled into components, so the
//!   structure is built once per bundle, not once per component.
//! * **Cluster-stamped scratch** ([`RoundScratch`]): the per-vertex grouping of incident
//!   edges by neighbouring cluster uses `last_seen`/`best_w`/`best_idx` slots indexed by
//!   cluster id plus a touched-list for O(degree) cleanup — replacing a per-vertex
//!   `BTreeMap` allocation. Scratch is threaded through rayon with `map_init`, so each
//!   worker chunk reuses one instance.
//! * **Flat decision batches** ([`RoundBatch`]): vertices are processed in contiguous
//!   blocks cut by the density-aware [`BlockPartition`](crate::partition) (edge-load
//!   balanced, a few blocks per thread, 64-vertex floor) and each block emits compact
//!   per-vertex records plus shared flat `adds`/`kills` id lists — replacing two
//!   `Vec`s per vertex per round.
//! * **Parallel two-phase commit**: decision batches are committed through shared
//!   relaxed-atomic views ([`crate::atomic`]) instead of a sequential sweep. This is
//!   safe — and bit-identical to the sequential order — because the commit is
//!   order-invariant: every edge a vertex *adds* it also *kills* (both branches of
//!   `process_block`), so `in_spanner` is a plain union; `center_next` slots are
//!   written by exactly one vertex each; and the defensive kill of an unclustered
//!   vertex's leftover edges depends only on round-start state on any edge that is not
//!   already batch-killed. The final masks after the commit are therefore identical
//!   under any interleaving — the CRCW "common write" model of Corollary 2.
//!
//! The outputs (edge ids, round count, and the `work` counter) are byte-for-byte
//! identical to the original `BTreeMap`-based implementation; `tests/golden_spanner.rs`
//! pins that equivalence against pre-rewrite fixtures, and `tests/parallelism.rs` pins
//! it across pool widths. Each phase runs inside an `sgs-obs` span
//! (`spanner.decide` / `apply` / `sweep` / `join`), so a traced run shows where the
//! wall clock went and the scaling experiments can prove the apply phase is no longer
//! a serial section.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

use sgs_graph::{EdgeId, Graph, NodeId};

use crate::atomic::{AtomicFlags, AtomicIds};
use crate::partition::BlockPartition;

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
    /// Work counter: total number of edge examinations across all rounds. Experiment E1
    /// compares this against the `O(m log n)` bound of Theorem 1.
    pub work: u64,
}

impl SpannerResult {
    /// Materialises the spanner as a graph over the same vertex set as `g`.
    pub fn to_graph(&self, g: &Graph) -> Graph {
        g.with_edge_ids(&self.edge_ids)
    }
}

/// A lightweight edge view: `(original id, u, v, w)`. The bundle construction feeds
/// progressively smaller views into the same spanner code without copying graphs.
pub type EdgeView = (EdgeId, NodeId, NodeId, f64);

/// Sentinel for "no cluster" in the flat center array (`Option<NodeId>` without the
/// branch/space overhead).
const NO_CLUSTER: u32 = u32::MAX;

// Decision batching distributes vertices to workers in contiguous blocks cut by the
// density-aware `BlockPartition` (see `crate::partition`): edge-load balanced, a few
// blocks per thread, 64-vertex floor. The partition may vary with the pool width —
// outputs cannot, because the decision records depend only on round-start state and
// the commit is order-invariant (module docs above).

/// Flat CSR incidence over an edge view: `indices[offsets[v]..offsets[v+1]]` are the
/// view indices of the edges incident to vertex `v`, in ascending order.
///
/// Edge indices are `u32`; views are capped at `u32::MAX / 2` edges (the `indices`
/// array stores every edge twice), which `build` asserts.
#[derive(Debug, Clone, Default)]
pub struct ViewCsr {
    offsets: Vec<u32>,
    indices: Vec<u32>,
    /// Scratch for the counting-sort write cursors, kept so [`ViewCsr::rebuild`] is
    /// allocation-free in steady state (batch engines rebuild the same CSR per batch).
    cursor: Vec<u32>,
}

impl ViewCsr {
    /// Builds the incidence structure with a two-pass counting sort.
    pub fn build(n: usize, view: &[EdgeView]) -> ViewCsr {
        let mut csr = ViewCsr::default();
        csr.rebuild(n, view);
        csr
    }

    /// Rebuilds the incidence structure in place over a new view, reusing the existing
    /// `offsets`/`indices`/`cursor` allocations. Semantically identical to
    /// [`ViewCsr::build`]; the re-entrant sparsify engine calls this once per batch
    /// instead of allocating three fresh vectors.
    pub fn rebuild(&mut self, n: usize, view: &[EdgeView]) {
        assert!(
            view.len() <= (u32::MAX / 2) as usize,
            "edge view too large for u32 CSR indices"
        );
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        for &(_, u, v, _) in view {
            self.offsets[u + 1] += 1;
            self.offsets[v + 1] += 1;
        }
        for i in 0..n {
            self.offsets[i + 1] += self.offsets[i];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.offsets[..n]);
        self.indices.clear();
        self.indices.resize(2 * view.len(), 0);
        for (idx, &(_, u, v, _)) in view.iter().enumerate() {
            self.indices[self.cursor[u] as usize] = idx as u32;
            self.cursor[u] += 1;
            self.indices[self.cursor[v] as usize] = idx as u32;
            self.cursor[v] += 1;
        }
    }

    /// The incident edge indices of `v` (ascending).
    #[inline]
    pub fn row(&self, v: NodeId) -> &[u32] {
        &self.indices[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Removes every edge for which `remap[idx] == u32::MAX` and renumbers the
    /// survivors, compacting `offsets`/`indices` in place with a single left-to-right
    /// sweep (the write cursor never passes the read cursor). Per-row ascending order
    /// is preserved because `remap` is monotone on the survivors.
    fn compact(&mut self, remap: &[u32]) {
        let n = self.n();
        let mut cursor = 0usize;
        let mut row_start = self.offsets[0] as usize;
        for v in 0..n {
            let row_end = self.offsets[v + 1] as usize;
            self.offsets[v] = cursor as u32;
            for i in row_start..row_end {
                let new_idx = remap[self.indices[i] as usize];
                if new_idx != u32::MAX {
                    self.indices[cursor] = new_idx;
                    cursor += 1;
                }
            }
            row_start = row_end;
        }
        self.offsets[n] = cursor as u32;
        self.indices.truncate(cursor);
    }
}

/// Per-worker scratch for one clustering/joining pass: cluster-stamped slots plus a
/// touched-list, giving O(degree) grouping with O(degree) cleanup and zero per-vertex
/// allocation. One instance per rayon worker chunk via `map_init`.
struct RoundScratch {
    /// Stamp of the vertex currently being processed; `last_seen[c] == stamp` marks
    /// cluster `c`'s slots as live for this vertex.
    stamp: u32,
    last_seen: Vec<u32>,
    best_w: Vec<f64>,
    best_idx: Vec<u32>,
    touched: Vec<u32>,
}

impl RoundScratch {
    fn new(n: usize) -> RoundScratch {
        RoundScratch {
            stamp: 0,
            last_seen: vec![0; n],
            best_w: vec![0.0; n],
            best_idx: vec![0; n],
            touched: Vec::new(),
        }
    }
}

/// Compact per-vertex outcome of one clustering round; the add/kill edge ids live in
/// the owning [`RoundBatch`]'s flat buffers.
#[derive(Debug, Clone, Copy)]
struct VertDecision {
    v: u32,
    /// New cluster center, or [`NO_CLUSTER`] when unchanged / leaving the clustering.
    new_center: u32,
    became_unclustered: bool,
    add_len: u32,
    kill_len: u32,
}

/// Decisions of one vertex block: per-vertex records plus flat add/kill edge-id lists
/// (segments in record order), replacing two `Vec`s per vertex per round.
#[derive(Debug, Default)]
struct RoundBatch {
    verts: Vec<VertDecision>,
    adds: Vec<u32>,
    kills: Vec<u32>,
    work: u64,
}

/// Reusable per-run state; the t-bundle engine keeps one instance alive across
/// components so the masks and center arrays are allocated once per bundle.
#[derive(Debug, Default)]
struct EngineState {
    center: Vec<u32>,
    center_next: Vec<u32>,
    alive: Vec<bool>,
    in_spanner: Vec<bool>,
    sampled: Vec<bool>,
    /// Old-index → new-index map used by [`SpannerEngine::peel_spanner_edges`].
    remap: Vec<u32>,
}

impl EngineState {
    fn reset(&mut self, n: usize, m: usize) {
        self.center.clear();
        self.center.extend(0..n as u32);
        self.center_next.clear();
        self.center_next.resize(n, NO_CLUSTER);
        self.alive.clear();
        self.alive.resize(m, true);
        self.in_spanner.clear();
        self.in_spanner.resize(m, false);
        self.sampled.clear();
        self.sampled.resize(n, false);
    }
}

/// Computes a Baswana–Sen spanner of `g`.
pub fn baswana_sen_spanner(g: &Graph, cfg: &SpannerConfig) -> SpannerResult {
    let view: Vec<EdgeView> = g
        .edges()
        .iter()
        .enumerate()
        .map(|(id, e)| (id, e.u, e.v, e.w))
        .collect();
    baswana_sen_on_view(g.n(), &view, cfg)
}

/// Computes a Baswana–Sen spanner over an explicit edge view on `n` vertices.
///
/// Returns original edge ids (the first component of each view entry).
pub fn baswana_sen_on_view(n: usize, view: &[EdgeView], cfg: &SpannerConfig) -> SpannerResult {
    if let Some(result) = trivial_spanner(n, view, cfg) {
        return result;
    }
    let csr = ViewCsr::build(n, view);
    let mut state = EngineState::default();
    run_spanner(n, view, &csr, cfg, &mut state)
}

/// The trivial cases (stretch-1 spanner / empty input): keep everything.
fn trivial_spanner(n: usize, view: &[EdgeView], cfg: &SpannerConfig) -> Option<SpannerResult> {
    let m = view.len();
    let k = resolve_k(n, cfg);
    if n <= 2 || k <= 1 || m == 0 {
        let mut ids: Vec<EdgeId> = view.iter().map(|&(id, _, _, _)| id).collect();
        ids.sort_unstable();
        ids.dedup();
        return Some(SpannerResult {
            edge_ids: ids,
            rounds: 0,
            work: m as u64,
        });
    }
    None
}

fn resolve_k(n: usize, cfg: &SpannerConfig) -> usize {
    cfg.k
        .unwrap_or_else(|| (n.max(2) as f64).log2().ceil() as usize)
        .max(1)
}

/// Computes the clustering-round decisions for one vertex block.
///
/// Two passes over each vertex's CSR row: the first accumulates per-neighbour-cluster
/// `(min weight, first best index)` stats in the stamped scratch slots, the second
/// emits the add/kill ids into the batch's flat buffers. The `work` counter counts one
/// examination per incident edge of each decided vertex (first pass only), exactly
/// matching the historical `BTreeMap` implementation.
#[allow(clippy::too_many_arguments)]
fn process_block(
    verts: std::ops::Range<usize>,
    view: &[EdgeView],
    csr: &ViewCsr,
    center: &[u32],
    alive: &[bool],
    sampled: &[bool],
    scratch: &mut RoundScratch,
) -> RoundBatch {
    let mut batch = RoundBatch::default();
    for v in verts {
        let c_v = center[v];
        if c_v == NO_CLUSTER || sampled[c_v as usize] {
            // Unclustered vertices are settled; sampled clusters carry over unchanged.
            continue;
        }
        let row = csr.row(v);
        batch.work += row.len() as u64;

        // Pass 1: group alive inter-cluster edges by the other endpoint's cluster.
        scratch.stamp += 1;
        let stamp = scratch.stamp;
        scratch.touched.clear();
        for &idx32 in row {
            let idx = idx32 as usize;
            if !alive[idx] {
                continue;
            }
            let (_, a, b, w) = view[idx];
            let other = if a == v { b } else { a };
            let c_other = center[other];
            if c_other == NO_CLUSTER || c_other == c_v {
                // Unclustered neighbours hold no alive edges; intra-cluster edges are
                // removed lazily by the sweep below.
                continue;
            }
            let c = c_other as usize;
            if scratch.last_seen[c] != stamp {
                scratch.last_seen[c] = stamp;
                scratch.best_w[c] = w;
                scratch.best_idx[c] = idx32;
                scratch.touched.push(c_other);
            } else if w < scratch.best_w[c] {
                scratch.best_w[c] = w;
                scratch.best_idx[c] = idx32;
            }
        }

        if scratch.touched.is_empty() {
            batch.verts.push(VertDecision {
                v: v as u32,
                new_center: NO_CLUSTER,
                became_unclustered: true,
                add_len: 0,
                kill_len: 0,
            });
            continue;
        }

        // Lightest edge into a *sampled* adjacent cluster, if any. Ties are broken by
        // cluster id so the choice is deterministic regardless of grouping order.
        let mut best_sampled: Option<(f64, u32)> = None;
        for &c in &scratch.touched {
            if sampled[c as usize] {
                let w = scratch.best_w[c as usize];
                let better = match best_sampled {
                    None => true,
                    Some((w0, c0)) => w < w0 || (w == w0 && c < c0),
                };
                if better {
                    best_sampled = Some((w, c));
                }
            }
        }

        // Pass 2: emit add/kill ids into the flat buffers.
        let adds_before = batch.adds.len();
        let kills_before = batch.kills.len();
        let (new_center, became_unclustered) = match best_sampled {
            None => {
                // No sampled neighbor cluster: keep one lightest edge per adjacent
                // cluster and discard the rest; v leaves the clustering.
                for &idx32 in row {
                    let idx = idx32 as usize;
                    if !alive[idx] {
                        continue;
                    }
                    let (_, a, b, _) = view[idx];
                    let other = if a == v { b } else { a };
                    let c_other = center[other];
                    if c_other == NO_CLUSTER || c_other == c_v {
                        continue;
                    }
                    if scratch.best_idx[c_other as usize] == idx32 {
                        batch.adds.push(idx32);
                    }
                    batch.kills.push(idx32);
                }
                (NO_CLUSTER, true)
            }
            Some((w_star, c_star)) => {
                // Join the sampled cluster through its lightest edge; also keep the
                // lightest edge into every strictly lighter neighbour cluster.
                batch.adds.push(scratch.best_idx[c_star as usize]);
                for &idx32 in row {
                    let idx = idx32 as usize;
                    if !alive[idx] {
                        continue;
                    }
                    let (_, a, b, _) = view[idx];
                    let other = if a == v { b } else { a };
                    let c_other = center[other];
                    if c_other == NO_CLUSTER || c_other == c_v {
                        continue;
                    }
                    if c_other == c_star {
                        batch.kills.push(idx32);
                    } else if scratch.best_w[c_other as usize] < w_star {
                        if scratch.best_idx[c_other as usize] == idx32 {
                            batch.adds.push(idx32);
                        }
                        batch.kills.push(idx32);
                    }
                }
                (c_star, false)
            }
        };
        batch.verts.push(VertDecision {
            v: v as u32,
            new_center,
            became_unclustered,
            add_len: (batch.adds.len() - adds_before) as u32,
            kill_len: (batch.kills.len() - kills_before) as u32,
        });
    }
    batch
}

/// Computes the joining-phase adds for one vertex block: the lightest alive edge into
/// every adjacent foreign cluster (add-only, so no per-vertex records are needed).
fn join_block(
    verts: std::ops::Range<usize>,
    view: &[EdgeView],
    csr: &ViewCsr,
    center: &[u32],
    alive: &[bool],
    scratch: &mut RoundScratch,
) -> RoundBatch {
    let mut batch = RoundBatch::default();
    for v in verts {
        let row = csr.row(v);
        batch.work += row.len() as u64;
        scratch.stamp += 1;
        let stamp = scratch.stamp;
        scratch.touched.clear();
        let c_v = center[v];
        for &idx32 in row {
            let idx = idx32 as usize;
            if !alive[idx] {
                continue;
            }
            let (_, a, b, w) = view[idx];
            let other = if a == v { b } else { a };
            let c_other = center[other];
            if c_other == NO_CLUSTER || c_other == c_v {
                continue;
            }
            let c = c_other as usize;
            if scratch.last_seen[c] != stamp {
                scratch.last_seen[c] = stamp;
                scratch.best_w[c] = w;
                scratch.best_idx[c] = idx32;
                scratch.touched.push(c_other);
            } else if w < scratch.best_w[c] {
                scratch.best_w[c] = w;
                scratch.best_idx[c] = idx32;
            }
        }
        for &c in &scratch.touched {
            batch.adds.push(scratch.best_idx[c as usize]);
        }
    }
    batch
}

/// Commits one decision batch through shared atomic views.
///
/// Safe — and *final-state identical* — under any interleaving with other batches:
///
/// * `in_spanner` stores are a plain union of the batch add lists;
/// * `alive` stores only ever flip `true → false` within a commit;
/// * `center_next[v]` is written solely by the batch that owns vertex `v`;
/// * the defensive kill of an unclustered vertex's leftovers reads the *round-start*
///   `center` array, and its transient `alive`/`in_spanner` reads can only change its
///   decision on edges some batch kills anyway (every added edge is also killed by
///   the adding vertex, so a skipped defensive kill is always covered by a batch
///   kill).
fn apply_batch(
    batch: &RoundBatch,
    view: &[EdgeView],
    csr: &ViewCsr,
    center: &[u32],
    alive: AtomicFlags<'_>,
    in_spanner: AtomicFlags<'_>,
    center_next: AtomicIds<'_>,
) {
    let mut adds_pos = 0usize;
    let mut kills_pos = 0usize;
    for dec in &batch.verts {
        for &idx in &batch.adds[adds_pos..adds_pos + dec.add_len as usize] {
            in_spanner.set(idx as usize, true);
        }
        adds_pos += dec.add_len as usize;
        for &idx in &batch.kills[kills_pos..kills_pos + dec.kill_len as usize] {
            alive.set(idx as usize, false);
        }
        kills_pos += dec.kill_len as usize;
        let v = dec.v as usize;
        if dec.became_unclustered {
            center_next.set(v, NO_CLUSTER);
            // Any still-alive incident edge of an unclustered vertex is dead weight;
            // they were all either added or killed above, but parallel edges from the
            // same group may linger — kill them defensively.
            for &idx32 in csr.row(v) {
                let idx = idx32 as usize;
                if alive.get(idx) && !in_spanner.get(idx) {
                    let (_, a, b, _) = view[idx];
                    let other = if a == v { b } else { a };
                    if center[other] != NO_CLUSTER {
                        alive.set(idx, false);
                    }
                }
            }
        } else if dec.new_center != NO_CLUSTER {
            center_next.set(v, dec.new_center);
        }
    }
}

/// Runs the full construction over a prepared CSR view. `state` buffers are reset here
/// and may be reused across calls (the t-bundle engine does).
fn run_spanner(
    n: usize,
    view: &[EdgeView],
    csr: &ViewCsr,
    cfg: &SpannerConfig,
    state: &mut EngineState,
) -> SpannerResult {
    let m = view.len();
    let k = resolve_k(n, cfg);
    debug_assert!(n > 2 && k > 1 && m > 0, "trivial cases handled by caller");
    state.reset(n, m);

    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let sample_prob = (n as f64).powf(-1.0 / k as f64);
    // Density-aware blocks (degree-load balanced, 64-vertex floor). The partition may
    // depend on the pool width; outputs cannot (see module docs).
    let part = BlockPartition::adaptive(n, rayon::current_num_threads(), |v| csr.row(v).len());
    let n_blocks = part.len();
    let mut total_work = 0u64;
    let mut rounds = 0usize;

    for _round in 1..k {
        rounds += 1;
        // Sample cluster centers for this round (the only RNG consumer: n draws per
        // round, a stream pinned by the golden fixtures).
        for s in state.sampled.iter_mut() {
            *s = rng.gen::<f64>() < sample_prob;
        }

        let (center, alive, sampled) = (&state.center, &state.alive, &state.sampled);
        let decide_span = sgs_obs::span!("spanner.decide", round = rounds);
        let batches: Vec<RoundBatch> = (0..n_blocks)
            .into_par_iter()
            .map_init(
                || RoundScratch::new(n),
                |scratch, b| {
                    process_block(part.block(b), view, csr, center, alive, sampled, scratch)
                },
            )
            .collect();
        drop(decide_span);

        // Commit the decisions. The commit is order-invariant (see `apply_batch`), so
        // every batch runs concurrently through shared atomic views and still lands
        // bit-identical to a sequential block-order walk.
        let apply_span = sgs_obs::span!("spanner.apply", round = rounds);
        state.center_next.copy_from_slice(&state.center);
        {
            let alive = AtomicFlags::new(&mut state.alive);
            let in_spanner = AtomicFlags::new(&mut state.in_spanner);
            let center_next = AtomicIds::new(&mut state.center_next);
            let center = &state.center;
            batches.par_iter().for_each(|batch| {
                apply_batch(batch, view, csr, center, alive, in_spanner, center_next)
            });
        }
        for batch in &batches {
            total_work += batch.work;
        }
        drop(apply_span);
        std::mem::swap(&mut state.center, &mut state.center_next);

        // Remove intra-cluster edges of the new clustering. The per-edge flag writes
        // commute, so this sweep runs in parallel; the u64 work tally is combined in
        // chunk order and stays deterministic.
        let sweep_span = sgs_obs::span!("spanner.sweep", round = rounds);
        let center = &state.center;
        total_work += state
            .alive
            .par_iter_mut()
            .zip(view.par_iter())
            .map(|(a, &(_, u, v, _))| {
                if *a {
                    let cu = center[u];
                    if cu != NO_CLUSTER && cu == center[v] {
                        *a = false;
                    }
                    1
                } else {
                    0
                }
            })
            .sum::<u64>();
        drop(sweep_span);
        sgs_obs::point!("spanner.round", round = rounds, work = total_work);
    }

    // Phase 2: vertex–cluster joining on the final clustering.
    rounds += 1;
    let join_span = sgs_obs::span!("spanner.join", round = rounds);
    let (center, alive) = (&state.center, &state.alive);
    let join_batches: Vec<RoundBatch> = (0..n_blocks)
        .into_par_iter()
        .map_init(
            || RoundScratch::new(n),
            |scratch, b| join_block(part.block(b), view, csr, center, alive, scratch),
        )
        .collect();
    // Join adds are a plain union, so the commit parallelises the same way.
    {
        let in_spanner = AtomicFlags::new(&mut state.in_spanner);
        join_batches.par_iter().for_each(|batch| {
            for &idx in &batch.adds {
                in_spanner.set(idx as usize, true);
            }
        });
    }
    for batch in &join_batches {
        total_work += batch.work;
    }
    drop(join_span);

    let mut edge_ids: Vec<EdgeId> = view
        .iter()
        .enumerate()
        .filter_map(|(idx, &(id, _, _, _))| {
            if state.in_spanner[idx] {
                Some(id)
            } else {
                None
            }
        })
        .collect();
    edge_ids.sort_unstable();
    edge_ids.dedup();
    sgs_obs::point!(
        "spanner.run",
        rounds = rounds,
        work = total_work,
        edges = edge_ids.len(),
    );
    SpannerResult {
        edge_ids,
        rounds,
        work: total_work,
    }
}

/// A reusable spanner engine over a shrinking edge view.
///
/// The t-bundle construction peels `t` spanners off the same graph; this engine builds
/// the flat CSR incidence **once** and compacts it (and the view) in place after each
/// component, instead of rebuilding `remaining` + incidence per component. The
/// per-run masks and center arrays are owned by the engine and reused across runs.
#[derive(Debug)]
pub struct SpannerEngine {
    n: usize,
    view: Vec<EdgeView>,
    csr: ViewCsr,
    state: EngineState,
}

impl SpannerEngine {
    /// Builds an engine over an explicit view.
    pub fn new(n: usize, view: Vec<EdgeView>) -> SpannerEngine {
        let csr = ViewCsr::build(n, &view);
        SpannerEngine {
            n,
            view,
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
            n: 0,
            view: Vec::new(),
            csr: ViewCsr::default(),
            state: EngineState::default(),
        }
    }

    /// Re-targets the engine at `g`, reusing every internal allocation (view, CSR
    /// offsets/indices, per-run masks). After this call the engine is in exactly the
    /// state [`SpannerEngine::from_graph`] would produce — batch pipelines
    /// (`sgs-stream`) call this once per batch so steady-state sparsification performs
    /// no `O(m)` engine allocations.
    pub fn reset_from_graph(&mut self, g: &Graph) {
        self.n = g.n();
        self.view.clear();
        self.view.extend(
            g.edges()
                .iter()
                .enumerate()
                .map(|(id, e)| (id, e.u, e.v, e.w)),
        );
        self.csr.rebuild(self.n, &self.view);
        // Stale in_spanner state from a previous run must not leak into a `peel` on the
        // new view; `spanner`/`run_spanner` resize it, but clear defensively.
        self.state.in_spanner.clear();
    }

    /// Number of edges currently in the view.
    pub fn m(&self) -> usize {
        self.view.len()
    }

    /// True when no edges remain.
    pub fn is_empty(&self) -> bool {
        self.view.is_empty()
    }

    /// The current edge view (ids are original input ids).
    pub fn view(&self) -> &[EdgeView] {
        &self.view
    }

    /// Runs one Baswana–Sen construction over the current view.
    pub fn spanner(&mut self, cfg: &SpannerConfig) -> SpannerResult {
        if let Some(result) = trivial_spanner(self.n, &self.view, cfg) {
            // Mark everything in-spanner so `peel_spanner_edges` drains the view.
            self.state.in_spanner.clear();
            self.state.in_spanner.resize(self.view.len(), true);
            return result;
        }
        run_spanner(self.n, &self.view, &self.csr, cfg, &mut self.state)
    }

    /// Removes the edges selected by the most recent [`SpannerEngine::spanner`] call
    /// from the view, compacting the view and the CSR incidence in place.
    pub fn peel_spanner_edges(&mut self) {
        let m = self.view.len();
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
        // Compact the view in place (retain preserves order, matching a rebuild).
        let in_spanner = &self.state.in_spanner;
        let mut idx = 0usize;
        self.view.retain(|_| {
            let keep = !in_spanner[idx];
            idx += 1;
            keep
        });
        self.csr.compact(remap);
        debug_assert_eq!(self.view.len(), kept as usize);
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
            big.add_edge(e.u, e.v, e.w).unwrap();
        }
        for e in other.edges() {
            big.add_edge(20 + e.u, 20 + e.v, e.w).unwrap();
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

    #[test]
    fn csr_build_matches_nested_incidence() {
        let g = generators::erdos_renyi(60, 0.2, 1.0, 3);
        let view: Vec<EdgeView> = g
            .edges()
            .iter()
            .enumerate()
            .map(|(id, e)| (id, e.u, e.v, e.w))
            .collect();
        let csr = ViewCsr::build(g.n(), &view);
        let mut nested: Vec<Vec<u32>> = vec![Vec::new(); g.n()];
        for (idx, &(_, u, v, _)) in view.iter().enumerate() {
            nested[u].push(idx as u32);
            nested[v].push(idx as u32);
        }
        assert_eq!(csr.n(), g.n());
        for (v, row) in nested.iter().enumerate() {
            assert_eq!(csr.row(v), row.as_slice(), "row {v}");
        }
    }

    #[test]
    fn csr_compact_equals_rebuild_from_compacted_view() {
        let g = generators::erdos_renyi(80, 0.25, 1.0, 9);
        let view: Vec<EdgeView> = g
            .edges()
            .iter()
            .enumerate()
            .map(|(id, e)| (id, e.u, e.v, e.w))
            .collect();
        let mut csr = ViewCsr::build(g.n(), &view);
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
        let rebuilt = ViewCsr::build(g.n(), &kept_view);
        assert_eq!(csr.offsets, rebuilt.offsets);
        assert_eq!(csr.indices, rebuilt.indices);
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

        let view: Vec<EdgeView> = g
            .edges()
            .iter()
            .enumerate()
            .map(|(id, e)| (id, e.u, e.v, e.w))
            .collect();
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
