//! The bounded-memory merge-and-reduce sparsifier.

use std::mem;

use sgs_core::SparsifyEngine;
use sgs_graph::{ops, Edge, Graph, GraphError, Result};

use crate::config::StreamConfig;
use crate::stats::{ErPassStats, StreamStats};
use crate::store::{NodeHandle, SpillStore, EDGE_BYTES};

/// Result of a streaming run: the final sparsifier plus the accounting that backs the
/// memory and accuracy claims.
#[derive(Debug, Clone)]
pub struct StreamOutput {
    /// The end-to-end sparsifier of everything that was ingested.
    pub sparsifier: Graph,
    /// Peak-memory / ε-ledger / work accounting of the run.
    pub stats: StreamStats,
}

/// A bounded-memory semi-streaming spectral sparsifier.
///
/// Edges arrive in arbitrary batches through [`ingest_batch`](Self::ingest_batch) (a
/// file is read with `next_batch` of an [`sgs_graph::io::EdgeBatchReader`] or
/// [`sgs_graph::io::BinEdgeReader`], one call per chunk); the engine buffers them up
/// to the leaf capacity, sparsifies each full leaf, and folds the resulting
/// sparsifiers through a merge-and-reduce tree: `arity` same-depth sparsifiers are
/// unioned (weights of duplicate pairs accumulated, [`ops::coalesce_in_place`]) and
/// resparsified by
/// `PARALLELSPARSIFY` at the depth's scheduled ε. This is exactly the composition rule
/// the paper's `PARALLELSPARSIFY` uses across rounds — a sparsifier of a union of
/// sparsifiers is a sparsifier of the union — applied across *space* instead of
/// rounds, as in the distributed setting of Mendoza-Granada & Villagra
/// (arXiv:2003.10612) and the resparsification framing of Spielman–Teng.
///
/// ## Determinism
///
/// Leaf boundaries fire on **stream position** (the adaptive trigger of
/// `StreamConfig::leaf_capacity` reads only the buffer length and the pending-node
/// census, both pure functions of how many edges have arrived), forced reductions fire
/// on deterministic resident-edge counts, and every reduction's seed is derived from
/// `(depth, index)` — so for a fixed seed the output is bitwise identical regardless
/// of how the stream was chopped into batches *and* regardless of the rayon thread
/// count (the per-reduction engine is thread-count deterministic).
///
/// ## Memory
///
/// Resident edges = leaf buffer + pending sparsifiers + in-flight merge unions. A
/// leaf fires while `buffer + resident + leaf_output` still fits in the budget; after
/// every leaf the engine forces extra reductions until pending sparsifiers fit in
/// half the budget. The budget is not a hard cap: the census overshoots it by an
/// in-flight union plus its reduction output during forced merges. On er(2000,
/// deg 60) in 8 batches of 7,518 edges under a 30,000-edge budget the peak is 46,312
/// resident edges, 16,312 over budget or about 2.2 batches (pinned by
/// `tests/golden_stream.rs::er2000_forced_merge_and_er_final_pass_are_pinned`). When
/// the budget sits below the spectral-sparsity floor `~t · n log n`, pending
/// sparsifiers simply cannot be compressed further and the census parks at the floor.
/// [`StreamStats::peak_resident_edges`] records the observed maximum.
#[derive(Debug)]
pub struct StreamSparsifier {
    cfg: StreamConfig,
    n: usize,
    /// Leaf buffer; its allocation is made once and recycled through every leaf graph.
    buffer: Vec<Edge>,
    /// `levels[j]` holds handles to pending sparsifiers of application depth `j`
    /// (oldest first). The graphs themselves live in `store`.
    levels: Vec<Vec<NodeHandle>>,
    /// Where pending sparsifiers live: all in RAM without `StreamConfig::spill`,
    /// partially spilled to disk with it. Placement never affects the output.
    store: SpillStore,
    /// Total edges across all pending sparsifiers (`levels`), maintained
    /// incrementally — the *logical* census, regardless of where the edges live.
    resident_nodes: usize,
    /// Re-entrant sparsifier (reused spanner view/CSR/masks across every reduction).
    engine: SparsifyEngine,
    /// Reused scratch in which `reduce_group` builds each union.
    merge_scratch: Vec<Edge>,
    stats: StreamStats,
    /// Set when an ingest call failed *after* applying part of its input: the stream
    /// position is no longer what the caller believes, so further ingestion is
    /// refused with [`GraphError::Poisoned`] carrying this description.
    poisoned: Option<String>,
}

impl StreamSparsifier {
    /// Creates a streaming sparsifier over a fixed vertex set `0..n`.
    pub fn new(n: usize, cfg: StreamConfig) -> StreamSparsifier {
        let leaf_capacity = cfg.leaf_capacity();
        let store = SpillStore::new(cfg.spill.clone());
        StreamSparsifier {
            cfg,
            n,
            buffer: Vec::with_capacity(leaf_capacity),
            levels: Vec::new(),
            store,
            resident_nodes: 0,
            engine: SparsifyEngine::new(),
            merge_scratch: Vec::new(),
            stats: StreamStats::default(),
            poisoned: None,
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// The running accounting.
    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// Current resident-edge census: buffer plus pending sparsifiers.
    pub fn resident_edges(&self) -> usize {
        self.buffer.len() + self.resident_nodes
    }

    /// Number of pending sparsifiers across all tree levels.
    pub(crate) fn pending_sparsifiers(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    fn validate(&self, e: &Edge) -> Result<()> {
        Graph::validate_edge(self.n, e.u(), e.v(), e.w)
    }

    /// If the sparsifier is poisoned, describes the failure that poisoned it.
    pub fn poisoned(&self) -> Option<&str> {
        self.poisoned.as_deref()
    }

    /// Errors out of [`Self::ingest_batch`] and [`Self::try_finish`] while the
    /// sparsifier is poisoned.
    fn check_poisoned(&self) -> Result<()> {
        match &self.poisoned {
            Some(why) => Err(GraphError::Poisoned(why.clone())),
            None => Ok(()),
        }
    }

    /// Marks the sparsifier poisoned by `err` (which is also returned), because part
    /// of a failed ingest call was already applied.
    fn poison(&mut self, err: GraphError) -> GraphError {
        self.poisoned = Some(err.to_string());
        err
    }

    /// Ingests one batch of edges. The batch is validated up front, so on a
    /// validation error nothing is ingested — the call is failure-atomic and the
    /// sparsifier stays usable. A *storage* failure (spill I/O, possible only under
    /// `StreamConfig::spill`) can strike after part of the batch was applied. The
    /// sparsifier is then **poisoned**: its stream position no longer matches the
    /// caller's, so every further call fails with [`GraphError::Poisoned`] naming the
    /// original failure, which [`Self::poisoned`] exposes too. Batch boundaries are
    /// *only* an ingestion granularity — they never influence the output (leaves fire
    /// on stream position).
    pub fn ingest_batch(&mut self, edges: &[Edge]) -> Result<()> {
        self.check_poisoned()?;
        for e in edges {
            self.validate(e)?;
        }
        self.stats.batches_ingested += 1;
        for &e in edges {
            if let Err(err) = self.push_edge(e) {
                return Err(self.poison(err));
            }
        }
        Ok(())
    }

    fn push_edge(&mut self, e: Edge) -> Result<()> {
        self.buffer.push(e);
        self.stats.edges_ingested += 1;
        // Adaptive positional trigger (see StreamConfig::leaf_capacity): flush once
        // the buffer could no longer be leaf-reduced within budget, but never below
        // the minimum leaf size and never above half the budget. Every quantity here
        // is a deterministic function of the stream position, so leaf boundaries are
        // independent of the caller's batch chop.
        let b = self.buffer.len();
        let full = b >= self.cfg.leaf_capacity()
            || (b >= self.cfg.min_leaf_edges()
                && 2 * b + self.resident_nodes >= self.cfg.budget_edges);
        if full {
            self.flush_leaf()?;
        }
        Ok(())
    }

    fn note_peak(&mut self, resident: usize) {
        if resident > self.stats.peak_resident_edges {
            self.stats.peak_resident_edges = resident;
        }
    }

    /// Records a RAM high-water mark: `in_ram_edges` edges actually resident (store
    /// residents + buffer + transients; spilled nodes excluded), in bytes.
    fn note_peak_bytes(&mut self, in_ram_edges: usize) {
        let bytes = in_ram_edges * EDGE_BYTES;
        if bytes > self.stats.peak_resident_bytes {
            self.stats.peak_resident_bytes = bytes;
        }
    }

    /// Copies the store's spill/readback ledger into the running stats.
    fn sync_store_ledger(&mut self) {
        self.stats.spill = self.store.ledger();
    }

    /// Sparsifies the current buffer into a depth-0 node, then restores the tree
    /// invariants (fan-in cascade + budget enforcement).
    fn flush_leaf(&mut self) -> Result<()> {
        debug_assert!(!self.buffer.is_empty());
        let census = self.buffer.len() + self.resident_nodes;
        self.note_peak(census);
        self.note_peak_bytes(self.buffer.len() + self.store.resident_edges());
        let leaf = Graph::from_edges_unchecked(self.n, mem::take(&mut self.buffer));
        let out = self.run_sparsify(&leaf, 0);
        let census = leaf.m() + self.resident_nodes + out.m();
        self.note_peak(census);
        self.note_peak_bytes(leaf.m() + self.store.resident_edges() + out.m());
        let (leaf_edges, reduced_edges) = (leaf.m(), out.m());
        // Recycle the buffer allocation out of the leaf graph.
        self.buffer = leaf.into_edges();
        self.buffer.clear();
        self.stats.leaves += 1;
        sgs_obs::point!(
            "stream.leaf",
            leaf = self.stats.leaves,
            m_in = leaf_edges,
            m_out = reduced_edges,
        );
        self.push_node(0, out)?;
        self.cascade()?;
        self.enforce_budget()
    }

    /// Runs one `PARALLELSPARSIFY` reduction at application depth `j`, updating the
    /// per-depth ledger.
    fn run_sparsify(&mut self, g: &Graph, j: usize) -> Graph {
        let eps = self.cfg.level_epsilon(j);
        let index = self.stats.level_mut(j, eps).reductions;
        let scfg = self.cfg.reduction_config(j, index);
        let out = self.engine.sparsify(g, &scfg);
        let level = self.stats.level_mut(j, eps);
        level.reductions += 1;
        level.edges_in += g.m() as u64;
        level.edges_out += out.sparsifier.m() as u64;
        level.spanner_work += out.stats.spanner_work;
        level.sampling_work += out.stats.sampling_work;
        sgs_obs::point!(
            "stream.reduce",
            depth = j,
            index = index,
            epsilon = eps,
            m_in = g.m(),
            m_out = out.sparsifier.m(),
        );
        out.sparsifier
    }

    fn push_node(&mut self, level: usize, g: Graph) -> Result<()> {
        while self.levels.len() <= level {
            self.levels.push(Vec::new());
        }
        self.resident_nodes += g.m();
        let h = self.store.put(level, g)?;
        self.levels[level].push(h);
        self.sync_store_ledger();
        Ok(())
    }

    /// Merges a group of same-vertex-set sparsifiers and resparsifies the union at
    /// application depth `j`, pushing the result to `levels[j]`.
    ///
    /// The union is built **in place**: each child is taken from the store (read
    /// back from disk if it was spilled), drained into the reused merge scratch, and
    /// freed before the next, the scratch is coalesced in place
    /// ([`ops::coalesce_in_place`]), and the union graph takes ownership of the
    /// scratch allocation (reclaimed after the reduction). The transient high-water
    /// mark is therefore one copy of the group's edges, not two.
    fn reduce_group(&mut self, group: Vec<NodeHandle>, j: usize, forced: bool) -> Result<()> {
        debug_assert!(group.len() >= 2);
        self.merge_scratch.clear();
        self.merge_scratch.reserve(
            group
                .iter()
                .map(|&h| self.store.node_edges(h))
                .sum::<usize>(),
        );
        for h in group {
            let child = self.store.take(h)?;
            // Read-back spike: the child is briefly resident on top of the scratch.
            self.note_peak_bytes(
                self.buffer.len()
                    + self.store.resident_edges()
                    + self.merge_scratch.len()
                    + child.m(),
            );
            for e in child.edges() {
                let (u, v) = e.key();
                self.merge_scratch.push(Edge::new(u, v, e.w));
            }
            self.resident_nodes -= child.m();
            drop(child);
        }
        self.sync_store_ledger();
        // Transient high-water mark: the uncoalesced union plus everything pending.
        let census = self.buffer.len() + self.resident_nodes + self.merge_scratch.len();
        self.note_peak(census);
        ops::coalesce_in_place(&mut self.merge_scratch);
        let union = Graph::from_edges_unchecked(self.n, mem::take(&mut self.merge_scratch));
        let out = self.run_sparsify(&union, j);
        let census = self.buffer.len() + self.resident_nodes + union.m() + out.m();
        self.note_peak(census);
        self.note_peak_bytes(self.buffer.len() + self.store.resident_edges() + union.m() + out.m());
        // Reclaim the scratch allocation from the union graph.
        self.merge_scratch = union.into_edges();
        self.merge_scratch.clear();
        if forced {
            self.stats.forced_reductions += 1;
        }
        self.push_node(j, out)
    }

    /// Reduces every level that has reached the configured fan-in, bottom-up.
    fn cascade(&mut self) -> Result<()> {
        let mut i = 0;
        while i < self.levels.len() {
            if self.levels[i].len() >= self.cfg.arity {
                let group = mem::take(&mut self.levels[i]);
                self.reduce_group(group, i + 1, false)?;
            }
            i += 1;
        }
        Ok(())
    }

    /// Forces reductions until pending sparsifiers fit in the non-buffer half of the
    /// budget (or a single sparsifier remains, at which point reduction cannot help).
    fn enforce_budget(&mut self) -> Result<()> {
        let limit = self.cfg.budget_edges / 2;
        while self.resident_nodes > limit {
            if !self.force_reduce_once()? {
                break;
            }
        }
        Ok(())
    }

    /// One budget-pressure reduction: merge the shallowest mergeable group. If the
    /// shallowest non-empty level has a single node, it is merged into the next
    /// non-empty level (charged at that level's ε — the schedule is infinite, so
    /// depth growth never exhausts the ε budget). Returns false when fewer than two
    /// sparsifiers are pending.
    fn force_reduce_once(&mut self) -> Result<bool> {
        let Some(a) = self.levels.iter().position(|l| !l.is_empty()) else {
            return Ok(false);
        };
        if self.levels[a].len() >= 2 {
            let group = mem::take(&mut self.levels[a]);
            self.reduce_group(group, a + 1, true)?;
            // The forced push may have filled a higher level to its fan-in.
            self.cascade()?;
            return Ok(true);
        }
        let Some(b) = self
            .levels
            .iter()
            .enumerate()
            .position(|(i, l)| i > a && !l.is_empty())
        else {
            return Ok(false);
        };
        // Chronological order: the deeper nodes hold older data, the shallow node the
        // newest — merge oldest-first so float accumulation order tracks the stream.
        let mut group = mem::take(&mut self.levels[b]);
        group.extend(mem::take(&mut self.levels[a]));
        self.reduce_group(group, b + 1, true)?;
        self.cascade()?;
        Ok(true)
    }

    /// Flushes the trailing partial leaf and collapses the tree to a single
    /// sparsifier, consuming the engine.
    ///
    /// The result approximates the Laplacian of the *entire* ingested multigraph
    /// within the configured `ε_total` (see `StreamConfig` for the schedule math, and
    /// [`StreamStats::epsilon_spent`] for the realized ledger).
    ///
    /// Without `StreamConfig::spill` finishing cannot fail; with it a disk failure,
    /// now or during an earlier ingest (which poisoned the stream), panics here —
    /// out-of-core callers should prefer [`Self::try_finish`].
    pub fn finish(self) -> StreamOutput {
        self.try_finish()
            .expect("storage failure while finishing (use try_finish with a spill budget)")
    }

    /// [`Self::finish`], surfacing storage failures as errors instead of panicking. A
    /// poisoned stream lacks part of its input, so it fails with
    /// [`GraphError::Poisoned`] before any work.
    pub fn try_finish(mut self) -> Result<StreamOutput> {
        self.check_poisoned()?;
        if !self.buffer.is_empty() {
            self.flush_leaf()?;
        }
        loop {
            let total = self.pending_sparsifiers();
            if total <= 1 {
                break;
            }
            let i = self
                .levels
                .iter()
                .position(|l| !l.is_empty())
                .expect("non-empty tree");
            if self.levels[i].len() >= 2 {
                let group = mem::take(&mut self.levels[i]);
                self.reduce_group(group, i + 1, false)?;
            } else {
                // Promote the lone node without spending ε or work; it will be merged
                // with the next level's group (conservatively skipping ε_{i+1}). The
                // handle just moves — the store (and its spill placement) is
                // untouched, so no bytes move either.
                let h = self.levels[i].pop().expect("checked non-empty");
                while self.levels.len() <= i + 1 {
                    self.levels.push(Vec::new());
                }
                self.levels[i + 1].push(h);
            }
        }
        let mut sparsifier = match self.levels.iter_mut().find_map(|l| l.pop()) {
            Some(h) => {
                let g = self.store.take(h)?;
                self.resident_nodes -= g.m();
                self.sync_store_ledger();
                g
            }
            None => Graph::new(self.n),
        };
        self.stats.final_depth = self
            .stats
            .levels
            .iter()
            .rposition(|l| l.reductions > 0)
            .map_or(0, |j| j + 1);

        // Optional ER-weighted final pass: resample the finished sparsifier with
        // Spielman–Srivastava probabilities at the reserved fraction of ε_total. The
        // sparsifier at this point is small (≲ budget/2 edges), so the pass's handful
        // of CG solves runs on the cheapest graph the stream ever produces.
        if let Some(pass_cfg) = &self.cfg.final_pass {
            let pass_eps = self.cfg.final_pass_epsilon();
            let seed = self.cfg.final_pass_seed();
            let out = self
                .engine
                .resparsify_er(&sparsifier, pass_cfg, pass_eps, seed);
            self.stats.er_pass = Some(ErPassStats {
                epsilon: pass_eps,
                m_in: out.m_in as u64,
                m_out: out.m_out as u64,
                solves: out.solves as u64,
                resampled: out.resampled,
            });
            sgs_obs::point!(
                "stream.er_pass",
                epsilon = pass_eps,
                m_in = out.m_in,
                m_out = out.m_out,
                solves = out.solves,
                resampled = out.resampled,
            );
            sparsifier = out.sparsifier;
        }

        // The final census. `batches_ingested` stays out: it is the caller's chop, and
        // the event stream must not depend on it.
        let (stats, spill) = (&self.stats, &self.stats.spill);
        sgs_obs::point!(
            "stream.finish",
            edges_ingested = stats.edges_ingested,
            leaves = stats.leaves,
            forced_reductions = stats.forced_reductions,
            peak_resident_edges = stats.peak_resident_edges,
            peak_resident_bytes = stats.peak_resident_bytes,
            final_depth = stats.final_depth,
            spilled_nodes = spill.spilled_nodes,
            spilled_edges = spill.spilled_edges,
            spilled_bytes = spill.spilled_bytes,
            readback_nodes = spill.readback_nodes,
            readback_edges = spill.readback_edges,
            readback_bytes = spill.readback_bytes,
        );
        Ok(StreamOutput {
            sparsifier,
            stats: self.stats,
        })
    }
}
