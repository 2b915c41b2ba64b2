//! Node storage for the merge-and-reduce tree: resident or spilled to disk.
//!
//! The [`crate::StreamSparsifier`] keeps its pending sparsifiers behind the
//! [`EdgeStore`] trait. [`MemStore`] holds every node in RAM — byte-identical to the
//! pre-trait engine. [`SpillStore`] bounds the edge bytes the store keeps resident:
//! when a `put` pushes it over budget, the **deepest** pending node (ties broken
//! oldest-first) is written to disk in the bit-exact binary format of
//! `sgs_graph::io` and read back only when a reduction takes it.
//!
//! ## Determinism contract
//!
//! Spill and readback decisions are functions of node sizes, depths, and arrival
//! order — all pure functions of the stream position — and the binary format
//! round-trips `f64` weights as exact bits. A fixed-seed run therefore produces
//! **bitwise identical** output (edges, weights, and every algorithmic stats column)
//! under `MemStore` and `SpillStore`, at any batch chop and any thread count; only
//! the [`SpillLedger`] columns record the difference. The store never draws
//! randomness: no vendored (or any) RNG is involved in deciding what spills.
//!
//! Deep nodes are the right ones to evict: a depth-`j` node is touched again only
//! when the tree accumulates enough *younger* data to force a depth-`j` merge, so the
//! deepest nodes are the coldest — the out-of-core analogue of merging
//! oldest-first.

use std::fs;
use std::mem;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use sgs_graph::{Edge, Graph, GraphError, Result};

use crate::stats::SpillLedger;

/// Bytes one resident edge occupies (`usize` endpoints + `f64` weight).
pub const EDGE_BYTES: usize = mem::size_of::<Edge>();

/// Opaque handle to a node held by an [`EdgeStore`]. Handles are dense, increase in
/// `put` order (the tie-break key of the spill policy), and are invalidated by
/// [`EdgeStore::take`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeHandle(usize);

/// Where the merge tree keeps pending sparsifiers.
///
/// Implementations must be deterministic: identical `put`/`take` sequences must
/// yield identical graphs back (the binary spill format guarantees bit-exact weight
/// round-trips), and any internal placement policy may depend only on the sequence
/// itself — never on wall-clock, addresses, or randomness.
pub trait EdgeStore: std::fmt::Debug {
    /// Stores a node produced at application depth `depth`, returning its handle.
    fn put(&mut self, depth: usize, g: Graph) -> Result<NodeHandle>;

    /// Removes and returns a node (reading it back from disk if it was spilled).
    fn take(&mut self, h: NodeHandle) -> Result<Graph>;

    /// Edge count of a stored node, available without any readback.
    fn node_edges(&self, h: NodeHandle) -> usize;

    /// Edges currently held **in RAM** by the store (spilled nodes excluded).
    fn resident_edges(&self) -> usize;

    /// The spill/readback ledger (all zeros for stores that never spill).
    fn ledger(&self) -> SpillLedger;
}

/// The all-resident store: every node stays in RAM, exactly as before the
/// [`EdgeStore`] abstraction existed.
#[derive(Debug, Default)]
pub struct MemStore {
    nodes: Vec<Option<Graph>>,
    resident: usize,
}

impl MemStore {
    /// Creates an empty store.
    pub fn new() -> MemStore {
        MemStore::default()
    }
}

impl EdgeStore for MemStore {
    fn put(&mut self, _depth: usize, g: Graph) -> Result<NodeHandle> {
        let h = NodeHandle(self.nodes.len());
        self.resident += g.m();
        self.nodes.push(Some(g));
        Ok(h)
    }

    fn take(&mut self, h: NodeHandle) -> Result<Graph> {
        let g = self.nodes[h.0].take().expect("node handle already taken");
        self.resident -= g.m();
        Ok(g)
    }

    fn node_edges(&self, h: NodeHandle) -> usize {
        self.nodes[h.0].as_ref().expect("node handle taken").m()
    }

    fn resident_edges(&self) -> usize {
        self.resident
    }

    fn ledger(&self) -> SpillLedger {
        SpillLedger::default()
    }
}

/// Configuration of a [`SpillStore`].
#[derive(Debug, Clone)]
pub struct SpillConfig {
    /// Edge-byte budget of the store: after every `put`, nodes are spilled (deepest
    /// first) until the store's resident edges fit in this many bytes. Note this
    /// bounds the *store* only — the engine's leaf buffer and in-flight merge unions
    /// stay in RAM regardless (see `StreamStats::peak_resident_bytes` for the
    /// end-to-end census).
    pub max_resident_bytes: usize,
    /// Directory for spill files; a unique subdirectory is created under it (and
    /// removed on drop). `None` uses the system temp directory.
    pub directory: Option<PathBuf>,
}

impl SpillConfig {
    /// A spill budget in bytes, spilling to the system temp directory.
    pub fn new(max_resident_bytes: usize) -> SpillConfig {
        SpillConfig {
            max_resident_bytes,
            directory: None,
        }
    }

    /// Overrides the directory spill files are created under.
    pub fn with_directory<P: Into<PathBuf>>(mut self, dir: P) -> Self {
        self.directory = Some(dir.into());
        self
    }
}

/// Distinguishes concurrently-created spill directories within one process; the pid
/// distinguishes processes sharing a temp dir.
static SPILL_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

#[derive(Debug)]
enum SlotState {
    Resident(Graph),
    /// On disk at the slot's spill path; `n` is re-checked on readback.
    Spilled {
        n: usize,
    },
}

#[derive(Debug)]
struct Slot {
    depth: usize,
    m: usize,
    state: SlotState,
}

/// The out-of-core store: keeps at most `max_resident_bytes` of edges in RAM,
/// spilling the deepest (coldest) nodes to disk in the binary format.
///
/// The spill directory is created lazily on first spill and removed when the store
/// is dropped. Each node is one file; a file is deleted as soon as its node is read
/// back.
#[derive(Debug)]
pub struct SpillStore {
    cfg: SpillConfig,
    /// Unique directory holding the spill files, `None` until the first spill.
    dir: Option<PathBuf>,
    slots: Vec<Option<Slot>>,
    resident: usize,
    ledger: SpillLedger,
}

impl SpillStore {
    /// Creates an empty store. No filesystem activity happens until the first spill.
    pub fn new(cfg: SpillConfig) -> SpillStore {
        SpillStore {
            cfg,
            dir: None,
            slots: Vec::new(),
            resident: 0,
            ledger: SpillLedger::default(),
        }
    }

    /// The ledger accessor, also available through [`EdgeStore::ledger`].
    pub fn spill_ledger(&self) -> SpillLedger {
        self.ledger
    }

    fn ensure_dir(&mut self) -> Result<PathBuf> {
        if let Some(dir) = &self.dir {
            return Ok(dir.clone());
        }
        let base = self
            .cfg
            .directory
            .clone()
            .unwrap_or_else(std::env::temp_dir);
        let unique = format!(
            "sgs-spill-{}-{}",
            std::process::id(),
            SPILL_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        );
        let dir = base.join(unique);
        fs::create_dir_all(&dir)?;
        self.dir = Some(dir.clone());
        Ok(dir)
    }

    fn spill_path(dir: &std::path::Path, id: usize) -> PathBuf {
        dir.join(format!("node-{id:08}.sgsb"))
    }

    /// Spills resident nodes (deepest first, oldest first within a depth) until the
    /// store fits its byte budget. Pure function of the put/take sequence.
    fn enforce_budget(&mut self) -> Result<()> {
        while self.resident * EDGE_BYTES > self.cfg.max_resident_bytes {
            // Deepest resident node; ties broken by lowest id (oldest). Skip empty
            // graphs — spilling zero edges frees nothing and would loop forever.
            let victim = self
                .slots
                .iter()
                .enumerate()
                .filter_map(|(id, s)| match s {
                    Some(Slot {
                        depth,
                        m,
                        state: SlotState::Resident(_),
                    }) if *m > 0 => Some((*depth, id, *m)),
                    _ => None,
                })
                .max_by(|a, b| (a.0, std::cmp::Reverse(a.1)).cmp(&(b.0, std::cmp::Reverse(b.1))));
            let Some((_, id, m)) = victim else {
                break;
            };
            let dir = self.ensure_dir()?;
            let path = SpillStore::spill_path(&dir, id);
            let slot = self.slots[id].as_mut().expect("victim exists");
            let SlotState::Resident(g) = &slot.state else {
                unreachable!("victim is resident");
            };
            sgs_graph::io::write_bin_file(g, &path)?;
            let n = g.n();
            let bytes = fs::metadata(&path)?.len();
            slot.state = SlotState::Spilled { n };
            self.resident -= m;
            self.ledger.spilled_nodes += 1;
            self.ledger.spilled_edges += m as u64;
            self.ledger.spilled_bytes += bytes;
            sgs_obs::point!("stream.spill", node = id, edges = m, bytes = bytes);
        }
        Ok(())
    }
}

impl EdgeStore for SpillStore {
    fn put(&mut self, depth: usize, g: Graph) -> Result<NodeHandle> {
        let h = NodeHandle(self.slots.len());
        self.resident += g.m();
        self.slots.push(Some(Slot {
            depth,
            m: g.m(),
            state: SlotState::Resident(g),
        }));
        self.enforce_budget()?;
        Ok(h)
    }

    fn take(&mut self, h: NodeHandle) -> Result<Graph> {
        let slot = self.slots[h.0].take().expect("node handle already taken");
        match slot.state {
            SlotState::Resident(g) => {
                self.resident -= slot.m;
                Ok(g)
            }
            SlotState::Spilled { n } => {
                let dir = self.dir.as_ref().expect("spilled node implies a dir");
                let path = SpillStore::spill_path(dir, h.0);
                let bytes = fs::metadata(&path)?.len();
                let g = sgs_graph::io::read_bin_file(&path)?;
                if g.n() != n || g.m() != slot.m {
                    return Err(GraphError::Io(format!(
                        "spill file {} does not match its node: expected n={n} m={}, \
                         got n={} m={}",
                        path.display(),
                        slot.m,
                        g.n(),
                        g.m()
                    )));
                }
                // Best-effort delete; a leftover file is reclaimed with the dir.
                let _ = fs::remove_file(&path);
                self.ledger.readback_nodes += 1;
                self.ledger.readback_edges += slot.m as u64;
                self.ledger.readback_bytes += bytes;
                sgs_obs::point!("stream.readback", node = h.0, edges = slot.m, bytes = bytes);
                Ok(g)
            }
        }
    }

    fn node_edges(&self, h: NodeHandle) -> usize {
        self.slots[h.0].as_ref().expect("node handle taken").m
    }

    fn resident_edges(&self) -> usize {
        self.resident
    }

    fn ledger(&self) -> SpillLedger {
        self.ledger
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        if let Some(dir) = &self.dir {
            let _ = fs::remove_dir_all(dir);
        }
    }
}

/// Builds the store a [`crate::StreamConfig`] asks for: resident without a spill
/// configuration, spilling to disk with one.
pub(crate) fn build_store(spill: Option<&SpillConfig>) -> Box<dyn EdgeStore> {
    match spill {
        None => Box::new(MemStore::new()),
        Some(cfg) => Box::new(SpillStore::new(cfg.clone())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_graph::generators;

    fn node(n: usize, m: usize, seed: u64) -> Graph {
        // A deterministic multigraph with exactly m edges.
        let mut g = Graph::new(n);
        let mut s = seed;
        for i in 0..m {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (s >> 33) as usize % n;
            let v = (u + 1 + (s as usize % (n - 1))) % n;
            let (u, v) = if u == v { (u, (u + 1) % n) } else { (u, v) };
            g.push_edge_unchecked(u.min(v), u.max(v), 1.0 + (i as f64) * 0.25);
        }
        g
    }

    #[test]
    fn mem_store_round_trips_without_ledger_activity() {
        let mut store = MemStore::new();
        let g = node(10, 25, 3);
        let edges = g.edges().to_vec();
        let h = store.put(0, g).unwrap();
        assert_eq!(store.node_edges(h), 25);
        assert_eq!(store.resident_edges(), 25);
        let back = store.take(h).unwrap();
        assert_eq!(back.edges(), edges.as_slice());
        assert_eq!(store.resident_edges(), 0);
        assert_eq!(store.ledger(), SpillLedger::default());
    }

    #[test]
    fn spill_store_spills_deepest_and_reads_back_bit_exact() {
        // Budget of 30 edges: the third put must push something out.
        let mut store = SpillStore::new(SpillConfig::new(30 * EDGE_BYTES));
        let shallow = node(12, 10, 1);
        let deep = node(12, 15, 2);
        let deeper = node(12, 12, 3);
        let (se, de, dpe) = (
            shallow.edges().to_vec(),
            deep.edges().to_vec(),
            deeper.edges().to_vec(),
        );
        let h0 = store.put(0, shallow).unwrap();
        let h2 = store.put(2, deep).unwrap();
        assert_eq!(store.ledger().spilled_nodes, 0, "under budget: no spill");
        let h1 = store.put(1, deeper).unwrap();
        // 37 edges resident > 30: the depth-2 node (deepest) spills; 22 fit.
        let ledger = store.ledger();
        assert_eq!(ledger.spilled_nodes, 1);
        assert_eq!(ledger.spilled_edges, 15);
        assert!(ledger.spilled_bytes > 0);
        assert_eq!(store.resident_edges(), 22);
        // node_edges needs no readback.
        assert_eq!(store.node_edges(h2), 15);
        assert_eq!(store.ledger().readback_nodes, 0);
        // Every node comes back bit-exact, spilled or not.
        let back2 = store.take(h2).unwrap();
        assert_eq!(back2.edges(), de.as_slice());
        assert_eq!(store.ledger().readback_nodes, 1);
        assert_eq!(store.ledger().readback_edges, 15);
        assert_eq!(store.take(h0).unwrap().edges(), se.as_slice());
        assert_eq!(store.take(h1).unwrap().edges(), dpe.as_slice());
        assert_eq!(store.resident_edges(), 0);
    }

    #[test]
    fn spill_store_ties_break_oldest_first() {
        // Same depth everywhere: the budget forces the oldest node out first.
        let mut store = SpillStore::new(SpillConfig::new(25 * EDGE_BYTES));
        let h0 = store.put(0, node(8, 10, 1)).unwrap();
        let h1 = store.put(0, node(8, 10, 2)).unwrap();
        let _h2 = store.put(0, node(8, 10, 3)).unwrap();
        // 30 > 25: spill h0 (oldest); 20 fit.
        assert_eq!(store.ledger().spilled_nodes, 1);
        assert_eq!(store.resident_edges(), 20);
        let _ = store.take(h1).unwrap();
        assert_eq!(store.ledger().readback_nodes, 0, "h1 was resident");
        let _ = store.take(h0).unwrap();
        assert_eq!(store.ledger().readback_nodes, 1, "h0 was the victim");
    }

    #[test]
    fn spill_store_cleans_its_directory_on_drop() {
        let base = std::env::temp_dir().join("sgs_spill_drop_test");
        std::fs::create_dir_all(&base).unwrap();
        let dir;
        {
            let mut store = SpillStore::new(SpillConfig::new(EDGE_BYTES).with_directory(&base));
            let _ = store.put(0, generators::grid2d(4, 4, 1.0)).unwrap();
            let _ = store.put(1, generators::grid2d(4, 4, 1.0)).unwrap();
            assert!(store.ledger().spilled_nodes > 0);
            dir = store.dir.clone().unwrap();
            assert!(dir.exists());
        }
        assert!(!dir.exists(), "spill dir must be removed on drop");
    }

    #[test]
    fn zero_budget_keeps_empty_graphs_resident() {
        // Empty nodes cannot be usefully spilled; the enforcement loop must not spin.
        let mut store = SpillStore::new(SpillConfig::new(0));
        let h = store.put(0, Graph::new(5)).unwrap();
        assert_eq!(store.resident_edges(), 0);
        assert_eq!(store.take(h).unwrap().n(), 5);
    }
}
