//! Distributed Baswana–Sen spanner (Theorem 2 of the paper).
//!
//! The algorithm is the same clustering process as the shared-memory version in
//! `sgs_spanner::baswana_sen`, expressed as a synchronous message-passing protocol on
//! the [`SyncNetwork`] simulator:
//!
//! * **Sampling propagation** — at iteration `i` every cluster center flips its coin
//!   locally and the outcome travels down the cluster tree, one hop per round. Cluster
//!   radii are bounded by the iteration index, so this costs `O(i)` rounds and messages
//!   only along tree edges.
//! * **Neighbor exchange** — one round in which every vertex tells its neighbors its
//!   cluster id and the cluster's sampled flag (`O(log n)`-bit messages, `O(m)` of them
//!   per iteration).
//! * **Local decision** — each vertex in an unsampled cluster picks the spanner edges
//!   exactly as in the sequential algorithm and notifies the affected neighbors
//!   (`Kill` / `Child` messages).
//!
//! Total: `O(log² n)` rounds, `O(m log n)` messages of `O(log n)` bits — the bounds of
//! Theorem 2, which `round_and_message_bounds_match_theorem_2` asserts.
//!
//! # One kernel, two lookups
//!
//! Both engines run the round kernel of `sgs_spanner::round` over the same [`ViewCsr`]
//! slot rows: one grouping with the explicit lowest-view-index tie-break, one decision
//! rule, one join and one live-prefix retire pass. Only the kernel's `SlotLookup`
//! differs. Here it reads what the last `ClusterInfo` exchange told each vertex, and
//! aliveness is per *half-edge* (`half_edge`), one flag per endpoint: each endpoint
//! kills its own side and tells the other with a `Kill`.
//!
//! * On a clean network, `MirrorInfo` reads a mirror of the exchanged payloads. Every
//!   neighbour is known, so the mirror is exactly what each vertex received (the
//!   messages still travel through the simulator and are billed).
//! * Under faults or reliable delivery, `RecvInfo` reads the payloads that actually
//!   arrived, per directed link, with a freshness bit. A lost broadcast reads as
//!   "unknown", and the decision leaves that edge alive.
//!
//! The retire pass runs right after each exchange, not right after the decisions as
//! in the shared-memory engine. The exchange has just delivered every neighbour's
//! current center, so both engines retire the same slots before the next decision
//! reads them, and the protocol needs no extra message. On a clean network the two
//! engines therefore select exactly the same edges at every `k`
//! (`tests/golden_distributed.rs`). Under faults a lost exchange leaves a neighbour's
//! center unknown, and the slot stays live. The first exchange skips the pass: before
//! any decision it has nothing to drop.
//!
//! The decision sink sends each `Kill` as it is staged, so every vertex sends its
//! Kills in slot order and then its `Child`. Vertex programs run through
//! [`SyncNetwork::par_step`] over density-aware blocks and the batches commit through
//! conflict-free flag writes, so fixed-seed runs are bitwise identical across thread
//! counts. `tests/golden_distributed.rs` pins edge ids and full `NetworkMetrics`.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

use sgs_graph::{EdgeId, Graph, NodeId};
use sgs_spanner::baswana_sen::{Slot, ViewCsr};
use sgs_spanner::round::{self, GroupScratch, RoundBatch, RoundSink, SlotLookup};
use sgs_spanner::{resolve_k, AtomicFlags, BlockPartition, NO_CLUSTER};

use crate::faults::{FaultPlan, ReliabilityConfig, ReliableNet};
use crate::network::{Envelope, MessageSize, NetworkMetrics, SyncNetwork, VertexOutbox};

/// Messages exchanged by the distributed spanner protocol.
///
/// Ids travel as `u32`, so a message is 8 bytes in memory: a clean staged record is 16
/// bytes and a reliable frame 20 (`congest_records_keep_their_compact_layout`).
#[derive(Debug, Clone, Copy)]
pub enum SpannerMsg {
    /// Propagated down a cluster tree: "our cluster's sampled flag for this iteration".
    SampledFlag {
        /// Whether the cluster was sampled.
        sampled: bool,
    },
    /// Neighbor exchange: "my cluster id and its sampled flag".
    ClusterInfo {
        /// Cluster center id of the sender, or [`NO_CLUSTER`] if unclustered.
        center: u32,
        /// Whether the sender's cluster is sampled this iteration.
        sampled: bool,
    },
    /// "The edge with this id is no longer under consideration."
    Kill {
        /// Global edge id being retired (view edge ids are checked to fit in `u32`).
        edge: u32,
    },
    /// "You are my parent in the cluster tree."
    Child,
}

impl MessageSize for SpannerMsg {
    fn size_bits(&self) -> usize {
        // Vertex/edge ids are O(log n) bits; we account 32 bits per id plus flag bits,
        // comfortably within the O(log n) message-size regime of Theorem 2.
        match self {
            SpannerMsg::SampledFlag { .. } => 1,
            SpannerMsg::ClusterInfo { .. } => 33,
            SpannerMsg::Kill { .. } => 32,
            SpannerMsg::Child => 1,
        }
    }
}

/// Configuration for the distributed spanner.
#[derive(Debug, Clone)]
pub struct DistSpannerConfig {
    /// Stretch parameter `k`; defaults to `⌈log₂ n⌉`.
    pub k: Option<usize>,
    /// RNG seed for the cluster sampling.
    pub seed: u64,
    /// Deterministic transport faults to inject; [`FaultPlan::none()`] (the default)
    /// keeps the protocol on the exact pre-fault code path.
    pub faults: FaultPlan,
    /// Runs the protocol over the reliable ack/retransmit delivery layer
    /// ([`ReliableNet`]) when set. Independent of `faults`: the layer can also run on
    /// a clean network (pure overhead measurement), and a faulty network can run
    /// without it (raw degradation).
    pub reliability: Option<ReliabilityConfig>,
}

impl Default for DistSpannerConfig {
    fn default() -> Self {
        DistSpannerConfig {
            k: None,
            seed: 0xD157,
            faults: FaultPlan::none(),
            reliability: None,
        }
    }
}

impl DistSpannerConfig {
    /// Config with an explicit seed.
    pub fn with_seed(seed: u64) -> Self {
        DistSpannerConfig {
            seed,
            ..Default::default()
        }
    }

    /// Overrides the stretch parameter.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = Some(k);
        self
    }

    /// Installs a deterministic fault plan on the transport.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Enables the reliable-delivery (ack/retransmit) layer.
    pub fn with_fault_tolerance(mut self, cfg: ReliabilityConfig) -> Self {
        self.reliability = Some(cfg);
        self
    }

    /// Whether this config departs from the clean, reliability-assuming protocol.
    fn fault_mode(&self) -> bool {
        self.reliability.is_some() || !self.faults.is_none()
    }
}

/// Result of the distributed spanner protocol.
#[derive(Debug, Clone)]
pub struct DistSpannerResult {
    /// Edge ids (into the input graph) selected for the spanner.
    pub edge_ids: Vec<EdgeId>,
    /// Communication metrics of the run.
    pub metrics: NetworkMetrics,
}

/// The protocol's transport: the raw simulator (possibly with faults installed) or
/// the reliable ack/retransmit layer on top of it. Both expose the same vertex-program
/// surface, so the protocol phases are transport-agnostic.
#[derive(Debug)]
enum Net {
    Raw(Box<SyncNetwork<SpannerMsg>>),
    Ft(Box<ReliableNet<SpannerMsg>>),
}

impl Net {
    fn inbox(&self, v: NodeId) -> &[Envelope<SpannerMsg>] {
        match self {
            Net::Raw(net) => net.inbox(v),
            Net::Ft(net) => net.inbox(v),
        }
    }

    fn advance_round(&mut self) {
        match self {
            Net::Raw(net) => net.advance_round(),
            Net::Ft(net) => net.advance_round(),
        }
    }

    fn metrics(&self) -> &NetworkMetrics {
        match self {
            Net::Raw(net) => net.metrics(),
            Net::Ft(net) => net.metrics(),
        }
    }

    /// The link each message of `inbox(v)` arrived on (fault mode only: link
    /// tracking is on whenever faults or the reliable layer are installed).
    fn inbox_links(&self, v: NodeId) -> &[u32] {
        match self {
            Net::Raw(net) => net.inbox_links(v),
            Net::Ft(net) => net.inbox_links(v),
        }
    }

    /// The topology's reverse-link table (fault mode only, like `inbox_links`).
    fn rev_links(&self) -> &[u32] {
        match self {
            Net::Raw(net) => net.rev_links(),
            Net::Ft(net) => net.transport().rev_links(),
        }
    }

    /// The slot of link `from -> to`, if the two are adjacent.
    fn link_index(&self, from: NodeId, to: NodeId) -> Option<usize> {
        match self {
            Net::Raw(net) => net.link_index(from, to),
            Net::Ft(net) => net.transport().link_index(from, to),
        }
    }

    fn par_step<T, B, F>(&mut self, scratch: impl Fn() -> T + Sync, step: F) -> Vec<B>
    where
        T: Send,
        B: Send + Default,
        F: Fn(&mut T, &mut B, NodeId, &[Envelope<SpannerMsg>], &mut VertexOutbox<'_, SpannerMsg>)
            + Sync,
    {
        match self {
            Net::Raw(net) => net.par_step(scratch, step),
            Net::Ft(net) => net.par_step(scratch, step),
        }
    }
}

/// The half-edge of view edge `idx` at its endpoint `v`, whose far endpoint is
/// `other`: `2·idx` at the lower-numbered endpoint, `2·idx + 1` at the higher. Keys
/// the per-endpoint aliveness flags and [`FaultView::slots`].
#[inline]
fn half_edge(idx: usize, v: NodeId, other: NodeId) -> usize {
    2 * idx + usize::from(v > other)
}

/// The half-edge of `v`'s slot `s`.
#[inline]
fn half_of(v: NodeId, s: &Slot) -> usize {
    half_edge(s.idx as usize, v, s.nbr as usize)
}

/// What the vertices know of their neighbours after a `ClusterInfo` exchange: the
/// clean-network [`Mirror`] or the fault-mode [`FaultView`]. The protocol is generic
/// over it, so each mode compiles to its own code path.
trait Knowledge: Sized {
    /// The kernel's view of this knowledge, with the half-edge aliveness flags.
    type Lookup<'a>: SlotLookup
    where
        Self: 'a;
    /// Whether unclustered vertices broadcast too. Under faults a missing message may
    /// have been lost, so silence cannot mean "unclustered".
    const FAULT_MODE: bool;
    fn new(net: &Net, csr: &ViewCsr, m: usize) -> Self;
    /// Takes in the exchange that has just been delivered.
    fn record(&mut self, net: &Net, states: &[VertState]);
    fn lookup<'a>(&'a self, alive: &'a [bool]) -> Self::Lookup<'a>;
}

/// Clean-network knowledge: what each vertex broadcast in the last exchange
/// ([`NO_CLUSTER`] when it did not broadcast). Delivery is guaranteed, so this global
/// mirror is exactly what every neighbour received.
#[derive(Debug)]
struct Mirror {
    center: Vec<u32>,
    sampled: Vec<bool>,
}

impl Knowledge for Mirror {
    type Lookup<'a> = MirrorInfo<'a>;
    const FAULT_MODE: bool = false;

    fn new(_net: &Net, csr: &ViewCsr, _m: usize) -> Mirror {
        Mirror {
            center: vec![NO_CLUSTER; csr.n()],
            sampled: vec![false; csr.n()],
        }
    }

    fn record(&mut self, _net: &Net, states: &[VertState]) {
        for (v, st) in states.iter().enumerate() {
            self.center[v] = st.center;
            self.sampled[v] = st.sampled;
        }
    }

    fn lookup<'a>(&'a self, alive: &'a [bool]) -> MirrorInfo<'a> {
        MirrorInfo {
            center: &self.center,
            sampled: &self.sampled,
            alive,
        }
    }
}

/// The kernel lookup over a [`Mirror`]: every neighbour is known.
#[derive(Clone, Copy)]
struct MirrorInfo<'a> {
    center: &'a [u32],
    sampled: &'a [bool],
    alive: &'a [bool],
}

impl SlotLookup for MirrorInfo<'_> {
    #[inline]
    fn center(&self, _v: NodeId, s: &Slot) -> u32 {
        self.center[s.nbr as usize]
    }

    #[inline]
    fn sampled(&self, _v: NodeId, s: &Slot) -> bool {
        self.sampled[s.nbr as usize]
    }

    #[inline]
    fn known(&self, _v: NodeId, _s: &Slot) -> bool {
        true
    }

    #[inline]
    fn alive(&self, v: NodeId, s: &Slot) -> bool {
        self.alive[half_of(v, s)]
    }
}

/// Fault-mode neighbor knowledge: for every directed link `v -> u`, the last
/// `ClusterInfo` payload `u` sent that actually reached `v`, with a per-exchange
/// freshness bit. Refreshed from the inboxes after every exchange.
#[derive(Debug)]
struct FaultView {
    /// Per view half-edge ([`half_edge`]), the link slot holding the near endpoint's
    /// knowledge of the far one: the slot of `v -> u` for the half of `v` on edge
    /// `{v, u}`. Resolved once, when the view is built.
    slots: Vec<u32>,
    /// Received payloads per link slot.
    c: Vec<u32>,
    s: Vec<bool>,
    fresh: Vec<bool>,
}

impl Knowledge for FaultView {
    type Lookup<'a> = RecvInfo<'a>;
    const FAULT_MODE: bool = true;

    fn new(net: &Net, csr: &ViewCsr, m: usize) -> FaultView {
        let rev = net.rev_links();
        let mut slots = vec![u32::MAX; 2 * m];
        for v in 0..csr.n() {
            for s in csr.row(v) {
                let u = s.nbr as usize;
                if v < u {
                    let vu = net
                        .link_index(v, u)
                        .expect("view edge is not a network link");
                    let idx = s.idx as usize;
                    slots[half_edge(idx, v, u)] = vu as u32;
                    slots[half_edge(idx, u, v)] = rev[vu];
                }
            }
        }
        let links = rev.len();
        FaultView {
            slots,
            c: vec![NO_CLUSTER; links],
            s: vec![false; links],
            fresh: vec![false; links],
        }
    }

    /// Replaces the view with what the exchange actually delivered: a `ClusterInfo`
    /// from `u` arriving at `v` on link `u -> v` is `v`'s knowledge of `u`, stored at
    /// the reverse slot `v -> u`.
    fn record(&mut self, net: &Net, states: &[VertState]) {
        self.fresh.fill(false);
        let rev = net.rev_links();
        for v in 0..states.len() {
            for ((_, msg), &link) in net.inbox(v).iter().zip(net.inbox_links(v)) {
                if let SpannerMsg::ClusterInfo { center, sampled } = *msg {
                    let slot = rev[link as usize] as usize;
                    self.c[slot] = center;
                    self.s[slot] = sampled;
                    self.fresh[slot] = true;
                }
            }
        }
    }

    fn lookup<'a>(&'a self, alive: &'a [bool]) -> RecvInfo<'a> {
        RecvInfo { view: self, alive }
    }
}

/// The kernel lookup over a [`FaultView`]: a neighbour whose last broadcast did not
/// arrive is unknown, unclustered and unsampled.
#[derive(Clone, Copy)]
struct RecvInfo<'a> {
    view: &'a FaultView,
    alive: &'a [bool],
}

impl SlotLookup for RecvInfo<'_> {
    const UNIFORM_SAMPLED: bool = false;

    #[inline]
    fn center(&self, v: NodeId, s: &Slot) -> u32 {
        let slot = self.view.slots[half_of(v, s)] as usize;
        if self.view.fresh[slot] {
            self.view.c[slot]
        } else {
            NO_CLUSTER
        }
    }

    #[inline]
    fn sampled(&self, v: NodeId, s: &Slot) -> bool {
        let slot = self.view.slots[half_of(v, s)] as usize;
        self.view.fresh[slot] && self.view.s[slot]
    }

    #[inline]
    fn known(&self, v: NodeId, s: &Slot) -> bool {
        self.view.fresh[self.view.slots[half_of(v, s)] as usize]
    }

    #[inline]
    fn alive(&self, v: NodeId, s: &Slot) -> bool {
        self.alive[half_of(v, s)]
    }
}

/// The protocol's decision sink: a kill clears the vertex's own half-edge and sends
/// the far endpoint a `Kill` at once, so Kills leave in slot order.
struct KillSender<'a, 'b> {
    batch: &'a mut RoundBatch,
    out: &'a mut VertexOutbox<'b, SpannerMsg>,
    ids: &'a [u32],
}

impl RoundSink for KillSender<'_, '_> {
    #[inline]
    fn add(&mut self, idx: u32) {
        self.batch.adds.push(idx);
    }

    #[inline]
    fn kill(&mut self, v: NodeId, s: &Slot) {
        self.batch.kills.push(half_of(v, s) as u32);
        self.out.send(
            s.nbr as usize,
            SpannerMsg::Kill {
                edge: self.ids[s.idx as usize],
            },
        );
    }
}

/// Flat per-vertex protocol state.
#[derive(Debug, Clone, Copy)]
struct VertState {
    /// Cluster center, or [`NO_CLUSTER`] once the vertex leaves the clustering.
    center: u32,
    /// Parent in the cluster tree, or [`NO_CLUSTER`].
    parent: u32,
    /// This iteration's cluster flag, as known to the vertex.
    sampled: bool,
    /// Whether the flag has arrived this iteration (centers know immediately).
    knows_flag: bool,
}

/// The full protocol state of one `distributed_spanner_on_edges` run.
struct Protocol<K> {
    n: usize,
    k: usize,
    net: Net,
    /// What the vertices know of their neighbours from the latest exchange.
    know: K,
    rng: ChaCha8Rng,
    sample_prob: f64,
    /// The original id of each active edge (ascending; the view order) and their
    /// flat incidence.
    ids: Vec<u32>,
    csr: ViewCsr,
    /// Per vertex, the length of the live prefix of its row: the slots whose own
    /// half-edge is alive and not yet retired.
    live: Vec<u32>,
    /// Vertex blocks for the retire pass.
    part: BlockPartition,
    /// Global edge id → view index (or `u32::MAX`), for `Kill` receipt.
    idx_of: Vec<u32>,
    states: Vec<VertState>,
    /// Cluster-tree children, fed by `Child` messages. Entries can go stale when a
    /// child leaves for another cluster — the resulting extra flag messages are part
    /// of the protocol's (pinned) communication footprint, exactly as before.
    children: Vec<Vec<NodeId>>,
    /// Own-side aliveness per half-edge ([`half_edge`]): each flag is cleared by its
    /// near endpoint's decision or by a `Kill` from the far endpoint.
    alive: Vec<bool>,
    in_spanner: Vec<bool>,
    /// This iteration's center coin flips (index = vertex id).
    coins: Vec<bool>,
}

impl<K: Knowledge> Protocol<K> {
    /// A protocol over the active edges `ids`, sorted and deduplicated.
    fn new(g: &Graph, ids: Vec<EdgeId>, cfg: &DistSpannerConfig) -> Protocol<K> {
        let n = g.n();
        let k = resolve_k(n, cfg.k);
        let csr = ViewCsr::build(
            n,
            ids.iter().map(|&id| {
                let e = g.edge(id);
                (e.u(), e.v(), e.w)
            }),
        );
        let mut idx_of = vec![u32::MAX; g.m()];
        for (idx, &id) in ids.iter().enumerate() {
            idx_of[id] = idx as u32;
        }
        let ids: Vec<u32> = ids
            .into_iter()
            .map(|id| u32::try_from(id).expect("edge id exceeds u32"))
            .collect();
        let m_view = ids.len();
        let net = if let Some(rc) = &cfg.reliability {
            Net::Ft(Box::new(ReliableNet::new(
                g,
                cfg.faults.clone(),
                rc.clone(),
            )))
        } else {
            Net::Raw(Box::new(SyncNetwork::with_faults(g, cfg.faults.clone())))
        };
        let know = K::new(&net, &csr, m_view);
        let live = (0..n).map(|v| csr.row(v).len() as u32).collect();
        let part = BlockPartition::adaptive(n, rayon::current_num_threads(), |v| csr.row(v).len());
        Protocol {
            n,
            k,
            net,
            know,
            rng: ChaCha8Rng::seed_from_u64(cfg.seed),
            sample_prob: (n as f64).powf(-1.0 / k as f64),
            ids,
            csr,
            live,
            part,
            idx_of,
            states: (0..n)
                .map(|v| VertState {
                    center: v as u32,
                    parent: NO_CLUSTER,
                    sampled: false,
                    knows_flag: false,
                })
                .collect(),
            children: vec![Vec::new(); n],
            alive: vec![true; 2 * m_view],
            in_spanner: vec![false; m_view],
            coins: Vec::with_capacity(n),
        }
    }

    /// Runs the whole protocol and returns the selected original edge ids, sorted,
    /// with the run's communication metrics.
    fn run(mut self) -> (Vec<EdgeId>, NetworkMetrics) {
        for it in 1..self.k {
            self.iteration(it);
        }
        self.finale();
        (self.selected_edge_ids(), self.net.metrics().clone())
    }

    /// The original ids of the edges selected so far, ascending (the view order).
    fn selected_edge_ids(&self) -> Vec<EdgeId> {
        self.ids
            .iter()
            .zip(&self.in_spanner)
            .filter_map(|(&id, &inb)| inb.then_some(id as EdgeId))
            .collect()
    }

    /// One clustering iteration: sampling propagation (Phase A), neighbor exchange
    /// (Phase B), the retire pass of the previous iteration's decisions, then local
    /// decisions + notifications (Phase C). Costs `it + 2` simulator rounds.
    ///
    /// Iteration 1 skips the retire pass: no decision has run yet, so no half-edge is
    /// dead and every vertex is its own center, and the pass would drop nothing.
    fn iteration(&mut self, it: usize) {
        self.phase_a(it);
        self.phase_b();
        if it > 1 {
            self.retire();
        }
        self.phase_c();
        self.process_kills_and_children();
    }

    /// Phase A: centers flip this iteration's coin; flags travel one hop per round
    /// down the cluster trees for `it` rounds (cluster radii are below `it`).
    fn phase_a(&mut self, it: usize) {
        let prob = self.sample_prob;
        self.coins.clear();
        for _ in 0..self.n {
            self.coins.push(self.rng.gen::<f64>() < prob);
        }
        let coins = &self.coins;
        self.states.par_iter_mut().enumerate().for_each(|(v, st)| {
            // Reset both flags at iteration start: a vertex that somehow misses the
            // propagation below must act as "not sampled", not replay the previous
            // iteration's flag (see `stale_sampled_flag_is_reset_each_iteration`).
            st.knows_flag = false;
            st.sampled = false;
            if st.center == v as u32 {
                st.sampled = coins[v];
                st.knows_flag = true;
            }
        });
        for _ in 0..it {
            let states = &self.states;
            let children = &self.children;
            self.net.par_step(
                || (),
                |_, _: &mut (), v, _inbox, out: &mut VertexOutbox<'_, SpannerMsg>| {
                    let st = &states[v];
                    if st.knows_flag {
                        for &c in &children[v] {
                            out.send(
                                c,
                                SpannerMsg::SampledFlag {
                                    sampled: st.sampled,
                                },
                            );
                        }
                    }
                },
            );
            self.net.advance_round();
            let net = &self.net;
            self.states.par_iter_mut().enumerate().for_each(|(v, st)| {
                for &(from, ref msg) in net.inbox(v) {
                    if let SpannerMsg::SampledFlag { sampled } = *msg {
                        if st.parent == from && !st.knows_flag {
                            st.sampled = sampled;
                            st.knows_flag = true;
                        }
                    }
                }
            });
        }
    }

    /// Phase B: the neighbor exchange. On a clean network only clustered vertices
    /// broadcast ("no message" reliably means "unclustered"); in fault mode every
    /// vertex does. The knowledge source then takes in what was delivered.
    fn phase_b(&mut self) {
        let states = &self.states;
        self.net.par_step(
            || (),
            |_, _: &mut (), v, _inbox, out: &mut VertexOutbox<'_, SpannerMsg>| {
                let st = &states[v];
                if K::FAULT_MODE || st.center != NO_CLUSTER {
                    out.broadcast(SpannerMsg::ClusterInfo {
                        center: st.center,
                        sampled: st.sampled,
                    });
                }
            },
        );
        self.net.advance_round();
        self.know.record(&self.net, &self.states);
    }

    /// Phase C: every vertex in an unsampled cluster runs the kernel's decision over
    /// its live prefix, sending its `Kill`s as they are staged and then one `Child` to
    /// its new parent. The batches commit through conflict-free flag writes (adds only
    /// store `true`; each half-edge is killed only by its owner), then a sequential
    /// sweep writes the decided vertices' state.
    fn phase_c(&mut self) {
        let n = self.n;
        let info = self.know.lookup(&self.alive);
        let (states, csr, live, ids) = (&self.states, &self.csr, &self.live, &self.ids);
        let batches: Vec<RoundBatch> = self.net.par_step(
            || GroupScratch::new(n),
            |scratch, batch: &mut RoundBatch, v, _inbox, out| {
                let st = &states[v];
                if st.center == NO_CLUSTER || st.sampled {
                    // Unclustered vertices are settled; sampled clusters carry over.
                    return;
                }
                let row = &csr.row(v)[..live[v] as usize];
                let mut sink = KillSender {
                    batch: &mut *batch,
                    out: &mut *out,
                    ids,
                };
                let joined = round::decide(v, st.center, row, info, scratch, &mut sink);
                let (center, parent) = joined.map_or((NO_CLUSTER, NO_CLUSTER), |(c, s)| (c, s.nbr));
                if parent != NO_CLUSTER {
                    out.send(parent as usize, SpannerMsg::Child);
                }
                batch.verts.push(round::Decision {
                    v: v as u32,
                    center,
                    parent,
                });
            },
        );
        round::commit(&batches, &mut self.in_spanner, &mut self.alive);
        for dec in batches.iter().flat_map(|batch| &batch.verts) {
            let v = dec.v as usize;
            self.states[v].center = dec.center;
            self.states[v].parent = dec.parent;
            self.children[v].clear();
        }
        self.net.advance_round();
    }

    /// Delivers the Phase C notifications: `Kill` clears the receiver's side of the
    /// edge, `Child` extends the receiver's cluster-tree children (inboxes are sorted
    /// by sender, so the children order is reproducible). Runs in parallel over
    /// vertices: a `Kill` only flips the *receiver's* side of the edge (disjoint per
    /// vertex) and each `children[v]` is written only by its owner, walking its own
    /// inbox in order — identical to the sequential sweep.
    fn process_kills_and_children(&mut self) {
        let net = &self.net;
        let idx_of = &self.idx_of;
        let alive = AtomicFlags::new(&mut self.alive);
        self.children
            .par_iter_mut()
            .enumerate()
            .for_each(|(v, children)| {
                for &(from, msg) in net.inbox(v) {
                    match msg {
                        SpannerMsg::Kill { edge } => {
                            let idx = idx_of[edge as usize];
                            debug_assert_ne!(idx, u32::MAX, "Kill for an edge outside the view");
                            // The sender is the edge's other endpoint.
                            alive.set(half_edge(idx as usize, v, from as usize), false);
                        }
                        SpannerMsg::Child => children.push(from as usize),
                        _ => {}
                    }
                }
            });
    }

    /// The kernel's retire pass, right after an exchange has delivered every
    /// neighbour's current center: each vertex drops from its live prefix the killed
    /// half-edges and the edges into its own cluster. No message is needed.
    fn retire(&mut self) {
        let info = self.know.lookup(&self.alive);
        let states = &self.states;
        round::retire(
            &mut self.csr,
            &mut self.live,
            &self.part,
            |v| states[v].center,
            info,
        );
    }

    /// Phase 2: final vertex–cluster joining — one more exchange, then every vertex
    /// keeps the lightest live edge into each adjacent foreign cluster. In fault mode
    /// every live edge whose far endpoint is unheard-from, or where both sides ended
    /// up unclustered (a pairing the clean protocol never leaves alive), is kept as
    /// well, so lost exchanges only make the spanner *larger*.
    fn finale(&mut self) {
        self.phase_b();
        self.retire();
        let n = self.n;
        let info = self.know.lookup(&self.alive);
        let (states, csr, live) = (&self.states, &self.csr, &self.live);
        let batches: Vec<RoundBatch> = self.net.par_step(
            || GroupScratch::new(n),
            |scratch, batch: &mut RoundBatch, v, _inbox, _out| {
                let row = &csr.row(v)[..live[v] as usize];
                round::join(v, states[v].center, row, info, scratch, &mut batch.adds);
            },
        );
        if K::FAULT_MODE {
            for (v, st) in states.iter().enumerate() {
                let unclustered = st.center == NO_CLUSTER;
                for s in &csr.row(v)[..live[v] as usize] {
                    if !info.known(v, s) || (unclustered && info.center(v, s) == NO_CLUSTER) {
                        self.in_spanner[s.idx as usize] = true;
                    }
                }
            }
        }
        round::commit(&batches, &mut self.in_spanner, &mut self.alive);
    }
}

/// Runs the distributed Baswana–Sen spanner on the communication graph `g`, restricted
/// to the edges listed in `active` (global edge ids, in any order, duplicates allowed).
/// Passing all edge ids computes a spanner of `g` itself; the bundle construction
/// passes residual edge sets. The returned ids are sorted and deduplicated.
pub fn distributed_spanner_on_edges(
    g: &Graph,
    active: &[EdgeId],
    cfg: &DistSpannerConfig,
) -> DistSpannerResult {
    let _span = sgs_obs::span!("congest.spanner", edges = active.len());
    let mut ids = active.to_vec();
    ids.sort_unstable();
    ids.dedup();
    let n = g.n();
    if n <= 2 || resolve_k(n, cfg.k) <= 1 || ids.is_empty() {
        return DistSpannerResult {
            edge_ids: ids,
            metrics: NetworkMetrics::default(),
        };
    }
    let (edge_ids, metrics) = if cfg.fault_mode() {
        Protocol::<FaultView>::new(g, ids, cfg).run()
    } else {
        Protocol::<Mirror>::new(g, ids, cfg).run()
    };
    DistSpannerResult { edge_ids, metrics }
}

/// Runs the distributed Baswana–Sen spanner on all edges of `g`.
pub fn distributed_spanner(g: &Graph, cfg: &DistSpannerConfig) -> DistSpannerResult {
    let active: Vec<EdgeId> = (0..g.m()).collect();
    distributed_spanner_on_edges(g, &active, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_graph::{connectivity::is_connected, generators, stretch};

    fn verify_spanner(g: &Graph, result: &DistSpannerResult, k: usize) {
        let h = g.with_edge_ids(&result.edge_ids);
        if is_connected(g) {
            assert!(is_connected(&h), "distributed spanner must stay connected");
        }
        let s = stretch::max_stretch(g, &h);
        assert!(
            s <= (2 * k - 1) as f64 + 1e-9,
            "stretch {s} exceeds 2k-1 with k = {k}"
        );
    }

    #[test]
    fn produces_a_valid_spanner_on_dense_graph() {
        let g = generators::complete(64, 1.0);
        let k = (64f64).log2().ceil() as usize;
        let r = distributed_spanner(&g, &DistSpannerConfig::with_seed(3));
        verify_spanner(&g, &r, k);
        assert!(
            r.edge_ids.len() < g.m() / 2,
            "spanner should be much smaller than K_n"
        );
    }

    #[test]
    fn produces_a_valid_spanner_on_random_graphs() {
        for seed in 0..3u64 {
            let g = generators::erdos_renyi_weighted(100, 0.2, 0.5, 2.0, seed);
            if !is_connected(&g) {
                continue;
            }
            let k = (100f64).log2().ceil() as usize;
            let r = distributed_spanner(&g, &DistSpannerConfig::with_seed(seed + 7));
            verify_spanner(&g, &r, k);
        }
    }

    #[test]
    fn round_and_message_bounds_match_theorem_2() {
        let n = 128usize;
        let g = generators::erdos_renyi(n, 0.15, 1.0, 11);
        let m = g.m() as u64;
        let k = (n as f64).log2().ceil();
        let r = distributed_spanner(&g, &DistSpannerConfig::with_seed(5));
        // Rounds: O(log^2 n). Constant chosen generously but meaningfully.
        let round_bound = (4.0 * k * k) as usize + 10;
        assert!(
            r.metrics.rounds <= round_bound,
            "rounds {} > {round_bound}",
            r.metrics.rounds
        );
        // Communication: O(m log n) messages.
        let msg_bound = 6 * m * k as u64 + 1000;
        assert!(
            r.metrics.messages <= msg_bound,
            "messages {} > {msg_bound}",
            r.metrics.messages
        );
        // Message size: O(log n) bits.
        assert!(r.metrics.max_message_bits <= 64);
    }

    #[test]
    fn restricting_to_a_subset_of_edges_only_uses_those_edges() {
        let g = generators::complete(30, 1.0);
        let active: Vec<EdgeId> = (0..g.m()).filter(|id| id % 2 == 0).collect();
        let r = distributed_spanner_on_edges(&g, &active, &DistSpannerConfig::with_seed(1));
        let active_set: std::collections::HashSet<_> = active.iter().copied().collect();
        for id in &r.edge_ids {
            assert!(
                active_set.contains(id),
                "edge {id} was not in the active set"
            );
        }
    }

    #[test]
    fn unsorted_active_set_is_normalised() {
        // The old per-vertex BTreeMaps sorted the active ids implicitly; the flat view
        // must behave identically when the caller passes an arbitrary order. At
        // k = 1 the trivial path returns the whole active set, normalised the same way.
        let g = generators::erdos_renyi(60, 0.3, 1.0, 5);
        let sorted: Vec<EdgeId> = (0..g.m()).collect();
        let mut shuffled: Vec<EdgeId> = sorted.iter().rev().copied().collect();
        shuffled.extend_from_slice(&sorted[..10]); // duplicates too
        for cfg in [
            DistSpannerConfig::with_seed(2),
            DistSpannerConfig::with_seed(2).with_k(1),
        ] {
            let a = distributed_spanner_on_edges(&g, &sorted, &cfg);
            let b = distributed_spanner_on_edges(&g, &shuffled, &cfg);
            assert_eq!(a.edge_ids, b.edge_ids, "k = {:?}", cfg.k);
            assert_eq!(a.metrics, b.metrics, "k = {:?}", cfg.k);
        }
    }

    /// Every CONGEST buffer holds one of these records per message, so their width
    /// is the simulator's memory per message in flight.
    #[test]
    fn congest_records_keep_their_compact_layout() {
        use crate::faults::{Delayed, Frame, Pending};
        use crate::network::Staged;
        use std::mem::size_of;
        assert!(size_of::<SpannerMsg>() <= 8);
        assert!(size_of::<Staged<SpannerMsg>>() <= 16);
        assert!(size_of::<Staged<Frame>>() <= 12);
        assert!(size_of::<Delayed<Frame>>() <= 12);
        assert!(size_of::<Pending<SpannerMsg>>() <= 20);
        assert!(size_of::<Envelope<SpannerMsg>>() <= 12);
    }

    #[test]
    fn trivial_inputs() {
        let g = Graph::from_tuples(2, vec![(0, 1, 1.0)]).unwrap();
        let r = distributed_spanner(&g, &DistSpannerConfig::default());
        assert_eq!(r.edge_ids, vec![0]);
        let empty = Graph::new(4);
        let r = distributed_spanner(&empty, &DistSpannerConfig::default());
        assert!(r.edge_ids.is_empty());
    }
    use sgs_graph::Graph;

    #[test]
    fn deterministic_per_seed() {
        let g = generators::erdos_renyi(80, 0.2, 1.0, 9);
        let a = distributed_spanner(&g, &DistSpannerConfig::with_seed(4));
        let b = distributed_spanner(&g, &DistSpannerConfig::with_seed(4));
        assert_eq!(a.edge_ids, b.edge_ids);
        assert_eq!(a.metrics, b.metrics);
    }

    /// Regression test for the stale-sampled-flag bug: `VertState::sampled` must be
    /// reset at iteration start, so a vertex that misses the flag propagation acts as
    /// "not sampled" instead of replaying the previous iteration's flag.
    ///
    /// The shipped protocol always delivers the flag (propagation runs `it` rounds
    /// against a cluster radius of at most `it − 1`), so the miss is *simulated*: after
    /// the first iteration every cluster tree is severed (children lists cleared) in
    /// two otherwise identical runs, and in one of them every non-center vertex is
    /// additionally poisoned with `sampled = true`. With the reset, the poison is dead
    /// state and both runs must agree bit-for-bit; without it, the poisoned run
    /// broadcasts the stale flags in Phase B and selects a different spanner.
    #[test]
    fn stale_sampled_flag_is_reset_each_iteration() {
        let g = generators::erdos_renyi(120, 0.15, 1.0, 21);
        let cfg = DistSpannerConfig::with_seed(6);
        let active: Vec<EdgeId> = (0..g.m()).collect();

        let run = |poison: bool| -> (Vec<EdgeId>, NetworkMetrics) {
            let mut proto = Protocol::<Mirror>::new(&g, active.clone(), &cfg);
            proto.iteration(1);
            for children in proto.children.iter_mut() {
                children.clear(); // sever every cluster tree: propagation now misses
            }
            if poison {
                for (v, st) in proto.states.iter_mut().enumerate() {
                    if st.center != NO_CLUSTER && st.center != v as u32 {
                        st.sampled = true; // the stale flag the reset must erase
                    }
                }
            }
            for it in 2..proto.k {
                proto.iteration(it);
            }
            proto.finale();
            (proto.selected_edge_ids(), proto.net.metrics().clone())
        };

        let (clean_ids, clean_metrics) = run(false);
        let (poisoned_ids, poisoned_metrics) = run(true);
        assert_eq!(
            clean_ids, poisoned_ids,
            "a stale sampled flag leaked into the protocol output"
        );
        assert_eq!(clean_metrics, poisoned_metrics);
    }
}
