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
//! Theorem 2, which experiment E2 measures.
//!
//! # Engine design (allocation-free hot path)
//!
//! The protocol state mirrors the shared-memory engine of `sgs_spanner::baswana_sen`:
//!
//! * The per-vertex "alive incident edges" `BTreeMap` is gone. Active edges live in a
//!   [`ViewCsr`] incidence — the same structure (literally the same type) the
//!   shared-memory engine uses, whose slots carry each neighbour and weight — plus
//!   the `u32` original id per edge, and aliveness is one bitmap over half-edges, one
//!   flag per endpoint (`half_edge`). (Per-endpoint, not per-edge: the two sides of
//!   an edge can disagree for the tail of an iteration, and the duplicate `Kill`
//!   traffic this produces is part of the pinned communication metrics.) The protocol
//!   never retires slots, so its rows keep ascending view order.
//! * The per-vertex "neighbor info" `BTreeMap` is gone. What a vertex broadcast in the
//!   last exchange is mirrored in two flat arrays (`reported_center` /
//!   `reported_sampled`); a vertex only ever consults entries of *adjacent* vertices,
//!   which is exactly the set of `ClusterInfo` messages it received, so the mirror is
//!   observationally identical to the per-vertex map (and the messages themselves
//!   still travel through the simulator and are billed).
//! * Per-round vertex execution runs through [`SyncNetwork::par_step`] under rayon,
//!   over density-aware `BlockPartition` blocks: decision sweeps use the
//!   cluster-stamped scratch pattern and emit flat per-block add/kill batches. The
//!   batches are committed by a parallel conflict-free flag pass (spanner adds only
//!   ever store `true`, and each vertex retires only its *own* side of an edge, so
//!   every mask slot sees writes of a single value) plus a small sequential per-vertex
//!   state sweep — fixed-seed runs stay bitwise identical across thread counts.
//!
//! The rewrite changes *nothing* observable: `tests/golden_distributed.rs` pins edge
//! ids and full `NetworkMetrics` captured from the pre-rewrite implementation.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

use sgs_graph::{EdgeId, Graph, NodeId};
use sgs_spanner::baswana_sen::{Slot, ViewCsr};
use sgs_spanner::AtomicFlags;

use crate::faults::{FaultPlan, ReliabilityConfig, ReliableNet};
use crate::network::{Envelope, MessageSize, NetworkMetrics, SyncNetwork, VertexOutbox};

/// Messages exchanged by the distributed spanner protocol.
#[derive(Debug, Clone, Copy)]
pub enum SpannerMsg {
    /// Propagated down a cluster tree: "our cluster's sampled flag for this iteration".
    SampledFlag {
        /// Whether the cluster was sampled.
        sampled: bool,
    },
    /// Neighbor exchange: "my cluster id and its sampled flag".
    ClusterInfo {
        /// Cluster center id of the sender (or `None` if unclustered).
        center: Option<NodeId>,
        /// Whether the sender's cluster is sampled this iteration.
        sampled: bool,
    },
    /// "The edge with this id is no longer under consideration."
    Kill {
        /// Global edge id being retired.
        edge: EdgeId,
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

/// Sentinel for "no cluster" / "no parent" in the flat state arrays.
const NONE32: u32 = u32::MAX;

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

/// What a vertex knows about a neighbor's last `ClusterInfo` broadcast.
///
/// The clean protocol reads the simulator-global `reported_*` mirrors — valid only
/// because delivery is guaranteed ([`MirrorInfo`], `known` ≡ true, compiled to the
/// exact pre-fault loads). Under faults, knowledge is whatever actually *arrived*
/// ([`RecvInfo`]): per-directed-link payloads with a freshness bit, so a lost
/// broadcast reads as "unknown" and the decision sweeps degrade conservatively
/// instead of acting on stale state.
///
/// Every lookup names the edge the way its call site already has it: `other` is the
/// far endpoint of view edge `idx` and `half` is [`half_edge`]`(idx, v, other)`, the
/// near endpoint being `v`.
trait NbrInfo: Copy + Sync {
    /// `other`'s cluster center as known to `v` ([`NONE32`] = unclustered or unknown).
    fn center(&self, other: NodeId, half: usize) -> u32;
    /// `other`'s sampled flag as known to `v` (false when unknown).
    fn sampled(&self, other: NodeId, half: usize) -> bool;
    /// Whether `v` actually holds fresh info about `other` from the last exchange.
    fn known(&self, other: NodeId, half: usize) -> bool;
}

/// The half-edge of view edge `idx` at its endpoint `v`, whose far endpoint is
/// `other`: `2·idx` at the lower-numbered endpoint, `2·idx + 1` at the higher. Keys
/// the per-endpoint aliveness flags and [`FaultView::slots`].
#[inline]
fn half_edge(idx: usize, v: NodeId, other: NodeId) -> usize {
    2 * idx + usize::from(v > other)
}

/// Reliable-delivery knowledge: the global broadcast mirrors.
#[derive(Clone, Copy)]
struct MirrorInfo<'a> {
    rep_c: &'a [u32],
    rep_s: &'a [bool],
}

impl NbrInfo for MirrorInfo<'_> {
    #[inline]
    fn center(&self, other: NodeId, _half: usize) -> u32 {
        self.rep_c[other]
    }

    #[inline]
    fn sampled(&self, other: NodeId, _half: usize) -> bool {
        self.rep_s[other]
    }

    #[inline]
    fn known(&self, _other: NodeId, _half: usize) -> bool {
        true
    }
}

/// Received-message knowledge for fault mode, backed by a [`FaultView`].
#[derive(Clone, Copy)]
struct RecvInfo<'a>(&'a FaultView);

impl NbrInfo for RecvInfo<'_> {
    #[inline]
    fn center(&self, _other: NodeId, half: usize) -> u32 {
        let s = self.0.slots[half] as usize;
        if self.0.fresh[s] {
            self.0.c[s]
        } else {
            NONE32
        }
    }

    #[inline]
    fn sampled(&self, _other: NodeId, half: usize) -> bool {
        let s = self.0.slots[half] as usize;
        self.0.fresh[s] && self.0.s[s]
    }

    #[inline]
    fn known(&self, _other: NodeId, half: usize) -> bool {
        self.0.fresh[self.0.slots[half] as usize]
    }
}

/// Fault-mode neighbor knowledge: for every directed link `v -> u`, the last
/// `ClusterInfo` payload `u` sent that actually reached `v`, with a per-exchange
/// freshness bit. Refreshed from the inboxes after every Phase B exchange.
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

impl FaultView {
    fn new(net: &Net, csr: &ViewCsr, m: usize) -> FaultView {
        let rev = net.rev_links();
        let mut slots = vec![NONE32; 2 * m];
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
            c: vec![NONE32; links],
            s: vec![false; links],
            fresh: vec![false; links],
        }
    }

    /// Replaces the view with what the latest exchange actually delivered: a
    /// `ClusterInfo` from `u` arriving at `v` on link `u -> v` is `v`'s knowledge
    /// of `u`, stored at the reverse slot `v -> u`.
    fn refresh(&mut self, net: &Net, n: usize) {
        self.fresh.fill(false);
        let rev = net.rev_links();
        for v in 0..n {
            for ((_, msg), &link) in net.inbox(v).iter().zip(net.inbox_links(v)) {
                if let SpannerMsg::ClusterInfo { center, sampled } = *msg {
                    let slot = rev[link as usize] as usize;
                    self.c[slot] = center.map_or(NONE32, |c| c as u32);
                    self.s[slot] = sampled;
                    self.fresh[slot] = true;
                }
            }
        }
    }
}

/// Flat per-vertex protocol state. The old per-vertex `BTreeMap`s (alive edges,
/// neighbor info) live in the [`Protocol`]'s global flat arrays instead.
#[derive(Debug, Clone, Copy)]
struct VertState {
    /// Cluster center, or [`NONE32`] once the vertex leaves the clustering.
    center: u32,
    /// Parent in the cluster tree, or [`NONE32`].
    parent: u32,
    /// This iteration's cluster flag, as known to the vertex.
    sampled: bool,
    /// Whether the flag has arrived this iteration (centers know immediately).
    knows_flag: bool,
}

/// Per-worker scratch for the decision sweeps: cluster-stamped slots plus a
/// touched-list, giving O(degree) grouping with O(degree) cleanup and zero per-vertex
/// allocation (the shared-memory engine's `RoundScratch` pattern).
struct ClusterScratch {
    stamp: u32,
    last_seen: Vec<u32>,
    best_w: Vec<f64>,
    best_idx: Vec<u32>,
    /// The far endpoint of the group's best edge.
    best_nbr: Vec<u32>,
    /// The adjacent cluster's sampled flag, stored once when the group is created
    /// (every member reports the same flag).
    grp_sampled: Vec<bool>,
    touched: Vec<u32>,
}

impl ClusterScratch {
    fn new(n: usize) -> ClusterScratch {
        ClusterScratch {
            stamp: 0,
            last_seen: vec![0; n],
            best_w: vec![0.0; n],
            best_idx: vec![0; n],
            best_nbr: vec![0; n],
            grp_sampled: vec![false; n],
            touched: Vec::new(),
        }
    }

    /// Groups `v`'s own-side alive edges (per the half-edge flags `alive`) by the
    /// neighbor's cluster as known through `info` into the stamped slots + touched
    /// list: per group the lightest edge (first-seen on ties, i.e. lowest edge id,
    /// since protocol rows stay ascending), its far endpoint and the cluster's sampled
    /// flag. Both the Phase C decision sweep and the final joining sweep run exactly
    /// this grouping.
    fn group_row<I: NbrInfo>(
        &mut self,
        v: NodeId,
        c_v: u32,
        row: &[Slot],
        alive: &[bool],
        info: I,
    ) {
        self.stamp += 1;
        let stamp = self.stamp;
        self.touched.clear();
        for s in row {
            let (idx32, other, w) = (s.idx, s.nbr as usize, s.w);
            let half = half_edge(idx32 as usize, v, other);
            if !alive[half] {
                continue;
            }
            let c_o = info.center(other, half);
            if c_o == NONE32 || c_o == c_v {
                // Neighbor is unclustered, unheard-from (fault mode), or shares the
                // cluster; intra-cluster edges retire in the local sweep.
                continue;
            }
            let c = c_o as usize;
            if self.last_seen[c] != stamp {
                self.last_seen[c] = stamp;
                self.best_w[c] = w;
                self.best_idx[c] = idx32;
                self.best_nbr[c] = s.nbr;
                self.grp_sampled[c] = info.sampled(other, half);
                self.touched.push(c_o);
            } else if w < self.best_w[c] {
                self.best_w[c] = w;
                self.best_idx[c] = idx32;
                self.best_nbr[c] = s.nbr;
            }
        }
    }
}

/// Compact Phase C outcome of one vertex.
#[derive(Debug, Clone, Copy)]
struct PhaseCDecision {
    v: u32,
    /// New cluster center, or [`NONE32`] when the vertex leaves the clustering.
    new_center: u32,
    /// New parent (the endpoint behind the joining edge), or [`NONE32`].
    new_parent: u32,
}

/// Phase C decisions of one vertex block: per-vertex records plus the flat lists of
/// added view indices and killed half-edges ([`half_edge`]).
#[derive(Debug, Default)]
struct PhaseCBatch {
    verts: Vec<PhaseCDecision>,
    adds: Vec<u32>,
    kills: Vec<u32>,
}

/// Joining-phase adds of one vertex block.
#[derive(Debug, Default)]
struct JoinBatch {
    adds: Vec<u32>,
}

/// The full protocol state of one `distributed_spanner_on_edges` run.
struct Protocol {
    n: usize,
    k: usize,
    net: Net,
    /// Per-link received neighbor knowledge; `Some` exactly in fault mode (faults
    /// installed and/or the reliable layer enabled), where the global mirrors below
    /// would assume delivery that may not have happened.
    fault_view: Option<FaultView>,
    rng: ChaCha8Rng,
    sample_prob: f64,
    /// The original id of each active edge (ascending; the view order) and their
    /// flat incidence.
    ids: Vec<u32>,
    csr: ViewCsr,
    /// Global edge id → view index (or [`NONE32`]), for `Kill` receipt.
    idx_of: Vec<u32>,
    states: Vec<VertState>,
    /// Cluster-tree children, fed by `Child` messages. Entries can go stale when a
    /// child leaves for another cluster — the resulting extra flag messages are part
    /// of the protocol's (pinned) communication footprint, exactly as before.
    children: Vec<Vec<NodeId>>,
    /// Own-side aliveness per half-edge ([`half_edge`]): each flag is read and
    /// written only by its near endpoint.
    alive: Vec<bool>,
    in_spanner: Vec<bool>,
    /// What each vertex broadcast in the most recent exchange ([`NONE32`] when it did
    /// not broadcast): the simulator-global mirror of the `ClusterInfo` payloads.
    reported_center: Vec<u32>,
    reported_sampled: Vec<bool>,
    /// This iteration's center coin flips (index = vertex id).
    coins: Vec<bool>,
}

impl Protocol {
    fn new(g: &Graph, active: &[EdgeId], cfg: &DistSpannerConfig) -> Protocol {
        let n = g.n();
        let k = resolve_k(n, cfg);
        // Normalise the active set (the old per-vertex BTreeMaps sorted and
        // deduplicated implicitly).
        let mut ids: Vec<EdgeId> = active.to_vec();
        ids.sort_unstable();
        ids.dedup();
        let csr = ViewCsr::build(
            n,
            ids.iter().map(|&id| {
                let e = g.edge(id);
                (e.u, e.v, e.w)
            }),
        );
        let mut idx_of = vec![NONE32; g.m()];
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
        let fault_view = cfg.fault_mode().then(|| FaultView::new(&net, &csr, m_view));
        Protocol {
            n,
            k,
            net,
            fault_view,
            rng: ChaCha8Rng::seed_from_u64(cfg.seed),
            sample_prob: (n as f64).powf(-1.0 / k as f64),
            ids,
            csr,
            idx_of,
            states: (0..n)
                .map(|v| VertState {
                    center: v as u32,
                    parent: NONE32,
                    sampled: false,
                    knows_flag: false,
                })
                .collect(),
            children: vec![Vec::new(); n],
            alive: vec![true; 2 * m_view],
            in_spanner: vec![false; m_view],
            reported_center: vec![NONE32; n],
            reported_sampled: vec![false; n],
            coins: Vec::with_capacity(n),
        }
    }

    /// Runs the whole protocol and returns the selected original edge ids, sorted.
    fn run(&mut self) -> Vec<EdgeId> {
        for it in 1..self.k {
            self.iteration(it);
        }
        self.finale();
        self.selected_edge_ids()
    }

    /// The original ids of the edges selected so far, sorted.
    fn selected_edge_ids(&self) -> Vec<EdgeId> {
        let mut edge_ids: Vec<EdgeId> = self
            .ids
            .iter()
            .zip(&self.in_spanner)
            .filter_map(|(&id, &inb)| inb.then_some(id as EdgeId))
            .collect();
        edge_ids.sort_unstable();
        edge_ids
    }

    /// One clustering iteration: sampling propagation (Phase A), neighbor exchange
    /// (Phase B), local decisions + notifications (Phase C), then the local
    /// intra-cluster cleanup. Costs `it + 2` simulator rounds.
    fn iteration(&mut self, it: usize) {
        self.phase_a(it);
        self.phase_b();
        self.phase_c();
        self.process_kills_and_children();
        self.retain_intra_cluster();
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
                        if st.parent == from as u32 && !st.knows_flag {
                            st.sampled = sampled;
                            st.knows_flag = true;
                        }
                    }
                }
            });
        }
    }

    /// Phase B: the neighbor exchange. In the clean protocol every *clustered* vertex
    /// broadcasts its cluster info and the payloads are mirrored into the
    /// `reported_*` arrays ("no message" reliably means "unclustered"). In fault mode
    /// that inference is unsound — a missing message may simply have been lost — so
    /// *every* vertex broadcasts (unclustered ones with `center: None`) and each
    /// vertex's knowledge is rebuilt from what actually reached it
    /// ([`FaultView::refresh`]).
    fn phase_b(&mut self) {
        let fault_mode = self.fault_view.is_some();
        if !fault_mode {
            for (v, st) in self.states.iter().enumerate() {
                self.reported_center[v] = st.center;
                self.reported_sampled[v] = st.sampled;
            }
        }
        let states = &self.states;
        self.net.par_step(
            || (),
            |_, _: &mut (), v, _inbox, out: &mut VertexOutbox<'_, SpannerMsg>| {
                let st = &states[v];
                if fault_mode || st.center != NONE32 {
                    out.broadcast(SpannerMsg::ClusterInfo {
                        center: (st.center != NONE32).then_some(st.center as usize),
                        sampled: st.sampled,
                    });
                }
            },
        );
        self.net.advance_round();
        let Protocol {
            net, fault_view, n, ..
        } = self;
        if let Some(fv) = fault_view {
            fv.refresh(net, *n);
        }
    }

    /// Phase C: vertices in unsampled clusters decide (two stamped-scratch passes over
    /// their incidence row), stage `Kill` / `Child` notifications, and the flat
    /// decision batches are committed by a parallel conflict-free flag pass plus a
    /// small sequential per-vertex state sweep. Dispatches on the neighbor-knowledge
    /// source; the generic body is [`phase_c_impl`].
    fn phase_c(&mut self) {
        let Protocol {
            net,
            n,
            ids,
            csr,
            states,
            children,
            alive,
            in_spanner,
            reported_center,
            reported_sampled,
            fault_view,
            ..
        } = self;
        let sw = SweepState {
            net,
            n: *n,
            ids,
            csr,
            states,
            children,
            alive,
            in_spanner,
        };
        match fault_view {
            Some(fv) => phase_c_impl(sw, RecvInfo(fv)),
            None => phase_c_impl(
                sw,
                MirrorInfo {
                    rep_c: reported_center,
                    rep_s: reported_sampled,
                },
            ),
        }
    }

    /// Delivers the Phase C notifications: `Kill` retires the receiver's side of the
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
                            let idx = idx_of[edge];
                            debug_assert_ne!(idx, NONE32, "Kill for an edge outside the view");
                            // The sender is the edge's other endpoint.
                            alive.set(half_edge(idx as usize, v, from), false);
                        }
                        SpannerMsg::Child => children.push(from),
                        _ => {}
                    }
                }
            });
    }

    /// Intra-cluster edges retire locally (no message needed: both endpoints can see
    /// the shared center from the latest exchange — in fault mode only if the
    /// exchange actually arrived). Each endpoint drops its own side; the per-side
    /// flag writes are disjoint, so the sweep runs in parallel over vertices.
    fn retain_intra_cluster(&mut self) {
        let Protocol {
            states,
            csr,
            alive,
            reported_center,
            reported_sampled,
            fault_view,
            ..
        } = self;
        match fault_view {
            Some(fv) => retain_intra_cluster_impl(states, csr, alive, RecvInfo(fv)),
            None => retain_intra_cluster_impl(
                states,
                csr,
                alive,
                MirrorInfo {
                    rep_c: reported_center,
                    rep_s: reported_sampled,
                },
            ),
        }
    }

    /// Phase 2: final vertex–cluster joining — one more exchange, then every vertex
    /// keeps the lightest still-alive edge into each adjacent foreign cluster. In
    /// fault mode an extra conservative pass keeps every still-alive edge whose
    /// endpoint knowledge is missing or mutually unclustered, so lost exchanges can
    /// only make the spanner *larger*, never disconnect the surviving computation.
    fn finale(&mut self) {
        self.phase_b();
        let Protocol {
            net,
            n,
            ids,
            csr,
            states,
            children,
            alive,
            in_spanner,
            reported_center,
            reported_sampled,
            fault_view,
            ..
        } = self;
        let sw = SweepState {
            net,
            n: *n,
            ids,
            csr,
            states,
            children,
            alive,
            in_spanner,
        };
        match fault_view {
            Some(fv) => finale_impl(sw, RecvInfo(fv), true),
            None => finale_impl(
                sw,
                MirrorInfo {
                    rep_c: reported_center,
                    rep_s: reported_sampled,
                },
                false,
            ),
        }
    }
}

/// Disjoint mutable borrows of the protocol state shared by the generic decision
/// sweeps ([`phase_c_impl`], [`finale_impl`]) — destructured out of [`Protocol`] so
/// the neighbor-knowledge source (which borrows other `Protocol` fields) can be
/// passed alongside.
struct SweepState<'a> {
    net: &'a mut Net,
    n: usize,
    ids: &'a [u32],
    csr: &'a ViewCsr,
    states: &'a mut Vec<VertState>,
    children: &'a mut Vec<Vec<NodeId>>,
    alive: &'a mut Vec<bool>,
    in_spanner: &'a mut Vec<bool>,
}

/// The Phase C body, generic over the neighbor-knowledge source. With [`MirrorInfo`]
/// (`known` ≡ true) this compiles to exactly the pre-fault decision logic; with
/// [`RecvInfo`] every kill is gated on *fresh* knowledge of the neighbor, so a lost
/// broadcast degrades to "leave the edge alive" (a possibly larger spanner), never to
/// acting on stale state.
fn phase_c_impl<I: NbrInfo>(sw: SweepState<'_>, info: I) {
    let SweepState {
        net,
        n,
        ids,
        csr,
        states,
        children,
        alive,
        in_spanner,
    } = sw;
    let batches: Vec<PhaseCBatch> = {
        let states: &[VertState] = states;
        let alive: &[bool] = alive;
        // Retires `v`'s side of the edge in slot `s` (half-edge `half`): stages the
        // flag write and sends the far endpoint a `Kill`.
        let kill = |batch: &mut PhaseCBatch,
                    out: &mut VertexOutbox<'_, SpannerMsg>,
                    s: &Slot,
                    half: usize| {
            batch.kills.push(half as u32);
            out.send(
                s.nbr as usize,
                SpannerMsg::Kill {
                    edge: ids[s.idx as usize] as EdgeId,
                },
            );
        };
        net.par_step(
            || ClusterScratch::new(n),
            |sc, batch: &mut PhaseCBatch, v, _inbox, out| {
                let st = &states[v];
                let c_v = st.center;
                if c_v == NONE32 || st.sampled {
                    // Unclustered vertices are settled; sampled clusters carry over.
                    return;
                }
                let row = csr.row(v);

                // Pass 1: the shared stamped grouping sweep.
                sc.group_row(v, c_v, row, alive, info);

                let new_center;
                let new_parent;
                if sc.touched.is_empty() {
                    // No clustered foreign neighbor: the vertex leaves the clustering
                    // and every still-alive own-side edge with *known* neighbor state
                    // leaves the protocol (without fresh knowledge the edge stays
                    // alive — the neighbor may be mid-join on the other side).
                    new_center = NONE32;
                    new_parent = NONE32;
                    for s in row {
                        let other = s.nbr as usize;
                        let half = half_edge(s.idx as usize, v, other);
                        if alive[half] && info.known(other, half) {
                            kill(batch, out, s, half);
                        }
                    }
                } else {
                    // Lightest edge into a *sampled* adjacent cluster, ties broken by
                    // cluster id so the choice is grouping-order independent.
                    let mut best: Option<(f64, u32)> = None;
                    for &c in &sc.touched {
                        if sc.grp_sampled[c as usize] {
                            let w = sc.best_w[c as usize];
                            let better = match best {
                                None => true,
                                Some((w0, c0)) => w < w0 || (w == w0 && c < c0),
                            };
                            if better {
                                best = Some((w, c));
                            }
                        }
                    }
                    match best {
                        None => {
                            // No sampled cluster adjacent: keep one lightest edge per
                            // adjacent cluster, discard everything else (that is
                            // known), and leave.
                            new_center = NONE32;
                            new_parent = NONE32;
                            for s in row {
                                let other = s.nbr as usize;
                                let half = half_edge(s.idx as usize, v, other);
                                if !alive[half] || !info.known(other, half) {
                                    continue;
                                }
                                let c_o = info.center(other, half);
                                if c_o != NONE32 && c_o != c_v && sc.best_idx[c_o as usize] == s.idx
                                {
                                    batch.adds.push(s.idx);
                                }
                                kill(batch, out, s, half);
                            }
                        }
                        Some((w_star, c_star)) => {
                            // Join the sampled cluster through its lightest edge; also
                            // keep the lightest edge into every strictly lighter
                            // neighbor cluster.
                            new_center = c_star;
                            new_parent = sc.best_nbr[c_star as usize];
                            batch.adds.push(sc.best_idx[c_star as usize]);
                            for s in row {
                                let other = s.nbr as usize;
                                let half = half_edge(s.idx as usize, v, other);
                                if !alive[half] {
                                    continue;
                                }
                                let c_o = info.center(other, half);
                                if c_o == NONE32 || c_o == c_v {
                                    continue;
                                }
                                if c_o == c_star {
                                    kill(batch, out, s, half);
                                } else if sc.best_w[c_o as usize] < w_star {
                                    if sc.best_idx[c_o as usize] == s.idx {
                                        batch.adds.push(s.idx);
                                    }
                                    kill(batch, out, s, half);
                                }
                            }
                        }
                    }
                }

                // One Child to the new parent, after the vertex's Kills.
                if new_parent != NONE32 {
                    out.send(new_parent as usize, SpannerMsg::Child);
                }
                batch.verts.push(PhaseCDecision {
                    v: v as u32,
                    new_center,
                    new_parent,
                });
            },
        )
    };

    // Two-phase commit, parallel half: the edge-proportional flag writes. They are
    // conflict-free — `in_spanner` adds only ever store `true`, and a vertex kills
    // only its *own* half-edges, each owned by exactly one vertex — so the final
    // masks are the same for every commit order and fixed-seed runs stay bitwise
    // identical across thread counts.
    {
        let in_spanner = AtomicFlags::new(in_spanner);
        let alive = AtomicFlags::new(alive);
        batches.par_iter().for_each(|batch| {
            for &idx in &batch.adds {
                in_spanner.set(idx as usize, true);
            }
            for &half in &batch.kills {
                alive.set(half as usize, false);
            }
        });
    }
    // Sequential half: the per-vertex state writes, O(decided vertices) per
    // iteration (each vertex appears in exactly one batch).
    for batch in &batches {
        for dec in &batch.verts {
            let v = dec.v as usize;
            // Leaving the clustering and re-clustering are the same writes: the
            // decision's center/parent are NONE32 for a vertex that left.
            let st = &mut states[v];
            st.center = dec.new_center;
            st.parent = dec.new_parent;
            children[v].clear();
        }
    }
    net.advance_round();
}

/// The intra-cluster retirement sweep, generic over the neighbor-knowledge source:
/// every clustered vertex drops its own side of each edge whose far endpoint it knows
/// to share its cluster.
fn retain_intra_cluster_impl<I: NbrInfo>(
    states: &[VertState],
    csr: &ViewCsr,
    alive: &mut [bool],
    info: I,
) {
    let alive = AtomicFlags::new(alive);
    (0..states.len()).into_par_iter().for_each(|v| {
        let c = states[v].center;
        if c == NONE32 {
            return;
        }
        for s in csr.row(v) {
            let other = s.nbr as usize;
            let half = half_edge(s.idx as usize, v, other);
            if alive.get(half) && info.center(other, half) == c {
                alive.set(half, false);
            }
        }
    });
}

/// The final joining sweep, generic over the neighbor-knowledge source. With
/// `conservative` set (fault mode), every still-alive own-side edge whose neighbor
/// is unheard-from — or where both sides ended up unclustered, a pairing the clean
/// protocol can never leave alive — is kept as well.
fn finale_impl<I: NbrInfo>(sw: SweepState<'_>, info: I, conservative: bool) {
    let SweepState {
        net,
        n,
        csr,
        states,
        alive,
        in_spanner,
        ..
    } = sw;
    let states: &[VertState] = states;
    let alive: &[bool] = alive;
    let batches: Vec<JoinBatch> = net.par_step(
        || ClusterScratch::new(n),
        |sc, batch: &mut JoinBatch, v, _inbox, _out| {
            sc.group_row(v, states[v].center, csr.row(v), alive, info);
            for &c in &sc.touched {
                batch.adds.push(sc.best_idx[c as usize]);
            }
        },
    );
    // Same-value (`true`) writes commute, so the joining adds commit in parallel.
    {
        let in_spanner = AtomicFlags::new(in_spanner);
        batches.par_iter().for_each(|batch| {
            for &idx in &batch.adds {
                in_spanner.set(idx as usize, true);
            }
        });
    }
    if conservative {
        for (v, st) in states.iter().enumerate() {
            let unclustered = st.center == NONE32;
            for s in csr.row(v) {
                let other = s.nbr as usize;
                let half = half_edge(s.idx as usize, v, other);
                if alive[half]
                    && (!info.known(other, half)
                        || (unclustered && info.center(other, half) == NONE32))
                {
                    in_spanner[s.idx as usize] = true;
                }
            }
        }
    }
}

fn resolve_k(n: usize, cfg: &DistSpannerConfig) -> usize {
    cfg.k
        .unwrap_or_else(|| (n.max(2) as f64).log2().ceil() as usize)
        .max(1)
}

/// Runs the distributed Baswana–Sen spanner on the communication graph `g`, restricted
/// to the edges listed in `active` (global edge ids). Passing all edge ids computes a
/// spanner of `g` itself; the bundle construction passes residual edge sets.
pub fn distributed_spanner_on_edges(
    g: &Graph,
    active: &[EdgeId],
    cfg: &DistSpannerConfig,
) -> DistSpannerResult {
    let _span = sgs_obs::span!("congest.spanner", edges = active.len());
    let n = g.n();
    let k = resolve_k(n, cfg);
    if n <= 2 || k <= 1 || active.is_empty() {
        return DistSpannerResult {
            edge_ids: active.to_vec(),
            metrics: NetworkMetrics::default(),
        };
    }
    let mut proto = Protocol::new(g, active, cfg);
    let edge_ids = proto.run();
    DistSpannerResult {
        edge_ids,
        metrics: proto.net.metrics().clone(),
    }
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
        // must behave identically when the caller passes an arbitrary order.
        let g = generators::erdos_renyi(60, 0.3, 1.0, 5);
        let cfg = DistSpannerConfig::with_seed(2);
        let sorted: Vec<EdgeId> = (0..g.m()).collect();
        let mut shuffled: Vec<EdgeId> = sorted.iter().rev().copied().collect();
        shuffled.extend_from_slice(&sorted[..10]); // duplicates too
        let a = distributed_spanner_on_edges(&g, &sorted, &cfg);
        let b = distributed_spanner_on_edges(&g, &shuffled, &cfg);
        assert_eq!(a.edge_ids, b.edge_ids);
        assert_eq!(a.metrics, b.metrics);
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
            let mut proto = Protocol::new(&g, &active, &cfg);
            proto.iteration(1);
            for children in proto.children.iter_mut() {
                children.clear(); // sever every cluster tree: propagation now misses
            }
            if poison {
                for (v, st) in proto.states.iter_mut().enumerate() {
                    if st.center != NONE32 && st.center != v as u32 {
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
