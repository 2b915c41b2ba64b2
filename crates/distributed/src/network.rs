//! The synchronous message-passing simulator.
//!
//! The simulator models the synchronous distributed (CONGEST-style) model used by the
//! paper: in every round each vertex may send one message along each incident edge;
//! messages sent in round `r` are delivered at the start of round `r + 1`. The simulator
//! enforces that messages travel only along edges of the communication graph and keeps
//! a full account of rounds, messages, and message sizes in bits, which are exactly the
//! quantities bounded by Theorem 2 and Corollary 3.
//!
//! # Engine design (allocation-free hot path)
//!
//! The mailboxes are flat CSR buffers, not `Vec<Vec>` queues:
//!
//! * **Staging**: every send appends one `(from, link, msg)` record to a single reusable
//!   buffer; no per-vertex queue is touched. `link` is the message's *link slot*: the
//!   position of the recipient in the sender's row of the flat adjacency, so the
//!   recipient is `nbr_ids[link]` and the record is no larger than `(from, to, msg)`.
//! * **Record widths**: every id the simulator stores is a `u32`, and the spanner's
//!   [`SpannerMsg`](crate::spanner::SpannerMsg) is 8 bytes. A staged record is then
//!   16 bytes and an inbox [`Envelope`] `(from, msg)` 12 bytes, for messages billed
//!   at 1–33 bits. The reliable layer's wire frame is a 4-byte handle naming the
//!   message's pending entry, so its staged and delayed frame records are 12 bytes
//!   whatever the message; it bills each data frame 32 bits more than its message,
//!   and an ack 32 bits. `congest_records_keep_their_compact_layout` pins these
//!   widths.
//! * **Transmission**: a round first runs the staged buffer through the fault layer,
//!   if one is installed, which hands each surviving frame on in *delivery order*:
//!   due delayed frames first, then the staged ones in staging order, each duplicate
//!   right after its original. Without a fault layer the staged buffer is the frame
//!   buffer.
//! * **Delivery** ([`SyncNetwork::advance_round`]): the surviving frames are
//!   collected into one buffer, and one stable counting sort by recipient turns them
//!   into the next round's inbox CSR — per-vertex offset ranges over one flat
//!   message array. The reliable layer ([`ReliableNet`](crate::ReliableNet)) skips
//!   this step: `SyncNetwork::transmit` hands it each frame as it is transmitted and
//!   stages the ack it returns, and the layer builds one logical inbox per round
//!   from what it accepted. Communication metrics are counted *at delivery*, by
//!   whichever of the two consumes the frames: a message staged but never
//!   transmitted is a protocol bug, not traffic, and [`SyncNetwork::metrics`]
//!   debug-asserts that nothing is left staged.
//! * **Topology**: a sorted flat adjacency (CSR of neighbor ids) replaces per-vertex
//!   hash sets. [`SyncNetwork::send`]'s neighbor check is the one binary search a
//!   message ever pays: the position it finds is the link slot that travels with the
//!   message, and `broadcast` gets it for free. Every per-link structure downstream
//!   (fault coins, the delay queue, reliable-delivery state) is indexed by that slot.
//!   With faults or reliable delivery installed the network also records each
//!   inbox message's link and a reverse-link table `rev[l]` (the slot of the
//!   opposite direction, built in O(m) without a search), so replies and per-link
//!   knowledge need no lookup either; the clean path builds neither.
//! * **Vertex programs** ([`SyncNetwork::par_step`]): one round of per-vertex execution
//!   runs under rayon in contiguous vertex blocks cut by the density-aware
//!   [`BlockPartition`](sgs_spanner::partition) (degree-load balanced, a few blocks
//!   per thread, 64-vertex floor — the same partitioner the shared-memory engine
//!   uses). Each block stages its emissions into a private buffer and the buffers are
//!   concatenated in block order; blocks are ascending contiguous ranges, so the
//!   staged stream is in sender order for *any* partition — and because the delivery
//!   sort is stable, every inbox comes out sorted by `(recipient, sender)`. Fixed-seed
//!   protocol runs (outputs and `NetworkMetrics`) are therefore bitwise identical
//!   across thread counts even though the partition itself may vary with the pool
//!   width (`tests/parallelism.rs`).

use rayon::prelude::*;

use sgs_graph::{Graph, NodeId};
use sgs_spanner::BlockPartition;

use crate::faults::{FaultLayer, FaultPlan};

/// Something that can report its own size in bits, for communication accounting.
///
/// The paper's bounds talk about messages of `O(log n)` bits; implementations should
/// count the number of vertex ids / weights / flags they carry.
pub trait MessageSize {
    /// Size of the message in bits.
    fn size_bits(&self) -> usize;
}

/// Communication metrics accumulated by a [`SyncNetwork`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetworkMetrics {
    /// Number of synchronous rounds executed.
    pub rounds: usize,
    /// Total number of messages delivered.
    pub messages: u64,
    /// Total number of bits delivered.
    pub total_bits: u64,
    /// Largest single message observed, in bits.
    pub max_message_bits: usize,
    /// Messages destroyed by the fault layer (loss coins, failed links, crashed
    /// endpoints). Not counted in `messages`/`total_bits` — those bill delivery.
    pub dropped: u64,
    /// Extra copies injected by the fault layer's duplication coins (each copy is
    /// also billed as a delivered message).
    pub duplicated: u64,
    /// Messages the fault layer deferred to a later round (billed on actual delivery).
    pub delayed: u64,
    /// Data retransmissions issued by the reliable-delivery layer.
    pub retransmits: u64,
    /// Acknowledgement messages processed by the reliable-delivery layer.
    pub acks: u64,
    /// Duplicate data messages suppressed by the reliable layer.
    pub dup_suppressed: u64,
    /// Messages abandoned after the reliable layer's retry budget was exhausted.
    pub abandoned: u64,
}

impl NetworkMetrics {
    /// Merges another metrics record into this one (rounds add up; used when an
    /// algorithm is composed of phases executed on separate networks).
    pub fn absorb(&mut self, other: &NetworkMetrics) {
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.total_bits += other.total_bits;
        self.max_message_bits = self.max_message_bits.max(other.max_message_bits);
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.delayed += other.delayed;
        self.retransmits += other.retransmits;
        self.acks += other.acks;
        self.dup_suppressed += other.dup_suppressed;
        self.abandoned += other.abandoned;
    }

    /// Bills delivered traffic: `count` messages of `bits` bits in all, the largest
    /// of them `max_bits` bits.
    #[inline]
    pub(crate) fn bill(&mut self, count: usize, bits: u64, max_bits: usize) {
        self.messages += count as u64;
        self.total_bits += bits;
        self.max_message_bits = self.max_message_bits.max(max_bits);
    }
}

/// An inbox entry: the sender and the message. The sender is a `u32`, like every
/// vertex id the simulator stores, so with a [`SpannerMsg`](crate::spanner::SpannerMsg)
/// an entry is 12 bytes; cast it where a [`NodeId`] is needed.
pub type Envelope<M> = (u32, M);

/// A staged message record: `(from, link, msg)`, where `link` is the recipient's slot
/// in the sender's row of the flat adjacency (the recipient is `nbr_ids[link]`).
pub(crate) type Staged<M> = (u32, u32, M);

/// A synchronous network over the vertices of a graph.
///
/// `M` is the message type. Vertices address each other by [`NodeId`]; sending to a
/// non-neighbor panics, which keeps algorithm implementations honest about the model.
#[derive(Debug)]
pub struct SyncNetwork<M> {
    n: usize,
    /// Sorted flat adjacency: the neighbors of `v` are
    /// `nbr_ids[nbr_offsets[v]..nbr_offsets[v + 1]]`, ascending.
    nbr_offsets: Vec<u32>,
    nbr_ids: Vec<u32>,
    /// Messages staged for the next delivery, in emission order: `(from, link, msg)`.
    staged: Vec<Staged<M>>,
    /// Spare buffer: the frames [`SyncNetwork::advance_round`] delivers, or the
    /// replies `SyncNetwork::transmit` stages while it drains `staged`.
    frames: Vec<Staged<M>>,
    /// Reverse-link table, built only when link tracking is on (faults or reliable
    /// delivery installed): `rev[l]` is the slot of the opposite direction of link
    /// `l`. Empty on the clean path.
    rev: Vec<u32>,
    /// Current round's inbox CSR: the inbox of `v` is
    /// `inbox_buf[inbox_offsets[v]..inbox_offsets[v + 1]]`, sorted by sender whenever
    /// the staging order was sender-ordered (always true for `par_step` rounds).
    inbox_offsets: Vec<u32>,
    inbox_buf: Vec<Envelope<M>>,
    /// The link each `inbox_buf` frame arrived on, recorded only when link tracking
    /// is on (empty on the clean path).
    inbox_links: Vec<u32>,
    /// Delivery scratch: per-recipient write cursors and the sort permutation.
    cursor: Vec<u32>,
    perm: Vec<u32>,
    /// Cached [`BlockPartition`] for [`SyncNetwork::par_step`], keyed by the pool
    /// width that built it (protocols run many rounds on one fixed topology).
    part_cache: Option<(usize, BlockPartition)>,
    /// Deterministic fault injection, if any. `None` keeps `advance_round` on the
    /// exact pre-fault code path (zero cost, byte-identical byte stream).
    faults: Option<FaultLayer<M>>,
    metrics: NetworkMetrics,
}

impl<M: Clone> SyncNetwork<M> {
    /// Builds a network whose topology is the given graph.
    pub fn new(g: &Graph) -> Self {
        let n = g.n();
        let mut nbr_offsets = vec![0u32; n + 1];
        for e in g.edges() {
            nbr_offsets[e.u() + 1] += 1;
            nbr_offsets[e.v() + 1] += 1;
        }
        for v in 0..n {
            nbr_offsets[v + 1] += nbr_offsets[v];
        }
        let mut cursor: Vec<u32> = nbr_offsets.clone();
        let mut nbr_ids = vec![0u32; 2 * g.m()];
        for e in g.edges() {
            nbr_ids[cursor[e.u()] as usize] = e.v() as u32;
            cursor[e.u()] += 1;
            nbr_ids[cursor[e.v()] as usize] = e.u() as u32;
            cursor[e.v()] += 1;
        }
        for v in 0..n {
            nbr_ids[nbr_offsets[v] as usize..nbr_offsets[v + 1] as usize].sort_unstable();
        }
        SyncNetwork {
            n,
            nbr_offsets,
            nbr_ids,
            staged: Vec::new(),
            frames: Vec::new(),
            rev: Vec::new(),
            inbox_offsets: vec![0; n + 1],
            inbox_buf: Vec::new(),
            inbox_links: Vec::new(),
            cursor,
            perm: Vec::new(),
            part_cache: None,
            faults: None,
            metrics: NetworkMetrics::default(),
        }
    }

    /// Builds a network with a deterministic fault plan installed.
    ///
    /// A [`FaultPlan::none()`] plan is not installed at all, so the fault-free path
    /// stays byte-identical to [`SyncNetwork::new`].
    pub fn with_faults(g: &Graph, plan: FaultPlan) -> Self {
        let mut net = Self::new(g);
        if !plan.is_none() {
            net.faults = Some(FaultLayer::new(plan, net.num_links()));
            net.track_links();
        }
        net
    }

    /// Turns on link tracking: builds the reverse-link table and makes delivery
    /// record each frame's link ([`SyncNetwork::inbox_links`]). Only the fault path
    /// (a fault layer or the reliable layer) needs either, so the clean path never
    /// pays for them.
    ///
    /// `rev` is filled in O(m) with no search: senders are visited in ascending
    /// order and every row is sorted, so recipient `v`'s row fills front to back —
    /// the k-th sender that lists `v` is `v`'s k-th neighbor.
    pub(crate) fn track_links(&mut self) {
        if !self.rev.is_empty() {
            return;
        }
        let mut fill: Vec<u32> = self.nbr_offsets[..self.n].to_vec();
        self.rev = vec![0; self.nbr_ids.len()];
        for u in 0..self.n {
            for l in self.nbr_offsets[u] as usize..self.nbr_offsets[u + 1] as usize {
                let v = self.nbr_ids[l] as usize;
                let back = fill[v];
                fill[v] += 1;
                self.rev[l] = back;
            }
        }
    }

    /// Number of vertices in the network.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The delivery round most recently completed (0 before the first
    /// [`SyncNetwork::advance_round`]).
    #[inline]
    pub fn round(&self) -> u64 {
        self.metrics.rounds as u64
    }

    /// Directed-link index of the edge `from -> to` in the flat adjacency: the slot
    /// of `to` inside `from`'s sorted neighbor row, or `None` for a non-edge. This is
    /// the one search behind a send; everything downstream carries the slot.
    #[inline]
    pub(crate) fn link_index(&self, from: NodeId, to: NodeId) -> Option<usize> {
        let start = self.nbr_offsets[from] as usize;
        let at = self.neighbors(from).binary_search(&(to as u32)).ok()?;
        Some(start + at)
    }

    /// The flat adjacency: link `l` leads to `link_targets()[l]`.
    #[inline]
    pub(crate) fn link_targets(&self) -> &[u32] {
        &self.nbr_ids
    }

    /// The reverse-link table (`rev[l]` = slot of the opposite direction); empty
    /// unless link tracking is on.
    #[inline]
    pub(crate) fn rev_links(&self) -> &[u32] {
        &self.rev
    }

    /// Number of directed links (2m).
    #[inline]
    pub(crate) fn num_links(&self) -> usize {
        self.nbr_ids.len()
    }

    /// True while messages are still staged or held back in the fault layer's delay
    /// queue — i.e. another transport round could deliver something.
    pub(crate) fn in_flight(&self) -> bool {
        !self.staged.is_empty() || self.faults.as_ref().is_some_and(|fl| fl.has_delayed())
    }

    /// Mutable metrics access for the reliable-delivery layer, which bills the frames
    /// it consumes and keeps its own ledger columns.
    pub(crate) fn metrics_mut(&mut self) -> &mut NetworkMetrics {
        &mut self.metrics
    }

    /// Stages `msg` from `from` on link `link` (a slot of `from`'s row, found earlier).
    #[inline]
    pub(crate) fn send_on_link(&mut self, from: u32, link: u32, msg: M) {
        debug_assert!(
            (self.nbr_offsets[from as usize]..self.nbr_offsets[from as usize + 1]).contains(&link),
            "link {link} is not in the row of vertex {from}"
        );
        self.staged.push((from, link, msg));
    }

    /// The neighbors of `v` in the communication topology, ascending.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[u32] {
        &self.nbr_ids[self.nbr_offsets[v] as usize..self.nbr_offsets[v + 1] as usize]
    }

    /// Queues a message from `from` to its neighbor `to` for delivery next round.
    ///
    /// Panics if `to` is not adjacent to `from` — the CONGEST model only allows
    /// communication along edges.
    pub fn send(&mut self, from: NodeId, to: NodeId, msg: M) {
        let Some(link) = self.link_index(from, to) else {
            panic!("vertex {from} attempted to send to non-neighbor {to}");
        };
        self.staged.push((from as u32, link as u32, msg));
    }

    /// Broadcasts a message from `from` to all of its neighbors (ascending id order).
    pub fn broadcast(&mut self, from: NodeId, msg: M) {
        for link in self.nbr_offsets[from]..self.nbr_offsets[from + 1] {
            self.staged.push((from as u32, link, msg.clone()));
        }
    }

    /// Ends the round: all staged messages become next round's inboxes.
    ///
    /// The frames that survive the fault layer (all of them without one) are
    /// delivered by a stable counting sort by recipient, so each inbox preserves
    /// the delivery order among its messages; combined with the sender-ordered
    /// staging of [`SyncNetwork::par_step`] this yields inboxes sorted by
    /// `(recipient, sender)`. Metrics are counted here, at delivery, so only
    /// traffic that actually reaches a vertex is billed.
    pub fn advance_round(&mut self)
    where
        M: MessageSize,
    {
        // Snapshot the ledger so the per-round trace event can carry deltas
        // (messages/bits/fault columns for *this* round, not running totals).
        let before = sgs_obs::enabled().then(|| self.metrics.clone());
        self.metrics.rounds += 1;
        let mut frames = std::mem::take(&mut self.frames);
        match &mut self.faults {
            Some(fl) => {
                let round = self.metrics.rounds as u64;
                fl.apply(
                    round,
                    &mut self.staged,
                    &mut self.metrics,
                    &self.nbr_ids,
                    &self.rev,
                    |frame| frames.push(frame),
                );
            }
            None => std::mem::swap(&mut self.staged, &mut frames),
        }
        self.deliver(&frames);
        // Stage the next round in the buffer just read, which is the warmer one;
        // without a fault layer that is the one buffer the round started with.
        frames.clear();
        self.frames = std::mem::replace(&mut self.staged, frames);
        if let Some(before) = before {
            round_point(&before, &self.metrics);
        }
    }

    /// One transport step with no inbox: bumps the round and runs every staged (and
    /// newly due delayed) message through the fault layer, handing each survivor to
    /// `on_frame(recipient, msg)` in delivery order as it is transmitted. A reply that
    /// `on_frame` returns is staged back along the frame's reverse link (link
    /// tracking must be on) for the next step, in the order the replies were made.
    ///
    /// The caller bills the frames ([`NetworkMetrics::bill`]) as it consumes them.
    pub(crate) fn transmit(&mut self, mut on_frame: impl FnMut(u32, M) -> Option<M>) {
        self.metrics.rounds += 1;
        let round = self.metrics.rounds as u64;
        // The spare buffer collects the replies while the staged one is drained.
        let mut sending = std::mem::replace(&mut self.staged, std::mem::take(&mut self.frames));
        let SyncNetwork {
            nbr_ids,
            rev,
            staged,
            faults,
            metrics,
            ..
        } = self;
        let consume = |(_, link, msg): Staged<M>| {
            let l = link as usize;
            if let Some(reply) = on_frame(nbr_ids[l], msg) {
                staged.push((nbr_ids[l], rev[l], reply));
            }
        };
        match faults {
            Some(fl) => fl.apply(round, &mut sending, metrics, nbr_ids, rev, consume),
            None => sending.drain(..).for_each(consume),
        }
        self.frames = sending;
    }

    /// Stable counting sort of `frames` by recipient into the inbox CSR, billing
    /// metrics per delivered message and recording each frame's link when link
    /// tracking is on.
    fn deliver(&mut self, frames: &[Staged<M>])
    where
        M: MessageSize,
    {
        // Count per recipient, then place: `perm[j]` is the frame at inbox slot `j`.
        let (n, nbr_ids, offsets) = (self.n, &self.nbr_ids, &mut self.inbox_offsets);
        offsets.fill(0);
        for &(_, link, _) in frames {
            offsets[nbr_ids[link as usize] as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&offsets[..n]);
        self.perm.clear();
        self.perm.resize(frames.len(), 0);
        for (i, &(_, link, _)) in frames.iter().enumerate() {
            let c = &mut self.cursor[nbr_ids[link as usize] as usize];
            self.perm[*c as usize] = i as u32;
            *c += 1;
        }
        // Gather through the permutation with a clone per message. Messages in this
        // workspace are Copy-sized enums, so the clone is a memcpy and the gather's
        // sequential writes beat an in-place cycle-walk permutation (tried: ~10%
        // slower end-to-end on er(2000,60) due to the swap loop's locality). A future
        // heap-owning message type would prefer a move-based delivery.
        let track = !self.rev.is_empty();
        self.inbox_buf.clear();
        self.inbox_buf.reserve(frames.len());
        self.inbox_links.clear();
        let (mut bits, mut max_bits) = (0u64, 0usize);
        for &i in &self.perm {
            let (from, link, ref msg) = frames[i as usize];
            let b = msg.size_bits();
            bits += b as u64;
            max_bits = max_bits.max(b);
            self.inbox_buf.push((from, msg.clone()));
            if track {
                self.inbox_links.push(link);
            }
        }
        self.metrics.bill(frames.len(), bits, max_bits);
    }

    /// Messages delivered to `v` at the start of the current round.
    #[inline]
    pub fn inbox(&self, v: NodeId) -> &[Envelope<M>] {
        &self.inbox_buf[self.inbox_offsets[v] as usize..self.inbox_offsets[v + 1] as usize]
    }

    /// The link each message of [`SyncNetwork::inbox`]`(v)` arrived on, position for
    /// position. Only recorded while link tracking is on (the fault path).
    #[inline]
    pub(crate) fn inbox_links(&self, v: NodeId) -> &[u32] {
        &self.inbox_links[self.inbox_offsets[v] as usize..self.inbox_offsets[v + 1] as usize]
    }

    /// The metrics accumulated so far.
    ///
    /// Debug-asserts that no message is still staged: metrics are meant to be read at
    /// a protocol boundary, after the final [`SyncNetwork::advance_round`], and a
    /// message queued after the final round would otherwise silently vanish without
    /// being either delivered or billed.
    pub fn metrics(&self) -> &NetworkMetrics {
        debug_assert!(
            self.staged.is_empty(),
            "{} message(s) staged but never delivered when metrics were read",
            self.staged.len()
        );
        &self.metrics
    }

    /// Runs one parallel vertex sweep of a vertex program.
    ///
    /// `step(scratch, block_out, v, inbox, outbox)` is invoked for every vertex: it may
    /// read the current round's inbox, emit messages through the outbox, and record
    /// per-block results in `block_out` (the per-block payloads are returned in block
    /// order). Vertices are processed under rayon in contiguous blocks cut by the
    /// density-aware [`BlockPartition`] (degree-balanced, a few blocks per thread,
    /// 64-vertex floor; cached per pool width since the topology is fixed); `scratch`
    /// builds one reusable per-worker scratch value (the stamped-slot pattern of the
    /// shared-memory engine). Emissions are staged in vertex order for any partition
    /// and any worker interleaving, so a subsequent [`SyncNetwork::advance_round`]
    /// delivers inboxes sorted by `(recipient, sender)` and the whole round is
    /// deterministic in the thread count.
    ///
    /// Note that this only *stages* messages — the caller decides when the round ends
    /// by calling [`SyncNetwork::advance_round`], which keeps multi-sweep rounds (e.g.
    /// "process the previous inbox, then emit") expressible.
    pub fn par_step<T, B, F>(&mut self, scratch: impl Fn() -> T + Sync, step: F) -> Vec<B>
    where
        M: Send + Sync,
        T: Send,
        B: Send + Default,
        F: Fn(&mut T, &mut B, NodeId, &[Envelope<M>], &mut VertexOutbox<'_, M>) + Sync,
    {
        let n = self.n;
        let threads = rayon::current_num_threads();
        if self.part_cache.as_ref().map(|&(t, _)| t) != Some(threads) {
            let nbr_offsets = &self.nbr_offsets;
            let part = BlockPartition::adaptive(n, threads, |v| {
                (nbr_offsets[v + 1] - nbr_offsets[v]) as usize
            });
            self.part_cache = Some((threads, part));
        }
        let out: Vec<(Vec<Staged<M>>, B)> = {
            let part = &self.part_cache.as_ref().expect("cached above").1;
            let n_blocks = part.len();
            let inbox_offsets = &self.inbox_offsets;
            let inbox_buf = &self.inbox_buf;
            let nbr_offsets = &self.nbr_offsets;
            let nbr_ids = &self.nbr_ids;
            // A vertex inside a crash window neither executes nor emits this sweep
            // (omission model: local state is preserved across the window).
            let plan = self.faults.as_ref().map(|fl| fl.plan());
            let down_round = self.metrics.rounds as u64;
            (0..n_blocks)
                .into_par_iter()
                .map_init(&scratch, |sc, block| {
                    let mut msgs: Vec<Staged<M>> = Vec::new();
                    let mut payload = B::default();
                    for v in part.block(block) {
                        if let Some(p) = plan {
                            if p.is_down(v, down_round) {
                                continue;
                            }
                        }
                        let inbox =
                            &inbox_buf[inbox_offsets[v] as usize..inbox_offsets[v + 1] as usize];
                        let base = nbr_offsets[v];
                        let neighbors = &nbr_ids[base as usize..nbr_offsets[v + 1] as usize];
                        let mut outbox = VertexOutbox {
                            from: v as u32,
                            base,
                            neighbors,
                            buf: &mut msgs,
                        };
                        step(sc, &mut payload, v, inbox, &mut outbox);
                    }
                    (msgs, payload)
                })
                .collect()
        };
        let mut payloads = Vec::with_capacity(out.len());
        for (msgs, payload) in out {
            self.staged.extend(msgs);
            payloads.push(payload);
        }
        payloads
    }
}

/// Emits the `congest.round` trace point for the transport round that took the
/// ledger from `before` to `now`: per-round deltas, except `max_message_bits`, which
/// is the running maximum.
pub(crate) fn round_point(before: &NetworkMetrics, now: &NetworkMetrics) {
    sgs_obs::point!(
        "congest.round",
        round = now.rounds,
        messages = now.messages - before.messages,
        bits = now.total_bits - before.total_bits,
        max_message_bits = now.max_message_bits,
        dropped = now.dropped - before.dropped,
        duplicated = now.duplicated - before.duplicated,
        delayed = now.delayed - before.delayed,
        retransmits = now.retransmits - before.retransmits,
        acks = now.acks - before.acks,
        dup_suppressed = now.dup_suppressed - before.dup_suppressed,
        abandoned = now.abandoned - before.abandoned,
    );
}

/// The per-vertex message sink handed to a [`SyncNetwork::par_step`] vertex program.
///
/// Enforces the same edges-only discipline as [`SyncNetwork::send`].
pub struct VertexOutbox<'a, M> {
    from: u32,
    /// Flat-adjacency offset of `neighbors`: `neighbors[i]` is link `base + i`.
    base: u32,
    neighbors: &'a [u32],
    buf: &'a mut Vec<Staged<M>>,
}

impl<'a, M> VertexOutbox<'a, M> {
    /// An outbox for the same vertex over an externally owned staging buffer — used
    /// by the reliable-delivery layer to collect a sweep's protocol-typed emissions,
    /// which it stamps and stages on the transport itself afterwards.
    pub(crate) fn over<'b, N>(&self, buf: &'b mut Vec<Staged<N>>) -> VertexOutbox<'b, N>
    where
        'a: 'b,
    {
        VertexOutbox {
            from: self.from,
            base: self.base,
            neighbors: self.neighbors,
            buf,
        }
    }

    /// Queues a message from the current vertex to its neighbor `to`.
    ///
    /// Panics if `to` is not adjacent — the CONGEST model only allows communication
    /// along edges.
    pub fn send(&mut self, to: NodeId, msg: M) {
        let Ok(at) = self.neighbors.binary_search(&(to as u32)) else {
            panic!(
                "vertex {} attempted to send to non-neighbor {to}",
                self.from
            );
        };
        self.buf.push((self.from, self.base + at as u32, msg));
    }

    /// Broadcasts a message to every neighbor (ascending id order).
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        for link in self.base..self.base + self.neighbors.len() as u32 {
            self.buf.push((self.from, link, msg.clone()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_graph::generators;

    #[derive(Debug, Clone, PartialEq)]
    struct Ping(u64);

    impl MessageSize for Ping {
        fn size_bits(&self) -> usize {
            64
        }
    }

    #[test]
    fn messages_are_delivered_next_round() {
        let g = generators::path(3, 1.0);
        let mut net: SyncNetwork<Ping> = SyncNetwork::new(&g);
        net.send(0, 1, Ping(7));
        assert!(
            net.inbox(1).is_empty(),
            "not delivered within the same round"
        );
        net.advance_round();
        assert_eq!(net.inbox(1), &[(0, Ping(7))]);
        net.advance_round();
        assert!(
            net.inbox(1).is_empty(),
            "inbox is cleared after the next round"
        );
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn sending_to_non_neighbor_panics() {
        let g = generators::path(3, 1.0);
        let mut net: SyncNetwork<Ping> = SyncNetwork::new(&g);
        net.send(0, 2, Ping(1));
    }

    #[test]
    fn metrics_count_messages_rounds_and_bits() {
        let g = generators::star(5, 1.0);
        let mut net: SyncNetwork<Ping> = SyncNetwork::new(&g);
        net.broadcast(0, Ping(1));
        net.advance_round();
        for v in 1..5 {
            assert_eq!(net.inbox(v).len(), 1);
            net.send(v, 0, Ping(2));
        }
        net.advance_round();
        assert_eq!(net.inbox(0).len(), 4);
        let m = net.metrics();
        assert_eq!(m.rounds, 2);
        assert_eq!(m.messages, 8);
        assert_eq!(m.total_bits, 8 * 64);
        assert_eq!(m.max_message_bits, 64);
    }

    #[test]
    fn metrics_are_counted_at_delivery_not_at_send() {
        let g = generators::path(2, 1.0);
        let mut net: SyncNetwork<Ping> = SyncNetwork::new(&g);
        net.advance_round(); // empty round, so metrics can be read safely below
        assert_eq!(net.metrics().messages, 0);
        net.send(0, 1, Ping(1));
        net.advance_round();
        assert_eq!(net.metrics().messages, 1);
        assert_eq!(net.metrics().total_bits, 64);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "staged but never delivered")]
    fn reading_metrics_with_undelivered_messages_panics() {
        let g = generators::path(2, 1.0);
        let mut net: SyncNetwork<Ping> = SyncNetwork::new(&g);
        net.send(0, 1, Ping(1));
        let _ = net.metrics();
    }

    #[test]
    fn inboxes_are_sorted_by_recipient_then_sender() {
        // Manual sends in deliberately descending sender order: the delivery sort is
        // stable in *staging* order, so a par_step sweep (which stages in vertex
        // order) is what yields (recipient, sender); emulate it here by staging
        // through par_step.
        let g = generators::complete(5, 1.0);
        let mut net: SyncNetwork<Ping> = SyncNetwork::new(&g);
        net.par_step(
            || (),
            |_, _: &mut (), v, _inbox, out| {
                out.broadcast(Ping(v as u64));
            },
        );
        net.advance_round();
        for v in 0..5 {
            let senders: Vec<u32> = net.inbox(v).iter().map(|&(from, _)| from).collect();
            let mut sorted = senders.clone();
            sorted.sort_unstable();
            assert_eq!(senders, sorted, "inbox of {v} not sorted by sender");
            assert_eq!(senders.len(), 4);
        }
    }

    #[test]
    fn par_step_reads_inboxes_and_reports_payloads() {
        let g = generators::path(4, 1.0);
        let mut net: SyncNetwork<Ping> = SyncNetwork::new(&g);
        net.par_step(
            || (),
            |_, _: &mut (), v, _inbox, out| {
                if v + 1 < 4 {
                    out.send(v + 1, Ping(v as u64 * 10));
                }
            },
        );
        net.advance_round();
        // Each vertex sums what it received; payloads come back per block.
        let sums: Vec<u64> = net.par_step(
            || (),
            |_, acc: &mut u64, _v, inbox, _out| {
                *acc += inbox.iter().map(|(_, p)| p.0).sum::<u64>();
            },
        );
        assert_eq!(sums.iter().sum::<u64>(), 30);
        net.advance_round();
        assert_eq!(net.metrics().messages, 3);
    }

    #[test]
    fn reverse_links_pair_up_every_direction() {
        let g = generators::erdos_renyi(40, 0.3, 1.0, 3);
        let mut net: SyncNetwork<Ping> = SyncNetwork::new(&g);
        assert!(
            net.rev_links().is_empty(),
            "the clean path builds no reverse table"
        );
        net.track_links();
        let rev = net.rev_links().to_vec();
        assert_eq!(rev.len(), 2 * g.m());
        for u in 0..g.n() {
            for (i, &v) in net.neighbors(u).iter().enumerate() {
                let l = net.nbr_offsets[u] as usize + i;
                assert_eq!(net.link_index(u, v as usize), Some(l));
                let back = rev[l] as usize;
                assert_eq!(
                    net.link_targets()[back] as usize,
                    u,
                    "rev[l] leads back to u"
                );
                assert_eq!(rev[back] as usize, l);
            }
        }
    }

    #[test]
    fn tracked_delivery_records_each_frames_link() {
        let g = generators::star(4, 1.0);
        let mut net: SyncNetwork<Ping> = SyncNetwork::new(&g);
        net.track_links();
        net.broadcast(0, Ping(1));
        net.send(2, 0, Ping(2));
        net.advance_round();
        for v in 1..4 {
            let links = net.inbox_links(v);
            assert_eq!(links.len(), 1);
            assert_eq!(net.link_targets()[links[0] as usize] as usize, v);
        }
        assert_eq!(net.inbox_links(0), &[net.link_index(2, 0).unwrap() as u32]);
    }

    #[test]
    fn metrics_absorb_adds_up() {
        let mut a = NetworkMetrics {
            rounds: 2,
            messages: 10,
            total_bits: 640,
            max_message_bits: 64,
            ..NetworkMetrics::default()
        };
        let b = NetworkMetrics {
            rounds: 3,
            messages: 5,
            total_bits: 100,
            max_message_bits: 20,
            retransmits: 2,
            dropped: 4,
            ..NetworkMetrics::default()
        };
        a.absorb(&b);
        assert_eq!(a.rounds, 5);
        assert_eq!(a.messages, 15);
        assert_eq!(a.total_bits, 740);
        assert_eq!(a.max_message_bits, 64);
        assert_eq!(a.retransmits, 2);
        assert_eq!(a.dropped, 4);
    }
}
