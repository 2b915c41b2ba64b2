//! Deterministic fault injection and reliable delivery for the CONGEST simulator.
//!
//! Real deployments violate the synchronous model's delivery guarantee first: messages
//! are lost, duplicated, delayed, links flap, and nodes crash. This module makes those
//! failures *first-class and replayable*:
//!
//! * [`FaultPlan`] — a seeded description of the fault process: i.i.d. message
//!   drop/duplication/bounded-delay probabilities, scheduled per-link failure windows,
//!   and vertex crash–restart windows (omission model: a crashed vertex neither
//!   executes, sends, nor receives during its window, but keeps its local state).
//! * `FaultLayer` — the transport hook every transport round runs before anything is
//!   delivered: it hands each of the round's surviving frames, in delivery order, to
//!   a consumer. [`SyncNetwork::advance_round`] collects them and sorts them by
//!   recipient into inboxes; [`ReliableNet`] consumes each one as it is transmitted.
//!   Every fault coin is keyed splitmix64-style on `(round, from, to, seq)` — the
//!   same counter-mix discipline as `sgs_core::edge_coin` — so outcomes depend only
//!   on the message's position in the traffic stream, never on scheduling: fixed-seed
//!   runs are bitwise identical across thread counts, and [`FaultPlan::none()`]
//!   leaves the byte stream and [`NetworkMetrics`] untouched. Staged records carry
//!   their link slot, so the per-link `seq` counter and the delay queue need no
//!   lookup; a delayed record keeps only `(due, link, msg)` and recovers its sender
//!   as `nbr_ids[rev[link]]`.
//! * [`ReliableNet`] — a reliable-delivery protocol layered over the faulty transport:
//!   positive acks, round-based timeout/retransmit with exponential backoff and a
//!   bounded retry budget, and duplicate suppression. One *logical* round
//!   (`advance_round`) runs as many transport sub-rounds as needed to either deliver
//!   or abandon every staged message, so a protocol built on top sees a lossless (if
//!   slower) network until the retry budget is exhausted. Retransmits, acks, drops,
//!   and suppressed duplicates are ledgered as [`NetworkMetrics`] columns. Each
//!   message of a logical round owns one pending entry that stays in place until the
//!   round ends, and a round ends only once nothing is in flight, so the wire frame
//!   is a 4-byte handle naming the entry (top bit set for its ack): the message is
//!   stored once, in its entry, and a staged or delayed frame record is 12 bytes. A
//!   sub-round consumes each frame as the fault layer transmits it, in delivery
//!   order, with no frame buffer, inbox or sort, and stages the ack of a data frame on
//!   the reverse link `rev[link]`. A `delivered` flag on the entry suppresses
//!   duplicates; the timeout sweep walks a live-index list compacted in order, only
//!   in sub-rounds where some entry can be due, while a running unsettled count
//!   decides when the round ends. A first delivery is counted for its recipient as it
//!   is accepted, so sealing the round places the logical inbox in one pass. Each
//!   logical round is one `congest.reliable_round` span whose end records its
//!   `subrounds`, and each sub-round one `congest.round` point emitted after the
//!   reliable ledger update.

use sgs_graph::{splitmix64, Graph, NodeId};

use crate::network::{
    round_point, Envelope, MessageSize, NetworkMetrics, Staged, SyncNetwork, VertexOutbox,
};

/// Raw 64 deterministic bits for the fault coin keyed on `(round, from, to, seq)`.
///
/// The key is a pure stream position: the `seq`-th message staged on the directed link
/// `from -> to` for delivery at `round`. No scheduling state enters the key, so the
/// coin is bitwise identical across thread counts and replayable from the seed alone.
#[inline]
pub fn fault_bits(seed: u64, round: u64, from: u32, to: u32, seq: u64) -> u64 {
    keyed_bits(round_key(seed, round), from, to, seq)
}

/// A uniform coin in `[0, 1)` keyed on `(round, from, to, seq)` — see [`fault_bits`].
#[inline]
pub fn fault_coin(seed: u64, round: u64, from: u32, to: u32, seq: u64) -> f64 {
    unit(fault_bits(seed, round, from, to, seq))
}

/// The `(seed, round)` prefix of the [`fault_bits`] mix, shared by every message of
/// one delivery round.
#[inline]
fn round_key(seed: u64, round: u64) -> u64 {
    splitmix64(splitmix64(seed) ^ round)
}

/// [`fault_bits`] from a precomputed [`round_key`].
#[inline]
fn keyed_bits(round_key: u64, from: u32, to: u32, seq: u64) -> u64 {
    splitmix64(splitmix64(round_key ^ (((from as u64) << 32) | to as u64)) ^ seq)
}

/// The top 53 bits of `bits` as a uniform draw in `[0, 1)`.
#[inline]
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Domain-separation salts so the drop/duplication/delay coins of one message are
/// independent draws.
const DROP_SALT: u64 = 0xD509_0000_0000_0001;
const DUP_SALT: u64 = 0xD0B1_0000_0000_0002;
const DELAY_SALT: u64 = 0xDE1A_0000_0000_0003;
const DELAY_MAG_SALT: u64 = 0xDE1A_0000_0000_0004;

/// A scheduled bidirectional link outage: messages on `{u, v}` (either direction) are
/// destroyed when their delivery round falls in `[from_round, until_round)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkFailure {
    /// One endpoint of the failed link.
    pub u: NodeId,
    /// The other endpoint of the failed link.
    pub v: NodeId,
    /// First delivery round (inclusive) at which the link is down.
    pub from_round: u64,
    /// First delivery round at which the link is healed again (exclusive bound).
    pub until_round: u64,
}

/// A vertex crash–restart window: during `[from_round, until_round)` the vertex does
/// not execute vertex programs, its sends are destroyed, and messages addressed to it
/// are destroyed. Local state survives the window (omission-failure model).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashWindow {
    /// The crashed vertex.
    pub vertex: NodeId,
    /// First round (inclusive) of the outage.
    pub from_round: u64,
    /// First round after the restart (exclusive bound).
    pub until_round: u64,
}

/// A seeded, deterministic description of the fault process.
///
/// `FaultPlan::none()` (also `Default`) injects nothing and is never installed as a
/// transport layer at all, so the fault-free path stays byte-identical to a network
/// built without faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every fault coin ([`fault_coin`]).
    pub seed: u64,
    /// Per-message i.i.d. loss probability.
    pub drop_prob: f64,
    /// Per-message i.i.d. duplication probability (one extra copy, same round).
    pub dup_prob: f64,
    /// Per-message i.i.d. delay probability.
    pub delay_prob: f64,
    /// Upper bound (inclusive) on the extra rounds a delayed message waits; the
    /// actual delay is uniform in `1..=max_delay`, drawn deterministically.
    pub max_delay: u32,
    /// Scheduled link outages.
    pub link_failures: Vec<LinkFailure>,
    /// Scheduled vertex crash windows.
    pub crashes: Vec<CrashWindow>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The empty plan: no faults, zero overhead (the layer is not installed).
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            drop_prob: 0.0,
            dup_prob: 0.0,
            delay_prob: 0.0,
            max_delay: 2,
            link_failures: Vec::new(),
            crashes: Vec::new(),
        }
    }

    /// Whether this plan injects nothing at all.
    pub fn is_none(&self) -> bool {
        self.drop_prob == 0.0
            && self.dup_prob == 0.0
            && self.delay_prob == 0.0
            && self.link_failures.is_empty()
            && self.crashes.is_empty()
    }

    /// The classic benchmark adversary: i.i.d. message loss with probability `p`.
    pub fn iid_loss(seed: u64, p: f64) -> Self {
        FaultPlan {
            seed,
            drop_prob: p,
            ..Self::none()
        }
    }

    /// Replaces the coin seed (used to derive independent per-run plans).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the i.i.d. duplication probability.
    pub fn with_duplication(mut self, p: f64) -> Self {
        self.dup_prob = p;
        self
    }

    /// Sets the i.i.d. delay probability and the delay bound in rounds.
    pub fn with_delay(mut self, p: f64, max_delay: u32) -> Self {
        self.delay_prob = p;
        self.max_delay = max_delay.max(1);
        self
    }

    /// Schedules a bidirectional outage of edge `{u, v}` over `[from_round, until_round)`.
    pub fn with_link_failure(
        mut self,
        u: NodeId,
        v: NodeId,
        from_round: u64,
        until_round: u64,
    ) -> Self {
        self.link_failures.push(LinkFailure {
            u,
            v,
            from_round,
            until_round,
        });
        self
    }

    /// Schedules a crash–restart window for `vertex` over `[from_round, until_round)`.
    pub fn with_crash(mut self, vertex: NodeId, from_round: u64, until_round: u64) -> Self {
        self.crashes.push(CrashWindow {
            vertex,
            from_round,
            until_round,
        });
        self
    }

    /// Whether `v` is inside a crash window at `round`.
    #[inline]
    pub(crate) fn is_down(&self, v: NodeId, round: u64) -> bool {
        self.crashes
            .iter()
            .any(|c| c.vertex == v && c.from_round <= round && round < c.until_round)
    }

    /// Whether the link `{u, v}` is inside an outage window at `round`.
    #[inline]
    pub(crate) fn link_failed(&self, u: u32, v: u32, round: u64) -> bool {
        self.link_failures.iter().any(|lf| {
            ((lf.u == u as usize && lf.v == v as usize)
                || (lf.u == v as usize && lf.v == u as usize))
                && lf.from_round <= round
                && round < lf.until_round
        })
    }
}

/// The transport fault hook owned by a [`SyncNetwork`] built with
/// [`SyncNetwork::with_faults`]. Applies the plan's coins to every staged message at
/// delivery time and keeps the bounded-delay queue. Records carry their link slot, so
/// the per-link `seq` counter is a plain index.
#[derive(Debug)]
pub(crate) struct FaultLayer<M> {
    plan: FaultPlan,
    /// Per-directed-link message counters — the `seq` half of the coin key. Every
    /// staged message consumes one position whatever its fate, so one message's
    /// outcome never shifts another's coins. A `u32` keys the same coin as the `u64`
    /// `seq` of [`fault_bits`] until a single link carries 2³² messages.
    link_seq: Vec<u32>,
    /// Held-back messages, in injection order.
    delayed: Vec<Delayed<M>>,
    delayed_scratch: Vec<Delayed<M>>,
}

/// A held-back message: `(due_round, link, msg)`. The sender is not stored: it is
/// `nbr_ids[rev[link]]`, and a fault layer is only installed with link tracking on.
/// A due round past `u32::MAX` saturates there, like the reliable layer's `u32`
/// sub-round counters.
pub(crate) type Delayed<M> = (u32, u32, M);

impl<M: Clone> FaultLayer<M> {
    pub(crate) fn new(plan: FaultPlan, links: usize) -> Self {
        FaultLayer {
            plan,
            link_seq: vec![0; links],
            delayed: Vec::new(),
            delayed_scratch: Vec::new(),
        }
    }

    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    pub(crate) fn has_delayed(&self) -> bool {
        !self.delayed.is_empty()
    }

    /// Runs every staged message (and newly-due delayed message) through the plan for
    /// delivery at `round`, draining `staged` and handing each frame that actually
    /// gets delivered to `deliver`, in delivery order. A duplicate comes right after
    /// its original. `nbr_ids` is the network's flat adjacency: link `l` leads to
    /// `nbr_ids[l]`, and `rev[l]` is the slot of its opposite direction.
    pub(crate) fn apply(
        &mut self,
        round: u64,
        staged: &mut Vec<Staged<M>>,
        metrics: &mut NetworkMetrics,
        nbr_ids: &[u32],
        rev: &[u32],
        mut deliver: impl FnMut(Staged<M>),
    ) {
        // Due delayed messages deliver first, in injection order. Their coins were
        // consumed when first staged; only the structural checks re-apply (the link
        // or recipient may have gone down while the message was in flight).
        let mut delayed = std::mem::take(&mut self.delayed);
        let mut keep = std::mem::take(&mut self.delayed_scratch);
        keep.clear();
        for (due, link, msg) in delayed.drain(..) {
            if u64::from(due) <= round {
                let to = nbr_ids[link as usize];
                let from = nbr_ids[rev[link as usize] as usize];
                if self.plan.link_failed(from, to, round) || self.plan.is_down(to as usize, round) {
                    metrics.dropped += 1;
                } else {
                    deliver((from, link, msg));
                }
            } else {
                keep.push((due, link, msg));
            }
        }
        self.delayed_scratch = delayed;
        self.delayed = keep;
        let plan = &self.plan;
        let drop_key = round_key(plan.seed ^ DROP_SALT, round);
        let delay_key = round_key(plan.seed ^ DELAY_SALT, round);
        let delay_mag_key = round_key(plan.seed ^ DELAY_MAG_SALT, round);
        let dup_key = round_key(plan.seed ^ DUP_SALT, round);
        for (from, link, msg) in staged.drain(..) {
            let to = nbr_ids[link as usize];
            let seq = self.link_seq[link as usize];
            self.link_seq[link as usize] = seq.wrapping_add(1);
            let seq = u64::from(seq);
            // Scheduled omissions: sender down at send time (the previous round),
            // recipient down at delivery time, or the link itself out.
            if plan.link_failed(from, to, round)
                || plan.is_down(to as usize, round)
                || plan.is_down(from as usize, round.saturating_sub(1))
            {
                metrics.dropped += 1;
                continue;
            }
            if plan.drop_prob > 0.0 && unit(keyed_bits(drop_key, from, to, seq)) < plan.drop_prob {
                metrics.dropped += 1;
                continue;
            }
            if plan.delay_prob > 0.0 && unit(keyed_bits(delay_key, from, to, seq)) < plan.delay_prob
            {
                let span = plan.max_delay.max(1) as u64;
                let extra = 1 + keyed_bits(delay_mag_key, from, to, seq) % span;
                metrics.delayed += 1;
                let due = u32::try_from(round + extra).unwrap_or(u32::MAX);
                self.delayed.push((due, link, msg));
                continue;
            }
            if plan.dup_prob > 0.0 && unit(keyed_bits(dup_key, from, to, seq)) < plan.dup_prob {
                metrics.duplicated += 1;
                deliver((from, link, msg.clone()));
            }
            deliver((from, link, msg));
        }
    }
}

/// Tuning knobs of the [`ReliableNet`] ack/retransmit protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReliabilityConfig {
    /// Sub-rounds without an ack before the first retransmission.
    pub timeout_rounds: u32,
    /// Maximum number of retransmissions per message; once exhausted the message is
    /// abandoned (ledgered in [`NetworkMetrics::abandoned`]) and the protocol above
    /// must degrade gracefully.
    pub retry_budget: u32,
    /// Double the timeout after every retransmission of a message.
    pub backoff: bool,
    /// Hard cap on transport sub-rounds per logical round; on overflow all pending
    /// messages are abandoned and the round drains. A safety net for adversarial
    /// plans, far above anything the default budget can reach.
    pub max_subrounds: u32,
}

impl ReliabilityConfig {
    /// Sub-rounds to wait for an ack after a message's `retries`-th retransmission
    /// (its first transmission at 0): `timeout_rounds`, doubled per retry with
    /// `backoff`.
    fn timeout(&self, retries: u32) -> u32 {
        if self.backoff {
            self.timeout_rounds.saturating_mul(1u32 << retries.min(16))
        } else {
            self.timeout_rounds
        }
    }
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig {
            timeout_rounds: 2,
            retry_budget: 4,
            backoff: true,
            max_subrounds: 512,
        }
    }
}

/// The wire frame of the reliable layer: a handle naming pending entry `i` of the
/// current logical round, as its data frame or, with the top bit set, as its ack.
/// Every frame on the wire names an entry of the round that sent it, since a round
/// ends only once nothing is in flight. A data frame is billed as
/// `32 + msg.size_bits()` bits and an ack as 32, the cost of a sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Frame(u32);

impl Frame {
    /// The top bit: set on an ack, clear on a data frame.
    const ACK: u32 = 1 << 31;
    /// Bits billed for the handle, on top of a data frame's message.
    const BITS: usize = 32;

    fn is_ack(self) -> bool {
        self.0 & Self::ACK != 0
    }

    /// The pending entry this frame names.
    fn index(self) -> usize {
        (self.0 & !Self::ACK) as usize
    }
}

/// One data message staged in the current logical round: what a retransmission
/// needs. The sender is not stored: it is the far end of the reverse link,
/// `nbr_ids[rev[link]]`. Entries stay in place until the round ends, so an index into
/// `ReliableNet::pending` is stable for the whole round and is the frame handle; the
/// entry's flags live in the parallel `ReliableNet::state` array, which every frame
/// arrival touches and which is kept small for it.
#[derive(Debug)]
pub(crate) struct Pending<M> {
    link: u32,
    msg: M,
    /// The sub-round at which the entry times out: its latest (re)transmission plus
    /// the timeout for its retry count (saturating).
    due: u32,
    retries: u32,
}

/// Sender side: acked or abandoned, so out of the timeout sweep.
const SETTLED: u8 = 1;
/// Receiver side: one copy was delivered; later copies are duplicates.
const DELIVERED: u8 = 2;

/// A reliable-delivery network: the same vertex-program API as [`SyncNetwork`], but
/// each logical [`ReliableNet::advance_round`] runs ack/retransmit sub-rounds on the
/// underlying (faulty) transport until every staged message is delivered exactly once
/// or abandoned after the retry budget.
///
/// Bookkeeping is addressed by stable pending index, with no hashing and no search:
/// a frame is the index of its entry, acks travel on the reverse link, and duplicate
/// suppression is a flag on the entry.
///
/// Determinism: entries are numbered in staging order (deterministic for `par_step`
/// sweeps), retransmissions and acks are issued in deterministic sweeps, and all
/// fault coins are keyed on stream positions — so fixed-seed runs are bitwise
/// identical across thread counts.
#[derive(Debug)]
pub struct ReliableNet<M> {
    net: SyncNetwork<Frame>,
    cfg: ReliabilityConfig,
    /// Every data message of the current logical round, in staging order, with its
    /// [`SETTLED`]/[`DELIVERED`] flags at the same index.
    pending: Vec<Pending<M>>,
    state: Vec<u8>,
    /// Indices of `pending` entries in staging order that were unsettled at the last
    /// timeout sweep: the sweep's worklist, compacted in place and cleared when the
    /// round is sealed.
    live: Vec<u32>,
    /// First deliveries accepted this round, in arrival order: `(recipient, index)`.
    acc: Vec<(u32, u32)>,
    /// Logical inbox CSR presented to the protocol, with each delivery's link. While
    /// a round runs, `inbox_offsets[v + 1]` counts the deliveries accepted for `v`.
    inbox_offsets: Vec<u32>,
    inbox_buf: Vec<Envelope<M>>,
    inbox_links: Vec<u32>,
    /// Sealing scratch: per-recipient write cursors.
    cursor: Vec<u32>,
}

impl<M: MessageSize + Clone> ReliableNet<M> {
    /// Builds a reliable network over `g` with the given fault plan underneath.
    pub fn new(g: &Graph, plan: FaultPlan, cfg: ReliabilityConfig) -> Self {
        let mut net: SyncNetwork<Frame> = SyncNetwork::with_faults(g, plan);
        net.track_links();
        let n = net.n();
        ReliableNet {
            net,
            cfg,
            pending: Vec::new(),
            state: Vec::new(),
            live: Vec::new(),
            acc: Vec::new(),
            inbox_offsets: vec![0; n + 1],
            inbox_buf: Vec::new(),
            inbox_links: Vec::new(),
            cursor: Vec::new(),
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.net.n()
    }

    /// Messages logically delivered to `v` by the last [`ReliableNet::advance_round`].
    #[inline]
    pub fn inbox(&self, v: NodeId) -> &[Envelope<M>] {
        &self.inbox_buf[self.inbox_offsets[v] as usize..self.inbox_offsets[v + 1] as usize]
    }

    /// The link each message of [`ReliableNet::inbox`]`(v)` arrived on.
    #[inline]
    pub(crate) fn inbox_links(&self, v: NodeId) -> &[u32] {
        &self.inbox_links[self.inbox_offsets[v] as usize..self.inbox_offsets[v + 1] as usize]
    }

    /// The transport underneath (for its topology tables).
    pub(crate) fn transport(&self) -> &SyncNetwork<Frame> {
        &self.net
    }

    /// Transport metrics (rounds counts *sub*-rounds — the protocol's real cost).
    pub fn metrics(&self) -> &NetworkMetrics {
        self.net.metrics()
    }

    /// One parallel vertex sweep, mirroring [`SyncNetwork::par_step`]: the protocol
    /// sees its own message type and the *logical* inboxes; each emission becomes a
    /// pending entry, sent as a data frame naming it.
    pub fn par_step<T, B, F>(&mut self, scratch: impl Fn() -> T + Sync, step: F) -> Vec<B>
    where
        M: Send + Sync,
        T: Send,
        B: Send + Default,
        F: Fn(&mut T, &mut B, NodeId, &[Envelope<M>], &mut VertexOutbox<'_, M>) + Sync,
    {
        let ReliableNet {
            net,
            cfg,
            pending,
            state,
            live,
            inbox_offsets,
            inbox_buf,
            ..
        } = self;
        // The transport runs the sweep but stages nothing itself: each block's
        // protocol emissions come back beside its payload, in vertex order.
        let blocks = {
            let inbox_offsets = &*inbox_offsets;
            let inbox_buf = &*inbox_buf;
            net.par_step(
                scratch,
                |sc, (payload, sends): &mut (B, Vec<Staged<M>>), v, _raw_inbox, out| {
                    let lb = &inbox_buf[inbox_offsets[v] as usize..inbox_offsets[v + 1] as usize];
                    step(sc, payload, v, lb, &mut out.over(sends));
                },
            )
        };
        // Entries are numbered here, in staging order, so frame handles are
        // deterministic in the thread count.
        let mut payloads = Vec::with_capacity(blocks.len());
        for (payload, sends) in blocks {
            for (from, link, msg) in sends {
                let i = pending.len() as u32;
                assert!(i < Frame::ACK, "2^31 messages in one logical round");
                net.send_on_link(from, link, Frame(i));
                state.push(0);
                live.push(i);
                pending.push(Pending {
                    link,
                    msg,
                    due: cfg.timeout(0),
                    retries: 0,
                });
            }
            payloads.push(payload);
        }
        payloads
    }

    /// Completes one logical round: runs transport sub-rounds (delivery, acks,
    /// timeouts, retransmissions) until every staged message has been delivered and
    /// acked, or abandoned after the retry budget, and nothing is left in flight.
    /// Afterwards [`ReliableNet::inbox`] holds each vertex's deduplicated logical
    /// deliveries in arrival order: by the sub-round in which a message first
    /// arrived, then by its place in that sub-round's frames. On a loss-free
    /// transport every message arrives in the first sub-round, so each inbox is
    /// sorted by sender.
    pub fn advance_round(&mut self) {
        let span = sgs_obs::span!("congest.reliable_round");
        let mut sub: u32 = 0;
        // Every entry was staged by `par_step` this round, unsettled and due at the
        // first timeout. The sweep runs only once some entry can be due, and the loop
        // ends on the running count of unsettled entries, not on `live`, which is
        // compacted only by the sweep.
        let mut unsettled = self.pending.len();
        let mut next_due = self.cfg.timeout(0);
        self.inbox_offsets.fill(0);
        loop {
            let before = sgs_obs::enabled().then(|| self.net.metrics_mut().clone());
            let mut dup_sup = 0u64;
            let mut acks_seen = 0u64;
            let (mut frames, mut bits, mut max_bits) = (0usize, 0u64, 0usize);
            let ReliableNet {
                net,
                cfg,
                pending,
                state,
                live,
                acc,
                inbox_offsets,
                ..
            } = self;
            // Consume and bill each frame as it is transmitted, in delivery order.
            // Acks are staged in the order of the data frames they answer, link by
            // link, and per-link order is all the fault layer's coin counters see.
            net.transmit(|to, frame| {
                let i = frame.index();
                debug_assert!(i < pending.len(), "frame {frame:?} outlived its round");
                let b = if frame.is_ack() {
                    Frame::BITS
                } else {
                    Frame::BITS + pending[i].msg.size_bits()
                };
                frames += 1;
                bits += b as u64;
                max_bits = max_bits.max(b);
                let st = &mut state[i];
                if frame.is_ack() {
                    acks_seen += 1;
                    if *st & SETTLED == 0 {
                        *st |= SETTLED;
                        unsettled -= 1;
                    }
                    return None;
                }
                if *st & DELIVERED != 0 {
                    dup_sup += 1;
                } else {
                    *st |= DELIVERED;
                    acc.push((to, i as u32));
                    inbox_offsets[to as usize + 1] += 1;
                }
                // Always (re-)ack: the previous ack may have been lost.
                Some(Frame(frame.0 | Frame::ACK))
            });
            sub += 1;
            // Timeout sweep over the unsettled entries, in staging order: retransmit
            // overdue messages, abandon exhausted ones, and drop settled ones from
            // the worklist. A sub-round where no entry can be due skips it, since it
            // would only compact the worklist.
            let cap_hit = sub >= cfg.max_subrounds;
            let mut retransmits = 0u64;
            let mut abandoned = 0u64;
            if cap_hit || sub >= next_due {
                next_due = u32::MAX;
                let mut kept = 0;
                for j in 0..live.len() {
                    let i = live[j];
                    if state[i as usize] & SETTLED != 0 {
                        continue;
                    }
                    let p = &mut pending[i as usize];
                    if cap_hit || sub >= p.due {
                        if cap_hit || p.retries >= cfg.retry_budget {
                            abandoned += 1;
                            state[i as usize] |= SETTLED;
                            continue;
                        }
                        retransmits += 1;
                        p.retries += 1;
                        p.due = sub.saturating_add(cfg.timeout(p.retries));
                        let from = net.link_targets()[net.rev_links()[p.link as usize] as usize];
                        net.send_on_link(from, p.link, Frame(i));
                    }
                    next_due = next_due.min(p.due);
                    live[kept] = i;
                    kept += 1;
                }
                live.truncate(kept);
                unsettled -= abandoned as usize;
            }
            let m = net.metrics_mut();
            m.bill(frames, bits, max_bits);
            m.dup_suppressed += dup_sup;
            m.acks += acks_seen;
            m.retransmits += retransmits;
            m.abandoned += abandoned;
            if let Some(before) = before {
                round_point(&before, m);
            }
            if unsettled == 0 && !net.in_flight() {
                break;
            }
        }
        span.end_with(&[("subrounds", sgs_obs::FieldValue::from(sub))]);
        self.seal();
    }

    /// Exposes the round's accepted deliveries as the logical inbox CSR, each inbox
    /// in arrival order, and clears the round's entries. The per-recipient counts
    /// were taken as the deliveries were accepted, so one pass places them.
    fn seal(&mut self) {
        let n = self.n();
        for v in 0..n {
            self.inbox_offsets[v + 1] += self.inbox_offsets[v];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.inbox_offsets[..n]);
        self.inbox_buf.clear();
        self.inbox_links.clear();
        if let Some(&(_, first)) = self.acc.first() {
            // Every slot is written below; the first delivery only fills them first.
            let filler = (0, self.pending[first as usize].msg.clone());
            self.inbox_buf.resize(self.acc.len(), filler);
            self.inbox_links.resize(self.acc.len(), 0);
        }
        let (targets, rev) = (self.net.link_targets(), self.net.rev_links());
        for &(to, i) in &self.acc {
            let c = &mut self.cursor[to as usize];
            let p = &self.pending[i as usize];
            self.inbox_buf[*c as usize] = (targets[rev[p.link as usize] as usize], p.msg.clone());
            self.inbox_links[*c as usize] = p.link;
            *c += 1;
        }
        self.pending.clear();
        self.state.clear();
        self.live.clear();
        self.acc.clear();
    }
}

/// Fault-injection setup for the distributed sparsification drivers: the transport
/// fault plan plus (optionally) the reliable-delivery layer on top.
#[derive(Debug, Clone, Default)]
pub struct FaultConfig {
    /// The transport fault process applied inside the simulator.
    pub plan: FaultPlan,
    /// When set, run every spanner instance behind the reliable-delivery layer.
    pub reliability: Option<ReliabilityConfig>,
}

impl FaultConfig {
    /// No faults, no recovery layer — the byte-identical clean path.
    pub fn clean() -> Self {
        Self::default()
    }

    /// Whether this setup changes anything relative to the clean path.
    pub fn is_clean(&self) -> bool {
        self.plan.is_none() && self.reliability.is_none()
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
    fn fault_coin_is_deterministic_and_unit_range() {
        let a = fault_coin(7, 3, 0, 1, 5);
        let b = fault_coin(7, 3, 0, 1, 5);
        assert_eq!(a, b);
        assert!((0.0..1.0).contains(&a));
        assert_ne!(a, fault_coin(7, 3, 0, 1, 6), "seq enters the key");
        assert_ne!(a, fault_coin(7, 4, 0, 1, 5), "round enters the key");
        assert_ne!(a, fault_coin(8, 3, 0, 1, 5), "seed enters the key");
    }

    #[test]
    fn none_plan_is_not_installed_and_changes_nothing() {
        let g = generators::star(6, 1.0);
        let mut clean: SyncNetwork<Ping> = SyncNetwork::new(&g);
        let mut nop: SyncNetwork<Ping> = SyncNetwork::with_faults(&g, FaultPlan::none());
        for net in [&mut clean, &mut nop] {
            net.broadcast(0, Ping(9));
            net.advance_round();
        }
        assert_eq!(clean.metrics(), nop.metrics());
        for v in 0..6 {
            assert_eq!(clean.inbox(v), nop.inbox(v));
        }
    }

    #[test]
    fn certain_loss_drops_everything() {
        let g = generators::star(5, 1.0);
        let mut net: SyncNetwork<Ping> = SyncNetwork::with_faults(&g, FaultPlan::iid_loss(1, 1.0));
        net.broadcast(0, Ping(1));
        net.advance_round();
        let m = net.metrics();
        assert_eq!(m.messages, 0);
        assert_eq!(m.dropped, 4);
        for v in 1..5 {
            assert!(net.inbox(v).is_empty());
        }
    }

    #[test]
    fn certain_duplication_doubles_delivery() {
        let g = generators::path(2, 1.0);
        let plan = FaultPlan::none().with_seed(3).with_duplication(1.0);
        let mut net: SyncNetwork<Ping> = SyncNetwork::with_faults(&g, plan);
        net.send(0, 1, Ping(5));
        net.advance_round();
        assert_eq!(net.inbox(1), &[(0, Ping(5)), (0, Ping(5))]);
        assert_eq!(net.metrics().messages, 2);
        assert_eq!(net.metrics().duplicated, 1);
    }

    #[test]
    fn certain_delay_defers_delivery_within_bound() {
        let g = generators::path(2, 1.0);
        let plan = FaultPlan::none().with_seed(11).with_delay(1.0, 1);
        let mut net: SyncNetwork<Ping> = SyncNetwork::with_faults(&g, plan);
        net.send(0, 1, Ping(5));
        net.advance_round();
        assert!(net.inbox(1).is_empty(), "held back one round");
        assert_eq!(net.metrics().delayed, 1);
        net.advance_round();
        assert_eq!(net.inbox(1), &[(0, Ping(5))], "due exactly one round later");
        assert_eq!(net.metrics().messages, 1);
    }

    #[test]
    fn link_failure_window_destroys_messages_then_heals() {
        let g = generators::path(2, 1.0);
        let plan = FaultPlan::none().with_link_failure(0, 1, 1, 2);
        let mut net: SyncNetwork<Ping> = SyncNetwork::with_faults(&g, plan);
        net.send(0, 1, Ping(1));
        net.advance_round(); // round 1: link down
        assert!(net.inbox(1).is_empty());
        assert_eq!(net.metrics().dropped, 1);
        net.send(0, 1, Ping(2));
        net.advance_round(); // round 2: healed
        assert_eq!(net.inbox(1), &[(0, Ping(2))]);
    }

    #[test]
    fn crashed_vertex_neither_runs_nor_receives() {
        let g = generators::path(3, 1.0);
        let plan = FaultPlan::none().with_crash(1, 0, 2);
        let mut net: SyncNetwork<Ping> = SyncNetwork::with_faults(&g, plan);
        // Sweep at round 0: vertex 1 is down and must not execute.
        net.par_step(
            || (),
            |_, _: &mut (), v, _inbox, out| {
                out.broadcast(Ping(v as u64));
            },
        );
        net.advance_round(); // round 1: messages to 1 are destroyed
        assert!(
            net.inbox(1).is_empty(),
            "crashed recipient receives nothing"
        );
        assert_eq!(
            net.inbox(0).len() + net.inbox(2).len(),
            0,
            "crashed 1 sent nothing"
        );
        assert_eq!(net.metrics().dropped, 2, "0->1 and 2->1 destroyed");
        // After the window the vertex participates again.
        net.par_step(
            || (),
            |_, _: &mut (), v, _inbox, out| {
                out.broadcast(Ping(v as u64));
            },
        );
        // Round 2: the window [0, 2) still covered the sweep just run at round 1, so
        // vertex 1 did not execute and sent nothing. Messages addressed to it are
        // delivered again from round 2 on.
        net.advance_round();
        net.par_step(
            || (),
            |_, _: &mut (), v, _inbox, out| {
                out.broadcast(Ping(v as u64));
            },
        );
        net.advance_round(); // round 3: fully healed
        assert_eq!(net.inbox(0).len(), 1);
        assert_eq!(net.inbox(2).len(), 1);
    }

    #[test]
    fn reliable_net_clean_path_delivers_once_with_acks() {
        let g = generators::star(5, 1.0);
        let mut net: ReliableNet<Ping> =
            ReliableNet::new(&g, FaultPlan::none(), ReliabilityConfig::default());
        net.par_step(
            || (),
            |_, _: &mut (), v, _inbox, out| {
                if v == 0 {
                    out.broadcast(Ping(42));
                }
            },
        );
        net.advance_round();
        for v in 1..5 {
            assert_eq!(net.inbox(v), &[(0, Ping(42))]);
        }
        let m = net.metrics();
        assert_eq!(m.acks, 4, "one ack per delivery");
        assert_eq!(m.retransmits, 0);
        assert_eq!(m.abandoned, 0);
        assert_eq!(m.dup_suppressed, 0);
    }

    #[test]
    fn reliable_net_recovers_every_message_under_heavy_loss() {
        let g = generators::complete(6, 1.0);
        let plan = FaultPlan::iid_loss(0xBAD, 0.4)
            .with_duplication(0.2)
            .with_delay(0.2, 3);
        let cfg = ReliabilityConfig {
            retry_budget: 16,
            ..ReliabilityConfig::default()
        };
        let mut net: ReliableNet<Ping> = ReliableNet::new(&g, plan, cfg);
        net.par_step(
            || (),
            |_, _: &mut (), v, _inbox, out| {
                out.broadcast(Ping(v as u64));
            },
        );
        net.advance_round();
        for v in 0..6 {
            let mut senders: Vec<usize> = net.inbox(v).iter().map(|&(f, _)| f as usize).collect();
            senders.sort_unstable();
            let expect: Vec<usize> = (0..6).filter(|&u| u != v).collect();
            assert_eq!(senders, expect, "vertex {v} missing logical deliveries");
        }
        let m = net.metrics();
        assert!(m.retransmits > 0, "loss must force retransmissions");
        assert_eq!(m.abandoned, 0, "generous budget recovers everything");
    }

    #[test]
    fn reliable_net_abandons_after_budget_and_terminates() {
        let g = generators::path(2, 1.0);
        let plan = FaultPlan::iid_loss(7, 1.0);
        let cfg = ReliabilityConfig {
            timeout_rounds: 1,
            retry_budget: 3,
            backoff: false,
            max_subrounds: 64,
        };
        let mut net: ReliableNet<Ping> = ReliableNet::new(&g, plan, cfg);
        net.par_step(
            || (),
            |_, _: &mut (), v, _inbox, out| {
                if v == 0 {
                    out.send(1, Ping(1));
                }
            },
        );
        net.advance_round();
        assert!(net.inbox(1).is_empty(), "total loss delivers nothing");
        let m = net.metrics();
        assert_eq!(m.abandoned, 1);
        assert_eq!(m.retransmits, 3, "exactly the retry budget");
    }

    /// Vertex 0 sends three distinct `Ping`s to vertex 1 in one sweep: three pending
    /// entries on one link, whose frames share its fault coins.
    fn three_pings_on_one_link(plan: FaultPlan, cfg: ReliabilityConfig) -> ReliableNet<Ping> {
        let g = generators::path(2, 1.0);
        let mut net: ReliableNet<Ping> = ReliableNet::new(&g, plan, cfg);
        net.par_step(
            || (),
            |_, _: &mut (), v, _inbox, out| {
                if v == 0 {
                    for p in [10, 20, 30] {
                        out.send(1, Ping(p));
                    }
                }
            },
        );
        net.advance_round();
        net
    }

    #[test]
    fn reliable_net_delivers_several_frames_on_one_link_exactly_once() {
        let plan = FaultPlan::iid_loss(0x3F, 0.3)
            .with_duplication(0.2)
            .with_delay(0.2, 3);
        let cfg = ReliabilityConfig {
            retry_budget: 16,
            ..ReliabilityConfig::default()
        };
        let net = three_pings_on_one_link(plan, cfg);
        let mut got: Vec<u64> = net
            .inbox(1)
            .iter()
            .map(|(from, p)| {
                assert_eq!(*from, 0);
                p.0
            })
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![10, 20, 30], "each Ping exactly once");
        let m = net.metrics();
        assert_eq!(m.abandoned, 0);
        assert!(
            m.dup_suppressed >= 1,
            "duplicates must be suppressed: {m:?}"
        );
    }

    #[test]
    fn reliable_net_abandons_every_frame_on_one_link_under_total_loss() {
        let budget = 16;
        let cfg = ReliabilityConfig {
            timeout_rounds: 1,
            retry_budget: budget,
            backoff: false,
            max_subrounds: 512,
        };
        let net = three_pings_on_one_link(FaultPlan::iid_loss(5, 1.0), cfg);
        assert!(net.inbox(1).is_empty());
        let m = net.metrics();
        assert_eq!(m.abandoned, 3);
        assert_eq!(m.retransmits, 3 * budget as u64);
    }

    /// Every vertex of `complete(6)` sends three `Ping`s to each neighbour in each of
    /// two logical rounds over `ReliableNet` with `cfg`, under loss, duplication and
    /// delay. The payload encodes `(round, from, to, copy)` as decimal digits. Returns
    /// the 12 logical inboxes (round-major) and the run's metrics.
    fn shared_link_traffic(cfg: ReliabilityConfig) -> (Vec<Vec<u64>>, NetworkMetrics) {
        let g = generators::complete(6, 1.0);
        let plan = FaultPlan::iid_loss(0x3F, 0.3)
            .with_duplication(0.2)
            .with_delay(0.2, 3);
        let mut net: ReliableNet<Ping> = ReliableNet::new(&g, plan, cfg);
        let mut inboxes: Vec<Vec<u64>> = Vec::new();
        for round in 1..=2u64 {
            net.par_step(
                || (),
                |_, _: &mut (), v, _inbox, out| {
                    for to in (0..6).filter(|&to| to != v) {
                        for copy in 0..3 {
                            out.send(
                                to,
                                Ping(1000 * round + 100 * v as u64 + 10 * to as u64 + copy),
                            );
                        }
                    }
                },
            );
            net.advance_round();
            inboxes.extend((0..6).map(|v| net.inbox(v).iter().map(|(_, p)| p.0).collect()));
        }
        (inboxes, net.metrics().clone())
    }

    /// [`shared_link_traffic`] at the default reliability. A logical inbox lists each
    /// delivery by the sub-round it first arrived in, then by its position in that
    /// sub-round's traffic, so this pins the order in which the reliable layer
    /// consumes frames, as well as every ack, retransmission and fault coin.
    #[test]
    fn reliable_net_inbox_order_and_metrics_are_pinned_where_frames_share_a_link() {
        let (inboxes, metrics) = shared_link_traffic(ReliabilityConfig::default());
        let pinned: [&[u64]; 12] = [
            &[
                1101, 1102, 1302, 1400, 1402, 1502, 1200, 1201, 1100, 1202, 1401, 1500, 1501, 1300,
                1301,
            ],
            &[
                1010, 1012, 1210, 1211, 1310, 1312, 1410, 1511, 1411, 1311, 1412, 1212, 1510, 1011,
                1512,
            ],
            &[
                1022, 1120, 1121, 1320, 1421, 1322, 1521, 1122, 1522, 1021, 1321, 1420, 1422, 1520,
                1020,
            ],
            &[
                1030, 1031, 1032, 1130, 1131, 1531, 1532, 1530, 1230, 1430, 1132, 1231, 1232, 1431,
                1432,
            ],
            &[
                1140, 1142, 1240, 1242, 1341, 1342, 1042, 1041, 1340, 1540, 1542, 1241, 1040, 1541,
                1141,
            ],
            &[
                1050, 1150, 1152, 1250, 1352, 1051, 1251, 1451, 1452, 1151, 1252, 1350, 1351, 1052,
                1450,
            ],
            &[
                2101, 2200, 2201, 2300, 2302, 2400, 2402, 2500, 2502, 2301, 2100, 2202, 2401, 2501,
            ],
            &[
                2010, 2011, 2210, 2311, 2412, 2511, 2212, 2012, 2310, 2312, 2410, 2510, 2512, 2411,
                2211,
            ],
            &[
                2020, 2021, 2022, 2320, 2321, 2420, 2421, 2520, 2521, 2522, 2121, 2120, 2122, 2322,
                2422,
            ],
            &[
                2030, 2130, 2132, 2232, 2430, 2431, 2530, 2531, 2532, 2432, 2032, 2031, 2131, 2231,
            ],
            &[
                2040, 2042, 2140, 2141, 2142, 2241, 2341, 2541, 2542, 2540, 2242, 2240, 2342, 2340,
                2041,
            ],
            &[
                2050, 2250, 2251, 2350, 2351, 2451, 2051, 2151, 2152, 2252, 2450, 2052, 2150, 2452,
                2352,
            ],
        ];
        for (i, (got, want)) in inboxes.iter().zip(pinned).enumerate() {
            assert_eq!(got, want, "logical round {}, vertex {}", 1 + i / 6, i % 6);
        }
        let want = NetworkMetrics {
            rounds: 124,
            messages: 566,
            total_bits: 37760,
            max_message_bits: 96,
            dropped: 198,
            duplicated: 79,
            delayed: 108,
            retransmits: 198,
            acks: 259,
            dup_suppressed: 129,
            abandoned: 7,
        };
        assert_eq!(metrics, want);
    }

    /// FNV-1a over the inboxes in order, with a separator after each inbox.
    fn inbox_fingerprint(inboxes: &[Vec<u64>]) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for inbox in inboxes {
            for &x in inbox.iter().chain(&[u64::MAX]) {
                h = (h ^ x).wrapping_mul(0x0100_0000_01B3);
            }
        }
        h
    }

    /// [`shared_link_traffic`] at `timeout_rounds` 3 and 4, with backoff on and off:
    /// the settings where some sub-rounds have nothing due, so the timeout sweep can
    /// be skipped. Pins the logical inboxes in order (by fingerprint) and the full
    /// metrics, whose `rounds` moves if the end of a logical round comes a sub-round
    /// early or late. At the default retry budget of 4 each logical round here ends
    /// when a sweep abandons its last entry; at 16 rounds also end on an ack, in a
    /// sub-round whose sweep may be skipped, so only those rows would catch an exit
    /// test that waits for the sweep to empty `live`.
    #[test]
    fn reliable_net_end_of_round_is_pinned_at_long_timeouts() {
        #[rustfmt::skip]
        let pinned: [(u32, bool, u32, u64, [u64; 11]); 8] = [
            // (timeout, backoff, retry budget, inbox fingerprint, [rounds, messages,
            //  total_bits, max_message_bits, dropped, duplicated, delayed,
            //  retransmits, acks, dup_suppressed, abandoned])
            (3, true, 4, 0xEFF2_4F57_A74D_2861, [186, 557, 37792, 96, 221, 88, 104, 198, 245, 132, 6]),
            (3, false, 4, 0x306D_D069_654A_C15A, [34, 570, 38656, 96, 246, 84, 104, 233, 251, 140, 14]),
            (4, true, 4, 0xDC36_600D_6922_2ADB, [248, 558, 37248, 96, 191, 88, 107, 178, 255, 123, 4]),
            (4, false, 4, 0x1671_6A46_8261_19AD, [42, 540, 37248, 96, 242, 70, 100, 220, 228, 132, 12]),
            (3, true, 16, 0x5453_BC0C_485A_750F, [610, 554, 37440, 96, 217, 82, 110, 201, 246, 128, 1]),
            (3, false, 16, 0xC83A_1527_D56F_C397, [58, 581, 38752, 96, 230, 87, 106, 229, 266, 135, 0]),
            (4, true, 16, 0x39A3_2F5A_A5A1_DFB7, [767, 547, 37216, 96, 220, 78, 112, 201, 239, 128, 1]),
            (4, false, 16, 0xFAE4_FC41_3212_9E09, [72, 557, 37472, 96, 213, 82, 105, 201, 250, 127, 0]),
        ];
        for (timeout_rounds, backoff, retry_budget, fingerprint, m) in pinned {
            let cfg = ReliabilityConfig {
                timeout_rounds,
                backoff,
                retry_budget,
                ..ReliabilityConfig::default()
            };
            let (inboxes, metrics) = shared_link_traffic(cfg);
            let want = NetworkMetrics {
                rounds: m[0] as usize,
                messages: m[1],
                total_bits: m[2],
                max_message_bits: m[3] as usize,
                dropped: m[4],
                duplicated: m[5],
                delayed: m[6],
                retransmits: m[7],
                acks: m[8],
                dup_suppressed: m[9],
                abandoned: m[10],
            };
            let ctx = format!("timeout {timeout_rounds}, backoff {backoff}, budget {retry_budget}");
            assert_eq!(
                inbox_fingerprint(&inboxes),
                fingerprint,
                "{ctx}: inboxes {inboxes:?}"
            );
            assert_eq!(metrics, want, "{ctx}");
        }
    }

    /// [`shared_link_traffic`] with `max_subrounds` 1: the cap abandons every entry in
    /// the first sub-round of each logical round, before any ack can arrive, while
    /// delayed data frames and the acks of the first deliveries are still in flight.
    /// Those frames name abandoned entries, so the round drains before it is sealed:
    /// late data is still delivered once and acked, late acks settle nothing. Pins
    /// the logical inboxes in order and the full metrics.
    #[test]
    fn reliable_net_capped_round_drains_the_frames_of_abandoned_entries() {
        let cfg = ReliabilityConfig {
            max_subrounds: 1,
            ..ReliabilityConfig::default()
        };
        let (inboxes, metrics) = shared_link_traffic(cfg);
        for inbox in &inboxes {
            let mut once = inbox.clone();
            once.sort_unstable();
            once.dedup();
            assert_eq!(once.len(), inbox.len(), "no message is delivered twice");
        }
        // First-sub-round arrivals come in sender order; a later one breaks it.
        assert!(
            inboxes.iter().any(|ib| ib.windows(2).any(|w| w[0] > w[1])),
            "some data arrives after the cap: {inboxes:?}"
        );
        assert_eq!(inbox_fingerprint(&inboxes), 0x97FC_6980_8314_63CC);
        let want = NetworkMetrics {
            rounds: 12,
            messages: 280,
            total_bits: 18688,
            max_message_bits: 96,
            dropped: 93,
            duplicated: 41,
            delayed: 61,
            retransmits: 0,
            acks: 128,
            dup_suppressed: 22,
            abandoned: 2 * 6 * 5 * 3,
        };
        assert_eq!(metrics, want);
    }

    #[test]
    fn reliable_net_runs_are_identical_across_seeds_reuse() {
        // Same seed, two fresh nets: byte-identical metrics and inboxes.
        let g = generators::complete(5, 1.0);
        let plan = FaultPlan::iid_loss(99, 0.3);
        let run = || {
            let mut net: ReliableNet<Ping> =
                ReliableNet::new(&g, plan.clone(), ReliabilityConfig::default());
            net.par_step(
                || (),
                |_, _: &mut (), v, _inbox, out| {
                    out.broadcast(Ping(v as u64));
                },
            );
            net.advance_round();
            let inboxes: Vec<Vec<Envelope<Ping>>> = (0..5).map(|v| net.inbox(v).to_vec()).collect();
            (net.metrics().clone(), inboxes)
        };
        assert_eq!(run(), run());
    }
}
