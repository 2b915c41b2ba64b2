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
//! * `FaultLayer` — the transport hook applied inside
//!   [`SyncNetwork::advance_round`]'s delivery sort. Every fault coin is keyed
//!   splitmix64-style on `(round, from, to, seq)` — the same counter-mix discipline as
//!   `sgs_core::edge_coin` — so outcomes depend only on the message's position in the
//!   traffic stream, never on scheduling: fixed-seed runs are bitwise identical across
//!   thread counts, and [`FaultPlan::none()`] leaves the byte stream and
//!   [`NetworkMetrics`] untouched. Staged records carry their link slot, so the
//!   per-link `seq` counter and the delay queue need no lookup.
//! * [`ReliableNet`] — a reliable-delivery protocol layered over the faulty transport:
//!   per-directed-link sequence numbers, positive acks, round-based
//!   timeout/retransmit with exponential backoff and a bounded retry budget, and
//!   duplicate suppression. One *logical* round (`advance_round`) runs as many
//!   transport sub-rounds as needed to either deliver or abandon every staged
//!   message, so a protocol built on top sees a lossless (if slower) network until
//!   the retry budget is exhausted. Retransmits, acks, drops, and suppressed
//!   duplicates are ledgered as [`NetworkMetrics`] columns. The bookkeeping is
//!   slot-addressed, with no hash map: each data frame of a logical round owns one
//!   pending entry that stays in place until the round ends; a `(link, seq)` lookup
//!   walks a per-link chain from `head[link]` (usually one hop); acks travel on the
//!   reverse link `rev[link]`; the timeout sweep walks a live-index list compacted in
//!   order; a `delivered` flag on the entry suppresses duplicates; and round end
//!   resets only the links that carried data. Each logical round is one
//!   `congest.reliable_round` span whose end records its `subrounds`.

use sgs_graph::{Graph, NodeId};

use crate::network::{
    sort_by_recipient, Envelope, MessageSize, NetworkMetrics, Staged, SyncNetwork, VertexOutbox,
};

/// splitmix64 finalizer — the same mixer behind `sgs_core::edge_coin`.
#[inline]
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

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
    pub fn is_down(&self, v: NodeId, round: u64) -> bool {
        self.crashes
            .iter()
            .any(|c| c.vertex == v && c.from_round <= round && round < c.until_round)
    }

    /// Whether the link `{u, v}` is inside an outage window at `round`.
    #[inline]
    pub fn link_failed(&self, u: u32, v: u32, round: u64) -> bool {
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
    /// outcome never shifts another's coins.
    link_seq: Vec<u64>,
    /// Held-back messages: `(due_round, from, link, msg)`, in injection order.
    delayed: Vec<(u64, u32, u32, M)>,
    delayed_scratch: Vec<(u64, u32, u32, M)>,
    /// Reusable effective-delivery buffer returned by `apply`.
    eff: Vec<Staged<M>>,
}

impl<M: Clone> FaultLayer<M> {
    pub(crate) fn new(plan: FaultPlan, links: usize) -> Self {
        FaultLayer {
            plan,
            link_seq: vec![0; links],
            delayed: Vec::new(),
            delayed_scratch: Vec::new(),
            eff: Vec::new(),
        }
    }

    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    pub(crate) fn has_delayed(&self) -> bool {
        !self.delayed.is_empty()
    }

    /// Returns the effective-delivery scratch buffer after the caller is done with it.
    pub(crate) fn restore_scratch(&mut self, eff: Vec<Staged<M>>) {
        self.eff = eff;
    }

    /// Runs every staged message (and newly-due delayed message) through the plan for
    /// delivery at `round`, returning the list that actually gets delivered.
    /// `nbr_ids` is the network's flat adjacency: link `l` leads to `nbr_ids[l]`.
    pub(crate) fn apply(
        &mut self,
        round: u64,
        staged: &mut Vec<Staged<M>>,
        metrics: &mut NetworkMetrics,
        nbr_ids: &[u32],
    ) -> Vec<Staged<M>> {
        let mut eff = std::mem::take(&mut self.eff);
        eff.clear();
        // Due delayed messages deliver first, in injection order. Their coins were
        // consumed when first staged; only the structural checks re-apply (the link
        // or recipient may have gone down while the message was in flight).
        let mut delayed = std::mem::take(&mut self.delayed);
        let mut keep = std::mem::take(&mut self.delayed_scratch);
        keep.clear();
        for (due, from, link, msg) in delayed.drain(..) {
            if due <= round {
                let to = nbr_ids[link as usize];
                if self.plan.link_failed(from, to, round) || self.plan.is_down(to as usize, round) {
                    metrics.dropped += 1;
                } else {
                    eff.push((from, link, msg));
                }
            } else {
                keep.push((due, from, link, msg));
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
            self.link_seq[link as usize] += 1;
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
                self.delayed.push((round + extra, from, link, msg));
                continue;
            }
            if plan.dup_prob > 0.0 && unit(keyed_bits(dup_key, from, to, seq)) < plan.dup_prob {
                metrics.duplicated += 1;
                eff.push((from, link, msg.clone()));
            }
            eff.push((from, link, msg));
        }
        eff
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

/// Wire format of the reliable layer: payloads carry a per-link sequence number,
/// acks echo it back.
#[derive(Debug, Clone, PartialEq)]
pub enum Reliable<M> {
    /// A payload message stamped with the sender's per-link sequence number.
    Data {
        /// Per-directed-link sequence number (dense, starting at 0).
        seq: u32,
        /// The wrapped protocol message.
        msg: M,
    },
    /// Acknowledgement echoing the sequence number of a received `Data`.
    Ack {
        /// Sequence number being acknowledged.
        seq: u32,
    },
}

impl<M: MessageSize> MessageSize for Reliable<M> {
    fn size_bits(&self) -> usize {
        match self {
            Reliable::Data { msg, .. } => 32 + msg.size_bits(),
            Reliable::Ack { .. } => 32,
        }
    }
}

/// Sentinel closing a per-link pending chain.
const NO_ENTRY: u32 = u32::MAX;

/// One data frame staged in the current logical round: what a retransmission needs.
/// Entries stay in place until the round ends, so an index into
/// `ReliableNet::pending` is stable for the whole round; the entry's lookup key and
/// flags live in the parallel `ReliableNet::chain` and `ReliableNet::state` arrays,
/// which every frame arrival touches and which are kept small for it.
#[derive(Debug)]
struct Pending<M> {
    from: u32,
    link: u32,
    msg: M,
    /// Sub-round of the most recent (re)transmission.
    sent_sub: u32,
    retries: u32,
}

/// The lookup key of a pending entry: its sequence number and the entry staged
/// before it on the same link this round ([`NO_ENTRY`] ends the chain).
#[derive(Debug, Clone, Copy)]
struct ChainLink {
    seq: u32,
    next_on_link: u32,
}

/// Sender side: acked or abandoned, so out of the timeout sweep.
const SETTLED: u8 = 1;
/// Receiver side: one copy was delivered; later copies are duplicates.
const DELIVERED: u8 = 2;

/// The index of the pending entry `(link, seq)`, walking the link's chain from
/// `head[link]`. Every frame in flight belongs to the current logical round (a round
/// ends only once nothing is in flight), so the entry always exists.
#[inline]
fn find_pending(head: &[u32], chain: &[ChainLink], link: u32, seq: u32) -> usize {
    let mut i = head[link as usize];
    while i != NO_ENTRY {
        let c = chain[i as usize];
        if c.seq == seq {
            return i as usize;
        }
        i = c.next_on_link;
    }
    panic!("frame on link {link} with seq {seq} has no pending entry this round");
}

/// A reliable-delivery network: the same vertex-program API as [`SyncNetwork`], but
/// each logical [`ReliableNet::advance_round`] runs ack/retransmit sub-rounds on the
/// underlying (faulty) transport until every staged message is delivered exactly once
/// or abandoned after the retry budget.
///
/// Bookkeeping is addressed by link slot and stable pending index, with no hashing:
/// a frame's link comes with it from the transport, a `(link, seq)` lookup follows
/// `head[link]` down a short per-link chain (usually one hop), acks travel on the
/// reverse link, and duplicate suppression is a flag on the entry.
///
/// Determinism: sequence numbers are stamped in staging order (deterministic for
/// `par_step` sweeps), retransmissions and acks are issued in deterministic sweeps,
/// and all fault coins are keyed on stream positions — so fixed-seed runs are
/// bitwise identical across thread counts.
#[derive(Debug)]
pub struct ReliableNet<M> {
    net: SyncNetwork<Reliable<M>>,
    cfg: ReliabilityConfig,
    n: usize,
    /// Next sequence number per directed link.
    next_seq: Vec<u32>,
    /// Per-link newest pending entry of the current logical round ([`NO_ENTRY`] when
    /// the link sent nothing); reset link by link at round end.
    head: Vec<u32>,
    /// Every data frame of the current logical round, in staging order, with its
    /// lookup key and its [`SETTLED`]/[`DELIVERED`] flags at the same index.
    pending: Vec<Pending<M>>,
    chain: Vec<ChainLink>,
    state: Vec<u8>,
    /// Indices of unsettled `pending` entries in staging order: the timeout sweep's
    /// worklist, compacted in place.
    live: Vec<u32>,
    /// Logical deliveries accumulated this round: `(from, link, msg)`.
    acc: Vec<Staged<M>>,
    /// Ack emissions queued during an inbox sweep: `(acker, reverse link, seq)`.
    ack_queue: Vec<(u32, u32, u32)>,
    /// Logical inbox CSR presented to the protocol, with each delivery's link.
    inbox_offsets: Vec<u32>,
    inbox_buf: Vec<Envelope<M>>,
    inbox_links: Vec<u32>,
    cursor: Vec<u32>,
    perm: Vec<u32>,
}

impl<M: MessageSize + Clone> ReliableNet<M> {
    /// Builds a reliable network over `g` with the given fault plan underneath.
    pub fn new(g: &Graph, plan: FaultPlan, cfg: ReliabilityConfig) -> Self {
        let mut net: SyncNetwork<Reliable<M>> = SyncNetwork::with_faults(g, plan);
        net.track_links();
        let links = net.num_links();
        let n = net.n();
        ReliableNet {
            net,
            cfg,
            n,
            next_seq: vec![0; links],
            head: vec![NO_ENTRY; links],
            pending: Vec::new(),
            chain: Vec::new(),
            state: Vec::new(),
            live: Vec::new(),
            acc: Vec::new(),
            ack_queue: Vec::new(),
            inbox_offsets: vec![0; n + 1],
            inbox_buf: Vec::new(),
            inbox_links: Vec::new(),
            cursor: Vec::new(),
            perm: Vec::new(),
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
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
    pub(crate) fn transport(&self) -> &SyncNetwork<Reliable<M>> {
        &self.net
    }

    /// Transport metrics (rounds counts *sub*-rounds — the protocol's real cost).
    pub fn metrics(&self) -> &NetworkMetrics {
        self.net.metrics()
    }

    /// One parallel vertex sweep, mirroring [`SyncNetwork::par_step`]: the protocol
    /// sees its own message type and the *logical* inboxes; emissions are wrapped
    /// into sequenced [`Reliable::Data`] frames underneath.
    pub fn par_step<T, B, F>(&mut self, scratch: impl Fn() -> T + Sync, step: F) -> Vec<B>
    where
        M: Send + Sync,
        T: Send,
        B: Send + Default,
        F: Fn(&mut T, &mut B, NodeId, &[Envelope<M>], &mut VertexOutbox<'_, M>) + Sync,
    {
        let start = self.net.staged_len();
        let payloads = {
            let ReliableNet {
                net,
                inbox_offsets,
                inbox_buf,
                ..
            } = self;
            let inbox_offsets = &*inbox_offsets;
            let inbox_buf = &*inbox_buf;
            net.par_step(
                || (scratch(), Vec::<Staged<M>>::new()),
                |(sc, local), payload, v, _raw_inbox, out| {
                    local.clear();
                    let lb = &inbox_buf[inbox_offsets[v] as usize..inbox_offsets[v + 1] as usize];
                    step(sc, payload, v, lb, &mut out.over(local));
                    for (_from, link, m) in local.drain(..) {
                        // Sequence numbers are stamped after the sweep, in staging
                        // order, so they are deterministic in the thread count.
                        out.send_on_link(link, Reliable::Data { seq: 0, msg: m });
                    }
                },
            )
        };
        let ReliableNet {
            net,
            next_seq,
            head,
            pending,
            chain,
            state,
            live,
            ..
        } = self;
        for (from, link, frame) in net.staged_from(start) {
            if let Reliable::Data { seq, msg } = frame {
                let l = *link as usize;
                *seq = next_seq[l];
                next_seq[l] = next_seq[l].wrapping_add(1);
                let i = pending.len() as u32;
                pending.push(Pending {
                    from: *from,
                    link: *link,
                    msg: msg.clone(),
                    sent_sub: 0,
                    retries: 0,
                });
                chain.push(ChainLink {
                    seq: *seq,
                    next_on_link: head[l],
                });
                state.push(0);
                head[l] = i;
                live.push(i);
            }
        }
        payloads
    }

    /// Completes one logical round: runs transport sub-rounds (delivery, acks,
    /// timeouts, retransmissions) until every staged message has been delivered and
    /// acked, or abandoned after the retry budget, and nothing is left in flight.
    /// Afterwards [`ReliableNet::inbox`] holds each vertex's deduplicated logical
    /// deliveries, sorted by `(recipient, sender)` arrival order.
    pub fn advance_round(&mut self) {
        let span = sgs_obs::span!("congest.reliable_round");
        let mut sub: u32 = 0;
        loop {
            self.net.advance_round();
            sub += 1;
            let mut dup_sup = 0u64;
            let mut acks_seen = 0u64;
            let ReliableNet {
                net,
                cfg,
                head,
                pending,
                chain,
                state,
                live,
                acc,
                ack_queue,
                ..
            } = self;
            let rev = net.rev_links();
            for v in 0..net.n() {
                for (&(from, ref frame), &link) in net.inbox(v).iter().zip(net.inbox_links(v)) {
                    match frame {
                        Reliable::Data { seq, msg } => {
                            let st = &mut state[find_pending(head, chain, link, *seq)];
                            if *st & DELIVERED != 0 {
                                dup_sup += 1;
                            } else {
                                *st |= DELIVERED;
                                acc.push((from as u32, link, msg.clone()));
                            }
                            // Always (re-)ack: the previous ack may have been lost.
                            ack_queue.push((v as u32, rev[link as usize], *seq));
                        }
                        Reliable::Ack { seq } => {
                            acks_seen += 1;
                            state[find_pending(head, chain, rev[link as usize], *seq)] |= SETTLED;
                        }
                    }
                }
            }
            for &(acker, link, seq) in ack_queue.iter() {
                net.send_on_link(acker, link, Reliable::Ack { seq });
            }
            ack_queue.clear();
            // Timeout sweep over the unsettled entries, in staging order: retransmit
            // overdue messages, abandon exhausted ones, and drop settled ones from
            // the worklist.
            let cap_hit = sub >= cfg.max_subrounds;
            let mut retransmits = 0u64;
            let mut abandoned = 0u64;
            let mut kept = 0;
            for j in 0..live.len() {
                let i = live[j];
                if state[i as usize] & SETTLED != 0 {
                    continue;
                }
                let p = &mut pending[i as usize];
                let threshold = if cfg.backoff {
                    cfg.timeout_rounds.saturating_mul(1u32 << p.retries.min(16))
                } else {
                    cfg.timeout_rounds
                };
                if cap_hit || sub.saturating_sub(p.sent_sub) >= threshold {
                    if cap_hit || p.retries >= cfg.retry_budget {
                        abandoned += 1;
                        state[i as usize] |= SETTLED;
                        continue;
                    }
                    retransmits += 1;
                    p.retries += 1;
                    p.sent_sub = sub;
                    let frame = Reliable::Data {
                        seq: chain[i as usize].seq,
                        msg: p.msg.clone(),
                    };
                    net.send_on_link(p.from, p.link, frame);
                }
                live[kept] = i;
                kept += 1;
            }
            live.truncate(kept);
            let m = net.metrics_mut();
            m.dup_suppressed += dup_sup;
            m.acks += acks_seen;
            m.retransmits += retransmits;
            m.abandoned += abandoned;
            if live.is_empty() && !net.in_flight() {
                break;
            }
        }
        span.end_with(&[("subrounds", sgs_obs::FieldValue::from(sub))]);
        // Seal the logical round: reset the links that carried data and expose the
        // accumulated deliveries as the logical inbox CSR (stable sort by recipient).
        for p in &self.pending {
            self.head[p.link as usize] = NO_ENTRY;
        }
        self.pending.clear();
        self.chain.clear();
        self.state.clear();
        sort_by_recipient(
            &self.acc,
            self.net.link_targets(),
            &mut self.inbox_offsets,
            &mut self.cursor,
            &mut self.perm,
        );
        self.inbox_buf.clear();
        self.inbox_links.clear();
        for &i in &self.perm {
            let (from, link, ref msg) = self.acc[i as usize];
            self.inbox_buf.push((from as usize, msg.clone()));
            self.inbox_links.push(link);
        }
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
            let mut senders: Vec<usize> = net.inbox(v).iter().map(|&(f, _)| f).collect();
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
    /// entries chained on one link, each looked up by `(link, seq)` on every data and
    /// ack arrival.
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
