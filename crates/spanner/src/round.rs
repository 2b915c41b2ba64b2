//! The Baswana–Sen round kernel, shared by the shared-memory engine
//! ([`crate::baswana_sen`]) and the CONGEST protocol of `sgs-distributed`.
//!
//! One clustering round of a vertex `v` in an unsampled cluster `c_v`, over the live
//! prefix of its slot row:
//!
//! 1. **Group** the slots by the neighbour's cluster (`GroupScratch::group`): per
//!    adjacent foreign cluster the lightest edge, the lowest view index among equal
//!    weights. Rows are unordered (the retire pass swap-removes), so the tie-break is
//!    explicit. The scratch is cluster-stamped, one record per cluster, so grouping
//!    costs O(degree) with no per-vertex allocation.
//! 2. **Decide** ([`decide`]): with no sampled cluster adjacent, `v` keeps the lightest
//!    edge into every adjacent cluster, kills every slot it knows about and leaves the
//!    clustering. Otherwise it joins the lightest sampled cluster `c*` (ties to the
//!    lowest cluster id) through that cluster's best edge, kills its edges into `c*`,
//!    and keeps and kills the best edge into every strictly lighter cluster. Adds and
//!    kills go to a [`RoundSink`]; the caller commits them ([`commit`]).
//! 3. **Retire** ([`retire`]): a block-parallel pass swap-removes from every live
//!    prefix the slots that are dead or lead into the vertex's own cluster. The engine
//!    runs it after the commit, the protocol after the next neighbour exchange: both
//!    read every neighbour's current center.
//!
//! The joining phase ([`join`]) adds the lightest live edge into every adjacent
//! foreign cluster.
//!
//! Everything the kernel knows about the far side of a slot comes through a
//! [`SlotLookup`]: the neighbour's center and sampled flag, whether that knowledge is
//! there at all, and whether the slot's edge is still alive. The shared-memory engine
//! reads its round-state arrays; the CONGEST protocol reads what the last neighbour
//! exchange delivered. Apart from when step 3 runs, the lookup is the only difference.

use rayon::prelude::*;

use sgs_graph::NodeId;

use crate::atomic::AtomicFlags;
use crate::baswana_sen::{Slot, ViewCsr};
use crate::partition::BlockPartition;

/// Sentinel for "no cluster" (and, in the protocol, "no parent") in flat `u32` state.
pub const NO_CLUSTER: u32 = u32::MAX;

/// The stretch parameter `k` of a run on `n` vertices: `k` if given, else
/// `⌈log₂ n⌉`, and at least 1.
pub fn resolve_k(n: usize, k: Option<usize>) -> usize {
    k.unwrap_or_else(|| (n.max(2) as f64).log2().ceil() as usize)
        .max(1)
}

/// What a vertex `v` knows about the far side of one of its slots.
pub trait SlotLookup: Copy + Sync {
    /// Whether every member of a cluster reports the same sampled flag. When members
    /// can disagree (under faults, a member that missed the flag propagation reports
    /// "not sampled"), grouping reads the flag at the group's lowest view index, so the
    /// answer does not depend on row order.
    const UNIFORM_SAMPLED: bool = true;
    /// The neighbour's cluster center, or [`NO_CLUSTER`] when it is unclustered or
    /// unknown.
    fn center(&self, v: NodeId, s: &Slot) -> u32;
    /// Whether the neighbour's cluster is sampled this round (false when unknown).
    fn sampled(&self, v: NodeId, s: &Slot) -> bool;
    /// Whether `v` knows the neighbour's state at all. Without that knowledge a
    /// leaving vertex leaves the slot alive.
    fn known(&self, v: NodeId, s: &Slot) -> bool;
    /// Whether `v`'s side of the slot's edge is still alive.
    fn alive(&self, v: NodeId, s: &Slot) -> bool;
}

/// Receives the adds and kills of [`decide`].
pub trait RoundSink {
    /// Adds view edge `idx` to the spanner.
    fn add(&mut self, idx: u32);
    /// Kills `v`'s slot `s`.
    fn kill(&mut self, v: NodeId, s: &Slot);
}

/// One decided vertex: its new cluster and tree parent, both [`NO_CLUSTER`] when it
/// left the clustering.
#[derive(Debug, Clone, Copy)]
pub struct Decision {
    /// The vertex.
    pub v: u32,
    /// Its new cluster center.
    pub center: u32,
    /// The far endpoint of its joining edge.
    pub parent: u32,
}

/// The decisions of one vertex block: per-vertex records plus flat add and kill lists.
/// Kill entries index the `alive` mask the batch is committed to.
#[derive(Debug, Default)]
pub struct RoundBatch {
    /// One record per decided vertex.
    pub verts: Vec<Decision>,
    /// View indices added to the spanner.
    pub adds: Vec<u32>,
    /// `alive` entries to clear.
    pub kills: Vec<u32>,
    /// Edge examinations, for engines that count work.
    pub work: u64,
}

/// The shared-memory sink: a kill clears the edge's one `alive` flag.
impl RoundSink for RoundBatch {
    #[inline]
    fn add(&mut self, idx: u32) {
        self.adds.push(idx);
    }

    #[inline]
    fn kill(&mut self, _v: NodeId, s: &Slot) {
        self.kills.push(s.idx);
    }
}

/// Per-worker grouping scratch, indexed by cluster id, plus the list of clusters the
/// current vertex touched. `stamps[c] == stamp` marks cluster `c`'s group as the
/// current vertex's, so nothing is cleared between vertices. The per-slot test reads
/// only `stamps` and the group's best slot; `low` is kept only when the lookup's
/// cluster members can disagree on the sampled flag.
#[derive(Debug)]
pub struct GroupScratch {
    stamp: u32,
    stamps: Vec<u32>,
    /// The group's best slot: the lightest, the lowest view index among equal weights.
    best: Vec<Slot>,
    /// The group's lowest view index and the sampled flag reported over it.
    low: Vec<u32>,
    sampled: Vec<bool>,
    touched: Vec<u32>,
}

impl GroupScratch {
    /// Scratch for cluster ids below `n`.
    pub fn new(n: usize) -> GroupScratch {
        GroupScratch {
            stamp: 0,
            stamps: vec![0; n],
            best: vec![Slot::default(); n],
            low: vec![0; n],
            sampled: vec![false; n],
            touched: Vec::new(),
        }
    }

    /// Groups `v`'s live slots `row` by the neighbour's cluster, skipping unclustered
    /// or unknown neighbours and `v`'s own cluster `c_v`.
    fn group<L: SlotLookup>(&mut self, v: NodeId, c_v: u32, row: &[Slot], lookup: L) {
        self.stamp += 1;
        let stamp = self.stamp;
        self.touched.clear();
        for s in row {
            let c = lookup.center(v, s);
            if c == NO_CLUSTER || c == c_v {
                continue;
            }
            let g = c as usize;
            if self.stamps[g] != stamp {
                self.stamps[g] = stamp;
                self.best[g] = *s;
                if !L::UNIFORM_SAMPLED {
                    self.low[g] = s.idx;
                }
                self.sampled[g] = lookup.sampled(v, s);
                self.touched.push(c);
                continue;
            }
            let best = &mut self.best[g];
            if s.w < best.w || (s.w == best.w && s.idx < best.idx) {
                *best = *s;
            }
            if !L::UNIFORM_SAMPLED && s.idx < self.low[g] {
                self.low[g] = s.idx;
                self.sampled[g] = lookup.sampled(v, s);
            }
        }
    }
}

/// Decides one clustering round for `v` in the unsampled cluster `c_v`, over the live
/// prefix `row` of its slots (see the module docs for the rule).
///
/// Returns the cluster `v` joins and the slot it joins through, or `None` when `v`
/// leaves the clustering. Kills are emitted in slot order.
pub fn decide<L: SlotLookup, S: RoundSink>(
    v: NodeId,
    c_v: u32,
    row: &[Slot],
    lookup: L,
    scratch: &mut GroupScratch,
    sink: &mut S,
) -> Option<(u32, Slot)> {
    scratch.group(v, c_v, row, lookup);
    let best = &scratch.best;
    let mut star: Option<(u32, Slot)> = None;
    for &c in &scratch.touched {
        if !scratch.sampled[c as usize] {
            continue;
        }
        let b = best[c as usize];
        let better = match star {
            None => true,
            Some((c0, s0)) => b.w < s0.w || (b.w == s0.w && c < c0),
        };
        if better {
            star = Some((c, b));
        }
    }
    match star {
        None => {
            for s in row {
                if !lookup.known(v, s) {
                    continue;
                }
                let c = lookup.center(v, s);
                if c != NO_CLUSTER && c != c_v && best[c as usize].idx == s.idx {
                    sink.add(s.idx);
                }
                sink.kill(v, s);
            }
        }
        Some((c_star, join)) => {
            sink.add(join.idx);
            for s in row {
                let c = lookup.center(v, s);
                if c == NO_CLUSTER || c == c_v {
                    continue;
                }
                let b = best[c as usize];
                if c == c_star {
                    sink.kill(v, s);
                } else if b.w < join.w {
                    if b.idx == s.idx {
                        sink.add(s.idx);
                    }
                    sink.kill(v, s);
                }
            }
        }
    }
    star
}

/// The joining phase for `v` in cluster `c_v` (possibly [`NO_CLUSTER`]): pushes the
/// lightest live edge into every adjacent foreign cluster onto `adds`.
pub fn join<L: SlotLookup>(
    v: NodeId,
    c_v: u32,
    row: &[Slot],
    lookup: L,
    scratch: &mut GroupScratch,
    adds: &mut Vec<u32>,
) {
    scratch.group(v, c_v, row, lookup);
    let best = &scratch.best;
    adds.extend(scratch.touched.iter().map(|&c| best[c as usize].idx));
}

/// Commits a round's batches in parallel: every add sets its `in_spanner` flag and
/// every kill clears its `alive` flag. Each flag only ever receives one value, so the
/// masks come out the same under any interleaving of the batches.
pub fn commit(batches: &[RoundBatch], in_spanner: &mut [bool], alive: &mut [bool]) {
    let in_spanner = AtomicFlags::new(in_spanner);
    let alive = AtomicFlags::new(alive);
    batches.par_iter().for_each(|batch| {
        for &idx in &batch.adds {
            in_spanner.set(idx as usize, true);
        }
        for &kill in &batch.kills {
            alive.set(kill as usize, false);
        }
    });
}

/// The retire pass, block by block over `part`: swap-removes from each vertex's live
/// prefix (`live[v]` slots) every slot that `lookup` reports dead or whose neighbour
/// is in the vertex's cluster `center(v)`. A block owns its vertices' contiguous slot
/// range and prefix lengths, so blocks run in parallel.
///
/// Returns one examination per alive slot, counted at the slot's lower endpoint; when
/// aliveness is per edge, that is one per alive edge.
pub fn retire<L: SlotLookup>(
    csr: &mut ViewCsr,
    live: &mut [u32],
    part: &BlockPartition,
    center: impl Fn(NodeId) -> u32 + Sync,
    lookup: L,
) -> u64 {
    let ViewCsr { offsets, slots, .. } = csr;
    let mut blocks = Vec::with_capacity(part.len());
    let (mut slots_rest, mut live_rest) = (&mut slots[..], live);
    for b in 0..part.len() {
        let verts = part.block(b);
        let base = offsets[verts.start] as usize;
        let slot_len = offsets[verts.end] as usize - base;
        let (block_slots, tail) = std::mem::take(&mut slots_rest).split_at_mut(slot_len);
        slots_rest = tail;
        let (block_live, tail) = std::mem::take(&mut live_rest).split_at_mut(verts.len());
        live_rest = tail;
        blocks.push((verts, base, block_slots, block_live));
    }
    let offsets: &[u32] = offsets;
    blocks
        .into_par_iter()
        .map(|(verts, base, slots, live)| {
            let mut work = 0u64;
            for (v, len) in verts.zip(live.iter_mut()) {
                let start = offsets[v] as usize - base;
                let row = &mut slots[start..start + *len as usize];
                let (kept, alive) = retire_row(v, center(v), row, lookup);
                *len = kept;
                work += alive;
            }
            work
        })
        .sum()
}

/// Swap-removes from `v`'s live prefix `row` the slots that are dead or lead into its
/// cluster `c_v`. Returns the new prefix length and the alive slots whose far
/// endpoint is above `v`.
#[inline]
fn retire_row<L: SlotLookup>(v: NodeId, c_v: u32, row: &mut [Slot], lookup: L) -> (u32, u64) {
    let mut work = 0u64;
    let mut end = row.len();
    let mut i = 0usize;
    while i < end {
        let s = row[i];
        if lookup.alive(v, &s) {
            work += u64::from((v as u32) < s.nbr);
            if c_v == NO_CLUSTER || lookup.center(v, &s) != c_v {
                i += 1;
                continue;
            }
        }
        end -= 1;
        row.swap(i, end);
    }
    (end as u32, work)
}
