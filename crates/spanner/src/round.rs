//! The Baswana–Sen round kernel, shared by the shared-memory engine
//! ([`crate::baswana_sen`]) and the CONGEST protocol of `sgs-distributed`.
//!
//! One clustering round of a vertex `v` in an unsampled cluster `c_v`, over the live
//! prefix of its slot row:
//!
//! 1. **Join edge** ([`decide`]): one pass over the row takes the lexicographic minimum
//!    of (weight, cluster, view index) over the slots into sampled foreign clusters.
//!    That is the lightest edge into the lightest sampled cluster `c*` (ties to the
//!    lowest cluster id, then the lowest view index: rows are unordered, so tie-breaks
//!    are explicit). The same pass keeps the lightest weight over all foreign slots. The
//!    comparison is written with `&` and `|`, so the sampled flag, true for about half
//!    the clusters, is not a mispredicted branch.
//! 2. **Decide**: `v` joins `c*` through the join edge and kills its slots into `c*`.
//!    When no foreign slot is lighter than the join edge, one more pass kills the `c*`
//!    slots and the round is done. Otherwise the strictly lighter clusters are exactly
//!    those with a slot below the join weight, and only those slots are grouped: a
//!    cluster-stamped scratch, one record per cluster, holds each cluster's lightest
//!    slot (lowest view index among equal weights) with no per-vertex allocation. One
//!    pass then kills every slot into `c*` or into a lighter cluster and adds each
//!    lighter cluster's best edge. When no sampled cluster is adjacent, `v` leaves the
//!    clustering: the whole row is grouped (`GroupScratch::group`), `v` keeps the
//!    lightest edge into every adjacent cluster and kills every slot it knows about. A
//!    lookup whose cluster members can disagree on the sampled flag
//!    ([`SlotLookup::UNIFORM_SAMPLED`] false: CONGEST under faults) skips step 1 and
//!    reads the whole rule off the grouped row. Kills are emitted in slot order; adds
//!    and kills go to a [`RoundSink`], and the caller commits them ([`commit`]).
//! 3. **Retire** ([`retire`]): a block-parallel pass compacts to the front of every
//!    live prefix the slots that are alive and do not lead into the vertex's own
//!    cluster. Each slot is swapped with the first dropped one, so the loop has no
//!    data-dependent branch and the row stays a permutation of its slots (the t-bundle
//!    reuses the rows for its next component). The engine runs it after the commit,
//!    the protocol after the next neighbour exchange: both read every neighbour's
//!    current center.
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
    /// answer does not depend on row order. When they agree, [`decide`] finds the join
    /// edge in one pass over the row, before any grouping.
    const UNIFORM_SAMPLED: bool = true;
    /// The neighbour's cluster center, or [`NO_CLUSTER`] when it is unclustered or
    /// unknown.
    fn center(&self, v: NodeId, s: &Slot) -> u32;
    /// Whether the neighbour's cluster is sampled this round (false when `v` does not
    /// know the neighbour's state).
    ///
    /// Precondition: the neighbour is clustered, i.e. [`center`](Self::center) is not
    /// [`NO_CLUSTER`]. The shared-memory lookup reads the flag at the neighbour's
    /// center and panics on an unclustered neighbour, so callers test the center
    /// first, as [`decide`] does.
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
/// cluster members can disagree on the sampled flag. Grouping only the clusters
/// lighter than a join edge stamps `stamps` and `best` alone.
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

    /// Groups only the slots of `row` lighter than `below` into their foreign clusters,
    /// stamping each group and keeping its best slot. With `below` the join edge's
    /// weight, the stamped clusters are exactly the strictly lighter ones, and each
    /// one's best slot is its best over the whole row.
    fn group_below<L: SlotLookup>(
        &mut self,
        v: NodeId,
        c_v: u32,
        row: &[Slot],
        lookup: L,
        below: f64,
    ) {
        self.stamp += 1;
        let stamp = self.stamp;
        for s in row {
            if s.w >= below {
                continue;
            }
            let c = lookup.center(v, s);
            if c == NO_CLUSTER || c == c_v {
                continue;
            }
            let g = c as usize;
            let best = &mut self.best[g];
            if self.stamps[g] != stamp {
                self.stamps[g] = stamp;
                *best = *s;
            } else if s.w < best.w || (s.w == best.w && s.idx < best.idx) {
                *best = *s;
            }
        }
    }
}

/// Decides one clustering round for `v` in the unsampled cluster `c_v`, over the live
/// prefix `row` of its slots (see the module docs for the rule).
///
/// With a lookup whose clusters report one sampled flag (`L::UNIFORM_SAMPLED`), one
/// pass over `row` finds the join edge; only the clusters lighter than it are grouped,
/// and none at all when there are none. A vertex that leaves, or a lookup whose
/// cluster members can disagree on the flag, groups the whole row.
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
    if L::UNIFORM_SAMPLED {
        if let Some((c_star, join, lightest)) = join_edge(v, c_v, row, lookup) {
            sink.add(join.idx);
            // The strictly lighter clusters are those with a slot below the join edge.
            let lighter = lightest < join.w;
            if lighter {
                scratch.group_below(v, c_v, row, lookup, join.w);
            }
            for s in row {
                let c = lookup.center(v, s);
                if c == c_star {
                    sink.kill(v, s);
                } else if lighter && c != NO_CLUSTER && scratch.stamps[c as usize] == scratch.stamp
                {
                    if scratch.best[c as usize].idx == s.idx {
                        sink.add(s.idx);
                    }
                    sink.kill(v, s);
                }
            }
            return Some((c_star, join));
        }
    }
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

/// One pass over `v`'s live prefix: the join edge, as the lexicographic minimum of
/// (weight, cluster, view index) over the slots into sampled foreign clusters, with
/// its cluster and the lightest weight over all foreign slots. `None` when no foreign
/// cluster is sampled. Only valid when every member of a cluster reports the same
/// sampled flag.
#[inline]
fn join_edge<L: SlotLookup>(
    v: NodeId,
    c_v: u32,
    row: &[Slot],
    lookup: L,
) -> Option<(u32, Slot, f64)> {
    let mut c_star = NO_CLUSTER;
    let mut join = Slot {
        nbr: 0,
        idx: u32::MAX,
        w: f64::INFINITY,
    };
    let mut lightest = f64::INFINITY;
    for s in row {
        let c = lookup.center(v, s);
        if c == NO_CLUSTER || c == c_v {
            continue;
        }
        lightest = lightest.min(s.w);
        // Half the clusters are sampled, so the test must not be a branch: `&` and
        // `|` evaluate every operand.
        let ties = (s.w == join.w) & ((c < c_star) | ((c == c_star) & (s.idx < join.idx)));
        if lookup.sampled(v, s) & ((s.w < join.w) | ties) {
            c_star = c;
            join = *s;
        }
    }
    (c_star != NO_CLUSTER).then_some((c_star, join, lightest))
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

/// The retire pass, block by block over `part`: swaps out of each vertex's live
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

/// Compacts to the front of `v`'s live prefix `row` the slots that are alive and do not
/// lead into its cluster `c_v`. Every slot is swapped with the first dropped one, so
/// the loop has no data-dependent branch and the row stays a permutation of its slots.
/// Returns the new prefix length and the alive slots whose far endpoint is above `v`.
#[inline]
fn retire_row<L: SlotLookup>(v: NodeId, c_v: u32, row: &mut [Slot], lookup: L) -> (u32, u64) {
    let mut work = 0u64;
    let mut kept = 0usize;
    for i in 0..row.len() {
        let s = row[i];
        let alive = lookup.alive(v, &s);
        work += u64::from(alive & ((v as u32) < s.nbr));
        let keep = alive & ((c_v == NO_CLUSTER) | (lookup.center(v, &s) != c_v));
        row[i] = row[kept];
        row[kept] = s;
        kept += keep as usize;
    }
    (kept as u32, work)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    /// A lookup over per-vertex centers, per-cluster sampled flags and per-edge alive
    /// flags. `U` is its `UNIFORM_SAMPLED`, so one set of flags can drive both decide
    /// paths.
    #[derive(Clone, Copy)]
    struct Flags<'a, const U: bool> {
        center: &'a [u32],
        sampled: &'a [bool],
        alive: &'a [bool],
    }

    impl<const U: bool> SlotLookup for Flags<'_, U> {
        const UNIFORM_SAMPLED: bool = U;

        fn center(&self, _v: NodeId, s: &Slot) -> u32 {
            self.center[s.nbr as usize]
        }

        fn sampled(&self, _v: NodeId, s: &Slot) -> bool {
            let c = self.center[s.nbr as usize];
            c != NO_CLUSTER && self.sampled[c as usize]
        }

        fn known(&self, _v: NodeId, _s: &Slot) -> bool {
            true
        }

        fn alive(&self, _v: NodeId, s: &Slot) -> bool {
            self.alive[s.idx as usize]
        }
    }

    /// Records adds and kills as one sequence, so their interleaving is compared too.
    #[derive(Debug, Default, PartialEq)]
    struct Log(Vec<(bool, u32)>);

    impl RoundSink for Log {
        fn add(&mut self, idx: u32) {
            self.0.push((true, idx));
        }

        fn kill(&mut self, _v: NodeId, s: &Slot) {
            self.0.push((false, s.idx));
        }
    }

    #[test]
    fn join_edge_decide_matches_grouping_decide() {
        let n = 64;
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let (mut fast, mut grouped) = (GroupScratch::new(n), GroupScratch::new(n));
        let (mut joins, mut lighter) = (0, 0);
        for case in 0..4000 {
            // A few clusters, so most have several slots in the row; vertex 0 is `v`,
            // in cluster `c_v`.
            let c_v = 1u32;
            let clusters: Vec<u32> = (2..2 + rng.gen_range(1u32..8)).collect();
            let center: Vec<u32> = (0..n)
                .map(|_| match rng.gen_range(0..10) {
                    0 => NO_CLUSTER,
                    1 => c_v,
                    _ => clusters[rng.gen_range(0..clusters.len())],
                })
                .collect();
            let all_unsampled = case % 5 == 0;
            let sampled: Vec<bool> = (0..n)
                .map(|_| !all_unsampled && rng.gen_bool(0.5))
                .collect();
            let discrete = case % 2 == 0;
            let deg = rng.gen_range(0..40);
            let mut ids: Vec<u32> = (0..3 * deg as u32).collect();
            ids.shuffle(&mut rng);
            let row: Vec<Slot> = ids[..deg]
                .iter()
                .map(|&idx| Slot {
                    nbr: rng.gen_range(1..n as u32),
                    idx,
                    w: if discrete {
                        [1.0, 2.0, 4.0][rng.gen_range(0usize..3)]
                    } else {
                        rng.gen_range(0.1..10.0)
                    },
                })
                .collect();
            let alive = vec![true; 3 * deg];
            let uniform = Flags::<true> {
                center: &center,
                sampled: &sampled,
                alive: &alive,
            };
            let by_group = Flags::<false> {
                center: &center,
                sampled: &sampled,
                alive: &alive,
            };
            let (mut got, mut want) = (Log::default(), Log::default());
            let a = decide(0, c_v, &row, uniform, &mut fast, &mut got);
            let b = decide(0, c_v, &row, by_group, &mut grouped, &mut want);
            assert_eq!(
                a.map(|(c, s)| (c, s.idx)),
                b.map(|(c, s)| (c, s.idx)),
                "case {case}"
            );
            assert_eq!(got, want, "case {case}");
            if let Some((_, join)) = a {
                joins += 1;
                let foreign = |s: &&Slot| ![NO_CLUSTER, c_v].contains(&center[s.nbr as usize]);
                lighter += usize::from(row.iter().filter(foreign).any(|s| s.w < join.w));
            }
        }
        // Both join-edge branches and the leave case ran.
        assert!(lighter > 100 && joins - lighter > 100 && 4000 - joins > 100);
    }

    #[test]
    fn retire_keeps_every_slot_and_counts_alive_work() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..50 {
            let n = rng.gen_range(2..60);
            let m = rng.gen_range(0..4 * n);
            let edges: Vec<(NodeId, NodeId, f64)> = (0..m)
                .map(|_| {
                    let u = rng.gen_range(0..n);
                    let v = (u + rng.gen_range(1..n)) % n;
                    (u, v, rng.gen_range(0.1..10.0))
                })
                .collect();
            let mut csr = ViewCsr::build(n, edges.iter().copied());
            let center: Vec<u32> = (0..n)
                .map(|_| match rng.gen_range(0..4) {
                    0 => NO_CLUSTER,
                    _ => rng.gen_range(0..4),
                })
                .collect();
            let alive: Vec<bool> = (0..m).map(|_| rng.gen_bool(0.7)).collect();
            let mut live: Vec<u32> = (0..n)
                .map(|v| rng.gen_range(0..=csr.row(v).len() as u32))
                .collect();
            let before = csr.clone();
            let old_live = live.clone();
            let look = Flags::<true> {
                center: &center,
                sampled: &[],
                alive: &alive,
            };
            let part = BlockPartition::adaptive(n, 2, |v| csr.row(v).len());
            let work = retire(&mut csr, &mut live, &part, |v| center[v], look);

            let by_idx = |slots: &[Slot]| {
                let mut s = slots.to_vec();
                s.sort_by_key(|s| s.idx);
                s
            };
            let mut expected_work = 0u64;
            for v in 0..n {
                let (old, new) = (before.row(v), csr.row(v));
                let (len, new_len) = (old_live[v] as usize, live[v] as usize);
                assert_eq!(by_idx(&old[..len]), by_idx(&new[..len]), "vertex {v}");
                assert_eq!(old[len..], new[len..], "vertex {v}");
                let keeps = |s: &Slot| {
                    alive[s.idx as usize]
                        && (center[v] == NO_CLUSTER || center[s.nbr as usize] != center[v])
                };
                let kept: Vec<Slot> = old[..len].iter().copied().filter(keeps).collect();
                assert_eq!(by_idx(&new[..new_len]), by_idx(&kept), "vertex {v}");
                expected_work += old[..len]
                    .iter()
                    .filter(|s| alive[s.idx as usize] && s.nbr as usize > v)
                    .count() as u64;
            }
            assert_eq!(work, expected_work);
        }
    }
}
