//! Density-aware vertex block partitioning for parallel vertex sweeps.
//!
//! The spanner engine (and the CONGEST simulator's `par_step`) distribute per-vertex
//! work to rayon in *blocks* of contiguous vertices. Historically the block size was a
//! fixed 256 vertices — a function of `n` only, which made the applied decision order
//! independent of the pool width, but also made the work grain blind to both the
//! machine (4 threads over a 300-vertex graph got 2 blocks) and the degree
//! distribution (on a preferential-attachment graph one block can hold 100× the edge
//! work of another).
//!
//! [`BlockPartition`] replaces the fixed size with an adaptive, density-aware cut: the
//! vertex range `0..n` is split into contiguous blocks of approximately equal *edge
//! load* (degree mass, pdGRASS-style), targeting a few blocks per thread with a floor
//! of [`MIN_BLOCK_VERTICES`] vertices per block.
//!
//! # Why depending on the thread count is safe here
//!
//! The partition may legitimately vary with `rayon::current_num_threads()` because
//! every consumer commits block results in a way that is *partition-invariant*:
//!
//! * the spanner's decision phase emits per-vertex records whose content depends only
//!   on round-start state, and its commit is order-invariant (see
//!   [`crate::round::commit`]), so the final masks and the `work` tally are
//!   identical under any block boundaries;
//! * the CONGEST `par_step` concatenates staged messages in block order — blocks are
//!   ascending contiguous ranges, so the staging order is the global vertex order for
//!   any partition, and the delivery sort (stable, by recipient) yields identical
//!   inboxes and metrics.
//!
//! `tests/parallelism.rs` pins both facts across pool widths {1, 2, 3, 4, 8}.

/// Minimum vertices per block: below this the per-block bookkeeping (scratch init,
/// batch allocation) dominates the work the block carries.
pub const MIN_BLOCK_VERTICES: usize = 64;

/// Target blocks per thread. A few blocks per worker lets the chunk-claiming pool
/// balance skewed blocks without making blocks so small that batch overhead returns.
const BLOCKS_PER_THREAD: usize = 4;

/// A partition of the vertex range `0..n` into contiguous blocks of roughly equal
/// edge load.
#[derive(Debug, Clone)]
pub struct BlockPartition {
    /// Block `i` covers vertices `starts[i]..starts[i + 1]`.
    starts: Vec<u32>,
}

impl BlockPartition {
    /// Cuts `0..n` into at most `threads × 4` contiguous blocks of approximately equal
    /// accumulated `load` (plus one unit per vertex, so zero-degree stretches still
    /// split), with at least [`MIN_BLOCK_VERTICES`] vertices per block.
    ///
    /// `load(v)` is typically the degree of `v`; the cut is deterministic in
    /// `(n, threads, load)`.
    pub fn adaptive(n: usize, threads: usize, load: impl Fn(usize) -> usize) -> BlockPartition {
        let max_blocks = (n / MIN_BLOCK_VERTICES).max(1);
        let target = (threads.max(1) * BLOCKS_PER_THREAD).clamp(1, max_blocks);
        let mut starts = Vec::with_capacity(target + 1);
        starts.push(0u32);
        if n == 0 {
            return BlockPartition { starts };
        }
        let total: u64 = (0..n).map(|v| load(v) as u64 + 1).sum();
        let mut acc = 0u64;
        let mut block_start = 0usize;
        for v in 0..n {
            acc += load(v) as u64 + 1;
            let filled = v + 1;
            let cut = starts.len(); // 1-based index of the boundary we are looking for
            if cut < target
                && filled - block_start >= MIN_BLOCK_VERTICES
                && n - filled >= MIN_BLOCK_VERTICES
                && acc * target as u64 >= total * cut as u64
            {
                starts.push(filled as u32);
                block_start = filled;
            }
        }
        starts.push(n as u32);
        BlockPartition { starts }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// True when the partition covers an empty vertex range.
    pub fn is_empty(&self) -> bool {
        self.len() == 0 || self.starts[self.len()] == 0
    }

    /// The vertex range of block `i`.
    #[inline]
    pub fn block(&self, i: usize) -> std::ops::Range<usize> {
        self.starts[i] as usize..self.starts[i + 1] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_cover(part: &BlockPartition, n: usize) {
        let mut next = 0usize;
        for i in 0..part.len() {
            let r = part.block(i);
            assert_eq!(r.start, next, "blocks must be contiguous");
            assert!(r.end > r.start, "blocks must be non-empty");
            next = r.end;
        }
        assert_eq!(next, n, "blocks must cover 0..n");
    }

    #[test]
    fn uniform_load_splits_evenly() {
        let n = 10_000;
        let part = BlockPartition::adaptive(n, 4, |_| 10);
        check_cover(&part, n);
        assert!(part.len() > 1 && part.len() <= 16);
        for i in 0..part.len() {
            assert!(part.block(i).len() >= MIN_BLOCK_VERTICES);
        }
        let sizes: Vec<usize> = (0..part.len()).map(|i| part.block(i).len()).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= n / part.len(), "even loads give even blocks");
    }

    #[test]
    fn skewed_load_gives_small_blocks_around_heavy_vertices() {
        // First 100 vertices carry 99% of the load.
        let n = 4096;
        let part = BlockPartition::adaptive(n, 4, |v| if v < 100 { 1000 } else { 1 });
        check_cover(&part, n);
        assert!(part.len() > 2);
        // The heavy prefix is cut at the floor (64 heavy vertices already exceed the
        // per-block load share), while the light tail collects into large blocks.
        assert_eq!(part.block(0).len(), MIN_BLOCK_VERTICES);
        let last = part.block(part.len() - 1);
        assert!(
            last.len() > 8 * MIN_BLOCK_VERTICES,
            "light tail block was only {} vertices",
            last.len()
        );
        // A uniform partition of the same range would put ~n/len heavy vertices in
        // block 0; the density-aware cut keeps it at the floor instead.
        assert!(part.block(0).len() < n / part.len());
    }

    #[test]
    fn small_and_empty_ranges() {
        let part = BlockPartition::adaptive(0, 8, |_| 1);
        assert_eq!(part.len(), 0, "n = 0 keeps zero blocks");
        assert!(part.is_empty());
        let part = BlockPartition::adaptive(10, 8, |_| 1);
        check_cover(&part, 10);
        assert_eq!(part.len(), 1, "n below the floor is a single block");
        let part = BlockPartition::adaptive(MIN_BLOCK_VERTICES * 2, 8, |_| 1);
        check_cover(&part, MIN_BLOCK_VERTICES * 2);
        assert!(part.len() <= 2);
    }

    #[test]
    fn deterministic_in_inputs_only() {
        let a = BlockPartition::adaptive(5000, 4, |v| v % 17);
        let b = BlockPartition::adaptive(5000, 4, |v| v % 17);
        assert_eq!(a.starts, b.starts);
        // More threads → at least as many blocks (until the floor caps it).
        let c = BlockPartition::adaptive(5000, 8, |v| v % 17);
        assert!(c.len() >= a.len());
    }
}
