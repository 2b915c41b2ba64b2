//! Helpers shared by the integration tests. Each test binary compiles its own copy
//! and uses only some of them, hence the `dead_code` allowance.

#![allow(dead_code)]

use spectral_sparsify::graph::Graph;

/// Runs `op` on a fresh rayon pool of `threads` workers.
pub fn on_pool<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool");
    pool.install(op)
}

/// FNV-1a over the little-endian bytes of each word.
fn fnv1a_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for x in words {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// FNV-1a over the little-endian bytes of each id: a stable fingerprint of an
/// ordered id list that is cheap to recompute in a capture binary.
pub fn fnv1a(ids: &[usize]) -> u64 {
    fnv1a_words(ids.iter().map(|&id| id as u64))
}

/// FNV-1a over each edge's `(u, v, w)` in order — endpoints as little-endian u64,
/// the weight by its exact bit pattern — so any reweighting or reordering drift
/// re-pins the fixture.
pub fn fingerprint(g: &Graph) -> u64 {
    fnv1a_words(
        g.edges()
            .iter()
            .flat_map(|e| [e.u() as u64, e.v() as u64, e.w.to_bits()]),
    )
}
