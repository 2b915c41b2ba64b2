//! Reproducible graph generators used by the examples, tests and benchmark harness.
//!
//! Every randomized generator takes an explicit `seed` and uses a counter-based ChaCha
//! RNG so results are identical across platforms and thread counts. The families here
//! cover the workloads the paper's introduction motivates: dense graphs that need
//! sparsification (Erdős–Rényi, complete, preferential attachment), structured SDD
//! systems (2-D grids, image affinity grids — Remark 1), and expander-like graphs
//! (random regular) on which uniform sampling alone is already competitive.

use rand::prelude::*;
use rand::seq::SliceRandom;
use rand_chacha::ChaCha8Rng;

use crate::builder::GraphBuilder;
use crate::graph::{Edge, Graph};

/// Path graph `0 − 1 − … − (n−1)` with uniform weight `w`.
pub fn path(n: usize, w: f64) -> Graph {
    let mut g = Graph::with_capacity(n, n.saturating_sub(1));
    for i in 1..n {
        g.push_edge_unchecked(i - 1, i, w);
    }
    g
}

/// Cycle graph on `n ≥ 3` vertices with uniform weight `w`.
pub fn cycle(n: usize, w: f64) -> Graph {
    assert!(n >= 3, "cycle needs at least 3 vertices");
    let mut g = path(n, w);
    g.push_edge_unchecked(n - 1, 0, w);
    g
}

/// Star graph with center 0 and `n − 1` leaves, uniform weight `w`.
pub fn star(n: usize, w: f64) -> Graph {
    assert!(n >= 2, "star needs at least 2 vertices");
    let mut g = Graph::with_capacity(n, n - 1);
    for i in 1..n {
        g.push_edge_unchecked(0, i, w);
    }
    g
}

/// Complete graph `K_n` with uniform weight `w`.
pub fn complete(n: usize, w: f64) -> Graph {
    let mut g = Graph::with_capacity(n, n * (n - 1) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            g.push_edge_unchecked(u, v, w);
        }
    }
    g
}

/// `rows × cols` 2-D grid graph with uniform weight `w`. Vertex `(r, c)` has index
/// `r * cols + c`.
pub fn grid2d(rows: usize, cols: usize, w: f64) -> Graph {
    let n = rows * cols;
    let mut g = Graph::with_capacity(n, 2 * n);
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            if c + 1 < cols {
                g.push_edge_unchecked(v, v + 1, w);
            }
            if r + 1 < rows {
                g.push_edge_unchecked(v, v + cols, w);
            }
        }
    }
    g
}

/// Spanning tree of the `rows × cols` grid (the "comb" tree: the full first column plus
/// every row), useful as a deterministic low-diameter subgraph in tests.
pub fn grid_spanning_tree(rows: usize, cols: usize, w: f64) -> Graph {
    let n = rows * cols;
    let mut g = Graph::with_capacity(n, n.saturating_sub(1));
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            if c + 1 < cols {
                g.push_edge_unchecked(v, v + 1, w);
            }
        }
        if r + 1 < rows {
            g.push_edge_unchecked(r * cols, (r + 1) * cols, w);
        }
    }
    g
}

/// Erdős–Rényi `G(n, p)` graph with uniform weight `w`; only the edges present are
/// stored. The expected edge count is `p · n(n−1)/2`.
pub fn erdos_renyi(n: usize, p: f64, w: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut g = Graph::with_capacity(n, ((n * (n - 1)) as f64 * p / 2.0) as usize + 16);
    if p >= 1.0 {
        return complete(n, w);
    }
    if p <= 0.0 || n < 2 {
        return Graph::new(n);
    }
    // Geometric skipping: iterate over the implicit lexicographic edge ordering and jump
    // ahead by Geometric(p) each time, giving O(n + m) work instead of O(n²).
    let total = n * (n - 1) / 2;
    let log1mp = (1.0 - p).ln();
    let mut idx: i64 = -1;
    let mut pairs = PairCursor::new(n);
    loop {
        let r: f64 = rng.gen_range(f64::EPSILON..1.0);
        let skip = (r.ln() / log1mp).floor() as i64 + 1;
        idx += skip;
        if idx as usize >= total {
            break;
        }
        let (u, v) = pairs.seek(idx as usize);
        g.push_edge_unchecked(u, v, w);
    }
    g
}

/// Walks the lexicographic order of the unordered pairs `(u, v)`, `u < v < n`, for
/// non-decreasing indices: row `u` holds the `n − 1 − u` pairs from index
/// `row_start`. Each call moves forward from the last row found, so a whole pass
/// costs O(n) row steps in all.
struct PairCursor {
    u: usize,
    row_start: usize,
    row: usize,
}

impl PairCursor {
    fn new(n: usize) -> Self {
        PairCursor {
            u: 0,
            row_start: 0,
            row: n - 1,
        }
    }

    /// The pair at index `idx`, which must be at least the previous call's index.
    #[inline]
    fn seek(&mut self, idx: usize) -> (usize, usize) {
        while idx - self.row_start >= self.row {
            self.row_start += self.row;
            self.u += 1;
            self.row -= 1;
        }
        (self.u, self.u + 1 + idx - self.row_start)
    }
}

/// Erdős–Rényi graph with weights drawn uniformly from `[w_lo, w_hi]`.
pub fn erdos_renyi_weighted(n: usize, p: f64, w_lo: f64, w_hi: f64, seed: u64) -> Graph {
    assert!(w_lo > 0.0 && w_hi >= w_lo, "need 0 < w_lo <= w_hi");
    let base = erdos_renyi(n, p, 1.0, seed);
    let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(0x9E3779B97F4A7C15));
    let mut g = Graph::with_capacity(n, base.m());
    for e in base.edges() {
        g.push_edge_unchecked(e.u(), e.v(), rng.gen_range(w_lo..=w_hi));
    }
    g
}

/// Random `d`-regular-ish multigraph via the configuration model (self-loops discarded,
/// parallel stubs merged). `n · d` must be even. The result is a good expander with high
/// probability, which makes it the stress-test workload for sparsifier quality.
pub fn random_regular(n: usize, d: usize, w: f64, seed: u64) -> Graph {
    assert!(n * d % 2 == 0, "n * d must be even");
    assert!(d < n, "degree must be below n");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut stubs: Vec<usize> = (0..n).flat_map(|v| std::iter::repeat(v).take(d)).collect();
    stubs.shuffle(&mut rng);
    let mut b = GraphBuilder::new(n);
    let mut i = 0;
    while i + 1 < stubs.len() {
        let (u, v) = (stubs[i], stubs[i + 1]);
        if u != v {
            // Ignore result: validated endpoints, positive weight.
            let _ = b.add(u, v, w);
        }
        i += 2;
    }
    b.build()
}

/// Barabási–Albert preferential-attachment graph: starts from a small clique and
/// attaches each new vertex to `k` existing vertices chosen proportionally to degree.
/// Produces the heavy-tailed "social network" degree profile used in example workloads.
pub fn preferential_attachment(n: usize, k: usize, w: f64, seed: u64) -> Graph {
    assert!(k >= 1 && n > k, "need 1 <= k < n");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    // Repeated-endpoint list implements preferential attachment in O(1) per draw.
    let mut endpoints: Vec<usize> = Vec::with_capacity(2 * n * k);
    // Seed clique on the first k + 1 vertices.
    for u in 0..=k {
        for v in (u + 1)..=k {
            let _ = b.add(u, v, w);
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    for v in (k + 1)..n {
        // Deduplicate in draw order: a HashSet here would make the *edge order*
        // of the graph depend on the process-random hasher state, breaking
        // cross-process reproducibility of everything keyed on edge ids.
        let mut targets: Vec<usize> = Vec::with_capacity(k);
        let mut guard = 0;
        while targets.len() < k && guard < 50 * k {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            if t != v && !targets.contains(&t) {
                targets.push(t);
            }
            guard += 1;
        }
        for &t in &targets {
            let _ = b.add(v, t, w);
            endpoints.push(v);
            endpoints.push(t);
        }
    }
    b.build()
}

/// Barbell graph: two cliques of size `k` joined by a path of `bridge` edges of weight
/// `bridge_w`. The bridge edges have very high effective resistance, so any correct
/// sparsifier must keep them — a classical adversarial case for uniform sampling.
pub fn barbell(k: usize, bridge: usize, clique_w: f64, bridge_w: f64) -> Graph {
    assert!(k >= 2, "cliques need at least 2 vertices");
    let n = 2 * k + bridge.saturating_sub(1);
    let mut g = Graph::with_capacity(n, k * (k - 1) + bridge + 1);
    // Left clique on 0..k, right clique on the last k vertices.
    for u in 0..k {
        for v in (u + 1)..k {
            g.push_edge_unchecked(u, v, clique_w);
        }
    }
    let right_start = n - k;
    for u in 0..k {
        for v in (u + 1)..k {
            g.push_edge_unchecked(right_start + u, right_start + v, clique_w);
        }
    }
    // Bridge path from vertex k-1 through intermediate vertices to right_start.
    let mut prev = k - 1;
    for i in 0..bridge {
        let next = if i + 1 == bridge { right_start } else { k + i };
        g.push_edge_unchecked(prev, next, bridge_w);
        prev = next;
    }
    g
}

/// Synthetic image-affinity grid (Remark 1 workload): an `rows × cols` grid whose edge
/// weights are `exp(−β · (I_u − I_v)²)` for a synthetic piecewise-smooth "image" `I`
/// with a few random blobs. These are exactly the SDD systems that arise in computer
/// vision / graphics preconditioning.
pub fn image_affinity_grid(rows: usize, cols: usize, beta: f64, seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Synthetic image: sum of a handful of Gaussian blobs plus mild noise.
    let blobs: Vec<(f64, f64, f64, f64)> = (0..5)
        .map(|_| {
            (
                rng.gen_range(0.0..rows as f64),
                rng.gen_range(0.0..cols as f64),
                rng.gen_range(2.0..(rows.max(4) as f64 / 2.0)),
                rng.gen_range(0.3..1.0),
            )
        })
        .collect();
    let intensity = |r: usize, c: usize, noise: f64| -> f64 {
        let mut val = 0.0;
        for &(br, bc, sigma, amp) in &blobs {
            let dr = r as f64 - br;
            let dc = c as f64 - bc;
            val += amp * (-(dr * dr + dc * dc) / (2.0 * sigma * sigma)).exp();
        }
        val + noise
    };
    let img: Vec<f64> = (0..rows * cols)
        .map(|i| intensity(i / cols, i % cols, rng.gen_range(-0.02..0.02)))
        .collect();
    let n = rows * cols;
    let mut g = Graph::with_capacity(n, 2 * n);
    let weight = |a: f64, b: f64| -> f64 {
        let d = a - b;
        (-beta * d * d).exp().max(1e-6)
    };
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            if c + 1 < cols {
                g.push_edge_unchecked(v, v + 1, weight(img[v], img[v + 1]));
            }
            if r + 1 < rows {
                g.push_edge_unchecked(v, v + cols, weight(img[v], img[v + cols]));
            }
        }
    }
    g
}

/// A "dumbbell of expanders": two random-regular expanders joined by a single weak edge.
/// Used to check that sparsifiers preserve sparse cuts.
pub fn expander_dumbbell(half: usize, d: usize, w: f64, bridge_w: f64, seed: u64) -> Graph {
    let left = random_regular(half, d, w, seed);
    let right = random_regular(half, d, w, seed.wrapping_add(1));
    let n = 2 * half;
    let mut g = Graph::with_capacity(n, left.m() + right.m() + 1);
    for e in left.edges() {
        g.push_edge_unchecked(e.u(), e.v(), e.w);
    }
    for e in right.edges() {
        g.push_edge_unchecked(half + e.u(), half + e.v(), e.w);
    }
    g.push_edge_unchecked(0, half, bridge_w);
    g
}

/// A deterministic **streaming** edge source: a path skeleton (edges `i − (i+1)`,
/// guaranteeing connectivity) followed by counter-based pseudo-random extra edges,
/// produced one at a time so a stream of edges far larger than RAM never has to be
/// materialised. The out-of-core experiments drive [`crate::Graph`]-free ingestion
/// ([`sgs-stream`'s `ingest_batch`]) straight off this iterator.
///
/// The extra edges are derived from splitmix64 of `(seed, index)` alone — no RNG
/// state evolves across calls — so any sub-range of the stream can be regenerated
/// independently and the sequence is identical across platforms, batch chops, and
/// thread counts.
#[derive(Debug, Clone)]
pub struct StreamingEdgeGen {
    n: usize,
    total: usize,
    next: usize,
    seed: u64,
}

/// Creates a [`StreamingEdgeGen`] over `n` vertices yielding exactly
/// `total_edges` edges (`total_edges ≥ n − 1` so the path skeleton fits).
pub fn streaming_edges(n: usize, total_edges: usize, seed: u64) -> StreamingEdgeGen {
    assert!(n >= 2, "need at least two vertices");
    assert!(
        total_edges >= n - 1,
        "total_edges must cover the path skeleton"
    );
    StreamingEdgeGen {
        n,
        total: total_edges,
        next: 0,
        seed,
    }
}

/// SplitMix64 finalizer: one add-and-mix round with full 64-bit avalanche and no
/// carried state (Steele et al., *Fast splittable pseudorandom number generators*,
/// OOPSLA 2014). Every counter-based coin in the workspace mixes through it: this
/// generator, `sgs_core::edge_coin`, the streaming engine's reduction seeds and the
/// CONGEST fault coins.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Iterator for StreamingEdgeGen {
    type Item = Edge;

    fn next(&mut self) -> Option<Edge> {
        if self.next >= self.total {
            return None;
        }
        let i = self.next;
        self.next += 1;
        if i < self.n - 1 {
            // Path skeleton: keeps every prefix past n−1 edges connected.
            return Some(Edge::new(i, i + 1, 1.0));
        }
        // Pseudo-random extra edge: endpoints and weight are pure functions of
        // (seed, i).
        let mut k = splitmix64(self.seed ^ (i as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        let u = (k % self.n as u64) as usize;
        k = splitmix64(k);
        let mut v = (k % (self.n as u64 - 1)) as usize;
        if v >= u {
            v += 1; // skip the diagonal: never a self-loop
        }
        k = splitmix64(k);
        // Weight in [0.5, 1.5): strictly positive, mildly heterogeneous.
        let w = 0.5 + (k >> 11) as f64 / (1u64 << 53) as f64;
        Some(Edge::new(u, v, w))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.total - self.next;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for StreamingEdgeGen {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::is_connected;

    #[test]
    fn basic_families_have_expected_sizes() {
        assert_eq!(path(5, 1.0).m(), 4);
        assert_eq!(cycle(5, 1.0).m(), 5);
        assert_eq!(star(5, 1.0).m(), 4);
        assert_eq!(complete(6, 1.0).m(), 15);
        assert_eq!(grid2d(4, 5, 1.0).m(), 4 * 4 + 3 * 5);
        assert_eq!(grid_spanning_tree(4, 5, 1.0).m(), 19);
    }

    #[test]
    fn basic_families_are_connected() {
        assert!(is_connected(&path(10, 1.0)));
        assert!(is_connected(&cycle(10, 1.0)));
        assert!(is_connected(&star(10, 1.0)));
        assert!(is_connected(&complete(10, 1.0)));
        assert!(is_connected(&grid2d(7, 9, 1.0)));
        assert!(is_connected(&grid_spanning_tree(7, 9, 1.0)));
    }

    #[test]
    fn grid_spanning_tree_is_a_tree_inside_grid() {
        let t = grid_spanning_tree(6, 7, 1.0);
        assert_eq!(t.m(), 6 * 7 - 1);
        assert!(is_connected(&t));
    }

    #[test]
    fn erdos_renyi_edge_count_is_near_expectation() {
        let n = 400;
        let p = 0.05;
        let g = erdos_renyi(n, p, 1.0, 7);
        let expected = p * (n * (n - 1) / 2) as f64;
        let m = g.m() as f64;
        assert!(
            m > expected * 0.8 && m < expected * 1.2,
            "m = {m}, expected ≈ {expected}"
        );
        // Edge endpoints must be valid and distinct.
        for e in g.edges() {
            assert!(e.u() < n && e.v() < n && e.u() != e.v());
        }
    }

    #[test]
    fn erdos_renyi_extremes() {
        assert_eq!(erdos_renyi(50, 0.0, 1.0, 1).m(), 0);
        assert_eq!(erdos_renyi(10, 1.0, 1.0, 1).m(), 45);
        assert_eq!(erdos_renyi(1, 0.5, 1.0, 1).m(), 0);
    }

    #[test]
    fn erdos_renyi_is_deterministic_per_seed() {
        let a = erdos_renyi(200, 0.1, 1.0, 42);
        let b = erdos_renyi(200, 0.1, 1.0, 42);
        let c = erdos_renyi(200, 0.1, 1.0, 43);
        assert_eq!(a.edges(), b.edges());
        assert_ne!(a.edges(), c.edges());
    }

    #[test]
    fn weighted_erdos_renyi_weights_in_range() {
        let g = erdos_renyi_weighted(100, 0.2, 0.5, 2.0, 5);
        for e in g.edges() {
            assert!(e.w >= 0.5 && e.w <= 2.0);
        }
    }

    /// Maps an index in `0 .. n(n−1)/2` to the corresponding unordered pair `(u, v)`
    /// with `u < v`, in lexicographic order, walking the rows from 0: the oracle for
    /// [`PairCursor`].
    fn unrank_edge(mut idx: usize, n: usize) -> (usize, usize) {
        let mut u = 0usize;
        let mut row = n - 1;
        while idx >= row {
            idx -= row;
            u += 1;
            row -= 1;
        }
        (u, u + 1 + idx)
    }

    #[test]
    fn unrank_edge_covers_all_pairs() {
        let n = 7;
        let mut seen = std::collections::HashSet::new();
        for idx in 0..n * (n - 1) / 2 {
            let (u, v) = unrank_edge(idx, n);
            assert!(u < v && v < n);
            assert!(seen.insert((u, v)));
        }
        assert_eq!(seen.len(), n * (n - 1) / 2);
    }

    #[test]
    fn pair_cursor_matches_unrank_edge() {
        for n in [2, 3, 4, 17, 64] {
            let total = n * (n - 1) / 2;
            for stride in 1..=n {
                let mut pairs = PairCursor::new(n);
                for idx in (0..total).step_by(stride) {
                    assert_eq!(
                        pairs.seek(idx),
                        unrank_edge(idx, n),
                        "n {n}, stride {stride}, index {idx}"
                    );
                }
            }
        }
    }

    #[test]
    fn random_regular_has_bounded_degrees() {
        let g = random_regular(100, 6, 1.0, 3);
        let deg = g.degrees();
        for &d in &deg {
            assert!(d <= 6);
        }
        // Configuration model discards few stubs: average degree should stay close to d.
        let avg = g.average_degree();
        assert!(avg > 5.0, "average degree {avg} too low");
    }

    #[test]
    fn preferential_attachment_shape() {
        let g = preferential_attachment(300, 3, 1.0, 11);
        assert_eq!(g.n(), 300);
        assert!(is_connected(&g));
        // Hubs exist: max degree should be several times the attachment parameter.
        let max_deg = *g.degrees().iter().max().unwrap();
        assert!(max_deg >= 9, "max degree {max_deg} unexpectedly small");
    }

    #[test]
    fn barbell_structure() {
        let g = barbell(5, 3, 1.0, 0.1);
        // 2 cliques of 10 edges each + 3 bridge edges; n = 2*5 + 2 = 12.
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 23);
        assert!(is_connected(&g));
        let single = barbell(4, 1, 1.0, 0.5);
        assert_eq!(single.n(), 8);
        assert_eq!(single.m(), 13);
        assert!(is_connected(&single));
    }

    #[test]
    fn image_affinity_grid_is_a_valid_grid() {
        let g = image_affinity_grid(8, 10, 50.0, 9);
        assert_eq!(g.n(), 80);
        assert_eq!(g.m(), 8 * 9 + 7 * 10);
        assert!(is_connected(&g));
        for e in g.edges() {
            assert!(e.w > 0.0 && e.w <= 1.0);
        }
    }

    #[test]
    fn streaming_edges_is_deterministic_valid_and_connected() {
        let n = 120;
        let total = 1000;
        let edges: Vec<Edge> = streaming_edges(n, total, 42).collect();
        assert_eq!(edges.len(), total);
        let mut g = Graph::with_capacity(n, total);
        for e in &edges {
            assert_ne!(e.u(), e.v(), "no self-loops");
            assert!(e.u() < n && e.v() < n);
            assert!(e.w >= 0.5 && e.w < 1.5);
            g.push_edge_unchecked(e.u(), e.v(), e.w);
        }
        assert!(is_connected(&g), "path skeleton keeps the stream connected");
        // Stateless: a second pass and a mid-stream restart reproduce the sequence.
        let again: Vec<Edge> = streaming_edges(n, total, 42).collect();
        assert_eq!(edges, again);
        let mut tail = streaming_edges(n, total, 42);
        for _ in 0..500 {
            tail.next();
        }
        let tail: Vec<Edge> = tail.collect();
        assert_eq!(&edges[500..], &tail[..]);
        // A different seed moves the non-skeleton edges.
        let other: Vec<Edge> = streaming_edges(n, total, 43).collect();
        assert_eq!(&edges[..n - 1], &other[..n - 1]);
        assert_ne!(&edges[n - 1..], &other[n - 1..]);
    }

    #[test]
    fn expander_dumbbell_has_single_bridge() {
        let g = expander_dumbbell(50, 4, 1.0, 0.01, 23);
        assert_eq!(g.n(), 100);
        assert!(is_connected(&g));
        let bridges: Vec<_> = g
            .edges()
            .iter()
            .filter(|e| (e.u() < 50) != (e.v() < 50))
            .collect();
        assert_eq!(bridges.len(), 1);
        assert!((bridges[0].w - 0.01).abs() < 1e-12);
    }
}
