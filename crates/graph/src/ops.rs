//! Graph algebra in the sense of Section 2 of the paper.
//!
//! Given `G₁ = (V, E, w₁)` and `G₂ = (V, E, w₂)` the paper writes `G₁ + G₂` for the
//! graph whose weights are added, and `a·G₁` for the graph with scaled weights. Because
//! we represent graphs as multigraphs, the sum simply concatenates edge lists — which
//! has exactly the same Laplacian as the weight-added simple graph — and callers may
//! [`crate::graph::Graph::coalesce`] when a simple graph is preferred.

use crate::error::{GraphError, Result};
use crate::graph::{Edge, Graph};

/// Returns `G₁ + G₂`: the vertex sets must match; edge lists are concatenated, so the
/// Laplacian of the result is `L_{G₁} + L_{G₂}`.
pub fn add(g1: &Graph, g2: &Graph) -> Result<Graph> {
    if g1.n() != g2.n() {
        return Err(GraphError::SizeMismatch {
            left: g1.n(),
            right: g2.n(),
        });
    }
    let mut out = Graph::with_capacity(g1.n(), g1.m() + g2.m());
    for e in g1.edges() {
        out.push_edge_unchecked(e.u, e.v, e.w);
    }
    for e in g2.edges() {
        out.push_edge_unchecked(e.u, e.v, e.w);
    }
    Ok(out)
}

/// Returns `a · G`: every edge weight multiplied by `a > 0`.
pub fn scale(g: &Graph, a: f64) -> Result<Graph> {
    if !(a.is_finite() && a > 0.0) {
        return Err(GraphError::NonPositiveWeight { weight: a });
    }
    let mut out = Graph::with_capacity(g.n(), g.m());
    for e in g.edges() {
        out.push_edge_unchecked(e.u, e.v, e.w * a);
    }
    Ok(out)
}

/// Returns the coalesced union `G₁ ∪ G₂`: a *simple* graph over the shared vertex set
/// in which every `(u, v)` pair present in either input appears exactly once, with the
/// weights of all duplicates (across and within the inputs) summed.
///
/// Electrically this is exact — parallel conductances add — so the Laplacian of the
/// result is `L_{G₁} + L_{G₂}`, the same as [`add`]; unlike [`add`] the edge count is
/// bounded by the number of *distinct* vertex pairs rather than `m₁ + m₂`. This is the
/// merge step of the semi-streaming merge-and-reduce tree (`sgs-stream`), where keeping
/// unions collapsed is what keeps resident memory proportional to sparsifier size
/// instead of growing with every level.
///
/// The output edge list is sorted by `(min(u,v), max(u,v))` and allocated at exactly
/// its final size (the distinct-pair count is measured on the sorted scratch before the
/// output graph is built).
pub fn merge_union(g1: &Graph, g2: &Graph) -> Result<Graph> {
    if g1.n() != g2.n() {
        return Err(GraphError::SizeMismatch {
            left: g1.n(),
            right: g2.n(),
        });
    }
    let mut scratch: Vec<Edge> = Vec::with_capacity(g1.m() + g2.m());
    for e in g1.edges().iter().chain(g2.edges()) {
        let (u, v) = e.key();
        scratch.push(Edge { u, v, w: e.w });
    }
    coalesce_in_place(&mut scratch);
    let mut out = Graph::with_capacity(g1.n(), scratch.len());
    for e in &scratch {
        out.push_edge_unchecked(e.u, e.v, e.w);
    }
    Ok(out)
}

/// Canonicalizes (`u ≤ v`), sorts by vertex pair, and collapses duplicate pairs
/// **in place** by summing their weights, truncating the buffer to the distinct-pair
/// count. No allocation is performed; the buffer's capacity is retained.
///
/// Duplicate weights are accumulated in sorted order, which is a deterministic
/// function of the input sequence alone (the unstable sort is a pure function of its
/// input) — so fixed-seed merge results are bitwise reproducible regardless of thread
/// count or how the inputs were batched. This is the zero-copy merge primitive of the
/// streaming engine, where the buffer doubles as the union graph's edge storage.
pub fn coalesce_in_place(edges: &mut Vec<Edge>) {
    if edges.is_empty() {
        return;
    }
    for e in edges.iter_mut() {
        if e.u > e.v {
            std::mem::swap(&mut e.u, &mut e.v);
        }
    }
    edges.sort_unstable_by_key(|e| (e.u, e.v));
    let mut write = 0usize;
    for read in 1..edges.len() {
        let e = edges[read];
        let last = &mut edges[write];
        if (e.u, e.v) == (last.u, last.v) {
            last.w += e.w;
        } else {
            write += 1;
            edges[write] = e;
        }
    }
    edges.truncate(write + 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn add_concatenates_and_preserves_quadratic_form() {
        let g1 = generators::path(4, 1.0);
        let g2 = generators::cycle(4, 2.0);
        let s = add(&g1, &g2).unwrap();
        assert_eq!(s.m(), g1.m() + g2.m());
        let x = vec![0.5, -1.0, 2.0, 0.0];
        let q = g1.quadratic_form(&x) + g2.quadratic_form(&x);
        assert!((s.quadratic_form(&x) - q).abs() < 1e-12);
    }

    #[test]
    fn add_rejects_mismatched_sizes() {
        let g1 = generators::path(3, 1.0);
        let g2 = generators::path(4, 1.0);
        assert!(matches!(
            add(&g1, &g2),
            Err(GraphError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn scale_multiplies_quadratic_form() {
        let g = generators::cycle(6, 1.5);
        let s = scale(&g, 4.0).unwrap();
        let x: Vec<f64> = (0..6).map(|i| (i as f64).sin()).collect();
        assert!((s.quadratic_form(&x) - 4.0 * g.quadratic_form(&x)).abs() < 1e-9);
        assert!(scale(&g, 0.0).is_err());
        assert!(scale(&g, -1.0).is_err());
        assert!(scale(&g, f64::NAN).is_err());
    }

    #[test]
    fn merge_union_accumulates_duplicate_weights() {
        // g1 has a parallel pair internally; g2 repeats one of g1's edges reversed.
        let g1 = Graph::from_tuples(4, vec![(0, 1, 1.0), (1, 0, 2.0), (2, 3, 1.5)]).unwrap();
        let g2 = Graph::from_tuples(4, vec![(1, 0, 4.0), (1, 2, 0.5)]).unwrap();
        let u = merge_union(&g1, &g2).unwrap();
        assert_eq!(u.n(), 4);
        assert_eq!(u.m(), 3); // (0,1), (1,2), (2,3)
        let edges = u.edges();
        assert_eq!((edges[0].u, edges[0].v), (0, 1));
        assert!((edges[0].w - 7.0).abs() < 1e-12);
        assert!((edges[1].w - 0.5).abs() < 1e-12);
        assert!((edges[2].w - 1.5).abs() < 1e-12);
        // Laplacians add exactly: union quadratic form = sum of parts.
        let x = vec![1.0, -2.0, 0.5, 3.0];
        let q = g1.quadratic_form(&x) + g2.quadratic_form(&x);
        assert!((u.quadratic_form(&x) - q).abs() < 1e-12);
    }

    #[test]
    fn merge_union_self_merge_doubles_weights() {
        let g = generators::erdos_renyi_weighted(30, 0.3, 0.5, 2.0, 11);
        let u = merge_union(&g, &g).unwrap();
        assert_eq!(u.m(), g.coalesce().m());
        let c = g.coalesce();
        for (a, b) in u.edges().iter().zip(c.edges().iter()) {
            assert_eq!((a.u, a.v), (b.u, b.v));
            assert!((a.w - 2.0 * b.w).abs() < 1e-12 * b.w);
        }
    }

    #[test]
    fn merge_union_of_disjoint_vertex_ranges_concatenates() {
        // Edges of g1 live in 0..5, edges of g2 in 5..10; no pair collides.
        let mut g1 = Graph::new(10);
        let mut g2 = Graph::new(10);
        for i in 0..4 {
            g1.add_edge(i, i + 1, 1.0 + i as f64).unwrap();
            g2.add_edge(5 + i, 6 + i, 2.0 + i as f64).unwrap();
        }
        let u = merge_union(&g1, &g2).unwrap();
        assert_eq!(u.m(), g1.m() + g2.m());
        let x: Vec<f64> = (0..10).map(|i| (i as f64).cos()).collect();
        let q = g1.quadratic_form(&x) + g2.quadratic_form(&x);
        assert!((u.quadratic_form(&x) - q).abs() < 1e-12);
        // Output is sorted by canonical pair and exactly sized.
        for w in u.edges().windows(2) {
            assert!((w[0].u, w[0].v) < (w[1].u, w[1].v));
        }
    }

    #[test]
    fn merge_union_rejects_mismatched_sizes_and_handles_empty() {
        let g1 = generators::path(3, 1.0);
        let g2 = generators::path(4, 1.0);
        assert!(matches!(
            merge_union(&g1, &g2),
            Err(GraphError::SizeMismatch { .. })
        ));
        let e1 = Graph::new(5);
        let e2 = Graph::new(5);
        let u = merge_union(&e1, &e2).unwrap();
        assert_eq!(u.n(), 5);
        assert_eq!(u.m(), 0);
    }

    #[test]
    fn coalesce_in_place_merges_without_reallocating() {
        let mut v = vec![
            Edge::new(1, 2, 1.0),
            Edge::new(0, 1, 2.0),
            Edge::new(2, 1, 0.5), // reversed orientation still merges
            Edge::new(0, 3, 1.0),
            Edge::new(1, 2, 0.25),
        ];
        let cap = v.capacity();
        coalesce_in_place(&mut v);
        assert_eq!(v.capacity(), cap);
        assert_eq!(v.len(), 3);
        assert_eq!((v[0].u, v[0].v, v[0].w), (0, 1, 2.0));
        assert_eq!((v[1].u, v[1].v, v[1].w), (0, 3, 1.0));
        assert!((v[2].w - 1.75).abs() < 1e-15);
        let mut empty: Vec<Edge> = Vec::new();
        coalesce_in_place(&mut empty);
        assert!(empty.is_empty());
    }
}
