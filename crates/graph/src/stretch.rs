//! Stretch of edges over subgraphs (Section 2 of the paper).
//!
//! The stretch of an edge `e = (u, v)` with weight `w_e` over a graph `H` is
//! `st_H(e) = w_e · min_{p ⊆ H} Σ_{e' ∈ p} 1 / w_{e'}`, i.e. the edge weight times the
//! resistance-length shortest-path distance between the endpoints inside `H`.
//!
//! A `(2 log n)`-spanner is exactly a subgraph `H` with `st_H(e) ≤ 2 log n` for every
//! edge of `G`, which is what Theorems 1 and 2 guarantee and what these functions verify
//! empirically (`tests/theorems.rs`).

use rayon::prelude::*;

use crate::graph::Graph;
use crate::traversal::dijkstra_with_lengths;

/// Computes the stretch over `H` of every edge of `G`, in parallel.
///
/// The implementation runs one Dijkstra per *distinct source vertex* that appears as an
/// endpoint, rather than one per edge, and shares the distance vector across all edges
/// with that source. On graphs where many edges share endpoints (grids, dense graphs)
/// this is substantially cheaper.
pub fn stretch_of_all_edges(g: &Graph, h: &Graph) -> Vec<f64> {
    assert_eq!(g.n(), h.n(), "G and H must share a vertex set");
    let adj_h = h.adjacency();
    // Group edge ids by their `u` endpoint.
    let mut by_source: Vec<Vec<usize>> = vec![Vec::new(); g.n()];
    for (id, e) in g.edges().iter().enumerate() {
        by_source[e.u].push(id);
    }
    let mut stretches = vec![0.0f64; g.m()];
    let results: Vec<(usize, f64)> = by_source
        .par_iter()
        .enumerate()
        .filter(|(_, ids)| !ids.is_empty())
        .flat_map_iter(|(src, ids)| {
            let dist = dijkstra_with_lengths(&adj_h, src, |w| 1.0 / w);
            ids.iter()
                .map(|&id| {
                    let e = g.edge(id);
                    (id, e.w * dist[e.v])
                })
                .collect::<Vec<_>>()
        })
        .collect();
    for (id, s) in results {
        stretches[id] = s;
    }
    stretches
}

/// Maximum stretch over `H` of any edge of `G`.
pub fn max_stretch(g: &Graph, h: &Graph) -> f64 {
    stretch_of_all_edges(g, h)
        .into_iter()
        .fold(0.0f64, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::graph::Graph;

    #[test]
    fn stretch_of_edge_inside_subgraph_is_one() {
        let g = generators::cycle(5, 1.0);
        // H = G: every edge has stretch exactly w_e * (1 / w_e) = 1 via itself.
        let s = stretch_of_all_edges(&g, &g);
        for v in s {
            assert!((v - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn stretch_over_spanning_path() {
        // G = triangle with unit weights; H = path 0-1-2.
        let g = generators::complete(3, 1.0);
        let h = Graph::from_tuples(3, vec![(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let s = stretch_of_all_edges(&g, &h);
        // Edge (0,2) must go around: resistance 2, weight 1 => stretch 2.
        let max = s.iter().cloned().fold(0.0f64, f64::max);
        assert!((max - 2.0).abs() < 1e-12);
        assert!((max_stretch(&g, &h) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn stretch_respects_weights() {
        // Heavy edge (large conductance) over a light detour has large stretch.
        let g = Graph::from_tuples(3, vec![(0, 2, 10.0), (0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let h = Graph::from_tuples(3, vec![(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let s = stretch_of_all_edges(&g, &h);
        // detour resistance = 2, weight = 10 => stretch 20.
        assert!((s[0] - 20.0).abs() < 1e-12);
    }

    #[test]
    fn disconnected_subgraph_gives_infinite_stretch() {
        let g = generators::complete(4, 1.0);
        let h = Graph::from_tuples(4, vec![(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        let s = stretch_of_all_edges(&g, &h);
        assert!(s.iter().any(|v| v.is_infinite()));
        assert!(max_stretch(&g, &h).is_infinite());
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let g = generators::grid2d(6, 6, 1.0);
        let h = generators::grid_spanning_tree(6, 6, 1.0);
        let all = stretch_of_all_edges(&g, &h);
        let adj = h.adjacency();
        for (id, e) in g.edges().iter().enumerate() {
            let single = e.w * dijkstra_with_lengths(&adj, e.u, |w| 1.0 / w)[e.v];
            assert!(
                (all[id] - single).abs() < 1e-9,
                "edge {id}: {} vs {}",
                all[id],
                single
            );
        }
    }
}
