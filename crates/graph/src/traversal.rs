//! Dijkstra shortest paths for the stretch computations: the stretch of an edge
//! `e = (u, v)` over a subgraph `H` is `w_e · dist_H(u, v)` where distances use
//! resistance lengths `1 / w_e` (Section 2, "Stretch").

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::csr::Adjacency;
use crate::graph::NodeId;

/// Entry in the Dijkstra priority queue; ordered so that the smallest distance pops
/// first from Rust's max-heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse order on distance; ties broken by node id for determinism.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra distances from `source` where edge `e` has length `length(e.weight)`.
/// Unreachable vertices get `f64::INFINITY`.
pub(crate) fn dijkstra_with_lengths<F>(adj: &Adjacency, source: NodeId, length: F) -> Vec<f64>
where
    F: Fn(f64) -> f64,
{
    let mut dist = vec![f64::INFINITY; adj.n()];
    let mut heap = BinaryHeap::new();
    dist[source] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: source,
    });
    while let Some(HeapEntry { dist: d, node: v }) = heap.pop() {
        if d > dist[v] {
            continue;
        }
        for nb in adj.neighbors(v) {
            let nd = d + length(nb.weight);
            if nd < dist[nb.node] {
                dist[nb.node] = nd;
                heap.push(HeapEntry {
                    dist: nd,
                    node: nb.node,
                });
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn weighted_path() -> Graph {
        // 0 -1.0- 1 -0.5- 2 -0.25- 3  (resistances 1, 2, 4)
        Graph::from_tuples(4, vec![(0, 1, 1.0), (1, 2, 0.5), (2, 3, 0.25)]).unwrap()
    }

    #[test]
    fn resistance_lengths_add_up_along_a_path() {
        let g = weighted_path();
        let adj = g.adjacency();
        let d = dijkstra_with_lengths(&adj, 0, |w| 1.0 / w);
        // resistances: 1 + 2 + 4 = 7
        assert!((d[3] - 7.0).abs() < 1e-12);
        assert!((d[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dijkstra_prefers_lighter_resistance_path() {
        // Two paths from 0 to 2: direct heavy-resistance edge vs. light two-hop path.
        let g = Graph::from_tuples(3, vec![(0, 2, 0.1), (0, 1, 10.0), (1, 2, 10.0)]).unwrap();
        let adj = g.adjacency();
        let d = dijkstra_with_lengths(&adj, 0, |w| 1.0 / w);
        // direct: 1/0.1 = 10; via 1: 0.1 + 0.1 = 0.2
        assert!((d[2] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn unreachable_is_infinite() {
        let g = Graph::from_tuples(3, vec![(0, 1, 1.0)]).unwrap();
        let adj = g.adjacency();
        let d = dijkstra_with_lengths(&adj, 0, |w| 1.0 / w);
        assert!(d[2].is_infinite());
    }
}
