//! Compressed-sparse-row adjacency view of a [`Graph`].
//!
//! The adjacency view stores, for every vertex, its incident half-edges (neighbor,
//! weight, originating edge id) in one contiguous allocation. Dijkstra/BFS traversals,
//! stretch computations and the solver's chain build, all of which iterate over
//! neighborhoods heavily, read it.

use crate::graph::{EdgeId, Graph, NodeId};

/// One half-edge stored in the CSR adjacency structure: 16 bytes, the adjacent vertex
/// and the edge id as `u32`, and the edge weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    node: u32,
    edge: u32,
    /// Weight of the connecting edge.
    pub weight: f64,
}

impl Neighbor {
    /// The adjacent vertex.
    #[inline]
    pub fn node(&self) -> NodeId {
        self.node as NodeId
    }

    /// Id of the edge in the originating [`Graph`].
    #[inline]
    pub fn edge(&self) -> EdgeId {
        self.edge as EdgeId
    }
}

/// CSR adjacency structure: for each vertex `v`, the half-edges incident to `v` occupy
/// `entries[offsets[v]..offsets[v + 1]]`.
///
/// Offsets and edge ids are `u32`, so a graph is capped at `u32::MAX / 2` edges (every
/// edge has two half-edges), which [`Adjacency::build`] asserts, as the spanner's
/// `ViewCsr` does.
#[derive(Debug, Clone, Default)]
pub struct Adjacency {
    offsets: Vec<u32>,
    entries: Vec<Neighbor>,
    n: usize,
    m: usize,
}

impl Adjacency {
    /// Builds the adjacency structure from a graph in `O(n + m)` time using the
    /// classical two-pass counting-sort layout.
    ///
    /// # Panics
    /// If the graph has more than `u32::MAX / 2` edges.
    pub fn build(g: &Graph) -> Self {
        let n = g.n();
        let m = g.m();
        assert!(
            m <= (u32::MAX / 2) as usize,
            "graph too large for u32 adjacency indices"
        );
        let mut offsets = vec![0u32; n + 1];
        for e in g.edges() {
            offsets[e.u() + 1] += 1;
            offsets[e.v() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut entries = vec![
            Neighbor {
                node: 0,
                edge: 0,
                weight: 0.0,
            };
            2 * m
        ];
        for (id, e) in g.edges().iter().enumerate() {
            let edge = id as u32;
            entries[cursor[e.u()] as usize] = Neighbor {
                node: e.v,
                edge,
                weight: e.w,
            };
            cursor[e.u()] += 1;
            entries[cursor[e.v()] as usize] = Neighbor {
                node: e.u,
                edge,
                weight: e.w,
            };
            cursor[e.v()] += 1;
        }
        Adjacency {
            offsets,
            entries,
            n,
            m,
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges in the originating graph.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The half-edges incident to vertex `v`.
    pub fn neighbors(&self, v: NodeId) -> &[Neighbor] {
        &self.entries[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Unweighted degree of vertex `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Iterates over `(vertex, &[Neighbor])` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &[Neighbor])> + '_ {
        (0..self.n).map(move |v| (v, self.neighbors(v)))
    }
}

#[cfg(test)]
mod tests {
    use crate::graph::Graph;

    fn path4() -> Graph {
        Graph::from_tuples(4, vec![(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)]).unwrap()
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = path4();
        let adj = g.adjacency();
        assert_eq!(adj.n(), 4);
        assert_eq!(adj.m(), 3);
        assert_eq!(adj.degree(0), 1);
        assert_eq!(adj.degree(1), 2);
        assert_eq!(adj.degree(3), 1);
        let nb0 = adj.neighbors(0);
        assert_eq!(nb0.len(), 1);
        assert_eq!(nb0[0].node(), 1);
        assert_eq!(nb0[0].weight, 1.0);
        assert_eq!(nb0[0].edge(), 0);
        let nb2: Vec<_> = adj.neighbors(2).iter().map(|nb| nb.node()).collect();
        assert!(nb2.contains(&1) && nb2.contains(&3));
    }

    #[test]
    fn half_edge_count_is_2m() {
        let g = path4();
        let adj = g.adjacency();
        let total: usize = (0..4).map(|v| adj.degree(v)).sum();
        assert_eq!(total, 2 * g.m());
    }

    #[test]
    fn parallel_edges_appear_twice() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(0, 1, 5.0).unwrap();
        let adj = g.adjacency();
        assert_eq!(adj.degree(0), 2);
        assert_eq!(adj.degree(1), 2);
        let edges: Vec<_> = adj.neighbors(0).iter().map(|nb| nb.edge()).collect();
        assert!(edges.contains(&0) && edges.contains(&1));
    }

    #[test]
    fn empty_and_isolated_vertices() {
        let g = Graph::new(3);
        let adj = g.adjacency();
        for v in 0..3 {
            assert_eq!(adj.degree(v), 0);
            assert!(adj.neighbors(v).is_empty());
        }
    }

    #[test]
    fn iter_visits_all_vertices() {
        let g = path4();
        let adj = g.adjacency();
        let visited: Vec<_> = adj.iter().map(|(v, _)| v).collect();
        assert_eq!(visited, vec![0, 1, 2, 3]);
    }
}
