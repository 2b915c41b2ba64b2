//! Incremental graph builder that merges duplicate edges.
//!
//! Generators and samplers often produce the same vertex pair more than once; the
//! builder accumulates weights per pair (exact electrically) and produces a simple
//! [`Graph`] at the end.

use std::collections::HashMap;

use crate::error::{GraphError, Result};
use crate::graph::{Edge, Graph, NodeId};

/// Accumulates edges keyed by their canonical `(min, max)` endpoint pair, summing the
/// weights of duplicates.
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: usize,
    weights: HashMap<(NodeId, NodeId), f64>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            weights: HashMap::new(),
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Adds an edge, accumulating weight onto an existing edge with the same endpoints.
    pub fn add(&mut self, u: NodeId, v: NodeId, w: f64) -> Result<&mut Self> {
        if u >= self.n {
            return Err(GraphError::VertexOutOfRange {
                vertex: u,
                n: self.n,
            });
        }
        if v >= self.n {
            return Err(GraphError::VertexOutOfRange {
                vertex: v,
                n: self.n,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        if !(w.is_finite() && w > 0.0) {
            return Err(GraphError::NonPositiveWeight { weight: w });
        }
        let key = if u <= v { (u, v) } else { (v, u) };
        *self.weights.entry(key).or_insert(0.0) += w;
        Ok(self)
    }

    /// Finalizes the builder into a simple graph with deterministically ordered edges.
    pub fn build(self) -> Graph {
        let mut edges: Vec<Edge> = self
            .weights
            .into_iter()
            .map(|((u, v), w)| Edge::new(u, v, w))
            .collect();
        edges.sort_by_key(|e| (e.u(), e.v()));
        // Edges were validated on insertion; reconstruct without re-validating.
        let mut g = Graph::with_capacity(self.n, edges.len());
        for e in edges {
            g.push_edge_unchecked(e.u(), e.v(), e.w);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_duplicates() {
        let mut b = GraphBuilder::new(3);
        b.add(0, 1, 1.0).unwrap();
        b.add(1, 0, 2.0).unwrap();
        b.add(1, 2, 3.0).unwrap();
        let g = b.build();
        assert_eq!(g.m(), 2);
        assert!((g.edges()[0].w - 3.0).abs() < 1e-12);
    }

    #[test]
    fn validates_input() {
        let mut b = GraphBuilder::new(2);
        assert!(b.add(0, 0, 1.0).is_err());
        assert!(b.add(0, 5, 1.0).is_err());
        assert!(b.add(0, 1, -1.0).is_err());
        assert!(b.add(0, 1, f64::NAN).is_err());
        assert_eq!(b.build().m(), 0);
    }

    #[test]
    fn build_is_deterministic() {
        let mut b1 = GraphBuilder::new(4);
        let mut b2 = GraphBuilder::new(4);
        for &(u, v, w) in &[(2, 3, 1.0), (0, 1, 1.0), (1, 3, 2.0)] {
            b1.add(u, v, w).unwrap();
        }
        for &(u, v, w) in &[(1, 3, 2.0), (0, 1, 1.0), (2, 3, 1.0)] {
            b2.add(u, v, w).unwrap();
        }
        assert_eq!(b1.build().edges(), b2.build().edges());
    }
}
