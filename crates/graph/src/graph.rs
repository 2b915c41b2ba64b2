//! The core weighted undirected graph type.
//!
//! A [`Graph`] is a list of weighted undirected edges over vertices `0..n`. Parallel
//! edges are allowed (they arise naturally when graphs are summed, cf. Section 2 of the
//! paper) and are treated as distinct resistors connected in parallel. All weights must
//! be strictly positive and finite.

use crate::csr::Adjacency;
use crate::error::{GraphError, Result};

/// Identifier of a vertex: an index in `0..n`.
pub type NodeId = usize;

/// Identifier of an edge: an index into [`Graph::edges`].
pub type EdgeId = usize;

/// A weighted undirected edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// One endpoint.
    pub u: NodeId,
    /// The other endpoint.
    pub v: NodeId,
    /// Strictly positive weight. Interpreted electrically as a conductance; the
    /// resistance of the edge is `1 / w`.
    pub w: f64,
}

impl Edge {
    /// Creates a new edge.
    pub fn new(u: NodeId, v: NodeId, w: f64) -> Self {
        Edge { u, v, w }
    }

    /// Resistance `1 / w` of the edge viewed as a resistor.
    pub fn resistance(&self) -> f64 {
        1.0 / self.w
    }

    /// Returns the endpoint different from `x`, assuming `x` is one of the endpoints.
    pub fn other(&self, x: NodeId) -> NodeId {
        if x == self.u {
            self.v
        } else {
            self.u
        }
    }

    /// Canonical `(min, max)` endpoint pair, useful as a hash key for simple graphs.
    pub fn key(&self) -> (NodeId, NodeId) {
        if self.u <= self.v {
            (self.u, self.v)
        } else {
            (self.v, self.u)
        }
    }
}

/// A weighted undirected multigraph on vertices `0..n`.
///
/// This is the common currency of the whole workspace: spanners, bundles, sparsifiers
/// and Laplacian matrices are all built from or converted to this type.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Graph {
    n: usize,
    edges: Vec<Edge>,
}

impl Graph {
    /// Creates an empty graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        Graph {
            n,
            edges: Vec::new(),
        }
    }

    /// Creates an empty graph with `n` vertices, reserving capacity for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        Graph {
            n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Builds a graph from an explicit edge list, validating every edge.
    pub fn from_edges(n: usize, edges: Vec<Edge>) -> Result<Self> {
        let mut g = Graph::with_capacity(n, edges.len());
        for e in edges {
            g.add_edge(e.u, e.v, e.w)?;
        }
        Ok(g)
    }

    /// Builds a graph from `(u, v, w)` tuples, validating every edge.
    pub fn from_tuples<I>(n: usize, tuples: I) -> Result<Self>
    where
        I: IntoIterator<Item = (NodeId, NodeId, f64)>,
    {
        let it = tuples.into_iter();
        let mut g = Graph::with_capacity(n, it.size_hint().0);
        for (u, v, w) in it {
            g.add_edge(u, v, w)?;
        }
        Ok(g)
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges (counting parallel edges separately).
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the graph has no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Checks whether `(u, v, w)` is a valid edge for a graph on `n` vertices —
    /// endpoints in range, no self-loop, weight strictly positive and finite. The
    /// single source of truth for the edge invariant; [`Graph::add_edge`] and the
    /// batch-validation paths (`io`, `sgs-stream`) all defer to it.
    pub fn validate_edge(n: usize, u: NodeId, v: NodeId, w: f64) -> Result<()> {
        if u >= n {
            return Err(GraphError::VertexOutOfRange { vertex: u, n });
        }
        if v >= n {
            return Err(GraphError::VertexOutOfRange { vertex: v, n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        if !(w.is_finite() && w > 0.0) {
            return Err(GraphError::NonPositiveWeight { weight: w });
        }
        Ok(())
    }

    /// Validates and appends an edge, returning its [`EdgeId`].
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: f64) -> Result<EdgeId> {
        Graph::validate_edge(self.n, u, v, w)?;
        let id = self.edges.len();
        self.edges.push(Edge { u, v, w });
        Ok(id)
    }

    /// Appends an edge without validation. Intended for hot paths where the caller has
    /// already validated endpoints and weight (e.g. graph generators and samplers).
    pub fn push_edge_unchecked(&mut self, u: NodeId, v: NodeId, w: f64) -> EdgeId {
        debug_assert!(u < self.n && v < self.n && u != v && w > 0.0 && w.is_finite());
        let id = self.edges.len();
        self.edges.push(Edge { u, v, w });
        id
    }

    /// Builds a graph directly from an already-validated edge list, without per-edge
    /// checks or copying. Intended for hot paths (samplers, sparsifier output assembly)
    /// where every edge was derived from an existing valid graph.
    pub fn from_edges_unchecked(n: usize, edges: Vec<Edge>) -> Graph {
        debug_assert!(edges.iter().all(|e| e.u < n
            && e.v < n
            && e.u != e.v
            && e.w > 0.0
            && e.w.is_finite()));
        Graph { n, edges }
    }

    /// The edge list.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Mutable access to the edge list (weights may be rescaled in place).
    pub fn edges_mut(&mut self) -> &mut [Edge] {
        &mut self.edges
    }

    /// Consumes the graph, returning its edge list.
    pub fn into_edges(self) -> Vec<Edge> {
        self.edges
    }

    /// The edge with the given id.
    pub fn edge(&self, id: EdgeId) -> Edge {
        self.edges[id]
    }

    /// Sum of all edge weights.
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|e| e.w).sum()
    }

    /// Weighted degree (sum of incident edge weights) of every vertex. This is the
    /// diagonal of the Laplacian `L_G`.
    pub fn weighted_degrees(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.n];
        for e in &self.edges {
            d[e.u] += e.w;
            d[e.v] += e.w;
        }
        d
    }

    /// Unweighted degree (number of incident edges) of every vertex.
    pub fn degrees(&self) -> Vec<usize> {
        let mut d = vec![0usize; self.n];
        for e in &self.edges {
            d[e.u] += 1;
            d[e.v] += 1;
        }
        d
    }

    /// Minimum and maximum edge weight, or `None` for an edgeless graph.
    pub fn weight_range(&self) -> Option<(f64, f64)> {
        if self.edges.is_empty() {
            return None;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for e in &self.edges {
            lo = lo.min(e.w);
            hi = hi.max(e.w);
        }
        Some((lo, hi))
    }

    /// Average (unweighted) degree `2m / n`.
    pub fn average_degree(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            2.0 * self.m() as f64 / self.n as f64
        }
    }

    /// Builds the CSR adjacency view of the graph.
    pub fn adjacency(&self) -> Adjacency {
        Adjacency::build(self)
    }

    /// Evaluates the Laplacian quadratic form `xᵀ L_G x = Σ_e w_e (x_u − x_v)²` directly
    /// from the edge list, without materialising a matrix.
    ///
    /// This is the quantity preserved by spectral sparsifiers (Section 1 of the paper);
    /// it is used extensively in tests and verification code.
    pub fn quadratic_form(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.n);
        self.edges
            .iter()
            .map(|e| {
                let d = x[e.u] - x[e.v];
                e.w * d * d
            })
            .sum()
    }

    /// Applies the Laplacian to a vector: `y = L_G x`, computed edge-by-edge.
    pub fn laplacian_apply(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n];
        self.laplacian_apply_into(x, &mut y);
        y
    }

    /// Allocation-free [`Graph::laplacian_apply`] writing into a caller-provided
    /// buffer; the hot SPMV of every matrix-free Laplacian solve.
    pub fn laplacian_apply_into(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.n);
        debug_assert_eq!(y.len(), self.n);
        y.fill(0.0);
        for e in &self.edges {
            let d = e.w * (x[e.u] - x[e.v]);
            y[e.u] += d;
            y[e.v] -= d;
        }
    }

    /// Returns the subgraph induced by keeping exactly the edges whose ids are in
    /// `keep` (a boolean mask of length `m`). Vertex set is unchanged.
    pub fn edge_subgraph(&self, keep: &[bool]) -> Graph {
        debug_assert_eq!(keep.len(), self.m());
        let edges = self
            .edges
            .iter()
            .zip(keep.iter())
            .filter_map(|(e, &k)| if k { Some(*e) } else { None })
            .collect();
        Graph { n: self.n, edges }
    }

    /// Returns a graph with the same vertex set containing the listed edges.
    pub fn with_edge_ids(&self, ids: &[EdgeId]) -> Graph {
        let edges = ids.iter().map(|&id| self.edges[id]).collect();
        Graph { n: self.n, edges }
    }

    /// Merges parallel edges by summing their weights, returning a simple graph.
    ///
    /// Electrically this is exact: parallel resistors of conductances `w₁, w₂` behave as
    /// a single resistor of conductance `w₁ + w₂`, and the Laplacians are identical.
    pub fn coalesce(&self) -> Graph {
        use std::collections::HashMap;
        let mut map: HashMap<(NodeId, NodeId), f64> = HashMap::with_capacity(self.m());
        for e in &self.edges {
            *map.entry(e.key()).or_insert(0.0) += e.w;
        }
        let mut edges: Vec<Edge> = map
            .into_iter()
            .map(|((u, v), w)| Edge { u, v, w })
            .collect();
        edges.sort_by_key(|e| (e.u, e.v));
        Graph { n: self.n, edges }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_tuples(3, vec![(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]).unwrap()
    }

    #[test]
    fn construction_and_counts() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert!(!g.is_empty());
        assert_eq!(g.total_weight(), 6.0);
        assert_eq!(g.average_degree(), 2.0);
    }

    #[test]
    fn rejects_bad_edges() {
        let mut g = Graph::new(3);
        assert!(matches!(
            g.add_edge(0, 3, 1.0),
            Err(GraphError::VertexOutOfRange { vertex: 3, n: 3 })
        ));
        assert!(matches!(
            g.add_edge(1, 1, 1.0),
            Err(GraphError::SelfLoop { vertex: 1 })
        ));
        assert!(matches!(
            g.add_edge(0, 1, 0.0),
            Err(GraphError::NonPositiveWeight { .. })
        ));
        assert!(matches!(
            g.add_edge(0, 1, -2.0),
            Err(GraphError::NonPositiveWeight { .. })
        ));
        assert!(matches!(
            g.add_edge(0, 1, f64::NAN),
            Err(GraphError::NonPositiveWeight { .. })
        ));
        assert!(matches!(
            g.add_edge(0, 1, f64::INFINITY),
            Err(GraphError::NonPositiveWeight { .. })
        ));
        assert_eq!(g.m(), 0);
    }

    #[test]
    fn from_edges_returns_typed_errors() {
        let ok = Edge::new(0, 1, 1.0);
        let build = |bad: Edge| Graph::from_edges(3, vec![ok, bad]);
        assert_eq!(
            build(Edge::new(2, 3, 1.0)),
            Err(GraphError::VertexOutOfRange { vertex: 3, n: 3 })
        );
        assert_eq!(
            build(Edge::new(2, 2, 1.0)),
            Err(GraphError::SelfLoop { vertex: 2 })
        );
        for w in [0.0, -1.5, f64::INFINITY] {
            assert_eq!(
                build(Edge::new(1, 2, w)),
                Err(GraphError::NonPositiveWeight { weight: w })
            );
        }
        assert!(matches!(
            build(Edge::new(1, 2, f64::NAN)),
            Err(GraphError::NonPositiveWeight { weight }) if weight.is_nan()
        ));
        let g = Graph::from_edges(3, vec![ok, Edge::new(2, 1, 0.5)]).unwrap();
        assert_eq!(g.edges(), &[ok, Edge::new(2, 1, 0.5)]);
    }

    #[test]
    fn weighted_degrees_match_laplacian_diagonal() {
        let g = triangle();
        let d = g.weighted_degrees();
        assert_eq!(d, vec![4.0, 3.0, 5.0]);
        assert_eq!(g.degrees(), vec![2, 2, 2]);
    }

    #[test]
    fn quadratic_form_matches_manual_computation() {
        let g = triangle();
        let x = vec![1.0, 0.0, -1.0];
        // w01*(1-0)^2 + w12*(0+1)^2 + w02*(1+1)^2 = 1 + 2 + 12 = 15
        assert!((g.quadratic_form(&x) - 15.0).abs() < 1e-12);
    }

    #[test]
    fn quadratic_form_of_constant_vector_is_zero() {
        let g = triangle();
        let x = vec![5.0; 3];
        assert_eq!(g.quadratic_form(&x), 0.0);
    }

    #[test]
    fn laplacian_apply_agrees_with_quadratic_form() {
        let g = triangle();
        let x = vec![0.3, -1.2, 2.5];
        let lx = g.laplacian_apply(&x);
        let xtlx: f64 = x.iter().zip(lx.iter()).map(|(a, b)| a * b).sum();
        assert!((xtlx - g.quadratic_form(&x)).abs() < 1e-12);
    }

    #[test]
    fn laplacian_apply_annihilates_constants() {
        let g = triangle();
        let lx = g.laplacian_apply(&[7.0, 7.0, 7.0]);
        for v in lx {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn coalesce_sums_parallel_edges() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(1, 0, 2.5).unwrap();
        let c = g.coalesce();
        assert_eq!(c.m(), 1);
        assert!((c.edges()[0].w - 3.5).abs() < 1e-12);
        // Quadratic forms agree before and after coalescing.
        let x = vec![1.0, -1.0];
        assert!((g.quadratic_form(&x) - c.quadratic_form(&x)).abs() < 1e-12);
    }

    #[test]
    fn edge_subgraph_and_with_edge_ids() {
        let g = triangle();
        let h = g.edge_subgraph(&[true, false, true]);
        assert_eq!(h.m(), 2);
        assert_eq!(h.n(), 3);
        let k = g.with_edge_ids(&[1]);
        assert_eq!(k.m(), 1);
        assert_eq!(k.edges()[0].w, 2.0);
    }

    #[test]
    fn weight_range_and_empty() {
        let g = triangle();
        assert_eq!(g.weight_range(), Some((1.0, 3.0)));
        let e = Graph::new(4);
        assert_eq!(e.weight_range(), None);
        assert!(e.is_empty());
        assert_eq!(e.total_weight(), 0.0);
    }

    #[test]
    fn edge_helpers() {
        let e = Edge::new(3, 1, 0.5);
        assert_eq!(e.other(3), 1);
        assert_eq!(e.other(1), 3);
        assert_eq!(e.key(), (1, 3));
        assert!((e.resistance() - 2.0).abs() < 1e-12);
    }
}
