//! SDD systems as grounded Laplacians.
//!
//! Every SDD matrix with non-positive off-diagonal entries can be written as
//! `M = L(G) + diag(excess)` where `G` is a weighted graph and `excess ≥ 0` is the
//! diagonal slack (`M_ii − Σ_j≠i |M_ij|`). If some component of `G` has no positive
//! excess the matrix is singular on that component (it is a pure Laplacian there); we
//! then *ground* one vertex by adding artificial excess, which pins the solution
//! representative whose value at that vertex is zero — the standard way of making
//! Laplacian systems positive definite without changing the answer for compatible
//! right-hand sides.
//!
//! [`GroundedLaplacian`] is the one type for such an operator: the solver's system is
//! the first level of its chain, and every later level is one too.

use sgs_graph::{connectivity::connected_components, Graph};
use sgs_linalg::cg::LinearOperator;
use sgs_linalg::csr::CsrMatrix;
use sgs_linalg::laplacian::graph_from_sdd;

/// A positive-definite SDD operator `M = L(G) + diag(excess)`, stored with its full
/// diagonal `D = degrees + excess`.
#[derive(Debug, Clone)]
pub struct GroundedLaplacian {
    graph: Graph,
    excess: Vec<f64>,
    diagonal: Vec<f64>,
}

impl GroundedLaplacian {
    /// Wraps a connected-or-not graph Laplacian, grounding one vertex per component so
    /// the operator is positive definite.
    pub fn from_graph(graph: Graph) -> Self {
        let excess = vec![0.0; graph.n()];
        Self::from_graph_with_excess(graph, excess)
    }

    /// Wraps `L(G) + diag(excess)`, grounding one vertex in every component whose excess
    /// is identically zero.
    pub fn from_graph_with_excess(graph: Graph, mut excess: Vec<f64>) -> Self {
        assert_eq!(
            excess.len(),
            graph.n(),
            "excess length must equal vertex count"
        );
        assert!(
            excess.iter().all(|&e| e >= -1e-12),
            "excess must be non-negative"
        );
        for e in excess.iter_mut() {
            if *e < 0.0 {
                *e = 0.0;
            }
        }
        let (labels, count) = connected_components(&graph);
        let degrees = graph.weighted_degrees();
        let mut has_excess = vec![false; count];
        for (v, &e) in excess.iter().enumerate() {
            if e > 1e-12 {
                has_excess[labels[v]] = true;
            }
        }
        // Ground the first vertex of each all-zero-excess component with a resistor
        // comparable to its degree (good conditioning, exactness for b ⟂ 1 per
        // component).
        let mut grounded_component = vec![false; count];
        for v in 0..graph.n() {
            let c = labels[v];
            if !has_excess[c] && !grounded_component[c] {
                let w = if degrees[v] > 0.0 { degrees[v] } else { 1.0 };
                excess[v] += w;
                grounded_component[c] = true;
            }
        }
        Self::with_degrees(graph, excess, degrees)
    }

    /// Builds a grounded Laplacian from an explicit SDD matrix (non-positive
    /// off-diagonals). Returns `None` if the matrix is not SDD in that form.
    pub fn from_sdd_matrix(m: &CsrMatrix) -> Option<Self> {
        let (graph, excess) = graph_from_sdd(m, 1e-9).ok()?;
        Some(Self::from_graph_with_excess(graph, excess))
    }

    /// `L(graph) + diag(excess)` exactly as given, with no grounding: a chain level
    /// derived from a positive-definite one.
    pub(crate) fn new(graph: Graph, excess: Vec<f64>) -> Self {
        let degrees = graph.weighted_degrees();
        Self::with_degrees(graph, excess, degrees)
    }

    /// Assembles the operator from `graph`'s weighted degrees, which become the
    /// diagonal `degrees + excess`.
    fn with_degrees(graph: Graph, excess: Vec<f64>, mut degrees: Vec<f64>) -> Self {
        for (d, e) in degrees.iter_mut().zip(&excess) {
            *d += e;
        }
        GroundedLaplacian {
            graph,
            excess,
            diagonal: degrees,
        }
    }

    /// The underlying graph (the negated off-diagonal part).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The diagonal excess (including any grounding added by the constructor).
    pub fn excess(&self) -> &[f64] {
        &self.excess
    }

    /// The full diagonal `D = degrees + excess`.
    pub fn diagonal(&self) -> &[f64] {
        &self.diagonal
    }

    /// Number of rows/columns.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// Number of structural non-zeros below/above the diagonal (graph edges).
    pub fn m(&self) -> usize {
        self.graph.m()
    }

    /// Adjacency application: overwrites `y` with `A x` (off-diagonal only, positive
    /// weights).
    pub(crate) fn adjacency_apply_in(&self, x: &[f64], y: &mut [f64]) {
        y.fill(0.0);
        for e in self.graph.edges() {
            y[e.u()] += e.w * x[e.v()];
            y[e.v()] += e.w * x[e.u()];
        }
    }

    /// Ratio `min_v excess_v / degree_v` (∞ when the graph has no edges); the dominance
    /// measure that terminates the chain.
    pub(crate) fn dominance(&self) -> f64 {
        let deg = self.graph.weighted_degrees();
        let mut worst = f64::INFINITY;
        for (d, e) in deg.iter().zip(&self.excess) {
            if *d > 0.0 {
                worst = worst.min(e / d);
            }
        }
        worst
    }
}

impl LinearOperator for GroundedLaplacian {
    fn dim(&self) -> usize {
        self.n()
    }
    /// `y = M x = L(G) x + excess .* x`: the hot SPMV of every PCG iteration.
    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        self.graph.laplacian_apply_into(x, y);
        for ((yi, xi), ei) in y.iter_mut().zip(x).zip(&self.excess) {
            *yi += ei * xi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_graph::generators;

    /// `M x` into a fresh vector.
    fn apply(op: &impl LinearOperator, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; x.len()];
        op.apply_into(x, &mut y);
        y
    }

    fn grounded(gl: &GroundedLaplacian) -> usize {
        gl.excess().iter().filter(|&&e| e > 0.0).count()
    }

    #[test]
    fn pure_laplacian_gets_grounded_once_per_component() {
        let g = generators::cycle(10, 1.0);
        let gl = GroundedLaplacian::from_graph(g);
        assert_eq!(grounded(&gl), 1);
        // Two components -> two grounds.
        let mut two = Graph::new(6);
        two.add_edge(0, 1, 1.0).unwrap();
        two.add_edge(1, 2, 1.0).unwrap();
        two.add_edge(3, 4, 1.0).unwrap();
        two.add_edge(4, 5, 1.0).unwrap();
        let gl = GroundedLaplacian::from_graph(two);
        assert_eq!(grounded(&gl), 2);
    }

    #[test]
    fn excess_systems_are_not_grounded_again() {
        let g = generators::path(5, 1.0);
        let excess = vec![0.5, 0.0, 0.0, 0.0, 0.0];
        let gl = GroundedLaplacian::from_graph_with_excess(g, excess.clone());
        assert_eq!(gl.excess(), &excess[..]);
    }

    #[test]
    fn apply_matches_matrix_form() {
        let g = generators::grid2d(4, 4, 1.5);
        let excess: Vec<f64> = (0..16).map(|i| (i % 3) as f64 * 0.2).collect();
        let gl = GroundedLaplacian::from_graph_with_excess(g.clone(), excess.clone());
        let diagonal: Vec<f64> = g
            .weighted_degrees()
            .iter()
            .zip(&excess)
            .map(|(d, e)| d + e)
            .collect();
        assert_eq!(gl.diagonal(), &diagonal[..]);
        let x: Vec<f64> = (0..16).map(|i| (i as f64 * 0.7).sin()).collect();
        let y = apply(&gl, &x);
        let mut expected = apply(&g, &x);
        for (i, e) in expected.iter_mut().enumerate() {
            *e += excess[i] * x[i];
        }
        for (a, b) in y.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-12);
        }
        // Quadratic form is positive on non-zero vectors (PD after grounding/excess).
        let quadratic_form =
            |x: &[f64]| -> f64 { x.iter().zip(apply(&gl, x)).map(|(a, b)| a * b).sum() };
        assert!(quadratic_form(&x) > 0.0);
        assert!(
            quadratic_form(&[1.0; 16]) > 0.0,
            "grounded system is PD even on constants"
        );
    }

    #[test]
    fn from_sdd_matrix_round_trip() {
        let g = generators::erdos_renyi(30, 0.2, 1.0, 3);
        let mut triplets = Vec::new();
        let deg = g.weighted_degrees();
        for (i, &d) in deg.iter().enumerate() {
            triplets.push((i, i, d + if i == 0 { 2.0 } else { 0.0 }));
        }
        for e in g.edges() {
            triplets.push((e.u(), e.v(), -e.w));
            triplets.push((e.v(), e.u(), -e.w));
        }
        let m = CsrMatrix::from_triplets(30, &triplets);
        let gl = GroundedLaplacian::from_sdd_matrix(&m).expect("valid SDD matrix");
        assert!((gl.excess()[0] - 2.0).abs() < 1e-9);
        let x: Vec<f64> = (0..30).map(|i| i as f64 / 30.0).collect();
        let y1 = apply(&gl, &x);
        let y2 = apply(&m, &x);
        // Grounding may add excess to singular components; here component of vertex 0
        // already has excess, so no extra grounding should have occurred if connected.
        if sgs_graph::connectivity::is_connected(gl.graph()) {
            for (a, b) in y1.iter().zip(&y2) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn non_sdd_matrix_is_rejected() {
        let m =
            CsrMatrix::from_triplets(2, &[(0, 0, 1.0), (1, 1, 1.0), (0, 1, -5.0), (1, 0, -5.0)]);
        assert!(GroundedLaplacian::from_sdd_matrix(&m).is_none());
    }

    #[test]
    #[should_panic(expected = "excess")]
    fn negative_excess_is_rejected() {
        let g = generators::path(3, 1.0);
        let _ = GroundedLaplacian::from_graph_with_excess(g, vec![-1.0, 0.0, 0.0]);
    }
}
