//! Cut weights.
//!
//! Spectral sparsifiers preserve every cut of the graph to within the same `1 ± ε`
//! factor as the quadratic form (take `x` to be the indicator vector of one side), so
//! cut preservation is a cheap necessary condition that the tests check alongside the
//! full spectral certification.

use crate::graph::Graph;

/// Total weight of edges crossing the cut `(S, V ∖ S)`.
pub fn cut_weight(g: &Graph, side: &[bool]) -> f64 {
    debug_assert_eq!(side.len(), g.n());
    g.edges()
        .iter()
        .filter(|e| side[e.u()] != side[e.v()])
        .map(|e| e.w)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn barbell_bridge_cut_crosses_only_the_bridge() {
        let g = generators::barbell(20, 1, 1.0, 0.5);
        let side: Vec<bool> = (0..g.n()).map(|v| v < 20).collect();
        assert!((cut_weight(&g, &side) - 0.5).abs() < 1e-12);
        // The cut weight is the quadratic form at the side's indicator vector.
        let side: Vec<bool> = (0..g.n()).map(|v| v < 10).collect();
        let x: Vec<f64> = side.iter().map(|&s| if s { 1.0 } else { 0.0 }).collect();
        assert!((cut_weight(&g, &side) - g.quadratic_form(&x)).abs() < 1e-9);
    }
}
