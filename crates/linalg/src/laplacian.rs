//! SDD checks and the graph behind a Laplacian-like SDD matrix.
//!
//! A symmetric matrix `A` is SDD (symmetric diagonally dominant) if
//! `A_ii ≥ Σ_{j≠i} |A_ij|` for every row `i` (footnote 1 of the paper). Graph Laplacians
//! are exactly the SDD matrices with zero row sums and non-positive off-diagonals; the
//! solver crate reduces general SDD systems to Laplacian systems.

use sgs_graph::{Graph, GraphError, Result};

use crate::csr::CsrMatrix;

/// Checks whether a symmetric CSR matrix is SDD within tolerance `tol`.
pub fn is_sdd(a: &CsrMatrix, tol: f64) -> bool {
    if !a.is_symmetric(tol) {
        return false;
    }
    let diag = a.diagonal();
    let off = a.offdiagonal_abs_row_sums();
    diag.iter().zip(off.iter()).all(|(d, o)| *d + tol >= *o)
}

/// Extracts the graph underlying a Laplacian-like SDD matrix.
///
/// Off-diagonal negative entries `A_ij = -w` become edges of weight `w`. Positive
/// off-diagonals are rejected (they are handled by the solver crate's gadget reduction,
/// not here). Any diagonal *excess* `A_ii − Σ_{j≠i} |A_ij| > 0` is returned separately
/// so callers can reattach it (it corresponds to a connection to "ground").
pub fn graph_from_sdd(a: &CsrMatrix, tol: f64) -> Result<(Graph, Vec<f64>)> {
    let n = a.n();
    if !is_sdd(a, tol) {
        return Err(GraphError::Parse("matrix is not SDD".into()));
    }
    let mut g = Graph::with_capacity(n, a.nnz() / 2);
    for r in 0..n {
        for i in a.row_ptr()[r]..a.row_ptr()[r + 1] {
            let c = a.col_idx()[i];
            let v = a.values()[i];
            if c > r {
                if v > tol {
                    return Err(GraphError::Parse(
                        "positive off-diagonal entries require the gadget reduction".into(),
                    ));
                }
                if v < -tol {
                    g.add_edge(r, c, -v)?;
                }
            }
        }
    }
    let diag = a.diagonal();
    let off = a.offdiagonal_abs_row_sums();
    let excess = diag
        .iter()
        .zip(off.iter())
        .map(|(d, o)| (d - o).max(0.0))
        .collect();
    Ok((g, excess))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_graph::generators;

    #[test]
    fn laplacians_are_sdd() {
        let g = generators::erdos_renyi_weighted(40, 0.3, 0.1, 5.0, 1);
        let l = CsrMatrix::laplacian(&g);
        assert!(is_sdd(&l, 1e-9));
    }

    #[test]
    fn non_sdd_matrix_is_rejected() {
        // Diagonal smaller than off-diagonal sum.
        let a =
            CsrMatrix::from_triplets(2, &[(0, 0, 1.0), (1, 1, 1.0), (0, 1, -2.0), (1, 0, -2.0)]);
        assert!(!is_sdd(&a, 1e-12));
        assert!(graph_from_sdd(&a, 1e-12).is_err());
    }

    #[test]
    fn asymmetric_matrix_is_not_sdd() {
        let a = CsrMatrix::from_triplets(2, &[(0, 0, 2.0), (1, 1, 2.0), (0, 1, -1.0)]);
        assert!(!is_sdd(&a, 1e-12));
    }

    #[test]
    fn graph_round_trips_through_laplacian() {
        let g = generators::grid2d(4, 5, 1.5);
        let l = CsrMatrix::laplacian(&g);
        let (h, excess) = graph_from_sdd(&l, 1e-12).unwrap();
        assert_eq!(h.coalesce().edges(), g.coalesce().edges());
        assert!(excess.iter().all(|&e| e.abs() < 1e-9));
    }

    #[test]
    fn diagonal_excess_is_detected() {
        // Laplacian of a single edge plus +3 on vertex 0's diagonal.
        let a =
            CsrMatrix::from_triplets(2, &[(0, 0, 4.0), (1, 1, 1.0), (0, 1, -1.0), (1, 0, -1.0)]);
        let (h, excess) = graph_from_sdd(&a, 1e-12).unwrap();
        assert_eq!(h.m(), 1);
        assert!((excess[0] - 3.0).abs() < 1e-12);
        assert!(excess[1].abs() < 1e-12);
    }

    #[test]
    fn positive_offdiagonal_requires_gadget() {
        let a = CsrMatrix::from_triplets(2, &[(0, 0, 2.0), (1, 1, 2.0), (0, 1, 1.0), (1, 0, 1.0)]);
        assert!(is_sdd(&a, 1e-12));
        assert!(graph_from_sdd(&a, 1e-12).is_err());
    }
}
