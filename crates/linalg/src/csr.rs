//! Compressed-sparse-row symmetric matrices with parallel mat-vec.

use rayon::prelude::*;

use sgs_graph::Graph;

/// A sparse matrix in compressed-sparse-row format.
///
/// The matrix is stored fully (both triangles for symmetric matrices) so that the
/// matrix–vector product is a simple row-parallel loop; this is the layout every
/// iterative solver in the crate consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from coordinate triplets `(row, col, value)` on an `n × n`
    /// matrix. Duplicate entries are summed.
    pub fn from_triplets(n: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut counts = vec![0usize; n + 1];
        for &(r, _, _) in triplets {
            assert!(r < n, "row index out of range");
            counts[r + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let row_start = counts.clone();
        let mut cursor = counts;
        let nnz = triplets.len();
        // Bucket all entries into one row-major buffer, then sort each row's
        // segment in place — no per-row temporaries.
        let mut entries: Vec<(usize, f64)> = vec![(0, 0.0); nnz];
        for &(r, c, v) in triplets {
            assert!(c < n, "column index out of range");
            entries[cursor[r]] = (c, v);
            cursor[r] += 1;
        }
        let mut row_ptr = vec![0usize; n + 1];
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        for r in 0..n {
            let segment = &mut entries[row_start[r]..row_start[r + 1]];
            segment.sort_unstable_by_key(|&(c, _)| c);
            // Merge duplicates strictly within this row: comparing against
            // anything pushed before `row_begin` would merge across row
            // boundaries.
            let row_begin = col_idx.len();
            for &(c, v) in segment.iter() {
                if col_idx.len() > row_begin && *col_idx.last().unwrap() == c {
                    *values.last_mut().unwrap() += v;
                } else {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr[r + 1] = col_idx.len();
        }
        CsrMatrix {
            n,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Builds the Laplacian matrix of a graph.
    pub fn laplacian(g: &Graph) -> Self {
        let n = g.n();
        let mut triplets = Vec::with_capacity(4 * g.m() + n);
        let degrees = g.weighted_degrees();
        for (i, &d) in degrees.iter().enumerate() {
            triplets.push((i, i, d));
        }
        for e in g.edges() {
            triplets.push((e.u, e.v, -e.w));
            triplets.push((e.v, e.u, -e.w));
        }
        CsrMatrix::from_triplets(n, &triplets)
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored (structural) non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The row-pointer array.
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The column-index array.
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// The value array.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Entry `(r, c)`, scanning row `r` (zero if not stored).
    pub fn get(&self, r: usize, c: usize) -> f64 {
        let (start, end) = (self.row_ptr[r], self.row_ptr[r + 1]);
        match self.col_idx[start..end].binary_search(&c) {
            Ok(pos) => self.values[start + pos],
            Err(_) => 0.0,
        }
    }

    /// The diagonal of the matrix.
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.n).map(|i| self.get(i, i)).collect()
    }

    /// Parallel matrix–vector product `y = A x`.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n);
        let mut y = vec![0.0; self.n];
        self.apply_into(x, &mut y);
        y
    }

    /// Parallel matrix–vector product writing into a caller-provided buffer.
    pub fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        if self.n < 2048 {
            for (r, out) in y.iter_mut().enumerate() {
                let mut acc = 0.0;
                for i in self.row_ptr[r]..self.row_ptr[r + 1] {
                    acc += self.values[i] * x[self.col_idx[i]];
                }
                *out = acc;
            }
        } else {
            // Rows are cheap (a handful of multiply-adds for graph Laplacians); the
            // chunk hint keeps the executor from dispatching tiny row batches.
            y.par_iter_mut()
                .enumerate()
                .with_min_len(512)
                .for_each(|(r, out)| {
                    let mut acc = 0.0;
                    for i in self.row_ptr[r]..self.row_ptr[r + 1] {
                        acc += self.values[i] * x[self.col_idx[i]];
                    }
                    *out = acc;
                });
        }
    }

    /// Quadratic form `xᵀ A x`.
    pub fn quadratic_form(&self, x: &[f64]) -> f64 {
        let ax = self.apply(x);
        crate::vector::dot(x, &ax)
    }

    /// Checks structural symmetry with matching values up to `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        for r in 0..self.n {
            for i in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[i];
                if (self.values[i] - self.get(c, r)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Sum of absolute off-diagonal entries per row, used by SDD checks.
    pub fn offdiagonal_abs_row_sums(&self) -> Vec<f64> {
        (0..self.n)
            .map(|r| {
                let mut s = 0.0;
                for i in self.row_ptr[r]..self.row_ptr[r + 1] {
                    if self.col_idx[i] != r {
                        s += self.values[i].abs();
                    }
                }
                s
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_graph::generators;

    #[test]
    fn triplet_construction_merges_duplicates() {
        let a = CsrMatrix::from_triplets(
            2,
            &[
                (0, 0, 1.0),
                (0, 0, 2.0),
                (1, 0, -1.0),
                (0, 1, -1.0),
                (1, 1, 3.0),
            ],
        );
        assert_eq!(a.n(), 2);
        assert_eq!(a.nnz(), 4);
        assert_eq!(a.get(0, 0), 3.0);
        assert_eq!(a.get(0, 1), -1.0);
        assert_eq!(a.get(1, 1), 3.0);
        assert_eq!(a.get(1, 0), -1.0);
    }

    #[test]
    fn duplicate_merge_is_confined_to_one_row() {
        // Row 0 ends with column 2 and row 1 starts with column 2 (plus
        // genuine duplicates inside each row); the shared column must NOT be
        // merged across the row boundary.
        let a = CsrMatrix::from_triplets(
            3,
            &[
                (0, 2, 1.0),
                (0, 2, 2.0),
                (1, 2, 4.0),
                (1, 2, 8.0),
                (1, 0, 1.0),
                (2, 2, 5.0),
            ],
        );
        assert_eq!(a.nnz(), 4);
        assert_eq!(a.get(0, 2), 3.0);
        assert_eq!(a.get(1, 2), 12.0);
        assert_eq!(a.get(1, 0), 1.0);
        assert_eq!(a.get(2, 2), 5.0);
        assert_eq!(a.row_ptr(), &[0, 1, 3, 4]);
    }

    #[test]
    fn empty_rows_between_duplicates_stay_empty() {
        // Row 1 is empty; rows 0 and 2 share a column — still no merge.
        let a = CsrMatrix::from_triplets(3, &[(0, 1, 2.0), (2, 1, 3.0)]);
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.get(0, 1), 2.0);
        assert_eq!(a.get(1, 1), 0.0);
        assert_eq!(a.get(2, 1), 3.0);
        assert_eq!(a.row_ptr(), &[0, 1, 1, 2]);
    }

    #[test]
    fn laplacian_rows_sum_to_zero() {
        let g = generators::erdos_renyi_weighted(50, 0.2, 0.5, 2.0, 3);
        let l = CsrMatrix::laplacian(&g);
        let ones = vec![1.0; 50];
        let y = l.apply(&ones);
        for v in y {
            assert!(v.abs() < 1e-9);
        }
        assert!(l.is_symmetric(1e-12));
    }

    #[test]
    fn laplacian_quadratic_form_matches_graph() {
        let g = generators::grid2d(5, 6, 2.0);
        let l = CsrMatrix::laplacian(&g);
        let x: Vec<f64> = (0..g.n()).map(|i| (i as f64 * 0.37).sin()).collect();
        assert!((l.quadratic_form(&x) - g.quadratic_form(&x)).abs() < 1e-9);
    }

    #[test]
    fn apply_matches_edgewise_laplacian() {
        let g = generators::complete(6, 1.5);
        let l = CsrMatrix::laplacian(&g);
        let x: Vec<f64> = (0..6).map(|i| i as f64 - 2.0).collect();
        for (y, expect) in l.apply(&x).iter().zip(g.laplacian_apply(&x)) {
            assert!((y - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn diagonal_and_offdiag_sums() {
        let g = generators::path(4, 2.0);
        let l = CsrMatrix::laplacian(&g);
        assert_eq!(l.diagonal(), vec![2.0, 4.0, 4.0, 2.0]);
        assert_eq!(l.offdiagonal_abs_row_sums(), vec![2.0, 4.0, 4.0, 2.0]);
    }

    #[test]
    fn get_of_missing_entry_is_zero() {
        let g = generators::path(4, 1.0);
        let l = CsrMatrix::laplacian(&g);
        assert_eq!(l.get(0, 3), 0.0);
        assert_eq!(l.get(3, 0), 0.0);
    }

    #[test]
    fn parallel_apply_matches_sequential_on_large_matrix() {
        let g = generators::grid2d(60, 60, 1.0); // n = 3600 > parallel threshold
        let l = CsrMatrix::laplacian(&g);
        let x: Vec<f64> = (0..g.n()).map(|i| ((i * 31 % 17) as f64) - 8.0).collect();
        let y = l.apply(&x);
        // sequential reference
        let mut y_ref = vec![0.0; g.n()];
        for (r, out) in y_ref.iter_mut().enumerate() {
            for i in l.row_ptr()[r]..l.row_ptr()[r + 1] {
                *out += l.values()[i] * x[l.col_idx()[i]];
            }
        }
        for (a, b) in y.iter().zip(&y_ref) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}
