//! Small dense matrices with Cholesky factorization.
//!
//! Used as ground truth on tiny instances (exact effective resistances, exact extreme
//! eigenvalue checks via bisection is out of scope — we use the pseudo-inverse route)
//! and as the base-case solver at the bottom of the Peng–Spielman chain.

use crate::csr::CsrMatrix;

/// A dense row-major square matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a zero matrix of dimension `n`.
    pub fn zeros(n: usize) -> Self {
        DenseMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Converts a sparse matrix to dense form.
    pub fn from_csr(a: &CsrMatrix) -> Self {
        let n = a.n();
        let mut m = DenseMatrix::zeros(n);
        for r in 0..n {
            for i in a.row_ptr()[r]..a.row_ptr()[r + 1] {
                m.data[r * n + a.col_idx()[i]] += a.values()[i];
            }
        }
        m
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Entry `(r, c)`.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.n + c]
    }

    /// Sets entry `(r, c)`.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.n + c] = v;
    }

    /// Adds `v` to entry `(r, c)`.
    pub fn add_to(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.n + c] += v;
    }

    /// Matrix–vector product.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n);
        (0..self.n)
            .map(|r| {
                let row = &self.data[r * self.n..(r + 1) * self.n];
                row.iter().zip(x).map(|(a, b)| a * b).sum()
            })
            .collect()
    }

    /// Cholesky factorization `A = L Lᵀ` for a symmetric positive-definite matrix.
    /// Returns `None` if a non-positive pivot is encountered.
    pub fn cholesky(&self) -> Option<CholeskyFactor> {
        let n = self.n;
        let mut l = vec![0.0f64; n * n];
        for j in 0..n {
            let mut diag = self.get(j, j);
            for k in 0..j {
                diag -= l[j * n + k] * l[j * n + k];
            }
            if diag <= 0.0 || !diag.is_finite() {
                return None;
            }
            let dj = diag.sqrt();
            l[j * n + j] = dj;
            for i in (j + 1)..n {
                let mut v = self.get(i, j);
                for k in 0..j {
                    v -= l[i * n + k] * l[j * n + k];
                }
                l[i * n + j] = v / dj;
            }
        }
        Some(CholeskyFactor { n, l })
    }

    /// Solves `A x = b` for a symmetric positive-*semi*-definite Laplacian-like matrix
    /// by regularizing with `(1/n)·J` (the all-ones rank-one term), which is the
    /// standard trick for computing the action of the pseudo-inverse on vectors
    /// orthogonal to the all-ones vector.
    pub fn solve_laplacian(&self, b: &[f64]) -> Option<Vec<f64>> {
        let n = self.n;
        let mut reg = self.clone();
        let shift = 1.0 / n as f64;
        for r in 0..n {
            for c in 0..n {
                reg.add_to(r, c, shift);
            }
        }
        let chol = reg.cholesky()?;
        let mut b_proj = b.to_vec();
        crate::vector::project_out_ones(&mut b_proj);
        let mut x = chol.solve(&b_proj);
        crate::vector::project_out_ones(&mut x);
        Some(x)
    }
}

/// Lower-triangular Cholesky factor.
#[derive(Debug, Clone)]
pub struct CholeskyFactor {
    n: usize,
    l: Vec<f64>,
}

impl CholeskyFactor {
    /// Solves `L Lᵀ x = b` by forward and backward substitution.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.n;
        assert_eq!(b.len(), n);
        // Forward: L y = b
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut v = b[i];
            for (lik, yk) in self.l[i * n..i * n + i].iter().zip(&y[..i]) {
                v -= lik * yk;
            }
            y[i] = v / self.l[i * n + i];
        }
        // Backward: Lᵀ x = y
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut v = y[i];
            for (k, xk) in x.iter().enumerate().skip(i + 1) {
                v -= self.l[k * n + i] * xk;
            }
            x[i] = v / self.l[i * n + i];
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_graph::generators;

    #[test]
    fn cholesky_solves_spd_system() {
        // A = [[4, 2], [2, 3]]
        let mut a = DenseMatrix::zeros(2);
        a.set(0, 0, 4.0);
        a.set(0, 1, 2.0);
        a.set(1, 0, 2.0);
        a.set(1, 1, 3.0);
        let chol = a.cholesky().unwrap();
        let x = chol.solve(&[10.0, 8.0]);
        let ax = a.apply(&x);
        assert!((ax[0] - 10.0).abs() < 1e-10);
        assert!((ax[1] - 8.0).abs() < 1e-10);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let mut a = DenseMatrix::zeros(2);
        a.set(0, 0, 1.0);
        a.set(0, 1, 2.0);
        a.set(1, 0, 2.0);
        a.set(1, 1, 1.0);
        assert!(a.cholesky().is_none());
    }

    #[test]
    fn laplacian_pseudo_solve() {
        let g = generators::cycle(6, 1.0);
        let l = CsrMatrix::laplacian(&g);
        let dense = DenseMatrix::from_csr(&l);
        // b = e_0 - e_3 (orthogonal to ones)
        let mut b = vec![0.0; 6];
        b[0] = 1.0;
        b[3] = -1.0;
        let x = dense.solve_laplacian(&b).unwrap();
        // Check L x = b on the orthogonal complement.
        let lx = l.apply(&x);
        for (a, bb) in lx.iter().zip(&b) {
            assert!((a - bb).abs() < 1e-8);
        }
        // Effective resistance across the cycle between antipodal vertices is
        // (3 in series) || (3 in series) = 1.5.
        let er = x[0] - x[3];
        assert!((er - 1.5).abs() < 1e-8);
    }

    #[test]
    fn from_csr_matches_entries() {
        let g = generators::path(4, 2.0);
        let l = CsrMatrix::laplacian(&g);
        let d = DenseMatrix::from_csr(&l);
        for r in 0..4 {
            for c in 0..4 {
                assert!((d.get(r, c) - l.get(r, c)).abs() < 1e-12);
            }
        }
    }
}
