//! Small dense matrices with Cholesky factorization.
//!
//! Used as ground truth on tiny instances: exact effective resistances through the
//! regularised pseudo-inverse, and [`exact_pencil_extremes`], the exact spectrum ends
//! of a graph pair that the power-iteration certifier only estimates.

use sgs_graph::connectivity::is_connected;
use sgs_graph::Graph;

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

    /// `L_G` grounded at vertex `n − 1`: the Laplacian without its last row and column.
    fn grounded_laplacian(g: &Graph) -> DenseMatrix {
        let k = g.n() - 1;
        let mut a = DenseMatrix::zeros(k);
        for e in g.edges() {
            let (u, v) = (e.u(), e.v());
            if u < k {
                a.add_to(u, u, e.w);
            }
            if v < k {
                a.add_to(v, v, e.w);
            }
            if u < k && v < k {
                a.add_to(u, v, -e.w);
                a.add_to(v, u, -e.w);
            }
        }
        a
    }

    fn transpose_in_place(&mut self) {
        let n = self.n;
        for r in 0..n {
            for c in (r + 1)..n {
                self.data.swap(r * n + c, c * n + r);
            }
        }
    }

    /// Householder reduction of a symmetric matrix to tridiagonal form, consuming it.
    /// Returns the diagonal and the `n − 1` subdiagonal entries.
    fn tridiagonalize(mut self) -> (Vec<f64>, Vec<f64>) {
        let n = self.n;
        let (mut v, mut p) = (vec![0.0; n], vec![0.0; n]);
        for j in 0..n.saturating_sub(2) {
            let tail = (j + 1)..n;
            let norm = tail
                .clone()
                .map(|i| self.get(i, j).powi(2))
                .sum::<f64>()
                .sqrt();
            if norm == 0.0 {
                continue;
            }
            // Reflect column j's tail onto alpha·e₁ with H = I − β v vᵀ, then apply
            // A ← H A H to the trailing block as A − v qᵀ − q vᵀ.
            let alpha = if self.get(j + 1, j) > 0.0 {
                -norm
            } else {
                norm
            };
            for i in tail.clone() {
                v[i] = self.get(i, j);
            }
            v[j + 1] -= alpha;
            let beta = 2.0 / tail.clone().map(|i| v[i] * v[i]).sum::<f64>();
            for i in tail.clone() {
                p[i] = beta * tail.clone().map(|t| self.get(i, t) * v[t]).sum::<f64>();
            }
            let k = 0.5 * beta * tail.clone().map(|i| v[i] * p[i]).sum::<f64>();
            for i in tail.clone() {
                p[i] -= k * v[i];
            }
            for i in tail.clone() {
                for t in tail.clone() {
                    self.add_to(i, t, -(v[i] * p[t] + p[i] * v[t]));
                }
            }
            for i in tail {
                let x = if i == j + 1 { alpha } else { 0.0 };
                self.set(i, j, x);
                self.set(j, i, x);
            }
        }
        let d = (0..n).map(|i| self.get(i, i)).collect();
        let e = (1..n).map(|i| self.get(i, i - 1)).collect();
        (d, e)
    }
}

/// Exact extremes `(λmin, λmax)` of `xᵀ L_H x / xᵀ L_G x` over `x ⟂ 1`: the values that
/// `spectral::approximation_bounds` estimates from inside the spectrum. Dense and
/// `O(n³)`, so meant for `n` up to a few hundred.
///
/// Both Laplacians annihilate constants, so grounding them at vertex `n − 1` keeps the
/// pencil's spectrum. The grounded `L_G = R Rᵀ` is factored by Cholesky,
/// `R⁻¹ L_H R⁻ᵀ` is reduced to tridiagonal form by Householder reflections, and its
/// end eigenvalues are found by Sturm-sequence bisection. Returns `None` for `n < 2`
/// or a disconnected `G` (the pencil is then unbounded; the Cholesky pivot that should
/// vanish may round to a tiny positive value, so connectivity is checked first).
pub fn exact_pencil_extremes(g: &Graph, h: &Graph) -> Option<(f64, f64)> {
    assert_eq!(g.n(), h.n(), "graphs must share a vertex set");
    if g.n() < 2 || !is_connected(g) {
        return None;
    }
    let r = DenseMatrix::grounded_laplacian(g).cholesky()?;
    let mut c = DenseMatrix::grounded_laplacian(h);
    r.forward_in_place(&mut c);
    c.transpose_in_place();
    r.forward_in_place(&mut c);
    let (d, e) = c.tridiagonalize();
    Some((
        nth_eigenvalue(&d, &e, 0),
        nth_eigenvalue(&d, &e, d.len() - 1),
    ))
}

/// The `i`-th smallest eigenvalue of the symmetric tridiagonal matrix with diagonal `d`
/// and subdiagonal `e`, by bisection on the Sturm count inside the Gershgorin interval.
fn nth_eigenvalue(d: &[f64], e: &[f64], i: usize) -> f64 {
    let off = |j: usize| {
        let below = if j > 0 { e[j - 1].abs() } else { 0.0 };
        below + e.get(j).map_or(0.0, |x| x.abs())
    };
    let mut lo = (0..d.len())
        .map(|j| d[j] - off(j))
        .fold(f64::INFINITY, f64::min);
    let mut hi = (0..d.len())
        .map(|j| d[j] + off(j))
        .fold(f64::NEG_INFINITY, f64::max);
    let pivmin = f64::MIN_POSITIVE * e.iter().map(|x| x * x).fold(1.0, f64::max);
    // Eigenvalues strictly below `x`: the negative pivots of LDLᵀ of `T − x I`.
    let count_below = |x: f64| {
        let mut q = 1.0;
        let mut count = 0;
        for j in 0..d.len() {
            let coupling = if j > 0 { e[j - 1] * e[j - 1] / q } else { 0.0 };
            q = d[j] - x - coupling;
            if q.abs() < pivmin {
                q = -pivmin;
            }
            if q < 0.0 {
                count += 1;
            }
        }
        count
    };
    while hi - lo > 2.0 * f64::EPSILON * lo.abs().max(hi.abs()) + pivmin {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break;
        }
        if count_below(mid) > i {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    0.5 * (lo + hi)
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

    /// Overwrites `b` with `L⁻¹ b`, every column at once (forward substitution by rows).
    fn forward_in_place(&self, b: &mut DenseMatrix) {
        let n = self.n;
        assert_eq!(b.n, n);
        for i in 0..n {
            let (done, rest) = b.data.split_at_mut(i * n);
            let row = &mut rest[..n];
            for t in 0..i {
                let lit = self.l[i * n + t];
                if lit != 0.0 {
                    for (x, y) in row.iter_mut().zip(&done[t * n..(t + 1) * n]) {
                        *x -= lit * y;
                    }
                }
            }
            let lii = self.l[i * n + i];
            for x in row.iter_mut() {
                *x /= lii;
            }
        }
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
        let mut lx = vec![0.0; 6];
        l.apply_into(&x, &mut lx);
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
