//! Conjugate gradient and preconditioned conjugate gradient solvers.
//!
//! Laplacian systems are symmetric positive *semi*-definite with null space `span{1}`
//! (for connected graphs). The solvers therefore optionally project right-hand side and
//! iterates against the all-ones vector; with that projection CG behaves exactly as on a
//! positive-definite system restricted to the orthogonal complement.

use crate::csr::CsrMatrix;
use crate::vector;
use sgs_graph::Graph;

/// An abstract symmetric linear operator `y = A x`.
///
/// The trait lets the same CG implementation run on explicit CSR matrices, implicit
/// graph Laplacians, and the composite operators (`D − A D⁻¹ A`) used by the
/// Peng–Spielman chain without ever materialising them.
pub trait LinearOperator: Sync {
    /// Dimension of the (square) operator.
    fn dim(&self) -> usize;
    /// Computes `y = A x`.
    fn apply_into(&self, x: &[f64], y: &mut [f64]);
}

impl LinearOperator for CsrMatrix {
    fn dim(&self) -> usize {
        self.n()
    }
    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        CsrMatrix::apply_into(self, x, y)
    }
}

/// Wraps a graph as the linear operator of its Laplacian, applied edge-by-edge without
/// building a matrix.
pub struct GraphLaplacianOp<'a> {
    graph: &'a Graph,
}

impl<'a> GraphLaplacianOp<'a> {
    /// Creates the operator view.
    pub fn new(graph: &'a Graph) -> Self {
        GraphLaplacianOp { graph }
    }
}

impl LinearOperator for GraphLaplacianOp<'_> {
    fn dim(&self) -> usize {
        self.graph.n()
    }
    fn apply_into(&self, x: &[f64], y: &mut [f64]) {
        // Allocation-free: one CG iteration per edge solve used to allocate a fresh
        // n-vector here, which dominated the resistance estimator's profile.
        self.graph.laplacian_apply_into(x, y);
    }
}

/// A preconditioner: an approximation of `A⁻¹` applied as `z = M⁻¹ r`.
pub trait Preconditioner: Sync {
    /// Applies the preconditioner to `r`, writing the result into `z`.
    fn apply(&self, r: &[f64], z: &mut [f64]);
}

/// The identity preconditioner (plain CG).
pub struct IdentityPreconditioner;

impl Preconditioner for IdentityPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }
}

/// Diagonal (Jacobi) preconditioner `M = diag(A)`.
pub struct JacobiPreconditioner {
    inv_diag: Vec<f64>,
}

impl JacobiPreconditioner {
    /// Builds the preconditioner from a matrix diagonal; zero diagonal entries map to 1.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let inv_diag = diag
            .iter()
            .map(|&d| if d.abs() > 1e-300 { 1.0 / d } else { 1.0 })
            .collect();
        JacobiPreconditioner { inv_diag }
    }
}

impl Preconditioner for JacobiPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        for ((zi, ri), di) in z.iter_mut().zip(r).zip(&self.inv_diag) {
            *zi = ri * di;
        }
    }
}

/// Configuration for the CG / PCG solvers.
#[derive(Debug, Clone)]
pub struct CgConfig {
    /// Relative residual tolerance `‖r‖ / ‖b‖`.
    pub tolerance: f64,
    /// Maximum number of iterations.
    pub max_iterations: usize,
    /// If true, the right-hand side and every iterate are projected orthogonal to the
    /// all-ones vector (required for singular Laplacian systems).
    pub project_ones: bool,
}

impl Default for CgConfig {
    fn default() -> Self {
        CgConfig {
            tolerance: 1e-8,
            max_iterations: 10_000,
            project_ones: true,
        }
    }
}

impl CgConfig {
    /// Sets the iteration cap.
    pub fn max_iterations(mut self, iters: usize) -> Self {
        self.max_iterations = iters;
        self
    }

    /// Enables or disables the all-ones projection.
    pub fn project_ones(mut self, project: bool) -> Self {
        self.project_ones = project;
        self
    }
}

/// Result of a CG / PCG solve.
#[derive(Debug, Clone)]
pub struct CgOutcome {
    /// The computed solution.
    pub solution: Vec<f64>,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Final relative residual `‖b − A x‖ / ‖b‖`.
    pub relative_residual: f64,
    /// Whether the tolerance was reached within the iteration cap.
    pub converged: bool,
}

/// Statistics of a scratch-based solve ([`pcg_solve_in`]); the solution stays
/// in the scratch's buffers.
#[derive(Debug, Clone)]
pub struct CgStats {
    /// Number of iterations performed.
    pub iterations: usize,
    /// Final relative residual `‖b − A x‖ / ‖b‖`.
    pub relative_residual: f64,
    /// Whether the tolerance was reached within the iteration cap.
    pub converged: bool,
}

/// Reusable workspace for [`pcg_solve_in`] / [`cg_solve_in`].
///
/// A CG solve needs six `n`-vectors of scratch; callers that solve many
/// systems of the same size (one per edge in the effective-resistance
/// computation, one per projection row in the Johnson–Lindenstrauss
/// estimator) allocate one `CgScratch` per worker — e.g. through rayon's
/// `map_init` — instead of six fresh vectors per solve.
#[derive(Debug, Clone)]
pub struct CgScratch {
    x: Vec<f64>,
    b: Vec<f64>,
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
}

impl CgScratch {
    /// Allocates a workspace for systems of dimension `n`.
    pub fn new(n: usize) -> Self {
        CgScratch {
            x: vec![0.0; n],
            b: vec![0.0; n],
            r: vec![0.0; n],
            z: vec![0.0; n],
            p: vec![0.0; n],
            ap: vec![0.0; n],
        }
    }

    /// The solution vector of the most recent solve through this scratch.
    pub fn solution(&self) -> &[f64] {
        &self.x
    }

    fn resize(&mut self, n: usize) {
        self.x.resize(n, 0.0);
        self.b.resize(n, 0.0);
        self.r.resize(n, 0.0);
        self.z.resize(n, 0.0);
        self.p.resize(n, 0.0);
        self.ap.resize(n, 0.0);
    }
}

/// Solves `A x = b` with plain conjugate gradient.
pub fn cg_solve<A: LinearOperator + ?Sized>(a: &A, b: &[f64], cfg: &CgConfig) -> CgOutcome {
    pcg_solve(a, &IdentityPreconditioner, b, cfg)
}

/// Solves `A x = b` with plain CG, keeping every intermediate in `scratch`.
/// The solution is left in [`CgScratch::solution`].
pub fn cg_solve_in<A: LinearOperator + ?Sized>(
    a: &A,
    b: &[f64],
    cfg: &CgConfig,
    scratch: &mut CgScratch,
) -> CgStats {
    pcg_solve_in(a, &IdentityPreconditioner, b, cfg, scratch)
}

/// Solves `A x = b` with preconditioned conjugate gradient.
pub fn pcg_solve<A: LinearOperator + ?Sized, M: Preconditioner + ?Sized>(
    a: &A,
    m: &M,
    b: &[f64],
    cfg: &CgConfig,
) -> CgOutcome {
    let mut scratch = CgScratch::new(a.dim());
    let stats = pcg_solve_in(a, m, b, cfg, &mut scratch);
    CgOutcome {
        solution: scratch.x,
        iterations: stats.iterations,
        relative_residual: stats.relative_residual,
        converged: stats.converged,
    }
}

/// Solves `A x = b` with PCG using caller-provided scratch buffers — the
/// allocation-free core of [`pcg_solve`]. The solution is left in
/// [`CgScratch::solution`]; `b` itself is not modified.
pub fn pcg_solve_in<A: LinearOperator + ?Sized, M: Preconditioner + ?Sized>(
    a: &A,
    m: &M,
    b: &[f64],
    cfg: &CgConfig,
    scratch: &mut CgScratch,
) -> CgStats {
    let n = a.dim();
    assert_eq!(b.len(), n, "dimension mismatch");
    scratch.resize(n);
    let CgScratch {
        x,
        b: rhs,
        r,
        z,
        p,
        ap,
    } = scratch;
    rhs.copy_from_slice(b);
    if cfg.project_ones {
        vector::project_out_ones(rhs);
    }
    let b_norm = vector::norm2(rhs);
    if b_norm == 0.0 {
        x.fill(0.0);
        return CgStats {
            iterations: 0,
            relative_residual: 0.0,
            converged: true,
        };
    }

    x.fill(0.0);
    r.copy_from_slice(rhs);
    m.apply(r, z);
    if cfg.project_ones {
        vector::project_out_ones(z);
    }
    p.copy_from_slice(z);
    let mut rz = vector::dot(r, z);
    let mut iterations = 0;

    for _ in 0..cfg.max_iterations {
        iterations += 1;
        a.apply_into(p, ap);
        let pap = vector::dot(p, ap);
        if pap <= 0.0 || !pap.is_finite() {
            break;
        }
        let alpha = rz / pap;
        vector::axpy2(alpha, p, x, -alpha, ap, r);
        if cfg.project_ones {
            vector::project_out_ones(r);
        }
        let r_norm = vector::norm2(r);
        // Per-iteration residual trajectory, emitted only inside a trace scope:
        // the JL resistance estimator runs many of these solves under `par_iter`,
        // and only sequential top-level callers (the SDD solver) opt in, which
        // keeps the event stream a pure function of the input.
        if sgs_obs::in_scope() {
            sgs_obs::point!(
                "pcg.iter",
                iter = iterations,
                rel_residual = r_norm / b_norm,
            );
        }
        if r_norm / b_norm <= cfg.tolerance {
            break;
        }
        m.apply(r, z);
        if cfg.project_ones {
            vector::project_out_ones(z);
        }
        let rz_new = vector::dot(r, z);
        let beta = rz_new / rz;
        rz = rz_new;
        for (pi, zi) in p.iter_mut().zip(z.iter()) {
            *pi = zi + beta * *pi;
        }
    }

    // Recompute the true residual for honest reporting, reusing `ap` for
    // `A x` and accumulating `‖b − A x‖` without a residual vector.
    a.apply_into(x, ap);
    let res_sq: f64 = rhs
        .iter()
        .zip(ap.iter())
        .map(|(bi, axi)| (bi - axi) * (bi - axi))
        .sum();
    let relative_residual = res_sq.sqrt() / b_norm;
    CgStats {
        converged: relative_residual <= cfg.tolerance * 10.0,
        iterations,
        relative_residual,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_graph::generators;

    #[test]
    fn cg_solves_laplacian_system_on_path() {
        let g = generators::path(10, 1.0);
        let l = CsrMatrix::laplacian(&g);
        let mut b = vec![0.0; 10];
        b[0] = 1.0;
        b[9] = -1.0;
        let out = cg_solve(&l, &b, &CgConfig::default());
        assert!(out.converged, "residual {}", out.relative_residual);
        // Potential difference across a unit path of 9 edges = 9 (effective resistance).
        let er = out.solution[0] - out.solution[9];
        assert!((er - 9.0).abs() < 1e-5, "er = {er}");
    }

    #[test]
    fn graph_operator_matches_matrix_operator() {
        let g = generators::grid2d(6, 6, 1.0);
        let l = CsrMatrix::laplacian(&g);
        let op = GraphLaplacianOp::new(&g);
        let mut b = vec![0.0; g.n()];
        b[0] = 2.0;
        b[g.n() - 1] = -2.0;
        let cfg = CgConfig::default();
        let x1 = cg_solve(&l, &b, &cfg).solution;
        let x2 = cg_solve(&op, &b, &cfg).solution;
        for (a, b) in x1.iter().zip(&x2) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn jacobi_preconditioner_reduces_iterations_on_badly_scaled_graph() {
        // A star with wildly varying weights is poorly conditioned for plain CG.
        let mut g = sgs_graph::Graph::new(50);
        for i in 1..50 {
            g.add_edge(0, i, if i % 2 == 0 { 1e4 } else { 1e-2 })
                .unwrap();
        }
        let l = CsrMatrix::laplacian(&g);
        let mut b = vec![0.0; 50];
        b[1] = 1.0;
        b[2] = -1.0;
        let cfg = CgConfig {
            tolerance: 1e-10,
            ..CgConfig::default()
        };
        let plain = cg_solve(&l, &b, &cfg);
        let jacobi = pcg_solve(
            &l,
            &JacobiPreconditioner::from_diagonal(&g.weighted_degrees()),
            &b,
            &cfg,
        );
        assert!(jacobi.converged);
        assert!(
            jacobi.iterations <= plain.iterations,
            "jacobi {} vs plain {}",
            jacobi.iterations,
            plain.iterations
        );
    }

    #[test]
    fn zero_rhs_returns_zero_immediately() {
        let g = generators::cycle(8, 1.0);
        let l = CsrMatrix::laplacian(&g);
        let out = cg_solve(&l, &[0.0; 8], &CgConfig::default());
        assert_eq!(out.iterations, 0);
        assert!(out.converged);
        assert!(out.solution.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn constant_rhs_is_projected_to_zero() {
        // b = ones is entirely in the null space; the projected system is 0 = 0.
        let g = generators::cycle(8, 1.0);
        let l = CsrMatrix::laplacian(&g);
        let out = cg_solve(&l, &[3.0; 8], &CgConfig::default());
        assert!(out.converged);
        assert!(vector::norm2(&out.solution) < 1e-10);
    }

    #[test]
    fn respects_iteration_cap() {
        let g = generators::grid2d(20, 20, 1.0);
        let l = CsrMatrix::laplacian(&g);
        let mut b = vec![0.0; g.n()];
        b[0] = 1.0;
        b[g.n() - 1] = -1.0;
        let cfg = CgConfig {
            tolerance: 1e-14,
            max_iterations: 3,
            project_ones: true,
        };
        let out = cg_solve(&l, &b, &cfg);
        assert_eq!(out.iterations, 3);
        assert!(!out.converged);
    }

    #[test]
    fn cg_iteration_count_grows_with_condition_number() {
        // Plain CG on a path (condition number ~ n^2) needs more iterations than on an
        // expander-ish random regular graph of the same size.
        let path = generators::path(200, 1.0);
        let exp = generators::random_regular(200, 6, 1.0, 5);
        let cfg = CgConfig {
            tolerance: 1e-8,
            ..CgConfig::default()
        };
        let mut b = vec![0.0; 200];
        b[0] = 1.0;
        b[199] = -1.0;
        let it_path = cg_solve(&CsrMatrix::laplacian(&path), &b, &cfg).iterations;
        let it_exp = cg_solve(&CsrMatrix::laplacian(&exp), &b, &cfg).iterations;
        assert!(it_path > it_exp, "path {it_path} vs expander {it_exp}");
    }
}
