//! Extreme eigenvalue estimation.
//!
//! The solver and the spectral-certification code need two quantities:
//!
//! * `λ_max(L)` — estimated with power iteration;
//! * `λ_min⁺(L)` — the smallest *non-zero* eigenvalue of a connected Laplacian,
//!   estimated with inverse power iteration where each inverse application is a CG
//!   solve restricted to the complement of the all-ones null space.
//!
//! Their ratio is the (finite) condition number `κ` that drives the chain depth of the
//! Peng–Spielman solver (Section 4 of the paper).

use crate::cg::{pcg_solve_in, CgConfig, CgScratch, IdentityPreconditioner, LinearOperator};
use crate::vector;

/// Result of an eigenvalue estimation.
#[derive(Debug, Clone, Copy)]
pub struct EigenEstimate {
    /// The estimated eigenvalue.
    pub value: f64,
    /// Number of (outer) iterations performed.
    pub iterations: usize,
}

/// Estimates the largest eigenvalue of a symmetric PSD operator with power iteration,
/// deflating the all-ones direction (appropriate for Laplacians).
pub fn power_method<A: LinearOperator + ?Sized>(
    a: &A,
    max_iterations: usize,
    tolerance: f64,
    seed: u64,
) -> EigenEstimate {
    let n = a.dim();
    let mut x = vector::random_unit_orthogonal(n, seed);
    let mut value = 0.0;
    let mut iterations = 0;
    let mut y = vec![0.0; n];
    for _ in 0..max_iterations {
        iterations += 1;
        a.apply_into(&x, &mut y);
        vector::project_out_ones(&mut y);
        let norm = vector::norm2(&y);
        if norm == 0.0 {
            value = 0.0;
            break;
        }
        let new_value = vector::dot(&x, &y);
        for (xi, yi) in x.iter_mut().zip(&y) {
            *xi = yi / norm;
        }
        if (new_value - value).abs() <= tolerance * new_value.abs().max(1e-300) {
            value = new_value;
            break;
        }
        value = new_value;
    }
    EigenEstimate { value, iterations }
}

/// Estimates the smallest non-zero eigenvalue of a connected Laplacian-like operator by
/// inverse power iteration. Each step solves `A y = x` with CG projected against the
/// all-ones vector.
pub fn smallest_nonzero_eigenvalue<A: LinearOperator + ?Sized>(
    a: &A,
    max_iterations: usize,
    tolerance: f64,
    seed: u64,
) -> EigenEstimate {
    let n = a.dim();
    let mut x = vector::random_unit_orthogonal(n, seed);
    let cg_cfg = CgConfig {
        tolerance: tolerance.min(1e-6) * 1e-2,
        max_iterations: 20 * n + 200,
        project_ones: true,
    };
    let mut inv_value = 0.0f64;
    let mut iterations = 0;
    let mut y = vec![0.0; n];
    let mut scratch = CgScratch::new(n);
    for _ in 0..max_iterations {
        iterations += 1;
        pcg_solve_in(a, &IdentityPreconditioner, &x, &cg_cfg, &mut scratch);
        y.copy_from_slice(scratch.solution());
        vector::project_out_ones(&mut y);
        let norm = vector::norm2(&y);
        if norm == 0.0 {
            break;
        }
        // Rayleigh quotient of A⁻¹ at x.
        let new_inv = vector::dot(&x, &y);
        for (xi, yi) in x.iter_mut().zip(&y) {
            *xi = yi / norm;
        }
        if (new_inv - inv_value).abs() <= tolerance * new_inv.abs().max(1e-300) {
            inv_value = new_inv;
            break;
        }
        inv_value = new_inv;
    }
    let value = if inv_value > 0.0 {
        1.0 / inv_value
    } else {
        f64::INFINITY
    };
    EigenEstimate { value, iterations }
}

/// Estimates the finite condition number `κ = λ_max / λ_min⁺` of a connected Laplacian.
pub fn condition_number<A: LinearOperator + ?Sized>(a: &A, seed: u64) -> f64 {
    let hi = power_method(a, 200, 1e-6, seed);
    let lo = smallest_nonzero_eigenvalue(a, 100, 1e-6, seed.wrapping_add(1));
    if lo.value == 0.0 {
        f64::INFINITY
    } else {
        hi.value / lo.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrMatrix;
    use sgs_graph::generators;

    #[test]
    fn power_method_on_complete_graph() {
        // L(K_n) has eigenvalues {0, n (multiplicity n-1)}.
        let n = 12;
        let g = generators::complete(n, 1.0);
        let l = CsrMatrix::laplacian(&g);
        let est = power_method(&l, 500, 1e-10, 3);
        assert!(
            (est.value - n as f64).abs() < 1e-6,
            "lambda_max = {}",
            est.value
        );
    }

    #[test]
    fn smallest_eigenvalue_of_complete_graph() {
        let n = 10;
        let g = generators::complete(n, 1.0);
        let l = CsrMatrix::laplacian(&g);
        let est = smallest_nonzero_eigenvalue(&l, 100, 1e-8, 5);
        assert!(
            (est.value - n as f64).abs() < 1e-4,
            "lambda_min+ = {}",
            est.value
        );
    }

    #[test]
    fn eigenvalues_of_path_match_closed_form() {
        // Path P_n Laplacian eigenvalues: 2 - 2 cos(k π / n), k = 0..n-1.
        let n = 16usize;
        let g = generators::path(n, 1.0);
        let l = CsrMatrix::laplacian(&g);
        let lam_max = 2.0 - 2.0 * ((n as f64 - 1.0) * std::f64::consts::PI / n as f64).cos();
        let lam_min = 2.0 - 2.0 * (std::f64::consts::PI / n as f64).cos();
        let hi = power_method(&l, 2000, 1e-12, 7);
        let lo = smallest_nonzero_eigenvalue(&l, 300, 1e-10, 11);
        assert!(
            (hi.value - lam_max).abs() / lam_max < 1e-3,
            "{} vs {}",
            hi.value,
            lam_max
        );
        assert!(
            (lo.value - lam_min).abs() / lam_min < 2e-2,
            "{} vs {}",
            lo.value,
            lam_min
        );
    }

    #[test]
    fn condition_number_of_path_grows_quadratically() {
        let k20 = condition_number(&CsrMatrix::laplacian(&generators::path(20, 1.0)), 1);
        let k40 = condition_number(&CsrMatrix::laplacian(&generators::path(40, 1.0)), 1);
        // kappa ~ (2n/pi)^2, so doubling n should roughly quadruple kappa.
        let ratio = k40 / k20;
        assert!(ratio > 2.5 && ratio < 6.0, "ratio = {ratio}");
    }

    #[test]
    fn scaling_the_graph_scales_eigenvalues() {
        let g = generators::cycle(20, 1.0);
        let g4 = sgs_graph::ops::scale(&g, 4.0).unwrap();
        let hi1 = power_method(&CsrMatrix::laplacian(&g), 500, 1e-10, 3).value;
        let hi4 = power_method(&CsrMatrix::laplacian(&g4), 500, 1e-10, 3).value;
        assert!((hi4 / hi1 - 4.0).abs() < 1e-3);
    }
}
