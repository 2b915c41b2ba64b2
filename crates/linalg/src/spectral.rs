//! Certification of spectral approximation between two graphs.
//!
//! The paper's central guarantee (Theorems 4 and 5) is a two-sided bound
//! `(1 − ε) G ⪯ G̃ ⪯ (1 + ε) G`, i.e. for every vector `x`
//! `(1 − ε) xᵀL_G x ≤ xᵀL_{G̃} x ≤ (1 + ε) xᵀL_G x`.
//!
//! This module *measures* the best constants empirically: it estimates the extreme
//! generalized eigenvalues of the pencil `(L_H, L_G)` restricted to the complement of
//! the all-ones vector, using power iteration where the pseudo-inverse applications are
//! CG solves. Power iteration approaches each extreme from inside the spectrum, so, up
//! to the CG tolerance, the returned [`SpectralBounds`] are *inner* estimates, not a
//! certificate: the true `λmin` can be lower than `lower` and the true `λmax` higher
//! than `upper`. A pair that fails `(1 ± ε)` is a real failure; a pair that passes is
//! evidence, not proof.

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

use sgs_graph::Graph;

use crate::cg::{cg_solve, CgConfig, GraphLaplacianOp};
use crate::vector;

/// Estimated extremes of the ratio `xᵀ L_H x / xᵀ L_G x`. Both are inner estimates:
/// the true range can be wider than `[lower, upper]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectralBounds {
    /// Estimated minimum of the ratio over `x ⟂ 1` (the `1 − ε` side). Power
    /// iteration reaches it from above: the true minimum can be lower.
    pub lower: f64,
    /// Estimated maximum of the ratio over `x ⟂ 1` (the `1 + ε` side). Power
    /// iteration reaches it from below: the true maximum can be higher.
    pub upper: f64,
}

impl SpectralBounds {
    /// The relative condition number `upper / lower` of the pair; `1` means identical
    /// quadratic forms.
    pub fn condition(&self) -> f64 {
        self.upper / self.lower
    }

    /// The smallest `ε` such that `(1 − ε) ≤ lower` and `upper ≤ (1 + ε)`.
    pub fn epsilon(&self) -> f64 {
        (1.0 - self.lower).max(self.upper - 1.0).max(0.0)
    }

    /// True if both estimates lie within `(1 ± ε)`. They are inner estimates, so this
    /// is necessary for a `(1 ± ε)` approximation, not sufficient.
    pub fn within_epsilon(&self, eps: f64) -> bool {
        self.lower >= 1.0 - eps - 1e-9 && self.upper <= 1.0 + eps + 1e-9
    }
}

/// Options controlling the power-iteration certification.
#[derive(Debug, Clone)]
pub struct CertifyOptions {
    /// Outer power-iteration steps per extreme.
    pub iterations: usize,
    /// Relative tolerance of the inner CG solves.
    pub cg_tolerance: f64,
    /// Seed for the starting vectors.
    pub seed: u64,
}

impl Default for CertifyOptions {
    fn default() -> Self {
        CertifyOptions {
            iterations: 40,
            cg_tolerance: 1e-8,
            seed: 0x5eed,
        }
    }
}

/// Rayleigh quotient `xᵀ L_H x / xᵀ L_G x`.
fn ratio(h: &Graph, g: &Graph, x: &[f64]) -> f64 {
    let num = h.quadratic_form(x);
    let den = g.quadratic_form(x);
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Estimates `max_x xᵀ L_H x / xᵀ L_G x` by power iteration on `L_G⁺ L_H`.
fn max_generalized_eigenvalue(h: &Graph, g: &Graph, opts: &CertifyOptions) -> f64 {
    let n = g.n();
    let op_g = GraphLaplacianOp::new(g);
    let cg_cfg = CgConfig {
        tolerance: opts.cg_tolerance,
        max_iterations: 30 * n + 500,
        project_ones: true,
    };
    let mut x = vector::random_unit_orthogonal(n, opts.seed);
    let mut best = ratio(h, g, &x);
    for _ in 0..opts.iterations {
        // y = L_G^+ (L_H x)
        let hx = h.laplacian_apply(&x);
        let mut y = cg_solve(&op_g, &hx, &cg_cfg).solution;
        vector::project_out_ones(&mut y);
        let norm = vector::norm2(&y);
        if norm == 0.0 {
            break;
        }
        for yi in y.iter_mut() {
            *yi /= norm;
        }
        let r = ratio(h, g, &y);
        let converged = (r - best).abs() <= 1e-7 * best.abs().max(1e-300);
        best = best.max(r);
        x = y;
        if converged {
            break;
        }
    }
    best
}

/// Estimates the two-sided bounds for `xᵀ L_H x / xᵀ L_G x` over `x ⟂ 1`.
///
/// Both graphs must be connected; the maximum direction is found on the pencil
/// `(L_H, L_G)` and the minimum as the reciprocal of the maximum of the swapped pencil.
pub fn approximation_bounds(g: &Graph, h: &Graph, opts: &CertifyOptions) -> SpectralBounds {
    assert_eq!(g.n(), h.n(), "graphs must share a vertex set");
    let upper = max_generalized_eigenvalue(h, g, opts);
    let inv_lower = max_generalized_eigenvalue(
        g,
        h,
        &CertifyOptions {
            seed: opts.seed.wrapping_add(1),
            ..opts.clone()
        },
    );
    let lower = if inv_lower > 0.0 {
        1.0 / inv_lower
    } else {
        0.0
    };
    SpectralBounds { lower, upper }
}

/// Cheap statistical check: evaluates the quadratic-form ratio on `k` random vectors
/// and returns the `(min, max)` observed. This is a *necessary* condition only, but it
/// is fast and used as a smoke test inside property-based tests.
pub fn ratio_samples(g: &Graph, h: &Graph, k: usize, seed: u64) -> (f64, f64) {
    assert_eq!(g.n(), h.n());
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for _ in 0..k {
        let mut x: Vec<f64> = (0..g.n()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        vector::project_out_ones(&mut x);
        let den = g.quadratic_form(&x);
        if den <= 0.0 {
            continue;
        }
        let r = h.quadratic_form(&x) / den;
        lo = lo.min(r);
        hi = hi.max(r);
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_graph::{generators, ops};

    #[test]
    fn identical_graphs_have_unit_bounds() {
        let g = generators::erdos_renyi(60, 0.2, 1.0, 3);
        let b = approximation_bounds(&g, &g, &CertifyOptions::default());
        assert!((b.lower - 1.0).abs() < 1e-6, "lower = {}", b.lower);
        assert!((b.upper - 1.0).abs() < 1e-6, "upper = {}", b.upper);
        assert!(b.within_epsilon(1e-5));
        assert!(b.epsilon() < 1e-5);
        assert!((b.condition() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn scaled_graph_has_scaled_bounds() {
        let g = generators::grid2d(6, 6, 1.0);
        let h = ops::scale(&g, 1.3).unwrap();
        let b = approximation_bounds(&g, &h, &CertifyOptions::default());
        assert!((b.lower - 1.3).abs() < 1e-5);
        assert!((b.upper - 1.3).abs() < 1e-5);
    }

    #[test]
    fn removing_an_edge_lowers_the_lower_bound() {
        let g = generators::complete(10, 1.0);
        let keep: Vec<bool> = (0..g.m()).map(|id| id != 0).collect();
        let h = g.edge_subgraph(&keep);
        let b = approximation_bounds(&g, &h, &CertifyOptions::default());
        assert!(b.upper <= 1.0 + 1e-9);
        assert!(b.lower < 1.0);
        assert!(
            b.lower > 0.5,
            "complete graph tolerates one edge removal well"
        );
    }

    #[test]
    fn cycle_vs_path_bound_matches_theory() {
        // H = path (cycle minus one edge). The worst direction for the ratio
        // path/cycle on C_n has ratio lambda; for the removed edge's indicator-like
        // vector the ratio approaches (n-1)/n... we check the certified epsilon is
        // consistent with exhaustive random sampling.
        let g = generators::cycle(12, 1.0);
        let keep: Vec<bool> = (0..g.m()).map(|id| id != 11).collect();
        let h = g.edge_subgraph(&keep);
        let b = approximation_bounds(&g, &h, &CertifyOptions::default());
        let (lo, hi) = ratio_samples(&g, &h, 200, 7);
        assert!(b.lower <= lo + 1e-6);
        assert!(b.upper >= hi - 1e-6);
        assert!(b.upper <= 1.0 + 1e-9);
    }

    #[test]
    fn within_epsilon_detects_violations() {
        let g = generators::complete(8, 1.0);
        let h = ops::scale(&g, 2.0).unwrap();
        let b = approximation_bounds(&g, &h, &CertifyOptions::default());
        assert!(!b.within_epsilon(0.5));
        assert!(b.within_epsilon(1.1));
    }

    #[test]
    fn ratio_samples_are_inside_certified_bounds() {
        let g = generators::erdos_renyi(40, 0.3, 1.0, 9);
        // Sparser approximation: keep every edge with doubled weight on a matching-ish set.
        let keep: Vec<bool> = (0..g.m()).map(|i| i % 2 == 0).collect();
        let mut h = g.edge_subgraph(&keep);
        for e in h.edges_mut() {
            e.w *= 2.0;
        }
        if !sgs_graph::connectivity::is_connected(&h) {
            return; // extremely unlikely with p = 0.3; skip rather than fail spuriously
        }
        let b = approximation_bounds(&g, &h, &CertifyOptions::default());
        let (lo, hi) = ratio_samples(&g, &h, 100, 11);
        assert!(b.lower <= lo + 1e-6);
        assert!(b.upper >= hi - 1e-6);
    }
}
