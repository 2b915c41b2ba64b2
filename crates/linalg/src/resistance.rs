//! Effective resistances: exact and approximate.
//!
//! The effective resistance `R_e[G]` of an edge `e = (u, v)` is the potential difference
//! needed to drive one unit of current from `u` to `v` (Section 2 of the paper). The
//! leverage score `w_e · R_e[G]` drives every resistance-based sparsification scheme:
//!
//! * the Spielman–Srivastava baseline samples edges proportionally to approximate
//!   leverage scores obtained from `O(log n)` Laplacian solves (implemented here as
//!   [`approx_effective_resistances`]);
//! * the paper's bundle certificate (Lemma 1) upper-bounds `w_e R_e[G]` by `log n / t`
//!   for every off-bundle edge — the experiments validate that bound against the exact
//!   values computed by [`exact_effective_resistances`].

use rayon::prelude::*;

use sgs_graph::Graph;

use crate::cg::{pcg_solve_in, CgConfig, CgScratch, IdentityPreconditioner};
use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::vector;

/// Below this vertex count the exact computation uses one dense Cholesky factorization;
/// above it, one CG solve per edge (parallelised over edges).
const DENSE_LIMIT: usize = 600;

/// Computes the exact effective resistance of every edge of `g`.
///
/// The graph must be connected. Complexity is `O(n³ + m n)` in the dense regime and
/// `O(m · cg)` above `DENSE_LIMIT` (600) vertices.
pub fn exact_effective_resistances(g: &Graph) -> Vec<f64> {
    assert!(
        sgs_graph::connectivity::is_connected(g),
        "effective resistances require a connected graph"
    );
    if g.n() <= DENSE_LIMIT {
        exact_dense(g)
    } else {
        exact_cg(g)
    }
}

fn exact_dense(g: &Graph) -> Vec<f64> {
    let n = g.n();
    let l = DenseMatrix::from_csr(&CsrMatrix::laplacian(g));
    // Pseudo-inverse action: solve L x = (e_u - e_v) for every distinct vertex that
    // appears, reusing the Cholesky factor of the regularized matrix.
    let mut reg = l.clone();
    let shift = 1.0 / n as f64;
    for r in 0..n {
        for c in 0..n {
            reg.add_to(r, c, shift);
        }
    }
    let chol = reg
        .cholesky()
        .expect("regularized Laplacian of a connected graph is positive definite");
    // Solve for the columns of L^+ we actually need: one per vertex appearing in edges.
    let mut need = vec![false; n];
    for e in g.edges() {
        need[e.u()] = true;
        need[e.v()] = true;
    }
    let cols: Vec<Option<Vec<f64>>> = (0..n)
        .into_par_iter()
        .map(|v| {
            if !need[v] {
                return None;
            }
            let mut b = vec![0.0; n];
            b[v] = 1.0;
            vector::project_out_ones(&mut b);
            let mut x = chol.solve(&b);
            vector::project_out_ones(&mut x);
            Some(x)
        })
        .collect();
    g.edges()
        .iter()
        .map(|e| {
            let cu = cols[e.u()].as_ref().expect("column computed");
            let cv = cols[e.v()].as_ref().expect("column computed");
            // R_uv = L^+[u,u] - 2 L^+[u,v] + L^+[v,v]
            (cu[e.u()] - cu[e.v()]) - (cv[e.u()] - cv[e.v()])
        })
        .collect()
}

fn exact_cg(g: &Graph) -> Vec<f64> {
    let cfg = CgConfig {
        tolerance: 1e-9,
        max_iterations: 50 * g.n(),
        project_ones: true,
    };
    let n = g.n();
    // One RHS buffer and one CG workspace per executor chunk (not per edge):
    // the RHS has exactly two nonzeros, so it is reset in O(1) after each
    // solve instead of being reallocated.
    g.edges()
        .par_iter()
        .map_init(
            || (vec![0.0; n], CgScratch::new(n)),
            |(b, scratch), e| {
                b[e.u()] = 1.0;
                b[e.v()] = -1.0;
                pcg_solve_in(g, &IdentityPreconditioner, b, &cfg, scratch);
                let x = scratch.solution();
                let resistance = x[e.u()] - x[e.v()];
                b[e.u()] = 0.0;
                b[e.v()] = 0.0;
                resistance
            },
        )
        .collect()
}

/// Approximate effective resistances via the Spielman–Srivastava random-projection
/// scheme: `R_e ≈ ‖Z (e_u − e_v)‖²` where `Z = Q W^{1/2} B L⁺` and `Q` has `k` rows of
/// scaled ±1 entries. `k = ⌈jl_factor · log₂ n⌉` Laplacian solves are performed.
///
/// Returns per-edge estimates that are within `(1 ± δ)` of the truth with high
/// probability for `jl_factor = O(1/δ²)`.
pub fn approx_effective_resistances(g: &Graph, jl_factor: f64, seed: u64) -> Vec<f64> {
    assert!(
        sgs_graph::connectivity::is_connected(g),
        "effective resistances require a connected graph"
    );
    let n = g.n();
    let k = ((jl_factor * (n.max(2) as f64).log2()).ceil() as usize).max(1);
    let opts = ResistanceOptions {
        rows: k,
        tolerance: 1e-8,
        max_iterations: 50 * n,
        seed,
    };
    let mut out = Vec::new();
    approx_effective_resistances_in(g, &opts, &mut ResistanceScratch::new(), &mut out);
    out
}

/// Knobs of the scratch-reusing resistance estimator
/// [`approx_effective_resistances_in`].
///
/// Unlike the `jl_factor` convenience wrapper, `rows` is the *absolute* number of
/// projection rows (= Laplacian solves): batch callers such as the leverage-aware
/// sampling policy in `sgs-core` pick a small fixed row count and a loose CG
/// tolerance, trading per-edge accuracy for speed — the sampled leverage scores only
/// steer probabilities, they are not a certificate.
#[derive(Debug, Clone)]
pub struct ResistanceOptions {
    /// Number of random-projection rows, i.e. CG solves (`k` of Spielman–Srivastava).
    pub rows: usize,
    /// CG relative-residual tolerance per solve.
    pub tolerance: f64,
    /// CG iteration cap per solve.
    pub max_iterations: usize,
    /// Seed of the ±1 projection draws.
    pub seed: u64,
}

/// Reusable workspace of [`approx_effective_resistances_in`]: the `k × n` projection
/// rows. Construction is free; the first call sizes it and later calls on graphs of
/// similar size reuse the allocations.
#[derive(Debug, Default)]
pub struct ResistanceScratch {
    zs: Vec<Vec<f64>>,
}

impl ResistanceScratch {
    /// Creates an empty scratch (no allocation until first use).
    pub fn new() -> ResistanceScratch {
        ResistanceScratch::default()
    }
}

/// Scratch-reusing [`approx_effective_resistances`] that also accepts **disconnected**
/// graphs, writing one estimate per edge into `out` (resized to `g.m()`).
///
/// Connectivity is not required because every projection RHS `y = Bᵀ W^{1/2} q` is
/// balanced *per connected component* (each edge contributes `±val` to two endpoints
/// of the same component), so it is orthogonal to the Laplacian null space and the CG
/// iterates stay component-balanced; the potential difference `z[u] − z[v]` is then
/// well-defined for every edge, whose endpoints share a component by definition. The
/// merge-and-reduce tree of `sgs-stream` relies on this: leaf slices of an edge stream
/// are routinely disconnected.
///
/// For a fixed seed the output is bitwise identical across thread counts — rows and
/// per-edge accumulations are independent, and no cross-edge reduction is performed.
pub fn approx_effective_resistances_in(
    g: &Graph,
    opts: &ResistanceOptions,
    scratch: &mut ResistanceScratch,
    out: &mut Vec<f64>,
) {
    let n = g.n();
    let m = g.m();
    out.clear();
    out.resize(m, 0.0);
    if m == 0 {
        return;
    }
    let k = opts.rows.max(1);
    let cfg = CgConfig {
        tolerance: opts.tolerance,
        max_iterations: opts.max_iterations,
        project_ones: true,
    };

    // For each projection row i: y_i = Bᵀ W^{1/2} q_i  (an n-vector), z_i = L⁺ y_i.
    // Rows live in the caller's scratch; the RHS accumulator, the ±1 draw and the CG
    // workspace are reused across the rows of one executor chunk.
    scratch.zs.resize_with(k, Vec::new);
    for z in scratch.zs.iter_mut() {
        z.clear();
        z.resize(n, 0.0);
    }
    scratch.zs[..k]
        .par_iter_mut()
        .enumerate()
        .map_init(
            || (vec![0.0; n], vec![0.0; m], CgScratch::new(n)),
            |(y, q, cg), (i, z)| {
                y.fill(0.0);
                vector::rademacher_in(opts.seed.wrapping_add(i as u64).wrapping_mul(0x9E37), q);
                for (j, e) in g.edges().iter().enumerate() {
                    let val = q[j] * e.w.sqrt();
                    y[e.u()] += val;
                    y[e.v()] -= val;
                }
                pcg_solve_in(g, &IdentityPreconditioner, y, &cfg, cg);
                z.copy_from_slice(cg.solution());
            },
        )
        .count();

    let zs = &scratch.zs[..k];
    let scale = 1.0 / k as f64;
    // Each estimate is k multiply-adds; batch the per-edge dispatch so the ER
    // sampling policy and `resparsify_er` stop paying per-item overhead.
    out.par_iter_mut()
        .enumerate()
        .with_min_len(256)
        .for_each(|(j, r)| {
            let e = g.edge(j);
            let mut acc = 0.0;
            for z in zs {
                let d = z[e.u()] - z[e.v()];
                acc += d * d;
            }
            *r = acc * scale;
        });
}

/// Sum of leverage scores `Σ_e w_e R_e[G]`; equals `n − 1` exactly for a connected
/// graph, a classical identity used as a sanity check in tests and experiments.
pub fn total_leverage(g: &Graph, resistances: &[f64]) -> f64 {
    g.edges()
        .iter()
        .zip(resistances)
        .map(|(e, r)| e.w * r)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_graph::generators;

    #[test]
    fn path_resistances_are_series_sums() {
        let g = generators::path(5, 2.0); // each edge resistance 0.5
        let r = exact_effective_resistances(&g);
        for v in &r {
            assert!((v - 0.5).abs() < 1e-8);
        }
    }

    #[test]
    fn parallel_edges_halve_resistance() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1, 1.0).unwrap();
        g.add_edge(0, 1, 1.0).unwrap();
        let r = exact_effective_resistances(&g);
        assert!((r[0] - 0.5).abs() < 1e-8);
        assert!((r[1] - 0.5).abs() < 1e-8);
    }
    use sgs_graph::Graph;

    #[test]
    fn complete_graph_resistance_is_two_over_n() {
        let n = 9;
        let g = generators::complete(n, 1.0);
        let r = exact_effective_resistances(&g);
        for v in &r {
            assert!((v - 2.0 / n as f64).abs() < 1e-8, "r = {v}");
        }
    }

    #[test]
    fn cycle_resistance_matches_series_parallel_formula() {
        let n = 10;
        let g = generators::cycle(n, 1.0);
        let r = exact_effective_resistances(&g);
        let expected = (1.0 * (n - 1) as f64) / n as f64; // 1 || (n-1)
        for v in &r {
            assert!((v - expected).abs() < 1e-8);
        }
    }

    #[test]
    fn total_leverage_is_n_minus_one() {
        let g = generators::erdos_renyi_weighted(60, 0.25, 0.5, 3.0, 13);
        assert!(sgs_graph::connectivity::is_connected(&g));
        let r = exact_effective_resistances(&g);
        let total = total_leverage(&g, &r);
        assert!(
            (total - (g.n() as f64 - 1.0)).abs() < 1e-5,
            "total = {total}"
        );
    }

    #[test]
    fn cg_and_dense_paths_agree() {
        let g = generators::grid2d(8, 8, 1.0);
        let dense = exact_dense(&g);
        let cg = exact_cg(&g);
        for (a, b) in dense.iter().zip(&cg) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn approximate_resistances_track_exact_values() {
        let g = generators::erdos_renyi(80, 0.15, 1.0, 21);
        assert!(sgs_graph::connectivity::is_connected(&g));
        let exact = exact_effective_resistances(&g);
        let approx = approx_effective_resistances(&g, 10.0, 5);
        let mut worst: f64 = 0.0;
        for (a, b) in exact.iter().zip(&approx) {
            worst = worst.max((a - b).abs() / a);
        }
        assert!(worst < 0.75, "worst relative error {worst}");
        // The *sum* concentrates much better than individual entries.
        let sum_exact: f64 = exact.iter().sum();
        let sum_approx: f64 = approx.iter().sum();
        assert!((sum_exact - sum_approx).abs() / sum_exact < 0.15);
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn disconnected_graph_panics() {
        let g = Graph::from_tuples(4, vec![(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        let _ = exact_effective_resistances(&g);
    }

    #[test]
    fn scratch_estimator_matches_wrapper_bitwise() {
        let g = generators::erdos_renyi(80, 0.15, 1.0, 21);
        let n = g.n();
        let k = ((10.0 * (n as f64).log2()).ceil() as usize).max(1);
        let wrapper = approx_effective_resistances(&g, 10.0, 5);
        let opts = ResistanceOptions {
            rows: k,
            tolerance: 1e-8,
            max_iterations: 50 * n,
            seed: 5,
        };
        let mut scratch = ResistanceScratch::new();
        let mut out = Vec::new();
        approx_effective_resistances_in(&g, &opts, &mut scratch, &mut out);
        assert_eq!(wrapper.len(), out.len());
        for (a, b) in wrapper.iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn scratch_estimator_handles_disconnected_graphs_per_component() {
        // Two disjoint 3-paths: each edge's resistance within its component must match
        // the exact value computed on that component alone.
        let g = Graph::from_tuples(
            8,
            vec![
                (0, 1, 1.0),
                (1, 2, 1.0),
                (2, 3, 1.0),
                (4, 5, 2.0),
                (5, 6, 2.0),
                (6, 7, 2.0),
            ],
        )
        .unwrap();
        let opts = ResistanceOptions {
            rows: 96,
            tolerance: 1e-10,
            max_iterations: 2000,
            seed: 11,
        };
        let mut out = Vec::new();
        approx_effective_resistances_in(&g, &opts, &mut ResistanceScratch::new(), &mut out);
        // Path edges are in series: R = 1/w exactly.
        for (e, r) in g.edges().iter().zip(&out) {
            let exact = 1.0 / e.w;
            assert!(
                (r - exact).abs() / exact < 0.6,
                "edge ({}, {}): estimate {r} vs exact {exact}",
                e.u(),
                e.v()
            );
        }
    }

    #[test]
    fn scratch_is_reusable_across_graph_sizes() {
        let mut scratch = ResistanceScratch::new();
        let mut out = Vec::new();
        let opts = ResistanceOptions {
            rows: 12,
            tolerance: 1e-8,
            max_iterations: 2000,
            seed: 3,
        };
        for g in [
            generators::erdos_renyi(60, 0.2, 1.0, 1),
            generators::erdos_renyi(120, 0.1, 1.0, 2),
            generators::grid2d(6, 6, 1.0),
        ] {
            approx_effective_resistances_in(&g, &opts, &mut scratch, &mut out);
            let mut fresh = Vec::new();
            approx_effective_resistances_in(&g, &opts, &mut ResistanceScratch::new(), &mut fresh);
            assert_eq!(out.len(), g.m());
            for (a, b) in out.iter().zip(&fresh) {
                assert_eq!(a.to_bits(), b.to_bits(), "reused scratch must not leak");
            }
        }
    }

    #[test]
    fn rayleigh_monotonicity_adding_edges_lowers_resistance() {
        let base = generators::cycle(12, 1.0);
        let denser = {
            let mut g = base.clone();
            g.add_edge(0, 6, 1.0).unwrap();
            g.add_edge(3, 9, 1.0).unwrap();
            g
        };
        let r_base = exact_effective_resistances(&base);
        // Only compare the first 12 edges, which exist in both graphs.
        let r_dense = exact_effective_resistances(&denser);
        for i in 0..12 {
            assert!(r_dense[i] <= r_base[i] + 1e-9);
        }
    }
}
