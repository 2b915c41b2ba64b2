//! Effective resistances: exact and approximate.
//!
//! The effective resistance `R_e[G]` of an edge `e = (u, v)` is the potential difference
//! needed to drive one unit of current from `u` to `v` (Section 2 of the paper). The
//! leverage score `w_e · R_e[G]` drives every resistance-based sparsification scheme:
//!
//! * the Spielman–Srivastava baseline samples edges proportionally to approximate
//!   leverage scores obtained from `O(log n)` Laplacian solves (implemented here as
//!   [`approx_effective_resistances`], which solves them together as a block CG:
//!   one pass over the edges advances four solves);
//! * the paper's bundle certificate (Lemma 1) upper-bounds `w_e R_e[G]` by `log n / t`
//!   for every off-bundle edge — the experiments validate that bound against the exact
//!   values computed by [`exact_effective_resistances`].

use std::array::from_fn;

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
/// scaled ±1 entries. `k = ⌈jl_factor · log₂ n⌉` Laplacian solves are performed, as
/// in [`approx_effective_resistances_in`].
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

/// Projection rows per block CG: one pass over the edge list applies the Laplacian
/// to this many rows at once.
const LANES: usize = 4;

/// One vertex's entries in every lane of a block.
type Lanes = [f64; LANES];

/// Reusable workspace of [`approx_effective_resistances_in`]: each block CG's iterate,
/// one `n`-vector per block of `LANES` (4) projection rows, which the estimate pass
/// reads after the solves. Construction is free; the first call sizes it and later
/// calls on graphs of similar size reuse the allocations. The other CG vectors are
/// per-call worker state, freed at return.
///
/// Each block stores its rows' vectors vertex-major and lane-interleaved: lane `l`
/// (projection row `LANES·block + l`) of vertex `v` is `x[v][l]`, so one edge reads
/// and writes every lane's entries of both endpoints together.
#[derive(Debug, Default)]
pub struct ResistanceScratch {
    /// Each block's iterate; after its solve, each lane's potentials `z = L⁺ y`.
    blocks: Vec<Vec<Lanes>>,
}

impl ResistanceScratch {
    /// Creates an empty scratch (no allocation until first use).
    pub fn new() -> ResistanceScratch {
        ResistanceScratch::default()
    }
}

/// The interleaved working vectors of a block CG besides its iterate (layout in
/// [`ResistanceScratch`]), reused by one executor worker across its blocks.
#[derive(Default)]
struct BlockCg {
    /// The residual, which starts as the right-hand side `y`.
    r: Vec<Lanes>,
    /// The search direction.
    p: Vec<Lanes>,
    /// `L p`.
    ap: Vec<Lanes>,
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
/// The `k` rows are solved as blocks of `LANES` (4) rows, the blocks in parallel. A
/// block runs one CG per lane in lockstep: one pass over the edges computes `L p` for
/// every lane, and each lane keeps its own `α`, `β`, `‖r‖` and stop test, so a lane
/// that converges early stops changing. Every lane reproduces, bit for bit, the float
/// sequence of [`pcg_solve_in`] under [`IdentityPreconditioner`] with `project_ones`:
/// the Laplacian pass does each lane's `d = w·(x_u − x_v)` in edge order as
/// `Graph::laplacian_apply_into` does, the mean projections fold each lane's entries
/// in vertex order as `vector::project_out_ones` does, and the dot products group each
/// lane's products as `vector::dot` does at the same length. Each lane stops on the
/// same tests (`pᵀLp ≤ 0` or not finite, then `‖r‖/‖b‖ ≤ tol`), and a lane whose
/// projected right-hand side is zero keeps `x = 0`. The solve's final true-residual
/// product is skipped: the estimate never reads it.
///
/// For a fixed seed the output is bitwise identical across thread counts — rows and
/// per-edge accumulations are independent, and every reduction is grouped by length
/// alone.
///
/// Emits one `resistance.estimate` span with fields `rows` and `m`, whose end carries
/// `iterations`: the CG iterations summed over the rows.
pub fn approx_effective_resistances_in(
    g: &Graph,
    opts: &ResistanceOptions,
    scratch: &mut ResistanceScratch,
    out: &mut Vec<f64>,
) {
    let span = sgs_obs::span!("resistance.estimate", rows = opts.rows.max(1), m = g.m());
    let iterations = estimate_in(g, opts, scratch, out);
    span.end_with(&[("iterations", iterations.into())]);
}

/// The estimator behind [`approx_effective_resistances_in`]; returns the CG
/// iterations summed over the rows.
fn estimate_in(
    g: &Graph,
    opts: &ResistanceOptions,
    scratch: &mut ResistanceScratch,
    out: &mut Vec<f64>,
) -> usize {
    let m = g.m();
    out.clear();
    out.resize(m, 0.0);
    if m == 0 {
        return 0;
    }
    let k = opts.rows.max(1);

    // For each projection row i: y_i = Bᵀ W^{1/2} q_i (an n-vector), z_i = L⁺ y_i. The
    // ±1 draw and the CG vectors are reused across the blocks of one executor chunk.
    let nb = k.div_ceil(LANES);
    if scratch.blocks.len() < nb {
        scratch.blocks.resize_with(nb, Vec::new);
    }
    let iterations = scratch.blocks[..nb]
        .par_iter_mut()
        .enumerate()
        .map_init(
            || (vec![0.0; m], BlockCg::default()),
            |(q, cg), (b, x)| {
                let first = b * LANES;
                solve_block(g, opts, first, (k - first).min(LANES), q, x, cg)
            },
        )
        .sum();

    let blocks = &scratch.blocks[..nb];
    let scale = 1.0 / k as f64;
    // Each estimate is k multiply-adds; batch the per-edge dispatch so the ER
    // sampling policy and `resparsify_er` stop paying per-item overhead.
    out.par_iter_mut()
        .enumerate()
        .with_min_len(256)
        .for_each(|(j, r)| {
            let e = g.edge(j);
            let mut acc = 0.0;
            for (b, x) in blocks.iter().enumerate() {
                let (xu, xv) = (&x[e.u()], &x[e.v()]);
                for lane in 0..(k - b * LANES).min(LANES) {
                    let d = xu[lane] - xv[lane];
                    acc += d * d;
                }
            }
            *r = acc * scale;
        });
    iterations
}

/// Solves projection rows `first .. first + rows` (`rows ≤ LANES`) in one block CG
/// into the iterate `x` and returns their iterations summed over the lanes. Lanes past
/// `rows` have a zero right-hand side and never iterate.
fn solve_block(
    g: &Graph,
    opts: &ResistanceOptions,
    first: usize,
    rows: usize,
    q: &mut [f64],
    x: &mut Vec<Lanes>,
    cg: &mut BlockCg,
) -> usize {
    let n = g.n();
    let BlockCg { r, p, ap } = cg;
    for buf in [&mut *x, &mut *r, &mut *p, &mut *ap] {
        buf.clear();
        buf.resize(n, [0.0; LANES]);
    }
    // Right-hand sides y = Bᵀ W^{1/2} q, one ±1 draw per lane, accumulated in r.
    for (lane, row) in (first..first + rows).enumerate() {
        vector::rademacher_in(opts.seed.wrapping_add(row as u64).wrapping_mul(0x9E37), q);
        for (e, &sign) in g.edges().iter().zip(q.iter()) {
            let val = sign * e.w.sqrt();
            r[e.u()][lane] += val;
            r[e.v()][lane] -= val;
        }
    }
    // b ← b − mean(b); then x = 0 and r = b.
    project_out_ones_lanes(r, &[true; LANES]);
    let b_norm = lane_dots(r, r).map(f64::sqrt);
    let mut active: [bool; LANES] = from_fn(|l| b_norm[l] != 0.0);
    // p = z = r − mean(r): `project_ones` projects the preconditioned residual too.
    let mean = lane_means(r);
    for (pv, rv) in p.iter_mut().zip(r.iter()) {
        *pv = from_fn(|l| rv[l] - mean[l]);
    }
    let mut rz = lane_dots(r, p);

    let mut iterations = 0;
    for _ in 0..opts.max_iterations {
        if !active.contains(&true) {
            break;
        }
        iterations += active.iter().filter(|&&a| a).count();
        laplacian_apply_lanes(g, p, ap);
        let pap = lane_dots(p, ap);
        let mut alpha = [0.0; LANES];
        for l in 0..LANES {
            if !active[l] {
                continue;
            }
            if pap[l] <= 0.0 || !pap[l].is_finite() {
                active[l] = false;
            } else {
                alpha[l] = rz[l] / pap[l];
            }
        }
        // x ← x + α p, r ← r − α L p, then r ← r − mean(r). Stopped lanes keep theirs.
        for ((xv, rv), (pv, apv)) in x.iter_mut().zip(r.iter_mut()).zip(p.iter().zip(ap.iter())) {
            for l in 0..LANES {
                if active[l] {
                    xv[l] += alpha[l] * pv[l];
                    rv[l] += -alpha[l] * apv[l];
                }
            }
        }
        project_out_ones_lanes(r, &active);
        // ‖r‖² and rᵀz for z = r − mean(r), in one pass.
        let mean = lane_means(r);
        let sums: [f64; 2 * LANES] = lane_sums(n, |v| {
            from_fn(|j| {
                let ri = r[v][j % LANES];
                if j < LANES {
                    ri * ri
                } else {
                    ri * (ri - mean[j % LANES])
                }
            })
        });
        let mut beta = [0.0; LANES];
        for l in 0..LANES {
            if !active[l] {
                continue;
            }
            if sums[l].sqrt() / b_norm[l] <= opts.tolerance {
                active[l] = false;
            } else {
                beta[l] = sums[LANES + l] / rz[l];
                rz[l] = sums[LANES + l];
            }
        }
        for (pv, rv) in p.iter_mut().zip(r.iter()) {
            for l in 0..LANES {
                if active[l] {
                    pv[l] = (rv[l] - mean[l]) + beta[l] * pv[l];
                }
            }
        }
    }
    iterations
}

/// `y = L x` for every lane in one pass over the edges; each lane does the arithmetic
/// of `Graph::laplacian_apply_into`, in the same edge order.
fn laplacian_apply_lanes(g: &Graph, x: &[Lanes], y: &mut [Lanes]) {
    y.fill([0.0; LANES]);
    for e in g.edges() {
        let (u, v) = (e.u(), e.v());
        let (xu, xv) = (x[u], x[v]);
        let d: Lanes = from_fn(|l| e.w * (xu[l] - xv[l]));
        for (yi, di) in y[u].iter_mut().zip(d) {
            *yi += di;
        }
        for (yi, di) in y[v].iter_mut().zip(d) {
            *yi -= di;
        }
    }
}

/// `x ← x − mean(x)` in each active lane, as `vector::project_out_ones` does to one
/// vector.
fn project_out_ones_lanes(x: &mut [Lanes], active: &[bool; LANES]) {
    let mean = lane_means(x);
    for xv in x.iter_mut() {
        for l in 0..LANES {
            if active[l] {
                xv[l] -= mean[l];
            }
        }
    }
}

/// Each lane's mean, its entries folded in vertex order as `vector::project_out_ones`
/// folds one vector.
fn lane_means(x: &[Lanes]) -> Lanes {
    lane_sums_seq(x.len(), |v| x[v]).map(|s| s / x.len() as f64)
}

/// Each lane's dot product `aᵀb`.
fn lane_dots(a: &[Lanes], b: &[Lanes]) -> Lanes {
    lane_sums(a.len(), |v| from_fn(|l| a[v][l] * b[v][l]))
}

/// Lane-wise sums of `f(v)` over the vertices `0..n`, each lane grouped as
/// `vector::dot` groups one vector of length `n`: one sequential fold below
/// `vector::PAR_THRESHOLD`, and above it one fold per executor chunk, the chunks
/// combined in order.
fn lane_sums<const W: usize>(n: usize, f: impl Fn(usize) -> [f64; W] + Sync) -> [f64; W] {
    if n < vector::PAR_THRESHOLD {
        lane_sums_seq(n, f)
    } else {
        (0..n)
            .into_par_iter()
            .map(|v| Sums(f(v)))
            .sum::<Sums<W>>()
            .0
    }
}

/// The sequential arm of `lane_sums`: one fold over `0..n`.
fn lane_sums_seq<const W: usize>(n: usize, f: impl Fn(usize) -> [f64; W]) -> [f64; W] {
    (0..n).map(|v| Sums(f(v))).sum::<Sums<W>>().0
}

/// `W` independent sums. Summing folds each one from `f64`'s empty sum, exactly as
/// `f64`'s own `Sum` does, so every lane reproduces the scalar reduction bit for bit.
struct Sums<const W: usize>([f64; W]);

impl<const W: usize> std::iter::Sum for Sums<W> {
    fn sum<I: Iterator<Item = Sums<W>>>(iter: I) -> Sums<W> {
        let empty: f64 = std::iter::empty::<f64>().sum();
        iter.fold(Sums([empty; W]), |mut acc, item| {
            for (a, b) in acc.0.iter_mut().zip(item.0) {
                *a += b;
            }
            acc
        })
    }
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

    /// The per-row estimator the block CG replaces: one `pcg_solve_in` per projection
    /// row. Returns the estimates and the iterations summed over the rows.
    fn per_row_reference(g: &Graph, opts: &ResistanceOptions) -> (Vec<f64>, usize) {
        let k = opts.rows.max(1);
        let cfg = CgConfig {
            tolerance: opts.tolerance,
            max_iterations: opts.max_iterations,
            project_ones: true,
        };
        let mut q = vec![0.0; g.m()];
        let mut cg = CgScratch::new(g.n());
        let mut iterations = 0;
        let zs: Vec<Vec<f64>> = (0..k)
            .map(|i| {
                let mut y = vec![0.0; g.n()];
                vector::rademacher_in(
                    opts.seed.wrapping_add(i as u64).wrapping_mul(0x9E37),
                    &mut q,
                );
                for (e, &sign) in g.edges().iter().zip(&q) {
                    let val = sign * e.w.sqrt();
                    y[e.u()] += val;
                    y[e.v()] -= val;
                }
                iterations +=
                    pcg_solve_in(g, &IdentityPreconditioner, &y, &cfg, &mut cg).iterations;
                cg.solution().to_vec()
            })
            .collect();
        let estimates = g
            .edges()
            .iter()
            .map(|e| {
                let mut acc = 0.0;
                for z in &zs {
                    let d = z[e.u()] - z[e.v()];
                    acc += d * d;
                }
                acc * (1.0 / k as f64)
            })
            .collect();
        (estimates, iterations)
    }

    /// Asserts that the block estimator reproduces the per-row reference bit for bit,
    /// iteration counts included.
    fn assert_matches_per_row(
        g: &Graph,
        opts: &ResistanceOptions,
        scratch: &mut ResistanceScratch,
    ) {
        let (want, want_iterations) = per_row_reference(g, opts);
        let mut got = Vec::new();
        let iterations = estimate_in(g, opts, scratch, &mut got);
        let case = format!("n {} m {} {opts:?}", g.n(), g.m());
        assert_eq!(iterations, want_iterations, "iterations, {case}");
        assert_eq!(got.len(), want.len(), "{case}");
        for (j, (a, b)) in got.iter().zip(&want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "edge {j}: {a} vs {b}, {case}");
        }
    }

    #[test]
    fn block_cg_matches_per_row_pcg_bit_for_bit() {
        let connected = generators::erdos_renyi_weighted(70, 0.15, 0.5, 3.0, 4);
        assert!(sgs_graph::connectivity::is_connected(&connected));
        // A stream leaf: a prefix of an edge list, in several components.
        let er = generators::erdos_renyi(90, 0.08, 1.0, 9);
        let leaf = Graph::from_edges(90, er.edges()[..70].to_vec()).unwrap();
        assert!(!sgs_graph::connectivity::is_connected(&leaf));
        // Vertices 12..40 have no edge at all.
        let mut isolated = Graph::new(40);
        for e in generators::erdos_renyi_weighted(12, 0.4, 1.0, 2.0, 5).edges() {
            isolated.add_edge(e.u(), e.v(), e.w).unwrap();
        }
        let mut scratch = ResistanceScratch::new();
        for g in [&connected, &leaf, &isolated] {
            for rows in [1, 3, 4, 5, 8, 10, 13] {
                for tolerance in [1e-3, 1e-4, 1e-8] {
                    let opts = ResistanceOptions {
                        rows,
                        tolerance,
                        max_iterations: 1000,
                        seed: 17 + rows as u64,
                    };
                    assert_matches_per_row(g, &opts, &mut scratch);
                }
            }
        }
        // An iteration cap that stops every lane mid-solve.
        let grid = generators::grid2d(15, 15, 1.0);
        for max_iterations in [0, 1, 7] {
            let opts = ResistanceOptions {
                rows: 6,
                tolerance: 1e-8,
                max_iterations,
                seed: 3,
            };
            assert_matches_per_row(&grid, &opts, &mut scratch);
        }
    }

    #[test]
    fn block_cg_groups_large_lane_dots_like_the_parallel_dot() {
        // Above `vector::PAR_THRESHOLD` vertices `vector::dot` sums per executor chunk.
        let g = generators::random_regular(vector::PAR_THRESHOLD + 600, 4, 1.0, 8);
        let opts = ResistanceOptions {
            rows: 5,
            tolerance: 1e-4,
            max_iterations: 1000,
            seed: 21,
        };
        assert_matches_per_row(&g, &opts, &mut ResistanceScratch::new());
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
