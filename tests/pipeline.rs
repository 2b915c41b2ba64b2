//! Cross-crate integration tests: the full sparsify → verify → solve pipelines that a
//! downstream user of the library would run.

use spectral_sparsify::graph::{connectivity::is_connected, generators, ops};
use spectral_sparsify::linalg::spectral::CertifyOptions;
use spectral_sparsify::linalg::{cg::CgConfig, cg_solve, csr::CsrMatrix, vector};
use spectral_sparsify::prelude::*;
use spectral_sparsify::solver::{SddSolver, SolverConfig, SolverMethod};
use spectral_sparsify::sparsify::verify_sparsifier;

/// Sparsifying a dense graph and solving on the sparsifier gives approximately the same
/// solution as solving on the original graph — the downstream use case that motivates
/// spectral sparsification in the first place.
#[test]
fn solve_on_sparsifier_approximates_solve_on_original() {
    let g = generators::erdos_renyi(400, 0.25, 1.0, 5);
    assert!(is_connected(&g));
    let cfg = SparsifyConfig::new(0.5, 4.0)
        .with_bundle_sizing(BundleSizing::Fixed(6))
        .with_seed(9);
    let sparse = parallel_sparsify(&g, &cfg).sparsifier;
    assert!(sparse.m() < g.m());

    let mut b = vec![0.0; g.n()];
    b[0] = 1.0;
    b[399] = -1.0;
    let cg_cfg = CgConfig::default();
    let x_full = cg_solve(&CsrMatrix::laplacian(&g), &b, &cg_cfg).solution;
    let x_sparse = cg_solve(&CsrMatrix::laplacian(&sparse), &b, &cg_cfg).solution;

    // Compare the energy (quadratic form) of the two solutions on the original graph:
    // for a kappa-approximation the energies agree within that factor.
    let e_full = g.quadratic_form(&x_full);
    let e_sparse = g.quadratic_form(&x_sparse);
    let ratio = e_sparse / e_full;
    assert!(ratio > 0.3 && ratio < 3.0, "energy ratio {ratio}");

    // The potential difference across the source/sink pair (the effective resistance)
    // is also approximately preserved.
    let er_full = x_full[0] - x_full[399];
    let er_sparse = x_sparse[0] - x_sparse[399];
    let er_ratio = er_sparse / er_full;
    assert!(
        er_ratio > 0.4 && er_ratio < 2.5,
        "effective resistance ratio {er_ratio}"
    );
}

/// A sparsifier of `G` can precondition solves on `G`: CG on `G` preconditioned by an
/// (exactly solved) sparsifier converges in far fewer iterations than plain CG when the
/// sparsifier is spectrally close.
#[test]
fn sparsifier_preserves_spectral_bounds_after_graph_algebra() {
    // Build G, sparsify, then check that scaling and adding graphs commutes with the
    // approximation guarantee: if H ≈ G then aH + K ≈ aG + K for any graph K.
    let g = generators::erdos_renyi(300, 0.3, 1.0, 21);
    let cfg = SparsifyConfig::new(0.5, 4.0)
        .with_bundle_sizing(BundleSizing::Fixed(5))
        .with_seed(2);
    let h = parallel_sparsify(&g, &cfg).sparsifier;
    let opts = CertifyOptions::default();
    let base = verify_sparsifier(&g, &h, &opts);

    let k = generators::cycle(300, 5.0);
    let ag_k = ops::add(&ops::scale(&g, 2.0).unwrap(), &k).unwrap();
    let ah_k = ops::add(&ops::scale(&h, 2.0).unwrap(), &k).unwrap();
    let shifted = verify_sparsifier(&ag_k, &ah_k, &opts);
    // Adding a common graph can only tighten the relative bounds.
    assert!(shifted.bounds.lower >= base.bounds.lower - 1e-6);
    assert!(shifted.bounds.upper <= base.bounds.upper + 1e-6);
}

/// The solver built on the chain (which internally uses PARALLELSPARSIFY) must agree
/// with a plain CG solve on the same system.
#[test]
fn chain_solver_agrees_with_plain_cg_end_to_end() {
    let g = generators::image_affinity_grid(20, 20, 40.0, 7);
    let n = g.n();
    let solver = SddSolver::for_laplacian(g.clone(), SolverConfig::default());
    let mut b = vec![0.0; n];
    b[5] = 1.0;
    b[n - 7] = -1.0;
    let chain = solver.solve_with(&b, SolverMethod::ChainPcg);
    let plain = solver.solve_with(&b, SolverMethod::Cg);
    assert!(chain.converged && plain.converged);
    let diff: Vec<f64> = chain
        .solution
        .iter()
        .zip(&plain.solution)
        .map(|(a, c)| a - c)
        .collect();
    assert!(vector::norm2(&diff) / vector::norm2(&plain.solution) < 1e-4);
}

/// Sparsify, then solve the sparsified system with the chain solver, and check the
/// solution against the original system: the full paper pipeline.
#[test]
fn full_pipeline_sparsify_then_chain_solve() {
    let g = generators::erdos_renyi(500, 0.2, 1.0, 33);
    assert!(is_connected(&g));
    let cfg = SparsifyConfig::new(0.5, 8.0)
        .with_bundle_sizing(BundleSizing::Fixed(5))
        .with_seed(4);
    let h = parallel_sparsify(&g, &cfg).sparsifier;

    let mut b = vec![0.0; g.n()];
    b[10] = 1.0;
    b[490] = -1.0;
    vector::project_out_ones(&mut b);

    let solver = SddSolver::for_laplacian(h, SolverConfig::default());
    let out = solver.solve(&b);
    assert!(out.converged);

    // Use the sparsifier solution as an approximate solution of the original system:
    // the relative residual in G should be bounded away from 1 (it would be ~1 for a
    // garbage vector) because H approximates G spectrally.
    let lx = g.laplacian_apply(&out.solution);
    let mut r: Vec<f64> = b.iter().zip(&lx).map(|(bi, li)| bi - li).collect();
    vector::project_out_ones(&mut r);
    let rel = vector::norm2(&r) / vector::norm2(&b);
    assert!(
        rel < 0.9,
        "sparsifier solution is a useful starting point, residual {rel}"
    );
}

/// Distributed and shared-memory sparsifiers have statistically similar sizes and both
/// produce usable spectral approximations of the same input.
#[test]
fn distributed_and_shared_memory_sparsifiers_are_comparable() {
    use spectral_sparsify::distributed::distributed_sample;

    let g = generators::erdos_renyi(200, 0.3, 1.0, 41);
    let cfg = SparsifyConfig::new(0.5, 2.0)
        .with_bundle_sizing(BundleSizing::Fixed(3))
        .with_seed(6);
    let shared = parallel_sample(&g, &cfg);
    let dist = distributed_sample(&g, &cfg);
    let ratio = shared.sparsifier.m() as f64 / dist.sparsifier.m() as f64;
    assert!(ratio > 0.5 && ratio < 2.0, "size ratio {ratio}");
    assert!(is_connected(&shared.sparsifier));
    assert!(is_connected(&dist.sparsifier));
    let opts = CertifyOptions::default();
    let b_shared = verify_sparsifier(&g, &shared.sparsifier, &opts);
    let b_dist = verify_sparsifier(&g, &dist.sparsifier, &opts);
    assert!(b_shared.bounds.lower > 0.2 && b_shared.bounds.upper < 3.0);
    assert!(b_dist.bounds.lower > 0.2 && b_dist.bounds.upper < 3.0);
}
