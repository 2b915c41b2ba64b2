//! Inspect the Peng–Spielman approximate inverse chain built with `PARALLELSPARSIFY`
//! (Section 4 / Theorem 6): level sizes, diagonal dominance growth, and the iteration
//! counts of the resulting solver as the condition number of the input grows.
//!
//! Run with:
//! ```text
//! cargo run --release --example solver_chain
//! ```

use spectral_sparsify::graph::generators;
use spectral_sparsify::linalg::{csr::CsrMatrix, eigen};
use spectral_sparsify::solver::{SddSolver, SolverConfig, SolverMethod};

fn main() {
    println!("== Chain anatomy on a dense random graph ==");
    let g = generators::erdos_renyi(400, 0.3, 1.0, 17);
    println!("input: n = {}, m = {}", g.n(), g.m());
    let solver = SddSolver::for_laplacian(g, SolverConfig::default());
    let chain = solver.chain().expect("chain built");
    println!("{:>6} {:>10} {:>14}", "level", "edges", "min excess/deg");
    for (i, level) in chain.levels().iter().enumerate() {
        let deg = level.graph().weighted_degrees();
        let dominance = deg
            .iter()
            .zip(level.excess())
            .filter(|(d, _)| **d > 0.0)
            .map(|(d, e)| e / d)
            .fold(f64::INFINITY, f64::min);
        println!("{:>6} {:>10} {:>14.3}", i, level.m(), dominance);
    }
    println!(
        "total chain size: {} edges across {} levels; stopped on {} (rejected level: {} edges)",
        chain.total_edges(),
        chain.depth(),
        chain.stop().as_str(),
        chain.stop().rejected_m()
    );

    println!("\n== Iterations vs. condition number (paths of growing length) ==");
    println!(
        "{:>6} {:>12} {:>8} {:>12} {:>12}",
        "n", "kappa", "cg", "jacobi-pcg", "chain-pcg"
    );
    for &n in &[100usize, 200, 400, 800] {
        let g = generators::path(n, 1.0);
        let kappa = eigen::condition_number(&CsrMatrix::laplacian(&g), 3);
        let solver = SddSolver::for_laplacian(g, SolverConfig::default());
        let mut b = vec![0.0; n];
        b[0] = 1.0;
        b[n - 1] = -1.0;
        let cg = solver.solve_with(&b, SolverMethod::Cg);
        let jac = solver.solve_with(&b, SolverMethod::JacobiPcg);
        let chain = solver.solve_with(&b, SolverMethod::ChainPcg);
        println!(
            "{:>6} {:>12.0} {:>8} {:>12} {:>12}",
            n, kappa, cg.iterations, jac.iterations, chain.iterations
        );
    }
    println!(
        "(plain CG iterations grow like sqrt(kappa); the chain-preconditioned solver's \
         stay nearly flat, which is the point of Theorem 6)"
    );
}
