//! The user-facing SDD solver (Theorem 6).
//!
//! [`SddSolver`] builds an approximate inverse chain once and then answers solves with
//! preconditioned conjugate gradient, using the chain as the preconditioner. Reference
//! methods (plain CG, Jacobi-preconditioned CG) are provided for comparing iteration
//! counts and work as the condition number grows; the unit tests pin those counts.

use sgs_graph::Graph;
use sgs_linalg::cg::{
    pcg_solve_in, CgConfig, CgScratch, IdentityPreconditioner, JacobiPreconditioner, Preconditioner,
};
use sgs_linalg::csr::CsrMatrix;
use sgs_linalg::vector;

use crate::chain::{Chain, ChainConfig};
use crate::sdd::GroundedLaplacian;

/// Which algorithm answers the solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverMethod {
    /// Conjugate gradient with the Peng–Spielman/`PARALLELSPARSIFY` chain as
    /// preconditioner (the paper's solver).
    ChainPcg,
    /// Conjugate gradient with a Jacobi (diagonal) preconditioner.
    JacobiPcg,
    /// Plain conjugate gradient.
    Cg,
}

/// Configuration of the solver.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Relative residual tolerance `τ`.
    pub tolerance: f64,
    /// Iteration cap for the outer PCG loop.
    pub max_iterations: usize,
    /// Chain construction parameters (used by [`SolverMethod::ChainPcg`]).
    pub chain: ChainConfig,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            tolerance: 1e-8,
            max_iterations: 2000,
            chain: ChainConfig::default(),
        }
    }
}

/// Result of a solve.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The computed solution.
    pub solution: Vec<f64>,
    /// Outer iterations used.
    pub iterations: usize,
    /// Final relative residual `‖b − M x‖ / ‖b‖`.
    pub relative_residual: f64,
    /// Whether `relative_residual` is within `10 × tolerance`, the slack of
    /// [`sgs_linalg::CgStats::converged`]. Compare `relative_residual` with the
    /// tolerance for the strict test.
    pub converged: bool,
    /// Chain depth (0 for the reference methods).
    pub chain_depth: usize,
    /// Total edges stored in the chain (0 for the reference methods).
    pub chain_edges: usize,
    /// Solve counters (preconditioner applies, per-level work).
    pub stats: SolveStats,
}

/// Counters of one solve beyond the [`SolveOutcome`] fields; the `solver.done` and
/// `solver.level_work` trace points carry the same values. All values are
/// deterministic for a fixed system and seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveStats {
    /// Preconditioner applications ([`SolverMethod::ChainPcg`] only; 0 for the
    /// reference methods, which either have no preconditioner or a diagonal one
    /// whose work is already counted by the iteration total).
    pub preconditioner_applies: u64,
    /// Per chain level: the edges that level's adjacency passes visited over the
    /// solve, `m × passes × applies`. An interior level makes 2 passes per
    /// preconditioner application; the base makes one per Jacobi sweep, and none
    /// when it applies only `D⁻¹`. Empty for the reference methods.
    pub per_level_work: Vec<u64>,
}

/// A solver for SDD systems `M x = b` where `M = L(G) + diag(excess)`. The system is
/// held once, as the first level of its chain.
#[derive(Debug)]
pub struct SddSolver {
    chain: Chain,
    config: SolverConfig,
}

impl SddSolver {
    /// Builds a solver (and its chain) for a Laplacian system given by a graph, which
    /// is moved into the chain's first level, not cloned. The returned solutions are
    /// the representatives that are zero at the grounded vertex.
    pub fn for_laplacian(graph: Graph, config: SolverConfig) -> Self {
        let system = GroundedLaplacian::from_graph(graph);
        Self::for_system(system, config)
    }

    /// Builds a solver for an explicit grounded-Laplacian system; the system becomes
    /// the first level of the chain.
    pub fn for_system(system: GroundedLaplacian, config: SolverConfig) -> Self {
        let chain = Chain::build(system, &config.chain);
        SddSolver { chain, config }
    }

    /// Builds a solver from an SDD matrix with non-positive off-diagonals. Returns
    /// `None` if the matrix is not of that form.
    pub fn for_sdd_matrix(matrix: &CsrMatrix, config: SolverConfig) -> Option<Self> {
        let system = GroundedLaplacian::from_sdd_matrix(matrix)?;
        Some(Self::for_system(system, config))
    }

    /// The underlying grounded system: the chain's first level.
    pub fn system(&self) -> &GroundedLaplacian {
        &self.chain.levels()[0]
    }

    /// The chain built at construction time; always `Some`.
    pub fn chain(&self) -> Option<&Chain> {
        Some(&self.chain)
    }

    /// Solves `M x = b` with the requested method.
    ///
    /// For grounded pure-Laplacian systems the right-hand side should be compatible
    /// (sum to zero per component); the solution returned is the representative that is
    /// zero at the grounded vertices.
    pub fn solve_with(&self, b: &[f64], method: SolverMethod) -> SolveOutcome {
        let system = self.system();
        assert_eq!(b.len(), system.n(), "right-hand side has wrong dimension");
        let cg_cfg = CgConfig {
            tolerance: self.config.tolerance,
            max_iterations: self.config.max_iterations,
            // The grounded operator is PD; no null-space projection is needed.
            project_ones: false,
        };
        // The solver is the sequential top-level PCG caller, so it opts into the
        // per-iteration residual trace; parallel inner solves (the exact
        // resistances' per-edge CG) never enter a scope and stay silent.
        let solve_span = sgs_obs::span!("solver.solve", n = system.n());
        let scope = sgs_obs::trace_scope();
        // The re-entrant chain preconditioner reuses one scratch across all PCG
        // iterations (bit-identical to applying the chain directly).
        let chain_pre = self.chain.preconditioner();
        let jacobi;
        let pre: &dyn Preconditioner = match method {
            SolverMethod::ChainPcg => &chain_pre,
            SolverMethod::JacobiPcg => {
                jacobi = JacobiPreconditioner::from_diagonal(system.diagonal());
                &jacobi
            }
            SolverMethod::Cg => &IdentityPreconditioner,
        };
        let mut scratch = CgScratch::new(system.n());
        let outcome = pcg_solve_in(system, pre, b, &cg_cfg, &mut scratch);
        let applies = chain_pre.applies();
        let (chain_depth, chain_edges, per_level_work) = match method {
            SolverMethod::ChainPcg => (
                self.chain.depth(),
                self.chain.total_edges(),
                self.chain.level_work(applies),
            ),
            SolverMethod::JacobiPcg | SolverMethod::Cg => (0, 0, Vec::new()),
        };
        drop(scope);
        drop(solve_span);
        sgs_obs::point!(
            "solver.done",
            iterations = outcome.iterations,
            rel_residual = outcome.relative_residual,
            converged = outcome.converged,
            applies = applies,
        );
        for (level, &work) in per_level_work.iter().enumerate() {
            sgs_obs::point!("solver.level_work", level = level, work = work);
        }
        SolveOutcome {
            stats: SolveStats {
                preconditioner_applies: applies,
                per_level_work,
            },
            solution: scratch.into_solution(),
            iterations: outcome.iterations,
            relative_residual: outcome.relative_residual,
            converged: outcome.converged,
            chain_depth,
            chain_edges,
        }
    }

    /// Solves with the paper's method ([`SolverMethod::ChainPcg`]).
    pub fn solve(&self, b: &[f64]) -> SolveOutcome {
        self.solve_with(b, SolverMethod::ChainPcg)
    }
}

/// Convenience: solves the Laplacian system `L_G x = b` (with `b` projected to be
/// compatible) and returns the mean-zero representative of the solution.
pub fn solve_laplacian(graph: &Graph, b: &[f64], config: &SolverConfig) -> SolveOutcome {
    let mut rhs = b.to_vec();
    vector::project_out_ones(&mut rhs);
    let solver = SddSolver::for_laplacian(graph.clone(), config.clone());
    let mut out = solver.solve(&rhs);
    vector::project_out_ones(&mut out.solution);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_graph::generators;
    use sgs_linalg::cg::LinearOperator;

    fn residual(system: &GroundedLaplacian, x: &[f64], b: &[f64]) -> f64 {
        let mut mx = vec![0.0; x.len()];
        system.apply_into(x, &mut mx);
        let r: Vec<f64> = b.iter().zip(&mx).map(|(bi, mi)| bi - mi).collect();
        vector::norm2(&r) / vector::norm2(b)
    }

    #[test]
    fn chain_pcg_solves_grid_laplacian() {
        let g = generators::grid2d(20, 20, 1.0);
        let solver = SddSolver::for_laplacian(g, SolverConfig::default());
        let n = solver.system().n();
        let mut b = vec![0.0; n];
        b[0] = 1.0;
        b[n - 1] = -1.0;
        let out = solver.solve(&b);
        assert!(out.converged, "residual {}", out.relative_residual);
        assert!(out.chain_depth >= 1);
        assert!(residual(solver.system(), &out.solution, &b) < 1e-6);
    }

    #[test]
    fn chain_pcg_and_cg_agree_on_the_solution() {
        let g = generators::erdos_renyi(150, 0.1, 1.0, 3);
        let solver = SddSolver::for_laplacian(g, SolverConfig::default());
        let n = solver.system().n();
        let mut b = vec![0.0; n];
        b[1] = 2.0;
        b[77] = -2.0;
        let chain = solver.solve_with(&b, SolverMethod::ChainPcg);
        let plain = solver.solve_with(&b, SolverMethod::Cg);
        assert!(chain.converged && plain.converged);
        for (a, c) in chain.solution.iter().zip(&plain.solution) {
            assert!((a - c).abs() < 1e-4, "{a} vs {c}");
        }
    }

    #[test]
    fn chain_pcg_needs_fewer_iterations_than_cg_on_ill_conditioned_systems() {
        // A long weighted path has condition number Θ(n²): plain CG needs many
        // iterations, the chain-preconditioned solver far fewer.
        let g = generators::path(400, 1.0);
        let solver = SddSolver::for_laplacian(g, SolverConfig::default());
        let n = solver.system().n();
        let mut b = vec![0.0; n];
        b[0] = 1.0;
        b[n - 1] = -1.0;
        let chain = solver.solve_with(&b, SolverMethod::ChainPcg);
        let plain = solver.solve_with(&b, SolverMethod::Cg);
        assert!(
            chain.converged,
            "chain residual {}",
            chain.relative_residual
        );
        assert!(
            chain.iterations < plain.iterations,
            "chain {} vs cg {}",
            chain.iterations,
            plain.iterations
        );
        // The path keeps a recursive chain, which solves it in one iteration.
        assert_eq!(chain.iterations, 1, "path chain-PCG iterations");

        // Image-affinity grids: the iteration counts README quotes, pinned against
        // Jacobi-PCG. Their chain is the input alone with a D⁻¹ base, so chain-PCG
        // takes Jacobi-PCG's iterations. These systems stay below the parallel
        // dot-product threshold, so the counts do not depend on the pool width.
        for (side, iters) in [(16, 99), (32, 196), (48, 297)] {
            let g = generators::image_affinity_grid(side, side, 80.0, 7);
            let solver = SddSolver::for_laplacian(g, SolverConfig::default());
            let n = solver.system().n();
            let mut b = vec![0.0; n];
            b[0] = 1.0;
            b[n - 1] = -1.0;
            let chain = solver.solve_with(&b, SolverMethod::ChainPcg);
            let jacobi = solver.solve_with(&b, SolverMethod::JacobiPcg);
            assert!(chain.converged && jacobi.converged, "image {side}x{side}");
            assert_eq!(
                (chain.iterations, jacobi.iterations),
                (iters, iters),
                "image {side}x{side}: (chain, jacobi) iterations"
            );
        }
    }

    #[test]
    fn solves_systems_with_explicit_excess() {
        let g = generators::grid2d(10, 10, 1.0);
        let excess: Vec<f64> = (0..100)
            .map(|i| if i % 7 == 0 { 0.5 } else { 0.0 })
            .collect();
        let system = GroundedLaplacian::from_graph_with_excess(g, excess);
        let solver = SddSolver::for_system(system, SolverConfig::default());
        let b: Vec<f64> = (0..100).map(|i| ((i * 13 % 29) as f64) - 14.0).collect();
        let out = solver.solve(&b);
        assert!(out.converged);
        assert!(residual(solver.system(), &out.solution, &b) < 1e-6);
    }

    #[test]
    fn solve_laplacian_returns_mean_zero_solution() {
        let g = generators::image_affinity_grid(12, 12, 30.0, 5);
        let n = g.n();
        let mut b = vec![0.0; n];
        b[0] = 1.0;
        b[n / 2] = -1.0;
        let out = solve_laplacian(&g, &b, &SolverConfig::default());
        assert!(out.converged);
        let mean: f64 = out.solution.iter().sum::<f64>() / n as f64;
        assert!(mean.abs() < 1e-8);
        // The solution satisfies L x = b up to the tolerance.
        let mut lx = vec![0.0; n];
        g.laplacian_apply_into(&out.solution, &mut lx);
        let err: f64 = lx
            .iter()
            .zip(&b)
            .map(|(a, c)| (a - c) * (a - c))
            .sum::<f64>()
            .sqrt();
        assert!(err < 1e-5, "err = {err}");
    }

    #[test]
    fn the_system_is_held_once_as_the_first_chain_level() {
        let g = generators::grid2d(12, 12, 1.0);
        let solver = SddSolver::for_laplacian(g, SolverConfig::default());
        let chain = solver.chain().expect("chain");
        assert!(std::ptr::eq(solver.system(), &chain.levels()[0]));
    }

    #[test]
    fn solver_from_sdd_matrix() {
        let g = generators::cycle(40, 2.0);
        let l = CsrMatrix::laplacian(&g);
        let solver = SddSolver::for_sdd_matrix(&l, SolverConfig::default()).expect("SDD");
        let n = 40;
        let mut b = vec![0.0; n];
        b[0] = 1.0;
        b[20] = -1.0;
        let out = solver.solve(&b);
        assert!(out.converged);
        // Effective resistance between antipodal cycle vertices: (20 || 20 edges of
        // resistance 0.5 each) = (10 * 10) / 20 = 5.
        let er = out.solution[0] - out.solution[20];
        assert!((er - 5.0).abs() < 1e-4, "er = {er}");
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn dimension_mismatch_panics() {
        let g = generators::path(10, 1.0);
        let solver = SddSolver::for_laplacian(g, SolverConfig::default());
        let _ = solver.solve(&[1.0, -1.0]);
    }
}
