//! The user-facing SDD solver (Theorem 6).
//!
//! [`SddSolver`] builds an approximate inverse chain once and then answers solves with
//! preconditioned conjugate gradient, using the chain as the preconditioner. Reference
//! methods (plain CG, Jacobi-preconditioned CG) are provided for comparing iteration
//! counts and work as the condition number grows; the unit tests pin those counts.

use sgs_graph::Graph;
use sgs_linalg::cg::{cg_solve, pcg_solve, CgConfig, JacobiPreconditioner};
use sgs_linalg::csr::CsrMatrix;
use sgs_linalg::vector;

use sgs_stream::{StreamOutput, StreamStats};

use crate::chain::{Chain, ChainConfig, StreamChain};
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
    /// Whether the tolerance was met.
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
    /// Per chain level: edges of that level × preconditioner applies — the
    /// chain-work decomposition of the solve (empty for reference methods).
    pub per_level_work: Vec<u64>,
}

/// A solver for SDD systems `M x = b` where `M = L(G) + diag(excess)`.
#[derive(Debug)]
pub struct SddSolver {
    system: GroundedLaplacian,
    chain: Option<Chain>,
    config: SolverConfig,
}

impl SddSolver {
    /// Builds a solver (and its chain) for a Laplacian system given by a graph. The
    /// returned solutions are the representatives that are zero at the grounded vertex.
    pub fn for_laplacian(graph: Graph, config: SolverConfig) -> Self {
        let system = GroundedLaplacian::from_graph(graph);
        Self::for_system(system, config)
    }

    /// Builds a solver for an explicit grounded-Laplacian system.
    pub fn for_system(system: GroundedLaplacian, config: SolverConfig) -> Self {
        let chain = Some(Chain::build(&system, &config.chain));
        SddSolver {
            system,
            chain,
            config,
        }
    }

    /// Builds a solver from an SDD matrix with non-positive off-diagonals. Returns
    /// `None` if the matrix is not of that form.
    pub fn for_sdd_matrix(matrix: &CsrMatrix, config: SolverConfig) -> Option<Self> {
        let system = GroundedLaplacian::from_sdd_matrix(matrix)?;
        Some(Self::for_system(system, config))
    }

    /// Builds a solver **directly from a streaming sparsification run** — the
    /// out-of-core path: the streamed graph is never materialised, only its sparsifier
    /// is grounded and chained. Returns the solver and the stream's accounting
    /// (spill ledger, peak resident bytes, ε spent).
    ///
    /// The solver answers solves against the *sparsifier's* Laplacian, which is a
    /// `(1 ± ε_total)` spectral proxy for the streamed graph's — solutions agree with
    /// the original system's up to the stream's accuracy budget.
    pub fn for_stream(output: StreamOutput, config: SolverConfig) -> (Self, StreamStats) {
        let StreamChain {
            chain,
            system,
            stream_stats,
        } = Chain::build_from_stream(output, &config.chain);
        (
            SddSolver {
                system,
                chain: Some(chain),
                config,
            },
            stream_stats,
        )
    }

    /// The underlying grounded system.
    pub fn system(&self) -> &GroundedLaplacian {
        &self.system
    }

    /// The chain built at construction time.
    pub fn chain(&self) -> Option<&Chain> {
        self.chain.as_ref()
    }

    /// Solves `M x = b` with the requested method.
    ///
    /// For grounded pure-Laplacian systems the right-hand side should be compatible
    /// (sum to zero per component); the solution returned is the representative that is
    /// zero at the grounded vertices.
    pub fn solve_with(&self, b: &[f64], method: SolverMethod) -> SolveOutcome {
        assert_eq!(
            b.len(),
            self.system.n(),
            "right-hand side has wrong dimension"
        );
        let cg_cfg = CgConfig {
            tolerance: self.config.tolerance,
            max_iterations: self.config.max_iterations,
            // The grounded operator is PD; no null-space projection is needed.
            project_ones: false,
        };
        // The solver is the sequential top-level PCG caller, so it opts into the
        // per-iteration residual trace; parallel inner solves (JL resistance
        // estimation) never enter a scope and stay silent.
        let solve_span = sgs_obs::span!("solver.solve", n = self.system.n());
        let scope = sgs_obs::trace_scope();
        let (outcome, chain_depth, chain_edges, applies, per_level_work) = match method {
            SolverMethod::ChainPcg => {
                let chain = self.chain.as_ref().expect("chain built at construction");
                // The re-entrant preconditioner reuses one scratch across all PCG
                // iterations (bit-identical to applying the chain directly).
                let pre = chain.preconditioner();
                let outcome = pcg_solve(&self.system, &pre, b, &cg_cfg);
                let applies = pre.applies();
                let per_level_work: Vec<u64> = chain
                    .levels()
                    .iter()
                    .map(|l| l.graph.m() as u64 * applies)
                    .collect();
                (
                    outcome,
                    chain.depth(),
                    chain.total_edges(),
                    applies,
                    per_level_work,
                )
            }
            SolverMethod::JacobiPcg => {
                let pre = JacobiPreconditioner::from_diagonal(&self.system.diagonal());
                (
                    pcg_solve(&self.system, &pre, b, &cg_cfg),
                    0,
                    0,
                    0,
                    Vec::new(),
                )
            }
            SolverMethod::Cg => (cg_solve(&self.system, b, &cg_cfg), 0, 0, 0, Vec::new()),
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
            solution: outcome.solution,
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

    fn residual(system: &GroundedLaplacian, x: &[f64], b: &[f64]) -> f64 {
        let mx = system.apply(x);
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
        // Jacobi-PCG. These systems stay below the parallel dot-product threshold, so
        // the counts do not depend on the pool width.
        for (side, chain_iters, jacobi_iters) in [(16, 28, 99), (32, 55, 196), (48, 83, 297)] {
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
                (chain_iters, jacobi_iters),
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
        let lx = g.laplacian_apply(&out.solution);
        let err: f64 = lx
            .iter()
            .zip(&b)
            .map(|(a, c)| (a - c) * (a - c))
            .sum::<f64>()
            .sqrt();
        assert!(err < 1e-5, "err = {err}");
    }

    #[test]
    fn for_stream_solves_against_the_sparsifier() {
        use sgs_stream::{SpillConfig, StreamConfig, StreamSparsifier};
        let g = generators::erdos_renyi(200, 0.15, 1.0, 17);
        let stream_cfg = StreamConfig::new(0.5, g.m() / 2)
            .with_seed(11)
            .with_spill(SpillConfig::new(g.m()));
        let mut s = StreamSparsifier::new(g.n(), stream_cfg);
        for batch in g.edges().chunks(997) {
            s.ingest_batch(batch).unwrap();
        }
        let (solver, stream_stats) = SddSolver::for_stream(s.finish(), SolverConfig::default());
        assert!(stream_stats.edges_ingested == g.m() as u64);
        assert!(
            stream_stats.spill.spilled_nodes > 0,
            "the stream must spill"
        );
        let n = solver.system().n();
        let mut b = vec![0.0; n];
        b[3] = 1.0;
        b[n - 4] = -1.0;
        let out = solver.solve(&b);
        assert!(out.converged, "residual {}", out.relative_residual);
        // Converged against the sparsifier's system (the stream's proxy)...
        assert!(residual(solver.system(), &out.solution, &b) < 1e-6);
        // ...which is a spectral proxy of the original: the exact solution of the
        // original system has comparable energy.
        let orig = SddSolver::for_laplacian(g, SolverConfig::default());
        let exact = orig.solve(&b);
        let e1 = vector::dot(&b, &out.solution);
        let e2 = vector::dot(&b, &exact.solution);
        assert!(e1 > 0.0 && e2 > 0.0);
        assert!(
            (e1 / e2 - 1.0).abs() < 0.75,
            "sparsifier solve energy drifted: {e1} vs {e2}"
        );
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
