//! # sgs-solver
//!
//! A parallel SDD linear-system solver in the style of Section 4 of the paper: the
//! Peng–Spielman approximate-inverse-chain framework with `PARALLELSPARSIFY` plugged in
//! as the sparsification routine (Theorem 6).
//!
//! * [`sdd`] — representation of SDD systems as *grounded Laplacians*: a weighted graph
//!   plus a non-negative diagonal excess, stored with its full diagonal. General SDD
//!   matrices with non-positive off-diagonals map onto this form directly; singular
//!   Laplacian systems are grounded at one vertex, which pins the solution
//!   representative with `x₀ = 0`. Every level of the chain is one of these.
//! * [`chain`] — the approximate inverse chain `{M₁, M₂, …, M_d}`, whose first level is
//!   the system itself: each level reduces `M = D − A` to `D − A D⁻¹ A` (whose graph is
//!   a union of per-vertex cliques, built sparsely), then sparsifies that graph with
//!   `PARALLELSPARSIFY`. The chain applies `M⁻¹` approximately via the Peng–Spielman
//!   identity `(D − A)⁻¹ = ½ [D⁻¹ + (I + D⁻¹A)(D − A D⁻¹ A)⁻¹(I + A D⁻¹)]`.
//! * [`solve`] — the user-facing [`solve::SddSolver`]: preconditioned conjugate gradient
//!   on the original system with the chain as preconditioner, plus reference solvers
//!   (plain CG, Jacobi-PCG) whose iteration counts the tests compare against the chain's.
//!   The solver holds only its chain; [`solve::SddSolver::system`] is the chain's first
//!   level.
//!
//! A streamed graph reaches the solver like any other: its sparsifier is a [`Graph`],
//! so `SddSolver::for_laplacian(output.sparsifier, config)` grounds and chains it
//! without materialising the streamed graph. The chain's
//! [`chain::ChainPreconditioner`] (via [`chain::Chain::preconditioner`]) applies the
//! approximate inverse through a reusable [`chain::ChainScratch`], keeping the PCG
//! outer loop allocation-free.
//!
//! [`Graph`]: sgs_graph::Graph

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chain;
pub mod sdd;
pub mod solve;

pub use chain::{Chain, ChainConfig, ChainPreconditioner, ChainScratch, ChainStop};
pub use sdd::GroundedLaplacian;
pub use solve::{SddSolver, SolveOutcome, SolveStats, SolverConfig, SolverMethod};
