//! # sgs-linalg
//!
//! Sparse linear algebra for the spectral-sparsification suite.
//!
//! The crate provides everything needed to *verify* the paper's spectral claims and to
//! build the SDD solver of Section 4:
//!
//! * [`vector`] — dense vector kernels (dot products, norms, axpy, projection against
//!   the all-ones vector), parallelised with rayon where it pays off.
//! * [`csr`] — a compressed-sparse-row matrix with parallel matrix–vector products.
//! * [`laplacian`] — SDD checks and the graph behind a Laplacian-like SDD matrix.
//! * [`dense`] — small dense matrices with Cholesky factorization, used as ground truth
//!   on tiny instances.
//! * [`cg`] — conjugate gradient and preconditioned conjugate gradient solvers.
//! * [`eigen`] — power iteration (with CG inner solves for `λ_min`) for extreme
//!   eigenvalues; its answers are inner estimates of the true extremes.
//! * [`spectral`] — certification of `(1 ± ε)` spectral approximations between two
//!   graphs via generalized power iteration on the pencil `(L_G, L_H)`.
//! * [`resistance`] — exact and approximate effective resistances, including the
//!   Spielman–Srivastava random-projection estimator used by the baseline sparsifier.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cg;
pub mod csr;
pub mod dense;
pub mod eigen;
pub mod laplacian;
pub mod resistance;
pub mod spectral;
pub mod vector;

pub use cg::{pcg_solve_in, CgConfig, CgScratch, CgStats, Preconditioner};
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use laplacian::is_sdd;
pub use resistance::{
    approx_effective_resistances, approx_effective_resistances_in, exact_effective_resistances,
    ResistanceOptions, ResistanceScratch,
};
pub use spectral::{approximation_bounds, SpectralBounds};
