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
//! * [`laplacian`] — assembly of graph Laplacians and SDD checks.
//! * [`dense`] — small dense matrices with Cholesky factorization, used as ground truth
//!   on tiny instances.
//! * [`cg`] — conjugate gradient and preconditioned conjugate gradient solvers.
//! * [`eigen`] — power iteration and Lanczos bounds for extreme eigenvalues.
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

pub use cg::{
    cg_solve, cg_solve_in, pcg_solve, pcg_solve_in, CgConfig, CgOutcome, CgScratch, CgStats,
    Preconditioner,
};
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use laplacian::{is_sdd, laplacian_of};
pub use resistance::{
    approx_effective_resistances, approx_effective_resistances_in, exact_effective_resistances,
    ResistanceOptions, ResistanceScratch,
};
pub use spectral::{approximation_bounds, relative_condition_number, SpectralBounds};

/// Commonly used items for downstream crates.
pub mod prelude {
    pub use crate::cg::{
        cg_solve, pcg_solve, CgConfig, CgOutcome, JacobiPreconditioner, Preconditioner,
    };
    pub use crate::csr::CsrMatrix;
    pub use crate::dense::DenseMatrix;
    pub use crate::eigen::{power_method, smallest_nonzero_eigenvalue};
    pub use crate::laplacian::{is_sdd, laplacian_of};
    pub use crate::resistance::{approx_effective_resistances, exact_effective_resistances};
    pub use crate::spectral::{approximation_bounds, relative_condition_number, SpectralBounds};
    pub use crate::vector;
}
