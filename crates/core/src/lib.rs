//! # sgs-core
//!
//! The paper's primary contribution: spectral graph sparsification by iterated spanner
//! computation and uniform sampling.
//!
//! * [`sample`] — `PARALLELSAMPLE` (Algorithm 1): build a t-bundle spanner, keep it, and
//!   keep every off-bundle edge independently with probability 1/4 at weight `4 w_e`.
//! * [`sparsify`] — `PARALLELSPARSIFY` (Algorithm 2): iterate `PARALLELSAMPLE`
//!   `⌈log ρ⌉` times with per-round parameter `ε / ⌈log ρ⌉` to cut the edge count by a
//!   factor of `ρ` while staying a `(1 ± ε)` spectral approximation (Theorem 5).
//!   [`parallel_sparsify_with`] runs the same driver over any t-bundle builder.
//! * [`engine`] — a re-entrant [`SparsifyEngine`] that reuses the spanner engine's
//!   `O(m)` scratch across calls, for batch pipelines (the `sgs-stream` merge-and-reduce
//!   tree) that sparsify many graphs in sequence.
//! * [`leverage`] — the off-bundle [`SamplingPolicy`], selected via
//!   [`SparsifyConfig::with_sampling`]: the paper's uniform coin or Spielman–Srivastava
//!   leverage-weighted sampling. The same leverage kernel drives [`resparsify_er`], a
//!   standalone ER-weighted final pass that resamples a finished sparsifier down
//!   toward `O(n log n / ε²)` edges.
//! * [`config`], [`stats`], [`verify`] — configuration, work accounting, and spectral
//!   verification helpers shared by examples, tests and the benchmark harness.
//!
//! ## Quickstart
//!
//! ```
//! use sgs_graph::generators;
//! use sgs_core::{parallel_sparsify, BundleSizing, SparsifyConfig};
//!
//! let g = generators::erdos_renyi(400, 0.25, 1.0, 7);
//! let cfg = SparsifyConfig::new(0.5, 4.0)
//!     .with_bundle_sizing(BundleSizing::Fixed(4))
//!     .with_seed(1);
//! let out = parallel_sparsify(&g, &cfg);
//! assert!(out.sparsifier.m() < g.m());
//! assert_eq!(out.sparsifier.n(), g.n());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod engine;
pub mod leverage;
pub mod sample;
pub mod sparsify;
pub mod stats;
pub mod verify;

pub use config::{BundleSizing, SparsifyConfig};
pub use engine::SparsifyEngine;
pub use leverage::{resparsify_er, ErPassConfig, ErPassOutput, SamplingPolicy};
pub use sample::{edge_coin, parallel_sample, parallel_sample_with, sample_uniform, SampleOutput};
pub use sparsify::{parallel_sparsify, parallel_sparsify_with, SparsifyOutput};
pub use stats::WorkStats;
pub use verify::{verify_sparsifier, VerificationReport};

/// Commonly used items for downstream crates and examples.
pub mod prelude {
    pub use crate::config::{BundleSizing, SparsifyConfig};
    pub use crate::engine::SparsifyEngine;
    pub use crate::leverage::{resparsify_er, ErPassConfig, ErPassOutput, SamplingPolicy};
    pub use crate::sample::{parallel_sample, SampleOutput};
    pub use crate::sparsify::{parallel_sparsify, SparsifyOutput};
    pub use crate::stats::WorkStats;
    pub use crate::verify::{verify_sparsifier, VerificationReport};
}
