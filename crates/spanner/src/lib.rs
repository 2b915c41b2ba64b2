//! # sgs-spanner
//!
//! Spanner constructions for the spectral-sparsification suite:
//!
//! * [`baswana_sen`] — the randomized clustering algorithm of Baswana and Sen that
//!   computes a `(2k − 1)`-spanner with `O(k · n^{1 + 1/k})` edges in expectation. With
//!   `k = ⌈log₂ n⌉` this is the `O(n log n)`-edge, `≤ 2 log n`-stretch spanner invoked by
//!   Theorems 1 and 2 of the paper. Every round runs on the ambient rayon pool, the
//!   CRCW PRAM adaptation of Corollary 2; a 1-thread pool is the sequential run.
//! * [`bundle`] — t-bundle spanners (Definition 1): `H = H₁ + … + H_t` where `H_i` is a
//!   spanner of `G − Σ_{j<i} H_j`. The bundle certifies the effective-resistance upper
//!   bound of Lemma 1, which experiments E3 validates directly.
//! * [`partition`] — density-aware vertex blocks for the parallel sweeps.
//! * [`atomic`] — atomic views over flag and id arrays for conflict-free commits.
//!
//! All constructions return *edge ids into the input graph*, so downstream code (the
//! sampler of Algorithm 1) can cheaply partition the input into "bundle" and
//! "off-bundle" edges.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod atomic;
pub mod baswana_sen;
pub mod bundle;
pub mod partition;

pub use atomic::{AtomicFlags, AtomicIds};
pub use baswana_sen::{
    baswana_sen_on_view, baswana_sen_spanner, EdgeView, SpannerConfig, SpannerEngine,
    SpannerResult, ViewCsr,
};
pub use bundle::{t_bundle, t_bundle_on_engine, BundleConfig, BundleResult};
pub use partition::BlockPartition;

/// Default stretch target `2 ⌈log₂ n⌉` used when the caller does not override `k`.
///
/// The paper calls a `log n`-spanner any subgraph with stretch at most `2 log n`
/// (Section 2); the Baswana–Sen construction with `k = ⌈log₂ n⌉` satisfies that
/// definition.
pub fn default_stretch_bound(n: usize) -> f64 {
    2.0 * (n.max(2) as f64).log2().ceil()
}
