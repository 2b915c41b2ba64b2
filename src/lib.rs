//! # spectral-sparsify
//!
//! Facade crate for the reproduction of Ioannis Koutis, *Simple Parallel and Distributed
//! Algorithms for Spectral Graph Sparsification* (SPAA 2014).
//!
//! The actual functionality lives in the workspace member crates, re-exported here so
//! that examples and downstream users need a single dependency:
//!
//! * [`graph`] — weighted graphs, generators, stretch, graph algebra ([`sgs_graph`]).
//! * [`linalg`] — sparse matrices, CG/PCG, power-iteration eigenvalue estimates with
//!   CG inner solves, effective resistances ([`sgs_linalg`]).
//! * [`spanner`] — Baswana–Sen spanners and t-bundle spanners ([`sgs_spanner`]).
//! * [`sparsify`] — PARALLELSAMPLE / PARALLELSPARSIFY and the ER-weighted final pass
//!   ([`sgs_core`]).
//! * [`stream`] — the bounded-memory semi-streaming sparsifier (merge-and-reduce over
//!   edge batches, [`sgs_stream`]). Its one node store, [`stream::SpillStore`], keeps
//!   the merge tree resident by default and, given a [`stream::SpillConfig`], pages
//!   cold nodes to disk under a resident-byte budget.
//! * [`distributed`] — the synchronous CONGEST-style simulator ([`sgs_distributed`]).
//! * [`solver`] — the Peng–Spielman-style SDD solver built on the sparsifier
//!   ([`sgs_solver`]). A [`stream::StreamOutput`]'s sparsifier goes into
//!   [`solver::SddSolver::for_laplacian`] by value, so a spilled stream feeds the chain
//!   without re-materialising the input graph.
//! * [`obs`] — structured tracing + metrics across every engine ([`sgs_obs`]):
//!   install a sink, run any pipeline, export a JSONL event log or a Chrome
//!   `trace_event` JSON, or sum span wall clock per name with [`obs::span_totals`].
//!
//! ## Quickstart
//!
//! ```
//! use spectral_sparsify::prelude::*;
//!
//! let g = generators::erdos_renyi(300, 0.3, 1.0, 7);
//! let cfg = SparsifyConfig::new(0.5, 4.0)
//!     .with_bundle_sizing(BundleSizing::Fixed(4))
//!     .with_seed(1);
//! let result = parallel_sparsify(&g, &cfg);
//! assert!(result.sparsifier.m() < g.m());
//! ```

#![warn(missing_docs)]

pub use sgs_core as sparsify;
pub use sgs_distributed as distributed;
pub use sgs_graph as graph;
pub use sgs_linalg as linalg;
pub use sgs_obs as obs;
pub use sgs_solver as solver;
pub use sgs_spanner as spanner;
pub use sgs_stream as stream;

/// Version string of the reproduction suite.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// One-import surface for examples, tests and downstream users: the graph type and
/// generators, the one-shot and engine sparsifier entry points with their configs and
/// sampling policy, the ER final pass, and the streaming engine.
///
/// ```
/// use spectral_sparsify::prelude::*;
///
/// let g = generators::erdos_renyi(200, 0.3, 1.0, 1);
/// let mut engine = SparsifyEngine::new();
/// let cfg = SparsifyConfig::new(0.5, 2.0)
///     .with_bundle_sizing(BundleSizing::Fixed(3))
///     .with_sampling(SamplingPolicy::effective_resistance(4, 1e-3));
/// let out = engine.sample(&g, &cfg);
/// assert!(out.sparsifier.m() <= g.m());
/// ```
pub mod prelude {
    pub use sgs_core::{
        edge_coin, parallel_sample, parallel_sparsify, resparsify_er, BundleSizing, ErPassConfig,
        ErPassOutput, SampleOutput, SamplingPolicy, SparsifyConfig, SparsifyEngine, SparsifyOutput,
    };
    pub use sgs_graph::{generators, Edge, Graph};
    pub use sgs_stream::{
        FinalPassConfig, SpillConfig, SpillLedger, StreamConfig, StreamOutput, StreamSparsifier,
    };
}
