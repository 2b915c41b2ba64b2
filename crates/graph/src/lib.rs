//! # sgs-graph
//!
//! Weighted undirected graph substrate for the spectral-sparsification suite that
//! reproduces Koutis, *Simple Parallel and Distributed Algorithms for Spectral Graph
//! Sparsification* (SPAA 2014).
//!
//! The crate provides:
//!
//! * [`Graph`] — an edge-list representation of a weighted undirected multigraph with
//!   positive weights, the common currency of every algorithm in the workspace.
//! * [`Adjacency`] — a CSR-style adjacency view built from a [`Graph`], used by
//!   traversals, spanner constructions and the distributed simulator.
//! * [`generators`] — reproducible graph families (grids, Erdős–Rényi, random regular,
//!   preferential attachment, image affinity grids, …) used by examples, tests and the
//!   benchmark harness.
//! * [`ops`] — graph algebra (`G₁ + G₂`, `a·G`, coalesced union) matching the paper's
//!   notation in Section 2.
//! * [`stretch`] — stretch computations `st_H(e)` (Section 2, "Stretch") needed to verify
//!   the spanner guarantees of Theorems 1 and 2.
//! * [`connectivity`], [`metrics`], [`io`] — supporting utilities. [`io`] includes
//!   [`io::EdgeBatchReader`], a chunked edge-list reader with `O(batch)` resident
//!   memory that feeds the semi-streaming sparsifier (`sgs-stream`), and
//!   [`io::BinEdgeReader`] / [`io::BinEdgeWriter`], the bit-exact binary block format
//!   that backs its out-of-core spill store.
//!
//! All randomized constructions take an explicit seed so that parallel runs are
//! reproducible.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
pub mod connectivity;
pub mod csr;
pub mod error;
pub mod generators;
pub mod graph;
pub mod io;
pub mod metrics;
pub mod ops;
pub mod stretch;
mod traversal;

pub use builder::GraphBuilder;
pub use csr::Adjacency;
pub use error::{GraphError, Result};
pub use generators::splitmix64;
pub use graph::{Edge, EdgeId, Graph, NodeId};
