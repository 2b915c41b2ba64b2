//! # sgs-distributed
//!
//! A synchronous message-passing (CONGEST-style) simulator and the distributed versions
//! of the paper's algorithms.
//!
//! The paper's distributed claims (Theorem 2, Corollary 3, and the distributed half of
//! Theorems 4 and 5) are stated in the synchronous distributed model: computation
//! proceeds in lock-step rounds, in each round every vertex may send one message of
//! `O(log n)` bits along each incident edge, and the measures of interest are the number
//! of rounds and the total communication. Reproducing those measures does not require a
//! physical cluster — it requires an execution environment that *enforces* the
//! communication discipline and *counts* rounds, messages and bits. That is what
//! [`network::SyncNetwork`] provides.
//!
//! * [`network`] — the simulator: flat CSR mailboxes, lock-step round execution with a
//!   rayon-parallel vertex-program step API ([`network::SyncNetwork::par_step`]), and
//!   [`network::NetworkMetrics`] accounting (counted at delivery).
//! * [`spanner`] — the distributed Baswana–Sen spanner (Theorem 2): cluster sampling is
//!   propagated along cluster trees, so an iteration with cluster radius `i` takes
//!   `O(i)` rounds and the whole construction `O(log² n)` rounds with `O(m log n)`
//!   messages of `O(log n)` bits.
//! * [`sparsify`] — the distributed `PARALLELSAMPLE` / `PARALLELSPARSIFY` (Corollary 3 +
//!   Theorem 5): `sgs-core`'s driver over bundles built by iterating the distributed
//!   spanner on residual edges; the uniform coin is local and costs no communication.
//! * [`faults`] — deterministic fault injection ([`faults::FaultPlan`]: seeded message
//!   loss/duplication/delay coins, link outages, vertex crash windows) and a reliable
//!   ack/retransmit delivery layer ([`faults::ReliableNet`]) with a bounded retry
//!   budget, so the degradation of the construction under unreliable networks is
//!   measurable and bit-for-bit replayable.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod faults;
pub mod network;
pub mod spanner;
pub mod sparsify;

pub use faults::{FaultConfig, FaultPlan, ReliabilityConfig, ReliableNet};
pub use network::{NetworkMetrics, SyncNetwork};
pub use spanner::{distributed_spanner, DistSpannerConfig, DistSpannerResult};
pub use sparsify::{
    distributed_sample, distributed_sample_with_faults, distributed_sparsify,
    distributed_sparsify_with_faults, DistSparsifyResult,
};
