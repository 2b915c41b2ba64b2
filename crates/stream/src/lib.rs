//! # sgs-stream
//!
//! Bounded-memory **semi-streaming spectral sparsification**: ingest a graph as an
//! arbitrary sequence of edge batches and produce a `(1 ± ε_total)` spectral
//! sparsifier while keeping at most a configured number of edges resident.
//!
//! The engine is a *merge-and-reduce tree* over `PARALLELSPARSIFY` (Algorithm 2 of the
//! paper). The composition fact it leans on is the one the paper itself iterates
//! across rounds — a `(1 ± ε₂)` sparsifier of a union of `(1 ± ε₁)` sparsifiers is a
//! `(1 ± ε₁)(1 ± ε₂)` sparsifier of the union — applied across *slices of the edge
//! stream*: raw edges are buffered into leaves, each leaf is sparsified, and `k`
//! same-depth sparsifiers are repeatedly unioned in place
//! ([`sgs_graph::ops::coalesce_in_place`], duplicate weights accumulated) and
//! resparsified, with a geometric ε schedule (`ε_j = ε_total (1−r) r^j`,
//! `Σ ε_j = ε_total`) so the end-to-end guarantee holds at any tree depth. Input size
//! is thereby decoupled from resident memory: the stream may be far larger than RAM.
//! Edges arrive through [`StreamSparsifier::ingest_batch`]; a file is streamed by
//! looping `next_batch` of the chunked [`sgs_graph::io::EdgeBatchReader`] (or
//! [`sgs_graph::io::BinEdgeReader`]) into it.
//!
//! Fixed-seed output is bitwise identical across rayon thread counts **and** across
//! batch boundaries (leaves fire on stream position, not on `ingest` call shape).
//!
//! Pending sparsifiers live in one node store, [`store::SpillStore`]. By default it
//! keeps every node resident; [`StreamConfig::with_spill`] gives it a byte budget,
//! which it holds by writing cold deep tree nodes to disk in `sgs_graph::io`'s
//! bit-exact binary format and reading them back only at reduction time. Spill
//! placement is a pure function of stream position, so fixed-seed output stays
//! bitwise identical with and without a spill budget too — only the
//! [`SpillLedger`] columns of [`StreamStats`] differ.
//!
//! ```
//! use sgs_graph::generators;
//! use sgs_stream::{StreamConfig, StreamSparsifier};
//! use sgs_core::BundleSizing;
//!
//! let g = generators::erdos_renyi(400, 0.4, 1.0, 7); // ~32k edges
//! let budget = g.m() / 2;                            // resident-edge budget
//! let cfg = StreamConfig::new(0.75, budget)
//!     .with_bundle_sizing(BundleSizing::Fixed(2))
//!     .with_seed(1);
//!
//! let mut stream = StreamSparsifier::new(g.n(), cfg);
//! for batch in g.edges().chunks(1000) {              // any batching works
//!     stream.ingest_batch(batch).unwrap();
//! }
//! let out = stream.finish();
//! assert!(out.sparsifier.m() < g.m() / 2);
//! assert!(out.stats.peak_resident_edges <= budget + 2000);
//! assert!(out.stats.epsilon_spent() <= 0.75);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod sparsifier;
pub mod stats;
pub mod store;

pub use config::{FinalPassConfig, StreamConfig};
pub use sparsifier::{StreamOutput, StreamSparsifier};
pub use stats::{ErPassStats, LevelStats, SpillLedger, StreamStats};
pub use store::{NodeHandle, SpillConfig, SpillStore};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::EDGE_BYTES;
    use sgs_core::{parallel_sparsify, BundleSizing};
    use sgs_graph::{generators, Edge, Graph};

    fn cfg(budget: usize, seed: u64) -> StreamConfig {
        StreamConfig::new(0.75, budget)
            .with_bundle_sizing(BundleSizing::Fixed(3))
            .with_seed(seed)
    }

    fn stream_in_batches(g: &Graph, c: &StreamConfig, batches: usize) -> StreamOutput {
        let mut s = StreamSparsifier::new(g.n(), c.clone());
        let chunk = g.m().div_ceil(batches.max(1)).max(1);
        for batch in g.edges().chunks(chunk) {
            s.ingest_batch(batch).unwrap();
        }
        s.finish()
    }

    #[test]
    fn output_is_independent_of_batch_chop() {
        let g = generators::erdos_renyi(300, 0.3, 1.0, 11);
        let c = cfg(g.m() / 3, 5);
        let one = stream_in_batches(&g, &c, 1);
        for batches in [2, 7, 16, 333] {
            let many = stream_in_batches(&g, &c, batches);
            assert_eq!(
                one.sparsifier.edges(),
                many.sparsifier.edges(),
                "{batches} batches changed the output"
            );
            // Only the batch census may differ; the tree accounting must match.
            assert_eq!(one.stats.leaves, many.stats.leaves);
            assert_eq!(one.stats.levels, many.stats.levels);
            assert_eq!(
                one.stats.peak_resident_edges,
                many.stats.peak_resident_edges
            );
            assert_eq!(one.stats.forced_reductions, many.stats.forced_reductions);
        }
    }

    #[test]
    fn stays_within_budget_plus_one_batch() {
        // Dense workload with the budget comfortably above the sparsifier floor
        // (t · n log n-ish): the census must never exceed budget + one ingest batch,
        // and the buffer alone must always fit in half the budget.
        let g = generators::erdos_renyi(300, 0.5, 1.0, 3); // m ≈ 22k
        let budget = g.m() / 2;
        let c = StreamConfig::new(0.75, budget)
            .with_bundle_sizing(BundleSizing::Fixed(2))
            .with_seed(9);
        let batch = g.m() / 16;
        let mut s = StreamSparsifier::new(g.n(), c);
        for chunk in g.edges().chunks(batch.max(1)) {
            s.ingest_batch(chunk).unwrap();
            assert!(
                s.resident_edges() <= budget + batch,
                "resident census {} exceeds budget {budget} + batch {batch}",
                s.resident_edges()
            );
        }
        let out = s.finish();
        assert!(
            out.stats.peak_resident_edges <= budget + batch,
            "peak {} exceeds budget {budget} + batch {batch}",
            out.stats.peak_resident_edges
        );
        assert!(out.stats.peak_resident_edges > 0);
        assert!(out.sparsifier.m() < g.m() / 2);
    }

    #[test]
    fn unbounded_budget_reduces_exactly_once() {
        // With the whole stream inside one leaf, the engine is PARALLELSPARSIFY at
        // ε_0 on the (identically ordered) input — pending tree machinery never runs.
        let g = generators::erdos_renyi(250, 0.3, 1.0, 21);
        let c = cfg(10 * g.m(), 4);
        let out = stream_in_batches(&g, &c, 5);
        assert_eq!(out.stats.leaves, 1);
        assert_eq!(out.stats.forced_reductions, 0);
        assert_eq!(out.stats.final_depth, 1);
        let expected = parallel_sparsify(&g, &c.reduction_config(0, 0));
        assert_eq!(out.sparsifier.edges(), expected.sparsifier.edges());
    }

    #[test]
    fn epsilon_ledger_never_overspends() {
        let g = generators::erdos_renyi(300, 0.4, 1.0, 17);
        for budget_div in [2, 4, 8] {
            let c = cfg(g.m() / budget_div, 2);
            let out = stream_in_batches(&g, &c, 12);
            let spent = out.stats.epsilon_spent();
            assert!(
                spent <= 0.75 + 1e-12,
                "budget/{budget_div}: ε ledger overspent: {spent}"
            );
            assert!(out.stats.final_depth >= 1);
            // Every level that ran has a consistent in/out ledger. (A level may have
            // zero sampling work: reductions whose input was already below the
            // early-stop threshold are identity passes and spend no ε.)
            for l in &out.stats.levels {
                if l.reductions > 0 {
                    assert!(l.edges_in >= l.edges_out);
                }
            }
        }
    }

    #[test]
    fn ingest_validates_and_batches_atomically() {
        let mut s = StreamSparsifier::new(5, cfg(100, 1));
        // Invalid batch: nothing lands.
        let bad = [Edge::new(0, 1, 1.0), Edge::new(0, 9, 1.0)];
        assert!(s.ingest_batch(&bad).is_err());
        assert_eq!(s.stats().edges_ingested, 0);
        assert_eq!(s.resident_edges(), 0);
        // Self-loops and bad weights are rejected.
        assert!(s.ingest_batch(&[Edge::new(2, 2, 1.0)]).is_err());
        assert!(s.ingest_batch(&[Edge::new(0, 1, -1.0)]).is_err());
        assert!(s.ingest_batch(&[Edge::new(0, 1, f64::NAN)]).is_err());
        // Valid edges land.
        s.ingest_batch(&[Edge::new(0, 1, 1.0), Edge::new(1, 2, 2.0)])
            .unwrap();
        assert_eq!(s.stats().edges_ingested, 2);
        let out = s.finish();
        assert_eq!(out.sparsifier.m(), 2);
        // Only the successful batch counts.
        assert_eq!(out.stats.batches_ingested, 1);
    }

    /// Failure-atomicity contract: a batch that fails validation changes nothing,
    /// and the sparsifier stays usable.
    #[test]
    fn failed_validation_is_atomic() {
        // The exact state (stats included) survives the error and identical input
        // afterwards yields the unperturbed output.
        let g = generators::erdos_renyi(120, 0.3, 1.0, 19);
        let c = cfg(g.m() / 3, 7);
        let clean = stream_in_batches(&g, &c, 4);
        let mut s = StreamSparsifier::new(g.n(), c.clone());
        let chunk = g.m().div_ceil(4);
        for (i, batch) in g.edges().chunks(chunk).enumerate() {
            if i == 2 {
                let mut bad = batch.to_vec();
                bad.push(Edge::new(0, g.n() + 5, 1.0));
                let before = (s.resident_edges(), s.stats().clone());
                assert!(s.ingest_batch(&bad).is_err());
                assert_eq!(before.0, s.resident_edges());
                assert_eq!(&before.1, s.stats());
                assert!(s.poisoned().is_none());
            }
            s.ingest_batch(batch).unwrap();
        }
        assert_eq!(clean.sparsifier.edges(), s.finish().sparsifier.edges());
    }

    /// A storage failure strikes after part of a batch was applied, so it poisons
    /// the sparsifier: every later call names the original failure.
    #[test]
    fn storage_failure_poisons_the_stream() {
        use sgs_graph::GraphError;

        // Spill files go under a regular file, so the first spill cannot create
        // its directory.
        let base = std::env::temp_dir().join(format!("sgs_poison_test_{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        let blocker = base.join("not-a-directory");
        std::fs::write(&blocker, b"").unwrap();
        let g = generators::erdos_renyi(120, 0.3, 1.0, 19);
        let spill = SpillConfig::new(EDGE_BYTES).with_directory(blocker.join("spill"));
        let mut s = StreamSparsifier::new(g.n(), cfg(g.m() / 3, 7).with_spill(spill));
        let err = g
            .edges()
            .chunks(g.m().div_ceil(8))
            .find_map(|batch| s.ingest_batch(batch).err())
            .expect("the first spill fails");
        assert!(matches!(err, GraphError::Io(_)), "{err:?}");
        let why = s.poisoned().expect("a storage failure poisons").to_string();
        assert_eq!(why, err.to_string());
        match s.ingest_batch(&[Edge::new(0, 1, 1.0)]) {
            Err(GraphError::Poisoned(msg)) => assert_eq!(msg, why),
            other => panic!("expected Poisoned, got {other:?}"),
        }
        // Finishing would return a sparsifier without the failed leaf.
        match s.try_finish() {
            Err(GraphError::Poisoned(msg)) => assert_eq!(msg, why),
            Err(other) => panic!("expected Poisoned, got {other:?}"),
            Ok(out) => panic!(
                "a poisoned stream finished with {} edges",
                out.sparsifier.m()
            ),
        }
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn empty_stream_finishes_empty() {
        let s = StreamSparsifier::new(7, cfg(100, 1));
        let out = s.finish();
        assert_eq!(out.sparsifier.n(), 7);
        assert_eq!(out.sparsifier.m(), 0);
        assert_eq!(out.stats.leaves, 0);
        assert_eq!(out.stats.final_depth, 0);
    }

    #[test]
    fn different_seeds_differ_and_same_seed_repeats() {
        let g = generators::erdos_renyi(250, 0.4, 1.0, 2);
        let a = stream_in_batches(&g, &cfg(g.m() / 4, 5), 8);
        let b = stream_in_batches(&g, &cfg(g.m() / 4, 5), 8);
        let d = stream_in_batches(&g, &cfg(g.m() / 4, 6), 8);
        assert_eq!(a.sparsifier.edges(), b.sparsifier.edges());
        assert_ne!(a.sparsifier.edges(), d.sparsifier.edges());
    }

    #[test]
    fn spectral_quality_is_preserved_end_to_end() {
        use sgs_linalg::spectral::{approximation_bounds, CertifyOptions};
        // Dense: ~22k edges. Budget headroom (m/2) and a gentle keep probability: the
        // quality regime. Tighter budgets force deeper resparsification chains whose
        // error compounds per level — that frontier is pinned (loosely) in the
        // golden/acceptance suites of tests/golden_stream.rs, not asserted here.
        let g = generators::erdos_renyi(300, 0.5, 1.0, 19);
        let c = StreamConfig::new(0.75, g.m() / 2)
            .with_bundle_sizing(BundleSizing::Fixed(2))
            .with_keep_probability(0.5)
            .with_seed(23);
        let out = stream_in_batches(&g, &c, 10);
        assert!(out.sparsifier.m() < g.m());
        assert!(sgs_graph::connectivity::is_connected(&out.sparsifier));
        let b = approximation_bounds(&g, &out.sparsifier, &CertifyOptions::default());
        // Practical bundle sizing trades the proof for constants (as everywhere in
        // this repo): assert a healthy two-sided envelope rather than the paper ε.
        assert!(b.lower > 0.2, "lower {b:?}");
        assert!(b.upper < 4.0, "upper {b:?}");
    }

    #[test]
    fn er_policy_and_final_pass_shrink_output_within_ledger() {
        use sgs_core::SamplingPolicy;
        let g = generators::erdos_renyi(300, 0.4, 1.0, 29);
        let base = cfg(g.m() / 4, 7);
        let er = base
            .clone()
            .with_interior_sampling(SamplingPolicy::effective_resistance(4, 1e-3))
            .with_final_pass(
                // The pass budget is q = c · n log n / ε²; with ε_pass = ε_total/3 the
                // ε² denominator inflates q, so the compressing regime needs a small c
                // (the default 0.25 short-circuits on tree outputs this small).
                FinalPassConfig::new()
                    .with_oversample(0.04)
                    .with_jl_dims(4)
                    .with_cg_tol(1e-3),
            );
        let uniform_out = stream_in_batches(&g, &base, 8);
        let er_out = stream_in_batches(&g, &er, 8);
        // The pass ran, its ledger is recorded, and ε stays within ε_total.
        let pass = er_out.stats.er_pass.as_ref().expect("final pass ledger");
        assert!(pass.resampled, "pass should resample: {pass:?}");
        assert_eq!(pass.m_out, er_out.sparsifier.m() as u64);
        assert!(er_out.stats.epsilon_spent() <= 0.75 + 1e-12);
        // The ER path must compress strictly better than the uniform path.
        assert!(
            er_out.sparsifier.m() < uniform_out.sparsifier.m(),
            "er m_out {} vs uniform {}",
            er_out.sparsifier.m(),
            uniform_out.sparsifier.m()
        );
        assert!(sgs_graph::connectivity::is_connected(&er_out.sparsifier));
        // Batch-chop invariance holds on the ER path too.
        let rechopped = stream_in_batches(&g, &er, 33);
        assert_eq!(er_out.sparsifier.edges(), rechopped.sparsifier.edges());
        assert_eq!(er_out.stats.er_pass, rechopped.stats.er_pass);
    }

    #[test]
    fn final_pass_short_circuit_leaves_output_unchanged() {
        // Paper-faithful oversampling: the pass's budget covers any practical input,
        // so it must return the tree output untouched and charge no ε.
        let g = generators::erdos_renyi(200, 0.3, 1.0, 11);
        let base = cfg(g.m() / 3, 5);
        let with_pass = base
            .clone()
            .with_final_pass(FinalPassConfig::new().with_oversample(24.0));
        let plain = stream_in_batches(&g, &base, 6);
        let passed = stream_in_batches(&g, &with_pass, 6);
        let ledger = passed.stats.er_pass.as_ref().expect("pass ledger");
        assert!(!ledger.resampled);
        assert_eq!(ledger.solves, 0);
        // ε accounting: the no-op pass costs nothing, but the tree ran at the reduced
        // (1 − f) ε_total schedule, so outputs legitimately differ from `plain`.
        assert!(passed.stats.epsilon_spent() <= plain.stats.epsilon_spent() + 1e-12);
        assert_eq!(ledger.m_in, ledger.m_out);
    }

    #[test]
    fn spill_store_output_is_bitwise_identical_to_memory() {
        // A budget comfortably above the compression floor (m/2 with arity-2
        // bundles keeps forced reductions at zero): the tree parks cold deep nodes,
        // which is where spilling pays. Under budget pressure every forced
        // reduction re-unions the whole pending set in RAM, so the peak is the
        // union itself and no storage policy can lower it — the ledger columns
        // still hold there, but the RAM-win assertion below would not.
        let g = generators::erdos_renyi(300, 0.4, 1.0, 29);
        let (budget, store_budget) = (g.m() / 2, g.m() / 24);
        let base = StreamConfig::new(0.75, budget)
            .with_bundle_sizing(BundleSizing::Fixed(2))
            .with_seed(7);
        let mem_out = stream_in_batches(&g, &base, 16);
        assert_eq!(
            mem_out.stats.forced_reductions, 0,
            "healthy regime required"
        );
        // A store budget a small fraction of the tree budget guarantees real
        // spilling.
        let spill = base
            .clone()
            .with_spill(SpillConfig::new(store_budget * EDGE_BYTES));
        let spill_out = stream_in_batches(&g, &spill, 16);
        assert_eq!(mem_out.sparsifier.edges(), spill_out.sparsifier.edges());
        assert!(
            mem_out.stats.eq_modulo_storage(&spill_out.stats),
            "algorithmic stats must not depend on storage:\n{:?}\nvs\n{:?}",
            mem_out.stats,
            spill_out.stats
        );
        let ledger = spill_out.stats.spill;
        assert!(ledger.spilled_nodes > 0, "spilling must actually happen");
        assert!(ledger.readback_nodes <= ledger.spilled_nodes);
        assert_eq!(mem_out.stats.spill, SpillLedger::default());
        // The whole point: spilling lowers the RAM high-water mark below an RSS
        // gate — half the tree budget plus three store budgets — that the
        // unbudgeted run exceeds, so resident-only execution cannot meet it.
        let gate = (budget / 2 + 3 * store_budget) * EDGE_BYTES;
        assert!(
            spill_out.stats.peak_resident_bytes <= gate,
            "spill peak {} busts the RSS gate {gate}",
            spill_out.stats.peak_resident_bytes
        );
        assert!(
            gate < mem_out.stats.peak_resident_bytes,
            "RSS gate {gate} is vacuous: the unbudgeted peak {} fits it",
            mem_out.stats.peak_resident_bytes
        );
    }

    #[test]
    fn forced_reductions_kick_in_under_tight_budgets() {
        let g = generators::erdos_renyi(300, 0.4, 1.0, 29);
        let tight = cfg(g.m() / 8, 7);
        let out = stream_in_batches(&g, &tight, 16);
        assert!(
            out.stats.forced_reductions > 0,
            "budget m/8 should trigger forced reductions: {:?}",
            out.stats
        );
        // Deep trees are fine: the ε ledger still fits.
        assert!(out.stats.epsilon_spent() <= 0.75 + 1e-12);
    }
}
