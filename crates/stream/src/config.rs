//! Configuration of the semi-streaming sparsifier.

use sgs_core::{BundleSizing, SamplingPolicy, SparsifyConfig};
use sgs_graph::splitmix64;

use crate::store::SpillConfig;

/// Configuration of the ER-weighted final pass run by `StreamSparsifier::finish`.
///
/// The pass resamples the finished sparsifier with Spielman–Srivastava `w_e · R_e`
/// probabilities (`sgs_core::resparsify_er`), spending a third of `ε_total`. It
/// composes with the tree's schedule exactly like one more level: the tree certifies
/// `H ≈ G` within `⅔ ε_total`, the pass certifies `H' ≈ H` within `⅓ ε_total`, and
/// first-order composition gives `H' ≈ G` within `ε_total`.
pub use sgs_core::ErPassConfig as FinalPassConfig;

/// Geometric ratio `r` of the per-depth ε schedule (see [`StreamConfig`]).
const LEVEL_RATIO: f64 = 0.5;

/// Fraction of `ε_total` reserved for the final pass when one is configured.
const FINAL_PASS_EPSILON_FRACTION: f64 = 1.0 / 3.0;

/// Early-stop threshold of every reduction: `PARALLELSPARSIFY` leaves graphs with at
/// most this many times `n log₂ n` edges untouched. The one-shot default (2.0) would
/// declare leaf-sized graphs "sparse enough" and stack them uncompressed; a streaming
/// engine must keep compressing down toward its memory budget.
const STOP_BELOW_NLOGN_FACTOR: f64 = 0.5;

/// Configuration of a [`crate::StreamSparsifier`].
///
/// The two primary knobs are the end-to-end accuracy `epsilon` (`ε_total`) and the
/// resident-memory budget `budget_edges`; everything else tunes the shape of the
/// merge-and-reduce tree and is forwarded to the per-reduction `PARALLELSPARSIFY`
/// calls.
///
/// ## The ε-budget schedule
///
/// Every reduction at application depth `j` (leaves are `j = 0`, a merge of depth-`j`
/// nodes is application `j + 1`) runs `PARALLELSPARSIFY` at accuracy
///
/// ```text
/// ε_j = ε_total · (1 − r) · r^j          (r = 1/2)
/// ```
///
/// so a node at depth `d` approximates the union of its raw edges within
/// `Π_{j<d} (1 ± ε_j)`, and because `Σ_{j≥0} ε_j = ε_total` the final sparsifier is a
/// `(1 ± ε_total)`-ish approximation of the whole stream at **any** tree depth — the
/// schedule never runs out, so the guarantee survives forced (budget-pressure)
/// reductions that deepen the tree beyond `log_arity(#leaves)`. (Formally
/// `Π(1+ε_j) ≤ e^{ε_total}` and `Π(1−ε_j) ≥ 1 − ε_total`; for small `ε_total` these
/// are the usual `(1 ± ε_total)` bounds, the same first-order composition the paper
/// uses when `PARALLELSPARSIFY` splits `ε` across its `⌈log ρ⌉` rounds.)
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// End-to-end accuracy target `ε_total` in `(0, 1]`.
    pub epsilon: f64,
    /// Resident-edge budget: the engine keeps (buffer + pending sparsifiers) at or
    /// under this many edges, forcing extra reductions when sparsifiers alone would
    /// exceed `budget_edges − leaf_capacity()`.
    pub budget_edges: usize,
    /// Merge fan-in `k` of the reduce tree (how many same-depth sparsifiers are
    /// unioned per reduction). Must be ≥ 2.
    pub arity: usize,
    /// Sparsification factor `ρ` forwarded to each `PARALLELSPARSIFY` reduction.
    pub rho: f64,
    /// Bundle sizing rule forwarded to every reduction. As everywhere in this repo,
    /// [`BundleSizing::Paper`] gives the provable constants (and swallows practical
    /// graphs whole), the default scaled rule gives practical compression.
    pub bundle_sizing: BundleSizing,
    /// Off-bundle keep probability forwarded to every reduction.
    pub keep_probability: f64,
    /// Base RNG seed; every reduction derives its own seed from (depth, index), so
    /// results depend only on the edge stream and this value.
    pub seed: u64,
    /// Sampling policy of interior (depth ≥ 1, including forced) reductions. Leaves
    /// see raw, large batches where Laplacian solves are at their most expensive and
    /// the uniform coin's variance has not compounded yet, so they always run the
    /// uniform coin. Deep chains compound uniform-sampling variance multiplicatively;
    /// leverage-aware sampling here ([`SamplingPolicy::effective_resistance`]) keeps
    /// interior nodes near the `n log n` floor instead.
    pub interior_sampling: SamplingPolicy,
    /// Optional ER-weighted final pass over the finished sparsifier (see
    /// [`FinalPassConfig`]). `None` (the default) leaves `finish()` byte-identical to
    /// the tree output; `Some` reserves a third of `ε_total` for the pass and runs the
    /// merge-and-reduce tree at the remaining two thirds.
    pub final_pass: Option<FinalPassConfig>,
    /// Out-of-core node storage: `None` (the default) keeps every pending tree node
    /// resident; `Some` bounds the store's resident edge bytes by spilling cold deep
    /// nodes to disk. Storage placement never affects the output (see `crate::store`
    /// for the determinism contract).
    pub spill: Option<SpillConfig>,
}

impl StreamConfig {
    /// Creates a configuration with accuracy `ε_total` and a resident-edge budget,
    /// with the same practical defaults as [`SparsifyConfig::new`] (scaled bundle,
    /// keep probability 1/4) plus a binary merge tree (`arity = 2`, `r = 1/2`).
    ///
    /// One default differs deliberately from the one-shot sparsifier: `ρ = 2` — each
    /// reduction performs a *single* sampling round, because the tree itself supplies
    /// the repeated halving and extra rounds per reduction would only compound
    /// sampling error.
    pub fn new(epsilon: f64, budget_edges: usize) -> Self {
        assert!(epsilon > 0.0 && epsilon <= 1.0, "epsilon must be in (0, 1]");
        assert!(budget_edges >= 2, "budget_edges must be at least 2");
        StreamConfig {
            epsilon,
            budget_edges,
            arity: 2,
            rho: 2.0,
            bundle_sizing: BundleSizing::Scaled(0.5),
            keep_probability: 0.25,
            seed: 0xC0FFEE,
            interior_sampling: SamplingPolicy::Uniform,
            final_pass: None,
            spill: None,
        }
    }

    /// Overrides the merge fan-in (must be ≥ 2).
    pub fn with_arity(mut self, arity: usize) -> Self {
        assert!(arity >= 2, "arity must be at least 2");
        self.arity = arity;
        self
    }

    /// Overrides the per-reduction sparsification factor `ρ` (must be ≥ 1).
    pub fn with_rho(mut self, rho: f64) -> Self {
        assert!(rho >= 1.0, "rho must be at least 1");
        self.rho = rho;
        self
    }

    /// Overrides the bundle sizing rule.
    pub fn with_bundle_sizing(mut self, sizing: BundleSizing) -> Self {
        self.bundle_sizing = sizing;
        self
    }

    /// Overrides the off-bundle keep probability (must be in `(0, 1)`).
    pub fn with_keep_probability(mut self, p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "keep probability must be in (0, 1)");
        self.keep_probability = p;
        self
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the sampling policy of interior (depth ≥ 1) reductions.
    pub fn with_interior_sampling(mut self, sampling: SamplingPolicy) -> Self {
        self.interior_sampling = sampling;
        self
    }

    /// Enables the ER-weighted final pass (see [`FinalPassConfig`]).
    pub fn with_final_pass(mut self, pass: FinalPassConfig) -> Self {
        self.final_pass = Some(pass);
        self
    }

    /// Enables out-of-core node storage (see [`SpillConfig`]): pending tree nodes
    /// beyond the spill budget are written to disk and read back only at reduction
    /// time, with fixed-seed output bitwise identical to in-memory storage.
    pub fn with_spill(mut self, spill: SpillConfig) -> Self {
        self.spill = Some(spill);
        self
    }

    /// Maximum raw edges buffered before a leaf reduction fires: half the budget (the
    /// other half is reserved for the pending sparsifiers of the tree).
    ///
    /// The actual trigger is adaptive — a leaf fires as soon as
    /// `2·buffer + resident_sparsifiers ≥ budget_edges` (with the buffer at least
    /// [`StreamConfig::min_leaf_edges`]), so the resident census through a leaf
    /// reduction never exceeds the budget: the output of a reduction is never larger
    /// than its input, hence `buffer + resident + leaf_output ≤ 2·buffer + resident`.
    /// Both trigger inputs are deterministic functions of the stream position alone —
    /// never of how the caller chopped the stream into batches — which is what makes
    /// fixed-seed output identical for 1 batch and for 1000 batches of the same edge
    /// sequence.
    pub fn leaf_capacity(&self) -> usize {
        (self.budget_edges / 2).max(1)
    }

    /// Minimum leaf size (an eighth of the budget): prevents degenerate one-edge
    /// leaves when the pending sparsifiers cannot be compressed below the budget
    /// (budgets under the spectral-sparsity floor `~n log n` run in this degraded
    /// mode — the engine still works, with resident memory pinned at the floor).
    pub fn min_leaf_edges(&self) -> usize {
        (self.budget_edges / 8).max(1)
    }

    /// The ε reserved for the final pass (0 when no pass is configured).
    pub fn final_pass_epsilon(&self) -> f64 {
        if self.final_pass.is_some() {
            self.epsilon * FINAL_PASS_EPSILON_FRACTION
        } else {
            0.0
        }
    }

    /// The seed of the final pass's JL projections and coins, derived from
    /// [`StreamConfig::seed`].
    pub fn final_pass_seed(&self) -> u64 {
        self.seed ^ 0xF1A1_9A55_0000_00ED
    }

    /// The ε available to the merge-and-reduce tree: `ε_total` minus the final-pass
    /// reservation. Without a final pass this is exactly `ε_total`, so the schedule —
    /// and every fixed-seed output — is unchanged from the pass-free engine.
    pub fn tree_epsilon(&self) -> f64 {
        self.epsilon - self.final_pass_epsilon()
    }

    /// The ε spent by a reduction at application depth `j` (see the type docs; the
    /// geometric schedule is taken over [`StreamConfig::tree_epsilon`]).
    pub fn level_epsilon(&self, j: usize) -> f64 {
        let eps = self.tree_epsilon() * (1.0 - LEVEL_RATIO) * LEVEL_RATIO.powi(j as i32);
        // Very deep (forced) chains would underflow to 0, which SparsifyConfig
        // rejects; clamp to a subnormal-free floor. ε this small is pure accounting.
        eps.max(1e-300)
    }

    /// The `SparsifyConfig` for reduction number `index` at application depth `j`.
    ///
    /// Depth 0 gets the uniform coin, everything deeper (including forced
    /// reductions) gets [`StreamConfig::interior_sampling`].
    pub(crate) fn reduction_config(&self, j: usize, index: u64) -> SparsifyConfig {
        let sampling = if j == 0 {
            SamplingPolicy::Uniform
        } else {
            self.interior_sampling
        };
        let mut cfg = SparsifyConfig::new(self.level_epsilon(j).min(1.0), self.rho)
            .with_bundle_sizing(self.bundle_sizing)
            .with_keep_probability(self.keep_probability)
            .with_sampling(sampling)
            .with_seed(splitmix64(
                splitmix64(self.seed ^ (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ index,
            ));
        cfg.stop_below_nlogn_factor = STOP_BELOW_NLOGN_FACTOR;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epsilon_schedule_sums_to_epsilon_total() {
        let cfg = StreamConfig::new(0.8, 1000);
        let sum: f64 = (0..200).map(|j| cfg.level_epsilon(j)).sum();
        assert!(sum <= 0.8 + 1e-9, "schedule overspends: {sum}");
        assert!(
            sum > 0.8 - 1e-6,
            "schedule should converge to ε_total: {sum}"
        );
        // Geometric decay with ratio 1/2.
        assert!((cfg.level_epsilon(1) / cfg.level_epsilon(0) - 0.5).abs() < 1e-12);
        // Deep levels never reach zero (SparsifyConfig would reject it).
        assert!(cfg.level_epsilon(5000) > 0.0);
    }

    #[test]
    fn leaf_capacity_is_half_the_budget() {
        assert_eq!(StreamConfig::new(0.5, 1000).leaf_capacity(), 500);
        assert_eq!(StreamConfig::new(0.5, 3).leaf_capacity(), 1);
        assert_eq!(StreamConfig::new(0.5, 2).leaf_capacity(), 1);
    }

    #[test]
    fn reduction_configs_are_distinct_per_depth_and_index() {
        let cfg = StreamConfig::new(0.5, 1000).with_seed(7);
        let a = cfg.reduction_config(0, 0);
        let b = cfg.reduction_config(0, 1);
        let c = cfg.reduction_config(1, 0);
        assert_ne!(a.seed, b.seed);
        assert_ne!(a.seed, c.seed);
        assert_ne!(b.seed, c.seed);
        assert!((a.epsilon - 0.25).abs() < 1e-12);
        assert!((c.epsilon - 0.125).abs() < 1e-12);
        // Deterministic.
        assert_eq!(a.seed, cfg.reduction_config(0, 0).seed);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_bad_epsilon() {
        let _ = StreamConfig::new(0.0, 100);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn rejects_bad_arity() {
        let _ = StreamConfig::new(0.5, 100).with_arity(1);
    }

    #[test]
    fn final_pass_reserves_epsilon_fraction() {
        let plain = StreamConfig::new(0.6, 1000);
        assert_eq!(plain.final_pass_epsilon(), 0.0);
        assert_eq!(plain.tree_epsilon(), 0.6);

        let with_pass = StreamConfig::new(0.6, 1000).with_final_pass(FinalPassConfig::new());
        assert!((with_pass.final_pass_epsilon() - 0.2).abs() < 1e-12);
        assert!((with_pass.tree_epsilon() - 0.4).abs() < 1e-12);
        // Tree schedule + pass reservation still sums to ε_total.
        let tree_sum: f64 = (0..200).map(|j| with_pass.level_epsilon(j)).sum();
        assert!(tree_sum + with_pass.final_pass_epsilon() <= 0.6 + 1e-9);
    }

    #[test]
    fn per_depth_sampling_policy_selection() {
        use sgs_core::SamplingPolicy;
        let cfg = StreamConfig::new(0.5, 1000)
            .with_interior_sampling(SamplingPolicy::effective_resistance(4, 1e-3));
        assert_eq!(cfg.reduction_config(0, 0).sampling.name(), "uniform");
        assert_eq!(
            cfg.reduction_config(1, 0).sampling.name(),
            "effective-resistance"
        );
        assert_eq!(
            cfg.reduction_config(3, 2).sampling.name(),
            "effective-resistance"
        );
    }
}
