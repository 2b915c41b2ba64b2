//! Pluggable off-bundle sampling strategies for `PARALLELSAMPLE`.
//!
//! The paper's Algorithm 1 keeps every off-bundle edge with one *uniform* probability.
//! That is work-optimal but size-suboptimal: Spielman–Srivastava (arXiv:0808.4134)
//! sampling proportional to leverage scores `w_e · R_e` crushes the output toward
//! `O(n log n / ε²)` edges at the price of `O(log n)` Laplacian solves. This module
//! makes the choice a first-class, object-safe [`SamplingStrategy`]: the uniform coin
//! stays the default (and the fast path — its byte stream is untouched), while
//! [`EffectiveResistance`] reweights the *threshold* each edge's coin is compared
//! against, so a strategy never changes which pseudorandom draw an edge consumes.
//!
//! Strategies are seed-deterministic: for a fixed `(graph, config, seed)` the computed
//! probabilities — and therefore the sampled graph — are bitwise identical across
//! rayon thread counts.

use std::fmt::Debug;
use std::sync::Arc;

use sgs_graph::Graph;
use sgs_linalg::resistance::{
    approx_effective_resistances_in, ResistanceOptions, ResistanceScratch,
};

#[cfg(feature = "serde")]
use serde::{Deserialize, Serialize};

/// Iteration cap of the leverage-estimation CG solves. The estimates only steer
/// probabilities (they are not a certificate), so a hard cap keeps worst-case graphs
/// from stalling a reduction; CG results stay deterministic regardless of where the
/// cap lands.
const CG_MAX_ITERATIONS: usize = 1000;

/// Everything a strategy may read when assigning per-edge keep probabilities.
#[derive(Debug)]
pub struct SampleContext<'a> {
    /// The graph being sampled this round.
    pub graph: &'a Graph,
    /// Bundle membership per edge id; bundle edges are kept unconditionally and their
    /// probability entries are ignored.
    pub in_bundle: &'a [bool],
    /// The round's accuracy target `ε`.
    pub epsilon: f64,
    /// The resolved bundle parameter `t`.
    pub t: usize,
    /// The uniform keep probability of the configuration — weighted strategies treat
    /// `keep_probability · #off-bundle` as the expected-size budget to redistribute.
    pub keep_probability: f64,
    /// The round's base seed (strategies derive their own streams from it).
    pub seed: u64,
}

/// Reusable workspace for sampling strategies, owned by
/// [`SparsifyEngine`](crate::SparsifyEngine) so batch pipelines pay the probability /
/// resistance allocations once, not per reduction.
#[derive(Debug, Default)]
pub struct SamplingScratch {
    /// Per-edge keep probabilities, filled by weighted strategies.
    pub probs: Vec<f64>,
    /// Per-edge effective-resistance estimates.
    pub resistances: Vec<f64>,
    /// Spanning-forest membership marks used by the ER final pass's skeleton.
    pub forest: Vec<bool>,
    /// JL/CG workspace of the resistance estimator.
    pub resistance: ResistanceScratch,
}

impl SamplingScratch {
    /// Creates an empty scratch (no allocation until first use).
    pub fn new() -> SamplingScratch {
        SamplingScratch::default()
    }
}

/// An object-safe rule assigning each off-bundle edge its keep probability.
///
/// Implementations must be deterministic functions of `(ctx.graph, ctx.seed)` — in
/// particular bitwise independent of thread scheduling — because the sampled output's
/// reproducibility contract (golden fixtures, batch-chop invariance in `sgs-stream`)
/// extends through them.
pub trait SamplingStrategy: Debug + Send + Sync {
    /// Short stable identifier, used in logs and serialized configs.
    fn name(&self) -> &'static str;

    /// Fills `scratch.probs` with one keep probability per edge id and returns `true`,
    /// or returns `false` to request the uniform fast path (`scratch` untouched) —
    /// which keeps the default pipeline's output byte-identical to the plain
    /// Algorithm 1 coin.
    fn keep_probabilities(&self, ctx: &SampleContext<'_>, scratch: &mut SamplingScratch) -> bool;
}

/// The paper's uniform coin: every off-bundle edge is kept with
/// `cfg.keep_probability` at weight `w / p`. This is the default strategy and the
/// fast path — no probability vector is materialised.
#[derive(Debug, Clone, Copy, Default)]
pub struct Uniform;

impl SamplingStrategy for Uniform {
    fn name(&self) -> &'static str {
        "uniform"
    }

    fn keep_probabilities(&self, _ctx: &SampleContext<'_>, _scratch: &mut SamplingScratch) -> bool {
        false
    }
}

/// Spielman–Srivastava leverage-aware sampling: off-bundle edge `e` is kept with
/// probability proportional to its estimated leverage `w_e · R̃_e` (clamped to
/// `[p_floor, 1]`), normalised so the *expected* kept count matches the uniform
/// budget `keep_probability · #off-bundle`. High-leverage edges (bridges, barbell
/// necks) get probability 1; redundant intra-expander edges drop far below the
/// uniform coin — the output is smaller at equal spectral quality, which is exactly
/// what deep forced merge-and-reduce chains need.
///
/// Resistances come from the JL random-projection estimator (`jl_dims` CG solves at
/// tolerance `cg_tol`), reusing the engine scratch across reductions.
#[derive(Debug, Clone)]
pub struct EffectiveResistance {
    /// Number of random-projection rows (= Laplacian solves per reduction).
    pub jl_dims: usize,
    /// CG relative-residual tolerance of each solve.
    pub cg_tol: f64,
}

impl EffectiveResistance {
    /// A practical default: 8 projection rows at a loose tolerance — leverage scores
    /// steer sampling and need no more accuracy than that.
    pub fn new() -> EffectiveResistance {
        EffectiveResistance {
            jl_dims: 8,
            cg_tol: 1e-4,
        }
    }
}

impl Default for EffectiveResistance {
    fn default() -> Self {
        EffectiveResistance::new()
    }
}

impl SamplingStrategy for EffectiveResistance {
    fn name(&self) -> &'static str {
        "effective-resistance"
    }

    fn keep_probabilities(&self, ctx: &SampleContext<'_>, scratch: &mut SamplingScratch) -> bool {
        let g = ctx.graph;
        let m = g.m();
        if m == 0 {
            return false;
        }
        let opts = ResistanceOptions {
            rows: self.jl_dims.max(1),
            tolerance: self.cg_tol,
            max_iterations: CG_MAX_ITERATIONS,
            seed: ctx.seed ^ 0x7E57_ED5E_0DDB_A11E,
        };
        approx_effective_resistances_in(
            g,
            &opts,
            &mut scratch.resistance,
            &mut scratch.resistances,
        );

        // Scores and their sum are accumulated sequentially on purpose: a parallel
        // float reduction would combine per-chunk partials, whose grouping differs
        // from the sequential fold the golden fixtures pin.
        // O(m) adds are negligible next to the CG solves above.
        scratch.probs.clear();
        scratch.probs.resize(m, 1.0);
        let mut sum = 0.0;
        let mut off_bundle = 0usize;
        for (id, e) in g.edges().iter().enumerate() {
            if ctx.in_bundle[id] {
                continue;
            }
            let score = (e.w * scratch.resistances[id]).max(0.0);
            scratch.probs[id] = score;
            sum += score;
            off_bundle += 1;
        }
        if off_bundle == 0 || sum <= 0.0 {
            // Nothing to weight (all-bundle graph) or degenerate estimates: the
            // uniform coin is the honest fallback.
            return false;
        }

        // Redistribute the uniform expected budget proportionally to leverage. The
        // floor bounds the reweighting blow-up of any kept edge at 100/keep; the cap
        // at 1 makes leverage-1 edges (bridges) deterministic keeps.
        let budget = ctx.keep_probability * off_bundle as f64;
        let floor = (ctx.keep_probability * 1e-2).min(1.0);
        for (id, p) in scratch.probs.iter_mut().enumerate() {
            if ctx.in_bundle[id] {
                continue;
            }
            *p = (budget * *p / sum).clamp(floor, 1.0);
        }
        true
    }
}

/// A cloneable, config-embeddable handle to a [`SamplingStrategy`].
///
/// `SparsifyConfig` stores this instead of a bare trait object so configs stay
/// `Clone` (strategies are shared, not duplicated) and so the serde feature keeps
/// compiling: the policy serializes as its strategy name.
#[derive(Clone)]
pub struct SamplingPolicy(Arc<dyn SamplingStrategy>);

impl SamplingPolicy {
    /// Wraps a custom strategy.
    pub fn new(strategy: Arc<dyn SamplingStrategy>) -> SamplingPolicy {
        SamplingPolicy(strategy)
    }

    /// The paper's uniform coin (the default).
    pub fn uniform() -> SamplingPolicy {
        SamplingPolicy(Arc::new(Uniform))
    }

    /// Leverage-aware sampling with `jl_dims` projection rows at CG tolerance
    /// `cg_tol` (see [`EffectiveResistance`]).
    pub fn effective_resistance(jl_dims: usize, cg_tol: f64) -> SamplingPolicy {
        assert!(jl_dims > 0, "jl_dims must be positive");
        assert!(cg_tol > 0.0, "cg_tol must be positive");
        SamplingPolicy(Arc::new(EffectiveResistance { jl_dims, cg_tol }))
    }

    /// The wrapped strategy.
    pub fn strategy(&self) -> &dyn SamplingStrategy {
        self.0.as_ref()
    }

    /// The strategy's stable name.
    pub fn name(&self) -> &'static str {
        self.0.name()
    }
}

impl Default for SamplingPolicy {
    fn default() -> Self {
        SamplingPolicy::uniform()
    }
}

impl Debug for SamplingPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("SamplingPolicy").field(&self.0).finish()
    }
}

#[cfg(feature = "serde")]
impl Serialize for SamplingPolicy {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.name().to_string())
    }
}

#[cfg(feature = "serde")]
impl<'de> Deserialize<'de> for SamplingPolicy {}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_graph::generators;

    fn ctx<'a>(g: &'a Graph, in_bundle: &'a [bool], seed: u64) -> SampleContext<'a> {
        SampleContext {
            graph: g,
            in_bundle,
            epsilon: 0.5,
            t: 2,
            keep_probability: 0.25,
            seed,
        }
    }

    #[test]
    fn uniform_requests_the_fast_path() {
        let g = generators::erdos_renyi(50, 0.3, 1.0, 1);
        let in_bundle = vec![false; g.m()];
        let mut scratch = SamplingScratch::new();
        assert!(!Uniform.keep_probabilities(&ctx(&g, &in_bundle, 7), &mut scratch));
        assert!(scratch.probs.is_empty(), "fast path must not allocate");
        assert_eq!(SamplingPolicy::default().name(), "uniform");
    }

    #[test]
    fn effective_resistance_fills_valid_probabilities() {
        let g = generators::erdos_renyi(80, 0.25, 1.0, 3);
        let mut in_bundle = vec![false; g.m()];
        in_bundle[0] = true;
        let er = EffectiveResistance {
            jl_dims: 4,
            cg_tol: 1e-3,
        };
        let mut scratch = SamplingScratch::new();
        assert!(er.keep_probabilities(&ctx(&g, &in_bundle, 7), &mut scratch));
        assert_eq!(scratch.probs.len(), g.m());
        assert_eq!(scratch.probs[0], 1.0, "bundle edges stay certain");
        for &p in &scratch.probs {
            assert!((0.0..=1.0).contains(&p) && p > 0.0, "probability {p}");
        }
        // The expected kept count tracks the uniform budget (clamping moves it a bit).
        let expected: f64 = scratch
            .probs
            .iter()
            .enumerate()
            .filter(|(id, _)| !in_bundle[*id])
            .map(|(_, p)| p)
            .sum();
        let budget = 0.25 * (g.m() - 1) as f64;
        assert!(
            expected <= budget * 1.5 && expected >= budget * 0.5,
            "expected {expected} vs budget {budget}"
        );
    }

    #[test]
    fn bridges_are_kept_deterministically() {
        // Barbell: the neck edge has leverage ≈ 1, so its probability must clamp to 1.
        let g = generators::barbell(20, 1, 1.0, 1.0);
        let in_bundle = vec![false; g.m()];
        let er = EffectiveResistance {
            jl_dims: 6,
            cg_tol: 1e-4,
        };
        let mut scratch = SamplingScratch::new();
        assert!(er.keep_probabilities(&ctx(&g, &in_bundle, 3), &mut scratch));
        let neck = g
            .edges()
            .iter()
            .position(|e| (e.u < 20) != (e.v < 20))
            .expect("barbell has a neck edge");
        assert_eq!(scratch.probs[neck], 1.0, "neck probability");
    }

    #[test]
    fn all_bundle_graph_falls_back_to_uniform() {
        let g = generators::cycle(10, 1.0);
        let in_bundle = vec![true; g.m()];
        let er = EffectiveResistance::new();
        let mut scratch = SamplingScratch::new();
        assert!(!er.keep_probabilities(&ctx(&g, &in_bundle, 1), &mut scratch));
    }

    #[test]
    #[should_panic(expected = "jl_dims")]
    fn policy_rejects_zero_dims() {
        let _ = SamplingPolicy::effective_resistance(0, 1e-4);
    }
}
