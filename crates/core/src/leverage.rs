//! Off-bundle sampling policies and the effective-resistance (ER) final pass.
//!
//! The paper's Algorithm 1 keeps every off-bundle edge with one *uniform* probability.
//! That is work-optimal but size-suboptimal: Spielman–Srivastava (arXiv:0803.0929)
//! sampling proportional to leverage scores `w_e · R_e` crushes the output toward
//! `O(n log n / ε²)` edges at the price of `O(log n)` Laplacian solves. Two callers use
//! leverage scores, and both go through one kernel, `leverage_probabilities`:
//!
//! * `PARALLELSAMPLE` under [`SamplingPolicy::EffectiveResistance`]: the uniform coin's
//!   expected budget `keep_probability · #off-bundle` is redistributed in proportion to
//!   leverage. The policy only moves each edge's coin *threshold*, never its draw, so
//!   the uniform path's byte stream is untouched.
//! * [`resparsify_er`], the same scheme run as a *final pass* over a finished
//!   sparsifier `H` (notably the `sgs-stream` merge-and-reduce tree's output), where a
//!   handful of solves is cheap: it samples `q ≈ oversample · n log n / ε²` edges and
//!   reweights by `1/p_e`. The pass composes spectrally: if `H ≈_δ G` and the pass
//!   certifies `H' ≈_ε H`, then `H' ≈_{δ+ε} G` (first-order), which is how
//!   `StreamSparsifier::finish` accounts for it in the epsilon ledger.
//!
//! Like `PARALLELSAMPLE` — which keeps its t-bundle spanner verbatim and flips coins
//! only off-bundle — the pass keeps a spanning forest of its input verbatim and spends
//! the sample budget on the off-forest edges. That makes connectivity (and hence a
//! non-degenerate lower spectral bound) unconditional, even at sample budgets far
//! below the `n log n` floor where plain independent sampling isolates vertices. When
//! the requested budget `q` already reaches the input size `m`, the pass returns the
//! input unchanged (no solves) — resampling could only add variance.
//!
//! High-leverage edges (bridges, barbell necks) clamp to probability 1 and survive
//! deterministically; redundant intra-expander edges drop far below the uniform coin.
//! Everything here is seed-deterministic: for a fixed `(graph, config, seed)` the
//! probabilities — and therefore the sampled graph — are bitwise identical across
//! rayon thread counts.

use sgs_graph::Graph;
use sgs_linalg::resistance::{
    approx_effective_resistances_in, ResistanceOptions, ResistanceScratch,
};

use crate::engine::SparsifyEngine;
use crate::sample::sample_weighted;

/// Iteration cap of the leverage-estimation CG solves. The estimates only steer
/// probabilities (they are not a certificate), so a hard cap keeps worst-case graphs
/// from stalling a reduction; CG results stay deterministic regardless of where the
/// cap lands.
const CG_MAX_ITERATIONS: usize = 1000;

/// How `PARALLELSAMPLE` assigns each off-bundle edge its keep probability.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SamplingPolicy {
    /// The paper's coin: every off-bundle edge is kept with `cfg.keep_probability` at
    /// weight `w / p`. No probability vector is materialised.
    #[default]
    Uniform,
    /// Leverage-aware sampling: off-bundle edge `e` is kept with probability
    /// proportional to its estimated leverage `w_e · R̃_e`, normalised so the expected
    /// kept count matches the uniform budget. Resistances come from the JL
    /// random-projection estimator: `jl_dims` CG solves at tolerance `cg_tol`.
    EffectiveResistance {
        /// Number of random-projection rows (= Laplacian solves per reduction).
        jl_dims: usize,
        /// CG relative-residual tolerance of each solve.
        cg_tol: f64,
    },
}

impl SamplingPolicy {
    /// Leverage-aware sampling with `jl_dims` projection rows at CG tolerance `cg_tol`.
    pub fn effective_resistance(jl_dims: usize, cg_tol: f64) -> SamplingPolicy {
        assert!(jl_dims > 0, "jl_dims must be positive");
        assert!(cg_tol > 0.0, "cg_tol must be positive");
        SamplingPolicy::EffectiveResistance { jl_dims, cg_tol }
    }

    /// Short stable identifier, used in logs and serialized configs.
    pub fn name(&self) -> &'static str {
        match self {
            SamplingPolicy::Uniform => "uniform",
            SamplingPolicy::EffectiveResistance { .. } => "effective-resistance",
        }
    }
}

/// Reusable workspace of the leverage kernel, owned by
/// [`SparsifyEngine`](crate::SparsifyEngine) so batch pipelines pay the probability /
/// resistance allocations once, not per reduction.
#[derive(Debug, Default)]
pub(crate) struct SamplingScratch {
    /// Per-edge keep probabilities.
    pub(crate) probs: Vec<f64>,
    /// Per-edge effective-resistance estimates.
    resistances: Vec<f64>,
    /// Spanning-forest membership marks used by the ER final pass's skeleton.
    forest: Vec<bool>,
    /// JL/CG workspace of the resistance estimator.
    resistance: ResistanceScratch,
}

/// The expected number of off-skeleton edges a leverage-weighted coin keeps.
#[derive(Debug, Clone, Copy)]
pub(crate) enum OffBudget {
    /// The uniform coin's rate `p`: the budget is `p · #off`.
    Rate(f64),
    /// A total kept count, spread over `#off` edges.
    Total(f64),
}

/// Fills `scratch.probs` with one keep probability per edge id and returns `true`, or
/// returns `false` when there is nothing to weight (no off-skeleton edge, or
/// degenerate estimates) and the caller should fall back.
///
/// Edges marked in `verbatim` (the bundle, or the ER pass's forest) get probability 1.
/// Every other edge gets `budget · s_e / Σs` for its leverage `s_e = w_e · R̃_e`,
/// clamped to `[floor, 1]`: the floor (1% of the mean off-skeleton rate) bounds the
/// reweighting blow-up of any kept edge at 100×, and the cap at 1 makes leverage-1
/// edges (bridges) deterministic keeps. Resistances come from `jl_dims` JL rows at CG
/// tolerance `cg_tol`, projected with `seed`.
pub(crate) fn leverage_probabilities(
    g: &Graph,
    verbatim: &[bool],
    jl_dims: usize,
    cg_tol: f64,
    seed: u64,
    budget: OffBudget,
    scratch: &mut SamplingScratch,
) -> bool {
    let m = g.m();
    if m == 0 {
        return false;
    }
    let opts = ResistanceOptions {
        rows: jl_dims.max(1),
        tolerance: cg_tol,
        max_iterations: CG_MAX_ITERATIONS,
        seed,
    };
    approx_effective_resistances_in(g, &opts, &mut scratch.resistance, &mut scratch.resistances);

    // Scores and their sum are accumulated sequentially on purpose: a parallel float
    // reduction would combine per-chunk partials, whose grouping differs from the
    // sequential fold the golden fixtures pin. O(m) adds are negligible next to the
    // CG solves above.
    scratch.probs.clear();
    scratch.probs.resize(m, 1.0);
    let mut sum = 0.0;
    let mut off = 0usize;
    for (id, e) in g.edges().iter().enumerate() {
        if verbatim[id] {
            continue;
        }
        let score = (e.w * scratch.resistances[id]).max(0.0);
        scratch.probs[id] = score;
        sum += score;
        off += 1;
    }
    if off == 0 || sum <= 0.0 {
        return false;
    }

    let (expected, rate) = match budget {
        OffBudget::Rate(p) => (p * off as f64, p),
        OffBudget::Total(q) => (q, q / off as f64),
    };
    let floor = (rate * 1e-2).min(1.0);
    for (p, &fixed) in scratch.probs.iter_mut().zip(verbatim) {
        if !fixed {
            *p = (expected * *p / sum).clamp(floor, 1.0);
        }
    }
    true
}

/// Configuration of the ER-weighted final pass. The accuracy `ε` and the seed are the
/// caller's, passed to [`resparsify_er`] with the config.
#[derive(Debug, Clone)]
pub struct ErPassConfig {
    /// Constant `c` in the sample budget `q = c · n log₂ n / ε²`. The theory wants
    /// `c ≈ 9/δ²`-ish constants that exceed any practical input; values well below 1
    /// are where the pass actually reduces size.
    pub oversample: f64,
    /// Number of JL projection rows (= Laplacian solves).
    pub jl_dims: usize,
    /// CG relative-residual tolerance of each solve.
    pub cg_tol: f64,
}

impl ErPassConfig {
    /// Practical defaults: oversample 0.25, 8 projection rows at tolerance `1e-4`.
    pub fn new() -> ErPassConfig {
        ErPassConfig {
            oversample: 0.25,
            jl_dims: 8,
            cg_tol: 1e-4,
        }
    }

    /// Overrides the oversampling constant (must be positive).
    pub fn with_oversample(mut self, c: f64) -> Self {
        assert!(c > 0.0, "oversample must be positive");
        self.oversample = c;
        self
    }

    /// Overrides the JL dimensions (must be positive).
    pub fn with_jl_dims(mut self, k: usize) -> Self {
        assert!(k > 0, "jl_dims must be positive");
        self.jl_dims = k;
        self
    }

    /// Overrides the CG tolerance (must be positive).
    pub fn with_cg_tol(mut self, tol: f64) -> Self {
        assert!(tol > 0.0, "cg_tol must be positive");
        self.cg_tol = tol;
        self
    }

    /// The expected number of sampled edges at accuracy `epsilon`:
    /// `oversample · n · log₂ n / ε²`.
    pub fn target_samples(&self, n: usize, epsilon: f64) -> f64 {
        self.oversample * n as f64 * (n.max(2) as f64).log2() / (epsilon * epsilon)
    }
}

impl Default for ErPassConfig {
    fn default() -> Self {
        ErPassConfig::new()
    }
}

/// Output of [`resparsify_er`].
#[derive(Debug, Clone)]
pub struct ErPassOutput {
    /// The resampled sparsifier (or a clone of the input when the pass short-circuits).
    pub sparsifier: Graph,
    /// Edge count of the input.
    pub m_in: usize,
    /// Edge count of the output.
    pub m_out: usize,
    /// Number of Laplacian solves performed (0 when the pass short-circuited).
    pub solves: usize,
    /// Whether resampling actually happened; `false` means the output is the input.
    pub resampled: bool,
}

/// Runs one leverage-weighted resampling pass over `g` at accuracy `epsilon` (see the
/// module docs); `seed` drives both the JL projections and the coins.
///
/// Deterministic in `(g, cfg, epsilon, seed)`: output is bitwise identical across
/// thread counts.
pub fn resparsify_er(g: &Graph, cfg: &ErPassConfig, epsilon: f64, seed: u64) -> ErPassOutput {
    resparsify_on_engine(g, cfg, epsilon, seed, &mut SparsifyEngine::new())
}

/// Re-entrant [`resparsify_er`] reusing a caller-owned engine's JL/CG scratch.
pub(crate) fn resparsify_on_engine(
    g: &Graph,
    cfg: &ErPassConfig,
    epsilon: f64,
    seed: u64,
    engine: &mut SparsifyEngine,
) -> ErPassOutput {
    assert!(epsilon > 0.0 && epsilon <= 1.0, "epsilon must be in (0, 1]");
    let n = g.n();
    let m = g.m();
    let q = cfg.target_samples(n, epsilon);
    let unchanged = |solves| ErPassOutput {
        sparsifier: g.clone(),
        m_in: m,
        m_out: m,
        solves,
        resampled: false,
    };

    // Identity short-circuit: asking for at least as many samples as there are edges
    // means every probability would clamp to ~1 — return the input unchanged and spend
    // zero solves. This is also the honest behavior under the paper-faithful constants,
    // whose q exceeds any practical m.
    if m == 0 || q >= m as f64 {
        return unchanged(0);
    }

    // Connectivity skeleton: a spanning forest in edge order, kept verbatim (weight
    // unchanged) exactly as PARALLELSAMPLE keeps its bundle. What remains of the
    // budget after the forest is spent on the off-forest edges.
    let scratch = &mut engine.sampling;
    let mut forest = std::mem::take(&mut scratch.forest);
    forest.clear();
    forest.resize(m, false);
    let mut uf = sgs_graph::connectivity::UnionFind::new(n);
    let mut forest_edges = 0usize;
    for (id, e) in g.edges().iter().enumerate() {
        if uf.union(e.u(), e.v()) {
            forest[id] = true;
            forest_edges += 1;
        }
    }
    let q_off = (q - forest_edges as f64).max(0.0);
    let weighted = leverage_probabilities(
        g,
        &forest,
        cfg.jl_dims,
        cfg.cg_tol,
        seed ^ 0x1337_C0DE_ACE1_D00D,
        OffBudget::Total(q_off),
        scratch,
    );
    let out = if weighted {
        let sparsifier = sample_weighted(g, &forest, &scratch.probs, seed ^ 0xE57A_B1E5_EED5_EED5);
        ErPassOutput {
            m_in: m,
            m_out: sparsifier.m(),
            sparsifier,
            solves: cfg.jl_dims,
            resampled: true,
        }
    } else {
        unchanged(cfg.jl_dims)
    };
    scratch.forest = forest;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SparsifyConfig;
    use sgs_graph::{connectivity::is_connected, generators};
    use sgs_linalg::spectral::{approximation_bounds, CertifyOptions};

    /// The kernel at the uniform rate 1/4; `None` when it asks for the fallback.
    fn weighted_probs(
        g: &Graph,
        in_bundle: &[bool],
        jl_dims: usize,
        cg_tol: f64,
    ) -> Option<Vec<f64>> {
        let mut scratch = SamplingScratch::default();
        leverage_probabilities(
            g,
            in_bundle,
            jl_dims,
            cg_tol,
            7,
            OffBudget::Rate(0.25),
            &mut scratch,
        )
        .then_some(scratch.probs)
    }

    #[test]
    fn uniform_is_the_default_policy() {
        assert_eq!(SamplingPolicy::default(), SamplingPolicy::Uniform);
        assert_eq!(SamplingPolicy::default().name(), "uniform");
        assert_eq!(
            SamplingPolicy::effective_resistance(4, 1e-3).name(),
            "effective-resistance"
        );
        assert_eq!(
            SparsifyConfig::new(0.5, 2.0).sampling,
            SamplingPolicy::Uniform
        );
    }

    #[test]
    fn effective_resistance_fills_valid_probabilities() {
        let g = generators::erdos_renyi(80, 0.25, 1.0, 3);
        let mut in_bundle = vec![false; g.m()];
        in_bundle[0] = true;
        let probs = weighted_probs(&g, &in_bundle, 4, 1e-3).expect("weighted");
        assert_eq!(probs.len(), g.m());
        assert_eq!(probs[0], 1.0, "bundle edges stay certain");
        for &p in &probs {
            assert!((0.0..=1.0).contains(&p) && p > 0.0, "probability {p}");
        }
        // The expected kept count tracks the uniform budget (clamping moves it a bit).
        let expected: f64 = probs
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
        let probs = weighted_probs(&g, &vec![false; g.m()], 6, 1e-4).expect("weighted");
        let neck = g
            .edges()
            .iter()
            .position(|e| (e.u() < 20) != (e.v() < 20))
            .expect("barbell has a neck edge");
        assert_eq!(probs[neck], 1.0, "neck probability");
    }

    #[test]
    fn all_bundle_graph_falls_back_to_uniform() {
        let g = generators::cycle(10, 1.0);
        assert!(weighted_probs(&g, &vec![true; g.m()], 8, 1e-4).is_none());
    }

    #[test]
    #[should_panic(expected = "jl_dims")]
    fn policy_rejects_zero_dims() {
        let _ = SamplingPolicy::effective_resistance(0, 1e-4);
    }

    fn pass_cfg() -> ErPassConfig {
        // oversample 0.25 keeps q ≈ n log n, the regime where the pass compresses a
        // dense input without leaning on the forest skeleton for most of its edges.
        ErPassConfig::new()
            .with_oversample(0.25)
            .with_jl_dims(4)
            .with_cg_tol(1e-3)
    }

    #[test]
    fn identity_short_circuit_when_budget_covers_input() {
        let g = generators::erdos_renyi(120, 0.1, 1.0, 3);
        // Paper-faithful oversampling: q = 24 n log n / eps² vastly exceeds m.
        let cfg = ErPassConfig::new().with_oversample(24.0);
        let out = resparsify_er(&g, &cfg, 0.5, 11);
        assert!(!out.resampled);
        assert_eq!(out.solves, 0);
        assert_eq!(out.m_out, g.m());
        assert_eq!(out.sparsifier.edges(), g.edges());
    }

    #[test]
    fn resamples_dense_graph_below_input_size() {
        let g = generators::erdos_renyi(300, 0.4, 1.0, 7);
        let out = resparsify_er(&g, &pass_cfg(), 0.5, 11);
        assert!(out.resampled);
        assert_eq!(out.solves, 4);
        assert_eq!(out.m_in, g.m());
        assert!(
            out.m_out < g.m() / 2,
            "m_out {} vs m_in {}",
            out.m_out,
            out.m_in
        );
        assert!(is_connected(&out.sparsifier), "pass must keep connectivity");
    }

    #[test]
    fn spectral_quality_survives_the_pass() {
        let g = generators::erdos_renyi(200, 0.5, 1.0, 13);
        let cfg = pass_cfg().with_oversample(0.4).with_jl_dims(6);
        let out = resparsify_er(&g, &cfg, 0.5, 11);
        let bounds = approximation_bounds(&g, &out.sparsifier, &CertifyOptions::default());
        // Same style of envelope as the sparsify tests: two-sided and far from
        // degenerate (probe bounds at practical constants, not the paper's 1 ± ε).
        assert!(bounds.lower > 0.3, "lower {}", bounds.lower);
        assert!(bounds.upper < 3.0, "upper {}", bounds.upper);
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let g = generators::erdos_renyi(250, 0.3, 1.0, 23);
        let a = resparsify_er(&g, &pass_cfg(), 0.5, 11);
        let b = resparsify_er(&g, &pass_cfg(), 0.5, 11);
        assert_eq!(a.sparsifier.edges(), b.sparsifier.edges());
        let c = resparsify_er(&g, &pass_cfg(), 0.5, 99);
        assert_ne!(a.sparsifier.edges(), c.sparsifier.edges());
    }

    #[test]
    fn engine_scratch_path_matches_free_function() {
        let mut engine = SparsifyEngine::new();
        for seed in [1u64, 2, 3] {
            let g = generators::erdos_renyi(180, 0.3, 1.0, seed);
            let a = engine.resparsify_er(&g, &pass_cfg(), 0.5, 11);
            let b = resparsify_er(&g, &pass_cfg(), 0.5, 11);
            assert_eq!(a.sparsifier.edges(), b.sparsifier.edges());
            assert_eq!(a.m_out, b.m_out);
        }
    }

    #[test]
    fn bridge_edges_survive() {
        let g = generators::barbell(40, 1, 1.0, 1.0);
        let out = resparsify_er(&g, &pass_cfg(), 0.5, 11);
        if out.resampled {
            assert!(is_connected(&out.sparsifier));
            let has_neck = out
                .sparsifier
                .edges()
                .iter()
                .any(|e| (e.u() < 40) != (e.v() < 40));
            assert!(has_neck, "leverage-1 neck edge must clamp to p = 1");
        }
    }

    #[test]
    fn empty_graph_is_a_noop() {
        let g = Graph::from_edges_unchecked(5, Vec::new());
        let out = resparsify_er(&g, &pass_cfg(), 0.5, 11);
        assert!(!out.resampled);
        assert_eq!(out.m_out, 0);
    }
}
