//! Effective-resistance resparsification of a finished sparsifier.
//!
//! This is the Spielman–Srivastava scheme (arXiv:0808.4134) run as a *final pass*: by
//! the time a pipeline (notably the `sgs-stream` merge-and-reduce tree) has produced a
//! sparsifier `H`, `H` is small enough that a handful of Laplacian solves on it is
//! cheap — so instead of keeping `H`'s uniform-coin size, one last leverage-weighted
//! pass samples `q ≈ oversample · n log n / ε²` edges proportionally to `w_e · R̃_e`
//! and reweights by `1/p_e`. High-leverage edges (cut edges, bridges) clamp to
//! probability 1 and survive deterministically; bulk intra-expander edges are thinned
//! aggressively. The pass composes spectrally: if `H ≈_δ G` and the pass certifies
//! `H' ≈_ε H`, then `H' ≈_{δ+ε} G` (first-order), which is how
//! `StreamSparsifier::finish` accounts for it in the epsilon ledger.
//!
//! Like `PARALLELSAMPLE` — which keeps its t-bundle spanner verbatim and flips coins
//! only off-bundle — the pass keeps a spanning forest of its input verbatim and spends
//! the sample budget on the off-forest edges. That makes connectivity (and hence a
//! non-degenerate lower spectral bound) unconditional, even at sample budgets far
//! below the `n log n` floor where plain independent sampling isolates vertices.
//!
//! When the requested sample budget `q` already reaches the input size `m`, the pass
//! returns the input unchanged (no solves) — resampling could only add variance.

use rayon::prelude::*;
use sgs_graph::{Edge, Graph};
use sgs_linalg::resistance::ResistanceOptions;

use crate::engine::SparsifyEngine;
use crate::sample::edge_coin;

/// Configuration of the ER-weighted final pass.
#[derive(Debug, Clone)]
pub struct ErPassConfig {
    /// Accuracy `ε` attributed to this pass in the caller's epsilon ledger.
    pub epsilon: f64,
    /// Constant `c` in the sample budget `q = c · n log₂ n / ε²`. The theory wants
    /// `c ≈ 9/δ²`-ish constants that exceed any practical input; values well below 1
    /// are where the pass actually reduces size (see `target_samples`).
    pub oversample: f64,
    /// When `Some(shrink)`, the sample budget is auto-tuned from the *observed* input
    /// size instead of the fixed `oversample` constant: the pass targets
    /// `q ≈ m_in / shrink` edges (floored at `n`, the spanning-forest scale, so a
    /// huge `shrink` cannot starve the skeleton). A fixed constant over- or
    /// under-shoots whenever the input's density differs from the density it was
    /// hand-tuned for; the auto mode makes "cut this graph by 4×" mean the same thing
    /// at every density. Only the *thresholds* move — the coin stream
    /// (`edge_coin(seed, id)`) is byte-identical to the fixed mode, per the strategy
    /// contract.
    pub auto_shrink: Option<f64>,
    /// Number of JL projection rows (= Laplacian solves).
    pub jl_dims: usize,
    /// CG relative-residual tolerance of each solve.
    pub cg_tol: f64,
    /// Seed of the sampling coin stream and the JL projections.
    pub seed: u64,
}

/// Iteration cap on the pass's CG solves; estimates steer sampling only.
const CG_MAX_ITERATIONS: usize = 1000;

impl ErPassConfig {
    /// Creates a pass configuration for accuracy `epsilon` with practical defaults
    /// (oversample 0.25, 8 projection rows at tolerance `1e-4`).
    pub fn new(epsilon: f64) -> ErPassConfig {
        assert!(epsilon > 0.0 && epsilon <= 1.0, "epsilon must be in (0, 1]");
        ErPassConfig {
            epsilon,
            oversample: 0.25,
            auto_shrink: None,
            jl_dims: 8,
            cg_tol: 1e-4,
            seed: 0xC0FFEE,
        }
    }

    /// Overrides the oversampling constant (and switches off auto-tuning).
    pub fn with_oversample(mut self, c: f64) -> Self {
        assert!(c > 0.0, "oversample must be positive");
        self.oversample = c;
        self.auto_shrink = None;
        self
    }

    /// Auto-tunes the sample budget from the observed input size: target
    /// `m_in / shrink` kept edges instead of the fixed `oversample` constant
    /// (see [`ErPassConfig::auto_shrink`]).
    pub fn with_auto_oversample(mut self, shrink: f64) -> Self {
        assert!(shrink >= 1.0, "shrink must be at least 1");
        self.auto_shrink = Some(shrink);
        self
    }

    /// Overrides the JL dimensions (projection rows).
    pub fn with_jl_dims(mut self, k: usize) -> Self {
        assert!(k > 0, "jl_dims must be positive");
        self.jl_dims = k;
        self
    }

    /// Overrides the CG tolerance.
    pub fn with_cg_tol(mut self, tol: f64) -> Self {
        assert!(tol > 0.0, "cg_tol must be positive");
        self.cg_tol = tol;
        self
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The expected number of sampled edges: `oversample · n · log₂ n / ε²`.
    pub fn target_samples(&self, n: usize) -> f64 {
        self.oversample * n as f64 * (n.max(2) as f64).log2() / (self.epsilon * self.epsilon)
    }

    /// The sample budget the pass actually runs with for an input of `n` vertices and
    /// `m_in` edges: [`ErPassConfig::target_samples`] in fixed mode, or
    /// `max(m_in / shrink, n)` when auto-tuning is enabled.
    pub fn resolved_target(&self, n: usize, m_in: usize) -> f64 {
        match self.auto_shrink {
            None => self.target_samples(n),
            Some(shrink) => (m_in as f64 / shrink).max(n as f64),
        }
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

/// Runs one leverage-weighted resampling pass over `g` (see module docs).
///
/// Deterministic in `(g, cfg)`: output is bitwise identical across thread counts.
pub fn resparsify_er(g: &Graph, cfg: &ErPassConfig) -> ErPassOutput {
    resparsify_on_engine(g, cfg, &mut SparsifyEngine::new())
}

/// Re-entrant [`resparsify_er`] reusing a caller-owned engine's JL/CG scratch.
pub(crate) fn resparsify_on_engine(
    g: &Graph,
    cfg: &ErPassConfig,
    engine: &mut SparsifyEngine,
) -> ErPassOutput {
    let n = g.n();
    let m = g.m();
    let q = cfg.resolved_target(n, m);

    // Identity short-circuit: asking for at least as many samples as there are edges
    // means every probability would clamp to ~1 — return the input unchanged and spend
    // zero solves. This is also the honest behavior under the paper-faithful constants,
    // whose q exceeds any practical m.
    if m == 0 || q >= m as f64 {
        return ErPassOutput {
            sparsifier: g.clone(),
            m_in: m,
            m_out: m,
            solves: 0,
            resampled: false,
        };
    }

    let scratch = &mut engine.sampling;
    let opts = ResistanceOptions {
        rows: cfg.jl_dims.max(1),
        tolerance: cfg.cg_tol,
        max_iterations: CG_MAX_ITERATIONS,
        seed: cfg.seed ^ 0x1337_C0DE_ACE1_D00D,
    };
    sgs_linalg::resistance::approx_effective_resistances_in(
        g,
        &opts,
        &mut scratch.resistance,
        &mut scratch.resistances,
    );

    // Connectivity skeleton: a spanning forest in edge order, kept verbatim (p = 1,
    // weight unchanged) exactly as PARALLELSAMPLE keeps its bundle. The remaining
    // budget is spent on the off-forest edges.
    let mut uf = sgs_graph::connectivity::UnionFind::new(n);
    scratch.forest.clear();
    scratch.forest.resize(m, false);
    let mut forest_edges = 0usize;
    for (id, e) in g.edges().iter().enumerate() {
        if uf.union(e.u, e.v) {
            scratch.forest[id] = true;
            forest_edges += 1;
        }
    }

    // Off-forest leverage scores and their sum, accumulated sequentially so the
    // normalizer — and therefore every probability — is bitwise independent of thread
    // scheduling. Forest edges carry probability 1 directly.
    let mut sum = 0.0;
    let mut off_edges = 0usize;
    scratch.probs.clear();
    for (id, e) in g.edges().iter().enumerate() {
        if scratch.forest[id] {
            scratch.probs.push(1.0);
            continue;
        }
        let s = (e.w * scratch.resistances[id]).max(0.0);
        scratch.probs.push(s);
        sum += s;
        off_edges += 1;
    }
    if off_edges == 0 || sum <= 0.0 {
        return ErPassOutput {
            sparsifier: g.clone(),
            m_in: m,
            m_out: m,
            solves: cfg.jl_dims,
            resampled: false,
        };
    }

    // p_e ∝ q_off · s_e / Σs on off-forest edges — where q_off is what remains of the
    // budget after the forest — floored so no kept edge is blown up by more than
    // 100/(q_off/m_off) and capped at 1 (leverage-1 edges become deterministic keeps).
    let q_off = (q - forest_edges as f64).max(0.0);
    let floor = (q_off / off_edges as f64 * 1e-2).min(1.0);
    for (id, p) in scratch.probs.iter_mut().enumerate() {
        if !scratch.forest[id] {
            *p = (q_off * *p / sum).clamp(floor, 1.0);
        }
    }

    let coin_seed = cfg.seed ^ 0xE57A_B1E5_EED5_EED5;
    let probs = &scratch.probs;
    let kept: Vec<Edge> = (0..m)
        .into_par_iter()
        .filter_map(|id| {
            let e = g.edge(id);
            let p = probs[id];
            if edge_coin(coin_seed, id as u64) < p {
                Some(Edge::new(e.u, e.v, e.w / p))
            } else {
                None
            }
        })
        .collect();

    let m_out = kept.len();
    ErPassOutput {
        sparsifier: Graph::from_edges_unchecked(n, kept),
        m_in: m,
        m_out,
        solves: cfg.jl_dims,
        resampled: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_graph::{connectivity::is_connected, generators};
    use sgs_linalg::spectral::{approximation_bounds, CertifyOptions};

    fn pass_cfg() -> ErPassConfig {
        // oversample 0.25 keeps q ≈ n log n, the regime where the pass compresses a
        // dense input without leaning on the forest skeleton for most of its edges.
        ErPassConfig::new(0.5)
            .with_oversample(0.25)
            .with_jl_dims(4)
            .with_cg_tol(1e-3)
            .with_seed(11)
    }

    #[test]
    fn identity_short_circuit_when_budget_covers_input() {
        let g = generators::erdos_renyi(120, 0.1, 1.0, 3);
        // Paper-faithful oversampling: q = 24 n log n / eps² vastly exceeds m.
        let cfg = ErPassConfig::new(0.5).with_oversample(24.0);
        let out = resparsify_er(&g, &cfg);
        assert!(!out.resampled);
        assert_eq!(out.solves, 0);
        assert_eq!(out.m_out, g.m());
        assert_eq!(out.sparsifier.edges(), g.edges());
    }

    #[test]
    fn resamples_dense_graph_below_input_size() {
        let g = generators::erdos_renyi(300, 0.4, 1.0, 7);
        let out = resparsify_er(&g, &pass_cfg());
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
        let out = resparsify_er(&g, &pass_cfg().with_oversample(0.4).with_jl_dims(6));
        let bounds = approximation_bounds(&g, &out.sparsifier, &CertifyOptions::default());
        // Same style of envelope as the sparsify tests: two-sided and far from
        // degenerate (probe bounds at practical constants, not the paper's 1 ± ε).
        assert!(bounds.lower > 0.3, "lower {}", bounds.lower);
        assert!(bounds.upper < 3.0, "upper {}", bounds.upper);
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let g = generators::erdos_renyi(250, 0.3, 1.0, 23);
        let a = resparsify_er(&g, &pass_cfg());
        let b = resparsify_er(&g, &pass_cfg());
        assert_eq!(a.sparsifier.edges(), b.sparsifier.edges());
        let c = resparsify_er(&g, &pass_cfg().with_seed(99));
        assert_ne!(a.sparsifier.edges(), c.sparsifier.edges());
    }

    #[test]
    fn engine_scratch_path_matches_free_function() {
        let mut engine = SparsifyEngine::new();
        for seed in [1u64, 2, 3] {
            let g = generators::erdos_renyi(180, 0.3, 1.0, seed);
            let a = engine.resparsify_er(&g, &pass_cfg());
            let b = resparsify_er(&g, &pass_cfg());
            assert_eq!(a.sparsifier.edges(), b.sparsifier.edges());
            assert_eq!(a.m_out, b.m_out);
        }
    }

    #[test]
    fn auto_oversample_tracks_observed_input_size() {
        // The same config must mean "cut by ~4x" at two very different densities —
        // exactly what a fixed constant cannot do.
        let cfg = pass_cfg().with_auto_oversample(4.0);
        for (p, seed) in [(0.15, 5u64), (0.5, 9)] {
            let g = generators::erdos_renyi(300, p, 1.0, seed);
            let out = resparsify_er(&g, &cfg);
            assert!(out.resampled);
            let target = g.m() as f64 / 4.0;
            let got = out.m_out as f64;
            assert!(
                (got - target).abs() < 4.0 * target.sqrt() + 0.05 * target,
                "p={p}: m_out {got} vs target {target}"
            );
            assert!(is_connected(&out.sparsifier));
        }
    }

    #[test]
    fn auto_oversample_shrink_one_is_the_identity() {
        // q = m_in / 1 = m_in triggers the short-circuit: nothing to thin.
        let g = generators::erdos_renyi(200, 0.3, 1.0, 3);
        let out = resparsify_er(&g, &pass_cfg().with_auto_oversample(1.0));
        assert!(!out.resampled);
        assert_eq!(out.sparsifier.edges(), g.edges());
    }

    #[test]
    fn auto_mode_consumes_the_same_coin_stream_as_fixed_mode() {
        // Auto-tuning only moves thresholds, never draws: a fixed config whose
        // target_samples equals the auto budget must produce the identical output.
        let g = generators::erdos_renyi(250, 0.4, 1.0, 17);
        let (n, m) = (g.n(), g.m());
        let auto = pass_cfg().with_auto_oversample(4.0);
        let q = auto.resolved_target(n, m);
        // Solve q = c · n log₂ n / ε² for the equivalent fixed constant.
        let eps = auto.epsilon;
        let c = q * eps * eps / (n as f64 * (n as f64).log2());
        let fixed = pass_cfg().with_oversample(c);
        let a = resparsify_er(&g, &auto);
        let b = resparsify_er(&g, &fixed);
        assert!(a.resampled && b.resampled);
        // Compare kept edge identities (weights differ in the last ulps because the
        // fixed constant is a float roundtrip of the auto budget).
        let ids = |o: &ErPassOutput| -> Vec<(usize, usize)> {
            o.sparsifier.edges().iter().map(|e| (e.u, e.v)).collect()
        };
        assert_eq!(ids(&a), ids(&b));
    }

    #[test]
    fn with_oversample_resets_auto_mode() {
        let cfg = pass_cfg().with_auto_oversample(8.0).with_oversample(0.3);
        assert!(cfg.auto_shrink.is_none());
        assert_eq!(cfg.resolved_target(100, 5000), cfg.target_samples(100));
    }

    #[test]
    fn bridge_edges_survive() {
        let g = generators::barbell(40, 1, 1.0, 1.0);
        let out = resparsify_er(&g, &pass_cfg());
        if out.resampled {
            assert!(is_connected(&out.sparsifier));
            let has_neck = out
                .sparsifier
                .edges()
                .iter()
                .any(|e| (e.u < 40) != (e.v < 40));
            assert!(has_neck, "leverage-1 neck edge must clamp to p = 1");
        }
    }

    #[test]
    fn empty_graph_is_a_noop() {
        let g = Graph::from_edges_unchecked(5, Vec::new());
        let out = resparsify_er(&g, &pass_cfg());
        assert!(!out.resampled);
        assert_eq!(out.m_out, 0);
    }
}
