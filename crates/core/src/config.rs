//! Configuration of the sparsification algorithms.

use crate::leverage::SamplingPolicy;

/// How the bundle parameter `t` of `PARALLELSAMPLE` is chosen.
///
/// The paper's analysis (Theorem 4) sets `t = 24 log² n / ε²`, which certifies the
/// `(1 ± ε)` bound with probability `1 − 1/n²` but is far too large to be useful on
/// graphs of practical size — the bundle alone would exceed the input. This is a purely
/// constant-factor phenomenon (the analysis is worst-case over the matrix Chernoff
/// bound), and every implementation of resistance-based sampling scales such constants
/// down. The enum makes the choice explicit and lets experiments sweep it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BundleSizing {
    /// The paper's constant: `t = ⌈24 log₂² n / ε²⌉`.
    Paper,
    /// A scaled version of the paper's formula: `t = ⌈c · log₂² n / ε²⌉`.
    Scaled(f64),
    /// A fixed bundle size, independent of `n` and `ε`.
    Fixed(usize),
}

impl BundleSizing {
    /// Resolves the bundle parameter `t` for a graph with `n` vertices and accuracy
    /// target `eps`.
    pub fn resolve(&self, n: usize, eps: f64) -> usize {
        let log_n = (n.max(2) as f64).log2();
        let t = match self {
            BundleSizing::Paper => 24.0 * log_n * log_n / (eps * eps),
            BundleSizing::Scaled(c) => c * log_n * log_n / (eps * eps),
            BundleSizing::Fixed(t) => return (*t).max(1),
        };
        (t.ceil() as usize).max(1)
    }
}

/// Configuration of `PARALLELSAMPLE` / `PARALLELSPARSIFY`.
#[derive(Debug, Clone)]
pub struct SparsifyConfig {
    /// Overall accuracy target `ε` (the output is a `(1 ± ε)` approximation w.h.p.).
    pub epsilon: f64,
    /// Sparsification factor `ρ`: the off-bundle edge mass shrinks by roughly `ρ`.
    pub rho: f64,
    /// How the bundle parameter `t` is chosen per round.
    pub bundle_sizing: BundleSizing,
    /// Probability with which each off-bundle edge is kept (the paper fixes 1/4; kept
    /// configurable for the ablation benchmarks).
    pub keep_probability: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Stop iterating once the graph has at most this many times `n · log₂ n` edges;
    /// mirrors the "threshold of applicability" discussion in Section 4.
    pub stop_below_nlogn_factor: f64,
    /// How off-bundle keep probabilities are assigned (uniform coin by default).
    pub sampling: SamplingPolicy,
}

impl SparsifyConfig {
    /// Creates a configuration with the given accuracy `ε` and sparsification factor
    /// `ρ`, using a practically sized bundle (`Scaled(0.5)`) and keep probability 1/4.
    pub fn new(epsilon: f64, rho: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon <= 1.0, "epsilon must be in (0, 1]");
        assert!(rho >= 1.0, "rho must be at least 1");
        SparsifyConfig {
            epsilon,
            rho,
            bundle_sizing: BundleSizing::Scaled(0.5),
            keep_probability: 0.25,
            seed: 0xC0FFEE,
            stop_below_nlogn_factor: 2.0,
            sampling: SamplingPolicy::Uniform,
        }
    }

    /// Overrides the bundle sizing rule.
    pub fn with_bundle_sizing(mut self, sizing: BundleSizing) -> Self {
        self.bundle_sizing = sizing;
        self
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the keep probability (must be in `(0, 1)`).
    pub fn with_keep_probability(mut self, p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "keep probability must be in (0, 1)");
        self.keep_probability = p;
        self
    }

    /// Selects the off-bundle sampling policy (see [`SamplingPolicy`]).
    pub fn with_sampling(mut self, sampling: SamplingPolicy) -> Self {
        self.sampling = sampling;
        self
    }

    /// Number of outer rounds `⌈log₂ ρ⌉` (Algorithm 2, line 2).
    pub fn rounds(&self) -> usize {
        (self.rho.log2().ceil() as usize).max(1)
    }

    /// Per-round accuracy `ε / ⌈log₂ ρ⌉` (Algorithm 2, line 3).
    pub fn per_round_epsilon(&self) -> f64 {
        self.epsilon / self.rounds() as f64
    }

    /// Early-stop edge count `⌈stop_below_nlogn_factor · n log₂ n⌉` on `n` vertices:
    /// `PARALLELSPARSIFY` runs no further round on a graph this sparse.
    pub fn stop_threshold(&self, n: usize) -> usize {
        (self.stop_below_nlogn_factor * n as f64 * (n.max(2) as f64).log2()).ceil() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constant_matches_formula() {
        let n = 1024;
        let eps = 0.5;
        let t = BundleSizing::Paper.resolve(n, eps);
        let expected = (24.0f64 * 10.0 * 10.0 / 0.25).ceil() as usize;
        assert_eq!(t, expected);
    }

    #[test]
    fn scaled_and_fixed_sizing() {
        assert_eq!(BundleSizing::Fixed(7).resolve(10_000, 0.1), 7);
        assert_eq!(BundleSizing::Fixed(0).resolve(10, 0.1), 1);
        let a = BundleSizing::Scaled(1.0).resolve(1024, 1.0);
        let b = BundleSizing::Scaled(2.0).resolve(1024, 1.0);
        assert_eq!(a, 100);
        assert_eq!(b, 200);
        // Smaller epsilon means more bundle components.
        assert!(BundleSizing::Scaled(1.0).resolve(1024, 0.5) > a);
    }

    #[test]
    fn rounds_and_per_round_epsilon() {
        let cfg = SparsifyConfig::new(0.6, 8.0);
        assert_eq!(cfg.rounds(), 3);
        assert!((cfg.per_round_epsilon() - 0.2).abs() < 1e-12);
        let cfg = SparsifyConfig::new(0.6, 1.0);
        assert_eq!(cfg.rounds(), 1);
        let cfg = SparsifyConfig::new(0.6, 5.0);
        assert_eq!(cfg.rounds(), 3);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_bad_epsilon() {
        let _ = SparsifyConfig::new(0.0, 2.0);
    }

    #[test]
    #[should_panic(expected = "rho")]
    fn rejects_bad_rho() {
        let _ = SparsifyConfig::new(0.5, 0.5);
    }

    #[test]
    #[should_panic(expected = "keep probability")]
    fn rejects_bad_keep_probability() {
        let _ = SparsifyConfig::new(0.5, 2.0).with_keep_probability(1.5);
    }

    #[test]
    fn builder_methods_compose() {
        let cfg = SparsifyConfig::new(0.3, 16.0)
            .with_seed(9)
            .with_bundle_sizing(BundleSizing::Fixed(5))
            .with_keep_probability(0.5)
            .with_sampling(SamplingPolicy::effective_resistance(4, 1e-3));
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.bundle_sizing, BundleSizing::Fixed(5));
        assert_eq!(cfg.keep_probability, 0.5);
        assert_eq!(cfg.rounds(), 4);
        assert_eq!(cfg.sampling.name(), "effective-resistance");
        assert_eq!(SparsifyConfig::new(0.3, 2.0).sampling.name(), "uniform");
    }
}
