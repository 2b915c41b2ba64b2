//! Work and size accounting for the sparsification experiments.
//!
//! The paper's parallel claims are stated in the CRCW PRAM model (work and depth). On a
//! shared-memory machine we report *operation counts* — edges examined by the spanner
//! construction plus edges touched by the sampling pass — as the work proxy, and the
//! number of outer rounds as the depth proxy. `tests/theorems.rs` checks the round
//! count against Theorem 5, and `tests/parallelism.rs` checks that the counters are
//! thread-count independent.

/// Aggregated counters for one sparsification run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkStats {
    /// Edge examinations performed by spanner/bundle constructions.
    pub spanner_work: u64,
    /// Edges touched by the per-edge sampling passes.
    pub sampling_work: u64,
    /// Number of `PARALLELSAMPLE` rounds executed.
    pub rounds: usize,
    /// Edge count of the graph entering each round.
    pub edges_per_round: Vec<usize>,
    /// Bundle size chosen in each round (the resolved `t`).
    pub bundle_t_per_round: Vec<usize>,
    /// Number of edges placed in the bundle in each round.
    pub bundle_edges_per_round: Vec<usize>,
}

impl WorkStats {
    /// Total work proxy (spanner plus sampling operations).
    pub fn total_work(&self) -> u64 {
        self.spanner_work + self.sampling_work
    }

    /// Merges the counters of a single round into the running totals.
    pub fn absorb_round(&mut self, other: &WorkStats) {
        self.spanner_work += other.spanner_work;
        self.sampling_work += other.sampling_work;
        self.rounds += other.rounds;
        self.edges_per_round
            .extend_from_slice(&other.edges_per_round);
        self.bundle_t_per_round
            .extend_from_slice(&other.bundle_t_per_round);
        self.bundle_edges_per_round
            .extend_from_slice(&other.bundle_edges_per_round);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_absorb() {
        let a = WorkStats {
            spanner_work: 10,
            sampling_work: 5,
            rounds: 1,
            edges_per_round: vec![100],
            bundle_t_per_round: vec![3],
            bundle_edges_per_round: vec![40],
        };
        let b = WorkStats {
            spanner_work: 20,
            sampling_work: 7,
            rounds: 1,
            edges_per_round: vec![60],
            bundle_t_per_round: vec![3],
            bundle_edges_per_round: vec![30],
        };
        let mut total = WorkStats::default();
        total.absorb_round(&a);
        total.absorb_round(&b);
        assert_eq!(total.total_work(), 42);
        assert_eq!(total.rounds, 2);
        assert_eq!(total.edges_per_round, vec![100, 60]);
        assert_eq!(total.bundle_edges_per_round, vec![40, 30]);
    }

    #[test]
    fn default_is_empty() {
        let s = WorkStats::default();
        assert_eq!(s.total_work(), 0);
        assert_eq!(s.rounds, 0);
        assert!(s.edges_per_round.is_empty());
    }
}
