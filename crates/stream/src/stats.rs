//! Accounting for the merge-and-reduce tree.
//!
//! The streaming engine's contract is *bounded memory with a provable accuracy
//! budget*; [`StreamStats`] carries the numbers that substantiate both halves — peak
//! resident edges for the memory claim, and the per-depth ε/work ledger for the
//! accuracy claim.

/// Counters of one application depth of the reduce tree (depth 0 = leaf reductions,
/// depth `j` = reductions whose inputs already went through `j` sparsifications).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LevelStats {
    /// The ε spent by each reduction at this depth.
    pub epsilon: f64,
    /// Number of reductions run at this depth.
    pub reductions: u64,
    /// Total edges entering reductions at this depth (union sizes; raw edges for
    /// leaves).
    pub edges_in: u64,
    /// Total edges surviving reductions at this depth.
    pub edges_out: u64,
    /// Spanner work (edge examinations) accumulated at this depth.
    pub spanner_work: u64,
    /// Sampling work (edges touched by coin flips) accumulated at this depth.
    pub sampling_work: u64,
}

/// Ledger entry of the ER-weighted final pass (when `StreamConfig::final_pass` is
/// set and `finish` ran it).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ErPassStats {
    /// The ε reserved for (and, if `resampled`, spent by) the pass.
    pub epsilon: f64,
    /// Edges entering the pass (the tree's final sparsifier).
    pub m_in: u64,
    /// Edges surviving the pass.
    pub m_out: u64,
    /// Laplacian solves performed by the resistance estimate.
    pub solves: u64,
    /// Whether the pass actually resampled; `false` means it short-circuited (its
    /// sample budget covered the input) and spent no accuracy.
    pub resampled: bool,
}

/// Byte-level ledger of the [`crate::store::SpillStore`]: what was written to and
/// read back from disk.
///
/// These are the *storage* columns of [`StreamStats`] — unlike every other column
/// they legitimately differ between runs with and without a spill budget on the same
/// stream (that difference is the whole point), so determinism fixtures comparing
/// the two must exclude them (see [`StreamStats::eq_modulo_storage`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillLedger {
    /// Tree nodes written to disk.
    pub spilled_nodes: u64,
    /// Edges written to disk (sum over spilled nodes).
    pub spilled_edges: u64,
    /// Bytes written to disk (binary-format file sizes, headers included).
    pub spilled_bytes: u64,
    /// Spilled nodes read back for a reduction.
    pub readback_nodes: u64,
    /// Edges read back from disk.
    pub readback_edges: u64,
    /// Bytes read back from disk.
    pub readback_bytes: u64,
}

/// Aggregated counters for one streaming run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamStats {
    /// Total edges ingested.
    pub edges_ingested: u64,
    /// Number of `ingest_*` calls (the caller's batching granularity — informational;
    /// it never influences the output).
    pub batches_ingested: u64,
    /// Leaf reductions fired (full leaves during the stream plus at most one short
    /// leaf at `finish`).
    pub leaves: u64,
    /// Reductions forced by budget pressure rather than a full fan-in.
    pub forced_reductions: u64,
    /// Maximum number of simultaneously resident edges observed: leaf buffer +
    /// pending sparsifiers + in-flight merge unions. This is the number the
    /// `budget_edges` knob bounds (engine workspace such as the spanner CSR is
    /// proportional to the same quantity and not double-counted).
    pub peak_resident_edges: usize,
    /// Application depth of the final sparsifier (number of ε-schedule entries its
    /// data passed through on the deepest path).
    pub final_depth: usize,
    /// Maximum edge **bytes** simultaneously held in RAM: the same census points as
    /// [`peak_resident_edges`](Self::peak_resident_edges), but counting only edges
    /// actually resident (spilled nodes excluded) at `size_of::<Edge>()` bytes each,
    /// plus the transient read-back spike while a spilled child is drained into the
    /// merge scratch. Without a spill budget this is about `16 · peak_resident_edges`
    /// (`EDGE_BYTES` per edge); with one it is the number the out-of-core RSS budget
    /// bounds.
    pub peak_resident_bytes: usize,
    /// Per-depth ledger, indexed by application depth.
    pub levels: Vec<LevelStats>,
    /// Ledger of the ER-weighted final pass, `None` unless one was configured and ran.
    pub er_pass: Option<ErPassStats>,
    /// Spill/readback ledger of the node store (all zeros without a spill budget).
    pub spill: SpillLedger,
}

impl StreamStats {
    /// The level entry for depth `j`, growing the ledger on first use.
    pub(crate) fn level_mut(&mut self, j: usize, epsilon: f64) -> &mut LevelStats {
        while self.levels.len() <= j {
            self.levels.push(LevelStats::default());
        }
        let level = &mut self.levels[j];
        level.epsilon = epsilon;
        level
    }

    /// Total ε actually spent: the sum of the schedule entries of every depth where at
    /// least one reduction *sampled* (reductions whose input was already below the
    /// early-stop threshold return it unchanged, cost no accuracy, and are not
    /// charged). Always at most the configured `ε_total` — this is the accounting side
    /// of the end-to-end `(1 ± ε_total)` guarantee.
    pub fn epsilon_spent(&self) -> f64 {
        let tree: f64 = self
            .levels
            .iter()
            .filter(|l| l.sampling_work > 0)
            .map(|l| l.epsilon)
            .sum();
        // The final pass only charges its reservation when it actually resampled.
        let pass = self
            .er_pass
            .as_ref()
            .filter(|p| p.resampled)
            .map(|p| p.epsilon)
            .unwrap_or(0.0);
        tree + pass
    }

    /// Equality of every *algorithmic* column, ignoring the storage columns
    /// ([`spill`](Self::spill) and [`peak_resident_bytes`](Self::peak_resident_bytes))
    /// that legitimately differ between runs with and without a spill budget. This
    /// is the comparison the spill-determinism fixtures pin: same edges, same
    /// weights, same ledger — only *where the bytes lived* may differ.
    pub fn eq_modulo_storage(&self, other: &StreamStats) -> bool {
        let mut a = self.clone();
        let mut b = other.clone();
        a.spill = SpillLedger::default();
        b.spill = SpillLedger::default();
        a.peak_resident_bytes = 0;
        b.peak_resident_bytes = 0;
        a == b
    }

    /// Total work proxy across all reductions (spanner + sampling operations), the
    /// same measure as `sgs_core::WorkStats::total_work`.
    pub fn total_work(&self) -> u64 {
        self.levels
            .iter()
            .map(|l| l.spanner_work + l.sampling_work)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_grows_and_aggregates() {
        let mut s = StreamStats::default();
        {
            let l0 = s.level_mut(0, 0.25);
            l0.reductions += 2;
            l0.spanner_work += 10;
            l0.sampling_work += 5;
        }
        {
            let l2 = s.level_mut(2, 0.0625);
            l2.reductions += 1;
            l2.sampling_work += 7;
        }
        assert_eq!(s.levels.len(), 3);
        assert_eq!(s.levels[1].reductions, 0);
        // Depth 1 never ran, so its ε is not spent.
        assert!((s.epsilon_spent() - (0.25 + 0.0625)).abs() < 1e-12);
        assert_eq!(s.total_work(), 22);
    }

    #[test]
    fn default_is_empty() {
        let s = StreamStats::default();
        assert_eq!(s.epsilon_spent(), 0.0);
        assert_eq!(s.total_work(), 0);
        assert_eq!(s.peak_resident_edges, 0);
        assert!(s.er_pass.is_none());
    }

    #[test]
    fn er_pass_charges_epsilon_only_when_resampled() {
        let mut s = StreamStats::default();
        s.level_mut(0, 0.25).sampling_work += 1;
        s.er_pass = Some(ErPassStats {
            epsilon: 0.1,
            m_in: 100,
            m_out: 100,
            solves: 0,
            resampled: false,
        });
        assert!((s.epsilon_spent() - 0.25).abs() < 1e-12);
        s.er_pass.as_mut().unwrap().resampled = true;
        assert!((s.epsilon_spent() - 0.35).abs() < 1e-12);
    }
}
