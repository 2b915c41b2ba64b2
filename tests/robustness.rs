//! Robustness and failure-injection integration tests: degenerate inputs, extreme
//! weights, disconnected graphs, and repeated use of the public API the way a downstream
//! project would exercise it.

mod common;

use common::{fnv1a, on_pool};

use spectral_sparsify::distributed::{
    distributed_sample, distributed_sample_with_faults, distributed_spanner, distributed_sparsify,
    distributed_sparsify_with_faults, DistSpannerConfig, FaultConfig, FaultPlan, NetworkMetrics,
    ReliabilityConfig,
};
use spectral_sparsify::graph::{connectivity, generators, io, metrics, ops, Graph};
use spectral_sparsify::linalg::spectral::CertifyOptions;
use spectral_sparsify::prelude::*;
use spectral_sparsify::solver::{SddSolver, SolverConfig};
use spectral_sparsify::spanner::{baswana_sen_spanner, SpannerConfig};
use spectral_sparsify::sparsify::verify_sparsifier;

/// Sparsifying an already-sparse graph must be a no-op and never corrupt it.
#[test]
fn sparsifying_trees_and_cycles_is_identity() {
    for g in [
        generators::path(500, 1.0),
        generators::cycle(500, 2.0),
        generators::star(500, 0.5),
        generators::grid_spanning_tree(20, 25, 1.0),
    ] {
        let cfg = SparsifyConfig::new(0.5, 8.0)
            .with_bundle_sizing(BundleSizing::Fixed(3))
            .with_seed(1);
        let out = parallel_sparsify(&g, &cfg);
        assert_eq!(out.sparsifier.m(), g.m());
        assert_eq!(out.rounds_executed, 0);
    }
}

/// Extreme weight ranges (ten orders of magnitude) must not break the pipeline.
#[test]
fn extreme_weight_ranges_are_handled() {
    let mut g = generators::erdos_renyi(200, 0.3, 1.0, 7);
    // Rescale a slice of edges to extreme weights.
    for (i, e) in g.edges_mut().iter_mut().enumerate() {
        if i % 3 == 0 {
            e.w *= 1e6;
        } else if i % 3 == 1 {
            e.w *= 1e-6;
        }
    }
    assert!(connectivity::is_connected(&g));
    let spanner = baswana_sen_spanner(&g, &SpannerConfig::with_seed(3));
    let h = spanner.to_graph(&g);
    assert!(connectivity::is_connected(&h));

    let cfg = SparsifyConfig::new(0.5, 4.0)
        .with_bundle_sizing(BundleSizing::Fixed(4))
        .with_seed(3);
    let out = parallel_sparsify(&g, &cfg);
    assert!(connectivity::is_connected(&out.sparsifier));
    for e in out.sparsifier.edges() {
        assert!(e.w.is_finite() && e.w > 0.0);
    }
    let report = verify_sparsifier(&g, &out.sparsifier, &CertifyOptions::default());
    assert!(report.bounds.lower > 0.0);
    assert!(report.bounds.upper.is_finite());
}

/// The sparsifier preserves small cuts approximately (a necessary consequence of the
/// spectral guarantee, checked on the expander-dumbbell's unique sparse cut).
#[test]
fn sparse_cuts_are_preserved() {
    let g = generators::expander_dumbbell(200, 40, 1.0, 0.2, 5);
    let side: Vec<bool> = (0..g.n()).map(|v| v < 200).collect();
    let cut_before = metrics::cut_weight(&g, &side);
    let cfg = SparsifyConfig::new(0.5, 4.0)
        .with_bundle_sizing(BundleSizing::Fixed(3))
        .with_seed(11);
    let out = parallel_sparsify(&g, &cfg);
    let cut_after = metrics::cut_weight(&out.sparsifier, &side);
    // The single bridge edge has maximal leverage, so it must be in the first spanner
    // and is preserved exactly (never resampled/reweighted as long as it is in a bundle
    // in every executed round). Allow a factor-4 window to be safe across rounds.
    assert!(cut_after > 0.0, "cut destroyed");
    let ratio = cut_after / cut_before;
    assert!(ratio > 0.2 && ratio < 5.0, "cut ratio {ratio}");
}

/// Disconnected graphs: spanners, bundles and distributed spanners operate per
/// component; the sparsifier never connects what was disconnected.
#[test]
fn disconnected_inputs_stay_disconnected() {
    let a = generators::complete(40, 1.0);
    let b = generators::complete(40, 1.0);
    let mut g = Graph::new(80);
    for e in a.edges() {
        g.add_edge(e.u(), e.v(), e.w).unwrap();
    }
    for e in b.edges() {
        g.add_edge(40 + e.u(), 40 + e.v(), e.w).unwrap();
    }
    let (_, count) = connectivity::connected_components(&g);
    assert_eq!(count, 2);

    let spanner = baswana_sen_spanner(&g, &SpannerConfig::with_seed(1)).to_graph(&g);
    let (_, count) = connectivity::connected_components(&spanner);
    assert_eq!(count, 2);

    let dist = distributed_spanner(&g, &DistSpannerConfig::with_seed(1));
    let (_, count) = connectivity::connected_components(&g.with_edge_ids(&dist.edge_ids));
    assert_eq!(count, 2);

    let cfg = SparsifyConfig::new(0.5, 2.0)
        .with_bundle_sizing(BundleSizing::Fixed(2))
        .with_seed(1);
    let out = parallel_sample(&g, &cfg);
    let (_, count) = connectivity::connected_components(&out.sparsifier);
    assert_eq!(count, 2);
}

/// The solver answers many right-hand sides from one chain build, and the answers are
/// consistent with superposition (linearity of the solve).
#[test]
fn solver_reuse_and_superposition() {
    let g = generators::erdos_renyi(200, 0.1, 1.0, 13);
    let solver = SddSolver::for_laplacian(g, SolverConfig::default());
    let n = solver.system().n();
    let mut b1 = vec![0.0; n];
    b1[0] = 1.0;
    b1[50] = -1.0;
    let mut b2 = vec![0.0; n];
    b2[100] = 1.0;
    b2[150] = -1.0;
    let combo: Vec<f64> = b1.iter().zip(&b2).map(|(x, y)| 2.0 * x + 3.0 * y).collect();
    let x1 = solver.solve(&b1);
    let x2 = solver.solve(&b2);
    let xc = solver.solve(&combo);
    assert!(x1.converged && x2.converged && xc.converged);
    for i in 0..n {
        let lin = 2.0 * x1.solution[i] + 3.0 * x2.solution[i];
        assert!(
            (xc.solution[i] - lin).abs() < 1e-4 * (1.0 + lin.abs()),
            "index {i}"
        );
    }
}

/// Graph I/O round trip composed with sparsification: persist a sparsifier, reload it,
/// and verify the reloaded copy certifies identically.
#[test]
fn io_round_trip_preserves_sparsifier_quality() {
    let g = generators::erdos_renyi(150, 0.3, 1.0, 17);
    let cfg = SparsifyConfig::new(0.5, 4.0)
        .with_bundle_sizing(BundleSizing::Fixed(3))
        .with_seed(5);
    let h = parallel_sparsify(&g, &cfg).sparsifier;
    let text = io::to_string(&h);
    let reloaded = io::from_str(&text).unwrap();
    assert_eq!(h.n(), reloaded.n());
    assert_eq!(h.m(), reloaded.m());
    let x: Vec<f64> = (0..g.n()).map(|i| ((i * 31 % 17) as f64) - 8.0).collect();
    assert!((h.quadratic_form(&x) - reloaded.quadratic_form(&x)).abs() < 1e-9);
}

// ---------------------------------------------------------------------------
// Fault injection: pinned fixtures and graceful-degradation guarantees.
// ---------------------------------------------------------------------------

/// Thread widths every fault fixture is replayed at (1 is the reference).
const FAULT_WIDTHS: [usize; 4] = [1, 2, 4, 8];

fn fixture_graph() -> Graph {
    generators::erdos_renyi(120, 0.2, 1.0, 42)
}

/// A composite fault process exercising every fault class at once: i.i.d. loss,
/// duplication, bounded delay, a link outage window, and a vertex crash–restart.
fn stress_plan() -> FaultPlan {
    FaultPlan::iid_loss(0xFA_17, 0.08)
        .with_duplication(0.04)
        .with_delay(0.05, 3)
        .with_link_failure(3, 17, 5, 12)
        .with_crash(7, 8, 11)
}

/// Flattens the fault-relevant metric columns for compact fixture pinning.
fn fault_metrics_row(m: &NetworkMetrics) -> (usize, u64, u64, u64, u64, u64, u64, u64, u64) {
    (
        m.rounds,
        m.messages,
        m.dropped,
        m.duplicated,
        m.delayed,
        m.retransmits,
        m.acks,
        m.dup_suppressed,
        m.abandoned,
    )
}

/// Pinned expectation for `distributed_spanner` on [`fixture_graph`] with seed 1 under
/// [`stress_plan`], raw (no recovery layer): (edge_count, fnv1a(edge_ids),
/// rounds, messages, dropped, duplicated, delayed, retransmits, acks,
/// dup_suppressed, abandoned). Captured by `print_fault_fixtures` below.
const PINNED_RAW_FAULTS: (usize, u64, usize, u64, u64, u64, u64, u64, u64, u64, u64) = (
    405,
    0x3d98276c380ff058,
    34,
    21713,
    1814,
    799,
    1011,
    0,
    0,
    0,
    0,
);

/// Same run behind the reliable ack/retransmit layer with the default budget. Note the
/// edge fingerprint: it equals the *clean* er120/seed-1 golden fixture
/// (`tests/golden_distributed.rs`) — the recovery layer reconstructs the fault-free
/// computation exactly, at the price of ~6k retransmissions and 600 physical rounds.
const PINNED_FT_FAULTS: (usize, u64, usize, u64, u64, u64, u64, u64, u64, u64, u64) = (
    289,
    0x37a1df43685e0f4d,
    600,
    54547,
    4600,
    1957,
    2617,
    6205,
    26638,
    4833,
    1,
);

fn fault_fixture_row(ft: bool) -> (usize, u64, usize, u64, u64, u64, u64, u64, u64, u64, u64) {
    let g = fixture_graph();
    let mut cfg = DistSpannerConfig::with_seed(1).with_faults(stress_plan());
    if ft {
        cfg = cfg.with_fault_tolerance(ReliabilityConfig::default());
    }
    let r = distributed_spanner(&g, &cfg);
    let (rounds, messages, dropped, duplicated, delayed, retransmits, acks, dups, abandoned) =
        fault_metrics_row(&r.metrics);
    (
        r.edge_ids.len(),
        fnv1a(&r.edge_ids),
        rounds,
        messages,
        dropped,
        duplicated,
        delayed,
        retransmits,
        acks,
        dups,
        abandoned,
    )
}

/// Regenerates `PINNED_RAW_FAULTS` / `PINNED_FT_FAULTS` in source form:
///
/// ```sh
/// cargo test --release --test robustness -- --ignored print_fault_fixtures --nocapture
/// ```
#[test]
#[ignore = "fixture regeneration helper, run with --ignored --nocapture"]
fn print_fault_fixtures() {
    let fmt = |r: (usize, u64, usize, u64, u64, u64, u64, u64, u64, u64, u64)| {
        format!(
            "({}, {:#018x}, {}, {}, {}, {}, {}, {}, {}, {}, {})",
            r.0, r.1, r.2, r.3, r.4, r.5, r.6, r.7, r.8, r.9, r.10
        )
    };
    println!("PINNED_RAW_FAULTS: {}", fmt(fault_fixture_row(false)));
    println!("PINNED_FT_FAULTS:  {}", fmt(fault_fixture_row(true)));
}

/// A fixed seed plus a fixed `FaultPlan` reproduces the exact same spanner and the
/// exact same fault metrics at every thread width — fault coins are keyed on
/// `(round, from, to, seq)`, never on scheduling.
#[test]
fn fault_plan_fixtures_are_identical_across_thread_counts() {
    for ft in [false, true] {
        let pinned = if ft {
            PINNED_FT_FAULTS
        } else {
            PINNED_RAW_FAULTS
        };
        for w in FAULT_WIDTHS {
            let row = on_pool(w, || fault_fixture_row(ft));
            assert_eq!(row, pinned, "ft={ft} width={w}");
        }
    }
}

/// With an explicit `FaultPlan::none()` and no recovery layer, the byte stream —
/// edge ids and the full `NetworkMetrics`, fault columns included — is identical
/// to the default configuration: fault support costs nothing when off.
#[test]
fn clean_fault_config_is_byte_identical_to_default() {
    let g = fixture_graph();
    for seed in [1, 2, 3] {
        let base = distributed_spanner(&g, &DistSpannerConfig::with_seed(seed));
        let clean = distributed_spanner(
            &g,
            &DistSpannerConfig::with_seed(seed).with_faults(FaultPlan::none()),
        );
        assert_eq!(base.edge_ids, clean.edge_ids, "seed={seed}");
        assert_eq!(base.metrics, clean.metrics, "seed={seed}");
        assert_eq!(base.metrics.dropped, 0);
        assert_eq!(base.metrics.retransmits, 0);

        let cfg = SparsifyConfig::new(0.75, 4.0)
            .with_bundle_sizing(BundleSizing::Fixed(2))
            .with_seed(seed);
        let a = distributed_sample(&g, &cfg);
        let b = distributed_sample_with_faults(&g, &cfg, &FaultConfig::clean());
        assert_eq!(a.sparsifier.edges(), b.sparsifier.edges(), "seed={seed}");
        assert_eq!(a.metrics, b.metrics, "seed={seed}");
    }
}

/// The congest-loss benchmark's configuration (ε = 0.75, ρ = 4, t = 2; 5% i.i.d.
/// loss behind 12 fixed-timeout retries) on an input large enough to pass the
/// `2·n·log₂ n` stop threshold, so the reliable layer really carries traffic. The
/// lossy run must recover the clean sparsifier exactly, and both runs' communication
/// is pinned at every width: any change to sequence stamping, ack or retransmission
/// order, or the fault-coin positions moves these numbers.
#[test]
fn benchmark_reliable_delivery_configuration_is_pinned() {
    let g = generators::erdos_renyi(200, 0.3, 1.0, 42);
    let cfg = SparsifyConfig::new(0.75, 4.0)
        .with_bundle_sizing(BundleSizing::Fixed(2))
        .with_seed(1);
    let faults = FaultConfig {
        plan: FaultPlan::iid_loss(0xC0_4E57, 0.05),
        reliability: Some(ReliabilityConfig {
            timeout_rounds: 2,
            retry_budget: 12,
            backoff: false,
            max_subrounds: 512,
        }),
    };
    for w in [1, 2, 4] {
        let (clean, lossy) = on_pool(w, || {
            (
                distributed_sparsify(&g, &cfg),
                distributed_sparsify_with_faults(&g, &cfg, &faults),
            )
        });
        assert_eq!(
            lossy.sparsifier.edges(),
            clean.sparsifier.edges(),
            "width {w}: lossy run did not recover the clean output"
        );
        let c = &clean.metrics;
        assert_eq!(
            (clean.sparsifier.m(), c.rounds, c.messages),
            (2725, 86, 178276),
            "width {w}: clean run"
        );
        let l = &lossy.metrics;
        assert_eq!(
            (l.rounds, l.messages, l.total_bits),
            (529, 421579, 20327563),
            "width {w}: lossy traffic"
        );
        assert_eq!(
            (
                l.dropped,
                l.retransmits,
                l.acks,
                l.dup_suppressed,
                l.abandoned
            ),
            (22390, 22390, 205384, 10811, 0),
            "width {w}: reliable-layer ledger"
        );
    }
}

/// Under 10% i.i.d. loss with the default retry budget, the spanner terminates on
/// every golden graph family and the output is a connected subgraph whenever the
/// input is — the acceptance bar for graceful degradation.
#[test]
fn ft_spanner_survives_ten_percent_loss_on_golden_families() {
    let families: [(&str, Graph); 4] = [
        ("er120", generators::erdos_renyi(120, 0.2, 1.0, 42)),
        (
            "pa150",
            generators::preferential_attachment(150, 4, 1.0, 11),
        ),
        ("grid12", generators::grid2d(12, 12, 1.0)),
        ("complete40", generators::complete(40, 1.0)),
    ];
    for (name, g) in &families {
        for seed in [1, 2] {
            let cfg = DistSpannerConfig::with_seed(seed)
                .with_faults(FaultPlan::iid_loss(seed ^ 0x10_55, 0.10))
                .with_fault_tolerance(ReliabilityConfig::default());
            let r = distributed_spanner(g, &cfg);
            assert!(!r.edge_ids.is_empty(), "{name} seed={seed}");
            let h = g.with_edge_ids(&r.edge_ids);
            assert!(
                connectivity::is_connected(&h),
                "{name} seed={seed}: FT spanner disconnected"
            );
            assert!(
                r.metrics.retransmits > 0 || r.metrics.dropped == 0,
                "{name} seed={seed}: losses but no retransmissions"
            );
        }
    }
}

/// Even with no recovery layer at all, moderate loss must degrade the spanner
/// gracefully: the run terminates and never produces a corrupt view — the output
/// is still a connected (possibly larger) subgraph on a connected input.
#[test]
fn raw_loss_degrades_gracefully_without_recovery() {
    let g = fixture_graph();
    for (seed, p) in [(1u64, 0.05), (2, 0.10), (3, 0.20)] {
        let cfg =
            DistSpannerConfig::with_seed(seed).with_faults(FaultPlan::iid_loss(seed ^ 0xBAD, p));
        let r = distributed_spanner(&g, &cfg);
        assert!(!r.edge_ids.is_empty(), "seed={seed} p={p}");
        let h = g.with_edge_ids(&r.edge_ids);
        assert!(
            connectivity::is_connected(&h),
            "seed={seed} p={p}: degraded spanner disconnected"
        );
        assert!(
            r.metrics.dropped > 0,
            "seed={seed} p={p}: no faults injected"
        );
    }
}

/// The fault matrix: on er(400, deg 16), the spanner at loss 0, 5% and 10% is
/// connected on the raw transport and behind the default reliable layer alike.
#[test]
fn fault_matrix_spanners_stay_connected() {
    let g = generators::erdos_renyi(400, 16.0 / 399.0, 1.0, 9);
    assert!(
        connectivity::is_connected(&g),
        "the fault matrix input must be connected"
    );
    let seed = 3;
    let mut disconnected = Vec::new();
    for ft in [false, true] {
        for loss in [0.0, 0.05, 0.10] {
            let mut cfg = DistSpannerConfig::with_seed(seed);
            if loss > 0.0 {
                cfg = cfg.with_faults(FaultPlan::iid_loss(seed ^ 0xFA_17, loss));
            }
            if ft {
                cfg = cfg.with_fault_tolerance(ReliabilityConfig::default());
            }
            let r = distributed_spanner(&g, &cfg);
            if !connectivity::is_connected(&g.with_edge_ids(&r.edge_ids)) {
                let transport = if ft { "ft" } else { "raw" };
                disconnected.push(format!("loss={loss:.2} {transport}"));
            }
        }
    }
    assert!(
        disconnected.is_empty(),
        "disconnected spanner output: {disconnected:?}"
    );
}

/// Scaling a graph commutes with sparsification in distribution: sparsifying a*G with
/// the same seed produces exactly a times the sparsifier of G.
#[test]
fn sparsification_is_scale_equivariant() {
    let g = generators::erdos_renyi(250, 0.3, 1.0, 19);
    let scaled = ops::scale(&g, 3.0).unwrap();
    let cfg = SparsifyConfig::new(0.5, 4.0)
        .with_bundle_sizing(BundleSizing::Fixed(3))
        .with_seed(23);
    let out = parallel_sparsify(&g, &cfg);
    let out_scaled = parallel_sparsify(&scaled, &cfg);
    assert_eq!(out.sparsifier.m(), out_scaled.sparsifier.m());
    for (e, es) in out
        .sparsifier
        .edges()
        .iter()
        .zip(out_scaled.sparsifier.edges())
    {
        assert_eq!((e.u(), e.v()), (es.u(), es.v()));
        assert!((es.w - 3.0 * e.w).abs() < 1e-9 * es.w.max(1.0));
    }
}
