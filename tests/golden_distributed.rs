//! Golden equivalence fixtures for the distributed (CONGEST) protocol engine.
//!
//! These values were captured from the pre-rewrite (PR-3-era) implementation —
//! `Vec<Vec>` mailboxes, per-vertex `BTreeMap` state — across three seeds and
//! four graph families. The allocation-free engine (flat CSR mailboxes +
//! `ViewCsr` incidence + rayon vertex sweeps) must reproduce every byte of
//! them: the protocol's ChaCha8 cluster-sampling stream, the selected edge
//! ids, **and** the full `NetworkMetrics` (rounds / messages / bits) are the
//! quantities Theorem 2 and Corollary 3 are about, so the rewrite is supposed
//! to change *nothing* here.
//!
//! The one intentional stream change of this PR is pinned separately: the
//! off-bundle coin of `distributed_sample` moved from a fresh per-edge
//! `ChaCha8Rng` to the shared `sgs_core::edge_coin` counter mix, so the
//! sparsifier fingerprints below were captured *after* that satellite fix
//! (communication metrics were unaffected — sampling is local).
//!
//! If a legitimate protocol change ever alters these streams, re-pin by
//! running the committed fixture printer and pasting its output over the
//! tables below:
//!
//! ```sh
//! cargo test --release --test golden_distributed -- --ignored print_current_fixtures --nocapture
//! ```
//!
//! and call out the metric change in CHANGES.md.

use spectral_sparsify::distributed::{distributed_sample, distributed_spanner, DistSpannerConfig};
use spectral_sparsify::graph::{generators, Graph};
use spectral_sparsify::sparsify::{BundleSizing, SamplingPolicy, SparsifyConfig};

/// FNV-1a over the little-endian bytes of each id: the same stable fingerprint
/// of an ordered id list that `tests/golden_spanner.rs` uses.
fn fnv1a(ids: &[usize]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &id in ids {
        for b in (id as u64).to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Fingerprint of a sparsifier: FNV-1a over endpoints and weight bits of every
/// edge in order (edge order is part of the deterministic contract).
fn graph_fingerprint(g: &Graph) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for e in g.edges() {
        mix(e.u as u64);
        mix(e.v as u64);
        mix(e.w.to_bits());
    }
    h
}

fn graph(name: &str) -> Graph {
    match name {
        "er120" => generators::erdos_renyi(120, 0.2, 1.0, 42),
        "pa150" => generators::preferential_attachment(150, 4, 1.0, 11),
        "grid12" => generators::grid2d(12, 12, 1.0),
        "complete40" => generators::complete(40, 1.0),
        other => panic!("unknown fixture graph {other}"),
    }
}

const FIXTURE_GRAPHS: &[&str] = &["er120", "pa150", "grid12", "complete40"];
const FIXTURE_SEEDS: &[u64] = &[1, 2, 3];

/// (graph, seed, edge_count, fnv1a(edge_ids), rounds, messages, total_bits,
/// max_message_bits) for `distributed_spanner` with the default `k`.
type SpannerFixture = (&'static str, u64, usize, u64, usize, u64, u64, usize);

const GOLDEN_SPANNER: &[SpannerFixture] = &[
    ("er120", 1, 289, 0x8a40c27e01a53caa, 34, 20832, 624146, 33),
    ("er120", 2, 434, 0xf69aab6b2642f281, 34, 22279, 662631, 33),
    ("er120", 3, 259, 0xb3d61eca6fdb0192, 34, 22776, 692793, 33),
    ("pa150", 1, 399, 0x4e55ac8f9829c4f6, 43, 9259, 244680, 33),
    ("pa150", 2, 289, 0xf0369653cbfa6aa2, 43, 10739, 269680, 33),
    ("pa150", 3, 432, 0xe93a1d449c2d7f33, 43, 9168, 243582, 33),
    ("grid12", 1, 252, 0x31b16f559e8a28df, 43, 4591, 98278, 33),
    ("grid12", 2, 244, 0x40940884046aa44a, 43, 4537, 97119, 33),
    ("grid12", 3, 249, 0x843533ab5ce525a8, 43, 4311, 94888, 33),
    (
        "complete40",
        1,
        107,
        0x58a9bae1a44d2443,
        26,
        8714,
        270466,
        33,
    ),
    (
        "complete40",
        2,
        94,
        0xddbb22fbfff43eb0,
        26,
        10100,
        316626,
        33,
    ),
    (
        "complete40",
        3,
        180,
        0x197e5d0fd4c5350d,
        26,
        10252,
        323226,
        33,
    ),
];

/// (graph, seed, bundle_edges, sparsifier_m, graph_fingerprint, rounds,
/// messages, total_bits) for `distributed_sample` with
/// `SparsifyConfig::new(0.75, 4.0)`, `BundleSizing::Fixed(2)`.
type SampleFixture = (&'static str, u64, usize, usize, u64, usize, u64, u64);

const GOLDEN_SAMPLE: &[SampleFixture] = &[
    ("er120", 1, 574, 771, 0xd327ba7bf7cd7db8, 68, 39392, 1180421),
    ("er120", 2, 740, 906, 0x7b83d1b30a150ab0, 68, 42235, 1264807),
    ("er120", 3, 804, 961, 0xa696dddc51a05ee7, 68, 44552, 1346669),
    ("pa150", 1, 567, 572, 0x0127f10fa0a29ee5, 86, 14769, 401752),
    ("pa150", 2, 512, 537, 0x21a867a6fa9e5395, 86, 20365, 524183),
    ("pa150", 3, 576, 577, 0x9ff9f7b5e2c6f48a, 86, 14718, 401761),
    ("grid12", 1, 264, 264, 0xa1f838b10024ccc1, 86, 5772, 134996),
    ("grid12", 2, 264, 264, 0xa1f838b10024ccc1, 86, 5891, 138575),
    ("grid12", 3, 264, 264, 0xa1f838b10024ccc1, 86, 5739, 137932),
    (
        "complete40",
        1,
        227,
        346,
        0xfdd7c32f3cca0a0f,
        52,
        18437,
        574173,
    ),
    (
        "complete40",
        2,
        240,
        380,
        0x6df215c4687d3744,
        52,
        20015,
        626060,
    ),
    (
        "complete40",
        3,
        252,
        394,
        0x1fae6c8b56721f83,
        52,
        19900,
        626764,
    ),
];

fn sample_cfg(seed: u64) -> SparsifyConfig {
    SparsifyConfig::new(0.75, 4.0)
        .with_bundle_sizing(BundleSizing::Fixed(2))
        .with_seed(seed)
}

/// Regenerates the fixture tables in source form (see the module docs for the
/// exact invocation). Ignored by default: running it never fails, it only
/// prints.
#[test]
#[ignore = "fixture regeneration helper, run with --ignored --nocapture"]
fn print_current_fixtures() {
    println!("const GOLDEN_SPANNER: &[SpannerFixture] = &[");
    for &name in FIXTURE_GRAPHS {
        let g = graph(name);
        for &seed in FIXTURE_SEEDS {
            let r = distributed_spanner(&g, &DistSpannerConfig::with_seed(seed));
            println!(
                "    (\"{name}\", {seed}, {}, {:#018x}, {}, {}, {}, {}),",
                r.edge_ids.len(),
                fnv1a(&r.edge_ids),
                r.metrics.rounds,
                r.metrics.messages,
                r.metrics.total_bits,
                r.metrics.max_message_bits,
            );
        }
    }
    println!("];\nconst GOLDEN_SAMPLE: &[SampleFixture] = &[");
    for &name in FIXTURE_GRAPHS {
        let g = graph(name);
        for &seed in FIXTURE_SEEDS {
            let out = distributed_sample(&g, &sample_cfg(seed));
            println!(
                "    (\"{name}\", {seed}, {}, {}, {:#018x}, {}, {}, {}),",
                out.bundle_edges,
                out.sparsifier.m(),
                graph_fingerprint(&out.sparsifier),
                out.metrics.rounds,
                out.metrics.messages,
                out.metrics.total_bits,
            );
        }
    }
    println!("];");
}

#[test]
fn distributed_spanner_matches_pre_rewrite_fixtures() {
    assert!(!GOLDEN_SPANNER.is_empty(), "fixtures not captured");
    for &(name, seed, len, hash, rounds, messages, bits, max_bits) in GOLDEN_SPANNER {
        let g = graph(name);
        let r = distributed_spanner(&g, &DistSpannerConfig::with_seed(seed));
        assert_eq!(
            (
                r.edge_ids.len(),
                fnv1a(&r.edge_ids),
                r.metrics.rounds,
                r.metrics.messages,
                r.metrics.total_bits,
                r.metrics.max_message_bits,
            ),
            (len, hash, rounds, messages, bits, max_bits),
            "{name} seed={seed}"
        );
    }
}

#[test]
fn distributed_sample_matches_fixtures() {
    assert!(!GOLDEN_SAMPLE.is_empty(), "fixtures not captured");
    for &(name, seed, bundle, m_out, fp, rounds, messages, bits) in GOLDEN_SAMPLE {
        let g = graph(name);
        // The CONGEST sampler runs the uniform coin whatever `cfg.sampling` says, so
        // an effective-resistance policy must reproduce the uniform fixture.
        let er_cfg = sample_cfg(seed).with_sampling(SamplingPolicy::effective_resistance(4, 1e-3));
        for (policy, cfg) in [("uniform", sample_cfg(seed)), ("er", er_cfg)] {
            let out = distributed_sample(&g, &cfg);
            assert_eq!(
                (
                    out.bundle_edges,
                    out.sparsifier.m(),
                    graph_fingerprint(&out.sparsifier),
                    out.metrics.rounds,
                    out.metrics.messages,
                    out.metrics.total_bits,
                ),
                (bundle, m_out, fp, rounds, messages, bits),
                "{name} seed={seed} policy={policy}"
            );
        }
    }
}
