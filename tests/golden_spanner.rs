//! Golden equivalence fixtures for the Baswana–Sen / t-bundle engine.
//!
//! These values were captured from the pre-rewrite (PR-2) implementation — the
//! per-vertex `BTreeMap` grouping and per-component incidence rebuild — across
//! five seeds, five graph families, sequential and parallel runs, and two stretch
//! settings. The allocation-free engine (flat CSR incidence + per-worker
//! scratch) must reproduce every byte of them: the spanner's ChaCha8 cluster
//! sampling stream is part of the public deterministic contract, and the
//! scratch rewrite is supposed to change *nothing* about the output.
//!
//! If a legitimate algorithm change ever alters these streams, re-pin by running the
//! committed fixture printer and pasting its output over the tables below:
//!
//! ```sh
//! cargo test --release --test golden_spanner -- --ignored print_current_fixtures --nocapture
//! ```
//!
//! and document the change in vendor/README.md.

mod common;

use common::{fnv1a, on_pool};

use spectral_sparsify::graph::{generators, Graph};
use spectral_sparsify::spanner::{
    baswana_sen_spanner, t_bundle, BundleConfig, BundleResult, SpannerConfig,
};

fn graph(name: &str) -> Graph {
    match name {
        "er300" => generators::erdos_renyi(300, 0.15, 1.0, 42),
        "er250" => generators::erdos_renyi(250, 0.3, 1.0, 7),
        "pa400" => generators::preferential_attachment(400, 5, 1.0, 11),
        "grid20" => generators::grid2d(20, 20, 1.0),
        "complete80" => generators::complete(80, 1.0),
        "er300w" => generators::erdos_renyi_weighted(300, 0.15, 0.1, 10.0, 42),
        "er300mod3" => {
            // er300 with three weight classes, so many but not all weights tie.
            let g = generators::erdos_renyi(300, 0.15, 1.0, 42);
            let edges: Vec<_> = g
                .edges()
                .iter()
                .enumerate()
                .map(|(id, e)| (e.u(), e.v(), 1.0 + (id % 3) as f64))
                .collect();
            Graph::from_tuples(g.n(), edges).expect("reweighted er300")
        }
        other => panic!("unknown fixture graph {other}"),
    }
}

/// (graph, seed, edge_count, fnv1a(edge_ids), rounds, work) with the default
/// `k = ⌈log₂ n⌉`; the same row must hold on a 1-thread and a 4-thread pool.
const GOLDEN_DEFAULT_K: &[(&str, u64, usize, u64, usize, u64)] = &[
    ("er300", 1, 1446, 0xacf024ffc5491afa, 9, 99337),
    ("er300", 2, 1216, 0x0f3e9dfecdf9ed99, 9, 94249),
    ("er300", 3, 1040, 0xf1a82ec6c1c52e84, 9, 83209),
    ("er300", 4, 577, 0x876d78649a73189c, 9, 65856),
    ("er300", 5, 1413, 0xac868f301b130dcf, 9, 94613),
    ("er250", 1, 519, 0xcb71ef28ab6179b4, 8, 75717),
    ("er250", 2, 1030, 0xb34bb77a57b378da, 8, 107855),
    ("er250", 3, 1245, 0x0d57fb60c6382917, 8, 121352),
    ("er250", 4, 1104, 0xb3d68bc72eccdec3, 8, 119845),
    ("er250", 5, 737, 0xc24b55b49dcb8237, 8, 85524),
    ("pa400", 1, 1087, 0xece09c5baa8978f8, 9, 21680),
    ("pa400", 2, 1358, 0xfedfc91e3eff241e, 9, 22468),
    ("pa400", 3, 886, 0x73030a138646554f, 9, 20638),
    ("pa400", 4, 1156, 0x98c3b360095e3a25, 9, 22864),
    ("pa400", 5, 1068, 0x5a4affbce23b6c30, 9, 22005),
    ("grid20", 1, 698, 0xf7501677f03fc9cb, 9, 5835),
    ("grid20", 2, 712, 0x7e56018cdd3b65fb, 9, 5983),
    ("grid20", 3, 709, 0xa4abb953194fd1e4, 9, 6109),
    ("grid20", 4, 699, 0xa6899f1d873af5bb, 9, 6054),
    ("grid20", 5, 696, 0x4df794f71458f6fe, 9, 6043),
    ("complete80", 1, 425, 0x1f6982e96d03ef54, 7, 22389),
    ("complete80", 2, 309, 0xbd039e5651cf30ae, 7, 24251),
    ("complete80", 3, 363, 0x1c4e9be1d06c9827, 7, 24404),
    ("complete80", 4, 191, 0xf5ec4e16cc15c1fc, 7, 22665),
    ("complete80", 5, 436, 0x31e57b49d8bc95bd, 7, 24373),
];

/// (graph, seed, edge_count, fnv1a(edge_ids), work) with explicit `k = 3`.
const GOLDEN_K3: &[(&str, u64, usize, u64, u64)] = &[
    ("er300", 1, 1339, 0xccaced5350b14cce, 46093),
    ("er300", 2, 1239, 0x3dff6bdf41652bca, 46676),
    ("er300", 3, 915, 0x3851ce3a1f075ebc, 48501),
    ("er300", 4, 990, 0x9b0786c8660a23f3, 47748),
    ("er300", 5, 1558, 0xca5307e483926fbc, 46563),
    ("er250", 1, 2374, 0xe04d2eab0ddb1d1d, 63817),
    ("er250", 2, 1210, 0x3ed4a75fa0fffcf5, 64097),
    ("er250", 3, 1473, 0xa71bdbb1936f6f49, 67526),
    ("er250", 4, 923, 0x85a554f533cdaba4, 63163),
    ("er250", 5, 2166, 0xcb2d7d3b49c16a2b, 65157),
    ("pa400", 1, 1666, 0x96fe7f5b30a6c23d, 11858),
    ("pa400", 2, 1567, 0x3c7376c2ed7fd48a, 11681),
    ("pa400", 3, 1687, 0xccce7533757e8ddb, 11675),
    ("pa400", 4, 1799, 0xc0e0f2dfb2da8f2e, 11719),
    ("pa400", 5, 1644, 0xb3e6f70aee70fe89, 11848),
    ("grid20", 1, 754, 0x1661920c858a5485, 3664),
    ("grid20", 2, 755, 0x325e6d6259f00836, 3661),
    ("grid20", 3, 750, 0x9159c43a4efd2dc4, 3670),
    ("grid20", 4, 752, 0xe8e4a9adfb8fae88, 3588),
    ("grid20", 5, 746, 0x6aa439f9df542945, 3639),
    ("complete80", 1, 223, 0x32b4bb1720d0e8ab, 21661),
    ("complete80", 2, 523, 0xf80ee597e01fed30, 21324),
    ("complete80", 3, 366, 0xc803e177720f63ea, 21340),
    ("complete80", 4, 449, 0xe8143f625832cb9f, 21402),
    ("complete80", 5, 675, 0xd49c347cdc291d3f, 15677),
];

/// One bundle fixture row: (graph, t, bundle_size, fnv1a(sorted in-bundle ids), work,
/// component sizes) for `BundleConfig::new(t).with_seed(99)`.
type BundleFixture = (&'static str, usize, usize, u64, u64, &'static [usize]);

const GOLDEN_BUNDLE: &[BundleFixture] = &[
    ("er300", 1, 724, 0x8182c25d9b1c6c36, 75956, &[724]),
    (
        "er300",
        3,
        2412,
        0x4567823118cf175e,
        207643,
        &[724, 909, 779],
    ),
    ("er250", 1, 908, 0xb45909719b5dd710, 96343, &[908]),
    (
        "er250",
        3,
        2665,
        0x45d5cde1b983d53a,
        293256,
        &[908, 1031, 726],
    ),
    ("pa400", 1, 1067, 0xd0195a9a99497166, 21555, &[1067]),
    (
        "pa400",
        3,
        1965,
        0x1455e22b13996dbb,
        30563,
        &[1067, 698, 200],
    ),
    ("grid20", 1, 715, 0xb884e0fa75435b28, 5839, &[715]),
    ("grid20", 3, 760, 0x99b4bebebe7d4abd, 6068, &[715, 45]),
    ("complete80", 1, 302, 0x4a76bda64cfec5a8, 30664, &[302]),
    (
        "complete80",
        3,
        908,
        0x8393689d8221126d,
        87295,
        &[302, 273, 333],
    ),
];

/// Weighted families: every table above has unit weights, which pins full ties but
/// not weights that tie only in part. (graph, seed, edge_count, fnv1a(edge_ids),
/// rounds, work) with the default `k`, on a 1-thread and a 4-thread pool.
const GOLDEN_WEIGHTED_DEFAULT_K: &[(&str, u64, usize, u64, usize, u64)] = &[];

/// (graph, seed, bundle_size, fnv1a(sorted in-bundle ids), work, component sizes) for
/// `BundleConfig::new(3).with_seed(seed)` on the weighted families, on a 1-thread and
/// a 4-thread pool.
const GOLDEN_WEIGHTED_BUNDLE: &[BundleFixture] = &[
    (
        "er300w",
        1,
        5971,
        0xed885f0109ef608c,
        193407,
        &[2013, 2248, 1710],
    ),
    (
        "er300w",
        2,
        5884,
        0x8bc831c605b8afc8,
        211823,
        &[1983, 2257, 1644],
    ),
    (
        "er300mod3",
        1,
        4104,
        0xd11a13a36ae9524b,
        212949,
        &[1699, 1257, 1148],
    ),
    (
        "er300mod3",
        2,
        4247,
        0x2c81edb461e78469,
        235297,
        &[1631, 1398, 1218],
    ),
];

const FIXTURE_GRAPHS: &[&str] = &["er300", "er250", "pa400", "grid20", "complete80"];
const FIXTURE_SEEDS: &[u64] = &[1, 2, 3, 4, 5];
const WEIGHTED_GRAPHS: &[&str] = &["er300w", "er300mod3"];
const WEIGHTED_SEEDS: &[u64] = &[1, 2];

/// The in-bundle ids of `b` in ascending order, and its component sizes.
fn bundle_ids(b: &BundleResult) -> (Vec<usize>, Vec<usize>) {
    let ids = b
        .in_bundle
        .iter()
        .enumerate()
        .filter_map(|(i, &x)| if x { Some(i) } else { None })
        .collect();
    (ids, b.components.iter().map(Vec::len).collect())
}

/// Regenerates the fixture tables in source form (see the module docs for the exact
/// invocation). Ignored by default: running it never fails, it only prints.
#[test]
#[ignore = "fixture regeneration helper, run with --ignored --nocapture"]
fn print_current_fixtures() {
    println!("const GOLDEN_DEFAULT_K: ... = &[");
    for &name in FIXTURE_GRAPHS {
        let g = graph(name);
        for &seed in FIXTURE_SEEDS {
            let r = baswana_sen_spanner(&g, &SpannerConfig::with_seed(seed));
            println!(
                "    (\"{name}\", {seed}, {}, {:#018x}, {}, {}),",
                r.edge_ids.len(),
                fnv1a(&r.edge_ids),
                r.rounds,
                r.work
            );
        }
    }
    println!("];\nconst GOLDEN_K3: ... = &[");
    for &name in FIXTURE_GRAPHS {
        let g = graph(name);
        for &seed in FIXTURE_SEEDS {
            let r = baswana_sen_spanner(&g, &SpannerConfig::with_seed(seed).with_k(3));
            println!(
                "    (\"{name}\", {seed}, {}, {:#018x}, {}),",
                r.edge_ids.len(),
                fnv1a(&r.edge_ids),
                r.work
            );
        }
    }
    println!("];\nconst GOLDEN_BUNDLE: &[BundleFixture] = &[");
    for &name in FIXTURE_GRAPHS {
        let g = graph(name);
        for t in [1usize, 3] {
            let b = t_bundle(&g, &BundleConfig::new(t).with_seed(99));
            let ids: Vec<usize> = b
                .in_bundle
                .iter()
                .enumerate()
                .filter_map(|(i, &x)| if x { Some(i) } else { None })
                .collect();
            let comp_lens: Vec<usize> = b.components.iter().map(Vec::len).collect();
            println!(
                "    (\"{name}\", {t}, {}, {:#018x}, {}, &{comp_lens:?}),",
                b.bundle_size,
                fnv1a(&ids),
                b.work
            );
        }
    }
    println!("];\nconst GOLDEN_WEIGHTED_DEFAULT_K: ... = &[");
    for &name in WEIGHTED_GRAPHS {
        let g = graph(name);
        for &seed in WEIGHTED_SEEDS {
            let r = baswana_sen_spanner(&g, &SpannerConfig::with_seed(seed));
            println!(
                "    (\"{name}\", {seed}, {}, {:#018x}, {}, {}),",
                r.edge_ids.len(),
                fnv1a(&r.edge_ids),
                r.rounds,
                r.work
            );
        }
    }
    println!("];\nconst GOLDEN_WEIGHTED_BUNDLE: &[BundleFixture] = &[");
    for &name in WEIGHTED_GRAPHS {
        let g = graph(name);
        for &seed in WEIGHTED_SEEDS {
            let b = t_bundle(&g, &BundleConfig::new(3).with_seed(seed));
            let (ids, comp_lens) = bundle_ids(&b);
            println!(
                "    (\"{name}\", {seed}, {}, {:#018x}, {}, &{comp_lens:?}),",
                b.bundle_size,
                fnv1a(&ids),
                b.work
            );
        }
    }
    println!("];");
}

#[test]
fn spanner_matches_pre_rewrite_fixtures_default_k() {
    for &(name, seed, len, hash, rounds, work) in GOLDEN_DEFAULT_K {
        let g = graph(name);
        for threads in [1, 4] {
            let r = on_pool(threads, || {
                baswana_sen_spanner(&g, &SpannerConfig::with_seed(seed))
            });
            assert_eq!(
                (r.edge_ids.len(), fnv1a(&r.edge_ids), r.rounds, r.work),
                (len, hash, rounds, work),
                "{name} seed={seed} threads={threads}"
            );
        }
    }
}

#[test]
fn spanner_matches_pre_rewrite_fixtures_k3() {
    for &(name, seed, len, hash, work) in GOLDEN_K3 {
        let g = graph(name);
        let cfg = SpannerConfig::with_seed(seed).with_k(3);
        let r = baswana_sen_spanner(&g, &cfg);
        assert_eq!(
            (r.edge_ids.len(), fnv1a(&r.edge_ids), r.work),
            (len, hash, work),
            "{name} seed={seed} k=3"
        );
    }
}

#[test]
fn bundle_matches_pre_rewrite_fixtures() {
    for &(name, t, size, hash, work, comps) in GOLDEN_BUNDLE {
        let g = graph(name);
        let b = t_bundle(&g, &BundleConfig::new(t).with_seed(99));
        let ids: Vec<usize> = b
            .in_bundle
            .iter()
            .enumerate()
            .filter_map(|(i, &x)| if x { Some(i) } else { None })
            .collect();
        let comp_lens: Vec<usize> = b.components.iter().map(Vec::len).collect();
        assert_eq!(
            (b.bundle_size, fnv1a(&ids), b.work, comp_lens.as_slice()),
            (size, hash, work, comps),
            "{name} t={t}"
        );
    }
}

#[test]
fn weighted_spanner_fixtures_hold_on_one_and_four_threads() {
    for &(name, seed, len, hash, rounds, work) in GOLDEN_WEIGHTED_DEFAULT_K {
        let g = graph(name);
        for threads in [1, 4] {
            let r = on_pool(threads, || {
                baswana_sen_spanner(&g, &SpannerConfig::with_seed(seed))
            });
            assert_eq!(
                (r.edge_ids.len(), fnv1a(&r.edge_ids), r.rounds, r.work),
                (len, hash, rounds, work),
                "{name} seed={seed} threads={threads}"
            );
        }
    }
}

#[test]
fn weighted_bundle_fixtures_hold_on_one_and_four_threads() {
    for &(name, seed, size, hash, work, comps) in GOLDEN_WEIGHTED_BUNDLE {
        let g = graph(name);
        for threads in [1, 4] {
            let b = on_pool(threads, || {
                t_bundle(&g, &BundleConfig::new(3).with_seed(seed as u64))
            });
            let (ids, comp_lens) = bundle_ids(&b);
            assert_eq!(
                (b.bundle_size, fnv1a(&ids), b.work, comp_lens.as_slice()),
                (size, hash, work, comps),
                "{name} seed={seed} threads={threads}"
            );
        }
    }
}
