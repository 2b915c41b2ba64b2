//! Golden fixtures for the ER-weighted final reduction pass (`resparsify_er`) and the
//! acceptance scenario of the leverage-aware sampling engine.
//!
//! Each fixture row pins the **full deterministic contract** of `resparsify_er` for
//! one (graph, seed) pair: the output edge stream (endpoints *and* weight bits,
//! FNV-hashed), the output size, the Laplacian solves consumed, and whether the pass
//! actually resampled. The pass is seed-deterministic and thread-count invariant
//! (pinned separately in `tests/parallelism.rs`), so these fixtures hold in debug and
//! release, sequential and parallel.
//!
//! If a legitimate algorithm change alters these streams, re-pin by running the
//! committed fixture printer and pasting its output over the table below:
//!
//! ```sh
//! cargo test --release --test golden_er -- --ignored print_current_fixtures --nocapture
//! ```
//!
//! and document the change in vendor/README.md (as for `golden_stream.rs`).

mod common;

use common::{fingerprint, on_pool};

use spectral_sparsify::graph::{generators, Graph};
use spectral_sparsify::sparsify::{
    parallel_sparsify, resparsify_er, BundleSizing, ErPassConfig, SamplingPolicy, SparsifyConfig,
};
use spectral_sparsify::stream::{FinalPassConfig, StreamConfig, StreamOutput, StreamSparsifier};

fn graph(name: &str) -> Graph {
    match name {
        "er300" => generators::erdos_renyi(300, 0.15, 1.0, 42),
        "er250" => generators::erdos_renyi(250, 0.3, 1.0, 7),
        "pa400" => generators::preferential_attachment(400, 5, 1.0, 11),
        "complete80" => generators::complete(80, 1.0),
        other => panic!("unknown fixture graph {other}"),
    }
}

/// Small JL sketch / loose CG tolerance so the fixtures stay cheap in debug builds;
/// `oversample = 0.25` keeps the sample budget in the compressing-but-connected
/// regime on every fixture graph. The pass runs at ε = 0.5.
fn pass_config() -> ErPassConfig {
    ErPassConfig::new()
        .with_oversample(0.25)
        .with_jl_dims(4)
        .with_cg_tol(1e-3)
}

/// (graph, seed, m_out, fingerprint, solves, resampled).
#[allow(clippy::type_complexity)]
const GOLDEN_ER: &[(&str, u64, usize, u64, usize, bool)] = &[
    // pa400's sample budget covers its edge count, so it pins the short-circuit
    // (identity, solve-free) branch; the other graphs pin genuine resampling.
    ("er300", 1, 2441, 0xbd00eb66682d37fc, 4, true),
    ("er300", 2, 2439, 0xc46832a564f068fe, 4, true),
    ("er300", 3, 2402, 0xaa6ed7c54c538dfa, 4, true),
    ("er250", 1, 1986, 0xa344e4a959129f89, 4, true),
    ("er250", 2, 1993, 0x1c6040fedc2d424f, 4, true),
    ("er250", 3, 1920, 0x479302c6b962f919, 4, true),
    ("pa400", 1, 1985, 0x4b84f9f1fbfbda08, 0, false),
    ("pa400", 2, 1985, 0x4b84f9f1fbfbda08, 0, false),
    ("pa400", 3, 1985, 0x4b84f9f1fbfbda08, 0, false),
    ("complete80", 1, 524, 0x8b62a245aa5e8a40, 4, true),
    ("complete80", 2, 505, 0x3045642eb31c5c51, 4, true),
    ("complete80", 3, 475, 0xed15368beaa21337, 4, true),
];

#[test]
fn er_pass_fixtures_match_across_seeds() {
    for &(name, seed, m_out, fp, solves, resampled) in GOLDEN_ER {
        let g = graph(name);
        let out = resparsify_er(&g, &pass_config(), 0.5, seed);
        let label = format!("{name}/seed {seed}");
        assert_eq!(out.sparsifier.m(), m_out, "{label}: m_out");
        assert_eq!(fingerprint(&out.sparsifier), fp, "{label}: fingerprint");
        assert_eq!(out.solves, solves, "{label}: solves");
        assert_eq!(out.resampled, resampled, "{label}: resampled");
        assert_eq!(out.m_in, g.m(), "{label}: m_in");
    }
}

#[test]
fn er_pass_fixtures_are_parallelism_mode_independent() {
    // A 1-thread pool is the sequential run and must reproduce the same streams: the
    // CG rows and the final filter may fan out, but the score normalisation is
    // sequential by construction.
    for &(name, seed, m_out, fp, ..) in &GOLDEN_ER[..4] {
        let g = graph(name);
        let out = on_pool(1, || resparsify_er(&g, &pass_config(), 0.5, seed));
        assert_eq!(out.sparsifier.m(), m_out, "{name}/seed {seed} 1 thread");
        assert_eq!(
            fingerprint(&out.sparsifier),
            fp,
            "{name}/seed {seed} 1 thread"
        );
    }
}

/// `PARALLELSPARSIFY` with the leverage-weighted off-bundle coin: two rounds at ε = 0.5
/// over a 2-bundle, 4 JL rows at CG tolerance `1e-3`.
fn er_sparsify_config(seed: u64) -> SparsifyConfig {
    SparsifyConfig::new(0.5, 4.0)
        .with_bundle_sizing(BundleSizing::Fixed(2))
        .with_sampling(SamplingPolicy::effective_resistance(4, 1e-3))
        .with_seed(seed)
}

/// (graph, seed, m_out, fingerprint, rounds_executed) of `parallel_sparsify` under
/// [`er_sparsify_config`]: pins the ER sampler's probabilities, coin and reweighting
/// bit for bit.
const GOLDEN_ER_SPARSIFY: &[(&str, u64, usize, u64, usize)] = &[
    ("er300", 1, 3608, 0x327b82c66958184f, 1),
    ("er300", 2, 3436, 0x0afcc287310dd593, 1),
    ("er250", 1, 3337, 0x79d646e61fc7e9fd, 1),
    ("er250", 2, 3468, 0x6cf5621cd56b1e73, 1),
    ("complete80", 1, 628, 0x132145e029767ce7, 2),
    ("complete80", 2, 829, 0x58c329fbfed7e637, 2),
];

#[test]
fn er_sampling_fixtures_match_across_seeds() {
    for &(name, seed, m_out, fp, rounds) in GOLDEN_ER_SPARSIFY {
        let g = graph(name);
        let out = parallel_sparsify(&g, &er_sparsify_config(seed));
        let label = format!("{name}/seed {seed}");
        assert_eq!(out.sparsifier.m(), m_out, "{label}: m_out");
        assert_eq!(fingerprint(&out.sparsifier), fp, "{label}: fingerprint");
        assert_eq!(out.rounds_executed, rounds, "{label}: rounds");
    }
}

/// The ISSUE-6 acceptance scenario: er(n = 4000, deg = 150) streamed under a budget of
/// `m/4` resident edges, leverage-aware configuration (ER interior sampling + the
/// ER-weighted final pass) against the uniform configuration of the same tree.
#[test]
fn acceptance_er4000_leverage_aware_beats_uniform() {
    let n = 4000usize;
    let p = 150.0 / (n as f64 - 1.0);
    let g = generators::erdos_renyi(n, p, 1.0, 51);
    let m = g.m();
    let budget = m / 4;
    let batch = m / 16;
    let uniform_cfg = StreamConfig::new(0.75, budget)
        .with_bundle_sizing(BundleSizing::Fixed(2))
        .with_keep_probability(0.22)
        .with_seed(5);
    let er_cfg = uniform_cfg
        .clone()
        .with_interior_sampling(SamplingPolicy::effective_resistance(4, 1e-3))
        .with_final_pass(
            FinalPassConfig::new()
                .with_oversample(0.02)
                .with_jl_dims(4)
                .with_cg_tol(1e-3),
        );

    let run = |cfg: &StreamConfig, chunk: usize| -> StreamOutput {
        let mut s = StreamSparsifier::new(n, cfg.clone());
        for batch in g.edges().chunks(chunk) {
            s.ingest_batch(batch).unwrap();
        }
        s.finish()
    };
    let uniform = run(&uniform_cfg, batch);
    let er = run(&er_cfg, batch);

    // The headline claim: at the same configured ε_total, the leverage-aware path
    // lands at well under 0.6× the uniform path's output size.
    assert!(
        (er.sparsifier.m() as f64) <= 0.6 * uniform.sparsifier.m() as f64,
        "er m_out {} vs uniform m_out {}",
        er.sparsifier.m(),
        uniform.sparsifier.m()
    );
    // The final pass actually ran (no short-circuit) and the ledger charges it while
    // staying within the configured total.
    let pass = er.stats.er_pass.as_ref().expect("final pass configured");
    assert!(pass.resampled, "final pass short-circuited unexpectedly");
    assert_eq!(pass.m_out as usize, er.sparsifier.m());
    assert!(er.stats.epsilon_spent() <= 0.75 + 1e-12);
    // Quality did not regress: the sparsifier spans the graph and the probe-ratio
    // envelope stays inside the window the uniform acceptance test pins.
    assert!(spectral_sparsify::graph::connectivity::is_connected(
        &er.sparsifier
    ));
    let (lo, hi) = spectral_sparsify::linalg::spectral::ratio_samples(&g, &er.sparsifier, 16, 3);
    assert!(lo > 0.5 && hi < 2.0, "probe ratio envelope [{lo}, {hi}]");

    // Batch-chop invariance of the full leverage-aware stack: the same permutation in
    // one batch gives the identical sparsifier, final-pass accounting included.
    let one = run(&er_cfg, m);
    assert_eq!(one.sparsifier.edges(), er.sparsifier.edges());
    for (x, y) in one.sparsifier.edges().iter().zip(er.sparsifier.edges()) {
        assert_eq!(x.w.to_bits(), y.w.to_bits());
    }
    assert_eq!(one.stats.er_pass, er.stats.er_pass);
    assert_eq!(one.stats.levels, er.stats.levels);
}

/// Re-pin helper: prints the fixture table in the exact source format.
#[test]
#[ignore = "fixture printer; run with --ignored --nocapture to re-pin"]
fn print_current_fixtures() {
    for name in ["er300", "er250", "pa400", "complete80"] {
        let g = graph(name);
        for seed in 1u64..=3 {
            let out = resparsify_er(&g, &pass_config(), 0.5, seed);
            println!(
                "    (\"{name}\", {seed}, {}, {:#018x}, {}, {}),",
                out.sparsifier.m(),
                fingerprint(&out.sparsifier),
                out.solves,
                out.resampled,
            );
        }
    }
    for name in ["er300", "er250", "complete80"] {
        let g = graph(name);
        for seed in 1u64..=2 {
            let out = parallel_sparsify(&g, &er_sparsify_config(seed));
            println!(
                "    (\"{name}\", {seed}, {}, {:#018x}, {}),",
                out.sparsifier.m(),
                fingerprint(&out.sparsifier),
                out.rounds_executed,
            );
        }
    }
}
