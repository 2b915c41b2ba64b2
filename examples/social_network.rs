//! Sparsify a dense "social network"-style graph and compare the paper's algorithm with
//! Spielman–Srivastava leverage sampling and plain uniform sampling on quality, size and
//! the resources they consume.
//!
//! The graph is a preferential-attachment network densified with extra random contacts,
//! the kind of graph where community structure (sparse cuts between dense cores) must
//! be preserved by any useful sparsifier.
//!
//! Run with:
//! ```text
//! cargo run --release --example social_network
//! ```

use spectral_sparsify::graph::{connectivity::is_connected, generators, ops};
use spectral_sparsify::linalg::spectral::CertifyOptions;
use spectral_sparsify::prelude::*;
use spectral_sparsify::sparsify::{sample_uniform, verify_sparsifier};

fn main() {
    // Dense social-like network: heavy-tailed degrees plus random long-range contacts.
    let n = 1500;
    let pa = generators::preferential_attachment(n, 8, 1.0, 11);
    let extra = generators::erdos_renyi(n, 0.02, 1.0, 12);
    let g = ops::add(&pa, &extra).unwrap().coalesce();
    println!(
        "social network: n = {n}, m = {}, avg degree {:.1}",
        g.m(),
        g.average_degree()
    );

    let opts = CertifyOptions::default();
    let eps = 0.5;

    // The paper's algorithm.
    let cfg = SparsifyConfig::new(eps, 6.0)
        .with_bundle_sizing(BundleSizing::Fixed(4))
        .with_seed(3);
    let t0 = std::time::Instant::now();
    let ours = parallel_sparsify(&g, &cfg);
    let ours_time = t0.elapsed();
    let ours_report = verify_sparsifier(&g, &ours.sparsifier, &opts);

    // Spielman–Srivastava effective-resistance sampling (needs Laplacian solves).
    let t0 = std::time::Instant::now();
    let er = resparsify_er(&g, &ErPassConfig::new(), eps, 3);
    let er_time = t0.elapsed();
    let er_report = verify_sparsifier(&g, &er.sparsifier, &opts);

    // Naive uniform sampling at the same expected size as ours.
    let p = ours.sparsifier.m() as f64 / g.m() as f64;
    let t0 = std::time::Instant::now();
    let uni = sample_uniform(&g, &vec![false; g.m()], p.min(1.0), 3);
    let uni_time = t0.elapsed();
    let uni_report = verify_sparsifier(&g, &uni, &opts);

    println!(
        "\n{:<28} {:>9} {:>9} {:>9} {:>10} {:>9}",
        "method", "edges", "lower", "upper", "time(ms)", "solves"
    );
    for (name, report, time, solves, connected) in [
        (
            "PARALLELSPARSIFY (paper)",
            &ours_report,
            ours_time,
            0usize,
            is_connected(&ours.sparsifier),
        ),
        (
            "effective-resistance",
            &er_report,
            er_time,
            er.solves,
            is_connected(&er.sparsifier),
        ),
        (
            "uniform sampling",
            &uni_report,
            uni_time,
            0,
            is_connected(&uni),
        ),
    ] {
        println!(
            "{:<28} {:>9} {:>9.3} {:>9.3} {:>10.1} {:>9}   connected: {}",
            name,
            report.output_edges,
            report.bounds.lower,
            report.bounds.upper,
            time.as_secs_f64() * 1e3,
            solves,
            connected
        );
    }
    println!(
        "\nthe paper's scheme needs no Laplacian solves (solve-free), keeps the graph \
         connected, and its approximation stays two-sided; uniform sampling at the same \
         size has no such guarantee."
    );
}
