//! Run the distributed (CONGEST-style) spanner and sparsifier in the simulator and
//! report the round / message / bit accounting that Theorem 2 and Corollary 3 bound.
//!
//! Run with:
//! ```text
//! cargo run --release --example distributed_spanner
//! ```

use spectral_sparsify::distributed::{distributed_sample, distributed_spanner, DistSpannerConfig};
use spectral_sparsify::graph::{generators, stretch};
use spectral_sparsify::sparsify::{BundleSizing, SparsifyConfig};

fn main() {
    println!("== Distributed Baswana-Sen spanner (Theorem 2) ==");
    println!(
        "{:>6} {:>8} {:>9} {:>10} {:>12} {:>8} {:>9}",
        "n", "m", "spanner", "rounds", "messages", "maxbits", "stretch"
    );
    for &n in &[100usize, 200, 400, 800] {
        let g = generators::erdos_renyi(n, 8.0_f64.min(n as f64 * 0.2) / n as f64 * 4.0, 1.0, 7);
        let r = distributed_spanner(&g, &DistSpannerConfig::with_seed(1));
        let h = g.with_edge_ids(&r.edge_ids);
        let s = stretch::max_stretch(&g, &h);
        println!(
            "{:>6} {:>8} {:>9} {:>10} {:>12} {:>8} {:>9.1}",
            n,
            g.m(),
            r.edge_ids.len(),
            r.metrics.rounds,
            r.metrics.messages,
            r.metrics.max_message_bits,
            s
        );
    }
    let k = |n: usize| (n as f64).log2().ceil();
    println!(
        "(Theorem 2 predicts O(log^2 n) rounds and O(m log n) messages; log^2 n at n = 800 is {:.0})",
        k(800) * k(800)
    );

    println!("\n== Distributed PARALLELSAMPLE (Corollary 3) ==");
    let g = generators::erdos_renyi(400, 0.1, 1.0, 13);
    println!("input: n = {}, m = {}", g.n(), g.m());
    println!(
        "{:>3} {:>10} {:>10} {:>12} {:>12}",
        "t", "bundle", "sparsifier", "rounds", "messages"
    );
    for t in [1usize, 2, 4, 8] {
        let cfg = SparsifyConfig::new(0.5, 2.0)
            .with_bundle_sizing(BundleSizing::Fixed(t))
            .with_seed(5);
        let out = distributed_sample(&g, &cfg);
        println!(
            "{:>3} {:>10} {:>10} {:>12} {:>12}",
            t,
            out.stats.bundle_edges_per_round[0],
            out.sparsifier.m(),
            out.metrics.rounds,
            out.metrics.messages
        );
    }
    println!("(rounds and communication grow linearly in t, as Corollary 3 states)");
}
