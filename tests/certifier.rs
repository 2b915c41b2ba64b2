//! The power-iteration certifier against the exact dense oracle,
//! `linalg::dense::exact_pencil_extremes`, on instances small enough for `O(n³)`.

use std::f64::consts::PI;

use spectral_sparsify::graph::{generators, Graph};
use spectral_sparsify::linalg::dense::exact_pencil_extremes;
use spectral_sparsify::linalg::spectral::{approximation_bounds, CertifyOptions};
use spectral_sparsify::sparsify::{parallel_sparsify, BundleSizing, SparsifyConfig};

fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * b.abs()
}

#[test]
fn oracle_matches_closed_forms() {
    // H = c·G: every ratio is c.
    let g = generators::erdos_renyi_weighted(60, 0.2, 0.5, 2.0, 3);
    for c in [0.25, 1.0, 3.5] {
        let mut h = g.clone();
        for e in h.edges_mut() {
            e.w *= c;
        }
        let (lo, hi) = exact_pencil_extremes(&g, &h).expect("connected");
        assert!(
            close(lo, c, 1e-9) && close(hi, c, 1e-9),
            "c = {c}: [{lo}, {hi}]"
        );
    }

    // A path against the complete graph: L_{K_n} is n·I on 1⊥, so the ratios are the
    // path's Laplacian eigenvalues 2 − 2cos(πk/n), k = 1..n−1, divided by n.
    let n = 40;
    let (lo, hi) = exact_pencil_extremes(&generators::complete(n, 1.0), &generators::path(n, 1.0))
        .expect("connected");
    let path_eig = |k: usize| (2.0 - 2.0 * (PI * k as f64 / n as f64).cos()) / n as f64;
    assert!(close(lo, path_eig(1), 1e-9), "{lo} vs {}", path_eig(1));
    assert!(
        close(hi, path_eig(n - 1), 1e-9),
        "{hi} vs {}",
        path_eig(n - 1)
    );

    // A disconnected G has no finite pencil; a single vertex has no x ⟂ 1.
    let split = Graph::from_tuples(4, [(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
    assert_eq!(
        exact_pencil_extremes(&split, &generators::path(4, 1.0)),
        None
    );
    // Non-dyadic weights: the vanishing pivot of the ungrounded component need not
    // round to exactly zero.
    let split =
        Graph::from_tuples(5, [(0, 1, 0.1), (1, 2, 0.2), (0, 2, 0.3), (3, 4, 0.7)]).unwrap();
    assert_eq!(
        exact_pencil_extremes(&split, &generators::path(5, 1.0)),
        None
    );
    assert_eq!(exact_pencil_extremes(&Graph::new(1), &Graph::new(1)), None);
}

/// Power iteration reaches each extreme from inside the spectrum, so the certifier's
/// `[lower, upper]` must lie within the exact interval (up to rounding).
#[test]
fn certifier_estimates_lie_inside_the_exact_interval() {
    let families = [
        ("complete80", generators::complete(80, 1.0)),
        ("er250", generators::erdos_renyi(250, 0.3, 1.0, 7)),
        ("er300", generators::erdos_renyi(300, 0.15, 1.0, 42)),
    ];
    let cfg = SparsifyConfig::new(0.5, 4.0)
        .with_bundle_sizing(BundleSizing::Fixed(1))
        .with_seed(5);
    for (name, g) in families {
        let h = parallel_sparsify(&g, &cfg).sparsifier;
        let (lo, hi) = exact_pencil_extremes(&g, &h).expect("connected sparsifier");
        assert!(0.0 < lo && lo <= hi, "{name}: exact [{lo}, {hi}]");
        let est = approximation_bounds(&g, &h, &CertifyOptions::default());
        assert!(
            est.lower >= lo * (1.0 - 1e-6) && est.upper <= hi * (1.0 + 1e-6),
            "{name}: estimate [{}, {}] outside exact [{lo}, {hi}]",
            est.lower,
            est.upper
        );
    }
}
