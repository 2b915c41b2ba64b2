//! Dense vector kernels.
//!
//! These are the primitive operations used by every iterative method in the crate. The
//! kernels switch to rayon data parallelism above a size threshold: below it the
//! sequential loop is faster than the fork-join overhead (a standard guideline from the
//! Rust performance literature).

use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

/// Vectors shorter than this are processed sequentially.
pub(crate) const PAR_THRESHOLD: usize = 1 << 14;

/// Dot product `xᵀ y`.
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    if x.len() < PAR_THRESHOLD {
        x.iter().zip(y).map(|(a, b)| a * b).sum()
    } else {
        x.par_iter().zip(y.par_iter()).map(|(a, b)| a * b).sum()
    }
}

/// Euclidean norm `‖x‖₂`.
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// `y ← y + alpha · x`.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    if x.len() < PAR_THRESHOLD {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    } else {
        y.par_iter_mut()
            .zip(x.par_iter())
            .for_each(|(yi, xi)| *yi += alpha * xi);
    }
}

/// Fused pair of axpy updates over different targets:
/// `x ← x + alpha · p` and `r ← r + nalpha · ap`, in one pass.
///
/// The CG inner loop runs exactly this pair back to back; fusing them halves the
/// number of sweeps over memory (and fork-joins, above the threshold). Each element
/// update is the same arithmetic as two separate [`axpy`] calls, so results are
/// bitwise identical to the unfused sequence.
pub fn axpy2(alpha: f64, p: &[f64], x: &mut [f64], nalpha: f64, ap: &[f64], r: &mut [f64]) {
    debug_assert_eq!(p.len(), x.len());
    debug_assert_eq!(ap.len(), r.len());
    debug_assert_eq!(x.len(), r.len());
    if x.len() < PAR_THRESHOLD {
        for (((xi, pi), ri), api) in x.iter_mut().zip(p).zip(r.iter_mut()).zip(ap) {
            *xi += alpha * pi;
            *ri += nalpha * api;
        }
    } else {
        x.par_iter_mut()
            .zip(p.par_iter())
            .zip(r.par_iter_mut())
            .zip(ap.par_iter())
            .with_min_len(1 << 12)
            .for_each(|(((xi, pi), ri), api)| {
                *xi += alpha * pi;
                *ri += nalpha * api;
            });
    }
}

/// `x ← alpha · x`.
pub fn scale(alpha: f64, x: &mut [f64]) {
    if x.len() < PAR_THRESHOLD {
        for xi in x.iter_mut() {
            *xi *= alpha;
        }
    } else {
        x.par_iter_mut().for_each(|xi| *xi *= alpha);
    }
}

/// Removes the component of `x` along the all-ones vector, i.e. subtracts the mean.
///
/// Laplacians are singular with null space `span{1}`; every solver and eigen-iteration
/// in this crate works in the orthogonal complement, so right-hand sides and iterates
/// are routinely projected with this function.
pub fn project_out_ones(x: &mut [f64]) {
    if x.is_empty() {
        return;
    }
    let mean = x.iter().sum::<f64>() / x.len() as f64;
    for xi in x.iter_mut() {
        *xi -= mean;
    }
}

/// A deterministic pseudo-random unit vector orthogonal to the all-ones vector.
pub fn random_unit_orthogonal(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    project_out_ones(&mut x);
    let nrm = norm2(&x);
    if nrm > 0.0 {
        scale(1.0 / nrm, &mut x);
    }
    x
}

/// Fills `out` with independent Rademacher (±1) entries drawn from `seed`, for the
/// Spielman–Srivastava random-projection resistance estimator. Batch callers reuse
/// one buffer across draws instead of allocating per projection row.
pub fn rademacher_in(seed: u64, out: &mut [f64]) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for v in out.iter_mut() {
        *v = if rng.gen::<bool>() { 1.0 } else { -1.0 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        let x = vec![3.0, 4.0];
        assert_eq!(dot(&x, &x), 25.0);
        assert_eq!(norm2(&x), 5.0);
    }

    #[test]
    fn axpy_and_scale() {
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![12.0, 24.0, 36.0]);
        scale(0.5, &mut y);
        assert_eq!(y, vec![6.0, 12.0, 18.0]);
    }

    #[test]
    fn parallel_paths_match_sequential() {
        let n = PAR_THRESHOLD + 123;
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let seq: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot(&x, &y) - seq).abs() < 1e-6);
        let mut y1 = y.clone();
        let mut y2 = y.clone();
        axpy(1.5, &x, &mut y1);
        for (yi, xi) in y2.iter_mut().zip(&x) {
            *yi += 1.5 * xi;
        }
        for (a, b) in y1.iter().zip(&y2) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn axpy2_is_bitwise_two_axpys() {
        for n in [37usize, PAR_THRESHOLD + 55] {
            let p: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
            let ap: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).cos()).collect();
            let x0: Vec<f64> = (0..n).map(|i| i as f64 * 0.01).collect();
            let r0: Vec<f64> = (0..n).map(|i| 1.0 - i as f64 * 0.02).collect();
            let (mut x1, mut r1) = (x0.clone(), r0.clone());
            axpy2(0.375, &p, &mut x1, -0.375, &ap, &mut r1);
            let (mut x2, mut r2) = (x0, r0);
            axpy(0.375, &p, &mut x2);
            axpy(-0.375, &ap, &mut r2);
            for (a, b) in x1.iter().zip(&x2).chain(r1.iter().zip(&r2)) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn projection_removes_mean() {
        let mut x = vec![1.0, 2.0, 3.0, 4.0];
        project_out_ones(&mut x);
        assert!(x.iter().sum::<f64>().abs() < 1e-12);
        let mut empty: Vec<f64> = vec![];
        project_out_ones(&mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn random_unit_orthogonal_properties() {
        let x = random_unit_orthogonal(100, 3);
        assert!((norm2(&x) - 1.0).abs() < 1e-10);
        assert!(x.iter().sum::<f64>().abs() < 1e-10);
        let y = random_unit_orthogonal(100, 3);
        assert_eq!(x, y, "same seed must give same vector");
        let z = random_unit_orthogonal(100, 4);
        assert_ne!(x, z);
    }

    #[test]
    fn rademacher_entries_are_pm_one() {
        let draw = |seed| {
            let mut x = vec![0.0; 64];
            rademacher_in(seed, &mut x);
            x
        };
        let x = draw(9);
        assert!(x.iter().all(|&v| v == 1.0 || v == -1.0));
        assert_eq!(x, draw(9));
    }
}
