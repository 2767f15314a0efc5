//! Small statistics helpers used by the experiment harness: error metrics
//! between gradients, and mean/std summaries for timing series.

use crate::Tensor;

/// Relative L2 error `||a - b|| / ||a||` (returns `0` when `a` is the zero
/// vector and `a == b`, `inf` when `a` is zero but `b` is not).
///
/// # Panics
///
/// Panics if the tensors have different element counts.
pub fn relative_l2_error(a: &Tensor, b: &Tensor) -> f32 {
    assert_eq!(a.numel(), b.numel(), "relative error needs equal lengths");
    let diff: f32 = a
        .data()
        .iter()
        .zip(b.data())
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f32>()
        .sqrt();
    let norm = a.l2_norm();
    if norm == 0.0 {
        if diff == 0.0 {
            0.0
        } else {
            f32::INFINITY
        }
    } else {
        diff / norm
    }
}

/// Cosine similarity between two tensors viewed as flat vectors (0 if either
/// is the zero vector).
///
/// # Panics
///
/// Panics if the tensors have different element counts.
pub fn cosine_similarity(a: &Tensor, b: &Tensor) -> f32 {
    assert_eq!(a.numel(), b.numel(), "cosine needs equal lengths");
    let na = a.l2_norm();
    let nb = b.l2_norm();
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    a.dot(b).expect("lengths checked") / (na * nb)
}

/// Median of a series (average of middle two for even lengths; `0` for an
/// empty series). O(n) via quickselect rather than a full sort.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The `p`-th percentile (`p` in `[0, 100]`) with linear interpolation
/// between the two nearest order statistics (`0` for an empty series).
///
/// Average-O(n): one `select_nth_unstable_by` pass positions the lower
/// order statistic; the upper one is then the minimum of the partition
/// above it, so no sort is needed.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let p = p.clamp(0.0, 100.0);
    let n = xs.len();
    let rank = p / 100.0 * (n - 1) as f64;
    let lo_idx = rank.floor() as usize;
    let frac = rank - lo_idx as f64;
    let mut scratch = xs.to_vec();
    // total_cmp: NaN-total order, so a NaN input can never misorder the
    // selection (partial_cmp would silently treat NaN pairs as equal).
    let (_, lo, above) = scratch.select_nth_unstable_by(lo_idx, f64::total_cmp);
    let lo = *lo;
    if frac == 0.0 || above.is_empty() {
        return lo;
    }
    let hi = above.iter().copied().fold(f64::INFINITY, f64::min);
    lo + frac * (hi - lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_basics() {
        let a = Tensor::from_vec(vec![3.0, 4.0]);
        let b = Tensor::from_vec(vec![3.0, 4.0]);
        assert_eq!(relative_l2_error(&a, &b), 0.0);
        let c = Tensor::from_vec(vec![0.0, 0.0]);
        assert_eq!(relative_l2_error(&c, &c), 0.0);
        assert_eq!(relative_l2_error(&c, &a), f32::INFINITY);
        let d = Tensor::from_vec(vec![6.0, 8.0]);
        assert!((relative_l2_error(&a, &d) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_basics() {
        let a = Tensor::from_vec(vec![1.0, 0.0]);
        let b = Tensor::from_vec(vec![0.0, 1.0]);
        assert_eq!(cosine_similarity(&a, &b), 0.0);
        assert!((cosine_similarity(&a, &a) - 1.0).abs() < 1e-6);
        let neg = a.scaled(-2.0);
        assert!((cosine_similarity(&a, &neg) + 1.0).abs() < 1e-6);
        let zero = Tensor::zeros([2]);
        assert_eq!(cosine_similarity(&a, &zero), 0.0);
    }

    #[test]
    fn median_series() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_series() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        // Interpolated: rank = 0.9 * 4 = 3.6 -> 4 + 0.6 * (5 - 4).
        assert!((percentile(&xs, 90.0) - 4.6).abs() < 1e-12);
        // Out-of-range p clamps.
        assert_eq!(percentile(&xs, -5.0), 1.0);
        assert_eq!(percentile(&xs, 150.0), 5.0);
    }

    #[test]
    fn percentile_matches_sorted_reference() {
        // Cross-check the quickselect path against sort-then-index.
        let xs: Vec<f64> = (0..101).map(|i| ((i * 37) % 101) as f64).collect();
        let mut sorted = xs.clone();
        sorted.sort_by(f64::total_cmp);
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 99.0, 100.0] {
            let rank = p / 100.0 * (xs.len() - 1) as f64;
            let lo = rank.floor() as usize;
            let frac = rank - lo as f64;
            let expect = if lo + 1 < sorted.len() {
                sorted[lo] + frac * (sorted[lo + 1] - sorted[lo])
            } else {
                sorted[lo]
            };
            assert!((percentile(&xs, p) - expect).abs() < 1e-9, "p={p}");
        }
    }
}
