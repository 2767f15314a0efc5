//! The benchmark's own order statistics. Deliberately not
//! `gcs_tensor::stats`: the yardstick must not change when the code it
//! measures does.

/// The `p`-th percentile (`0..=100`) of an ascending-sorted slice, with
/// linear interpolation between the two nearest ranks. Empty input gives
/// 0 so that a metric with no samples still prints a number.
fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    let Some(&last) = sorted.last() else {
        return 0.0;
    };
    let pos = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    match sorted.get(lo + 1) {
        Some(&next) => sorted[lo] + frac * (next - sorted[lo]),
        None => last,
    }
}

/// Median of an unsorted sample (sorts a copy).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Percentile of an unsorted sample (sorts a copy).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 25.0), 2.0);
        assert!((percentile(&xs, 90.0) - 4.6).abs() < 1e-12);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        // Out-of-range p clamps instead of indexing out of bounds.
        assert_eq!(percentile(&xs, 250.0), 5.0);
        assert_eq!(percentile(&xs, -1.0), 1.0);
    }

    #[test]
    fn empty_sample_reads_zero() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(percentile_sorted(&[], 99.0), 0.0);
    }

    #[test]
    fn input_order_does_not_matter() {
        let a = [9.0, 2.0, 7.0, 4.0, 4.0, 1.0];
        let mut b = a;
        b.reverse();
        assert_eq!(percentile(&a, 99.0), percentile(&b, 99.0));
        assert_eq!(median(&a), 4.0);
    }
}
