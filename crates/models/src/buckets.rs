//! PyTorch-DDP-style gradient bucketing and backward ready times.
//!
//! DDP groups gradients into ~25 MB buckets in *reverse* layer order (the
//! order backward produces them) and launches one all-reduce per filled
//! bucket, overlapping communication with the rest of the backward pass
//! (§2.2 "Bucketing Gradients"). The performance model's `k` (number of
//! buckets) and `b̂` (last-bucket size) come from this partitioning.

use crate::{LayerSpec, ModelSpec};

/// The DDP default bucket size (25 MB).
pub const DEFAULT_BUCKET_BYTES: usize = 25 * 1024 * 1024;

/// One gradient bucket: a contiguous run of layers in backward order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bucket {
    /// Indices into `ModelSpec::layers` (original forward order) of the
    /// layers in this bucket, in backward order (descending).
    pub layers: Vec<usize>,
    /// Total gradient bytes in the bucket.
    pub bytes: usize,
}

/// Buckets `model`'s gradients the way `DistributedDataParallel` does:
/// [`partition_bytes`] over the layers' gradient sizes.
///
/// # Panics
///
/// Panics if `bucket_bytes == 0`.
pub fn partition(model: &ModelSpec, bucket_bytes: usize) -> Vec<Bucket> {
    let layer_bytes: Vec<usize> = model.layers.iter().map(LayerSpec::grad_bytes).collect();
    partition_bytes(&layer_bytes, bucket_bytes)
}

/// Partitions layers of `layer_bytes[i]` gradient bytes (forward order)
/// into buckets of at most `bucket_bytes`, filled in backward order. A
/// layer larger than the bucket size gets a bucket of its own, and every
/// layer lands in exactly one bucket, zero-byte layers included.
///
/// The returned buckets are in fill order: `buckets[0]` is the first
/// bucket ready during backward.
///
/// # Panics
///
/// Panics if `bucket_bytes == 0`.
pub fn partition_bytes(layer_bytes: &[usize], bucket_bytes: usize) -> Vec<Bucket> {
    assert!(bucket_bytes > 0, "bucket size must be positive");
    let mut buckets: Vec<Bucket> = Vec::new();
    for (idx, &bytes) in layer_bytes.iter().enumerate().rev() {
        match buckets.last_mut() {
            Some(open) if open.bytes == 0 || open.bytes + bytes <= bucket_bytes => {
                open.layers.push(idx);
                open.bytes += bytes;
            }
            _ => buckets.push(Bucket {
                layers: vec![idx],
                bytes,
            }),
        }
    }
    buckets
}

/// Fraction of the backward pass elapsed when each layer's gradient
/// becomes ready, indexed like `model.layers` (forward order).
///
/// Backward walks layers from last to first; per-layer backward cost is
/// approximated as proportional to the layer's parameter count (with a
/// small floor so zero-cost layers still take time). `ready[i]` is in
/// `(0, 1]`, and the *first* layer finishing backward means the whole pass
/// is done (`ready[0] == 1.0`).
pub fn ready_fractions(model: &ModelSpec) -> Vec<f64> {
    let n = model.layers.len();
    let total: f64 = model.layers.iter().map(|l| l.cost_weight).sum();
    // Floor: treat every layer as at least 0.1 / n of the pass so tiny
    // bias/LN layers get non-zero time.
    let floor = 0.1 * total / n as f64;
    let costs: Vec<f64> = model
        .layers
        .iter()
        .map(|l| l.cost_weight.max(floor))
        .collect();
    let denom: f64 = costs.iter().sum();
    let mut ready = vec![0.0f64; n];
    let mut elapsed = 0.0;
    for i in (0..n).rev() {
        elapsed += costs[i];
        ready[i] = elapsed / denom;
    }
    ready
}

/// Fraction of the backward pass elapsed when each *bucket* is full,
/// aligned with the buckets returned by [`partition`].
pub fn bucket_ready_fractions(model: &ModelSpec, buckets: &[Bucket]) -> Vec<f64> {
    let layer_ready = ready_fractions(model);
    buckets
        .iter()
        .map(|b| {
            b.layers
                .iter()
                .map(|&i| layer_ready[i])
                .fold(0.0f64, f64::max)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn buckets_cover_every_layer_exactly_once() {
        let m = presets::resnet50();
        let buckets = partition(&m, DEFAULT_BUCKET_BYTES);
        let mut seen = vec![false; m.num_layers()];
        for b in &buckets {
            for &i in &b.layers {
                assert!(!seen[i], "layer {i} bucketed twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "all layers bucketed");
        let total: usize = buckets.iter().map(|b| b.bytes).sum();
        assert_eq!(total, m.size_bytes());
    }

    #[test]
    fn resnet50_has_about_four_25mb_buckets() {
        // 97 MB / 25 MB ≈ 4 buckets (PyTorch reports 4-5 for ResNet-50).
        let buckets = partition(&presets::resnet50(), DEFAULT_BUCKET_BYTES);
        assert!(
            (4..=6).contains(&buckets.len()),
            "got {} buckets",
            buckets.len()
        );
    }

    #[test]
    fn bert_has_about_sixteen_buckets() {
        let buckets = partition(&presets::bert_base(), DEFAULT_BUCKET_BYTES);
        assert!(
            (16..=20).contains(&buckets.len()),
            "got {} buckets",
            buckets.len()
        );
    }

    #[test]
    fn buckets_fill_in_reverse_layer_order() {
        let m = presets::resnet50();
        let buckets = partition(&m, DEFAULT_BUCKET_BYTES);
        // First bucket holds the *last* layers.
        assert!(buckets[0].layers.contains(&(m.num_layers() - 1)));
        // Indices within a bucket descend.
        for b in &buckets {
            for w in b.layers.windows(2) {
                assert!(w[0] > w[1]);
            }
        }
    }

    #[test]
    fn oversized_layer_gets_own_bucket() {
        let m = presets::vgg16(); // classifier.0.weight is ~411 MB
        let buckets = partition(&m, DEFAULT_BUCKET_BYTES);
        let fat = buckets
            .iter()
            .find(|b| b.bytes > DEFAULT_BUCKET_BYTES)
            .expect("oversized bucket exists");
        assert_eq!(fat.layers.len(), 1, "oversized layer must be alone");
    }

    #[test]
    fn one_giant_bucket_when_size_is_huge() {
        let m = presets::resnet50();
        let buckets = partition(&m, usize::MAX);
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].bytes, m.size_bytes());
    }

    #[test]
    fn ready_fractions_monotone_in_backward_order() {
        let m = presets::resnet101();
        let ready = ready_fractions(&m);
        // Later layers (higher index) become ready earlier.
        for w in ready.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!((ready[0] - 1.0).abs() < 1e-9);
        assert!(ready[m.num_layers() - 1] > 0.0);
    }

    #[test]
    fn bucket_ready_fractions_monotone_and_end_at_one() {
        let m = presets::bert_base();
        let buckets = partition(&m, DEFAULT_BUCKET_BYTES);
        let ready = bucket_ready_fractions(&m, &buckets);
        for w in ready.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        assert!((ready.last().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_byte_layers_keep_a_bucket() {
        // Layer 0 has no elements and is left after the oversized layer 1
        // closes the first bucket: it still gets a bucket of its own.
        let buckets = partition_bytes(&[0, 400, 8, 0], 16);
        let layers: Vec<&[usize]> = buckets.iter().map(|b| &b.layers[..]).collect();
        assert_eq!(layers, [&[3, 2][..], &[1], &[0]]);
        assert_eq!(buckets[2].bytes, 0);
        assert!(partition_bytes(&[], 16).is_empty());
    }

    #[test]
    #[should_panic(expected = "bucket size must be positive")]
    fn zero_bucket_size_rejected() {
        let _ = partition(&presets::resnet50(), 0);
    }
}
