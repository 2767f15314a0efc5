//! Top-k / random-k index selection used by sparsification compressors.

use crate::kernels;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A sparse selection: parallel arrays of flat indices and their values.
///
/// Indices are `u32` because the paper's Top-K implementation communicates
/// 32-bit indices alongside 32-bit values (hence the 2x latency/byte
/// overhead the performance model charges it).
#[derive(Debug, Clone, PartialEq)]
pub struct SparseSelection {
    /// Flat element indices, unordered.
    pub indices: Vec<u32>,
    /// Values at those indices.
    pub values: Vec<f32>,
}

impl SparseSelection {
    /// Number of selected entries.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the selection is empty.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }
}

/// Selects the `k` entries of `data` with the largest absolute value.
///
/// The threshold (the k-th largest magnitude) is found **exactly** without
/// sorting or copying the whole input: a fixed-stride sample of the
/// magnitudes gives a bound `lo` that the k-th magnitude almost surely
/// exceeds, one SIMD pass gathers every entry above `lo` (typically
/// 1.2–1.5·k candidates), and a quickselect among the candidates alone
/// yields the threshold and the selection. Whenever the bound admits fewer
/// than `k` candidates (heavy ties, mostly-zero data, a pattern aligned
/// with the stride, short inputs) the call falls back to an average-O(n)
/// quickselect over a scratch copy of all magnitudes. Both routes compute
/// the same k-th magnitude and emit the same entries in the same order, so
/// the route taken is invisible in the result.
///
/// Ties at the threshold magnitude are broken **deterministically toward
/// the lowest index**: entries strictly above the k-th magnitude come
/// first in ascending index order, then threshold-equal entries fill the
/// remaining slots scanning from index 0. NaN magnitudes rank above every
/// finite one when the threshold is chosen but are emitted last, after the
/// ties. Every gather kernel table honors the same order, so the selection
/// is bit-identical across dispatch tables — which is what keeps Top-K
/// workers in agreement regardless of each host's SIMD support. If
/// `k >= data.len()` all entries are selected.
///
/// # Example
///
/// ```
/// use gcs_tensor::select::top_k_abs;
///
/// let sel = top_k_abs(&[0.1, -5.0, 2.0, 0.0], 2);
/// let mut idx = sel.indices.clone();
/// idx.sort();
/// assert_eq!(idx, vec![1, 2]);
/// ```
pub fn top_k_abs(data: &[f32], k: usize) -> SparseSelection {
    top_k_abs_with(data, k, &mut Vec::new())
}

/// [`top_k_abs`] with a caller-provided magnitude scratch buffer, so
/// repeated selections (one per layer per iteration in Top-K compression)
/// reuse one allocation. `mags` holds the strided sample (`n / 64`
/// magnitudes) and then the candidates' magnitudes; only the fallback
/// grows it to a full `|data|`-sized copy.
pub fn top_k_abs_with(data: &[f32], k: usize, mags: &mut Vec<f32>) -> SparseSelection {
    let n = data.len();
    if k == 0 || n == 0 {
        return SparseSelection {
            indices: Vec::new(),
            values: Vec::new(),
        };
    }
    if k >= n {
        return SparseSelection {
            indices: (0..n as u32).collect(),
            values: data.to_vec(),
        };
    }
    match top_k_from_sampled_bound(data, k, mags) {
        Some(sel) => sel,
        None => top_k_full(data, k, mags),
    }
}

/// One magnitude in this many is read to place the candidate bound.
const SAMPLE_STRIDE: usize = 64;

/// Exact top-k through a sampled lower bound on the k-th magnitude, or
/// `None` when the bound cannot be shown to lie below it. Requires
/// `0 < k < data.len()`.
///
/// Exactness: the candidates are every entry whose magnitude ranks above
/// `lo` in the total order the quickselect uses (`|x| > lo`, or NaN) — an
/// upper set of that order. If it holds at least `k` entries, the k-th
/// largest magnitude overall is the k-th largest among the candidates and
/// is itself `> lo`, so every entry above it, every entry tied with it
/// and every NaN is a candidate, in ascending index order: the selection
/// [`top_k_full`] would build from `data` can be built from the candidate
/// list alone. The sample only decides how many candidates there are,
/// never which entries are selected.
fn top_k_from_sampled_bound(
    data: &[f32],
    k: usize,
    mags: &mut Vec<f32>,
) -> Option<SparseSelection> {
    let n = data.len();
    let m = n.div_ceil(SAMPLE_STRIDE);
    // The k-th magnitude sits near rank k·m/n of the sample; taking the
    // bound 4 standard deviations of that (binomial) rank further down,
    // plus slack for small counts, leaves it above the k-th magnitude
    // about once in 10^4 calls on exchangeable data.
    let expected = k as f64 * m as f64 / n as f64;
    let rank = (expected + 4.0 * expected.sqrt()) as usize + 2;
    // A bound this deep in the sample admits over a quarter of the input
    // (large k, or an input too short to sample): the full select is no
    // slower there.
    if rank * 4 > m {
        return None;
    }
    mags.clear();
    mags.extend(data.iter().step_by(SAMPLE_STRIDE).map(|v| v.abs()));
    let lo = kth_threshold(mags, rank);
    if lo.is_nan() {
        // NaN-ridden input; an unordered compare against NaN matches
        // everything.
        return None;
    }
    let (cand_idx, cand_val) = gather_above(data, lo, true);
    if cand_idx.len() < k {
        return None;
    }
    mags.clear();
    mags.resize(cand_val.len(), 0.0);
    kernels::abs_into(&cand_val, mags);
    let threshold = kth_threshold(mags, k);
    let mut indices = Vec::with_capacity(k);
    let mut values = Vec::with_capacity(k);
    for (&i, &v) in cand_idx.iter().zip(&cand_val) {
        if v.abs() > threshold {
            indices.push(i);
            values.push(v);
        }
    }
    let cands = cand_idx.iter().copied().zip(cand_val.iter().copied());
    Some(finish_selection(cands, k, threshold, indices, values))
}

/// Exact top-k by quickselect over a scratch copy of every magnitude: the
/// route taken when sampling cannot bound the threshold, and the
/// reference the sampled route is tested against. Requires
/// `0 < k < data.len()`.
fn top_k_full(data: &[f32], k: usize, mags: &mut Vec<f32>) -> SparseSelection {
    mags.clear();
    mags.resize(data.len(), 0.0);
    kernels::abs_into(data, mags);
    let threshold = kth_threshold(mags, k);
    // Gather: first everything strictly above threshold (SIMD stream
    // compaction on AVX2/AVX-512 hosts, same index order as the scalar
    // scan), then fill with threshold-equal entries until k are collected.
    let (indices, values) = gather_above(data, threshold, false);
    let entries = data.iter().enumerate().map(|(i, &v)| (i as u32, v));
    finish_selection(entries, k, threshold, indices, values)
}

/// Quickselect the k-th largest magnitude on the (already filled)
/// magnitude scratch. Requires `0 < k <= mags.len()`.
fn kth_threshold(mags: &mut [f32], k: usize) -> f32 {
    // total_cmp keeps the descending selection deterministic even when a
    // NaN magnitude sneaks in (partial_cmp's Equal fallback let NaN float
    // anywhere in the partition, making the threshold run-to-run noise).
    let (_, kth, _) = mags.select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a));
    *kth
}

/// [`kernels::gather_above`] over all of `data` into fresh vectors.
fn gather_above(data: &[f32], threshold: f32, with_nan: bool) -> (Vec<u32>, Vec<f32>) {
    let (mut indices, mut values) = (Vec::new(), Vec::new());
    kernels::gather_above(data, threshold, with_nan, &mut indices, &mut values);
    (indices, values)
}

/// Tie-fill: if fewer than `k` entries were strictly above the threshold,
/// scan `entries` (ascending index order) adding threshold-equal ones
/// until `k` are collected — the deterministic lowest-index tie-break.
fn finish_selection(
    entries: impl Iterator<Item = (u32, f32)> + Clone,
    k: usize,
    threshold: f32,
    mut indices: Vec<u32>,
    mut values: Vec<f32>,
) -> SparseSelection {
    if indices.len() < k {
        for (i, v) in entries.clone() {
            if indices.len() == k {
                break;
            }
            if v.abs() == threshold {
                indices.push(i);
                values.push(v);
            }
        }
    }
    if indices.len() < k {
        // Only reachable with NaN inputs: NaN magnitudes rank above every
        // finite value in the descending total order (so the quickselect
        // counted them into the top k) but match neither the `>` gather
        // nor the `==` tie-fill. Append them in ascending index order so
        // the selection still has exactly k deterministic entries.
        for (i, v) in entries {
            if indices.len() == k {
                break;
            }
            if v.is_nan() {
                indices.push(i);
                values.push(v);
            }
        }
    }
    debug_assert_eq!(indices.len(), k);
    SparseSelection { indices, values }
}

/// Selects `k` uniformly random entries (without replacement) using a seeded
/// RNG — the Random-K baseline from Table 1 of the paper.
///
/// All workers sharing the same `seed` select the same coordinates, which is
/// what makes Random-K all-reduce compatible.
///
/// Uses Floyd's sampling algorithm: O(k) time and memory, independent of
/// the gradient length — the previous implementation materialized and
/// partially shuffled all `n` indices per call.
pub fn random_k(data: &[f32], k: usize, seed: u64) -> SparseSelection {
    let n = data.len();
    let k = k.min(n);
    if k == 0 {
        return SparseSelection {
            indices: Vec::new(),
            values: Vec::new(),
        };
    }
    let mut rng = StdRng::seed_from_u64(seed);
    // Floyd's algorithm: for j = n-k..n, draw t uniform in [0, j]; insert t
    // unless already chosen, in which case insert j. Every k-subset is
    // equally likely, and indices come out in insertion order (still
    // deterministic per seed, which is all workers need to agree on).
    let mut chosen: std::collections::HashSet<u32> = std::collections::HashSet::with_capacity(k);
    let mut indices: Vec<u32> = Vec::with_capacity(k);
    for j in (n - k)..n {
        let t = rng.gen_range(0..=j) as u32;
        let pick = if chosen.insert(t) { t } else { j as u32 };
        if pick != t {
            chosen.insert(pick);
        }
        indices.push(pick);
    }
    let values = indices.iter().map(|&i| data[i as usize]).collect();
    SparseSelection { indices, values }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_picks_largest_magnitudes() {
        let data = [1.0, -10.0, 3.0, 0.5, -4.0];
        let sel = top_k_abs(&data, 3);
        let mut pairs: Vec<(u32, f32)> = sel
            .indices
            .iter()
            .copied()
            .zip(sel.values.iter().copied())
            .collect();
        pairs.sort_by_key(|&(i, _)| i);
        assert_eq!(pairs, vec![(1, -10.0), (2, 3.0), (4, -4.0)]);
    }

    #[test]
    fn top_k_zero_and_full() {
        let data = [1.0, 2.0];
        assert!(top_k_abs(&data, 0).is_empty());
        let all = top_k_abs(&data, 5);
        assert_eq!(all.len(), 2);
        assert!(top_k_abs(&[], 3).is_empty());
    }

    #[test]
    fn top_k_handles_ties_with_exact_count() {
        let data = [1.0f32; 100];
        let sel = top_k_abs(&data, 37);
        assert_eq!(sel.len(), 37);
    }

    #[test]
    fn top_k_breaks_threshold_ties_toward_lowest_index() {
        // Threshold magnitude 1.0 is shared by indices 1, 2, 3, 5; only two
        // slots remain after the strictly-above entries (indices 0 and 4),
        // and the contract picks the lowest-indexed tied entries.
        let data = [2.0, -1.0, 1.0, 1.0, -2.0, 1.0];
        let sel = top_k_abs(&data, 4);
        assert_eq!(sel.indices, vec![0, 4, 1, 2]);
        assert_eq!(sel.values, vec![2.0, -2.0, -1.0, 1.0]);
        // All-tied input: exactly the first k indices.
        let flat = [3.0f32; 8];
        let sel = top_k_abs(&flat, 5);
        assert_eq!(sel.indices, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn top_k_values_match_indices() {
        let data: Vec<f32> = (0..1000).map(|i| ((i * 37 % 101) as f32) - 50.0).collect();
        let sel = top_k_abs(&data, 100);
        for (&i, &v) in sel.indices.iter().zip(&sel.values) {
            assert_eq!(data[i as usize], v);
        }
        // Every selected magnitude >= every unselected magnitude.
        let selected: std::collections::HashSet<u32> = sel.indices.iter().copied().collect();
        let min_sel = sel.values.iter().map(|v| v.abs()).fold(f32::MAX, f32::min);
        for (i, &v) in data.iter().enumerate() {
            if !selected.contains(&(i as u32)) {
                assert!(v.abs() <= min_sel + 1e-6);
            }
        }
    }

    fn value_bits(sel: &SparseSelection) -> Vec<u32> {
        sel.values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn sampled_bound_route_equals_full_select() {
        // Well-mixed data: the sample must bound the threshold (the route
        // returns `Some`) and the result must be the full select's.
        let mut data = crate::Tensor::randn([100_000], 11).into_vec();
        data[777] = f32::NAN;
        data[50_001] = f32::NEG_INFINITY;
        for k in [1usize, 100, 1000, 10_000] {
            let sampled = top_k_from_sampled_bound(&data, k, &mut Vec::new())
                .unwrap_or_else(|| panic!("k={k}: sample failed to bound gaussian data"));
            let full = top_k_full(&data, k, &mut Vec::new());
            assert_eq!(sampled.indices, full.indices, "k={k}");
            assert_eq!(value_bits(&sampled), value_bits(&full), "k={k}");
        }
    }

    #[test]
    fn sampled_bound_route_declines_what_it_cannot_prove() {
        let n = 100_000;
        let declines =
            |data: &[f32], k: usize| top_k_from_sampled_bound(data, k, &mut Vec::new()).is_none();
        let gauss = crate::Tensor::randn([n], 12).into_vec();
        // All tied: nothing ranks above the bound.
        assert!(declines(&vec![2.0; n], n / 100));
        // Mostly zero with k above the non-zero count: the threshold is 0.
        let sparse: Vec<f32> = (0..n).map(|i| (i % 500 == 3) as u32 as f32).collect();
        assert!(declines(&sparse, n / 100));
        // Spikes exactly on the sample stride: the bound lands among them.
        let spikes: Vec<f32> = (0..n)
            .map(|i| {
                if i % SAMPLE_STRIDE == 0 {
                    9.0
                } else {
                    gauss[i] * 0.01
                }
            })
            .collect();
        assert!(declines(&spikes, n / 100));
        // Large k and short inputs: the bound would admit most of the data.
        assert!(declines(&gauss, n - 1));
        assert!(declines(&gauss[..300], 1));
        // More NaNs than the bound's rank: the bound itself is NaN.
        let nans: Vec<f32> = (0..n)
            .map(|i| if i % 3 == 0 { f32::NAN } else { gauss[i] })
            .collect();
        assert!(declines(&nans, n / 100));
        // The public entry point still answers all of them, exactly k.
        for (data, k) in [(&spikes, n / 100), (&sparse, n / 100), (&nans, n / 100)] {
            assert_eq!(top_k_abs(data, k).len(), k);
        }
    }

    #[test]
    fn random_k_is_deterministic_and_distinct() {
        let data: Vec<f32> = (0..50).map(|i| i as f32).collect();
        let a = random_k(&data, 10, 7);
        let b = random_k(&data, 10, 7);
        assert_eq!(a, b);
        let mut idx = a.indices.clone();
        idx.sort();
        idx.dedup();
        assert_eq!(idx.len(), 10, "indices must be distinct");
        let c = random_k(&data, 10, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn random_k_is_not_biased_to_a_prefix() {
        // Regression test: rand's partial_shuffle shuffles the slice tail,
        // so naively taking the front returns 0..k almost verbatim.
        let data = vec![0.0f32; 1000];
        let sel = random_k(&data, 10, 99);
        let prefix_hits = sel.indices.iter().filter(|&&i| i < 10).count();
        assert!(
            prefix_hits < 5,
            "selection stuck on prefix: {:?}",
            sel.indices
        );
        // Different seeds give different sets.
        let other = random_k(&data, 10, 100);
        assert_ne!(sel.indices, other.indices);
    }
}
