//! AVX2+FMA implementations of the kernel table.
//!
//! Every intrinsic entry is a thin safe wrapper around a `#[target_feature]`
//! inner function; the wrappers exist because function pointers can only
//! be taken of plain safe functions, and they are sound because this table
//! is only ever installed after `is_x86_feature_detected!("avx2")` and
//! `("fma")` both succeed (see `mod.rs::simd`). The sign unpack,
//! `add_assign`, `axpy` and `tanh` entries point at the scalar bodies,
//! which LLVM already vectorizes to ymm as fast as an intrinsic form
//! (DESIGN.md §10 has the timings).
//!
//! Where the vector width does not divide the input length, the `< lane`
//! tail is delegated to the scalar kernels, which are the semantic ground
//! truth — so exactness only has to be argued for the full-width body:
//!
//! - `sign_pack` uses an ordered `_CMP_GE_OQ` compare against `+0.0` and
//!   `movmskps`, reproducing the scalar `v >= 0.0` predicate exactly
//!   (NaN → 0, `-0.0` → 1). A raw sign-bit `movmskps` would misclassify
//!   positive NaNs.
//! - `gather_above` left-packs matching lanes with a 256-entry
//!   `vpermps` permutation LUT indexed by the compare movemask — the
//!   classic AVX2 stream-compaction trick that LLVM cannot autovectorize
//!   from the scalar branch-and-push loop.
//! - `sum_abs` keeps the scalar table's 8-lane striping with per-lane
//!   `vaddps`, so sums are bit-identical.

use super::{scalar, Kernels};
use std::arch::x86_64::*;

pub(super) static KERNELS: Kernels = Kernels {
    name: "avx2",
    sign_pack,
    unpack_fill: scalar::unpack_fill,
    unpack_add: scalar::unpack_add,
    sum_abs,
    add_assign: scalar::add_assign,
    axpy: scalar::axpy,
    gather_above,
    tanh: scalar::tanh,
};

/// IEEE-754 abs mask (clears the sign bit), matching `f32::abs` bitwise.
const ABS_MASK: i32 = 0x7fff_ffff;

// ---------------------------------------------------------------------------
// sign pack
// ---------------------------------------------------------------------------

fn sign_pack(data: &[f32], out: &mut [u32]) {
    // SAFETY: table installed only after AVX2+FMA runtime detection.
    unsafe { sign_pack_avx2(data, out) }
}

/// # Safety
/// Caller must guarantee AVX2+FMA are present; `out` must hold
/// `ceil(data.len() / 32)` words (the table contract checked by `mod.rs`).
#[target_feature(enable = "avx2,fma")]
unsafe fn sign_pack_avx2(data: &[f32], out: &mut [u32]) {
    let full_words = data.len() / 32;
    let zero = _mm256_setzero_ps();
    for (w, out_w) in out.iter_mut().enumerate().take(full_words) {
        let base = data.as_ptr().add(w * 32);
        let mut acc = 0u32;
        // 4 groups of 8 lanes fill one u32, LSB-first like the scalar pack.
        for g in 0..4 {
            let v = _mm256_loadu_ps(base.add(g * 8));
            let m = _mm256_cmp_ps::<_CMP_GE_OQ>(v, zero);
            acc |= (_mm256_movemask_ps(m) as u32 & 0xff) << (8 * g);
        }
        *out_w = acc;
    }
    scalar::sign_pack(&data[full_words * 32..], &mut out[full_words..]);
}

// ---------------------------------------------------------------------------
// lane-striped |x| reduction
// ---------------------------------------------------------------------------

/// `pub(super)` so the AVX-512 table reuses this entry directly: the
/// kernel contract fixes the 8-lane striping, so a 16-lane version would
/// *break* bit-exactness rather than improve it.
pub(super) fn sum_abs(data: &[f32]) -> f32 {
    // SAFETY: table installed only after AVX2+FMA runtime detection (the
    // AVX-512 table also requires AVX2+FMA — see `mod.rs::simd`).
    unsafe { sum_abs_avx2(data) }
}

/// # Safety
/// Caller must guarantee AVX2+FMA are present; reads stay inside
/// `data`.
#[target_feature(enable = "avx2,fma")]
unsafe fn sum_abs_avx2(data: &[f32]) -> f32 {
    // One vaddps per 8 elements IS the scalar kernel's lane striping:
    // lane l accumulates |data[8k + l]| in index order.
    let mask = _mm256_castsi256_ps(_mm256_set1_epi32(ABS_MASK));
    let mut acc = _mm256_setzero_ps();
    let full = data.len() / 8;
    for i in 0..full {
        let v = _mm256_loadu_ps(data.as_ptr().add(i * 8));
        acc = _mm256_add_ps(acc, _mm256_and_ps(v, mask));
    }
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
    // Same fixed pairwise combination tree as the scalar kernel.
    let mut total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    for &v in &data[full * 8..] {
        total += v.abs();
    }
    total
}

// ---------------------------------------------------------------------------
// top-k threshold gather (stream compaction)
// ---------------------------------------------------------------------------

/// Left-pack permutation LUT: row `m` lists, in ascending order, the lanes
/// whose bit is set in the 8-bit movemask `m` (unused slots are 0 — their
/// output is never committed because only `popcount(m)` elements are kept).
static COMPRESS_LUT: [[u32; 8]; 256] = build_compress_lut();

const fn build_compress_lut() -> [[u32; 8]; 256] {
    let mut lut = [[0u32; 8]; 256];
    let mut m = 0usize;
    while m < 256 {
        let mut out_pos = 0usize;
        let mut lane = 0usize;
        while lane < 8 {
            if m & (1 << lane) != 0 {
                lut[m][out_pos] = lane as u32;
                out_pos += 1;
            }
            lane += 1;
        }
        m += 1;
    }
    lut
}

fn gather_above(
    data: &[f32],
    threshold: f32,
    with_nan: bool,
    indices: &mut Vec<u32>,
    values: &mut Vec<f32>,
) {
    // SAFETY: table installed only after AVX2+FMA runtime detection.
    unsafe {
        if with_nan {
            gather_above_avx2::<_CMP_NLE_UQ>(data, threshold, indices, values)
        } else {
            gather_above_avx2::<_CMP_GT_OQ>(data, threshold, indices, values)
        }
    }
}

/// # Safety
/// Caller must guarantee AVX2+FMA are present and pass `_CMP_GT_OQ`
/// or `_CMP_NLE_UQ` as `CMP`. The over-wide stores below land in capacity
/// reserved immediately beforehand (`reserve(8)`), and `set_len` only
/// commits the `cnt` initialized slots.
#[target_feature(enable = "avx2,fma")]
unsafe fn gather_above_avx2<const CMP: i32>(
    data: &[f32],
    threshold: f32,
    indices: &mut Vec<u32>,
    values: &mut Vec<f32>,
) {
    let absmask = _mm256_castsi256_ps(_mm256_set1_epi32(ABS_MASK));
    let tv = _mm256_set1_ps(threshold);
    let eight = _mm256_set1_epi32(8);
    let mut idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let full = data.len() / 8;
    for blk in 0..full {
        let v = _mm256_loadu_ps(data.as_ptr().add(blk * 8));
        // Ordered > (NaNs compare false, the scalar `abs() > t`) or its
        // unordered form not-<= (NaNs compare true), as the caller chose.
        let m = _mm256_cmp_ps::<CMP>(_mm256_and_ps(v, absmask), tv);
        let mask = _mm256_movemask_ps(m) as usize & 0xff;
        if mask != 0 {
            let cnt = mask.count_ones() as usize;
            let perm = _mm256_loadu_si256(COMPRESS_LUT[mask].as_ptr() as *const __m256i);
            let packed_idx = _mm256_permutevar8x32_epi32(idx, perm);
            let packed_val = _mm256_permutevar8x32_ps(v, perm);
            // Store a full 8-wide vector past `len`, then commit only the
            // `cnt` matching entries.
            let il = indices.len();
            indices.reserve(8);
            _mm256_storeu_si256(indices.as_mut_ptr().add(il) as *mut __m256i, packed_idx);
            indices.set_len(il + cnt);
            let vl = values.len();
            values.reserve(8);
            _mm256_storeu_ps(values.as_mut_ptr().add(vl), packed_val);
            values.set_len(vl + cnt);
        }
        idx = _mm256_add_epi32(idx, eight);
    }
    scalar::gather_above_from(
        &data[full * 8..],
        (full * 8) as u32,
        threshold,
        CMP == _CMP_NLE_UQ,
        indices,
        values,
    );
}
