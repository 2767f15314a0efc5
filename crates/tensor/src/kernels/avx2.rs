//! AVX2+FMA implementations of the kernel table.
//!
//! Every entry is a thin safe wrapper around a `#[target_feature]` inner
//! function; the wrappers exist because function pointers can only be taken
//! of plain safe functions, and they are sound because this table is only
//! ever installed after `is_x86_feature_detected!("avx2")` and `("fma")`
//! both succeed (see `mod.rs::simd`).
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
//! - Float kernels use per-lane `vaddps`/`vmulps` (never FMA, matching the
//!   scalar two-rounding `a + alpha * b`), and `sum_abs` keeps the scalar
//!   table's 8-lane striping, so sums are bit-identical.

use super::{scalar, Kernels};
use std::arch::x86_64::*;

pub(super) static KERNELS: Kernels = Kernels {
    name: "avx2",
    sign_pack,
    unpack_fill,
    unpack_add,
    f32s_to_bytes,
    u32s_to_bytes,
    bytes_to_f32s,
    bytes_to_u32s,
    add_from_bytes,
    add_into_bytes,
    add_assign,
    axpy,
    scale,
    abs_into,
    sum_abs,
    gather_above,
    // LLVM already vectorizes the branch-free scalar form to ymm.
    tanh: scalar::tanh,
};

/// IEEE-754 abs mask (clears the sign bit), matching `f32::abs` bitwise.
const ABS_MASK: i32 = 0x7fff_ffff;

// ---------------------------------------------------------------------------
// sign pack / unpack
// ---------------------------------------------------------------------------

fn sign_pack(data: &[f32], out: &mut [u32]) {
    // SAFETY: table installed only after AVX2+FMA runtime detection.
    unsafe { sign_pack_avx2(data, out) }
}

// SAFETY: caller must guarantee AVX2+FMA are present; `out` must hold
// `ceil(data.len() / 32)` words (the table contract checked by `mod.rs`).
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

fn unpack_fill(words: &[u32], neg: f32, pos: f32, out: &mut [f32]) {
    // SAFETY: table installed only after AVX2+FMA runtime detection.
    unsafe { unpack_select_avx2::<false>(words, neg, pos, out) }
}

fn unpack_add(words: &[u32], neg: f32, pos: f32, out: &mut [f32]) {
    // SAFETY: table installed only after AVX2+FMA runtime detection.
    unsafe { unpack_select_avx2::<true>(words, neg, pos, out) }
}

/// Shared body of `unpack_fill` / `unpack_add`: broadcast one byte of the
/// bit stream per 8-lane group, test it against per-lane bit selectors, and
/// blend `neg`/`pos`. `ACCUMULATE` adds into `out` instead of storing.
// SAFETY: caller must guarantee AVX2+FMA are present; `words` must hold
// at least `ceil(out.len() / 32)` bit words.
#[target_feature(enable = "avx2,fma")]
unsafe fn unpack_select_avx2<const ACCUMULATE: bool>(
    words: &[u32],
    neg: f32,
    pos: f32,
    out: &mut [f32],
) {
    let n = out.len();
    let negv = _mm256_set1_ps(neg);
    let posv = _mm256_set1_ps(pos);
    let bitsel = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    let groups = n / 8;
    for g in 0..groups {
        let byte = (words[g / 4] >> ((g % 4) * 8)) & 0xff;
        let bv = _mm256_set1_epi32(byte as i32);
        let m = _mm256_cmpeq_epi32(_mm256_and_si256(bv, bitsel), bitsel);
        let sel = _mm256_blendv_ps(negv, posv, _mm256_castsi256_ps(m));
        let dst = out.as_mut_ptr().add(g * 8);
        if ACCUMULATE {
            _mm256_storeu_ps(dst, _mm256_add_ps(_mm256_loadu_ps(dst), sel));
        } else {
            _mm256_storeu_ps(dst, sel);
        }
    }
    for (i, o) in out.iter_mut().enumerate().skip(groups * 8) {
        let v = if (words[i / 32] >> (i % 32)) & 1 == 1 {
            pos
        } else {
            neg
        };
        if ACCUMULATE {
            *o += v;
        } else {
            *o = v;
        }
    }
}

// ---------------------------------------------------------------------------
// bulk byte <-> f32/u32 conversion and the reduce step
// ---------------------------------------------------------------------------

/// x86_64 is little-endian, so the per-element `to_le_bytes` loops are a
/// straight memory copy; `copy_nonoverlapping` lowers to the platform
/// memcpy, whose bulk path is already the widest vector the CPU has.
pub(super) fn f32s_to_bytes(xs: &[f32], out: &mut [u8]) {
    // SAFETY: `out` holds exactly `4 * xs.len()` bytes (wrapper contract)
    // and the slices cannot overlap (`&mut` aliasing rules).
    unsafe {
        std::ptr::copy_nonoverlapping(xs.as_ptr() as *const u8, out.as_mut_ptr(), xs.len() * 4);
    }
}

pub(super) fn u32s_to_bytes(xs: &[u32], out: &mut [u8]) {
    // SAFETY: as in `f32s_to_bytes`.
    unsafe {
        std::ptr::copy_nonoverlapping(xs.as_ptr() as *const u8, out.as_mut_ptr(), xs.len() * 4);
    }
}

pub(super) fn bytes_to_f32s(bytes: &[u8], out: &mut [f32]) {
    // SAFETY: `bytes` holds exactly `4 * out.len()` bytes (wrapper
    // contract); `f32` has no invalid bit patterns and alignment-1 reads
    // into an aligned destination are handled by memcpy.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr() as *mut u8, bytes.len());
    }
}

pub(super) fn bytes_to_u32s(bytes: &[u8], out: &mut [u32]) {
    // SAFETY: as in `bytes_to_f32s`.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr() as *mut u8, bytes.len());
    }
}

fn add_from_bytes(bytes: &[u8], out: &mut [f32]) {
    // SAFETY: table installed only after AVX2+FMA runtime detection.
    unsafe { add_from_bytes_avx2(bytes, out) }
}

// SAFETY: caller must guarantee AVX2+FMA are present and that `bytes`
// holds exactly `4 * out.len()` little-endian f32s; unaligned loads are
// used throughout so `bytes` needs no alignment.
#[target_feature(enable = "avx2,fma")]
unsafe fn add_from_bytes_avx2(bytes: &[u8], out: &mut [f32]) {
    let n = out.len();
    let full = n / 8;
    let src = bytes.as_ptr();
    for i in 0..full {
        // Unaligned load straight from the wire buffer; per-lane vaddps in
        // index order is exactly the scalar loop's association.
        let b = _mm256_loadu_ps(src.add(i * 32) as *const f32);
        let dst = out.as_mut_ptr().add(i * 8);
        _mm256_storeu_ps(dst, _mm256_add_ps(_mm256_loadu_ps(dst), b));
    }
    scalar::add_from_bytes(&bytes[full * 32..], &mut out[full * 8..]);
}

fn add_into_bytes(xs: &[f32], bytes: &mut [u8]) {
    // SAFETY: table installed only after AVX2+FMA runtime detection.
    unsafe { add_into_bytes_avx2(xs, bytes) }
}

// SAFETY: caller must guarantee AVX2+FMA are present and that `bytes`
// holds exactly `4 * xs.len()` little-endian f32s; unaligned loads/stores
// are used so `bytes` needs no alignment.
#[target_feature(enable = "avx2,fma")]
unsafe fn add_into_bytes_avx2(xs: &[f32], bytes: &mut [u8]) {
    let full = xs.len() / 8;
    let dst = bytes.as_mut_ptr();
    for i in 0..full {
        let w = _mm256_loadu_ps(dst.add(i * 32) as *const f32);
        let x = _mm256_loadu_ps(xs.as_ptr().add(i * 8));
        // x first, wire second — the scalar kernel's `x + w` order.
        _mm256_storeu_ps(dst.add(i * 32) as *mut f32, _mm256_add_ps(x, w));
    }
    scalar::add_into_bytes(&xs[full * 8..], &mut bytes[full * 32..]);
}

// ---------------------------------------------------------------------------
// elementwise float kernels
// ---------------------------------------------------------------------------

fn add_assign(acc: &mut [f32], other: &[f32]) {
    // SAFETY: table installed only after AVX2+FMA runtime detection.
    unsafe { add_assign_avx2(acc, other) }
}

// SAFETY: caller must guarantee AVX2+FMA are present and
// `other.len() >= acc.len()`.
#[target_feature(enable = "avx2,fma")]
unsafe fn add_assign_avx2(acc: &mut [f32], other: &[f32]) {
    let full = acc.len() / 8;
    for i in 0..full {
        let dst = acc.as_mut_ptr().add(i * 8);
        let b = _mm256_loadu_ps(other.as_ptr().add(i * 8));
        _mm256_storeu_ps(dst, _mm256_add_ps(_mm256_loadu_ps(dst), b));
    }
    scalar::add_assign(&mut acc[full * 8..], &other[full * 8..]);
}

fn axpy(y: &mut [f32], alpha: f32, x: &[f32]) {
    // SAFETY: table installed only after AVX2+FMA runtime detection.
    unsafe { axpy_avx2(y, alpha, x) }
}

// SAFETY: caller must guarantee AVX2+FMA are present and
// `x.len() >= y.len()`.
#[target_feature(enable = "avx2,fma")]
unsafe fn axpy_avx2(y: &mut [f32], alpha: f32, x: &[f32]) {
    let a = _mm256_set1_ps(alpha);
    let full = y.len() / 8;
    for i in 0..full {
        let dst = y.as_mut_ptr().add(i * 8);
        // vmulps + vaddps, NOT vfmadd: the scalar kernel rounds twice.
        let prod = _mm256_mul_ps(a, _mm256_loadu_ps(x.as_ptr().add(i * 8)));
        _mm256_storeu_ps(dst, _mm256_add_ps(_mm256_loadu_ps(dst), prod));
    }
    scalar::axpy(&mut y[full * 8..], alpha, &x[full * 8..]);
}

fn scale(v: &mut [f32], alpha: f32) {
    // SAFETY: table installed only after AVX2+FMA runtime detection.
    unsafe { scale_avx2(v, alpha) }
}

// SAFETY: caller must guarantee AVX2+FMA are present; all loads/stores
// stay inside `v`.
#[target_feature(enable = "avx2,fma")]
unsafe fn scale_avx2(v: &mut [f32], alpha: f32) {
    let a = _mm256_set1_ps(alpha);
    let full = v.len() / 8;
    for i in 0..full {
        let dst = v.as_mut_ptr().add(i * 8);
        _mm256_storeu_ps(dst, _mm256_mul_ps(_mm256_loadu_ps(dst), a));
    }
    scalar::scale(&mut v[full * 8..], alpha);
}

fn abs_into(data: &[f32], out: &mut [f32]) {
    // SAFETY: table installed only after AVX2+FMA runtime detection.
    unsafe { abs_into_avx2(data, out) }
}

// SAFETY: caller must guarantee AVX2+FMA are present and
// `out.len() >= data.len()`.
#[target_feature(enable = "avx2,fma")]
unsafe fn abs_into_avx2(data: &[f32], out: &mut [f32]) {
    let mask = _mm256_castsi256_ps(_mm256_set1_epi32(ABS_MASK));
    let full = data.len() / 8;
    for i in 0..full {
        let v = _mm256_loadu_ps(data.as_ptr().add(i * 8));
        _mm256_storeu_ps(out.as_mut_ptr().add(i * 8), _mm256_and_ps(v, mask));
    }
    scalar::abs_into(&data[full * 8..], &mut out[full * 8..]);
}

/// `pub(super)` so the AVX-512 table reuses this entry directly: the
/// kernel contract fixes the 8-lane striping, so a 16-lane version would
/// *break* bit-exactness rather than improve it.
pub(super) fn sum_abs(data: &[f32]) -> f32 {
    // SAFETY: table installed only after AVX2+FMA runtime detection (the
    // AVX-512 table also requires AVX2+FMA — see `mod.rs::simd`).
    unsafe { sum_abs_avx2(data) }
}

// SAFETY: caller must guarantee AVX2+FMA are present; reads stay inside
// `data`.
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

// SAFETY: caller must guarantee AVX2+FMA are present and pass `_CMP_GT_OQ`
// or `_CMP_NLE_UQ` as `CMP`. The over-wide stores below land in capacity
// reserved immediately beforehand (`reserve(8)`), and `set_len` only
// commits the `cnt` initialized slots.
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
