//! AVX-512F implementations of the kernel table.
//!
//! Same structure as the AVX2 table (`avx2.rs`): every entry is a thin
//! safe wrapper around a `#[target_feature]` inner function, sound because
//! this table is only installed after `is_x86_feature_detected!` confirms
//! `avx512f` **and** `avx2`/`fma` (the tails and the shared `sum_abs`
//! entry run AVX2 code) — see `mod.rs::simd`.
//!
//! What the 512-bit ISA buys over the AVX2 tier:
//!
//! - **Mask registers replace movemask/LUT games.** `vcmpps` produces a
//!   `__mmask16` directly, so `sign_pack` builds a 32-bit sign word from
//!   two compares and one shift-or, and `gather_above` left-packs matching
//!   lanes with `vcompressps` (one instruction) instead of the 256-entry
//!   `vpermps` permutation LUT. It tests four masks at once, so the scan
//!   branches once per 64 lanes.
//! - **16-lane elementwise kernels** halve the instruction count on the
//!   wire-add and unpack hot loops.
//!
//! The exactness contract is unchanged: ordered compares (`_CMP_GE_OQ` /
//! `_CMP_GT_OQ`) against `+0.0` reproduce the scalar predicates on NaN and
//! `-0.0`; float kernels stay per-lane with no reassociation (`vmulps` +
//! `vaddps`, never FMA, for `axpy`); and `sum_abs` **reuses the AVX2
//! entry unchanged**, because the kernel contract pins the reduction to
//! 8-lane striping — a 16-lane stripe would change the result bits, which
//! is exactly what the contract forbids.

use super::{avx2, scalar, Kernels};
use std::arch::x86_64::*;

pub(super) static KERNELS: Kernels = Kernels {
    name: "avx512",
    sign_pack,
    unpack_fill,
    unpack_add,
    // Byte ↔ word conversions are memcpy on little-endian x86; the AVX2
    // table's `copy_nonoverlapping` entries are already width-optimal.
    f32s_to_bytes: avx2::f32s_to_bytes,
    u32s_to_bytes: avx2::u32s_to_bytes,
    bytes_to_f32s: avx2::bytes_to_f32s,
    bytes_to_u32s: avx2::bytes_to_u32s,
    add_from_bytes,
    add_into_bytes,
    add_assign,
    axpy,
    scale,
    abs_into,
    // 8-lane striping is the kernel contract; see the module docs.
    sum_abs: avx2::sum_abs,
    gather_above,
};

/// IEEE-754 abs mask (clears the sign bit), matching `f32::abs` bitwise.
const ABS_MASK: i32 = 0x7fff_ffff;

// ---------------------------------------------------------------------------
// sign pack / unpack
// ---------------------------------------------------------------------------

fn sign_pack(data: &[f32], out: &mut [u32]) {
    // SAFETY: table installed only after AVX-512F runtime detection.
    unsafe { sign_pack_avx512(data, out) }
}

// SAFETY: caller must guarantee AVX-512F is present; `out` must hold
// `ceil(data.len() / 32)` words (the table contract checked by `mod.rs`).
#[target_feature(enable = "avx512f")]
unsafe fn sign_pack_avx512(data: &[f32], out: &mut [u32]) {
    let full_words = data.len() / 32;
    let zero = _mm512_setzero_ps();
    for (w, out_w) in out.iter_mut().enumerate().take(full_words) {
        let base = data.as_ptr().add(w * 32);
        // Two 16-lane ordered >= compares fill one u32, LSB-first like the
        // scalar pack (NaN → 0, -0.0 → 1).
        let lo = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(_mm512_loadu_ps(base), zero);
        let hi = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(_mm512_loadu_ps(base.add(16)), zero);
        *out_w = (lo as u32) | ((hi as u32) << 16);
    }
    scalar::sign_pack(&data[full_words * 32..], &mut out[full_words..]);
}

fn unpack_fill(words: &[u32], neg: f32, pos: f32, out: &mut [f32]) {
    // SAFETY: table installed only after AVX-512F runtime detection.
    unsafe { unpack_select_avx512::<false>(words, neg, pos, out) }
}

fn unpack_add(words: &[u32], neg: f32, pos: f32, out: &mut [f32]) {
    // SAFETY: table installed only after AVX-512F runtime detection.
    unsafe { unpack_select_avx512::<true>(words, neg, pos, out) }
}

/// Shared body of `unpack_fill` / `unpack_add`: 16 bits of the sign stream
/// become one mask register, which blends `neg`/`pos` in a single
/// `vblendmps`. `ACCUMULATE` adds into `out` instead of storing.
// SAFETY: caller must guarantee AVX-512F is present; `words` must hold at
// least `ceil(out.len() / 32)` bit words.
#[target_feature(enable = "avx512f")]
unsafe fn unpack_select_avx512<const ACCUMULATE: bool>(
    words: &[u32],
    neg: f32,
    pos: f32,
    out: &mut [f32],
) {
    let n = out.len();
    let negv = _mm512_set1_ps(neg);
    let posv = _mm512_set1_ps(pos);
    let groups = n / 16;
    for g in 0..groups {
        let k = ((words[g / 2] >> ((g % 2) * 16)) & 0xffff) as __mmask16;
        let sel = _mm512_mask_blend_ps(k, negv, posv);
        let dst = out.as_mut_ptr().add(g * 16);
        if ACCUMULATE {
            _mm512_storeu_ps(dst, _mm512_add_ps(_mm512_loadu_ps(dst), sel));
        } else {
            _mm512_storeu_ps(dst, sel);
        }
    }
    for (i, o) in out.iter_mut().enumerate().skip(groups * 16) {
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
// wire reduce steps
// ---------------------------------------------------------------------------

fn add_from_bytes(bytes: &[u8], out: &mut [f32]) {
    // SAFETY: table installed only after AVX-512F runtime detection.
    unsafe { add_from_bytes_avx512(bytes, out) }
}

// SAFETY: caller must guarantee AVX-512F is present and that `bytes` holds
// exactly `4 * out.len()` little-endian f32s; unaligned loads are used
// throughout so `bytes` needs no alignment.
#[target_feature(enable = "avx512f")]
unsafe fn add_from_bytes_avx512(bytes: &[u8], out: &mut [f32]) {
    let full = out.len() / 16;
    let src = bytes.as_ptr();
    for i in 0..full {
        // Per-lane vaddps in index order is exactly the scalar loop's
        // association (out first, wire second).
        let w = _mm512_loadu_ps(src.add(i * 64) as *const f32);
        let dst = out.as_mut_ptr().add(i * 16);
        _mm512_storeu_ps(dst, _mm512_add_ps(_mm512_loadu_ps(dst), w));
    }
    scalar::add_from_bytes(&bytes[full * 64..], &mut out[full * 16..]);
}

fn add_into_bytes(xs: &[f32], bytes: &mut [u8]) {
    // SAFETY: table installed only after AVX-512F runtime detection.
    unsafe { add_into_bytes_avx512(xs, bytes) }
}

// SAFETY: caller must guarantee AVX-512F is present and that `bytes` holds
// exactly `4 * xs.len()` little-endian f32s; unaligned loads/stores are
// used so `bytes` needs no alignment.
#[target_feature(enable = "avx512f")]
unsafe fn add_into_bytes_avx512(xs: &[f32], bytes: &mut [u8]) {
    let full = xs.len() / 16;
    let dst = bytes.as_mut_ptr();
    for i in 0..full {
        let w = _mm512_loadu_ps(dst.add(i * 64) as *const f32);
        let x = _mm512_loadu_ps(xs.as_ptr().add(i * 16));
        // x first, wire second — the scalar kernel's `x + w` order.
        _mm512_storeu_ps(dst.add(i * 64) as *mut f32, _mm512_add_ps(x, w));
    }
    scalar::add_into_bytes(&xs[full * 16..], &mut bytes[full * 64..]);
}

// ---------------------------------------------------------------------------
// elementwise float kernels
// ---------------------------------------------------------------------------

fn add_assign(acc: &mut [f32], other: &[f32]) {
    // SAFETY: table installed only after AVX-512F runtime detection.
    unsafe { add_assign_avx512(acc, other) }
}

// SAFETY: caller must guarantee AVX-512F is present and
// `other.len() >= acc.len()`.
#[target_feature(enable = "avx512f")]
unsafe fn add_assign_avx512(acc: &mut [f32], other: &[f32]) {
    let full = acc.len() / 16;
    for i in 0..full {
        let dst = acc.as_mut_ptr().add(i * 16);
        let b = _mm512_loadu_ps(other.as_ptr().add(i * 16));
        _mm512_storeu_ps(dst, _mm512_add_ps(_mm512_loadu_ps(dst), b));
    }
    scalar::add_assign(&mut acc[full * 16..], &other[full * 16..]);
}

fn axpy(y: &mut [f32], alpha: f32, x: &[f32]) {
    // SAFETY: table installed only after AVX-512F runtime detection.
    unsafe { axpy_avx512(y, alpha, x) }
}

// SAFETY: caller must guarantee AVX-512F is present and
// `x.len() >= y.len()`.
#[target_feature(enable = "avx512f")]
unsafe fn axpy_avx512(y: &mut [f32], alpha: f32, x: &[f32]) {
    let a = _mm512_set1_ps(alpha);
    let full = y.len() / 16;
    for i in 0..full {
        let dst = y.as_mut_ptr().add(i * 16);
        // vmulps + vaddps, NOT vfmadd: the scalar kernel rounds twice.
        let prod = _mm512_mul_ps(a, _mm512_loadu_ps(x.as_ptr().add(i * 16)));
        _mm512_storeu_ps(dst, _mm512_add_ps(_mm512_loadu_ps(dst), prod));
    }
    scalar::axpy(&mut y[full * 16..], alpha, &x[full * 16..]);
}

fn scale(v: &mut [f32], alpha: f32) {
    // SAFETY: table installed only after AVX-512F runtime detection.
    unsafe { scale_avx512(v, alpha) }
}

// SAFETY: caller must guarantee AVX-512F is present; all loads/stores stay
// inside `v`.
#[target_feature(enable = "avx512f")]
unsafe fn scale_avx512(v: &mut [f32], alpha: f32) {
    let a = _mm512_set1_ps(alpha);
    let full = v.len() / 16;
    for i in 0..full {
        let dst = v.as_mut_ptr().add(i * 16);
        _mm512_storeu_ps(dst, _mm512_mul_ps(_mm512_loadu_ps(dst), a));
    }
    scalar::scale(&mut v[full * 16..], alpha);
}

fn abs_into(data: &[f32], out: &mut [f32]) {
    // SAFETY: table installed only after AVX-512F runtime detection.
    unsafe { abs_into_avx512(data, out) }
}

// SAFETY: caller must guarantee AVX-512F is present and
// `out.len() >= data.len()`.
#[target_feature(enable = "avx512f")]
unsafe fn abs_into_avx512(data: &[f32], out: &mut [f32]) {
    let mask = _mm512_set1_epi32(ABS_MASK);
    let full = data.len() / 16;
    for i in 0..full {
        let v = _mm512_loadu_si512(data.as_ptr().add(i * 16) as *const _);
        _mm512_storeu_si512(
            out.as_mut_ptr().add(i * 16) as *mut _,
            _mm512_and_si512(v, mask),
        );
    }
    scalar::abs_into(&data[full * 16..], &mut out[full * 16..]);
}

// ---------------------------------------------------------------------------
// top-k threshold gather (stream compaction)
// ---------------------------------------------------------------------------

fn gather_above(
    data: &[f32],
    threshold: f32,
    with_nan: bool,
    indices: &mut Vec<u32>,
    values: &mut Vec<f32>,
) {
    // SAFETY: table installed only after AVX-512F runtime detection.
    unsafe {
        if with_nan {
            gather_above_avx512::<_CMP_NLE_UQ>(data, threshold, indices, values)
        } else {
            gather_above_avx512::<_CMP_GT_OQ>(data, threshold, indices, values)
        }
    }
}

// SAFETY: caller must guarantee AVX-512F is present and pass `_CMP_GT_OQ`
// or `_CMP_NLE_UQ` as `CMP`. `vcompressps` / `vpcompressd` store exactly
// `popcount(mask)` elements; a 64-lane group stores at most 64 in total
// into the 64 slots reserved past `len` immediately beforehand, and
// `set_len` commits exactly the count stored.
#[target_feature(enable = "avx512f")]
unsafe fn gather_above_avx512<const CMP: i32>(
    data: &[f32],
    threshold: f32,
    indices: &mut Vec<u32>,
    values: &mut Vec<f32>,
) {
    let absmask = _mm512_set1_epi32(ABS_MASK);
    let tv = _mm512_set1_ps(threshold);
    let lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    let groups = data.len() / 64;
    for g in 0..groups {
        let base = data.as_ptr().add(g * 64);
        let v = [
            _mm512_loadu_ps(base),
            _mm512_loadu_ps(base.add(16)),
            _mm512_loadu_ps(base.add(32)),
            _mm512_loadu_ps(base.add(48)),
        ];
        // Ordered > (NaNs compare false, the scalar `abs() > t`) or its
        // unordered form not-<= (NaNs compare true), as the caller chose.
        let m = v.map(|v| {
            let av = _mm512_castsi512_ps(_mm512_and_si512(_mm512_castps_si512(v), absmask));
            _mm512_cmp_ps_mask::<CMP>(av, tv)
        });
        // One branch per 64 lanes: at top-k densities (1-3 %) a test per
        // 16 lanes is taken often enough to mispredict and doubles the
        // cost of the scan, while sparser inputs still skip most groups.
        if (m[0] | m[1]) | (m[2] | m[3]) == 0 {
            continue;
        }
        indices.reserve(64);
        values.reserve(64);
        let mut il = indices.len();
        let mut vl = values.len();
        for j in 0..4 {
            let idx = _mm512_add_epi32(lane, _mm512_set1_epi32((g * 64 + j * 16) as i32));
            _mm512_mask_compressstoreu_epi32(indices.as_mut_ptr().add(il) as *mut i32, m[j], idx);
            _mm512_mask_compressstoreu_ps(values.as_mut_ptr().add(vl), m[j], v[j]);
            let cnt = m[j].count_ones() as usize;
            il += cnt;
            vl += cnt;
        }
        indices.set_len(il);
        values.set_len(vl);
    }
    scalar::gather_above_from(
        &data[groups * 64..],
        (groups * 64) as u32,
        threshold,
        CMP == _CMP_NLE_UQ,
        indices,
        values,
    );
}
