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
//! - **Mask blends make `tanh` branch-free on 16 lanes**: fdlibm's
//!   `tanhf` runs every path and each lane keeps its own, the same op
//!   sequence as the scalar form.
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
    tanh,
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

// ---------------------------------------------------------------------------
// fdlibm tanhf
// ---------------------------------------------------------------------------

fn tanh(v: &mut [f32]) {
    // SAFETY: table installed only after AVX-512F runtime detection.
    unsafe { tanh_avx512(v) }
}

// SAFETY: caller must guarantee AVX-512F is present; all loads/stores stay
// inside `v`.
#[target_feature(enable = "avx512f")]
unsafe fn tanh_avx512(v: &mut [f32]) {
    let full = v.len() / 16;
    for i in 0..full {
        let p = v.as_mut_ptr().add(i * 16);
        _mm512_storeu_ps(p, tanhf16(_mm512_loadu_ps(p)));
    }
    scalar::tanh(&mut v[full * 16..]);
}

/// `-v`: a sign flip, as C's unary minus is (`0 - v` differs at ±0).
#[inline]
#[target_feature(enable = "avx512f")]
fn neg16(v: __m512) -> __m512 {
    _mm512_castsi512_ps(_mm512_xor_si512(
        _mm512_castps_si512(v),
        _mm512_set1_epi32(i32::MIN),
    ))
}

/// `y · 2^k` by adding `k` to the biased exponent.
#[inline]
#[target_feature(enable = "avx512f")]
fn add_to_exponent16(y: __m512, k: __m512i) -> __m512 {
    _mm512_castsi512_ps(_mm512_add_epi32(
        _mm512_castps_si512(y),
        _mm512_slli_epi32::<23>(k),
    ))
}

/// The scalar table's branch-free `tanhf` on 16 lanes: the same ops in the
/// same order, each `if` a mask blend (`blend(m, a, b)` takes `b` where
/// `m` is set). Float→int is the truncating `vcvttps2dq`, and `vpsrlvd`
/// gives 0 for counts past 31, as the scalar `checked_shr` does.
#[inline]
#[target_feature(enable = "avx512f")]
fn tanhf16(x: __m512) -> __m512 {
    let one = _mm512_set1_ps(1.0);
    let two = _mm512_set1_ps(2.0);
    let jx = _mm512_castps_si512(x);
    let ix = _mm512_and_si512(jx, _mm512_set1_epi32(ABS_MASK));
    let negative = _mm512_cmplt_epi32_mask(jx, _mm512_setzero_si512());
    let ge1 = _mm512_cmpge_epi32_mask(ix, _mm512_set1_epi32(0x3f80_0000));
    let coef = _mm512_mask_blend_ps(ge1, _mm512_set1_ps(-2.0), two);
    let u = _mm512_mul_ps(coef, _mm512_castsi512_ps(ix));
    let t = expm1f16(u);
    let tp2 = _mm512_add_ps(t, two);
    let z = _mm512_mask_blend_ps(
        ge1,
        _mm512_div_ps(neg16(t), tp2),
        _mm512_sub_ps(one, _mm512_div_ps(two, tp2)),
    );
    let saturated = _mm512_cmpge_epi32_mask(ix, _mm512_set1_epi32(0x41b0_0000));
    let z = _mm512_mask_blend_ps(saturated, z, _mm512_set1_ps(1.0 - scalar::TINY));
    let z = _mm512_mask_blend_ps(negative, z, neg16(z));
    let tiny = _mm512_cmplt_epi32_mask(ix, _mm512_set1_epi32(0x2400_0000));
    let z = _mm512_mask_blend_ps(tiny, z, _mm512_mul_ps(x, _mm512_add_ps(one, x)));
    let zero = _mm512_cmpeq_epi32_mask(ix, _mm512_setzero_si512());
    let z = _mm512_mask_blend_ps(zero, z, x);
    let inv = _mm512_div_ps(one, x);
    let nonfinite =
        _mm512_mask_blend_ps(negative, _mm512_add_ps(inv, one), _mm512_sub_ps(inv, one));
    let nonfinite_lanes = _mm512_cmpge_epi32_mask(ix, _mm512_set1_epi32(0x7f80_0000));
    _mm512_mask_blend_ps(nonfinite_lanes, z, nonfinite)
}

/// The scalar table's `expm1f` on 16 lanes (see `scalar.rs` for the paths
/// it leaves out).
#[inline]
#[target_feature(enable = "avx512f")]
fn expm1f16(x: __m512) -> __m512 {
    let one = _mm512_set1_ps(1.0);
    let half = _mm512_set1_ps(0.5);
    let hx = _mm512_and_si512(_mm512_castps_si512(x), _mm512_set1_epi32(ABS_MASK));
    // |x| < 2^-25 returns x; the other paths run on 0.25 there.
    let tiny = _mm512_cmplt_epi32_mask(hx, _mm512_set1_epi32(0x3300_0000));
    let w = _mm512_mask_blend_ps(tiny, x, _mm512_set1_ps(0.25));
    let negative = _mm512_cmplt_epi32_mask(_mm512_castps_si512(w), _mm512_setzero_si512());
    // Argument reduction: k = ±1 near ln2, else trunc(w / ln2 ± 0.5).
    let near = _mm512_cmplt_epi32_mask(hx, _mm512_set1_epi32(0x3f85_1592));
    let ln2_hi = _mm512_set1_ps(scalar::LN2_HI);
    let ln2_lo = _mm512_set1_ps(scalar::LN2_LO);
    let rounding = _mm512_mask_blend_ps(negative, half, _mm512_set1_ps(-0.5));
    let k_far = _mm512_cvttps_epi32(_mm512_add_ps(
        _mm512_mul_ps(_mm512_set1_ps(scalar::INVLN2), w),
        rounding,
    ));
    let t = _mm512_cvtepi32_ps(k_far);
    let hi_near =
        _mm512_mask_blend_ps(negative, _mm512_sub_ps(w, ln2_hi), _mm512_add_ps(w, ln2_hi));
    let lo_near = _mm512_mask_blend_ps(negative, ln2_lo, _mm512_set1_ps(-scalar::LN2_LO));
    let k_near = _mm512_mask_blend_epi32(negative, _mm512_set1_epi32(1), _mm512_set1_epi32(-1));
    let hi = _mm512_mask_blend_ps(near, _mm512_sub_ps(w, _mm512_mul_ps(t, ln2_hi)), hi_near);
    let lo = _mm512_mask_blend_ps(near, _mm512_mul_ps(t, ln2_lo), lo_near);
    let k = _mm512_mask_blend_epi32(near, k_far, k_near);
    let xr = _mm512_sub_ps(hi, lo);
    let cr = _mm512_sub_ps(_mm512_sub_ps(hi, xr), lo);
    let reduce = _mm512_cmpgt_epi32_mask(hx, _mm512_set1_epi32(0x3eb1_7218));
    let r = _mm512_mask_blend_ps(reduce, w, xr);
    let c = _mm512_maskz_mov_ps(reduce, cr);
    let k = _mm512_maskz_mov_epi32(reduce, k);
    // r is now in the primary range.
    let hfx = _mm512_mul_ps(half, r);
    let hxs = _mm512_mul_ps(r, hfx);
    let mut p = _mm512_mul_ps(hxs, _mm512_set1_ps(scalar::Q5));
    for q in [scalar::Q4, scalar::Q3, scalar::Q2, scalar::Q1] {
        p = _mm512_mul_ps(hxs, _mm512_add_ps(_mm512_set1_ps(q), p));
    }
    let r1 = _mm512_add_ps(one, p);
    let t = _mm512_sub_ps(_mm512_set1_ps(3.0), _mm512_mul_ps(r1, hfx));
    let e = _mm512_mul_ps(
        hxs,
        _mm512_div_ps(
            _mm512_sub_ps(r1, t),
            _mm512_sub_ps(_mm512_set1_ps(6.0), _mm512_mul_ps(r, t)),
        ),
    );
    let k0 = _mm512_sub_ps(r, _mm512_sub_ps(_mm512_mul_ps(r, e), hxs));
    let e = _mm512_sub_ps(_mm512_sub_ps(_mm512_mul_ps(r, _mm512_sub_ps(e, c)), c), hxs);
    let k_minus1 = _mm512_sub_ps(_mm512_mul_ps(half, _mm512_sub_ps(r, e)), half);
    let e_minus_r = _mm512_sub_ps(e, r);
    let far = _mm512_sub_ps(add_to_exponent16(_mm512_sub_ps(one, e_minus_r), k), one);
    let t = _mm512_castsi512_ps(_mm512_sub_epi32(
        _mm512_set1_epi32(0x3f80_0000),
        _mm512_srlv_epi32(_mm512_set1_epi32(0x0100_0000), k),
    ));
    let below23 = add_to_exponent16(_mm512_sub_ps(t, e_minus_r), k);
    let t = _mm512_castsi512_ps(_mm512_slli_epi32::<23>(_mm512_sub_epi32(
        _mm512_set1_epi32(0x7f),
        k,
    )));
    let above23 = add_to_exponent16(_mm512_add_ps(_mm512_sub_ps(r, _mm512_add_ps(e, t)), one), k);
    let lt23 = _mm512_cmplt_epi32_mask(k, _mm512_set1_epi32(23));
    let y = _mm512_mask_blend_ps(lt23, above23, below23);
    let far_lanes = _mm512_cmple_epi32_mask(k, _mm512_set1_epi32(-2))
        | _mm512_cmpgt_epi32_mask(k, _mm512_set1_epi32(56));
    let y = _mm512_mask_blend_ps(far_lanes, y, far);
    let y = _mm512_mask_blend_ps(
        _mm512_cmpeq_epi32_mask(k, _mm512_set1_epi32(-1)),
        y,
        k_minus1,
    );
    let y = _mm512_mask_blend_ps(_mm512_cmpeq_epi32_mask(k, _mm512_setzero_si512()), y, k0);
    _mm512_mask_blend_ps(tiny, y, x)
}
