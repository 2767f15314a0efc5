//! Canonical portable implementations of every dispatched kernel.
//!
//! These define the exact semantics (bit patterns, association order) that
//! the vectorized tables must reproduce. The AVX2 table also calls into
//! these for sub-lane tails, so the helpers are `pub(super)`.

use super::Kernels;

pub(super) static KERNELS: Kernels = Kernels {
    name: "scalar",
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
    tanh,
};

/// The sign predicate of the pack: NaN packs as 0 (negative),
/// `-0.0` packs as 1 (non-negative), matching IEEE `>=`.
#[inline(always)]
fn is_non_negative(v: f32) -> bool {
    v >= 0.0
}

pub(super) fn sign_pack(data: &[f32], out: &mut [u32]) {
    for (w, chunk) in out.iter_mut().zip(data.chunks(32)) {
        let mut acc = 0u32;
        for (b, &v) in chunk.iter().enumerate() {
            acc |= u32::from(is_non_negative(v)) << b;
        }
        *w = acc;
    }
}

pub(super) fn unpack_fill(words: &[u32], neg: f32, pos: f32, out: &mut [f32]) {
    for (w, block) in words.iter().zip(out.chunks_mut(32)) {
        for (b, o) in block.iter_mut().enumerate() {
            *o = if (w >> b) & 1 == 1 { pos } else { neg };
        }
    }
}

pub(super) fn unpack_add(words: &[u32], neg: f32, pos: f32, out: &mut [f32]) {
    for (w, block) in words.iter().zip(out.chunks_mut(32)) {
        for (b, o) in block.iter_mut().enumerate() {
            *o += if (w >> b) & 1 == 1 { pos } else { neg };
        }
    }
}

pub(super) fn f32s_to_bytes(xs: &[f32], out: &mut [u8]) {
    for (dst, &x) in out.chunks_exact_mut(4).zip(xs) {
        dst.copy_from_slice(&x.to_le_bytes());
    }
}

pub(super) fn u32s_to_bytes(xs: &[u32], out: &mut [u8]) {
    for (dst, &x) in out.chunks_exact_mut(4).zip(xs) {
        dst.copy_from_slice(&x.to_le_bytes());
    }
}

pub(super) fn bytes_to_f32s(bytes: &[u8], out: &mut [f32]) {
    for (o, src) in out.iter_mut().zip(bytes.chunks_exact(4)) {
        *o = f32::from_le_bytes([src[0], src[1], src[2], src[3]]);
    }
}

pub(super) fn bytes_to_u32s(bytes: &[u8], out: &mut [u32]) {
    for (o, src) in out.iter_mut().zip(bytes.chunks_exact(4)) {
        *o = u32::from_le_bytes([src[0], src[1], src[2], src[3]]);
    }
}

pub(super) fn add_from_bytes(bytes: &[u8], out: &mut [f32]) {
    for (o, src) in out.iter_mut().zip(bytes.chunks_exact(4)) {
        *o += f32::from_le_bytes([src[0], src[1], src[2], src[3]]);
    }
}

pub(super) fn add_into_bytes(xs: &[f32], bytes: &mut [u8]) {
    // Operand order `x + w` (local contribution first) matches the
    // `add_from_bytes` accumulator path `out += wire`, so a sum built in
    // the wire image is bit-identical to one built in a float buffer and
    // re-serialized — including NaN payload propagation.
    for (chunk, &x) in bytes.chunks_exact_mut(4).zip(xs) {
        let w = f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        chunk.copy_from_slice(&(x + w).to_le_bytes());
    }
}

pub(super) fn add_assign(acc: &mut [f32], other: &[f32]) {
    for (a, &b) in acc.iter_mut().zip(other) {
        *a += b;
    }
}

pub(super) fn axpy(y: &mut [f32], alpha: f32, x: &[f32]) {
    // Mul-then-add, two roundings; the AVX2 table matches by using separate
    // vmulps + vaddps rather than an FMA.
    for (a, &b) in y.iter_mut().zip(x) {
        *a += alpha * b;
    }
}

pub(super) fn scale(v: &mut [f32], alpha: f32) {
    for x in v {
        *x *= alpha;
    }
}

pub(super) fn abs_into(data: &[f32], out: &mut [f32]) {
    for (o, &v) in out.iter_mut().zip(data) {
        *o = v.abs();
    }
}

/// Lane-striped |x| reduction. The stripe width (8) and the pairwise
/// combination tree are part of the kernel contract — see the module docs
/// in `mod.rs` and DESIGN.md §10.
pub(super) fn sum_abs(data: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        for (l, &v) in lanes.iter_mut().zip(c) {
            *l += v.abs();
        }
    }
    let mut total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    for &v in chunks.remainder() {
        total += v.abs();
    }
    total
}

/// Appends `(i, data[i])` for every `|data[i]| > threshold` in index order;
/// with `with_nan` the compare is the unordered `!(|x| <= threshold)`, which
/// NaN entries pass too. `base` offsets the emitted indices so the SIMD
/// tables can delegate their tails without renumbering.
pub(super) fn gather_above_from(
    data: &[f32],
    base: u32,
    threshold: f32,
    with_nan: bool,
    indices: &mut Vec<u32>,
    values: &mut Vec<f32>,
) {
    for (i, &v) in data.iter().enumerate() {
        // Spelled as the negation on purpose: it is `vcmpps`'s NLE_UQ
        // predicate, true whenever either side is NaN.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        let hit = if with_nan {
            !(v.abs() <= threshold)
        } else {
            v.abs() > threshold
        };
        if hit {
            indices.push(base + i as u32);
            values.push(v);
        }
    }
}

pub(super) fn gather_above(
    data: &[f32],
    threshold: f32,
    with_nan: bool,
    indices: &mut Vec<u32>,
    values: &mut Vec<f32>,
) {
    gather_above_from(data, 0, threshold, with_nan, indices, values);
}

// fdlibm's `tanhf` and `expm1f` constants (glibc `s_tanhf.c`,
// `s_expm1f.c`), shared with the AVX-512 table.
pub(super) const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
pub(super) const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
pub(super) const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
pub(super) const Q1: f32 = f32::from_bits(0xbd08_8889);
pub(super) const Q2: f32 = f32::from_bits(0x3ad0_0d01);
pub(super) const Q3: f32 = f32::from_bits(0xb8a6_70cd);
pub(super) const Q4: f32 = f32::from_bits(0x3686_7e54);
pub(super) const Q5: f32 = f32::from_bits(0xb457_edbb);
pub(super) const TINY: f32 = 1.0e-30;

/// In-place fdlibm `tanhf`, branch-free so LLVM can vectorize it: every
/// path of `tanhf` and of the `expm1f` it calls is computed, then each
/// element keeps its own path's result. Plain IEEE `+ − × ÷` only, in
/// fdlibm's order, so every element gets `tanhf`'s bits.
pub(super) fn tanh(v: &mut [f32]) {
    for x in v {
        *x = tanhf(*x);
    }
}

#[inline(always)]
fn tanhf(x: f32) -> f32 {
    let jx = x.to_bits();
    let ix = jx & 0x7fff_ffff;
    let positive = jx >> 31 == 0;
    let ge1 = ix >= 0x3f80_0000;
    // |x| >= 1: 1 - 2/(expm1(2|x|) + 2); else -t/(t + 2), t = expm1(-2|x|).
    let u = (if ge1 { 2.0 } else { -2.0 }) * f32::from_bits(ix);
    let t = expm1f(u);
    let z = if ge1 {
        1.0 - 2.0 / (t + 2.0)
    } else {
        -t / (t + 2.0)
    };
    // |x| >= 22: ±(1 - tiny).
    let z = if ix < 0x41b0_0000 { z } else { 1.0 - TINY };
    let z = if positive { z } else { -z };
    // |x| < 2^-55: x(1 + x); ±0: x.
    let z = if ix < 0x2400_0000 { x * (1.0 + x) } else { z };
    let z = if ix == 0 { x } else { z };
    // ±inf: ±1; NaN: NaN, payload quieted.
    let nonfinite = if positive {
        1.0 / x + 1.0
    } else {
        1.0 / x - 1.0
    };
    if ix >= 0x7f80_0000 {
        nonfinite
    } else {
        z
    }
}

/// fdlibm `expm1f` on the arguments `tanhf` passes it,
/// `2^-54 <= |x| < 44`: the overflow and `|x| >= 27 ln2` branches, and the
/// `k == 1` one (`x > 0` implies `x >= 2`), are never taken there and are
/// left out. Other inputs give garbage that [`tanhf`] discards.
#[inline(always)]
fn expm1f(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    // |x| < 2^-25 returns x (fdlibm's `x - ((huge + x) - (huge + x))`).
    // The other paths run on 0.25 there instead: their result is
    // discarded, and a tiny x would make them crawl through subnormals.
    let tiny = hx < 0x3300_0000;
    let w = if tiny { 0.25 } else { x };
    let positive = w.to_bits() >> 31 == 0;
    // Argument reduction, w = k ln2 + (hi - lo): k = ±1 for
    // 0.5 ln2 < |w| < 1.5 ln2, else k = trunc(w / ln2 ± 0.5).
    let near = hx < 0x3f85_1592;
    // max/min send NaN to -256 and bound the rest, so the conversion
    // below stays the plain truncating one, which LLVM vectorizes
    // (`clamp` would keep the NaN).
    #[allow(clippy::manual_clamp)]
    let v = (INVLN2 * w + if positive { 0.5 } else { -0.5 })
        .max(-256.0)
        .min(256.0);
    // SAFETY: `v` is finite and within [-256, 256], so it fits an i32.
    let k_far: i32 = unsafe { v.to_int_unchecked() };
    let t = k_far as f32;
    let (hi, lo, k) = if near {
        if positive {
            (w - LN2_HI, LN2_LO, 1)
        } else {
            (w + LN2_HI, -LN2_LO, -1)
        }
    } else {
        (w - t * LN2_HI, t * LN2_LO, k_far)
    };
    let xr = hi - lo;
    let cr = (hi - xr) - lo;
    let reduce = hx > 0x3eb1_7218;
    let (r, c, k) = if reduce { (xr, cr, k) } else { (w, 0.0, 0) };
    // r is now in the primary range.
    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - r * t));
    let k0 = r - (r * e - hxs);
    let e = (r * (e - c) - c) - hxs;
    let k_minus1 = 0.5 * (r - e) - 0.5;
    // k <= -2 or k > 56: 2^k (1 - (e - r)) - 1.
    let far = add_to_exponent(1.0 - (e - r), k) - 1.0;
    // k < 23: 2^k ((1 - 2^-k) - (e - r)). `checked_shr` gives the 0 a
    // vector shift gives for the out-of-range counts of the other paths.
    let t = f32::from_bits(0x3f80_0000 - 0x0100_0000u32.checked_shr(k as u32).unwrap_or(0));
    let below23 = add_to_exponent(t - (e - r), k);
    // 23 <= k <= 56: 2^k ((r - (e + 2^-k)) + 1).
    let t = f32::from_bits((0x7f_i32.wrapping_sub(k) << 23) as u32);
    let above23 = add_to_exponent((r - (e + t)) + 1.0, k);
    let y = if k < 23 { below23 } else { above23 };
    let y = if k <= -2 || k > 56 { far } else { y };
    let y = if k == -1 { k_minus1 } else { y };
    let y = if k == 0 { k0 } else { y };
    if tiny {
        x
    } else {
        y
    }
}

/// `y · 2^k` by adding `k` to the biased exponent, as fdlibm's
/// `SET_FLOAT_WORD(y, i + (k << 23))` does.
#[inline(always)]
fn add_to_exponent(y: f32, k: i32) -> f32 {
    f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32))
}
