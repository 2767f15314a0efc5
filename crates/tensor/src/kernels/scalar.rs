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
