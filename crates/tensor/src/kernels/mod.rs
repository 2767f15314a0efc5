//! Runtime-dispatched SIMD kernels for the compression and collective hot
//! paths.
//!
//! Every scalar inner loop that dominates Table 2's encode/decode column or
//! the ring's reduce step lives behind the [`Kernels`] vtable: a
//! plain struct of function pointers with one canonical scalar
//! implementation ([`scalar()`]) and, on x86_64 hosts, explicitly
//! vectorized tiers — AVX2+FMA and, where the CPU has it, AVX-512F
//! ([`simd()`] returns the widest supported one; [`tables()`] enumerates
//! them all for the property tests and benchmarks). The active table is
//! chosen **once** at first use by runtime CPU-feature detection
//! (`is_x86_feature_detected!`) and cached in a `OnceLock`; setting
//! `GCS_FORCE_SCALAR=1` in the environment pins the scalar table regardless
//! of what the CPU supports, which is how CI exercises both code paths.
//!
//! Every kernel runs on its caller's thread. Rank threads, and a rank's
//! comm thread, are the only threads that compute.
//!
//! # Exactness contract
//!
//! Callers throughout `gcs-tensor`, `gcs-compress`, `gcs-cluster` and
//! `gcs-train` assume the tables are interchangeable, so each kernel falls
//! into one of three classes (verified by `tests/kernel_props.rs`):
//!
//! - **Bit kernels** (sign pack/unpack, byte↔f32/u32
//!   conversion, threshold gather): byte-identical output for every input,
//!   including NaN and signed-zero payloads. E.g. sign packing follows the
//!   scalar `v >= 0.0` predicate, so the AVX2 path uses an ordered
//!   `_CMP_GE_OQ` compare — *not* the sign-bit `movmskps` shortcut, which
//!   disagrees on positive NaNs.
//! - **Float kernels** (segment add, axpy, scale, |x| reduction): a fixed
//!   association order shared by both tables. Elementwise kernels have no
//!   reassociation at all; the horizontal [`sum_abs`] reduction is defined
//!   lane-striped (8 partial sums combined in a fixed pairwise tree, then a
//!   scalar tail) in *both* implementations, so results are reproducible
//!   bit-for-bit across dispatch modes.
//! - **Transcendental kernels** ([`tanh`]): one op sequence in every
//!   table, fdlibm's `tanhf` and `expm1f` (what glibc ships), so every
//!   table gives fdlibm's bits, NaN payloads included. The scalar form is
//!   branch-free (all paths computed, each element keeps its own) so LLVM
//!   vectorizes it; the AVX-512 form blends with masks. Negation is a sign
//!   flip, never `0.0 - t`; `k` is a truncating float→int conversion; the
//!   scalar shift is defined for the out-of-range counts of lanes on other
//!   paths, as vector shifts are; nothing is fused into an FMA.
//!
//! The GEMM microkernel's FMA lanes are dispatched separately (its tile
//! routines are const-generic, which function pointers can't express) —
//! `matrix.rs` consults [`simd_active()`] directly.

mod scalar;
mod write_once;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod avx512;

use std::sync::OnceLock;

pub use write_once::WriteOnce;

/// Dispatch table of SIMD-accelerated primitives.
///
/// All slice-length contracts are asserted by the free wrapper functions in
/// this module (the usual entry points); the table entries themselves assume
/// the contract holds.
#[derive(Debug, Clone, Copy)]
pub struct Kernels {
    /// Implementation name, e.g. `"scalar"` or `"avx2"`.
    pub name: &'static str,
    /// Packs `data[i] >= 0.0` into bit `i % 32` of `out[i / 32]`
    /// (LSB-first). `out.len() == data.len().div_ceil(32)`; trailing bits of
    /// the last word are zero.
    pub sign_pack: fn(data: &[f32], out: &mut [u32]),
    /// Sets `out[i] = if bit i of words { pos } else { neg }`.
    pub unpack_fill: fn(words: &[u32], neg: f32, pos: f32, out: &mut [f32]),
    /// Accumulating variant: `out[i] += if bit i { pos } else { neg }`.
    pub unpack_add: fn(words: &[u32], neg: f32, pos: f32, out: &mut [f32]),
    /// Bulk little-endian serialization: `out.len() == 4 * xs.len()`.
    pub f32s_to_bytes: fn(xs: &[f32], out: &mut [u8]),
    /// Bulk little-endian serialization: `out.len() == 4 * xs.len()`.
    pub u32s_to_bytes: fn(xs: &[u32], out: &mut [u8]),
    /// Bulk little-endian deserialization: `bytes.len() == 4 * out.len()`.
    pub bytes_to_f32s: fn(bytes: &[u8], out: &mut [f32]),
    /// Bulk little-endian deserialization: `bytes.len() == 4 * out.len()`.
    pub bytes_to_u32s: fn(bytes: &[u8], out: &mut [u32]),
    /// The ring's reduce step: `out[i] += f32::from_le_bytes`
    /// of the i-th 4-byte group. `bytes.len() == 4 * out.len()`.
    pub add_from_bytes: fn(bytes: &[u8], out: &mut [f32]),
    /// The in-wire reduce step: the i-th 4-byte group of `bytes` becomes
    /// `xs[i] + f32::from_le_bytes(group)` re-serialized in place
    /// (`bytes.len() == 4 * xs.len()`). Operand order `x + w` matches the
    /// `add_from_bytes` accumulator path bit-for-bit, so a ring that
    /// accumulates in the wire image gets the same sums as one that
    /// accumulates in a float buffer and re-serializes.
    pub add_into_bytes: fn(xs: &[f32], bytes: &mut [u8]),
    /// Elementwise `acc[i] += other[i]` (equal lengths).
    pub add_assign: fn(acc: &mut [f32], other: &[f32]),
    /// `y[i] += alpha * x[i]` (equal lengths), mul-then-add with two
    /// roundings in both tables — deliberately *not* fused.
    pub axpy: fn(y: &mut [f32], alpha: f32, x: &[f32]),
    /// `v[i] *= alpha`.
    pub scale: fn(v: &mut [f32], alpha: f32),
    /// `out[i] = data[i].abs()` (equal lengths).
    pub abs_into: fn(data: &[f32], out: &mut [f32]),
    /// Lane-striped `Σ |x_i|`: 8 partial sums over `x[8k + lane]`, combined
    /// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`, then the `< 8` tail added in
    /// order. Both tables use this exact association.
    pub sum_abs: fn(data: &[f32]) -> f32,
    /// Appends `(i, data[i])` for every `|data[i]| > threshold`, in index
    /// order, to `indices`/`values`. Without `with_nan` the compare is
    /// ordered and NaNs never match; with it the compare is the unordered
    /// `!(|x| <= threshold)`, so NaN entries match as well — every entry
    /// that ranks above a non-NaN `threshold` in the magnitude total order
    /// (a NaN `threshold` then matches everything).
    pub gather_above: fn(
        data: &[f32],
        threshold: f32,
        with_nan: bool,
        indices: &mut Vec<u32>,
        values: &mut Vec<f32>,
    ),
    /// In place, `v[i] = tanhf(v[i])` with fdlibm's `tanhf` (the one glibc
    /// ships): its op sequence in every table, so its bits, NaN payloads
    /// included.
    pub tanh: fn(v: &mut [f32]),
}

static ACTIVE: OnceLock<&'static Kernels> = OnceLock::new();

/// Whether `GCS_FORCE_SCALAR=1` (or any non-empty value other than `0`) is
/// set, pinning dispatch to the scalar table.
pub(crate) fn force_scalar() -> bool {
    match std::env::var("GCS_FORCE_SCALAR") {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => false,
    }
}

/// The canonical portable implementation. Always available; defines the
/// exact semantics every other table must reproduce.
pub fn scalar() -> &'static Kernels {
    &scalar::KERNELS
}

/// Whether the AVX2+FMA tier is usable on this CPU.
#[cfg(target_arch = "x86_64")]
pub fn avx2_supported() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

/// Whether the AVX2+FMA tier is usable on this CPU (never, off x86_64).
#[cfg(not(target_arch = "x86_64"))]
pub fn avx2_supported() -> bool {
    false
}

/// Whether the AVX-512 tier is usable on this CPU. AVX2+FMA is required
/// too because the AVX-512 table's tails and its shared `sum_abs` entry
/// run AVX2 code (every real AVX-512F CPU has both, but the soundness of
/// the table installation rests on detection, not on that convention).
#[cfg(target_arch = "x86_64")]
pub fn avx512_supported() -> bool {
    std::arch::is_x86_feature_detected!("avx512f") && avx2_supported()
}

/// Whether the AVX-512 tier is usable on this CPU (never, off x86_64).
#[cfg(not(target_arch = "x86_64"))]
pub fn avx512_supported() -> bool {
    false
}

/// The best vectorized table this CPU supports, independent of
/// `GCS_FORCE_SCALAR` (benchmarks and property tests compare it against
/// [`scalar()`] explicitly): AVX-512 where detected, else AVX2+FMA, else
/// `None`.
pub fn simd() -> Option<&'static Kernels> {
    #[cfg(target_arch = "x86_64")]
    {
        if avx512_supported() {
            return Some(&avx512::KERNELS);
        }
        if avx2_supported() {
            return Some(&avx2::KERNELS);
        }
    }
    None
}

/// Every table this CPU can run, scalar first, widest last. The property
/// suite iterates this so the AVX2 tier stays covered on AVX-512 hosts
/// (where [`simd()`] returns the AVX-512 table).
pub fn tables() -> Vec<&'static Kernels> {
    #[allow(unused_mut)]
    let mut t = vec![scalar()];
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_supported() {
            t.push(&avx2::KERNELS);
        }
        if avx512_supported() {
            t.push(&avx512::KERNELS);
        }
    }
    t
}

/// The table in effect for this process: [`simd()`] when available unless
/// `GCS_FORCE_SCALAR=1`, else [`scalar()`]. Resolved once and cached.
pub fn active() -> &'static Kernels {
    ACTIVE.get_or_init(|| {
        if force_scalar() {
            return scalar();
        }
        simd().unwrap_or_else(scalar)
    })
}

/// Whether the active table is a SIMD one — consulted by the GEMM tile
/// dispatch in `matrix.rs`, which can't go through function pointers.
pub fn simd_active() -> bool {
    !std::ptr::eq(active(), scalar())
}

/// Human-readable description of what runtime detection found, for bench
/// metadata: e.g. `"avx512f+avx2+fma (active: avx512)"` or
/// `"avx2+fma (active: scalar, GCS_FORCE_SCALAR)"`.
pub fn feature_string() -> String {
    let detected = match simd().map(|t| t.name) {
        Some("avx512") => "avx512f+avx2+fma",
        Some(_) => "avx2+fma",
        None => "none",
    };
    let forced = if force_scalar() {
        ", GCS_FORCE_SCALAR"
    } else {
        ""
    };
    format!("{} (active: {}{})", detected, active().name, forced)
}

// ---------------------------------------------------------------------------
// Free wrappers: assert the length contract once, then dispatch.
// ---------------------------------------------------------------------------

/// Dispatched [`Kernels::sign_pack`].
pub fn sign_pack(data: &[f32], out: &mut [u32]) {
    assert_eq!(out.len(), data.len().div_ceil(32), "sign_pack word count");
    (active().sign_pack)(data, out);
}

/// Dispatched [`Kernels::unpack_fill`].
pub fn unpack_fill(words: &[u32], neg: f32, pos: f32, out: &mut [f32]) {
    assert!(words.len() * 32 >= out.len(), "unpack_fill word count");
    (active().unpack_fill)(words, neg, pos, out);
}

/// Dispatched [`Kernels::unpack_add`].
pub fn unpack_add(words: &[u32], neg: f32, pos: f32, out: &mut [f32]) {
    assert!(words.len() * 32 >= out.len(), "unpack_add word count");
    (active().unpack_add)(words, neg, pos, out);
}

/// Dispatched [`Kernels::f32s_to_bytes`].
pub fn f32s_to_bytes(xs: &[f32], out: &mut [u8]) {
    assert_eq!(out.len(), xs.len() * 4, "f32s_to_bytes byte count");
    (active().f32s_to_bytes)(xs, out);
}

/// The little-endian wire image of `xs`: the `4 * xs.len()` bytes
/// [`f32s_to_bytes`] would write. On a little-endian target that is `xs`'s
/// own memory, borrowed without a copy, and `scratch` is left untouched;
/// elsewhere `xs` is converted into `scratch`, which the image borrows.
pub fn f32s_wire_image<'a>(xs: &'a [f32], scratch: &'a mut Vec<u8>) -> &'a [u8] {
    #[cfg(target_endian = "little")]
    {
        let _ = scratch;
        // SAFETY: the view covers exactly the `size_of_val(xs)` bytes of
        // `xs`, which stays borrowed for `'a` and so cannot be written
        // while the view lives; `u8` needs no alignment, `f32` has no
        // padding, and any byte value is a valid `u8`. On a little-endian
        // target each `f32`'s in-memory bytes are its `to_le_bytes()`.
        unsafe { std::slice::from_raw_parts(xs.as_ptr().cast::<u8>(), std::mem::size_of_val(xs)) }
    }
    #[cfg(not(target_endian = "little"))]
    {
        scratch.clear();
        scratch.resize(xs.len() * 4, 0);
        f32s_to_bytes(xs, scratch);
        scratch
    }
}

/// Dispatched [`Kernels::u32s_to_bytes`].
pub fn u32s_to_bytes(xs: &[u32], out: &mut [u8]) {
    assert_eq!(out.len(), xs.len() * 4, "u32s_to_bytes byte count");
    (active().u32s_to_bytes)(xs, out);
}

/// Dispatched [`Kernels::bytes_to_f32s`].
pub fn bytes_to_f32s(bytes: &[u8], out: &mut [f32]) {
    assert_eq!(bytes.len(), out.len() * 4, "bytes_to_f32s byte count");
    (active().bytes_to_f32s)(bytes, out);
}

/// Dispatched [`Kernels::bytes_to_u32s`].
pub fn bytes_to_u32s(bytes: &[u8], out: &mut [u32]) {
    assert_eq!(bytes.len(), out.len() * 4, "bytes_to_u32s byte count");
    (active().bytes_to_u32s)(bytes, out);
}

/// Dispatched [`Kernels::add_from_bytes`].
pub fn add_from_bytes(bytes: &[u8], out: &mut [f32]) {
    assert_eq!(bytes.len(), out.len() * 4, "add_from_bytes byte count");
    (active().add_from_bytes)(bytes, out);
}

/// Dispatched [`Kernels::add_into_bytes`].
pub fn add_into_bytes(xs: &[f32], bytes: &mut [u8]) {
    assert_eq!(bytes.len(), xs.len() * 4, "add_into_bytes byte count");
    (active().add_into_bytes)(xs, bytes);
}

/// Dispatched [`Kernels::add_assign`].
pub fn add_assign(acc: &mut [f32], other: &[f32]) {
    assert_eq!(acc.len(), other.len(), "add_assign length");
    (active().add_assign)(acc, other);
}

/// Dispatched [`Kernels::axpy`].
pub fn axpy(y: &mut [f32], alpha: f32, x: &[f32]) {
    assert_eq!(y.len(), x.len(), "axpy length");
    (active().axpy)(y, alpha, x);
}

/// Dispatched [`Kernels::scale`].
pub fn scale(v: &mut [f32], alpha: f32) {
    (active().scale)(v, alpha);
}

/// Dispatched [`Kernels::abs_into`].
pub fn abs_into(data: &[f32], out: &mut [f32]) {
    assert_eq!(data.len(), out.len(), "abs_into length");
    (active().abs_into)(data, out);
}

/// Dispatched [`Kernels::sum_abs`].
pub fn sum_abs(data: &[f32]) -> f32 {
    (active().sum_abs)(data)
}

/// Dispatched [`Kernels::gather_above`].
pub fn gather_above(
    data: &[f32],
    threshold: f32,
    with_nan: bool,
    indices: &mut Vec<u32>,
    values: &mut Vec<f32>,
) {
    (active().gather_above)(data, threshold, with_nan, indices, values);
}

/// Dispatched [`Kernels::tanh`].
pub fn tanh(v: &mut [f32]) {
    (active().tanh)(v);
}

/// `x ← x / divisor` elementwise: IEEE division, never a reciprocal
/// multiply, so a mean has the bits of dividing the sum.
pub fn divide(xs: &mut [f32], divisor: f32) {
    for x in xs {
        *x /= divisor;
    }
}

/// Elements the ring mean's final hop adds and then divides at a time:
/// 2 KiB of `f32` and 2 KiB of wire, so the divide reads what the add just
/// wrote from L1. A multiple of every kernel table's vector width.
const MEAN_BLOCK: usize = 512;

/// The ring mean's final-hop reduce, `out ← (out + decode(bytes)) /
/// divisor`, one [`MEAN_BLOCK`] at a time: the dispatched
/// [`add_from_bytes`], then [`divide`] on the L1-hot block. Elementwise,
/// so the bits equal the add over the whole range followed by the divide;
/// on a 2 MB chunk this cost about the add alone, where the add and then
/// a divide pass cost half as much again (DESIGN.md §8 keeps the
/// measurement).
pub fn add_from_bytes_then_divide(bytes: &[u8], out: &mut [f32], divisor: f32) {
    assert_eq!(bytes.len(), out.len() * 4, "add_from_bytes byte count");
    for (xs, w) in out.chunks_mut(MEAN_BLOCK).zip(bytes.chunks(4 * MEAN_BLOCK)) {
        add_from_bytes(w, xs);
        divide(xs, divisor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_table_is_always_available() {
        assert_eq!(scalar().name, "scalar");
    }

    #[test]
    fn active_is_stable_and_named() {
        let a = active();
        assert!(std::ptr::eq(a, active()));
        assert!(a.name == "scalar" || a.name == "avx2" || a.name == "avx512");
        if simd_active() {
            assert_ne!(a.name, "scalar");
        }
    }

    #[test]
    fn tables_enumerates_scalar_first_and_widest_last() {
        let t = tables();
        assert!(std::ptr::eq(t[0], scalar()));
        let names: Vec<&str> = t.iter().map(|k| k.name).collect();
        let mut expected = vec!["scalar"];
        if names.contains(&"avx2") {
            expected.push("avx2");
        }
        if names.contains(&"avx512") {
            expected.push("avx512");
        }
        assert_eq!(names, expected);
        // The best table simd() reports must be the last enumerated one.
        if let Some(best) = simd() {
            assert!(std::ptr::eq(best, *t.last().unwrap()));
        } else {
            assert_eq!(t.len(), 1);
        }
    }

    #[test]
    fn feature_string_mentions_active_table() {
        let s = feature_string();
        assert!(s.contains(active().name), "{s}");
    }

    #[test]
    fn wrappers_round_trip_signs() {
        let data = [1.0f32, -2.0, 3.0, -4.0, 5.0];
        let mut words = vec![0u32; 1];
        sign_pack(&data, &mut words);
        assert_eq!(words[0], 0b10101);
        let mut out = vec![0.0f32; 5];
        unpack_fill(&words, -1.0, 1.0, &mut out);
        assert_eq!(out, [1.0, -1.0, 1.0, -1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "sign_pack word count")]
    fn wrapper_asserts_word_count() {
        let mut words = vec![0u32; 2];
        sign_pack(&[1.0; 5], &mut words);
    }
}
