//! Matrix views and the linear-algebra kernels used by low-rank
//! compressors.
//!
//! PowerSGD's encode step is one power iteration:
//! `P = M Q; orthonormalize(P); Q = Mᵀ P` — so the only kernels needed are
//! the three matmul variants and a modified Gram–Schmidt. ATOMO additionally
//! needs a truncated SVD, implemented in [`svd_truncated`] via subspace
//! iteration on top of the same kernels.

use crate::{Result, Tensor, TensorError};
use std::mem::MaybeUninit;

/// An immutable matrix view over a flat `f32` slice (row-major).
///
/// # Example
///
/// ```
/// use gcs_tensor::matrix::MatrixRef;
///
/// let data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
/// let m = MatrixRef::new(&data, 2, 3).unwrap();
/// assert_eq!(m.get(1, 2), 6.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MatrixRef<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
}

impl<'a> MatrixRef<'a> {
    /// Wraps `data` as a `rows x cols` row-major matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn new(data: &'a [f32], rows: usize, cols: usize) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::ShapeMismatch {
                expected: format!("{} elements", rows * cols),
                actual: format!("{} elements", data.len()),
            });
        }
        Ok(MatrixRef { data, rows, cols })
    }

    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c]
    }

    /// The underlying row-major slice.
    pub(crate) fn as_slice(&self) -> &[f32] {
        self.data
    }
}

/// Checks that the output buffer has the expected size.
fn check_out(out: &[f32], rows: usize, cols: usize) -> Result<()> {
    if out.len() != rows * cols {
        return Err(TensorError::ShapeMismatch {
            expected: format!("{} elements", rows * cols),
            actual: format!("{} elements", out.len()),
        });
    }
    Ok(())
}

/// `out = A · B` where `A` is `m x k` and `B` is `k x n`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if inner dimensions or the output
/// buffer size do not line up.
pub fn matmul(a: MatrixRef<'_>, b: MatrixRef<'_>, out: &mut [f32]) -> Result<()> {
    check_matmul(a, b, out)?;
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let (a_s, b_s) = (a.as_slice(), b.as_slice());
    #[cfg(target_arch = "x86_64")]
    if (4..SKINNY_MAX).contains(&n) && avx512_paths_active() {
        let m4 = m - m % 4;
        // SAFETY: `avx512_paths_active` saw the AVX-512 tier detected.
        unsafe { mm_skinny_avx512(a_s, b_s, (m4, k, n), &mut out[..m4 * n]) };
        let rest = MatrixRef::new(&a_s[m4 * k..], m - m4, k)?;
        return matmul_with_tile(active_tile(), rest, b, &mut out[m4 * n..]);
    }
    // Skinny `B` (PowerSGD's `P = M · Q`): the widest tile that fits is
    // 4 columns, and a 4-row block of it is four dependent FMA chains —
    // latency-bound. Eight rows per block keep eight chains in flight;
    // each output element is still the same l-ordered chain.
    let m8 = if n < SKINNY_MAX { m - m % 8 } else { 0 };
    for i in (0..m8).step_by(8) {
        let a_rows: [&[f32]; 8] = std::array::from_fn(|r| &a_s[(i + r) * k..(i + r + 1) * k]);
        let mut j = 0;
        if j + 8 <= n {
            mm_tile::<8, 8>(a_rows, b_s, k, n, i, j, out);
            j += 8;
        }
        if j + 4 <= n {
            mm_tile::<8, 4>(a_rows, b_s, k, n, i, j, out);
            j += 4;
        }
        mm_col_tail(j, a_rows, b_s, (k, n), i, out);
    }
    let rest = MatrixRef::new(&a_s[m8 * k..], m - m8, k)?;
    matmul_with_tile(active_tile(), rest, b, &mut out[m8 * n..])
}

/// Shape check shared by the `A · B` entry points.
fn check_matmul(a: MatrixRef<'_>, b: MatrixRef<'_>, out: &[f32]) -> Result<()> {
    if a.cols() != b.rows() {
        return Err(TensorError::ShapeMismatch {
            expected: format!("inner dim {}", a.cols()),
            actual: format!("inner dim {}", b.rows()),
        });
    }
    check_out(out, a.rows(), b.cols())
}

/// Factor widths below this take the skinny paths of [`matmul`] and
/// [`at_mul_b`]; from 16 columns on the 4 x 16 register tile fits.
/// PowerSGD's ranks are 1 to 16; the training task's own products are
/// 1024 wide and never qualify. Chosen from the operand shapes alone:
/// every path computes each output element with the same chain of
/// operations, so which one ran is invisible in the result bits.
const SKINNY_MAX: usize = 16;

/// Register-tile shape used by the matmul j-loops. Every tile computes
/// the identical l-ordered FMA chain per output element, so switching
/// tiles never changes output bits — only speed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GemmTile {
    /// Scalar `mul_add` tiles only.
    Scalar,
    /// 4x16 AVX2+FMA tile (two ymm accumulators per row).
    Avx2x16,
    /// 4x32 AVX-512 tile (two zmm accumulators per row).
    Avx512x32,
}

impl GemmTile {
    /// Whether this tile runs vector code (needs the matching runtime
    /// feature detection before use).
    fn uses_simd(self) -> bool {
        !matches!(self, GemmTile::Scalar)
    }
}

/// Widest tile the running CPU supports.
pub fn best_supported_tile() -> GemmTile {
    if crate::kernels::avx512_supported() {
        GemmTile::Avx512x32
    } else if crate::kernels::avx2_supported() {
        GemmTile::Avx2x16
    } else {
        GemmTile::Scalar
    }
}

/// Every tile the running CPU can execute, narrowest first.
pub fn supported_tiles() -> Vec<GemmTile> {
    let mut tiles = vec![GemmTile::Scalar];
    if crate::kernels::avx2_supported() {
        tiles.push(GemmTile::Avx2x16);
    }
    if crate::kernels::avx512_supported() {
        tiles.push(GemmTile::Avx512x32);
    }
    tiles
}

/// The register tile the dispatched entry points run: the widest
/// supported one when SIMD is active, scalar otherwise.
fn active_tile() -> GemmTile {
    if crate::kernels::simd_active() {
        best_supported_tile()
    } else {
        GemmTile::Scalar
    }
}

/// [`matmul`] with an explicit register tile — what the property tests
/// sweep. The caller must only pass tiles in [`supported_tiles`]; every
/// supported tile produces bit-identical output.
///
/// # Errors
///
/// Same shape errors as [`matmul`].
#[doc(hidden)]
pub fn matmul_with_tile(
    tile: GemmTile,
    a: MatrixRef<'_>,
    b: MatrixRef<'_>,
    out: &mut [f32],
) -> Result<()> {
    check_matmul(a, b, out)?;
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let a_s = a.as_slice();
    let b_s = b.as_slice();
    // Register-tiled kernel: a 4 x T accumulator tile lives in registers
    // across the entire k loop, so each output element is stored exactly
    // once (the streaming loop re-loads and re-stores `out` on every k
    // step, which caps it at one FMA per store). Each streamed B vector
    // feeds four rows, so B loads amortize 4x as well.
    let mut i = 0;
    // 8-row x 32-col AVX-512 macro-block first: 16 zmm accumulators per
    // block, so each streamed B vector feeds eight rows instead of four —
    // half the B memory traffic, which is what bounds the skinny PowerSGD
    // shapes. Per-output-element FMA chains stay l-ordered, so the block
    // height is invisible in the output bits.
    #[cfg(target_arch = "x86_64")]
    if tile == GemmTile::Avx512x32 && m >= 8 && n >= 32 {
        // k-panel blocking: the outer loop walks `k` in panels sized so a
        // B panel (`kc x n`) stays L2-resident while every 8-row block
        // streams over it — without it, skinny shapes (PowerSGD's
        // 512 x 4608 x 64) re-stream all of B from memory once per row
        // block. Later panels resume each accumulator from `out`; an f32
        // store/load roundtrip is exact (NaN bits included), so the
        // per-element chain — and therefore the result bits — are
        // identical to the unblocked loop.
        let kc = (131072 / n).max(64).min(k);
        let m8 = m - m % 8;
        let n32 = n - n % 32;
        let mut kb = 0;
        while kb < k {
            let kh = (kb + kc).min(k);
            let first = kb == 0;
            let mut bi = 0;
            while bi + 8 <= m8 {
                let rows: [&[f32]; 8] =
                    std::array::from_fn(|r| &a_s[(bi + r) * k + kb..(bi + r) * k + kh]);
                let mut j = 0;
                while j + 32 <= n32 {
                    // SAFETY: the `Avx512x32` tile is only handed out after
                    // runtime AVX-512F detection (see `matmul_with_tile`'s
                    // caller contract); tile bounds are maintained by the
                    // loop and the B panel covers rows `kb..kh`.
                    unsafe {
                        mm_tile32x8_avx512(
                            first,
                            rows,
                            &b_s[kb * n..kh * n],
                            (kh - kb, n),
                            bi,
                            j,
                            out,
                        )
                    };
                    j += 32;
                }
                bi += 8;
            }
            kb = kh;
        }
        // Column remainder of the blocked rows via the 4-row tiles
        // (full-`k` register chains — same bits, see above).
        if n32 < n {
            while i + 4 <= m8 {
                let a_rows: [&[f32]; 4] =
                    std::array::from_fn(|r| &a_s[(i + r) * k..(i + r + 1) * k]);
                mm_cols_from(tile, n32, a_rows, b_s, (k, n), i, out);
                i += 4;
            }
        }
        i = m8;
    }
    while i + 4 <= m {
        let c0 = &a_s[i * k..(i + 1) * k];
        let c1 = &a_s[(i + 1) * k..(i + 2) * k];
        let c2 = &a_s[(i + 2) * k..(i + 3) * k];
        let c3 = &a_s[(i + 3) * k..(i + 4) * k];
        let a_rows = [c0, c1, c2, c3];
        let mut j = 0;
        #[cfg(target_arch = "x86_64")]
        if tile == GemmTile::Avx512x32 {
            while j + 32 <= n {
                // SAFETY: the `Avx512x32` tile is only handed out after
                // runtime AVX-512F detection (see `matmul_with_tile`'s
                // caller contract); tile bounds are maintained by the loop.
                unsafe { mm_tile32_avx512(a_rows, b_s, (k, n), i, j, out) };
                j += 32;
            }
        }
        mm_cols_from(tile, j, a_rows, b_s, (k, n), i, out);
        i += 4;
    }
    // Remainder rows (m % 4) with the plain streaming loop.
    for i in i..m {
        let orow = &mut out[i * n..(i + 1) * n];
        orow.fill(0.0);
        for l in 0..k {
            let aik = a_s[i * k + l];
            let brow = &b_s[l * n..(l + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o = aik.mul_add(bv, *o);
            }
        }
    }
    Ok(())
}

/// Columns `j0..n` of a 4-row block of `A · B`, via the 16/4/1-wide tiles
/// (the 32-wide AVX-512 panel, when active, is consumed by the caller).
#[inline(always)]
fn mm_cols_from(
    tile: GemmTile,
    j0: usize,
    a_rows: [&[f32]; 4],
    b_s: &[f32],
    (k, n): (usize, usize),
    i: usize,
    out: &mut [f32],
) {
    let mut j = j0;
    while j + 16 <= n {
        mm_tile16(tile.uses_simd(), a_rows, b_s, (k, n), i, j, out);
        j += 16;
    }
    while j + 4 <= n {
        mm_tile::<4, 4>(a_rows, b_s, k, n, i, j, out);
        j += 4;
    }
    mm_col_tail(j, a_rows, b_s, (k, n), i, out);
}

/// Columns `j0..n` (fewer than a tile) of an R-row block of `A · B`, one
/// column at a time.
#[inline(always)]
fn mm_col_tail<const R: usize>(
    j0: usize,
    a_rows: [&[f32]; R],
    b_s: &[f32],
    (k, n): (usize, usize),
    i: usize,
    out: &mut [f32],
) {
    for j in j0..n {
        let mut s = [0.0f32; R];
        for l in 0..k {
            let bv = b_s[l * n + j];
            for (sr, ar) in s.iter_mut().zip(a_rows) {
                *sr = ar[l].mul_add(bv, *sr);
            }
        }
        for (r, sr) in s.into_iter().enumerate() {
            out[(i + r) * n + j] = sr;
        }
    }
}

/// One R x T output tile of `A · B`: accumulates over the full shared
/// dimension in register-resident arrays, then stores each row once.
///
/// Accumulation is `mul_add` (one rounding per step) so the scalar tile is
/// bit-identical to the AVX2 `vfmadd` tile — both are the same l-ordered
/// fused chain per output element.
#[inline(always)]
fn mm_tile<const R: usize, const T: usize>(
    a_rows: [&[f32]; R],
    b_s: &[f32],
    k: usize,
    n: usize,
    i: usize,
    j: usize,
    out: &mut [f32],
) {
    let mut acc = [[0.0f32; T]; R];
    for l in 0..k {
        let brow: &[f32; T] = b_s[l * n + j..l * n + j + T]
            .try_into()
            .expect("tile width");
        for (accr, ar) in acc.iter_mut().zip(a_rows) {
            let c = ar[l];
            for (av, &bv) in accr.iter_mut().zip(brow) {
                *av = c.mul_add(bv, *av);
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        out[(i + r) * n + j..(i + r) * n + j + T].copy_from_slice(accr);
    }
}

/// The hot 4 x 16 `A · B` tile, dispatched: explicit AVX2+FMA lanes when
/// the caller saw [`crate::kernels::simd_active`], scalar `mul_add`
/// otherwise. Both orders are identical, so the choice is invisible in the
/// output bits.
#[inline(always)]
fn mm_tile16(
    use_simd: bool,
    a_rows: [&[f32]; 4],
    b_s: &[f32],
    (k, n): (usize, usize),
    i: usize,
    j: usize,
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if use_simd {
        // SAFETY: `use_simd` is only ever true after runtime AVX2+FMA
        // detection (kernels::simd_active / an explicit dispatch test).
        unsafe { mm_tile16_avx2(a_rows, b_s, k, n, i, j, out) };
        return;
    }
    let _ = use_simd;
    mm_tile::<4, 16>(a_rows, b_s, k, n, i, j, out);
}

/// AVX2+FMA 4 x 16 tile: two ymm accumulators per row, one broadcast per
/// A element, `vfmadd231ps` over the shared dimension — the same fused
/// l-ordered chain as the scalar `mul_add` tile.
/// # Safety
/// Caller must guarantee AVX2+FMA are present and that the tile
/// `[i..i+4) x [j..j+16)` lies fully inside `out` (rows of length `n`),
/// with `a_rows`/`b_s` covering the shared dimension `k`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn mm_tile16_avx2(
    a_rows: [&[f32]; 4],
    b_s: &[f32],
    k: usize,
    n: usize,
    i: usize,
    j: usize,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm256_setzero_ps(); 2]; 4];
    for l in 0..k {
        let p = b_s.as_ptr().add(l * n + j);
        let b0 = _mm256_loadu_ps(p);
        let b1 = _mm256_loadu_ps(p.add(8));
        for (accr, ar) in acc.iter_mut().zip(a_rows) {
            let c = _mm256_set1_ps(ar[l]);
            accr[0] = _mm256_fmadd_ps(c, b0, accr[0]);
            accr[1] = _mm256_fmadd_ps(c, b1, accr[1]);
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        let p = out.as_mut_ptr().add((i + r) * n + j);
        _mm256_storeu_ps(p, accr[0]);
        _mm256_storeu_ps(p.add(8), accr[1]);
    }
}

/// AVX-512 4 x 32 `A · B` tile: two zmm accumulators per row, one
/// broadcast per A element — the same fused l-ordered chain as the
/// scalar `mul_add` tile, so the wider registers are invisible in the
/// output bits.
/// # Safety
/// Caller must guarantee AVX-512F is present and that the tile
/// `[i..i+4) x [j..j+32)` lies fully inside `out` (rows of length `n`),
/// with `a_rows`/`b_s` covering the shared dimension `k`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn mm_tile32_avx512(
    a_rows: [&[f32]; 4],
    b_s: &[f32],
    (k, n): (usize, usize),
    i: usize,
    j: usize,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm512_setzero_ps(); 2]; 4];
    for l in 0..k {
        let p = b_s.as_ptr().add(l * n + j);
        let b0 = _mm512_loadu_ps(p);
        let b1 = _mm512_loadu_ps(p.add(16));
        for (accr, ar) in acc.iter_mut().zip(a_rows) {
            let c = _mm512_set1_ps(ar[l]);
            accr[0] = _mm512_fmadd_ps(c, b0, accr[0]);
            accr[1] = _mm512_fmadd_ps(c, b1, accr[1]);
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        let p = out.as_mut_ptr().add((i + r) * n + j);
        _mm512_storeu_ps(p, accr[0]);
        _mm512_storeu_ps(p.add(16), accr[1]);
    }
}

/// AVX-512 8 x 32 `A · B` macro-block: 16 zmm accumulators (half the
/// register file) so each streamed B vector is reused across eight rows.
/// `first` selects zero-initialized accumulators (first k panel) vs.
/// resuming from `out` (later panels); both keep every per-element chain
/// identical to [`mm_tile32_avx512`] — only the number of rows in flight
/// and where the running sum parks between panels differ, neither of
/// which touches the arithmetic.
/// # Safety
/// Caller must guarantee AVX-512F is present and that the block
/// `[i..i+8) x [j..j+32)` lies fully inside `out` (rows of length `n`),
/// with `a_rows`/`b_s` covering the shared (panel) dimension `k`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn mm_tile32x8_avx512(
    first: bool,
    a_rows: [&[f32]; 8],
    b_s: &[f32],
    (k, n): (usize, usize),
    i: usize,
    j: usize,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm512_setzero_ps(); 2]; 8];
    if !first {
        for (r, accr) in acc.iter_mut().enumerate() {
            let p = out.as_ptr().add((i + r) * n + j);
            accr[0] = _mm512_loadu_ps(p);
            accr[1] = _mm512_loadu_ps(p.add(16));
        }
    }
    for l in 0..k {
        let p = b_s.as_ptr().add(l * n + j);
        let b0 = _mm512_loadu_ps(p);
        let b1 = _mm512_loadu_ps(p.add(16));
        for (accr, ar) in acc.iter_mut().zip(a_rows) {
            let c = _mm512_set1_ps(ar[l]);
            accr[0] = _mm512_fmadd_ps(c, b0, accr[0]);
            accr[1] = _mm512_fmadd_ps(c, b1, accr[1]);
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        let p = out.as_mut_ptr().add((i + r) * n + j);
        _mm512_storeu_ps(p, accr[0]);
        _mm512_storeu_ps(p.add(16), accr[1]);
    }
}

/// Rows `[0, m4)` of the skinny [`matmul`] on AVX-512 (`A` is `m x k`,
/// `B` is `k x n` with `4 <= n < SKINNY_MAX`, `m4` a multiple of four).
/// [`interleave4_avx512`] takes four columns of `B`'s row `l` as its A
/// side and four rows of `A` as its B side, so lane `4x + c` holds row
/// `x`, column `c` of a 4 x 4 output block: row-major order, stored as
/// four rows of four floats (at `n = 4`, one straight 64-byte store). The
/// chain is [`mm_tile`]'s, `s = fma(a, b, s)` from `+0.0` with `l`
/// ascending; the last `n % 4` columns run [`mm_col_tail`].
/// # Safety
/// Caller must guarantee AVX-512F is present.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn mm_skinny_avx512(a_s: &[f32], b_s: &[f32], (m4, k, n): (usize, usize, usize), out: &mut [f32]) {
    match n / 4 {
        1 => mm_skinny_groups_avx512::<1>(a_s, b_s, (m4, k, n), out),
        2 => mm_skinny_groups_avx512::<2>(a_s, b_s, (m4, k, n), out),
        _ => mm_skinny_groups_avx512::<3>(a_s, b_s, (m4, k, n), out),
    }
    let n4 = n - n % 4;
    if n4 < n {
        for i in (0..m4).step_by(4) {
            let a_rows: [&[f32]; 4] = std::array::from_fn(|r| &a_s[(i + r) * k..(i + r + 1) * k]);
            mm_col_tail(n4, a_rows, b_s, (k, n), i, out);
        }
    }
}

/// Columns `[0, 4GA)` of [`mm_skinny_avx512`], eight rows per pass (two
/// accumulator sets per column group keep two chains in flight) and a
/// last four-row pass.
/// # Safety
/// Caller must guarantee AVX-512F is present.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn mm_skinny_groups_avx512<const GA: usize>(
    a_s: &[f32],
    b_s: &[f32],
    (m4, k, n): (usize, usize, usize),
    out: &mut [f32],
) {
    let mut i = 0;
    while i + 8 <= m4 {
        mm_rows_avx512::<GA, 2>(a_s, b_s, (k, n), i, out);
        i += 8;
    }
    if i < m4 {
        mm_rows_avx512::<GA, 1>(a_s, b_s, (k, n), i, out);
    }
}

/// Rows `[i, i + 4GB)`, columns `[0, 4GA)` of [`mm_skinny_avx512`].
/// # Safety
/// Caller must guarantee AVX-512F is present.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn mm_rows_avx512<const GA: usize, const GB: usize>(
    a_s: &[f32],
    b_s: &[f32],
    (k, n): (usize, usize),
    i: usize,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    let acc = interleave4_avx512::<GA, GB, true>((b_s, n), &a_s[i * k..(i + 4 * GB) * k], k);
    let mut lanes = [0.0f32; 16];
    for (ga, accs) in acc.iter().enumerate() {
        for (gb, v) in accs.iter().enumerate() {
            let row = i + 4 * gb;
            if n == 4 {
                let o = &mut out[row * 4..(row + 4) * 4];
                // SAFETY: `o` is 16 floats.
                unsafe { _mm512_storeu_ps(o.as_mut_ptr(), *v) };
                continue;
            }
            // SAFETY: `lanes` is 16 floats.
            unsafe { _mm512_storeu_ps(lanes.as_mut_ptr(), *v) };
            for (x, quad) in lanes.chunks_exact(4).enumerate() {
                out[(row + x) * n + 4 * ga..][..4].copy_from_slice(quad);
            }
        }
    }
}

/// `out = Aᵀ · B` where `A` is `k x m` and `B` is `k x n` (no explicit
/// transpose is materialized).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if row counts or the output buffer
/// size do not line up.
pub fn at_mul_b(a: MatrixRef<'_>, b: MatrixRef<'_>, out: &mut [f32]) -> Result<()> {
    check_at_mul_b(a, b)?;
    check_out(out, a.cols(), b.cols())?;
    // SAFETY: `at_mul_b_uninit` stores only initialised values.
    at_mul_b_uninit(a, b, unsafe { as_uninit(out) });
    Ok(())
}

/// [`at_mul_b`] with an explicit register tile — see [`matmul_with_tile`]
/// for the caller contract.
///
/// # Errors
///
/// Same shape errors as [`at_mul_b`].
#[doc(hidden)]
pub fn at_mul_b_with_tile(
    tile: GemmTile,
    a: MatrixRef<'_>,
    b: MatrixRef<'_>,
    out: &mut [f32],
) -> Result<()> {
    check_at_mul_b(a, b)?;
    check_out(out, a.cols(), b.cols())?;
    let (k, m, n) = (a.rows(), a.cols(), b.cols());
    // SAFETY: `atb_rows` stores only initialised values.
    let out = unsafe { as_uninit(out) };
    atb_rows(tile, a.as_slice(), b.as_slice(), (k, m, n), 0, m, out);
    Ok(())
}

/// Shape check shared by the `Aᵀ · B` entry points.
fn check_at_mul_b(a: MatrixRef<'_>, b: MatrixRef<'_>) -> Result<()> {
    if a.rows() != b.rows() {
        return Err(TensorError::ShapeMismatch {
            expected: format!("shared rows {}", a.rows()),
            actual: format!("shared rows {}", b.rows()),
        });
    }
    Ok(())
}

/// `out` as a slice the write-once kernels can fill.
/// # Safety
/// Caller must guarantee that nothing stores an uninitialised value
/// through the returned slice, so `out` is still initialised when the
/// borrow ends.
unsafe fn as_uninit(out: &mut [f32]) -> &mut [MaybeUninit<f32>] {
    // SAFETY: `MaybeUninit<f32>` has the layout of `f32`, and the caller
    // keeps every element initialised.
    unsafe { &mut *(out as *mut [f32] as *mut [MaybeUninit<f32>]) }
}

/// Sets `out` to the `len` elements `fill` writes: its capacity is reused
/// (or grown), and nothing is zero-filled before `fill` runs.
/// # Safety
/// Caller must guarantee that `fill` stores a value into every
/// element of the slice it is handed, or panics.
unsafe fn fill_vec(out: &mut Vec<f32>, len: usize, fill: impl FnOnce(&mut [MaybeUninit<f32>])) {
    out.clear();
    out.reserve(len);
    fill(&mut out.spare_capacity_mut()[..len]);
    // SAFETY: `reserve` made room for `len` elements, and `fill` stored
    // every one of them (caller contract).
    unsafe { out.set_len(len) };
}

/// Stores `src` into the front of `dst`.
#[inline(always)]
fn store(dst: &mut [MaybeUninit<f32>], src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        d.write(s);
    }
}

/// Output rows `[i0, i1)` of `Aᵀ · B` for skinny `B` (`n < SKINNY_MAX`,
/// PowerSGD's `Q = Mᵀ · P̂`) into `out_band`.
///
/// The register tiles walk A down a 4-column block: 16 bytes of every
/// cache line per pass, so the matrix is read four times at a row-length
/// stride. Here A is streamed row by row instead, against `n` accumulator
/// rows `acc[c][i] = fma(A[l, i], B[l, c], acc[c][i])` that vectorise
/// across `i`; columns are blocked so the accumulators stay in L1. Each
/// output element is the same l-ordered chain as in [`atb_rows`].
fn atb_rows_skinny(
    a_s: &[f32],
    b_s: &[f32],
    (k, m, n): (usize, usize, usize),
    i0: usize,
    i1: usize,
    out_band: &mut [MaybeUninit<f32>],
) {
    const ACC_ELEMS: usize = 4096;
    let mut acc = [0.0f32; ACC_ELEMS];
    let block = ACC_ELEMS / n.max(1);
    for lo in (i0..i1).step_by(block) {
        let w = block.min(i1 - lo);
        let acc = &mut acc[..n * w];
        acc.fill(0.0);
        // Four rows of A per pass over the accumulators (a quarter of the
        // accumulator traffic); the nested `mul_add`s keep `l` ascending.
        let arow = |l: usize| &a_s[l * m + lo..l * m + lo + w];
        let k4 = k - k % 4;
        for l in (0..k4).step_by(4) {
            let (a0, a1, a2, a3) = (arow(l), arow(l + 1), arow(l + 2), arow(l + 3));
            for (c, accr) in acc.chunks_exact_mut(w).enumerate() {
                let b: [f32; 4] = std::array::from_fn(|d| b_s[(l + d) * n + c]);
                let a = a0.iter().zip(a1).zip(a2).zip(a3);
                for (s, (((&v0, &v1), &v2), &v3)) in accr.iter_mut().zip(a) {
                    let s0 = v0.mul_add(b[0], *s);
                    let s1 = v1.mul_add(b[1], s0);
                    let s2 = v2.mul_add(b[2], s1);
                    *s = v3.mul_add(b[3], s2);
                }
            }
        }
        for l in k4..k {
            let brow = &b_s[l * n..(l + 1) * n];
            for (accr, &bv) in acc.chunks_exact_mut(w).zip(brow) {
                for (s, &av) in accr.iter_mut().zip(arow(l)) {
                    *s = av.mul_add(bv, *s);
                }
            }
        }
        let orows = &mut out_band[(lo - i0) * n..(lo - i0 + w) * n];
        for (c, accr) in acc.chunks_exact(w).enumerate() {
            for (orow, &s) in orows.chunks_exact_mut(n).zip(accr) {
                orow[c].write(s);
            }
        }
    }
}

/// Output rows `[i0, i1)` of the skinny `Aᵀ · B` on AVX-512, up to the
/// last multiple of 16 rows; returns the first row left for
/// [`atb_rows_skinny`]. All `n` accumulator rows of a block stay in zmm
/// registers: blocks of 64 output rows up to `n = 4`, 32 up to 8 and 16
/// beyond, then 16-row blocks. Each output element is
/// [`atb_rows_skinny`]'s chain, `s = fma(a, b, s)` from `+0.0` with `l`
/// ascending.
/// # Safety
/// Caller must guarantee AVX-512F is present.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn atb_skinny_avx512(
    a_s: &[f32],
    b_s: &[f32],
    (k, m, n): (usize, usize, usize),
    i0: usize,
    i1: usize,
    out_band: &mut [MaybeUninit<f32>],
) -> usize {
    match n {
        1 => atb_skinny_blocks::<1, 4>(a_s, b_s, (k, m), i0, i1, out_band),
        2 => atb_skinny_blocks::<2, 4>(a_s, b_s, (k, m), i0, i1, out_band),
        3 => atb_skinny_blocks::<3, 4>(a_s, b_s, (k, m), i0, i1, out_band),
        4 => atb_skinny_blocks::<4, 4>(a_s, b_s, (k, m), i0, i1, out_band),
        5 => atb_skinny_blocks::<5, 2>(a_s, b_s, (k, m), i0, i1, out_band),
        6 => atb_skinny_blocks::<6, 2>(a_s, b_s, (k, m), i0, i1, out_band),
        7 => atb_skinny_blocks::<7, 2>(a_s, b_s, (k, m), i0, i1, out_band),
        8 => atb_skinny_blocks::<8, 2>(a_s, b_s, (k, m), i0, i1, out_band),
        9 => atb_skinny_blocks::<9, 1>(a_s, b_s, (k, m), i0, i1, out_band),
        10 => atb_skinny_blocks::<10, 1>(a_s, b_s, (k, m), i0, i1, out_band),
        11 => atb_skinny_blocks::<11, 1>(a_s, b_s, (k, m), i0, i1, out_band),
        12 => atb_skinny_blocks::<12, 1>(a_s, b_s, (k, m), i0, i1, out_band),
        13 => atb_skinny_blocks::<13, 1>(a_s, b_s, (k, m), i0, i1, out_band),
        14 => atb_skinny_blocks::<14, 1>(a_s, b_s, (k, m), i0, i1, out_band),
        _ => atb_skinny_blocks::<15, 1>(a_s, b_s, (k, m), i0, i1, out_band),
    }
}

/// [`atb_skinny_avx512`] at `n = N`: blocks of `16V` rows, then of 16.
/// # Safety
/// Caller must guarantee AVX-512F is present.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn atb_skinny_blocks<const N: usize, const V: usize>(
    a_s: &[f32],
    b_s: &[f32],
    (k, m): (usize, usize),
    i0: usize,
    i1: usize,
    out_band: &mut [MaybeUninit<f32>],
) -> usize {
    let mut i = i0;
    while i + 16 * V <= i1 {
        let o = &mut out_band[(i - i0) * N..(i - i0 + 16 * V) * N];
        atb_block_avx512::<N, V>(a_s, b_s, (k, m), i, o);
        i += 16 * V;
    }
    while i + 16 <= i1 {
        let o = &mut out_band[(i - i0) * N..(i - i0 + 16) * N];
        atb_block_avx512::<N, 1>(a_s, b_s, (k, m), i, o);
        i += 16;
    }
    i
}

/// Rows of `A` ahead of the current one that [`atb_block_avx512`]
/// prefetches: measured faster than none, 2, 8, 16 or 32 on the 1024 x
/// 1024 layer at ranks 4 and 8.
#[cfg(target_arch = "x86_64")]
const ATB_PREFETCH_ROWS: usize = 4;

/// Output rows `[i, i + 16V)` of the skinny `Aᵀ · B` (`B` is `k x N`) into
/// `out`: `A` is streamed row by row, `V` zmm of row `l` against a
/// broadcast of each `B[l][c]`, into `N x V` register accumulators.
/// # Safety
/// Caller must guarantee AVX-512F is present.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn atb_block_avx512<const N: usize, const V: usize>(
    a_s: &[f32],
    b_s: &[f32],
    (k, m): (usize, usize),
    i: usize,
    out: &mut [MaybeUninit<f32>],
) {
    use std::arch::x86_64::*;
    assert!(
        i + 16 * V <= m && out.len() == 16 * V * N,
        "skinny Aᵀ·B block shapes"
    );
    let mut acc = [[_mm512_setzero_ps(); V]; N];
    for l in 0..k {
        let arow = &a_s[l * m + i..][..16 * V];
        let brow: &[f32; N] = b_s[l * N..][..N].try_into().expect("factor row");
        // Every row of the block starts a new stretch of `A`, out of reach
        // of the hardware's in-page stream prefetch: ask for the row
        // `ATB_PREFETCH_ROWS` ahead (the last row again at the end).
        let ahead = (l + ATB_PREFETCH_ROWS).min(k - 1);
        let next = &a_s[ahead * m + i..][..16 * V];
        let mut av = [_mm512_setzero_ps(); V];
        for (v, x) in av.iter_mut().enumerate() {
            // SAFETY: `arow` and `next` hold 16 floats from `16v` on.
            unsafe {
                _mm_prefetch::<_MM_HINT_T0>(next.as_ptr().add(16 * v).cast());
                *x = _mm512_loadu_ps(arow.as_ptr().add(16 * v));
            }
        }
        for (accc, &bc) in acc.iter_mut().zip(brow) {
            let bv = _mm512_set1_ps(bc);
            for (s, x) in accc.iter_mut().zip(&av) {
                *s = _mm512_fmadd_ps(*x, bv, *s);
            }
        }
    }
    let mut lanes = [0.0f32; 16];
    for (c, accc) in acc.iter().enumerate() {
        for (v, s) in accc.iter().enumerate() {
            // SAFETY: `lanes` is 16 floats.
            unsafe { _mm512_storeu_ps(lanes.as_mut_ptr(), *s) };
            for (x, &val) in lanes.iter().enumerate() {
                out[(16 * v + x) * N + c].write(val);
            }
        }
    }
}

/// Output rows `[i0, i1)` of `Aᵀ · B` into `out_band` (`(i1 - i0) x n`),
/// every element stored.
///
/// Row `i` of the output is a function of A column `i` and all of B only,
/// and every element is accumulated as an l-ordered FMA chain in both the
/// tiled and remainder paths below, so computing a band in isolation is
/// bit-identical to the same rows of the full product.
fn atb_rows(
    tile: GemmTile,
    a_s: &[f32],
    b_s: &[f32],
    (k, m, n): (usize, usize, usize),
    i0: usize,
    i1: usize,
    out_band: &mut [MaybeUninit<f32>],
) {
    // Same register tiling as [`matmul`]: both A and B are streamed
    // row-major over the shared dimension while a 4 x T accumulator tile
    // stays in registers, so `out_band` is stored exactly once per element.
    let mut i = i0;
    while i + 4 <= i1 {
        let mut j = 0;
        #[cfg(target_arch = "x86_64")]
        if tile == GemmTile::Avx512x32 {
            while j + 32 <= n {
                // SAFETY: the `Avx512x32` tile is only handed out after
                // runtime AVX-512F detection; tile bounds are maintained
                // by the loop.
                unsafe { atb_tile32_avx512(a_s, b_s, (k, m, n), (i, i - i0, j), out_band) };
                j += 32;
            }
        }
        while j + 16 <= n {
            atb_tile16(
                tile.uses_simd(),
                a_s,
                b_s,
                (k, m, n),
                (i, i - i0, j),
                out_band,
            );
            j += 16;
        }
        while j + 4 <= n {
            atb_tile::<4>(a_s, b_s, (k, m, n), i, i - i0, j, out_band);
            j += 4;
        }
        for j in j..n {
            let mut s = [0.0f32; 4];
            for l in 0..k {
                let av: &[f32; 4] = a_s[l * m + i..l * m + i + 4].try_into().expect("row block");
                let bv = b_s[l * n + j];
                for (sr, &ar) in s.iter_mut().zip(av) {
                    *sr = ar.mul_add(bv, *sr);
                }
            }
            for (r, sr) in s.into_iter().enumerate() {
                out_band[(i - i0 + r) * n + j].write(sr);
            }
        }
        i += 4;
    }
    // Remainder rows (at most three) stream l-outer over zeroed output
    // rows.
    if i < i1 {
        let rest = &mut out_band[(i - i0) * n..];
        for o in rest.iter_mut() {
            o.write(0.0);
        }
        // SAFETY: every element of `rest` was just written.
        let rest = unsafe { &mut *(rest as *mut [MaybeUninit<f32>] as *mut [f32]) };
        for l in 0..k {
            let brow = &b_s[l * n..(l + 1) * n];
            for r in i..i1 {
                let av = a_s[l * m + r];
                let orow = &mut rest[(r - i) * n..(r - i + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o = av.mul_add(bv, *o);
                }
            }
        }
    }
}

/// One 4 x T output tile of `Aᵀ · B` (`A` stored `k x m`): accumulates over
/// the shared dimension in registers, then stores each row once.  `i` is
/// the absolute A column of the tile's first row; `oi` is the row it lands
/// on inside `out` (they differ when computing a band).
#[inline(always)]
fn atb_tile<const T: usize>(
    a_s: &[f32],
    b_s: &[f32],
    (k, m, n): (usize, usize, usize),
    i: usize,
    oi: usize,
    j: usize,
    out: &mut [MaybeUninit<f32>],
) {
    let mut acc = [[0.0f32; T]; 4];
    for l in 0..k {
        let av: &[f32; 4] = a_s[l * m + i..l * m + i + 4].try_into().expect("row block");
        let brow: &[f32; T] = b_s[l * n + j..l * n + j + T]
            .try_into()
            .expect("tile width");
        for (accr, &c) in acc.iter_mut().zip(av) {
            for (accv, &bv) in accr.iter_mut().zip(brow) {
                *accv = c.mul_add(bv, *accv);
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        store(&mut out[(oi + r) * n + j..(oi + r) * n + j + T], accr);
    }
}

/// The hot 4 x 16 `Aᵀ · B` tile, dispatched like [`mm_tile16`].
/// `(i, oi, j)` are the absolute A column, the output-band row, and the
/// output column of the tile corner.
#[inline(always)]
fn atb_tile16(
    use_simd: bool,
    a_s: &[f32],
    b_s: &[f32],
    (k, m, n): (usize, usize, usize),
    (i, oi, j): (usize, usize, usize),
    out: &mut [MaybeUninit<f32>],
) {
    #[cfg(target_arch = "x86_64")]
    if use_simd {
        // SAFETY: `use_simd` is only ever true after runtime AVX2+FMA
        // detection (kernels::simd_active / an explicit dispatch test).
        unsafe { atb_tile16_avx2(a_s, b_s, (k, m, n), (i, oi, j), out) };
        return;
    }
    let _ = use_simd;
    atb_tile::<16>(a_s, b_s, (k, m, n), i, oi, j, out);
}

/// AVX2+FMA 4 x 16 `Aᵀ · B` tile — same fused l-ordered chain as the
/// scalar `mul_add` tile.
/// # Safety
/// Caller must guarantee AVX2+FMA are present and that the tile
/// `[oi..oi+4) x [j..j+16)` lies fully inside `out` (rows of length `n`),
/// with column block `i..i+4` valid in `a_s` (rows of length `m`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn atb_tile16_avx2(
    a_s: &[f32],
    b_s: &[f32],
    (k, m, n): (usize, usize, usize),
    (i, oi, j): (usize, usize, usize),
    out: &mut [MaybeUninit<f32>],
) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm256_setzero_ps(); 2]; 4];
    for l in 0..k {
        let ap = a_s.as_ptr().add(l * m + i);
        let bp = b_s.as_ptr().add(l * n + j);
        let b0 = _mm256_loadu_ps(bp);
        let b1 = _mm256_loadu_ps(bp.add(8));
        for (r, accr) in acc.iter_mut().enumerate() {
            let c = _mm256_set1_ps(*ap.add(r));
            accr[0] = _mm256_fmadd_ps(c, b0, accr[0]);
            accr[1] = _mm256_fmadd_ps(c, b1, accr[1]);
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        let p = out.as_mut_ptr().cast::<f32>().add((oi + r) * n + j);
        _mm256_storeu_ps(p, accr[0]);
        _mm256_storeu_ps(p.add(8), accr[1]);
    }
}

/// AVX-512 4 x 32 `Aᵀ · B` tile — same fused l-ordered chain as the
/// scalar `mul_add` tile.
/// # Safety
/// Caller must guarantee AVX-512F is present and that the tile
/// `[oi..oi+4) x [j..j+32)` lies fully inside `out` (rows of length `n`),
/// with column block `i..i+4` valid in `a_s` (rows of length `m`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn atb_tile32_avx512(
    a_s: &[f32],
    b_s: &[f32],
    (k, m, n): (usize, usize, usize),
    (i, oi, j): (usize, usize, usize),
    out: &mut [MaybeUninit<f32>],
) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm512_setzero_ps(); 2]; 4];
    for l in 0..k {
        let ap = a_s.as_ptr().add(l * m + i);
        let bp = b_s.as_ptr().add(l * n + j);
        let b0 = _mm512_loadu_ps(bp);
        let b1 = _mm512_loadu_ps(bp.add(16));
        for (r, accr) in acc.iter_mut().enumerate() {
            let c = _mm512_set1_ps(*ap.add(r));
            accr[0] = _mm512_fmadd_ps(c, b0, accr[0]);
            accr[1] = _mm512_fmadd_ps(c, b1, accr[1]);
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        let p = out.as_mut_ptr().cast::<f32>().add((oi + r) * n + j);
        _mm512_storeu_ps(p, accr[0]);
        _mm512_storeu_ps(p.add(16), accr[1]);
    }
}

/// `out = A · Bᵀ` where `A` is `m x k` and `B` is `n x k`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if column counts or the output
/// buffer size do not line up.
pub fn a_mul_bt(a: MatrixRef<'_>, b: MatrixRef<'_>, out: &mut [f32]) -> Result<()> {
    if a.cols() != b.cols() {
        return Err(TensorError::ShapeMismatch {
            expected: format!("shared cols {}", a.cols()),
            actual: format!("shared cols {}", b.cols()),
        });
    }
    check_out(out, a.rows(), b.rows())?;
    let (k, n) = (a.cols(), b.rows());
    // Also keeps `n == 0` away from the zero-sized row blocks below.
    if out.is_empty() {
        return Ok(());
    }
    let (a_s, b_s) = (a.as_slice(), b.as_slice());
    let n4 = n - n % 4;
    let interleave = avx512_paths_active();
    // One vector lane per output row: eight rows of A are packed into a
    // `k x 8` panel, so one load gives the eight rows' `a[l]`, and each
    // lane runs its row's chain `s = 0; s += a[l] * b[l]` with `l`
    // ascending. Lanes past the last row hold zeros and are never stored.
    let mut panel = vec![0.0f32; k * ABT_LANES];
    for (blk, oblock) in out.chunks_mut(ABT_LANES * n).enumerate() {
        let rows = oblock.len() / n;
        let ablock = &a_s[blk * ABT_LANES * k..(blk * ABT_LANES + rows) * k];
        // A block of at most four rows would leave half of every 8-lane
        // vector padding; on AVX-512 it fills a zmm with 4 rows x 4
        // columns instead, from a `k x 4` panel.
        let lanes = if interleave && rows <= ABT4_ROWS {
            ABT4_ROWS
        } else {
            ABT_LANES
        };
        let panel = &mut panel[..k * lanes];
        for (l, p) in panel.chunks_exact_mut(lanes).enumerate() {
            for (r, pv) in p.iter_mut().enumerate() {
                *pv = if r < rows { ablock[r * k + l] } else { 0.0 };
            }
        }
        if lanes == ABT4_ROWS {
            // SAFETY: `lanes` is `ABT4_ROWS` only when
            // `avx512_paths_active` saw the AVX-512 tier detected.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                abt4_cols_avx512(panel, b_s, (k, n), oblock)
            };
        } else {
            let mut j = 0;
            while j + 8 <= n {
                abt_lane_cols::<8>(panel, b_s, (k, n), j, oblock);
                j += 8;
            }
            // At most one four-column block is left before the tail.
            if j < n4 {
                abt_lane_cols::<4>(panel, b_s, (k, n), j, oblock);
            }
        }
        for j in n4..n {
            let brow = &b_s[j * k..(j + 1) * k];
            for r in 0..rows {
                oblock[r * n + j] = dot_in_order(&ablock[r * k..(r + 1) * k], brow);
            }
        }
    }
    Ok(())
}

/// Output rows [`a_mul_bt`] computes at once, one per vector lane.
const ABT_LANES: usize = 8;

/// Rows of an [`a_mul_bt`] block short enough for the interleaved layout
/// of [`abt4_cols_avx512`].
const ABT4_ROWS: usize = 4;

/// Whether the explicit AVX-512 layouts run: [`a_mul_bt`]'s interleaved
/// short blocks and the zmm forms of the skinny [`matmul`] and
/// [`at_mul_b`]. On the AVX-512 tier, unless `GCS_FORCE_SCALAR` is set.
/// Every layout forms each element with the chain of the path it stands
/// in for, so which one ran is invisible in the result bits.
fn avx512_paths_active() -> bool {
    crate::kernels::simd_active() && crate::kernels::avx512_supported()
}

/// For each of four steps `t` over the shared dimension: lane `4c + r`
/// takes lane `4c + t` of a vector holding `b[l..l + 4]` of four B rows.
#[cfg(target_arch = "x86_64")]
const ABT4_STEP: [[i32; 16]; 4] = {
    let mut idx = [[0i32; 16]; 4];
    let mut t = 0;
    while t < 4 {
        let mut lane = 0;
        while lane < 16 {
            idx[t][lane] = (lane / 4 * 4 + t) as i32;
            lane += 1;
        }
        t += 1;
    }
    idx
};

/// Columns `[0, n - n % 4)` of a block of at most [`ABT4_ROWS`] rows of
/// [`a_mul_bt`] on AVX-512, `panel` holding the block's rows of `A`
/// interleaved four wide (`k x 4`, zero past the last row). Through
/// [`interleave4_avx512`] a zmm holds 4 rows x 4 columns, lane `4c + r`
/// the chain of row `r`, column `j + c`: `s = 0.0; s += a·b`, a multiply
/// then an add, never fused, `l` ascending.
/// # Safety
/// Caller must guarantee AVX-512F is present.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn abt4_cols_avx512(panel: &[f32], b_s: &[f32], (k, n): (usize, usize), oblock: &mut [f32]) {
    assert!(
        oblock.len() <= ABT4_ROWS * n && oblock.len().is_multiple_of(n),
        "interleaved a_mul_bt block shapes"
    );
    let n4 = n - n % 4;
    let mut j = 0;
    // Two zmm accumulators (eight columns) per pass: measured faster than
    // four or eight at the big model's 4 x 1024 x 1024.
    while j + 8 <= n4 {
        abt4_group_avx512::<2>(panel, b_s, (k, n), j, oblock);
        j += 8;
    }
    while j < n4 {
        abt4_group_avx512::<1>(panel, b_s, (k, n), j, oblock);
        j += 4;
    }
}

/// Columns `[j, j + 4G)` of [`abt4_cols_avx512`]: `G` zmm accumulators,
/// four columns each, transposed into the output rows; lanes of padding
/// rows are dropped.
/// # Safety
/// Caller must guarantee AVX-512F is present.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn abt4_group_avx512<const G: usize>(
    panel: &[f32],
    b_s: &[f32],
    (k, n): (usize, usize),
    j: usize,
    oblock: &mut [f32],
) {
    use std::arch::x86_64::*;
    let brows = &b_s[j * k..(j + 4 * G) * k];
    let [acc] = interleave4_avx512::<1, G, false>((panel, ABT4_ROWS), brows, k);
    let mut lanes = [0.0f32; 16];
    for (g, accg) in acc.iter().enumerate() {
        // SAFETY: `lanes` is 16 floats.
        unsafe { _mm512_storeu_ps(lanes.as_mut_ptr(), *accg) };
        for (r, orow) in oblock.chunks_exact_mut(n).enumerate() {
            for (c, o) in orow[j + 4 * g..j + 4 * g + 4].iter_mut().enumerate() {
                *o = lanes[4 * c + r];
            }
        }
    }
}

/// The interleaved 4 x 4 product on AVX-512 that [`a_mul_bt`]'s short row
/// blocks and the skinny [`matmul`] share. Lane `4x + y` of accumulator
/// `[ga][gb]` is the chain over `l` ascending, from `+0.0`, of
/// `a[l·a_step + 4ga + y] · b[(4gb + x)·k + l]`: one `fma` per step when
/// `FUSED`, otherwise a multiply then an add. Per `l` the A side is one
/// four-float broadcast to every quarter of a zmm, and the B side one
/// permute of four rows of `b` (four 16-byte loads merged per four `l`);
/// a `k` that is not a multiple of four finishes one `l` at a time in the
/// same lanes.
/// # Safety
/// Caller must guarantee AVX-512F is present.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn interleave4_avx512<const GA: usize, const GB: usize, const FUSED: bool>(
    (a, a_step): (&[f32], usize),
    b: &[f32],
    k: usize,
) -> [[std::arch::x86_64::__m512; GB]; GA] {
    use std::arch::x86_64::*;
    assert!(
        b.len() >= 4 * GB * k && (k == 0 || a.len() >= (k - 1) * a_step + 4 * GA),
        "interleaved block shapes"
    );
    let mut step = [_mm512_setzero_si512(); 4];
    for (s, idx) in step.iter_mut().zip(&ABT4_STEP) {
        // SAFETY: `idx` is 16 `i32`s, one unaligned 64-byte load.
        *s = unsafe { _mm512_loadu_si512(idx.as_ptr().cast()) };
    }
    let (ap, bp) = (a.as_ptr(), b.as_ptr());
    let mut acc = [[_mm512_setzero_ps(); GB]; GA];
    let k4 = k - k % 4;
    for l in (0..k4).step_by(4) {
        let mut quads = [_mm512_setzero_ps(); GB];
        for (g, q) in quads.iter_mut().enumerate() {
            // SAFETY: rows `4g..4g + 4` of `b` hold `k` floats each and
            // `l + 4 <= k` (asserted above).
            unsafe {
                let row = bp.add(4 * g * k + l);
                let v = _mm512_castps128_ps512(_mm_loadu_ps(row));
                let v = _mm512_insertf32x4::<1>(v, _mm_loadu_ps(row.add(k)));
                let v = _mm512_insertf32x4::<2>(v, _mm_loadu_ps(row.add(2 * k)));
                *q = _mm512_insertf32x4::<3>(v, _mm_loadu_ps(row.add(3 * k)));
            }
        }
        for (t, s) in step.iter().enumerate() {
            let mut bv = quads;
            for v in &mut bv {
                *v = _mm512_permutexvar_ps(*s, *v);
            }
            // SAFETY: step `l + t < k` of `a` holds `4GA` floats (asserted
            // above).
            unsafe { interleave4_step::<GA, GB, FUSED>(&mut acc, ap.add((l + t) * a_step), &bv) };
        }
    }
    let mut lanes = [0.0f32; 16];
    for l in k4..k {
        let mut bv = [_mm512_setzero_ps(); GB];
        for (g, v) in bv.iter_mut().enumerate() {
            for (x, quad) in lanes.chunks_exact_mut(4).enumerate() {
                quad.fill(b[(4 * g + x) * k + l]);
            }
            // SAFETY: `lanes` is 16 floats.
            *v = unsafe { _mm512_loadu_ps(lanes.as_ptr()) };
        }
        // SAFETY: as in the blocked loop, with `l < k`.
        unsafe { interleave4_step::<GA, GB, FUSED>(&mut acc, ap.add(l * a_step), &bv) };
    }
    acc
}

/// One step `l` of [`interleave4_avx512`]: `a_l` points at the step's
/// `4GA` A floats, and `bv` holds the B side already spread over the lanes.
/// # Safety
/// Caller must guarantee AVX-512F is present and that `a_l` is
/// valid for reading `4GA` floats.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn interleave4_step<const GA: usize, const GB: usize, const FUSED: bool>(
    acc: &mut [[std::arch::x86_64::__m512; GB]; GA],
    a_l: *const f32,
    bv: &[std::arch::x86_64::__m512; GB],
) {
    use std::arch::x86_64::*;
    for (ga, accs) in acc.iter_mut().enumerate() {
        // SAFETY: `4ga + 4 <= 4GA` floats at `a_l` (caller contract).
        let av = _mm512_broadcast_f32x4(unsafe { _mm_loadu_ps(a_l.add(4 * ga)) });
        for (s, v) in accs.iter_mut().zip(bv) {
            *s = if FUSED {
                _mm512_fmadd_ps(av, *v, *s)
            } else {
                _mm512_add_ps(*s, _mm512_mul_ps(av, *v))
            };
        }
    }
}

/// Columns `[j, j + J)` of a block of up to [`ABT_LANES`] rows of
/// [`a_mul_bt`], `panel` holding the block's rows of `A` lane-interleaved.
/// A multiply then an add per step, never fused, so every lane forms the
/// same chain the row's scalar dot product would.
#[inline(always)]
fn abt_lane_cols<const J: usize>(
    panel: &[f32],
    b_s: &[f32],
    (k, n): (usize, usize),
    j: usize,
    oblock: &mut [f32],
) {
    let brows: [&[f32]; J] = std::array::from_fn(|c| &b_s[(j + c) * k..][..k]);
    let mut acc = [[0.0f32; ABT_LANES]; J];
    for (l, p) in (0..k).zip(panel.chunks_exact(ABT_LANES)) {
        let p: &[f32; ABT_LANES] = p.try_into().expect("panel lane width");
        for (accj, brow) in acc.iter_mut().zip(&brows) {
            let bv = brow[l];
            for (s, &av) in accj.iter_mut().zip(p) {
                *s += av * bv;
            }
        }
    }
    for (r, orow) in oblock.chunks_exact_mut(n).enumerate() {
        for (o, accj) in orow[j..j + J].iter_mut().zip(&acc) {
            *o = accj[r];
        }
    }
}

/// The last `n % 4` columns of [`a_mul_bt`]: an iterator sum, whose start
/// value (and so the sign of an all-zero result) is the standard
/// library's, not the `0.0` of the lane blocks.
fn dot_in_order(arow: &[f32], brow: &[f32]) -> f32 {
    arow.iter().zip(brow).map(|(x, y)| x * y).sum()
}

/// [`at_mul_b`] into a caller's `Vec`, which ends up holding the product
/// and nothing else: its capacity is reused (or grown), and every element
/// is written once, with no zero-fill first. The bits are those of
/// [`at_mul_b`], which runs the same kernels.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the row counts of `A` and `B`
/// differ.
pub fn at_mul_b_into(a: MatrixRef<'_>, b: MatrixRef<'_>, out: &mut Vec<f32>) -> Result<()> {
    check_at_mul_b(a, b)?;
    // SAFETY: `at_mul_b_uninit` stores every element of `out`.
    unsafe { fill_vec(out, a.cols() * b.cols(), |o| at_mul_b_uninit(a, b, o)) };
    Ok(())
}

/// The body of both `Aᵀ · B` forms: stores every element of `out`
/// (`a.cols() x b.cols()`, shapes checked by the caller).
fn at_mul_b_uninit(a: MatrixRef<'_>, b: MatrixRef<'_>, out: &mut [MaybeUninit<f32>]) {
    let (k, m, n) = (a.rows(), a.cols(), b.cols());
    let a_s = a.as_slice();
    let b_s = b.as_slice();
    if out.is_empty() {
        return;
    }
    if n >= SKINNY_MAX {
        atb_rows(active_tile(), a_s, b_s, (k, m, n), 0, m, out);
        return;
    }
    let mut lo = 0;
    #[cfg(target_arch = "x86_64")]
    if avx512_paths_active() {
        // SAFETY: `avx512_paths_active` saw the AVX-512 tier detected.
        lo = unsafe { atb_skinny_avx512(a_s, b_s, (k, m, n), 0, m, out) };
    }
    let rest = &mut out[lo * n..];
    if !rest.is_empty() {
        atb_rows_skinny(a_s, b_s, (k, m, n), lo, m, rest);
    }
}

/// PowerSGD's decode in one pass over the layer: `out = A · Bᵀ` (`A` is
/// `m x k`, `B` is `n x k`; `Ĝ = P̂ · Q̄ᵀ`) and, when `resid` is given,
/// `resid ← resid − out` (`E ← M − Ĝ`) while the row of `out` is still in
/// registers.
///
/// `out` ends up holding `Ĝ` and nothing else: its capacity is reused (or
/// grown), and every element is written once, with no zero-fill first.
/// Every element of `out` is computed as in [`a_mul_bt`] and every element
/// of `resid` as the separate subtraction would, so the result is
/// bit-identical to the two-step form. `B` is transposed once so that a
/// row of `out` vectorises across its columns; the shared dimension is
/// PowerSGD's rank, so the transposed copy is small next to `out`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if column counts or the size of
/// `resid` do not line up.
pub fn reconstruct_residual_into(
    a: MatrixRef<'_>,
    b: MatrixRef<'_>,
    resid: Option<&mut [f32]>,
    out: &mut Vec<f32>,
) -> Result<()> {
    check_reconstruct(a, b, resid.as_deref())?;
    let len = a.rows() * b.rows();
    // SAFETY: `reconstruct_uninit` stores every element of `out`.
    unsafe { fill_vec(out, len, |o| reconstruct_uninit(a, b, resid, o)) };
    Ok(())
}

/// Shape check of [`reconstruct_residual_into`].
fn check_reconstruct(a: MatrixRef<'_>, b: MatrixRef<'_>, resid: Option<&[f32]>) -> Result<()> {
    if a.cols() != b.cols() {
        return Err(TensorError::ShapeMismatch {
            expected: format!("shared cols {}", a.cols()),
            actual: format!("shared cols {}", b.cols()),
        });
    }
    match resid {
        Some(resid) => check_out(resid, a.rows(), b.rows()),
        None => Ok(()),
    }
}

/// The body of [`reconstruct_residual_into`]: stores every element of
/// `out` (`a.rows() x b.rows()`, shapes checked by the caller).
fn reconstruct_uninit(
    a: MatrixRef<'_>,
    b: MatrixRef<'_>,
    resid: Option<&mut [f32]>,
    out: &mut [MaybeUninit<f32>],
) {
    let (k, n) = (a.cols(), b.rows());
    if out.is_empty() {
        return;
    }
    let b_s = b.as_slice();
    let mut bt = vec![0.0f32; k * n];
    for (j, brow) in b_s.chunks_exact(k.max(1)).enumerate() {
        for (l, &bv) in brow.iter().enumerate() {
            bt[l * n + j] = bv;
        }
    }
    abt_rows(a.as_slice(), b_s, &bt, (k, n), resid, out);
}

/// Rows of `A · Bᵀ`, `bt` being `B` transposed (`k x n`), with the
/// optional residual update of [`reconstruct_residual_into`].
///
/// [`a_mul_bt`] forms each element as `s = 0; s += a[l] * b[l]` with `l`
/// ascending, one output row per vector lane, and the last `n % 4` columns
/// as an iterator sum. This kernel keeps both chains per element and puts
/// one output column per lane instead, which suits PowerSGD's small `k`:
/// the transposed `B` is then small enough to copy.
fn abt_rows(
    a_s: &[f32],
    b_s: &[f32],
    bt: &[f32],
    (k, n): (usize, usize),
    mut resid: Option<&mut [f32]>,
    out: &mut [MaybeUninit<f32>],
) {
    const W: usize = 64;
    // Rows per block: each `k x W` panel of `bt` is reused across the
    // block from L1 instead of re-streaming all of `bt` for every row.
    const ROWS: usize = 8;
    let n4 = n - n % 4;
    let nw = n4 - n4 % W;
    for (blk, oblock) in out.chunks_mut(ROWS * n).enumerate() {
        let rows = oblock.len() / n;
        let ablock = &a_s[blk * ROWS * k..(blk * ROWS + rows) * k];
        let mut eblock = resid
            .as_deref_mut()
            .map(|e| &mut e[blk * ROWS * n..(blk * ROWS + rows) * n]);
        for j in (0..nw).step_by(W) {
            abt_block_cols::<W>(ablock, bt, (k, n), j, eblock.as_deref_mut(), oblock);
        }
        for j in (nw..n4).step_by(4) {
            abt_block_cols::<4>(ablock, bt, (k, n), j, eblock.as_deref_mut(), oblock);
        }
        for j in n4..n {
            for r in 0..rows {
                let g = dot_in_order(&ablock[r * k..(r + 1) * k], &b_s[j * k..(j + 1) * k]);
                oblock[r * n + j].write(g);
                if let Some(e) = eblock.as_deref_mut() {
                    e[r * n + j] -= g;
                }
            }
        }
    }
}

/// Columns `[j, j + W)` of a block of rows of [`abt_rows`].
#[inline(always)]
fn abt_block_cols<const W: usize>(
    ablock: &[f32],
    bt: &[f32],
    (k, n): (usize, usize),
    j: usize,
    mut eblock: Option<&mut [f32]>,
    oblock: &mut [MaybeUninit<f32>],
) {
    for (r, orow) in oblock.chunks_exact_mut(n).enumerate() {
        let mut s = [0.0f32; W];
        for (l, &av) in ablock[r * k..(r + 1) * k].iter().enumerate() {
            let bl: &[f32; W] = bt[l * n + j..l * n + j + W]
                .try_into()
                .expect("chunk width");
            for (sv, &bv) in s.iter_mut().zip(bl) {
                *sv += av * bv;
            }
        }
        store(&mut orow[j..j + W], &s);
        if let Some(e) = eblock.as_deref_mut() {
            for (e, g) in e[r * n + j..r * n + j + W].iter_mut().zip(&s) {
                *e -= g;
            }
        }
    }
}

/// Orthonormalizes the columns of an `rows x cols` row-major matrix in place
/// using modified Gram–Schmidt — the same `orthogonalize` step PowerSGD
/// applies to `P` between the two matmuls of a power iteration.
///
/// Columns that become numerically zero (norm < 1e-12) are replaced by a
/// deterministic pseudo-random unit direction re-orthogonalized against the
/// previous columns, so the result always has orthonormal columns.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `m.len() != rows * cols`.
pub fn orthonormalize_columns(m: &mut [f32], rows: usize, cols: usize) -> Result<()> {
    check_out(m, rows, cols)?;
    for c in 0..cols {
        let pre_norm = (0..rows)
            .map(|r| m[r * cols + c] * m[r * cols + c])
            .sum::<f32>()
            .sqrt();
        // Subtract projections on previous columns.
        for prev in 0..c {
            let mut dot = 0.0f32;
            for r in 0..rows {
                dot += m[r * cols + c] * m[r * cols + prev];
            }
            for r in 0..rows {
                m[r * cols + c] -= dot * m[r * cols + prev];
            }
        }
        let mut norm = (0..rows)
            .map(|r| m[r * cols + c] * m[r * cols + c])
            .sum::<f32>()
            .sqrt();
        // Degenerate when the residual is swamped by f32 cancellation noise
        // relative to the column's original magnitude.
        if norm <= pre_norm * 1e-5 || norm < 1e-30 {
            // Degenerate column: replace with a deterministic direction and
            // re-orthogonalize once.
            for r in 0..rows {
                // Simple deterministic hash -> [-1, 1).
                let h = (r.wrapping_mul(2654435761).wrapping_add(c * 97) & 0xffff) as f32;
                m[r * cols + c] = h / 32768.0 - 1.0;
            }
            for prev in 0..c {
                let mut dot = 0.0f32;
                for r in 0..rows {
                    dot += m[r * cols + c] * m[r * cols + prev];
                }
                for r in 0..rows {
                    m[r * cols + c] -= dot * m[r * cols + prev];
                }
            }
            norm = (0..rows)
                .map(|r| m[r * cols + c] * m[r * cols + c])
                .sum::<f32>()
                .sqrt()
                .max(1e-12);
        }
        let inv = 1.0 / norm;
        for r in 0..rows {
            m[r * cols + c] *= inv;
        }
    }
    Ok(())
}

/// Result of a truncated SVD: `M ≈ U · diag(S) · Vᵀ`.
#[derive(Debug, Clone)]
pub struct TruncatedSvd {
    /// `rows x rank`, orthonormal columns.
    pub u: Vec<f32>,
    /// `rank` singular values, non-increasing.
    pub s: Vec<f32>,
    /// `cols x rank`, orthonormal columns (i.e. rows of Vᵀ stored
    /// column-major by singular vector).
    pub v: Vec<f32>,
    /// Number of retained singular triplets.
    pub rank: usize,
}

/// Computes a rank-`rank` truncated SVD of an `rows x cols` matrix by
/// subspace (block power) iteration.
///
/// This is the kernel ATOMO-style compressors need. `iters` controls the
/// number of subspace iterations; 8–15 is plenty for gradient matrices whose
/// spectra decay quickly.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `m.len() != rows * cols`.
///
/// # Panics
///
/// Panics if `rank == 0`.
pub fn svd_truncated(
    m: &[f32],
    rows: usize,
    cols: usize,
    rank: usize,
    iters: usize,
) -> Result<TruncatedSvd> {
    assert!(rank > 0, "svd rank must be positive");
    let rank = rank.min(rows).min(cols);
    let a = MatrixRef::new(m, rows, cols)?;
    // Q: cols x rank, deterministic init.
    let mut q = Tensor::randn([cols, rank], 0x5eed_cafe).into_vec();
    orthonormalize_columns(&mut q, cols, rank)?;
    let mut p = vec![0.0f32; rows * rank];
    for _ in 0..iters.max(1) {
        // P = A Q
        matmul(a, MatrixRef::new(&q, cols, rank)?, &mut p)?;
        orthonormalize_columns(&mut p, rows, rank)?;
        // Q = Aᵀ P
        at_mul_b(a, MatrixRef::new(&p, rows, rank)?, &mut q)?;
        orthonormalize_columns(&mut q, cols, rank)?;
    }
    // Final sweep: P = A Q gives (non-orthogonal) U * diag(S) estimate.
    matmul(a, MatrixRef::new(&q, cols, rank)?, &mut p)?;
    // Column norms of P are the singular value estimates.
    let mut s = vec![0.0f32; rank];
    for c in 0..rank {
        let norm: f32 = (0..rows)
            .map(|r| p[r * rank + c] * p[r * rank + c])
            .sum::<f32>()
            .sqrt();
        s[c] = norm;
        let inv = if norm > 1e-12 { 1.0 / norm } else { 0.0 };
        for r in 0..rows {
            p[r * rank + c] *= inv;
        }
    }
    // Sort triplets by singular value, descending.
    let mut order: Vec<usize> = (0..rank).collect();
    order.sort_by(|&i, &j| s[j].total_cmp(&s[i]));
    let mut u = vec![0.0f32; rows * rank];
    let mut v = vec![0.0f32; cols * rank];
    let mut s_sorted = vec![0.0f32; rank];
    for (new_c, &old_c) in order.iter().enumerate() {
        s_sorted[new_c] = s[old_c];
        for r in 0..rows {
            u[r * rank + new_c] = p[r * rank + old_c];
        }
        for r in 0..cols {
            v[r * rank + new_c] = q[r * rank + old_c];
        }
    }
    Ok(TruncatedSvd {
        u,
        s: s_sorted,
        v,
        rank,
    })
}

/// Writes `U · diag(S) · Vᵀ` into the `rows x cols` buffer `out`, from
/// borrowed factors: `u` is `rows x k`, `v` is `cols x k`, `k = s.len()`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `out`, `u` or `v` does not
/// have that shape.
pub fn reconstruct_svd(
    u: &[f32],
    s: &[f32],
    v: &[f32],
    rows: usize,
    cols: usize,
    out: &mut [f32],
) -> Result<()> {
    check_out(out, rows, cols)?;
    let rank = s.len();
    // Scale U columns by S, then multiply by Vᵀ.
    let mut us = MatrixRef::new(u, rows, rank)?.as_slice().to_vec();
    for r in 0..rows {
        for c in 0..rank {
            us[r * rank + c] *= s[c];
        }
    }
    a_mul_bt(
        MatrixRef::new(&us, rows, rank)?,
        MatrixRef::new(v, cols, rank)?,
        out,
    )
}

impl TruncatedSvd {
    /// Reconstructs the rank-`rank` approximation `U · diag(S) · Vᵀ` into a
    /// `rows x cols` buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `out.len() != rows * cols`.
    pub fn reconstruct(&self, rows: usize, cols: usize, out: &mut [f32]) -> Result<()> {
        reconstruct_svd(&self.u, &self.s, &self.v, rows, cols, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: &[f32], b: &[f32], tol: f32) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < tol)
    }

    #[test]
    fn best_supported_tile_matches_kernel_tables() {
        let best = best_supported_tile();
        match crate::kernels::simd().map(|k| k.name) {
            Some("avx512") => assert_eq!(best, GemmTile::Avx512x32),
            Some("avx2") => assert_eq!(best, GemmTile::Avx2x16),
            _ => assert_eq!(best, GemmTile::Scalar),
        }
        assert_eq!(supported_tiles().last(), Some(&best));
    }

    #[test]
    fn matmul_small() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut out = [0.0; 4];
        matmul(
            MatrixRef::new(&a, 2, 2).unwrap(),
            MatrixRef::new(&b, 2, 2).unwrap(),
            &mut out,
        )
        .unwrap();
        assert_eq!(out, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_dimension_errors() {
        let a = [0.0; 6];
        let b = [0.0; 6];
        let mut out = [0.0; 4];
        assert!(matmul(
            MatrixRef::new(&a, 2, 3).unwrap(),
            MatrixRef::new(&b, 2, 3).unwrap(),
            &mut out
        )
        .is_err());
    }

    #[test]
    fn transpose_variants_agree_with_explicit_transpose() {
        let a = Tensor::randn([4, 3], 1).into_vec();
        let b = Tensor::randn([4, 5], 2).into_vec();
        // at_mul_b: (3x4)·(4x5) = 3x5
        let mut out1 = vec![0.0; 15];
        at_mul_b(
            MatrixRef::new(&a, 4, 3).unwrap(),
            MatrixRef::new(&b, 4, 5).unwrap(),
            &mut out1,
        )
        .unwrap();
        // Explicit transpose then matmul.
        let mut at = vec![0.0; 12];
        for r in 0..4 {
            for c in 0..3 {
                at[c * 4 + r] = a[r * 3 + c];
            }
        }
        let mut out2 = vec![0.0; 15];
        matmul(
            MatrixRef::new(&at, 3, 4).unwrap(),
            MatrixRef::new(&b, 4, 5).unwrap(),
            &mut out2,
        )
        .unwrap();
        assert!(approx_eq(&out1, &out2, 1e-4));
    }

    #[test]
    fn a_mul_bt_agrees() {
        let a = Tensor::randn([2, 6], 3).into_vec();
        let b = Tensor::randn([4, 6], 4).into_vec();
        let mut out1 = vec![0.0; 8];
        a_mul_bt(
            MatrixRef::new(&a, 2, 6).unwrap(),
            MatrixRef::new(&b, 4, 6).unwrap(),
            &mut out1,
        )
        .unwrap();
        let mut bt = vec![0.0; 24];
        for r in 0..4 {
            for c in 0..6 {
                bt[c * 4 + r] = b[r * 6 + c];
            }
        }
        let mut out2 = vec![0.0; 8];
        matmul(
            MatrixRef::new(&a, 2, 6).unwrap(),
            MatrixRef::new(&bt, 6, 4).unwrap(),
            &mut out2,
        )
        .unwrap();
        assert!(approx_eq(&out1, &out2, 1e-4));
    }

    #[test]
    fn gram_schmidt_produces_orthonormal_columns() {
        let mut m = Tensor::randn([20, 4], 9).into_vec();
        orthonormalize_columns(&mut m, 20, 4).unwrap();
        for c1 in 0..4 {
            for c2 in 0..4 {
                let dot: f32 = (0..20).map(|r| m[r * 4 + c1] * m[r * 4 + c2]).sum();
                let expected = if c1 == c2 { 1.0 } else { 0.0 };
                assert!((dot - expected).abs() < 1e-4, "col {c1}.{c2} dot={dot}");
            }
        }
    }

    #[test]
    fn gram_schmidt_handles_dependent_columns() {
        // Two identical columns: second must be replaced, not NaN.
        let mut m = vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0];
        orthonormalize_columns(&mut m, 3, 2).unwrap();
        assert!(m.iter().all(|x| x.is_finite()));
        let dot: f32 = (0..3).map(|r| m[r * 2] * m[r * 2 + 1]).sum();
        assert!(dot.abs() < 1e-4);
    }

    #[test]
    fn svd_recovers_low_rank_matrix_exactly() {
        // Build an exactly rank-2 matrix M = u1 v1ᵀ * 5 + u2 v2ᵀ * 2.
        let rows = 16;
        let cols = 24;
        let u = Tensor::randn([rows, 2], 11).into_vec();
        let v = Tensor::randn([cols, 2], 12).into_vec();
        let mut m = vec![0.0f32; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                m[r * cols + c] = 5.0 * u[r * 2] * v[c * 2] + 2.0 * u[r * 2 + 1] * v[c * 2 + 1];
            }
        }
        let svd = svd_truncated(&m, rows, cols, 2, 20).unwrap();
        let mut rec = vec![0.0f32; rows * cols];
        svd.reconstruct(rows, cols, &mut rec).unwrap();
        let err: f32 = m
            .iter()
            .zip(&rec)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt();
        let norm: f32 = m.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!(err / norm < 1e-2, "relative error {}", err / norm);
    }

    #[test]
    fn svd_singular_values_descend() {
        let m = Tensor::randn([30, 20], 13).into_vec();
        let svd = svd_truncated(&m, 30, 20, 5, 15).unwrap();
        for w in svd.s.windows(2) {
            assert!(
                w[0] >= w[1] - 1e-4,
                "singular values not sorted: {:?}",
                svd.s
            );
        }
    }

    #[test]
    fn svd_rank_clamped_to_min_dim() {
        let m = Tensor::randn([3, 8], 14).into_vec();
        let svd = svd_truncated(&m, 3, 8, 10, 10).unwrap();
        assert_eq!(svd.rank, 3);
    }

    #[test]
    fn fused_reconstruct_is_a_mul_bt_then_subtract() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Odd sizes exercise the remainder paths of the row blocks.
        for (m, k, n) in [
            (4099usize, 4usize, 16usize),
            (33, 4, 29),
            (8, 8, 8),
            (5, 3, 2),
            (70, 6, 1),
        ] {
            let a = Tensor::randn([m, k], (m * 31 + n) as u64).into_vec();
            let b = Tensor::randn([n, k], (n + 55) as u64).into_vec();
            let layer = Tensor::randn([m, n], (m + 977) as u64).into_vec();
            let (am, bm) = (
                MatrixRef::new(&a, m, k).unwrap(),
                MatrixRef::new(&b, n, k).unwrap(),
            );
            let mut g_want = vec![0.0f32; m * n];
            a_mul_bt(am, bm, &mut g_want).unwrap();
            let mut g = Vec::new();
            let mut resid = layer.clone();
            reconstruct_residual_into(am, bm, Some(&mut resid), &mut g).unwrap();
            let two_step: Vec<f32> = layer.iter().zip(&g_want).map(|(w, g)| w - g).collect();
            assert_eq!(bits(&two_step), bits(&resid), "residual {m}x{k}x{n}");
            assert_eq!(bits(&g_want), bits(&g), "a_mul_bt {m}x{k}x{n}");
        }
    }

    #[test]
    fn products_validate_shapes() {
        let a = [0.0f32; 6];
        let b = [0.0f32; 6];
        let mut out = [0.0f32; 4];
        assert!(matmul(
            MatrixRef::new(&a, 2, 3).unwrap(),
            MatrixRef::new(&b, 2, 3).unwrap(),
            &mut out
        )
        .is_err());
        assert!(at_mul_b(
            MatrixRef::new(&a, 2, 3).unwrap(),
            MatrixRef::new(&b, 3, 2).unwrap(),
            &mut out
        )
        .is_err());
        let mut g = vec![7.0f32; 4];
        assert!(reconstruct_residual_into(
            MatrixRef::new(&a, 2, 3).unwrap(),
            MatrixRef::new(&b, 3, 2).unwrap(),
            None,
            &mut g
        )
        .is_err());
        // A residual of the wrong size is rejected before anything is written.
        assert!(reconstruct_residual_into(
            MatrixRef::new(&a, 2, 3).unwrap(),
            MatrixRef::new(&b, 2, 3).unwrap(),
            Some(&mut [0.0f32; 3]),
            &mut g
        )
        .is_err());
        assert_eq!(g, [7.0; 4]);
    }

    #[test]
    fn matrixref_validates_len() {
        let d = [0.0; 5];
        assert!(MatrixRef::new(&d, 2, 3).is_err());
        assert!(MatrixRef::new(&d, 1, 5).is_ok());
    }
}
