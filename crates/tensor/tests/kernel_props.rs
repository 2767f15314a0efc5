//! Property tests: every vectorized kernel table must be exactly
//! interchangeable with the scalar table, and the pooled (banded) entry
//! points must be exactly interchangeable with serial execution.
//!
//! Every dispatched kernel is checked across lengths covering every lane
//! remainder (0..2 x widest lane width and beyond), with payloads
//! containing NaN, ±0, ±inf and denormals. Bit kernels must be
//! **byte-identical**; float kernels must be **bit-identical under the
//! fixed association order** (elementwise ops have no reassociation;
//! `sum_abs` is lane-striped identically in every table).
//!
//! [`kernels::tables`] enumerates the tables the host supports, so on an
//! AVX-512 machine each check runs scalar-vs-AVX2 *and* scalar-vs-AVX-512;
//! on hosts without SIMD the pair list is empty and the table checks
//! degenerate to the always-on pooled/threaded properties.

use gcs_tensor::kernels::{self, Kernels};
use gcs_tensor::pool::Pool;

/// Lengths covering lane remainders 0..16 twice (AVX-512 is 16 f32 lanes),
/// word-boundary remainders 0..32, and sizes that hit every unrolled path.
fn lengths() -> Vec<usize> {
    let mut v: Vec<usize> = (0..=67).collect();
    v.extend([95, 96, 97, 128, 1000, 4096, 4097]);
    v
}

/// Deterministic "adversarial" payload: a pseudo-random mix seeded per
/// index, with NaN, ±0, ±inf and a denormal sprinkled at fixed strides.
fn payload(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| match i % 13 {
            0 => 0.0,
            1 => -0.0,
            2 => f32::NAN,
            3 => -f32::NAN,
            4 => f32::INFINITY,
            5 => f32::NEG_INFINITY,
            6 => 1.0e-40, // denormal
            _ => {
                let x = ((i as u32).wrapping_mul(2654435761) >> 8) as f32;
                (x / 1.0e6 - 8.0) * 1.7
            }
        })
        .collect()
}

/// `(scalar, vectorized)` pairs: every vectorized table the host supports
/// is checked against the scalar reference.
fn pairs() -> Vec<(&'static Kernels, &'static Kernels)> {
    let ts = kernels::tables();
    ts[1..].iter().map(|t| (ts[0], *t)).collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Bit patterns with NaNs canonicalized. Arithmetic float kernels are
/// bit-identical except for NaN *payloads*: when both inputs of an add are
/// NaN, x86 keeps the first operand's payload, and LLVM may commute the
/// scalar `a + b` — IEEE-754 deliberately leaves payload propagation
/// unspecified. The contract is: NaN in exactly the same lanes, every
/// non-NaN lane bit-identical.
fn canon_bits(v: &[f32]) -> Vec<u32> {
    v.iter()
        .map(|x| if x.is_nan() { 0x7FC0_0000 } else { x.to_bits() })
        .collect()
}

#[test]
fn sign_pack_is_byte_identical() {
    for (sc, simd) in pairs() {
        let tbl = simd.name;
        for n in lengths() {
            let data = payload(n);
            let words = n.div_ceil(32);
            let mut a = vec![0u32; words];
            let mut b = vec![0xdead_beefu32; words];
            (sc.sign_pack)(&data, &mut a);
            (simd.sign_pack)(&data, &mut b);
            assert_eq!(a, b, "{tbl} n={n}");
        }
    }
}

#[test]
fn unpack_fill_and_add_are_byte_identical() {
    for (sc, simd) in pairs() {
        let tbl = simd.name;
        for n in lengths() {
            let data = payload(n);
            let mut words = vec![0u32; n.div_ceil(32)];
            (sc.sign_pack)(&data, &mut words);
            // Asymmetric neg/pos, including a negative-zero reconstruction.
            for (neg, pos) in [(-1.5f32, 0.25f32), (-0.0, 2.0)] {
                let mut a = vec![7.0f32; n];
                let mut b = vec![7.0f32; n];
                (sc.unpack_fill)(&words, neg, pos, &mut a);
                (simd.unpack_fill)(&words, neg, pos, &mut b);
                assert_eq!(bits(&a), bits(&b), "{tbl} fill n={n}");
                let mut a2 = data.clone();
                let mut b2 = data.clone();
                (sc.unpack_add)(&words, neg, pos, &mut a2);
                (simd.unpack_add)(&words, neg, pos, &mut b2);
                assert_eq!(bits(&a2), bits(&b2), "{tbl} add n={n}");
            }
        }
    }
}

#[test]
fn vote_add_and_pack_are_byte_identical() {
    for (sc, simd) in pairs() {
        let tbl = simd.name;
        for n in lengths() {
            let mut tally_a: Vec<i32> = (0..n as i32).map(|i| (i % 7) - 3).collect();
            let mut tally_b = tally_a.clone();
            for voter in 0..3u32 {
                let data: Vec<f32> = (0..n)
                    .map(|i| {
                        if (i as u32 ^ voter).is_multiple_of(3) {
                            1.0
                        } else {
                            -1.0
                        }
                    })
                    .collect();
                let mut words = vec![0u32; n.div_ceil(32)];
                (sc.sign_pack)(&data, &mut words);
                (sc.vote_add)(&words, &mut tally_a);
                (simd.vote_add)(&words, &mut tally_b);
                assert_eq!(tally_a, tally_b, "{tbl} n={n} voter={voter}");
            }
            let mut wa = vec![0u32; n.div_ceil(32)];
            let mut wb = vec![0xffff_ffffu32; n.div_ceil(32)];
            (sc.vote_pack)(&tally_a, &mut wa);
            (simd.vote_pack)(&tally_b, &mut wb);
            assert_eq!(wa, wb, "{tbl} pack n={n}");
        }
    }
}

#[test]
fn byte_conversions_are_byte_identical() {
    for (sc, simd) in pairs() {
        let tbl = simd.name;
        for n in lengths() {
            let data = payload(n);
            let mut ba = vec![0u8; n * 4];
            let mut bb = vec![0xAAu8; n * 4];
            (sc.f32s_to_bytes)(&data, &mut ba);
            (simd.f32s_to_bytes)(&data, &mut bb);
            assert_eq!(ba, bb, "{tbl} f32s_to_bytes n={n}");

            let words: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(0x9E3779B9)).collect();
            let mut ua = vec![0u8; n * 4];
            let mut ub = vec![0x55u8; n * 4];
            (sc.u32s_to_bytes)(&words, &mut ua);
            (simd.u32s_to_bytes)(&words, &mut ub);
            assert_eq!(ua, ub, "{tbl} u32s_to_bytes n={n}");

            let mut fa = vec![0.0f32; n];
            let mut fb = vec![1.0f32; n];
            (sc.bytes_to_f32s)(&ba, &mut fa);
            (simd.bytes_to_f32s)(&ba, &mut fb);
            assert_eq!(bits(&fa), bits(&fb), "{tbl} bytes_to_f32s n={n}");

            let mut wa = vec![0u32; n];
            let mut wb = vec![1u32; n];
            (sc.bytes_to_u32s)(&ua, &mut wa);
            (simd.bytes_to_u32s)(&ua, &mut wb);
            assert_eq!(wa, wb, "{tbl} bytes_to_u32s n={n}");
        }
    }
}

/// The wire-image families: [`payload`]'s specials plus NaNs whose
/// payloads must survive bit for bit — quiet and signalling, both signs.
fn wire_image_payload(n: usize) -> Vec<f32> {
    const NANS: [u32; 4] = [0x7FA0_0001, 0xFF80_0F00, 0x7FC0_1234, 0xFFC0_0001];
    payload(n)
        .into_iter()
        .enumerate()
        .map(|(i, x)| {
            if i % 5 == 4 {
                f32::from_bits(NANS[(i / 5) % NANS.len()])
            } else {
                x
            }
        })
        .collect()
}

#[test]
fn wire_image_is_the_bytes_f32s_to_bytes_writes() {
    for n in (0..=67).chain([1 << 20]) {
        let xs = wire_image_payload(n);
        let mut want = vec![0u8; n * 4];
        kernels::f32s_to_bytes(&xs, &mut want);
        let mut scratch = Vec::new();
        let image = kernels::f32s_wire_image(&xs, &mut scratch);
        assert_eq!(image, &want[..], "n={n}");
        // And, independently of any kernel table, the per-element
        // `to_le_bytes` the wire format is defined by.
        let le: Vec<u8> = xs.iter().flat_map(|x| x.to_le_bytes()).collect();
        assert_eq!(image, &le[..], "n={n} to_le_bytes");
    }
}

#[test]
fn float_kernels_match_bitwise_under_fixed_association() {
    for (sc, simd) in pairs() {
        let tbl = simd.name;
        for n in lengths() {
            let data = payload(n);
            let other = payload(n + 1)[1..].to_vec();
            let mut bytes = vec![0u8; n * 4];
            (sc.f32s_to_bytes)(&other, &mut bytes);

            // add_from_bytes: elementwise, no reassociation. Both `data` and
            // `other` carry NaNs, so some lanes add NaN to NaN — compare with
            // canonicalized payloads there (see `canon_bits`).
            let mut a = data.clone();
            let mut b = data.clone();
            (sc.add_from_bytes)(&bytes, &mut a);
            (simd.add_from_bytes)(&bytes, &mut b);
            assert_eq!(canon_bits(&a), canon_bits(&b), "{tbl} add_from_bytes n={n}");

            // add_assign / axpy / scale / abs_into: elementwise.
            let mut a = data.clone();
            let mut b = data.clone();
            (sc.add_assign)(&mut a, &other);
            (simd.add_assign)(&mut b, &other);
            assert_eq!(canon_bits(&a), canon_bits(&b), "{tbl} add_assign n={n}");

            let mut a = data.clone();
            let mut b = data.clone();
            (sc.axpy)(&mut a, -1.25, &other);
            (simd.axpy)(&mut b, -1.25, &other);
            assert_eq!(canon_bits(&a), canon_bits(&b), "{tbl} axpy n={n}");

            // A single-NaN add is deterministic (the NaN operand's payload
            // wins regardless of operand order), so with a NaN-free `other`
            // the results must be fully bit-identical, payloads included.
            let finite: Vec<f32> = other
                .iter()
                .map(|x| if x.is_nan() { 0.75 } else { *x })
                .collect();
            let mut a = data.clone();
            let mut b = data.clone();
            (sc.add_assign)(&mut a, &finite);
            (simd.add_assign)(&mut b, &finite);
            assert_eq!(bits(&a), bits(&b), "{tbl} add_assign finite-rhs n={n}");

            let mut a = data.clone();
            let mut b = data.clone();
            (sc.scale)(&mut a, 0.3);
            (simd.scale)(&mut b, 0.3);
            assert_eq!(bits(&a), bits(&b), "{tbl} scale n={n}");

            let mut a = vec![0.0f32; n];
            let mut b = vec![-1.0f32; n];
            (sc.abs_into)(&data, &mut a);
            (simd.abs_into)(&data, &mut b);
            assert_eq!(bits(&a), bits(&b), "{tbl} abs_into n={n}");

            // sum_abs: horizontal, but every table stripes across 8 lanes
            // and combines with the same pairwise tree (the AVX-512 table
            // deliberately reuses the AVX2 entry). NaN payloads poison both
            // identically, so compare bit patterns, not values.
            let sa = (sc.sum_abs)(&data);
            let sb = (simd.sum_abs)(&data);
            assert_eq!(sa.to_bits(), sb.to_bits(), "{tbl} sum_abs n={n}");
            // And on a NaN-free payload the sums are still bitwise equal.
            let clean: Vec<f32> = data
                .iter()
                .map(|x| if x.is_nan() { 0.5 } else { *x })
                .collect();
            assert_eq!(
                (sc.sum_abs)(&clean).to_bits(),
                (simd.sum_abs)(&clean).to_bits(),
                "{tbl} sum_abs clean n={n}"
            );
        }
    }
}

#[test]
fn add_into_bytes_matches_decode_accumulate_reserialize() {
    // The in-wire accumulator `w ← x + w` must be exactly the collapsed
    // form of add_from_bytes (buf ← x + w) followed by f32s_to_bytes —
    // that equivalence is what makes the single-pass ring bit-identical
    // to the textbook one.
    let sc = kernels::scalar();
    for (_, simd) in pairs().into_iter().chain([(sc, sc)]) {
        let tbl = simd.name;
        for n in lengths() {
            let xs = payload(n);
            let wire_f = payload(n + 1)[1..].to_vec();
            let mut wire = vec![0u8; n * 4];
            (sc.f32s_to_bytes)(&wire_f, &mut wire);

            // Reference: decode + accumulate into a float buffer + encode.
            let mut acc = xs.clone();
            (sc.add_from_bytes)(&wire, &mut acc);
            let mut expect = vec![0u8; n * 4];
            (sc.f32s_to_bytes)(&acc, &mut expect);

            let mut got = wire.clone();
            (simd.add_into_bytes)(&xs, &mut got);

            // NaN+NaN lanes may differ in payload only (see canon_bits);
            // decode both and compare canonicalized.
            let mut ef = vec![0.0f32; n];
            let mut gf = vec![0.0f32; n];
            (sc.bytes_to_f32s)(&expect, &mut ef);
            (sc.bytes_to_f32s)(&got, &mut gf);
            assert_eq!(canon_bits(&ef), canon_bits(&gf), "{tbl} n={n}");

            // With a NaN-free wire the bytes must match exactly.
            let clean: Vec<f32> = wire_f
                .iter()
                .map(|x| if x.is_nan() { 0.5 } else { *x })
                .collect();
            let mut wire_c = vec![0u8; n * 4];
            (sc.f32s_to_bytes)(&clean, &mut wire_c);
            let mut acc = xs.clone();
            (sc.add_from_bytes)(&wire_c, &mut acc);
            let mut expect = vec![0u8; n * 4];
            (sc.f32s_to_bytes)(&acc, &mut expect);
            let mut got = wire_c.clone();
            (simd.add_into_bytes)(&xs, &mut got);
            assert_eq!(expect, got, "{tbl} clean n={n}");
        }
    }
}

#[test]
fn gather_above_is_byte_identical() {
    let sc = kernels::scalar();
    // The scalar table against itself keeps the oracle check below alive
    // on hosts without SIMD.
    for (sc, simd) in pairs().into_iter().chain([(sc, sc)]) {
        let tbl = simd.name;
        // `lengths()` plus sizes whose 64-lane groups are followed by
        // every kind of tail the AVX-512 scan delegates.
        for n in lengths().into_iter().chain([127, 129, 191, 192, 193, 255]) {
            let data = payload(n);
            // NaN thresholds included: ordered compares then match
            // nothing, the unordered one matches everything.
            for threshold in [0.0f32, 1.0, 5.5, -1.0, f32::INFINITY, f32::NAN] {
                for with_nan in [false, true] {
                    let (mut ia, mut va) = (Vec::new(), Vec::new());
                    let (mut ib, mut vb) = (Vec::new(), Vec::new());
                    (sc.gather_above)(&data, threshold, with_nan, &mut ia, &mut va);
                    (simd.gather_above)(&data, threshold, with_nan, &mut ib, &mut vb);
                    let ctx = format!("{tbl} n={n} t={threshold} with_nan={with_nan}");
                    assert_eq!(ia, ib, "indices {ctx}");
                    assert_eq!(bits(&va), bits(&vb), "values {ctx}");
                    // The contract itself, against a one-line oracle.
                    let expect: Vec<u32> = (0..n as u32)
                        .filter(|&i| {
                            let a = data[i as usize].abs();
                            a > threshold || (with_nan && (a.is_nan() || threshold.is_nan()))
                        })
                        .collect();
                    assert_eq!(ia, expect, "oracle {ctx}");
                }
            }
        }
    }
}

#[test]
fn gather_above_skips_and_packs_whole_64_lane_groups() {
    // The AVX-512 scan tests 64 lanes per branch: cover groups with no
    // match, one match in each 16-lane quarter, and all 64 matching, in
    // every order, so both the skip and the four-store path are hit with
    // every cursor advance from 0 to 16.
    for (sc, simd) in pairs() {
        let tbl = simd.name;
        for pattern in 0..16u32 {
            for fill in [1usize, 5, 16] {
                let mut data = vec![0.25f32; 64 * 6 + 9];
                for g in 0..6 {
                    for q in 0..4 {
                        if pattern & (1 << q) != 0 && g % 2 == 0 {
                            for l in 0..fill {
                                let i = g * 64 + q * 16 + (l * 7 + g) % 16;
                                data[i] = if l % 3 == 0 { f32::NAN } else { -3.0 };
                            }
                        }
                    }
                }
                for with_nan in [false, true] {
                    let (mut ia, mut va) = (vec![7u32], vec![7.0f32]);
                    let (mut ib, mut vb) = (vec![7u32], vec![7.0f32]);
                    (sc.gather_above)(&data, 1.0, with_nan, &mut ia, &mut va);
                    (simd.gather_above)(&data, 1.0, with_nan, &mut ib, &mut vb);
                    let ctx = format!("{tbl} pattern={pattern:04b} fill={fill} nan={with_nan}");
                    assert_eq!(ia, ib, "indices {ctx}");
                    assert_eq!(bits(&va), bits(&vb), "values {ctx}");
                }
            }
        }
    }
}

#[test]
fn gather_above_tied_magnitudes_are_byte_identical() {
    // Top-K's tie-break contract: entries whose |x| equals the threshold
    // are excluded by gather_above (strictly-above semantics) and later
    // filled scanning from index 0 — all tables must agree exactly on a
    // payload dominated by tied magnitudes, including runs of ties that
    // straddle the 8-lane (AVX2) and 16-lane (AVX-512) widths.
    for (sc, simd) in pairs() {
        let tbl = simd.name;
        for n in lengths() {
            // Blocks of ±t ties with isolated strictly-above spikes.
            let t = 2.5f32;
            let data: Vec<f32> = (0..n)
                .map(|i| match i % 11 {
                    0 => 7.0,
                    d if d % 2 == 0 => t,
                    _ => -t,
                })
                .collect();
            let (mut ia, mut va) = (Vec::new(), Vec::new());
            let (mut ib, mut vb) = (Vec::new(), Vec::new());
            (sc.gather_above)(&data, t, false, &mut ia, &mut va);
            (simd.gather_above)(&data, t, false, &mut ib, &mut vb);
            assert_eq!(ia, ib, "{tbl} tied indices n={n}");
            assert_eq!(bits(&va), bits(&vb), "{tbl} tied values n={n}");
            // Only the spikes pass a strictly-above gather.
            assert!(ia.iter().all(|&i| i % 11 == 0), "{tbl} n={n}");
        }
    }
}

#[test]
fn top_k_selection_is_identical_across_dispatch_tables_on_ties() {
    // End-to-end: the full top_k_abs pipeline (quickselect + gather + tie
    // fill) must pick identical indices whichever table is active. The
    // runtime dispatch is cached in a OnceLock, so instead of flipping
    // GCS_FORCE_SCALAR we compare against a hand-rolled scalar reference
    // implementing the documented lowest-index contract.
    let n = 4096;
    let t = 1.0f32;
    let data: Vec<f32> = (0..n)
        .map(|i| match i % 97 {
            0 => 3.0,
            d if d % 3 == 0 => -t,
            _ => t,
        })
        .collect();
    let k = n / 3;
    let sel = gcs_tensor::select::top_k_abs(&data, k);
    // Reference: strictly-above in index order, then tied entries from 0.
    let mut expect: Vec<u32> = (0..n as u32)
        .filter(|&i| data[i as usize].abs() > t)
        .collect();
    for i in 0..n as u32 {
        if expect.len() == k {
            break;
        }
        if data[i as usize].abs() == t {
            expect.push(i);
        }
    }
    assert_eq!(sel.indices, expect);
}

/// The documented `top_k_abs` contract, written the slow obvious way:
/// full sort of the magnitudes under `total_cmp` for the threshold, then
/// strictly-above, tied and NaN entries, each in ascending index order.
/// `sorted` is `|data|` sorted descending (shared across `k`).
fn top_k_oracle(data: &[f32], sorted: &[f32], k: usize) -> (Vec<u32>, Vec<u32>) {
    let t = sorted[k - 1];
    let mut idx: Vec<u32> = Vec::with_capacity(k);
    let passes: [&dyn Fn(f32) -> bool; 3] =
        [&|v| v.abs() > t, &|v| v.abs() == t, &|v: f32| v.is_nan()];
    for pass in passes {
        for (i, &v) in data.iter().enumerate() {
            if idx.len() < k && pass(v) {
                idx.push(i as u32);
            }
        }
    }
    let vals = idx.iter().map(|&i| data[i as usize].to_bits()).collect();
    (idx, vals)
}

/// Inputs chosen to drive `top_k_abs` down both of its routes: ones the
/// strided sample bounds well, and ones where it must notice it cannot.
fn top_k_inputs(n: usize) -> Vec<(&'static str, Vec<f32>)> {
    use gcs_tensor::Tensor;
    let gauss = Tensor::randn([n], 0x70c + n as u64).into_vec();
    let mut v: Vec<(&'static str, Vec<f32>)> = Vec::new();
    // Heavy tail: the ratio of two normals (Cauchy) spans ~10 decades.
    let denom = Tensor::randn([n], 0xca + n as u64).into_vec();
    v.push((
        "cauchy",
        gauss.iter().zip(&denom).map(|(a, b)| a / b).collect(),
    ));
    // Quantized normal: the k-th magnitude sits inside a large tie class,
    // so the lowest-index tie fill decides most of the boundary.
    v.push((
        "ties-at-threshold",
        gauss.iter().map(|x| (x * 8.0).round() / 8.0).collect(),
    ));
    v.push(("all-equal", vec![-1.5; n]));
    // >= 99 % zeros: for k above the non-zero count the threshold is 0.
    v.push((
        "mostly-zero",
        gauss
            .iter()
            .enumerate()
            .map(|(i, &x)| if i % 128 == 5 { x } else { 0.0 })
            .collect(),
    ));
    // Specials sprinkled thinly enough that the sample still bounds the
    // threshold, so NaN/inf candidates go through the sampled route...
    v.push((
        "sparse-specials",
        gauss
            .iter()
            .enumerate()
            .map(|(i, &x)| match i % 1021 {
                3 => f32::NAN,
                64 => -f32::NAN,
                200 => f32::INFINITY,
                333 => f32::NEG_INFINITY,
                500 => -0.0,
                777 => 1.0e-40,
                _ => x,
            })
            .collect(),
    ));
    // ...and densely enough (2 in 13 are NaN) that the bound itself is NaN.
    v.push(("dense-specials", payload(n)));
    // Period-64 patterns aligned with the sample stride: the sample sees
    // only the spikes (bound far too high), or none of them (too low).
    for (name, phase) in [("stride-spikes", 0usize), ("off-stride-spikes", 1)] {
        v.push((
            name,
            gauss
                .iter()
                .enumerate()
                .map(|(i, &x)| if i % 64 == phase { 50.0 + x } else { x * 0.01 })
                .collect(),
        ));
    }
    v.push(("gaussian", gauss));
    v
}

#[test]
fn top_k_matches_full_sort_oracle_on_every_route() {
    use gcs_tensor::select;
    // Around the shortest inputs the sampled route accepts (n = 449 for
    // k = 1, n = 705 for k = n/100), mid sizes, and one long enough for a
    // width-3 pool to split into three 64k-element bands. The forced-
    // scalar CI pass (GCS_FORCE_SCALAR=1) runs this same test on the
    // scalar table and a width-1 global pool.
    let mut sizes: Vec<usize> = (446..=452).chain(702..=708).collect();
    sizes.extend([1000, 4096, 65_537, 200_003]);
    let pools: Vec<Pool> = (1..=3).map(Pool::new).collect();
    for n in sizes {
        for (name, data) in top_k_inputs(n) {
            let mut sorted: Vec<f32> = data.iter().map(|v| v.abs()).collect();
            sorted.sort_by(|a, b| b.total_cmp(a));
            for k in [1, (n / 100).max(2), n - 1] {
                let (idx, vals) = top_k_oracle(&data, &sorted, k);
                let mut mags = Vec::new();
                let serial = select::top_k_abs_with(&data, k, &mut mags);
                assert_eq!(serial.indices, idx, "{name} n={n} k={k} serial");
                assert_eq!(bits(&serial.values), vals, "{name} n={n} k={k} serial");
                for pool in &pools {
                    // Reused scratch: whatever an earlier call left in
                    // `mags` must not leak into the next selection.
                    let pooled = select::top_k_abs_pooled(pool, &data, k, &mut mags);
                    let ctx = format!("{name} n={n} k={k} width={}", pool.width());
                    assert_eq!(pooled.indices, idx, "{ctx}");
                    assert_eq!(bits(&pooled.values), vals, "{ctx}");
                }
            }
        }
    }
}

#[test]
fn gather_above_appends_without_clobbering() {
    for (sc, simd) in pairs() {
        let tbl = simd.name;
        let data = payload(100);
        let (mut ia, mut va) = (vec![42u32], vec![9.0f32]);
        let (mut ib, mut vb) = (vec![42u32], vec![9.0f32]);
        (sc.gather_above)(&data, 1.0, true, &mut ia, &mut va);
        (simd.gather_above)(&data, 1.0, true, &mut ib, &mut vb);
        assert_eq!(ia, ib, "{tbl}");
        assert_eq!(bits(&va), bits(&vb), "{tbl}");
        assert_eq!(ia[0], 42, "{tbl}");
        assert_eq!(va[0], 9.0, "{tbl}");
    }
}

#[test]
fn gemm_tiles_are_bit_identical() {
    use gcs_tensor::autotune::{supported_tiles, GemmTile};
    use gcs_tensor::matrix::{at_mul_b_with_tile, matmul_with_tile, MatrixRef};
    // Dims chosen to hit the 4x32 AVX-512 tile, the 4x16 tile, the 4x4
    // tile, the column remainder and the row remainder in one product.
    for (m, k, n) in [
        (4, 8, 16),
        (5, 3, 21),
        (13, 17, 37),
        (64, 32, 48),
        (3, 5, 7),
        (9, 11, 70),
        (8, 16, 96),
    ] {
        let a: Vec<f32> = (0..m * k)
            .map(|i| (((i * 53) % 97) as f32 - 48.0) * 0.021)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| (((i * 37) % 101) as f32 - 50.0) * 0.013)
            .collect();
        let at: Vec<f32> = (0..k * m)
            .map(|i| ((i * 29 % 83) as f32 - 41.0) * 0.02)
            .collect();
        let am = MatrixRef::new(&a, m, k).unwrap();
        let bm = MatrixRef::new(&b, k, n).unwrap();
        let atm = MatrixRef::new(&at, k, m).unwrap();

        let mut mm_ref = vec![0.0f32; m * n];
        matmul_with_tile(GemmTile::Scalar, am, bm, &mut mm_ref).unwrap();
        let mut atb_ref = vec![0.0f32; m * n];
        at_mul_b_with_tile(GemmTile::Scalar, atm, bm, &mut atb_ref).unwrap();

        for tile in supported_tiles() {
            let mut out = vec![0.0f32; m * n];
            matmul_with_tile(tile, am, bm, &mut out).unwrap();
            assert_eq!(bits(&mm_ref), bits(&out), "matmul {:?} {m}x{k}x{n}", tile);
            let mut out = vec![0.0f32; m * n];
            at_mul_b_with_tile(tile, atm, bm, &mut out).unwrap();
            assert_eq!(
                bits(&atb_ref),
                bits(&out),
                "at_mul_b {:?} {k}x{m}x{n}",
                tile
            );
        }
    }
}

#[test]
fn gemm_dispatch_paths_are_bit_identical() {
    use gcs_tensor::matrix::{at_mul_b_with_dispatch, matmul_with_dispatch, MatrixRef};
    if kernels::simd().is_none() {
        return;
    }
    for (m, k, n) in [(4, 8, 16), (13, 17, 37), (64, 32, 48)] {
        let a: Vec<f32> = (0..m * k)
            .map(|i| (((i * 53) % 97) as f32 - 48.0) * 0.021)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| (((i * 37) % 101) as f32 - 50.0) * 0.013)
            .collect();
        let am = MatrixRef::new(&a, m, k).unwrap();
        let bm = MatrixRef::new(&b, k, n).unwrap();
        let mut scalar_out = vec![0.0f32; m * n];
        let mut simd_out = vec![0.0f32; m * n];
        matmul_with_dispatch(false, am, bm, &mut scalar_out).unwrap();
        matmul_with_dispatch(true, am, bm, &mut simd_out).unwrap();
        assert_eq!(bits(&scalar_out), bits(&simd_out), "matmul {m}x{k}x{n}");

        let at: Vec<f32> = (0..k * m)
            .map(|i| ((i * 29 % 83) as f32 - 41.0) * 0.02)
            .collect();
        let atm = MatrixRef::new(&at, k, m).unwrap();
        at_mul_b_with_dispatch(false, atm, bm, &mut scalar_out).unwrap();
        at_mul_b_with_dispatch(true, atm, bm, &mut simd_out).unwrap();
        assert_eq!(bits(&scalar_out), bits(&simd_out), "at_mul_b {k}x{m}x{n}");
    }
}

// ---------------------------------------------------------------------------
// Skinny paths: a factor under 16 wide (PowerSGD's ranks) takes a path of
// its own in `matmul` and `at_mul_b`, and PowerSGD's decode a fused kernel;
// each must give the bits of the general kernels it stands in for.
// ---------------------------------------------------------------------------

/// One shape of the skinny sweep and how much of the sweep it gets. The
/// tests run unoptimised, so the shapes past 67 take ranks 4, 8 and 12
/// (one, two and three 4-column groups) and one factor width on each side
/// of the predicate instead of all of `1..=17`, and those large on both
/// sides one input family. Pool widths 1–3 run where a pool can split the
/// rows (one side large); elsewhere the widest stands for all.
struct SkinnyCase {
    dims: (usize, usize),
    widths: Vec<usize>,
    families: usize,
    pools: std::ops::RangeInclusive<usize>,
}

/// Dimension pairs drawn from `{1..=67, 255, 256, 1024}`: every value on
/// each side against a fixed odd partner, and the large sizes against
/// each other; plus an empty second side, against a small and a large
/// first.
fn skinny_cases() -> Vec<SkinnyCase> {
    let mut dims = Vec::new();
    for d in (1..=67).chain([255, 256, 1024]) {
        dims.extend([(d, 37), (37, d)]);
    }
    dims.extend([(255, 256), (256, 1024), (1024, 255), (1024, 1024)]);
    dims.extend([(37, 0), (1024, 0)]);
    dims.into_iter()
        .map(|(m, k)| SkinnyCase {
            dims: (m, k),
            widths: if m.max(k) > 67 {
                vec![4, 8, 12, 15, 16]
            } else {
                (1..=17).collect()
            },
            families: if m.min(k) > 67 { 1 } else { 3 },
            pools: if m.min(k) <= 67 && m.max(k) > 67 {
                1..=3
            } else {
                3..=3
            },
        })
        .collect()
}

/// [`bits`] or [`canon_bits`].
type BitsOf = fn(&[f32]) -> Vec<u32>;

/// Three input families per buffer, with the comparison each allows:
/// ordinary finite values and a ±0/denormal/±1 mix must match bit for bit;
/// the NaN/±inf payload matches up to NaN payload bits (see [`canon_bits`]).
fn skinny_inputs(len: usize, salt: usize) -> [(Vec<f32>, BitsOf); 3] {
    let finite = (0..len)
        .map(|i| (((i * 53 + salt * 31) % 97) as f32 - 48.0) * 0.021)
        .collect();
    let zeros = (0..len)
        .map(|i| [0.0, -0.0, 1.0e-40, -1.0e-40, 1.0, -1.0, -0.0][(i * 5 + salt) % 7])
        .collect();
    [(finite, bits), (zeros, bits), (payload(len), canon_bits)]
}

#[test]
fn skinny_matmul_and_at_mul_b_match_the_general_tiles() {
    use gcs_tensor::autotune::{supported_tiles, GemmTile};
    use gcs_tensor::matrix::{self, MatrixRef};
    for case in skinny_cases() {
        let (m, k) = case.dims;
        let pools: Vec<Pool> = case.pools.clone().map(Pool::new).collect();
        // The scalar tile and the widest one; the widest only on the
        // large shapes.
        let mut tiles = vec![*supported_tiles().last().unwrap()];
        if m.max(k) <= 67 {
            tiles.push(GemmTile::Scalar);
        }
        let tiles = &tiles;
        for &w in &case.widths {
            let a_in = skinny_inputs(m * k, w);
            let b_in = skinny_inputs(k * w, m);
            for ((a, cmp), (b, _)) in a_in.iter().zip(&b_in).take(case.families) {
                let bm = MatrixRef::new(b, k, w).unwrap();
                // A · B, A being m x k.
                let am = MatrixRef::new(a, m, k).unwrap();
                let mut got = vec![f32::NAN; m * w];
                matrix::matmul(am, bm, &mut got).unwrap();
                for &tile in tiles {
                    let mut want = vec![0.0f32; m * w];
                    matrix::matmul_with_tile(tile, am, bm, &mut want).unwrap();
                    assert_eq!(cmp(&want), cmp(&got), "matmul {m}x{k}x{w} {tile:?}");
                }
                // Aᵀ · B, A being k x m.
                let atm = MatrixRef::new(a, k, m).unwrap();
                let mut got_t = vec![f32::NAN; m * w];
                matrix::at_mul_b(atm, bm, &mut got_t).unwrap();
                for &tile in tiles {
                    let mut want = vec![0.0f32; m * w];
                    matrix::at_mul_b_with_tile(tile, atm, bm, &mut want).unwrap();
                    assert_eq!(cmp(&want), cmp(&got_t), "at_mul_b {k}x{m}x{w} {tile:?}");
                }
                for pool in &pools {
                    let mut pooled = vec![f32::NAN; m * w];
                    matrix::matmul_pooled(pool, am, bm, &mut pooled).unwrap();
                    assert_eq!(
                        cmp(&got),
                        cmp(&pooled),
                        "matmul_pooled {m}x{k}x{w} {pool:?}"
                    );
                    pooled.fill(f32::NAN);
                    matrix::at_mul_b_pooled(pool, atm, bm, &mut pooled).unwrap();
                    assert_eq!(
                        cmp(&got_t),
                        cmp(&pooled),
                        "at_mul_b_pooled {k}x{m}x{w} {pool:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn fused_reconstruct_matches_a_mul_bt_then_subtract() {
    use gcs_tensor::matrix::{self, MatrixRef};
    for case in skinny_cases() {
        let (m, n) = case.dims;
        let pools: Vec<Pool> = case.pools.clone().map(Pool::new).collect();
        for &k in &case.widths {
            let a_in = skinny_inputs(m * k, n);
            let b_in = skinny_inputs(n * k, m);
            let w_in = skinny_inputs(m * n, k);
            let inputs = a_in.iter().zip(&b_in).zip(&w_in).take(case.families);
            for (((a, cmp), (b, _)), (work, _)) in inputs {
                let am = MatrixRef::new(a, m, k).unwrap();
                let bm = MatrixRef::new(b, n, k).unwrap();
                let mut g_want = vec![0.0f32; m * n];
                matrix::a_mul_bt(am, bm, &mut g_want).unwrap();
                let e_want: Vec<f32> = work.iter().zip(&g_want).map(|(w, g)| w - g).collect();
                for pool in &pools {
                    let mut g = vec![f32::NAN; m * n];
                    let mut e = work.clone();
                    matrix::reconstruct_residual_pooled(pool, am, bm, Some(&mut e), &mut g)
                        .unwrap();
                    assert_eq!(cmp(&g_want), cmp(&g), "G {m}x{k}x{n} {pool:?}");
                    assert_eq!(cmp(&e_want), cmp(&e), "E {m}x{k}x{n} {pool:?}");
                    // Without a residual the product alone is the same.
                    g.fill(f32::NAN);
                    matrix::reconstruct_residual_pooled(pool, am, bm, None, &mut g).unwrap();
                    assert_eq!(cmp(&g_want), cmp(&g), "G only {m}x{k}x{n} {pool:?}");
                }
            }
        }
    }
}

/// `A · Bᵀ` (`A` is `m x k`, `B` is `n x k`) as `a_mul_bt` formed it before
/// it ran one output row per vector lane: per row of A, four B rows at a
/// time through four scalar accumulators, then the last `n % 4` columns as
/// an iterator sum.
fn scalar_a_mul_bt(a: &[f32], b: &[f32], (m, k, n): (usize, usize, usize)) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        let mut j = 0;
        while j + 4 <= n {
            let b0 = &b[j * k..(j + 1) * k];
            let b1 = &b[(j + 1) * k..(j + 2) * k];
            let b2 = &b[(j + 2) * k..(j + 3) * k];
            let b3 = &b[(j + 3) * k..(j + 4) * k];
            let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for (l, &av) in arow.iter().enumerate() {
                s0 += av * b0[l];
                s1 += av * b1[l];
                s2 += av * b2[l];
                s3 += av * b3[l];
            }
            orow[j] = s0;
            orow[j + 1] = s1;
            orow[j + 2] = s2;
            orow[j + 3] = s3;
            j += 4;
        }
        for j in j..n {
            orow[j] = arow
                .iter()
                .zip(&b[j * k..(j + 1) * k])
                .map(|(x, y)| x * y)
                .sum();
        }
    }
    out
}

#[test]
fn a_mul_bt_matches_the_scalar_reference() {
    use gcs_tensor::matrix::{a_mul_bt, MatrixRef};
    // Rows cover every fill of the last eight-row panel; columns every
    // mix of eight-column blocks, a four-column block and the `n % 4`
    // tail; the shared side short and long chains. The tests run
    // unoptimised, so products past 2^21 multiply-adds are left out and
    // those past 2^17 take one input family.
    let ks = [0, 1, 2, 3, 5, 8, 13, 256, 1024];
    for m in (0..=17).chain([255]) {
        for n in (0..=19).chain([1024]) {
            for k in ks {
                let cost = m * n * k;
                if cost > 1 << 21 {
                    continue;
                }
                let families = if cost > 1 << 17 { 1 } else { 3 };
                let a_in = skinny_inputs(m * k, n);
                let b_in = skinny_inputs(n * k, m);
                for ((a, cmp), (b, _)) in a_in.iter().zip(&b_in).take(families) {
                    let want = scalar_a_mul_bt(a, b, (m, k, n));
                    let mut got = vec![f32::NAN; m * n];
                    let am = MatrixRef::new(a, m, k).unwrap();
                    let bm = MatrixRef::new(b, n, k).unwrap();
                    a_mul_bt(am, bm, &mut got).unwrap();
                    assert_eq!(cmp(&want), cmp(&got), "a_mul_bt {m}x{k}x{n}");
                }
            }
        }
    }
}

#[test]
fn a_mul_bt_interleaved_rows_match_the_scalar_reference() {
    use gcs_tensor::matrix::{a_mul_bt, MatrixRef};
    // On AVX-512 a row block of at most four rows (all of `m <= 4`, and the
    // last block of `m = 9..=12` and `17`) runs 4 rows x 4 columns per
    // vector; elsewhere the same sweep checks the 8-lane layout. Rows pad
    // out the 4-row block; columns cover every mix of 8- and 4-column
    // passes and the `n % 4` tail; `k` covers the one-`l` tail after whole
    // steps of four, and the benchmark model's 4 x 1024 x 1024 forward
    // runs on every input family.
    for m in 1..=17 {
        for n in (0..=19).chain([1024]) {
            for k in [0, 1, 3, 5, 1024] {
                if m * n * k > 1 << 22 {
                    continue;
                }
                let a_in = skinny_inputs(m * k, n);
                let b_in = skinny_inputs(n * k, m);
                for ((a, cmp), (b, _)) in a_in.iter().zip(&b_in) {
                    let want = scalar_a_mul_bt(a, b, (m, k, n));
                    let mut got = vec![f32::NAN; m * n];
                    let am = MatrixRef::new(a, m, k).unwrap();
                    let bm = MatrixRef::new(b, n, k).unwrap();
                    a_mul_bt(am, bm, &mut got).unwrap();
                    assert_eq!(cmp(&want), cmp(&got), "a_mul_bt {m}x{k}x{n}");
                }
            }
        }
    }
}

#[test]
fn write_once_forms_match_the_zeroed_slice_forms() {
    use gcs_tensor::matrix::{self, MatrixRef};
    // Each `Vec` form against the slice form over a zeroed buffer, from a
    // fresh `Vec`, a recycled one with spare capacity and a recycled one
    // too small (it must grow). Shapes `(rows, k, cols)` of the output:
    // the `Aᵀ · B` register tiles with remainder rows and a column tail,
    // its skinny path, the reconstruct's 64-, 4- and 1-column blocks, and
    // the last three with rows enough for a three-wide pool to split.
    let shapes = [
        (67usize, 33usize, 37usize),
        (6, 5, 1),
        (70, 6, 15),
        (4099, 4, 16),
        (16411, 4, 3),
        (701, 4, 100),
    ];
    let recycled = |len: usize| {
        [
            Vec::new(),
            vec![f32::NAN; len + 37],
            vec![f32::NAN; len / 2],
        ]
    };
    // Both forms run the same kernel, so even NaN payloads match.
    for (rows, k, cols) in shapes {
        let len = rows * cols;
        let a_in = skinny_inputs(k * rows, cols);
        let b_in = skinny_inputs(k * cols, rows);
        let resid = payload(len + 5)[5..].to_vec();
        for ((a, _), (b, _)) in a_in.iter().zip(&b_in) {
            for width in 1..=3 {
                let pool = Pool::new(width);
                // Aᵀ · B: A is k x rows, B is k x cols.
                let (am, bm) = (
                    MatrixRef::new(a, k, rows).unwrap(),
                    MatrixRef::new(b, k, cols).unwrap(),
                );
                let mut want = vec![0.0f32; len];
                matrix::at_mul_b_pooled(&pool, am, bm, &mut want).unwrap();
                for mut got in recycled(len) {
                    matrix::at_mul_b_into(&pool, am, bm, &mut got).unwrap();
                    let ctx = format!("at_mul_b {rows}x{k}x{cols} w={width}");
                    assert_eq!(bits(&want), bits(&got), "{ctx}");
                }
                // A · Bᵀ with and without the residual: A is rows x k, B is
                // cols x k.
                let (am, bm) = (
                    MatrixRef::new(a, rows, k).unwrap(),
                    MatrixRef::new(b, cols, k).unwrap(),
                );
                let (mut want, mut want_e) = (vec![0.0f32; len], resid.clone());
                matrix::reconstruct_residual_pooled(&pool, am, bm, Some(&mut want_e), &mut want)
                    .unwrap();
                for mut got in recycled(len) {
                    let mut e = resid.clone();
                    matrix::reconstruct_residual_into(&pool, am, bm, Some(&mut e), &mut got)
                        .unwrap();
                    let ctx = format!("reconstruct {rows}x{k}x{cols} w={width}");
                    assert_eq!(bits(&want), bits(&got), "{ctx}");
                    assert_eq!(bits(&want_e), bits(&e), "{ctx} residual");
                    matrix::reconstruct_residual_into(&pool, am, bm, None, &mut got).unwrap();
                    assert_eq!(bits(&want), bits(&got), "{ctx} without residual");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Threaded determinism: the pooled entry points must be bit-identical to
// serial execution for every pool width, and stable across repeated runs.
// ---------------------------------------------------------------------------

/// Small + banding-triggering lengths for the pooled wire kernels. The
/// large size exceeds `4 x` the widest autotunable chunk (2^18 elements),
/// so a width-4 pool genuinely splits it into 4 concurrent bands.
fn pooled_lengths() -> Vec<usize> {
    let mut v: Vec<usize> = (0..=67).collect();
    v.push((1 << 20) + 37);
    v
}

#[test]
fn pooled_wire_kernels_are_bit_identical_across_widths_and_runs() {
    for width in [1usize, 2, 4] {
        let pool = Pool::new(width);
        for n in pooled_lengths() {
            let data = payload(n);
            let words = n.div_ceil(32);

            // Serial references through the dispatched (active-table)
            // entry points — the pooled variants run the same table, so
            // banding must be invisible down to NaN payloads.
            let mut words_ref = vec![0u32; words];
            kernels::sign_pack(&data, &mut words_ref);
            let mut unpack_ref = vec![0.0f32; n];
            kernels::unpack_fill(&words_ref, -1.5, 0.25, &mut unpack_ref);
            let mut tally_ref: Vec<i32> = (0..n as i32).map(|i| (i % 5) - 2).collect();
            kernels::vote_add(&words_ref, &mut tally_ref);
            let mut vote_ref = vec![0u32; words];
            kernels::vote_pack(&tally_ref, &mut vote_ref);
            let mut bytes_ref = vec![0u8; n * 4];
            kernels::f32s_to_bytes(&data, &mut bytes_ref);
            let mut add_ref = data.clone();
            kernels::add_from_bytes(&bytes_ref, &mut add_ref);
            let mut wire_ref = bytes_ref.clone();
            kernels::add_into_bytes(&data, &mut wire_ref);

            for run in 0..2 {
                let ctx = format!("w={width} n={n} run={run}");

                let mut w = vec![0xdead_beefu32; words];
                kernels::sign_pack_pooled(&pool, &data, &mut w);
                assert_eq!(words_ref, w, "sign_pack {ctx}");

                let mut u = vec![7.0f32; n];
                kernels::unpack_fill_pooled(&pool, &words_ref, -1.5, 0.25, &mut u);
                assert_eq!(bits(&unpack_ref), bits(&u), "unpack_fill {ctx}");

                let mut u = data.clone();
                kernels::unpack_add_pooled(&pool, &words_ref, -1.5, 0.25, &mut u);
                let mut u_ref = data.clone();
                kernels::unpack_add(&words_ref, -1.5, 0.25, &mut u_ref);
                assert_eq!(bits(&u_ref), bits(&u), "unpack_add {ctx}");

                let mut t: Vec<i32> = (0..n as i32).map(|i| (i % 5) - 2).collect();
                kernels::vote_add_pooled(&pool, &words_ref, &mut t);
                assert_eq!(tally_ref, t, "vote_add {ctx}");

                let mut v = vec![0u32; words];
                kernels::vote_pack_pooled(&pool, &tally_ref, &mut v);
                assert_eq!(vote_ref, v, "vote_pack {ctx}");

                let mut by = vec![0xAAu8; n * 4];
                kernels::f32s_to_bytes_pooled(&pool, &data, &mut by);
                assert_eq!(bytes_ref, by, "f32s_to_bytes {ctx}");

                let mut f = vec![0.5f32; n];
                kernels::bytes_to_f32s_pooled(&pool, &bytes_ref, &mut f);
                assert_eq!(bits(&data), bits(&f), "bytes_to_f32s {ctx}");

                let mut acc = data.clone();
                kernels::add_from_bytes_pooled(&pool, &bytes_ref, &mut acc);
                assert_eq!(bits(&add_ref), bits(&acc), "add_from_bytes {ctx}");

                let mut wire = bytes_ref.clone();
                kernels::add_into_bytes_pooled(&pool, &data, &mut wire);
                assert_eq!(wire_ref, wire, "add_into_bytes {ctx}");

                let mut acc = data.clone();
                kernels::add_assign_pooled(&pool, &mut acc, &data);
                let mut acc_ref = data.clone();
                kernels::add_assign(&mut acc_ref, &data);
                assert_eq!(bits(&acc_ref), bits(&acc), "add_assign {ctx}");
            }
        }
    }
}

#[test]
fn pooled_gemm_and_topk_are_deterministic_across_widths_and_runs() {
    use gcs_tensor::matrix::{self, MatrixRef};
    use gcs_tensor::select;

    // GEMM with adversarial payloads (NaN, ±0, ±inf propagate through the
    // FMA chains identically in every band split).
    for width in [1usize, 2, 4] {
        let pool = Pool::new(width);
        for (m, k, n) in [(67, 33, 29), (16, 8, 48), (5, 4, 3)] {
            let a = payload(m * k);
            let b = payload(k * n);
            let am = MatrixRef::new(&a, m, k).unwrap();
            let bm = MatrixRef::new(&b, k, n).unwrap();
            let mut serial = vec![0.0f32; m * n];
            matrix::matmul(am, bm, &mut serial).unwrap();
            for run in 0..2 {
                let mut pooled = vec![0.0f32; m * n];
                matrix::matmul_pooled(&pool, am, bm, &mut pooled).unwrap();
                assert_eq!(
                    canon_bits(&serial),
                    canon_bits(&pooled),
                    "matmul w={width} {m}x{k}x{n} run={run}"
                );
            }
        }

        // Top-k: tie-heavy data so the lowest-index tie-break is load
        // bearing, at a size that splits the banded gather.
        let n = 300_000;
        let data: Vec<f32> = (0..n)
            .map(|i| ((i * 131 % 17) as f32 - 8.0) * 0.25)
            .collect();
        for k in [1usize, 1000, 50_000] {
            let serial = select::top_k_abs_with(&data, k, &mut Vec::new());
            for run in 0..2 {
                let pooled = select::top_k_abs_pooled(&pool, &data, k, &mut Vec::new());
                assert_eq!(
                    serial.indices, pooled.indices,
                    "topk w={width} k={k} run={run}"
                );
                assert_eq!(
                    bits(&serial.values),
                    bits(&pooled.values),
                    "topk w={width} k={k} run={run}"
                );
            }
        }
    }
}

#[test]
fn signbits_roundtrip_matches_under_both_tables() {
    // End-to-end through the public SignBits API: whatever table is active,
    // pack -> unpack must invert (NaN packs as negative by the `>= 0`
    // convention).
    use gcs_tensor::bits::SignBits;
    for n in [0usize, 1, 31, 32, 33, 100] {
        let data = payload(n);
        let bits = SignBits::pack(&data);
        let un = bits.unpack(1.0);
        for (i, (&d, &u)) in data.iter().zip(&un).enumerate() {
            let expect = if d >= 0.0 { 1.0 } else { -1.0 };
            assert_eq!(u, expect, "n={n} i={i} d={d}");
        }
    }
}

#[test]
fn nan_inputs_keep_percentile_total_ordered_and_deterministic() {
    use gcs_tensor::stats::percentile;
    // NaN-poisoned input must select under a total order: no panic, the
    // same bits on every call, and (since positive NaN sorts above +inf
    // in the total order) low percentiles still come from finite values.
    let xs = vec![3.0f64, f64::NAN, 1.0, 2.0, f64::NAN, 5.0, 4.0];
    assert_eq!(percentile(&xs, 0.0), 1.0);
    assert!(percentile(&xs, 100.0).is_nan(), "NaN sorts last");
    for p in [0.0, 10.0, 25.0, 50.0, 75.0, 100.0] {
        let a = percentile(&xs, p);
        let b = percentile(&xs, p);
        assert_eq!(a.to_bits(), b.to_bits(), "p={p} must be deterministic");
    }
    // All-NaN input: still no panic.
    assert!(percentile(&[f64::NAN, f64::NAN], 50.0).is_nan());
}

#[test]
fn nan_inputs_keep_top_k_selection_deterministic_and_exactly_k() {
    use gcs_tensor::pool::Pool;
    use gcs_tensor::select;
    let data: Vec<f32> = (0..4096)
        .map(|i| {
            if i % 97 == 13 {
                f32::NAN
            } else {
                ((i * 131 % 17) as f32 - 8.0) * 0.5
            }
        })
        .collect();
    let pool = Pool::new(2);
    for k in [1usize, 64, 512] {
        let serial = select::top_k_abs(&data, k);
        assert_eq!(serial.len(), k, "k={k}: NaNs must not shrink the selection");
        // Repeat calls and the pooled path must agree exactly — the old
        // partial_cmp fallback let NaN land anywhere in the partition.
        let again = select::top_k_abs(&data, k);
        assert_eq!(serial.indices, again.indices, "k={k} repeat");
        let pooled = select::top_k_abs_pooled(&pool, &data, k, &mut Vec::new());
        assert_eq!(serial.indices, pooled.indices, "k={k} pooled");
        assert_eq!(
            bits(&serial.values),
            bits(&pooled.values),
            "k={k} pooled values"
        );
    }
    // More NaNs than k: the NaN fill itself must be deterministic.
    let noisy = vec![f32::NAN, 1.0, f32::NAN, 2.0, f32::NAN];
    let sel = select::top_k_abs(&noisy, 2);
    assert_eq!(sel.len(), 2);
    assert_eq!(sel.indices, select::top_k_abs(&noisy, 2).indices);
}
