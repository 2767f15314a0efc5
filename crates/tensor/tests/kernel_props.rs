//! Property tests: every vectorized kernel table must be exactly
//! interchangeable with the scalar table.
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
//! on hosts without SIMD the pair list is empty and only the checks
//! against scalar references run.

use gcs_tensor::kernels::{self, Kernels};

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

/// `MajorityVote`'s bit-sliced count against a per-coordinate `i32` tally
/// (`+1` per set bit, `−1` otherwise, majority `tally >= 0`), after every
/// voter from 0 to 9. The input words carry random bits past `len`, which
/// the vote must ignore, and the output must leave them zero.
#[test]
fn majority_vote_matches_an_i32_tally() {
    use gcs_tensor::bits::{MajorityVote, SignBits};
    for len in [0usize, 1, 31, 32, 33, 100, 131_072] {
        let n_words = len.div_ceil(32);
        let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ len as u64;
        let mut vote = MajorityVote::new(len);
        let mut tally = vec![0i32; len];
        for voters in 0..=9 {
            if voters > 0 {
                let words: Vec<u32> = (0..n_words)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        (state >> 16) as u32
                    })
                    .collect();
                for (i, t) in tally.iter_mut().enumerate() {
                    *t += if (words[i / 32] >> (i % 32)) & 1 == 1 {
                        1
                    } else {
                        -1
                    };
                }
                vote.add(&SignBits::from_words(words, len));
            }
            let mut want = vec![0u32; n_words];
            for (i, &t) in tally.iter().enumerate() {
                want[i / 32] |= u32::from(t >= 0) << (i % 32);
            }
            let got = vote.majority_bits();
            assert_eq!(vote.voters(), voters);
            assert_eq!(got.len(), len);
            assert_eq!(got.words(), &want[..], "len={len} voters={voters}");
            let dense: Vec<f32> = tally
                .iter()
                .map(|&t| if t >= 0 { 0.5 } else { -0.5 })
                .collect();
            assert_eq!(vote.majority(0.5), dense, "len={len} voters={voters}");
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
    // k = 1, n = 705 for k = n/100), mid sizes, and two past 64 Ki
    // elements. The forced-scalar CI pass (GCS_FORCE_SCALAR=1) runs this
    // same test on the scalar table.
    let mut sizes: Vec<usize> = (446..=452).chain(702..=708).collect();
    sizes.extend([1000, 4096, 65_537, 200_003]);
    for n in sizes {
        for (name, data) in top_k_inputs(n) {
            let mut sorted: Vec<f32> = data.iter().map(|v| v.abs()).collect();
            sorted.sort_by(|a, b| b.total_cmp(a));
            for k in [1, (n / 100).max(2), n - 1] {
                let (idx, vals) = top_k_oracle(&data, &sorted, k);
                let mut mags = Vec::new();
                // The second call reuses the scratch: whatever the first
                // left in `mags` must not leak into the next selection.
                for call in ["fresh", "reused"] {
                    let sel = select::top_k_abs_with(&data, k, &mut mags);
                    let ctx = format!("{name} n={n} k={k} {call} scratch");
                    assert_eq!(sel.indices, idx, "{ctx}");
                    assert_eq!(bits(&sel.values), vals, "{ctx}");
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
    use gcs_tensor::matrix::{
        at_mul_b_with_tile, matmul_with_tile, supported_tiles, GemmTile, MatrixRef,
    };
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

        // Each tile writes into a NaN-filled buffer: every output element
        // must be stored, none accumulated onto what was there.
        for tile in supported_tiles() {
            let mut out = vec![f32::NAN; m * n];
            matmul_with_tile(tile, am, bm, &mut out).unwrap();
            assert_eq!(bits(&mm_ref), bits(&out), "matmul {:?} {m}x{k}x{n}", tile);
            let mut out = vec![f32::NAN; m * n];
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

// ---------------------------------------------------------------------------
// Skinny paths: a factor under 16 wide (PowerSGD's ranks) takes a path of
// its own in `matmul` and `at_mul_b`, and PowerSGD's decode a fused kernel;
// each must give the bits of the general kernels it stands in for.
// ---------------------------------------------------------------------------

/// One shape of the skinny sweep and how much of the sweep it gets. The
/// tests run unoptimised, so the shapes past 67 take ranks 4, 8 and 12
/// (one, two and three 4-column groups) and one factor width on each side
/// of the predicate instead of all of `1..=17`, and those large on both
/// sides one input family.
struct SkinnyCase {
    dims: (usize, usize),
    widths: Vec<usize>,
    families: usize,
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
    use gcs_tensor::matrix::{self, supported_tiles, GemmTile, MatrixRef};
    for case in skinny_cases() {
        let (m, k) = case.dims;
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
            }
        }
    }
}

#[test]
fn fused_reconstruct_matches_a_mul_bt_then_subtract() {
    use gcs_tensor::matrix::{self, MatrixRef};
    // Shapes `(m, k, n)` of `Ĝ = A · Bᵀ`: every skinny case, then a shared
    // side past the skinny widths, the 64-, 4- and 1-column blocks with
    // remainder rows, and three with thousands of rows.
    let mut shapes = Vec::new();
    for case in skinny_cases() {
        let (m, n) = case.dims;
        shapes.extend(case.widths.iter().map(|&k| ((m, k, n), case.families)));
    }
    shapes.extend(
        [
            (67, 33, 37),
            (6, 5, 1),
            (70, 6, 15),
            (4099, 4, 16),
            (16411, 4, 3),
            (701, 4, 100),
        ]
        .map(|dims| (dims, 3)),
    );
    for ((m, k, n), families) in shapes {
        let a_in = skinny_inputs(m * k, n);
        let b_in = skinny_inputs(n * k, m);
        let w_in = skinny_inputs(m * n, k);
        let inputs = a_in.iter().zip(&b_in).zip(&w_in).take(families);
        for (((a, cmp), (b, _)), (work, _)) in inputs {
            let am = MatrixRef::new(a, m, k).unwrap();
            let bm = MatrixRef::new(b, n, k).unwrap();
            let mut g_want = vec![0.0f32; m * n];
            matrix::a_mul_bt(am, bm, &mut g_want).unwrap();
            let e_want: Vec<f32> = work.iter().zip(&g_want).map(|(w, g)| w - g).collect();
            // `Ĝ` into a fresh `Vec`, a recycled one with spare capacity
            // and a recycled one too small (it must grow): every element
            // is written once, so no stale NaN survives.
            let recycled = [
                Vec::new(),
                vec![f32::NAN; m * n + 37],
                vec![f32::NAN; m * n / 2],
            ];
            for mut g in recycled {
                let mut e = work.clone();
                matrix::reconstruct_residual_into(am, bm, Some(&mut e), &mut g).unwrap();
                assert_eq!(cmp(&g_want), cmp(&g), "G {m}x{k}x{n}");
                assert_eq!(cmp(&e_want), cmp(&e), "E {m}x{k}x{n}");
            }
            // Without a residual the product alone is the same.
            let mut g = vec![f32::NAN; m * n];
            matrix::reconstruct_residual_into(am, bm, None, &mut g).unwrap();
            assert_eq!(cmp(&g_want), cmp(&g), "G only {m}x{k}x{n}");
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
fn at_mul_b_into_matches_the_zeroed_slice_form() {
    use gcs_tensor::matrix::{self, MatrixRef};
    // The `Vec` form against the slice form over a zeroed buffer, from a
    // fresh `Vec`, a recycled one with spare capacity and a recycled one
    // too small (it must grow). Shapes `(rows, k, cols)` of the output:
    // the register tiles with remainder rows and a column tail, the skinny
    // path, and three with thousands of rows.
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
        for ((a, _), (b, _)) in a_in.iter().zip(&b_in) {
            // Aᵀ · B: A is k x rows, B is k x cols.
            let (am, bm) = (
                MatrixRef::new(a, k, rows).unwrap(),
                MatrixRef::new(b, k, cols).unwrap(),
            );
            let mut want = vec![0.0f32; len];
            matrix::at_mul_b(am, bm, &mut want).unwrap();
            for mut got in recycled(len) {
                matrix::at_mul_b_into(am, bm, &mut got).unwrap();
                let ctx = format!("at_mul_b {rows}x{k}x{cols}");
                assert_eq!(bits(&want), bits(&got), "{ctx}");
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
    for k in [1usize, 64, 512] {
        let serial = select::top_k_abs(&data, k);
        assert_eq!(serial.len(), k, "k={k}: NaNs must not shrink the selection");
        // Repeat calls must agree exactly — the old partial_cmp fallback
        // let NaN land anywhere in the partition.
        let again = select::top_k_abs(&data, k);
        assert_eq!(serial.indices, again.indices, "k={k} repeat");
        assert_eq!(bits(&serial.values), bits(&again.values), "k={k} values");
    }
    // More NaNs than k: the NaN fill itself must be deterministic.
    let noisy = vec![f32::NAN, 1.0, f32::NAN, 2.0, f32::NAN];
    let sel = select::top_k_abs(&noisy, 2);
    assert_eq!(sel.len(), 2);
    assert_eq!(sel.indices, select::top_k_abs(&noisy, 2).indices);
}

// ---------------------------------------------------------------------------
// tanh: fdlibm's `tanhf`, bit for bit, in every table
// ---------------------------------------------------------------------------

const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);
const TINY: f32 = 1.0e-30;
/// `expm1f`'s thresholds on `|u|` bits: 0.5 ln2, 1.5 ln2, 2^-25.
const EXPM1_THRESHOLDS: [u32; 3] = [0x3eb1_7218, 0x3f85_1592, 0x3300_0000];
/// `tanhf`'s thresholds on `|x|` bits: 2^-55, 1, 22.
const TANH_THRESHOLDS: [u32; 3] = [0x2400_0000, 0x3f80_0000, 0x41b0_0000];

/// `y · 2^k` through the exponent field: fdlibm's
/// `SET_FLOAT_WORD(y, i + (k << 23))`.
fn add_exp(y: f32, k: i32) -> f32 {
    f32::from_bits(y.to_bits().wrapping_add((k << 23) as u32))
}

/// fdlibm's `expm1f` (the Sun libm that glibc's
/// `sysdeps/ieee754/flt-32/s_expm1f.c` comes from), branch for branch.
fn ref_expm1f(mut x: f32) -> f32 {
    const HUGE: f32 = 1.0e30;
    const O_THRESHOLD: f32 = f32::from_bits(0x42b1_7180);
    let xsb = x.to_bits() & 0x8000_0000;
    let hx = x.to_bits() & 0x7fff_ffff;
    // Huge and non-finite arguments.
    if hx >= 0x4195_b844 {
        if hx >= 0x42b1_7218 {
            if hx > 0x7f80_0000 {
                return x + x;
            }
            if hx == 0x7f80_0000 {
                return if xsb == 0 { x } else { -1.0 };
            }
            if x > O_THRESHOLD {
                return HUGE * HUGE;
            }
        }
        if xsb != 0 {
            return TINY - 1.0;
        }
    }
    // Argument reduction.
    let k: i32;
    let c: f32;
    if hx > EXPM1_THRESHOLDS[0] {
        let (hi, lo);
        if hx < EXPM1_THRESHOLDS[1] {
            if xsb == 0 {
                (hi, lo, k) = (x - LN2_HI, LN2_LO, 1);
            } else {
                (hi, lo, k) = (x + LN2_HI, -LN2_LO, -1);
            }
        } else {
            k = (INVLN2 * x + if xsb == 0 { 0.5 } else { -0.5 }) as i32;
            let t = k as f32;
            hi = x - t * LN2_HI;
            lo = t * LN2_LO;
        }
        x = hi - lo;
        c = (hi - x) - lo;
    } else if hx < EXPM1_THRESHOLDS[2] {
        let t = HUGE + x;
        return x - (t - (HUGE + x));
    } else {
        k = 0;
        c = 0.0;
    }
    // x is now in the primary range.
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let mut e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs);
    }
    e = x * (e - c) - c;
    e -= hxs;
    if k == -1 {
        return 0.5 * (x - e) - 0.5;
    }
    if k == 1 {
        return if x < -0.25 {
            -2.0 * (e - (x + 0.5))
        } else {
            1.0 + 2.0 * (x - e)
        };
    }
    if k <= -2 || k > 56 {
        let y = 1.0 - (e - x);
        let y = if k == 128 {
            y * 2.0 * f32::from_bits(0x7f00_0000)
        } else {
            add_exp(y, k)
        };
        return y - 1.0;
    }
    if k < 23 {
        let t = f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k));
        add_exp(t - (e - x), k)
    } else {
        let t = f32::from_bits(((0x7f - k) << 23) as u32);
        add_exp((x - (e + t)) + 1.0, k)
    }
}

/// fdlibm's `tanhf` (glibc's `s_tanhf.c`), branch for branch: the
/// reference every table's `tanh` must reproduce.
fn ref_tanhf(x: f32) -> f32 {
    let jx = x.to_bits() as i32;
    let ix = jx & 0x7fff_ffff;
    if ix >= 0x7f80_0000 {
        return if jx >= 0 {
            1.0 / x + 1.0
        } else {
            1.0 / x - 1.0
        };
    }
    let z;
    if ix < TANH_THRESHOLDS[2] as i32 {
        if ix == 0 {
            return x;
        }
        if ix < TANH_THRESHOLDS[0] as i32 {
            return x * (1.0 + x);
        }
        if ix >= TANH_THRESHOLDS[1] as i32 {
            let t = ref_expm1f(2.0 * x.abs());
            z = 1.0 - 2.0 / (t + 2.0);
        } else {
            let t = ref_expm1f(-2.0 * x.abs());
            z = -t / (t + 2.0);
        }
    } else {
        z = 1.0 - TINY;
    }
    if jx >= 0 {
        z
    } else {
        -z
    }
}

/// Every table the host runs (`tables()` lists `scalar()` first), once per
/// distinct `tanh` body: the AVX2 table's entry is the scalar one.
fn tanh_tables() -> Vec<&'static Kernels> {
    let mut out: Vec<&'static Kernels> = Vec::new();
    for t in kernels::tables() {
        if !out.iter().any(|o| std::ptr::fn_addr_eq(o.tanh, t.tanh)) {
            out.push(t);
        }
    }
    out
}

/// Runs every table's `tanh` over `xs` and asserts each output's bits equal
/// [`ref_tanhf`]'s.
fn assert_tanh_matches_reference(xs: &[f32], what: &str) {
    let want: Vec<u32> = xs.iter().map(|&x| ref_tanhf(x).to_bits()).collect();
    for t in tanh_tables() {
        let mut got = xs.to_vec();
        (t.tanh)(&mut got);
        for (i, (&g, &w)) in bits(&got).iter().zip(&want).enumerate() {
            assert_eq!(
                g,
                w,
                "{} {what}: tanh({:#010x}) = {g:#010x}, fdlibm gives {w:#010x}",
                t.name,
                xs[i].to_bits()
            );
        }
    }
}

/// Inputs at the edges of every path: both neighbours of each threshold,
/// the `k` = 22/23 and 56/57 switches, ±0, subnormals, ±inf and quiet and
/// signalling NaNs with payloads, each with both signs.
fn tanh_edge_inputs() -> Vec<f32> {
    let mut mags: Vec<u32> = Vec::new();
    for t in TANH_THRESHOLDS {
        mags.extend([t - 1, t, t + 1]);
    }
    // tanhf passes u = ±2|x| to expm1f, and halving is exact here.
    for t in EXPM1_THRESHOLDS {
        mags.extend([t - 1, t, t + 1].map(|u| u - 0x0080_0000));
    }
    // k = trunc(2|x| / ln2 + 0.5) switches at |x| = (k - 0.5) ln2 / 2: a
    // window of 64 ulps each side holds the switch whatever the rounding.
    for k in [3.0f64, 22.0, 23.0, 56.0, 57.0, 63.0] {
        let centre = ((k - 0.5) * std::f64::consts::LN_2 / 2.0) as f32;
        mags.extend((0..129).map(|d| centre.to_bits() - 64 + d));
    }
    mags.extend([0, 1, 2, 0x0040_0000, 0x007f_ffff, 0x0080_0000, 0x7f7f_ffff]);
    mags.extend([0x7f80_0000, 0x7f80_0001, 0x7fa0_0000, 0x7fbf_ffff]);
    mags.extend([0x7fc0_0000, 0x7fc0_0001, 0x7fd2_3456, 0x7fff_ffff]);
    mags.iter()
        .flat_map(|&m| [f32::from_bits(m), f32::from_bits(m | 0x8000_0000)])
        .collect()
}

/// Every 4093rd f32 bit pattern (4093 is prime, so the low mantissa bits
/// vary too): about a million inputs over every path and both signs.
fn tanh_sweep() -> Vec<f32> {
    (0..1u64 << 32)
        .step_by(4093)
        .map(|b| f32::from_bits(b as u32))
        .collect()
}

#[test]
fn tanh_matches_fdlibm_bitwise_in_every_table() {
    for n in lengths() {
        assert_tanh_matches_reference(&payload(n), &format!("payload n={n}"));
    }
    // Large-ish normal arguments in [-24, 24] across every path, then the
    // edges, each also at an odd offset so the vector tails see them.
    let spread: Vec<f32> = (0..4099u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 8) as f32 / 349_525.0 - 24.0)
        .collect();
    assert_tanh_matches_reference(&spread, "spread");
    assert_tanh_matches_reference(&tanh_sweep(), "sweep");
    let edges = tanh_edge_inputs();
    assert_tanh_matches_reference(&edges, "edges");
    assert_tanh_matches_reference(&edges[5..], "edges offset by 5");
    // The dispatched wrapper is one of the tables.
    let mut v = edges.clone();
    kernels::tanh(&mut v);
    let want: Vec<u32> = edges.iter().map(|&x| ref_tanhf(x).to_bits()).collect();
    assert_eq!(bits(&v), want, "kernels::tanh");
}

/// Fixed (input bits → output bits) pairs, so the reference itself cannot
/// drift: one per `tanhf` path and per `expm1f` path `tanhf` reaches.
/// They are glibc's `tanhf` at run time. An `f32::tanh` that LLVM folds at
/// compile time can differ: it folds -0.3 to the correctly rounded
/// `0xbe95_26ee`, one ulp from fdlibm's.
#[test]
fn fdlibm_tanh_reference_is_pinned() {
    let pinned = [
        (0x2380_0000, 0x2380_0000), // 2^-56: x(1 + x)
        (0x3200_0000, 0x3200_0000), // 2^-27: expm1f's |u| < 2^-25 path
        (0x3dcc_cccd, 0x3dcc_1ebc), // 0.1: k = 0
        (0xbe99_999a, 0xbe95_26ed), // -0.3: k = -1
        (0x3f40_0000, 0x3f22_991f), // 0.75: k = -2
        (0x4020_0000, 0x3f7c_92c1), // 2.5: k = 7, below 23
        (0xc100_0000, 0xbf7f_fffc), // -8: k = 23
        (0x41a8_0000, 0x3f80_0000), // 21: k = 61, past 56
        (0xff80_0000, 0xbf80_0000), // -inf
        (0x7fa0_0001, 0x7fe0_0001), // signalling NaN, quieted
    ];
    for (x, want) in pinned {
        let got = ref_tanhf(f32::from_bits(x)).to_bits();
        assert_eq!(got, want, "tanhf({x:#010x})");
    }
}

/// Every table's `tanh` against the reference on all 2^32 bit patterns.
/// Run in release: `cargo test --release -p gcs-tensor --test kernel_props
/// -- --ignored tanh_matches_fdlibm_on_every_bit_pattern`.
#[test]
#[ignore = "exhaustive; about 40 s in release on 2 cores"]
fn tanh_matches_fdlibm_on_every_bit_pattern() {
    exhaustive(|xs, want| {
        for (w, &x) in want.iter_mut().zip(xs) {
            *w = ref_tanhf(x);
        }
        let mut got = xs.to_vec();
        for t in tanh_tables() {
            got.copy_from_slice(xs);
            (t.tanh)(&mut got);
            let bad = got
                .iter()
                .zip(&*want)
                .position(|(g, w)| g.to_bits() != w.to_bits());
            if let Some(i) = bad {
                panic!(
                    "{}: tanh({:#010x}) differs from fdlibm",
                    t.name,
                    xs[i].to_bits()
                );
            }
        }
    });
}

/// The reference against the host libm's `tanhf` (`f32::tanh`) on all 2^32
/// bit patterns. This tests the host's libm, not the repo, so it stays out
/// of CI; it passes where the libm is fdlibm's `tanhf`, as glibc's is.
#[test]
#[ignore = "exhaustive; checks the host libm"]
fn fdlibm_tanh_reference_matches_the_host_libm_on_every_bit_pattern() {
    exhaustive(|xs, _| {
        for &x in xs {
            let (got, want) = (ref_tanhf(x).to_bits(), x.tanh().to_bits());
            assert_eq!(got, want, "tanh({:#010x})", x.to_bits());
        }
    });
}

/// Calls `check(inputs, scratch)` on every f32 bit pattern, in blocks of
/// 2^16 split across the available cores.
fn exhaustive(check: impl Fn(&[f32], &mut [f32]) + Sync) {
    const BLOCK: u64 = 1 << 16;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4)) as u64;
    let blocks = (1u64 << 32) / BLOCK;
    std::thread::scope(|s| {
        for w in 0..threads {
            let check = &check;
            s.spawn(move || {
                let mut xs = vec![0.0f32; BLOCK as usize];
                let mut scratch = xs.clone();
                for b in (w..blocks).step_by(threads as usize) {
                    for (i, x) in xs.iter_mut().enumerate() {
                        *x = f32::from_bits((b * BLOCK + i as u64) as u32);
                    }
                    check(&xs, &mut scratch);
                }
            });
        }
    });
}
