//! Randomized (deterministically seeded) tests of the compressor protocol
//! across all methods. Formerly proptest-based; rewritten as seeded loops
//! for the offline build (case counts preserved).

use gcs_compress::driver::{all_reduce_compressed, round_trip};
use gcs_compress::registry::MethodConfig;
use gcs_compress::{CompressError, Compressor, Payload};
use gcs_tensor::{stats, Shape, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// All single-parameter method configurations exercised by the suite.
fn all_methods() -> Vec<MethodConfig> {
    vec![
        MethodConfig::SyncSgd,
        MethodConfig::Fp16,
        MethodConfig::PowerSgd { rank: 2 },
        MethodConfig::TopK { ratio: 0.3 },
        MethodConfig::SignSgd,
        MethodConfig::EfSignSgd,
        MethodConfig::Qsgd { levels: 15 },
        MethodConfig::TernGrad,
        MethodConfig::RandomK { ratio: 0.3 },
        MethodConfig::Atomo { rank: 2 },
        MethodConfig::OneBit,
        MethodConfig::Sketch { block: 3 },
        MethodConfig::Dgc { ratio: 0.2 },
        MethodConfig::Variance { kappa: 1.0 },
        MethodConfig::Natural,
    ]
}

/// Every method: decoded output of a multi-worker exchange is identical on
/// all workers, shaped like the input, and finite.
#[test]
fn exchanges_are_consistent_and_finite() {
    let methods = all_methods();
    let mut rng = StdRng::seed_from_u64(0x201);
    for case in 0..24 {
        let method = methods[case % methods.len()].clone();
        let workers = rng.gen_range(2usize..5);
        let rows = rng.gen_range(1usize..6);
        let cols = rng.gen_range(1usize..8);
        let seed = rng.gen_range(0u64..200);
        let grads: Vec<Tensor> = (0..workers as u64)
            .map(|w| Tensor::randn([rows, cols], seed + w))
            .collect();
        let mut compressors: Vec<Box<dyn Compressor>> = (0..workers)
            .map(|_| method.build().expect("builds"))
            .collect();
        let outs = all_reduce_compressed(&mut compressors, 0, &grads).expect("protocol");
        for w in 1..workers {
            assert_eq!(&outs[0], &outs[w], "{method:?} diverged");
        }
        assert_eq!(outs[0].shape(), grads[0].shape());
        assert!(outs[0].data().iter().all(|x| x.is_finite()));
    }
}

/// Every method: `compressed_bytes` never exceeds the raw gradient size
/// plus small constant metadata (a "compressor" that inflates data would
/// break every downstream model).
#[test]
fn compressed_never_larger_than_raw() {
    let methods = all_methods();
    let mut rng = StdRng::seed_from_u64(0x202);
    for case in 0..24 {
        let method = methods[case % methods.len()].clone();
        let numel = rng.gen_range(64usize..4096);
        let c = method.build().expect("builds");
        let shape = Shape::new(vec![numel]);
        let bytes = c.compressed_bytes(&shape);
        assert!(
            bytes <= numel * 4 + 16,
            "{method:?}: {bytes} bytes for {numel} elements"
        );
    }
}

/// Every method: the wire payload round-trips through serialization.
#[test]
fn payload_serialization_roundtrips() {
    let methods = all_methods();
    let mut rng = StdRng::seed_from_u64(0x203);
    for case in 0..24 {
        let method = methods[case % methods.len()].clone();
        let numel = rng.gen_range(1usize..200);
        let seed = rng.gen_range(0u64..100);
        let mut c = method.build().expect("builds");
        let g = Tensor::randn([numel], seed);
        let p = c.encode(0, &g).expect("encode");
        let q = Payload::from_bytes(&p.to_bytes()).expect("decode");
        assert_eq!(p, q);
    }
}

/// Every method: `encode_owned` through `Box<dyn Compressor>` produces the
/// same wire bytes as `encode`, whether the method overrides it (a moved
/// buffer) or inherits the default (a borrow of the owned tensor).
#[test]
fn encode_owned_matches_encode_bit_for_bit() {
    for method in all_methods() {
        let g = Tensor::randn([12, 10], 0x207);
        // Fresh instances share RNG seeds, so stochastic methods agree too.
        let mut borrowed = method.build().expect("builds");
        let mut owned = method.build().expect("builds");
        let want = borrowed.encode(0, &g).expect("encode").to_bytes();
        let got = owned
            .encode_owned(0, g.clone())
            .expect("encode_owned")
            .to_bytes();
        assert_eq!(got, want, "{method:?}");
    }
}

/// `reset` fully clears per-layer state: a fresh encode after reset
/// behaves like a brand-new compressor (no stale error feedback or warm
/// starts leaking through).
#[test]
fn reset_restores_fresh_behaviour() {
    let methods = all_methods();
    let mut rng = StdRng::seed_from_u64(0x204);
    for case in 0..24 {
        let method = methods[case % methods.len()].clone();
        let numel = rng.gen_range(8usize..128);
        let seed = rng.gen_range(0u64..100);
        let g1 = Tensor::randn([numel], seed);
        let g2 = Tensor::randn([numel], seed + 1);
        // Path A: fresh compressor encodes g2.
        let mut fresh = method.build().expect("builds");
        let fresh_payload = fresh.encode(0, &g2).expect("encode");
        // Path B: used compressor (one full round on g1), then reset.
        let mut used = method.build().expect("builds");
        let _ = round_trip(&mut used, 0, &g1).expect("round trip");
        used.reset();
        let reset_payload = used.encode(0, &g2).expect("encode");
        // Stochastic methods advance their RNG during the first round, so
        // only compare deterministic ones payload-for-payload; for the
        // rest it suffices that the encode succeeds on clean state.
        let deterministic = !matches!(
            method,
            MethodConfig::Qsgd { .. }
                | MethodConfig::TernGrad
                | MethodConfig::Dgc { .. }
                | MethodConfig::RandomK { .. }
                | MethodConfig::Natural
        );
        if deterministic {
            assert_eq!(fresh_payload, reset_payload, "{method:?}");
        }
    }
}

/// Unbiased single-worker round trips keep decoded norm bounded by a
/// small multiple of the input norm (no explosion).
#[test]
fn decoded_norm_is_bounded() {
    let methods = all_methods();
    let mut rng = StdRng::seed_from_u64(0x205);
    for case in 0..24 {
        let method = methods[case % methods.len()].clone();
        let numel = rng.gen_range(8usize..256);
        let seed = rng.gen_range(0u64..100);
        let mut c = method.build().expect("builds");
        let g = Tensor::randn([numel], seed);
        let out = round_trip(&mut c, 0, &g).expect("round trip");
        // SignSGD decodes to ±1 per coordinate: norm = sqrt(n), which for a
        // standard normal input is ≈ ||g||. Allow generous headroom.
        assert!(
            out.l2_norm() <= 4.0 * g.l2_norm().max(1.0),
            "{method:?}: out {} vs in {}",
            out.l2_norm(),
            g.l2_norm()
        );
    }
}

/// All workers feeding the identical gradient through any method get
/// (approximately) that gradient's own compressed round-trip back —
/// aggregation of identical inputs must not distort beyond one worker's
/// quantization error.
#[test]
fn identical_inputs_aggregate_to_roundtrip() {
    let methods = all_methods();
    let mut rng = StdRng::seed_from_u64(0x206);
    for case in 0..24 {
        let method = methods[case % methods.len()].clone();
        // Stochastic methods (QSGD/TernGrad/DGC) share RNG seeds across
        // fresh instances, so their encodings of identical inputs agree.
        let numel = rng.gen_range(8usize..128);
        let seed = rng.gen_range(0u64..50);
        let g = Tensor::randn([numel], seed);
        let grads = vec![g.clone(), g.clone(), g.clone()];
        let mut multi: Vec<Box<dyn Compressor>> =
            (0..3).map(|_| method.build().expect("builds")).collect();
        let outs = all_reduce_compressed(&mut multi, 0, &grads).expect("protocol");
        let mut single = method.build().expect("builds");
        let solo = round_trip(&mut single, 0, &g).expect("round trip");
        let err = stats::relative_l2_error(&solo, &outs[0]);
        // FP16 re-rounds after averaging (sum/3 is not representable), so
        // allow half-precision ULP noise; everything else is f32-exact.
        let tol = if method == MethodConfig::Fp16 {
            1e-3
        } else {
            1e-4
        };
        assert!(err < tol || solo.l2_norm() == 0.0, "{method:?}: err {err}");
    }
}

/// Every method refuses its protocol driven out of order, with a typed
/// error: an `absorb` one round past the last, an `absorb` of a payload
/// kind the method never produces, `finish` before `absorb`, a second
/// `finish`, and `finish` after `reset` dropped what was absorbed.
#[test]
fn protocol_misuse_is_a_typed_error() {
    let g = Tensor::randn([6, 5], 0x208);
    let shape = g.shape();
    // Runs every round of one exchange of `g` except `finish`; returns
    // the last aggregated payload and every payload kind seen.
    let exchange = |c: &mut Box<dyn Compressor>| {
        let mut kinds = Vec::new();
        let mut last = None;
        for round in 0..c.properties().rounds {
            let p = if round == 0 {
                c.encode(0, &g)
            } else {
                c.encode_round(0, round)
            }
            .expect("encode");
            let agg = c
                .aggregate(round, std::slice::from_ref(&p))
                .expect("aggregate");
            kinds.extend([p.kind_name(), agg.kind_name()]);
            c.absorb(0, round, agg.clone()).expect("absorb");
            last = Some(agg);
        }
        (last.expect("at least one round"), kinds)
    };
    let is_protocol = |r: Result<(), CompressError>| matches!(r, Err(CompressError::Protocol(_)));
    for method in all_methods() {
        let build = || method.build().expect("builds");
        let rounds = build().properties().rounds;

        let mut c = build();
        let (last, kinds) = exchange(&mut c);
        assert!(
            is_protocol(c.absorb(0, rounds, last)),
            "{method:?}: absorb past the last round"
        );

        let foreign = [
            Payload::Ternary {
                len: 30,
                scale: 1.0,
                packed: vec![0; 8],
            },
            Payload::TwoScale {
                words: vec![0],
                len: 30,
                neg: -1.0,
                pos: 1.0,
            },
        ]
        .into_iter()
        .find(|p| !kinds.contains(&p.kind_name()))
        .expect("a kind the method never produces");
        let mut c = build();
        c.encode(0, &g).expect("encode");
        let got = c.absorb(0, 0, foreign);
        assert!(
            matches!(got, Err(CompressError::PayloadKind { .. })),
            "{method:?}: foreign kind gave {got:?}"
        );

        let mut c = build();
        assert!(
            is_protocol(c.finish(0, shape).map(drop)),
            "{method:?}: finish on a fresh compressor"
        );
        c.encode(0, &g).expect("encode");
        assert!(
            is_protocol(c.finish(0, shape).map(drop)),
            "{method:?}: finish before absorb"
        );

        let mut c = build();
        exchange(&mut c);
        c.finish(0, shape).expect("finish");
        assert!(
            is_protocol(c.finish(0, shape).map(drop)),
            "{method:?}: second finish"
        );

        let mut c = build();
        exchange(&mut c);
        c.reset();
        assert!(
            is_protocol(c.finish(0, shape).map(drop)),
            "{method:?}: finish after reset"
        );
    }
}
