//! Every exchange engine must be bit-identical to the sequential engine
//! and numerically equal to the centralized reference driver for every
//! method in the registry.
//!
//! The equivalence net runs each of the 15 methods at two bucket caps
//! (several buckets, and one bucket holding the whole model) over two
//! consecutive steps, so error-feedback and warm-start state is compared
//! too. Pipelined at depths 1–3 must equal the sequential exchange on a
//! flat plan; a one-arm adaptive engine must equal it on a matricized
//! plan; and every engine must report the same wire bytes and rounds per
//! bucket. Fixed FNV-1a digests pin the per-layer exchange's bits, and
//! syncSGD's through every sequential engine at p = 2, 3 and 4 on a layout
//! with single- and multi-layer buckets, a layer shorter than the ring and
//! −0.0, subnormal, ±inf and NaN-payload inputs. SignSGD's and
//! EF-SignSGD's are pinned at p = 2, 3 and 5 over three steps, final
//! error-feedback residuals included. The per-layer exchange of every
//! method is pinned again at p = 3 and 5 on a layout with a layer shorter
//! than the ring (empty ring chunks), and syncSGD's at p = 3 on a plan
//! that alternates packed and single-layer buckets.
//!
//! Against the reference driver the whole model is one flat bucket
//! (`bucket_bytes = usize::MAX`), which the driver sees as one "layer";
//! that comparison allows f32 tolerance (the ring reduces in a different
//! association order than the driver's sequential sum).

use gcs_cluster::SimCluster;
use gcs_compress::adaptive::AdaptiveConfig;
use gcs_compress::driver::all_reduce_compressed;
use gcs_compress::registry::MethodConfig;
use gcs_ddp::exec::BucketPlan;
use gcs_ddp::{Arms, BucketTiming, ExchangeConfig, Exchanger, Lane, Plan};
use gcs_tensor::Tensor;

const WORLD: usize = 4;
const STEPS: usize = 2;
/// Bucket caps of the net: 600 B splits the 948 B model into two buckets.
const CAPS: [usize; 2] = [600, usize::MAX];

/// Every variant of `MethodConfig`, with representative parameters.
fn registry() -> Vec<MethodConfig> {
    vec![
        MethodConfig::SyncSgd,
        MethodConfig::Fp16,
        MethodConfig::PowerSgd { rank: 2 },
        MethodConfig::TopK { ratio: 0.2 },
        MethodConfig::SignSgd,
        MethodConfig::EfSignSgd,
        MethodConfig::Qsgd { levels: 15 },
        MethodConfig::TernGrad,
        MethodConfig::RandomK { ratio: 0.25 },
        MethodConfig::Atomo { rank: 2 },
        MethodConfig::OneBit,
        MethodConfig::Sketch { block: 4 },
        MethodConfig::Dgc { ratio: 0.05 },
        MethodConfig::Variance { kappa: 1.0 },
        MethodConfig::Natural,
    ]
}

fn shapes() -> Vec<Vec<usize>> {
    vec![vec![6, 10], vec![33], vec![4, 4, 3, 3]]
}

/// Rank `rank`'s gradients at `step`; step 0 keeps the historical seeds.
fn make_grads_at(rank: usize, step: usize) -> Vec<Tensor> {
    shapes()
        .iter()
        .enumerate()
        .map(|(l, s)| Tensor::randn(s.clone(), 42 + (step * 977 + rank * 131 + l) as u64))
        .collect()
}

fn make_grads(rank: usize) -> Vec<Tensor> {
    make_grads_at(rank, 0)
}

fn flat_concat(grads: &[Tensor]) -> Tensor {
    // The bucketed engines pack in backward (reverse-layer) order.
    let mut flat = Vec::new();
    for g in grads.iter().rev() {
        flat.extend_from_slice(g.data());
    }
    Tensor::from_vec(flat)
}

fn bits(out: &[Tensor]) -> Vec<u32> {
    out.iter()
        .flat_map(|t| t.data().iter().map(|x| x.to_bits()))
        .collect()
}

/// One bucket's `(ring_bytes, ring_rounds, gather_bytes, gather_rounds)`.
type WireCounts = (u64, u32, u64, u32);

fn wire_counts(timings: &[BucketTiming]) -> Vec<WireCounts> {
    timings
        .iter()
        .map(|t| (t.ring_bytes, t.ring_rounds, t.gather_bytes, t.gather_rounds))
        .collect()
}

/// One rank's output bits and per-bucket wire counts, one entry per step.
type Run = Vec<(Vec<u32>, Vec<WireCounts>)>;

/// `method` on `plan` and `lane`.
fn one(method: &MethodConfig, plan: Plan, lane: Lane) -> ExchangeConfig {
    ExchangeConfig {
        plan,
        lane,
        arms: Arms::One(method.clone()),
    }
}

/// Buckets of at most `bytes`, flat or matricized.
fn capped(bytes: usize, matricize: bool) -> Plan {
    Plan::Buckets { bytes, matricize }
}

/// The sequential exchange on a flat (or matricized) plan built once.
fn sequential(method: &MethodConfig, cap: usize, matricize: bool) -> Vec<Run> {
    SimCluster::run(WORLD, |w| {
        let rank = w.rank();
        let cfg = one(method, capped(cap, matricize), Lane::Inline);
        let mut eng = Exchanger::new(w, cfg).unwrap();
        (0..STEPS)
            .map(|step| {
                let grads = make_grads_at(rank, step);
                let out = eng.exchange(&grads).unwrap();
                (bits(&out), wire_counts(eng.last_timings()))
            })
            .collect()
    })
}

fn pipelined(method: &MethodConfig, cap: usize, depth: usize) -> Vec<Run> {
    SimCluster::run(WORLD, |w| {
        let rank = w.rank();
        let cfg = one(method, capped(cap, false), Lane::Comm { depth });
        let mut eng = Exchanger::new(w, cfg).unwrap();
        let run = (0..STEPS)
            .map(|step| {
                let out = eng.exchange(&make_grads_at(rank, step)).unwrap();
                (bits(&out), wire_counts(eng.last_timings()))
            })
            .collect();
        let _ = eng.into_parts();
        run
    })
}

fn one_arm_adaptive(method: &MethodConfig, cap: usize) -> Vec<Run> {
    SimCluster::run(WORLD, |w| {
        let rank = w.rank();
        let cfg = AdaptiveConfig::new(vec![method.clone()]).unwrap();
        let mut eng = Exchanger::new(w, ExchangeConfig::adaptive(cfg, cap)).unwrap();
        (0..STEPS)
            .map(|step| {
                let out = eng.exchange(&make_grads_at(rank, step)).unwrap();
                (bits(&out), wire_counts(eng.last_timings()))
            })
            .collect()
    })
}

#[test]
fn every_engine_matches_the_sequential_plan_over_two_steps() {
    for method in registry() {
        for cap in CAPS {
            let flat = sequential(&method, cap, false);
            for depth in 1..=3 {
                assert_eq!(
                    pipelined(&method, cap, depth),
                    flat,
                    "{method:?} cap {cap}: pipelined depth {depth} deviates from sequential"
                );
            }
            assert_eq!(
                one_arm_adaptive(&method, cap),
                sequential(&method, cap, true),
                "{method:?} cap {cap}: one-arm adaptive deviates from the matricized sequential plan"
            );
        }
    }
}

/// FNV-1a 64 over every output bit of every rank and step.
fn fnv1a(runs: &[Vec<Vec<Tensor>>]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for step_outs in runs {
        for out in step_outs {
            for word in bits(out) {
                for b in word.to_le_bytes() {
                    hash ^= u64::from(b);
                    hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
                }
            }
        }
    }
    hash
}

#[test]
fn per_layer_exchange_matches_its_golden_digests() {
    // One digest per registry method, in `registry()` order.
    const GOLDEN: [u64; 15] = [
        0xef2816e6ea020775,
        0xa6bbeb18f6f415e5,
        0xf85e0c730a9ca7cd,
        0xa6ec40873d7c079d,
        0xb14c9a4b74c64865,
        0x8f0018fe908d75b5,
        0x26a8915b03c9bca5,
        0x290e690e8a116e85,
        0xa35aee42f6172aa5,
        0x6ca14787bf9b87f5,
        0x96f07cab7a2955a5,
        0x0c4f1c6dd6d58895,
        0x63f84ad6ac725285,
        0xb129329eb437aab5,
        0x31fa900aca254e25,
    ];
    let digests: Vec<u64> = registry()
        .iter()
        .map(|method| {
            let runs = SimCluster::run(WORLD, |w| {
                let rank = w.rank();
                let mut eng = Exchanger::new(w, ExchangeConfig::per_layer(method.clone())).unwrap();
                (0..STEPS)
                    .map(|step| eng.exchange(&make_grads_at(rank, step)).unwrap())
                    .collect::<Vec<_>>()
            });
            fnv1a(&runs)
        })
        .collect();
    assert_eq!(digests, GOLDEN, "per-layer exchange bits moved");
}

#[test]
fn sequential_plan_matches_the_reference_driver_for_every_method() {
    // The net above pins every engine to this exchange bit for bit.
    for method in registry() {
        let sequential = SimCluster::run(WORLD, |w| {
            let grads = make_grads(w.rank());
            let cfg = one(&method, capped(usize::MAX, false), Lane::Inline);
            Exchanger::new(w, cfg).unwrap().exchange(&grads).unwrap()
        });

        // The reference driver sees the same flat concatenation as one
        // layer.
        let tol = if method == MethodConfig::Fp16 {
            2e-3
        } else {
            1e-4
        };
        let mut ref_workers: Vec<_> = (0..WORLD).map(|_| method.build().unwrap()).collect();
        let flat_grads: Vec<Tensor> = (0..WORLD).map(|r| flat_concat(&make_grads(r))).collect();
        let ref_out = all_reduce_compressed(&mut ref_workers, 0, &flat_grads).unwrap();
        for (rank, out) in sequential.iter().enumerate() {
            let engine_flat = flat_concat(out);
            let reference = &ref_out[rank];
            assert_eq!(engine_flat.numel(), reference.numel());
            let ref_norm = reference
                .data()
                .iter()
                .map(|x| (*x as f64) * (*x as f64))
                .sum::<f64>()
                .sqrt();
            let err = engine_flat
                .data()
                .iter()
                .zip(reference.data())
                .map(|(a, b)| ((a - b) as f64) * ((a - b) as f64))
                .sum::<f64>()
                .sqrt();
            let rel = err / ref_norm.max(1e-12);
            assert!(
                rel < tol,
                "{method:?} worker {rank}: engine deviates from reference driver (rel {rel})"
            );
        }
    }
}

/// syncSGD's golden layout, forward order: a ragged 5 x 7 layer, a
/// 2-element and a 1-element layer (shorter than the ring at p = 3, 4),
/// and a 9 x 13 layer whose 117 elements split unevenly at p = 2, 4.
fn dense_shapes() -> Vec<Vec<usize>> {
    vec![vec![5, 7], vec![2], vec![1], vec![9, 13]]
}

/// Plan caps of the syncSGD goldens: 4 B gives every layer a bucket of its
/// own; 468 B (the 9 x 13 layer's size) puts that layer alone in bucket 0
/// and the other three together in bucket 1; `usize::MAX` packs one
/// bucket of four layers.
const DENSE_CAPS: [usize; 3] = [4, 468, usize::MAX];

/// Rank `rank`'s value at element `e` of `layer` at `step`: hashed finite
/// values with mixed exponents, with −0.0 and subnormals mixed in at
/// hashed positions on every rank, and ±inf and NaNs (quiet and
/// signalling, both signs, with payloads) on one rank (of up to four) per
/// element. Which of two NaNs an add returns is not pinned across kernel
/// tables and builds (the compiler may commute a scalar add), while one
/// NaN operand, or one infinity, gives the same bits everywhere.
fn dense_value(rank: usize, step: usize, layer: usize, e: usize) -> f32 {
    const TINY: [u32; 3] = [
        0x8000_0000, // -0
        0x0000_0003, // subnormal
        0x8040_0000, // negative subnormal
    ];
    const NON_FINITE: [u32; 5] = [
        0x7F80_0000, // +inf
        0xFF80_0000, // -inf
        0x7FC0_0ABC, // quiet NaN with a payload
        0xFFC0_1234, // negative quiet NaN with a payload
        0x7FA0_0001, // signalling NaN
    ];
    let h = ((rank * 7919 + step * 104_729 + layer * 1_299_709) as u64 + 1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((e as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    let h = h ^ (h >> 31);
    let pick = |table: &[u32]| f32::from_bits(table[((h >> 8) % table.len() as u64) as usize]);
    match h % 8 {
        0 if (e + layer + step) % 4 == rank => pick(&NON_FINITE),
        1 | 2 => pick(&TINY),
        _ => {
            let mantissa = ((h >> 40) as f32) / 1000.0 - 8.0;
            let exp = ((h >> 33) % 9) as i32 - 4;
            mantissa * 2f32.powi(exp)
        }
    }
}

fn dense_grads_at(rank: usize, step: usize) -> Vec<Tensor> {
    dense_shapes()
        .iter()
        .enumerate()
        .map(|(layer, s)| {
            let n: usize = s.iter().product();
            let data = (0..n).map(|e| dense_value(rank, step, layer, e)).collect();
            Tensor::from_shape_vec(s.clone(), data).unwrap()
        })
        .collect()
}

/// How the syncSGD goldens drive the exchange.
#[derive(Clone, Copy, Debug)]
enum DenseEngine {
    PerLayer,
    Plan { cap: usize, matricize: bool },
}

/// FNV-1a over two syncSGD steps on a `world`-rank `SimCluster`.
fn dense_digest(world: usize, engine: DenseEngine) -> u64 {
    let runs = SimCluster::run(world, |w| {
        let rank = w.rank();
        let plan = match engine {
            DenseEngine::PerLayer => Plan::PerLayer,
            DenseEngine::Plan { cap, matricize } => capped(cap, matricize),
        };
        let cfg = one(&MethodConfig::SyncSgd, plan, Lane::Inline);
        let mut eng = Exchanger::new(w, cfg).unwrap();
        (0..STEPS)
            .map(|step| {
                let grads = dense_grads_at(rank, step);
                eng.exchange(&grads).unwrap()
            })
            .collect::<Vec<_>>()
    });
    fnv1a(&runs)
}

#[test]
fn syncsgd_exchanges_match_their_golden_digests() {
    // The bucket layouts the goldens rely on.
    let layout = dense_grads_at(0, 0);
    let plan = BucketPlan::new(&layout, DENSE_CAPS[1]);
    assert_eq!(
        (plan.layers(0), plan.layers(1)),
        (&[3usize][..], &[2usize, 1, 0][..])
    );
    assert_eq!(BucketPlan::new(&layout, DENSE_CAPS[0]).num_buckets(), 4);
    let mut engines = vec![DenseEngine::PerLayer];
    for matricize in [false, true] {
        for cap in DENSE_CAPS {
            engines.push(DenseEngine::Plan { cap, matricize });
        }
    }
    // One row per world size p = 2, 3, 4; one column per engine: the
    // per-layer exchange, then the flat and the matricized plans at each
    // cap of `DENSE_CAPS`.
    // At p = 2 every element is one two-operand add, so the bucket
    // boundaries cannot move any bit.
    const GOLDEN: [[u64; 7]; 3] = [
        [0x1b16e99b1abf11b9; 7],
        [
            0xcf64155bf37ac5d1,
            0xcf64155bf37ac5d1,
            0x91e51b9332fdd18e,
            0xc8ff36fe356051d6,
            0xcf64155bf37ac5d1,
            0x91e51b9332fdd18e,
            0xc8ff36fe356051d6,
        ],
        [
            0x4219ac0d36a5731d,
            0x4219ac0d36a5731d,
            0xf58c98b8dfc5a625,
            0x8d813fd86dbd4355,
            0x4219ac0d36a5731d,
            0xf58c98b8dfc5a625,
            0x8d813fd86dbd4355,
        ],
    ];
    let digests: Vec<Vec<u64>> = (2..=4)
        .map(|world| engines.iter().map(|&e| dense_digest(world, e)).collect())
        .collect();
    assert_eq!(digests, GOLDEN, "syncSGD exchange bits moved");
}

/// SignSGD's golden layout, forward order: a 4096-word layer, a one-word
/// row, a multi-word layer, and two layers whose last sign word is
/// ragged (10 and 1000 elements).
fn sign_shapes() -> Vec<Vec<usize>> {
    vec![
        vec![512, 256],
        vec![512],
        vec![10, 512],
        vec![10],
        vec![1000],
    ]
}

/// Rank `rank`'s gradients at `step` for the SignSGD goldens: normal
/// draws with exact +0.0 and −0.0 at hashed positions, so the pack's
/// `x >= 0` convention and vote ties both show in the bits.
fn sign_grads_at(rank: usize, step: usize) -> Vec<Tensor> {
    sign_shapes()
        .iter()
        .enumerate()
        .map(|(layer, s)| {
            let seed = 7 + (step * 977 + rank * 131 + layer) as u64;
            let mut data = Tensor::randn(s.clone(), seed).into_vec();
            for (e, x) in data.iter_mut().enumerate() {
                match (e as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58 {
                    0 => *x = 0.0,
                    1 => *x = -0.0,
                    _ => {}
                }
            }
            Tensor::from_shape_vec(s.clone(), data).unwrap()
        })
        .collect()
}

/// FNV-1a over three per-layer exchange steps of `method` on a
/// `world`-rank `SimCluster`, followed by every layer's final
/// error-feedback residual (none for plain SignSGD), so the residual
/// carried from step to step is pinned too.
fn sign_digest(method: &MethodConfig, world: usize) -> u64 {
    let runs = SimCluster::run(world, |w| {
        let rank = w.rank();
        let mut eng = Exchanger::new(w, ExchangeConfig::per_layer(method.clone())).unwrap();
        let mut outs: Vec<Vec<Tensor>> = (0..3)
            .map(|step| eng.exchange(&sign_grads_at(rank, step)).unwrap())
            .collect();
        let (_, mut arms) = eng.into_parts();
        let c = &mut arms[0];
        let residuals: Vec<Tensor> = (0..sign_shapes().len())
            .filter_map(|layer| c.take_residual(layer))
            .collect();
        let expected = if *method == MethodConfig::EfSignSgd {
            sign_shapes().len()
        } else {
            0
        };
        assert_eq!(residuals.len(), expected, "{method:?} residuals");
        outs.push(residuals);
        outs
    });
    fnv1a(&runs)
}

#[test]
fn sign_exchanges_match_their_golden_digests() {
    // One row per method (SignSGD, EF-SignSGD); one column per world size
    // p = 2, 3, 5.
    const GOLDEN: [[u64; 3]; 2] = [
        [0xac6b34ee14f84d05, 0xbab9161732d7e2f5, 0xfc103ff92613dc55],
        [0x8097c40146f4f2d9, 0xce94aa139cb84b29, 0xcf37ecccbbd9b43b],
    ];
    let digests: Vec<Vec<u64>> = [MethodConfig::SignSgd, MethodConfig::EfSignSgd]
        .iter()
        .map(|method| [2, 3, 5].iter().map(|&p| sign_digest(method, p)).collect())
        .collect();
    assert_eq!(digests, GOLDEN, "SignSGD exchange bits moved");
}

/// The ragged per-layer layout: a 2-element layer is shorter than the
/// ring at p = 3 and 5, so some of its ring chunks are empty.
fn ragged_shapes() -> Vec<Vec<usize>> {
    vec![vec![6, 10], vec![33], vec![4, 4, 3, 3], vec![2]]
}

fn ragged_grads_at(rank: usize, step: usize) -> Vec<Tensor> {
    ragged_shapes()
        .iter()
        .enumerate()
        .map(|(l, s)| Tensor::randn(s.clone(), 91 + (step * 977 + rank * 131 + l) as u64))
        .collect()
}

#[test]
fn ragged_per_layer_exchange_matches_its_golden_digests() {
    // One row per world size p = 3, 5; one digest per registry method, in
    // `registry()` order.
    const GOLDEN: [[u64; 15]; 2] = [
        [
            0x20845fa78a0d1341,
            0x996722285f726eed,
            0x4af223a8cff8fed6,
            0xc5cd6fa273cc6383,
            0x6ada86ffe9d455b5,
            0xb49ac1a9f5d6e91e,
            0x66e658e94bf15af2,
            0xadf1c9dbe4070e31,
            0xc3ec2a678c9d7427,
            0xa8a0a9442957aa43,
            0xb553a4b5d7a4d534,
            0xc3886178c2b81926,
            0xbf4dc4630547ba5d,
            0x4b0616b2ea13aa7d,
            0xe375b12bbea1a14c,
        ],
        [
            0x3d738db8986a0ee2,
            0xf8e87b7bf7a6d52e,
            0x86840f3cf2dce432,
            0xa76d9a0cb499f492,
            0x2933bbb62dcccc95,
            0xd92ea8f7a85cdb6e,
            0xf55c9389c5243792,
            0x60bd2374df05f46a,
            0x44fe3f878c419eea,
            0xf1e9175987a98b89,
            0x11ac9df765890be6,
            0x59ff8dac89bfaf5a,
            0x7171338cb19ad5d0,
            0x72bc52fab1a6b6f0,
            0x1e3a701b317d6b62,
        ],
    ];
    let digests: Vec<Vec<u64>> = [3, 5]
        .iter()
        .map(|&world| {
            registry()
                .iter()
                .map(|method| {
                    let runs = SimCluster::run(world, |w| {
                        let rank = w.rank();
                        let cfg = ExchangeConfig::per_layer(method.clone());
                        let mut eng = Exchanger::new(w, cfg).unwrap();
                        (0..STEPS)
                            .map(|step| {
                                let grads = ragged_grads_at(rank, step);
                                eng.exchange(&grads).unwrap()
                            })
                            .collect::<Vec<_>>()
                    });
                    fnv1a(&runs)
                })
                .collect()
        })
        .collect();
    assert_eq!(digests, GOLDEN, "ragged per-layer exchange bits moved");
}

/// A layout whose 600 B plan alternates packed and single-layer buckets:
/// backward from the last layer, 8 + 200 + 200 B share bucket 0, the
/// 700 B layer is bucket 1 alone, 100 + 100 B share bucket 2, and the
/// 640 B layer is bucket 3 alone.
fn mixed_shapes() -> Vec<Vec<usize>> {
    vec![
        vec![10, 16],
        vec![5, 5],
        vec![25],
        vec![7, 25],
        vec![50],
        vec![5, 10],
        vec![2],
    ]
}

#[test]
fn syncsgd_mixed_plan_matches_its_golden_digest() {
    const CAP: usize = 600;
    const WORLD_MIXED: usize = 3;
    let grads_at = |rank: usize, step: usize| -> Vec<Tensor> {
        mixed_shapes()
            .iter()
            .enumerate()
            .map(|(layer, s)| {
                let n: usize = s.iter().product();
                let data = (0..n).map(|e| dense_value(rank, step, layer, e)).collect();
                Tensor::from_shape_vec(s.clone(), data).unwrap()
            })
            .collect()
    };
    let plan = BucketPlan::new(&grads_at(0, 0), CAP);
    let buckets: Vec<&[usize]> = (0..plan.num_buckets()).map(|b| plan.layers(b)).collect();
    assert_eq!(buckets, [&[6usize, 5, 4][..], &[3], &[2, 1], &[0]]);
    let runs = SimCluster::run(WORLD_MIXED, |w| {
        let rank = w.rank();
        let cfg = one(&MethodConfig::SyncSgd, capped(CAP, false), Lane::Inline);
        let mut eng = Exchanger::new(w, cfg).unwrap();
        (0..STEPS)
            .map(|step| {
                let grads = grads_at(rank, step);
                eng.exchange(&grads).unwrap()
            })
            .collect::<Vec<_>>()
    });
    assert_eq!(
        fnv1a(&runs),
        0xf06ba2fa5c148a9b,
        "syncSGD mixed-plan bits moved"
    );
}

/// The deprecated entry points are wrappers with no logic of their own:
/// each computes the same bits as the `Exchanger` config it wraps, for
/// every method at p = 3 over two steps. The benchmark crate is their only
/// other caller.
#[test]
#[allow(deprecated)]
fn deprecated_wrappers_match_their_exchanger_configs() {
    use gcs_ddp::exec::{exchange_gradients, exchange_gradients_with_plan};
    use gcs_ddp::{PipelineConfig, PipelinedEngine};
    const P: usize = 3;
    const MIB: usize = 1 << 20;
    let through = |cfg: ExchangeConfig| -> Vec<Vec<Vec<Tensor>>> {
        SimCluster::run(P, |w| {
            let rank = w.rank();
            let mut eng = Exchanger::new(w, cfg.clone()).unwrap();
            (0..STEPS)
                .map(|step| eng.exchange(&make_grads_at(rank, step)).unwrap())
                .collect()
        })
    };
    for method in registry() {
        let per_layer = SimCluster::run(P, |w| {
            let mut c = method.build().unwrap();
            (0..STEPS)
                .map(|step| exchange_gradients(&w, &mut c, &make_grads_at(w.rank(), step)).unwrap())
                .collect::<Vec<_>>()
        });
        let with_plan = SimCluster::run(P, |w| {
            let mut c = method.build().unwrap();
            let mut plan = BucketPlan::new(&make_grads_at(w.rank(), 0), MIB);
            (0..STEPS)
                .map(|step| {
                    let grads = make_grads_at(w.rank(), step);
                    exchange_gradients_with_plan(&w, &mut c, &grads, &mut plan).unwrap()
                })
                .collect::<Vec<_>>()
        });
        let pipelined = SimCluster::run(P, |w| {
            let rank = w.rank();
            let cfg = PipelineConfig {
                bucket_bytes: MIB,
                depth: 2,
                ..PipelineConfig::default()
            };
            let mut eng = PipelinedEngine::new(w, method.build().unwrap(), cfg).unwrap();
            let outs = (0..STEPS)
                .map(|step| eng.exchange(&make_grads_at(rank, step)).unwrap())
                .collect::<Vec<_>>();
            let _ = eng.into_parts();
            outs
        });
        let comm = Lane::Comm { depth: 2 };
        for (wrapper, cfg) in [
            (per_layer, ExchangeConfig::per_layer(method.clone())),
            (with_plan, one(&method, capped(MIB, false), Lane::Inline)),
            (pipelined, one(&method, capped(MIB, false), comm)),
        ] {
            assert_eq!(
                fnv1a(&wrapper),
                fnv1a(&through(cfg.clone())),
                "{method:?}: the wrapper of {cfg:?} deviates"
            );
        }
    }
}
