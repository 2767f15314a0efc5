//! Property tests of mid-run scheme switching at bucket boundaries:
//! forced switch scripts must keep gradients finite with bounded
//! error-feedback residuals, recorded decision traces must replay
//! bit-identically, and live modelled runs must be deterministic.

use gcs_cluster::cost::NetworkModel;
use gcs_cluster::SimCluster;
use gcs_compress::adaptive::{AdaptiveConfig, Decision, DecisionInputs};
use gcs_compress::driver::ResidualPolicy;
use gcs_compress::registry::MethodConfig;
use gcs_ddp::{Arms, ExchangeConfig, Exchanger, Lane, Plan};
use gcs_tensor::Tensor;

const WORLD: usize = 3;
const BUCKET_BYTES: usize = 8 * 1024;

/// SyncSGD plus two error-feedback schemes, so carry paths are real.
fn arms() -> Vec<MethodConfig> {
    vec![
        MethodConfig::SyncSgd,
        MethodConfig::EfSignSgd,
        MethodConfig::PowerSgd { rank: 2 },
    ]
}

/// Two layers that land in two distinct 8 KiB buckets.
fn grads_for(rank: usize, seed: u64) -> Vec<Tensor> {
    vec![
        Tensor::randn([48, 32], seed + rank as u64 * 131),
        Tensor::randn([40, 24], seed + 7 + rank as u64 * 131),
    ]
}

fn forced_script() -> Vec<Decision> {
    let d = |step: u32, bucket: u32, from: u32, to: u32| Decision {
        step,
        bucket,
        from,
        to,
        est_from_s: 0.0,
        est_to_s: 0.0,
        probe: false,
    };
    vec![
        d(1, 0, 0, 1), // SyncSGD → EF-SignSGD: nothing to carry
        d(2, 0, 1, 2), // EF-SignSGD → PowerSGD: carries sign residual
        d(2, 1, 0, 1),
        d(3, 0, 2, 1), // PowerSGD → EF-SignSGD: carries low-rank residual
        d(4, 1, 1, 0), // EF-SignSGD → SyncSGD: documented reset
    ]
}

#[test]
fn forced_switches_keep_gradients_finite_and_residuals_bounded() {
    let outs = SimCluster::run(WORLD, |worker| {
        let cfg = AdaptiveConfig::new(arms()).unwrap();
        let grads = grads_for(worker.rank(), 17);
        let exchange = ExchangeConfig {
            plan: Plan::Buckets {
                bytes: BUCKET_BYTES,
                matricize: true,
            },
            lane: Lane::Inline,
            arms: Arms::Adaptive {
                config: cfg,
                residual: ResidualPolicy::Carry,
                script: Some(forced_script()),
            },
        };
        let mut engine = Exchanger::new(worker, exchange).unwrap();
        for _ in 0..6 {
            let out = engine.exchange(&grads).unwrap();
            for g in &out {
                assert!(
                    g.data().iter().all(|x| x.is_finite()),
                    "non-finite gradient"
                );
            }
        }
        engine
            .switches()
            .iter()
            .map(|s| {
                (
                    s.decision.clone(),
                    s.outcome.carried,
                    s.outcome.residual_norm,
                )
            })
            .collect::<Vec<_>>()
    });
    let grad_norm_bound = 1e4;
    for switches in &outs {
        assert_eq!(switches.len(), forced_script().len());
        for (d, carried, norm) in switches {
            assert!(norm.is_finite() && *norm >= 0.0, "residual norm {norm}");
            assert!(*norm < grad_norm_bound, "unbounded residual: {norm}");
            // A carry happens exactly when the old arm holds a residual
            // (any EF scheme) AND the new arm can absorb one; SyncSGD on
            // either side means a documented no-carry.
            if d.from == 0 || d.to == 0 {
                assert!(!carried, "impossible carry reported: {d:?}");
            } else {
                assert!(*carried, "EF residual lost at switch: {d:?}");
            }
            // Any EF source must at least report what it held.
            if d.from != 0 {
                assert!(*norm > 0.0, "EF residual unexpectedly zero: {d:?}");
            }
        }
    }
    // The decision sequence is identical on every rank (residual norms
    // are per-rank: each rank compresses its own gradients).
    let decisions = |s: &[(Decision, bool, f64)]| -> Vec<Decision> {
        s.iter().map(|(d, _, _)| d.clone()).collect()
    };
    for o in &outs[1..] {
        assert_eq!(decisions(o), decisions(&outs[0]));
    }
}

#[test]
fn forced_script_outputs_match_their_golden_digest() {
    // Pins the output bits of the scripted run above — every rank, all six
    // steps — so the order in which the engine walks buckets and rounds
    // cannot change what a mixed-arm exchange computes.
    const GOLDEN: u64 = 0xf4c0f3f893e78e98;
    let outs = SimCluster::run(WORLD, |worker| {
        let cfg = AdaptiveConfig::new(arms()).unwrap();
        let grads = grads_for(worker.rank(), 17);
        let exchange = ExchangeConfig {
            plan: Plan::Buckets {
                bytes: BUCKET_BYTES,
                matricize: true,
            },
            lane: Lane::Inline,
            arms: Arms::Adaptive {
                config: cfg,
                residual: ResidualPolicy::Carry,
                script: Some(forced_script()),
            },
        };
        let mut engine = Exchanger::new(worker, exchange).unwrap();
        (0..6)
            .map(|_| engine.exchange(&grads).unwrap())
            .collect::<Vec<_>>()
    });
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for steps in &outs {
        for out in steps {
            for t in out {
                for x in t.data() {
                    for b in x.to_bits().to_le_bytes() {
                        hash ^= u64::from(b);
                        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
                    }
                }
            }
        }
    }
    assert_eq!(hash, GOLDEN, "forced-script exchange bits moved");
}

#[test]
fn reset_policy_documents_the_drop_instead_of_carrying() {
    let outs = SimCluster::run(WORLD, |worker| {
        let cfg = AdaptiveConfig::new(arms()).unwrap();
        let grads = grads_for(worker.rank(), 29);
        let exchange = ExchangeConfig {
            plan: Plan::Buckets {
                bytes: BUCKET_BYTES,
                matricize: true,
            },
            lane: Lane::Inline,
            arms: Arms::Adaptive {
                config: cfg,
                residual: ResidualPolicy::Reset,
                script: Some(forced_script()),
            },
        };
        let mut engine = Exchanger::new(worker, exchange).unwrap();
        for _ in 0..6 {
            let out = engine.exchange(&grads).unwrap();
            for g in &out {
                assert!(g.data().iter().all(|x| x.is_finite()));
            }
        }
        engine
            .switches()
            .iter()
            .map(|s| (s.outcome.carried, s.outcome.residual_norm))
            .collect::<Vec<_>>()
    });
    for switches in &outs {
        // Reset never injects into the new scheme, but still reports the
        // norm of what was dropped.
        assert!(switches.iter().all(|(carried, _)| !carried));
        assert!(switches.iter().any(|(_, norm)| *norm > 0.0));
    }
}

#[test]
fn recorded_trace_replays_bit_identically() {
    // Live run in measured mode: warm-up probes force real mid-run
    // switches whose schedule depends on nothing but the step counter.
    let live = SimCluster::run(WORLD, |worker| {
        let cfg = AdaptiveConfig::new(arms())
            .unwrap()
            .inputs(DecisionInputs::Measured)
            .warmup_steps(3);
        let grads = grads_for(worker.rank(), 41);
        let exchange = ExchangeConfig::adaptive(cfg, BUCKET_BYTES);
        let mut engine = Exchanger::new(worker, exchange).unwrap();
        let mut bits = Vec::new();
        for _ in 0..5 {
            let out = engine.exchange(&grads).unwrap();
            bits.push(
                out.iter()
                    .flat_map(|t| t.data().iter().map(|x| x.to_bits()))
                    .collect::<Vec<u32>>(),
            );
        }
        let c = engine.controller().unwrap();
        (bits, c.trace().to_vec())
    });
    let trace = live[0].1.clone();
    assert!(
        trace.iter().any(|d| d.step > 0),
        "warm-up must have produced mid-run switches"
    );

    let replay = SimCluster::run(WORLD, {
        let trace = trace.clone();
        move |worker| {
            let cfg = AdaptiveConfig::new(arms())
                .unwrap()
                .inputs(DecisionInputs::Measured)
                .warmup_steps(3);
            let grads = grads_for(worker.rank(), 41);
            let exchange = ExchangeConfig {
                plan: Plan::Buckets {
                    bytes: BUCKET_BYTES,
                    matricize: true,
                },
                lane: Lane::Inline,
                arms: Arms::Adaptive {
                    config: cfg,
                    residual: ResidualPolicy::Carry,
                    script: Some(trace.clone()),
                },
            };
            let mut engine = Exchanger::new(worker, exchange).unwrap();
            let mut bits = Vec::new();
            for _ in 0..5 {
                let out = engine.exchange(&grads).unwrap();
                bits.push(
                    out.iter()
                        .flat_map(|t| t.data().iter().map(|x| x.to_bits()))
                        .collect::<Vec<u32>>(),
                );
            }
            let c = engine.controller().unwrap();
            (bits, c.trace().to_vec())
        }
    });
    for (l, r) in live.iter().zip(&replay) {
        assert_eq!(l.0, r.0, "replayed gradients must be bit-identical");
        assert_eq!(l.1, r.1, "replayed trace must match the recording");
    }
}

#[test]
fn modelled_decision_traces_are_deterministic_across_runs() {
    let run = || {
        SimCluster::run(WORLD, |worker| {
            let cfg = AdaptiveConfig::new(arms())
                .unwrap()
                .link(NetworkModel::from_gbps(15e-6, 0.1));
            let grads = grads_for(worker.rank(), 53);
            let exchange = ExchangeConfig::adaptive(cfg, BUCKET_BYTES);
            let mut engine = Exchanger::new(worker, exchange).unwrap();
            for _ in 0..4 {
                engine.exchange(&grads).unwrap();
            }
            let c = engine.controller().unwrap();
            let assignment: Vec<usize> = (0..c.num_buckets()).map(|b| c.arm_of(b)).collect();
            (assignment, c.trace().to_vec())
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "modelled runs must be reproducible");
    for o in &a[1..] {
        assert_eq!(o, &a[0], "ranks must agree");
    }
}
