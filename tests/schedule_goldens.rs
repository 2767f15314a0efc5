//! Bit-level pins of the simulated iteration and of DDP bucketing.
//!
//! The event simulator, the Figure-2 trace and the §4 closed form are
//! pinned by FNV-1a digests over a grid of 2 400 configurations: every
//! catalogue method × five models × p ∈ {1, 2, 8, 96} × sequential and
//! overlapped compression × ring and double-tree all-reduce × 1 MiB and
//! 25 MiB buckets. A digest covers the bits of every `IterationBreakdown`
//! field, every `TraceEvent` (stream, label, start and end bits) and every
//! `Prediction` of `predict_iteration` and `predict_generic_overlapped`.
//!
//! The real engines' `BucketPlan` and the simulator's `partition` must
//! group the same layers into the same buckets.

use gradcomp::compress::registry::MethodConfig;
use gradcomp::core::perf::{predict_generic_overlapped, predict_iteration, Prediction};
use gradcomp::ddp::exec::BucketPlan;
use gradcomp::ddp::sim::{simulate_iteration, AllReduceAlgo, SimConfig};
use gradcomp::ddp::trace::{trace_iteration, Stream};
use gradcomp::models::buckets::partition;
use gradcomp::models::{presets, LayerSpec, ModelSpec};
use gradcomp::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MIB: usize = 1 << 20;

/// Every variant of `MethodConfig`, with the paper's parameters.
fn methods() -> Vec<MethodConfig> {
    vec![
        MethodConfig::SyncSgd,
        MethodConfig::Fp16,
        MethodConfig::PowerSgd { rank: 4 },
        MethodConfig::TopK { ratio: 0.01 },
        MethodConfig::SignSgd,
        MethodConfig::EfSignSgd,
        MethodConfig::Qsgd { levels: 15 },
        MethodConfig::TernGrad,
        MethodConfig::RandomK { ratio: 0.01 },
        MethodConfig::Atomo { rank: 4 },
        MethodConfig::OneBit,
        MethodConfig::Sketch { block: 8 },
        MethodConfig::Dgc { ratio: 0.001 },
        MethodConfig::Variance { kappa: 1.0 },
        MethodConfig::Natural,
    ]
}

/// FNV-1a 64.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.bytes(&x.to_bits().to_le_bytes());
    }

    fn prediction(&mut self, p: &Prediction) {
        for x in [p.t_comp_s, p.t_encdec_s, p.t_comm_s, p.total_s] {
            self.f64(x);
        }
    }
}

/// Every configuration of the grid, in a fixed order.
fn grid() -> Vec<SimConfig> {
    let mut models = presets::paper_models();
    models.push(presets::vgg16());
    models.push(presets::tiny_mlp(64, 128, 10));
    let mut cfgs = Vec::new();
    for method in methods() {
        for model in &models {
            for p in [1usize, 2, 8, 96] {
                for overlap in [false, true] {
                    for algo in [AllReduceAlgo::Ring, AllReduceAlgo::DoubleTree] {
                        for cap in [MIB, 25 * MIB] {
                            cfgs.push(
                                SimConfig::new(model.clone(), p)
                                    .method(method.clone())
                                    .overlap_compression(overlap)
                                    .allreduce(algo)
                                    .bucket_bytes(cap),
                            );
                        }
                    }
                }
            }
        }
    }
    cfgs
}

#[test]
fn simulated_schedules_and_predictions_match_their_golden_digests() {
    let cfgs = grid();
    assert_eq!(cfgs.len(), 2400);
    let (mut sim, mut trace, mut model) = (Fnv::new(), Fnv::new(), Fnv::new());
    for cfg in &cfgs {
        let b = simulate_iteration(cfg);
        for x in [
            b.backward_s,
            b.encode_decode_s,
            b.comm_s,
            b.exposed_comm_s,
            b.total_s,
        ] {
            sim.f64(x);
        }
        sim.bytes(&(b.wire_bytes as u64).to_le_bytes());
        for e in trace_iteration(cfg) {
            trace.bytes(&[match e.stream {
                Stream::Compute => 0,
                Stream::Comm => 1,
            }]);
            trace.bytes(e.label.as_bytes());
            trace.f64(e.start_s);
            trace.f64(e.end_s);
        }
        model.prediction(&predict_iteration(cfg));
        model.prediction(&predict_generic_overlapped(cfg));
    }
    assert_eq!(sim.0, 0x6269_76a1_4e20_ede5, "breakdown digest moved");
    assert_eq!(trace.0, 0xb580_4ffb_9abf_c401, "trace digest moved");
    assert_eq!(model.0, 0x6770_8878_cf16_4175, "prediction digest moved");
}

/// A model whose layers have exactly these element counts.
fn model_of(elems: &[usize]) -> ModelSpec {
    let layers = elems
        .iter()
        .enumerate()
        .map(|(i, &n)| LayerSpec::new(format!("layer{i}"), [n]))
        .collect();
    ModelSpec::new("layers", layers, 1.0)
}

/// Checks that `BucketPlan` and `partition` group `elems` alike at `cap`.
///
/// The one tolerated difference: `partition` may drop a trailing bucket
/// of zero bytes (zero-element layers left after an oversized layer was
/// closed off), where `BucketPlan` keeps those layers in a bucket of
/// their own.
fn assert_same_groups(elems: &[usize], cap: usize) {
    let grads: Vec<Tensor> = elems.iter().map(|&n| Tensor::zeros([n])).collect();
    let plan = BucketPlan::new(&grads, cap);
    let planned: Vec<Vec<usize>> = (0..plan.num_buckets())
        .map(|b| plan.layers(b).to_vec())
        .collect();
    let parted: Vec<Vec<usize>> = partition(&model_of(elems), cap)
        .into_iter()
        .map(|b| b.layers)
        .collect();
    if planned.len() == parted.len() + 1 {
        let last = planned.last().expect("a plan with a bucket");
        assert!(
            last.iter().all(|&i| elems[i] == 0),
            "{elems:?} cap {cap}: partition dropped a bucket with bytes"
        );
        assert_eq!(planned[..parted.len()], parted[..], "{elems:?} cap {cap}");
    } else {
        assert_eq!(planned, parted, "{elems:?} cap {cap}");
    }
}

fn elems_of(model: &ModelSpec) -> Vec<usize> {
    model.layers.iter().map(LayerSpec::params).collect()
}

#[test]
fn bucket_plan_groups_layers_like_partition() {
    for model in [
        presets::resnet50(),
        presets::resnet101(),
        presets::tiny_mlp(64, 128, 10),
    ] {
        for cap in [MIB, 25 * MIB] {
            assert_same_groups(&elems_of(&model), cap);
        }
    }
    // The benchmark's two MLPs: [hidden×dim, hidden, classes×hidden, classes].
    for (dim, hidden, classes) in [(1024, 1024, 16), (256, 512, 10)] {
        let elems = [hidden * dim, hidden, classes * hidden, classes];
        for cap in [1, 4, 4 * hidden, MIB, usize::MAX] {
            assert_same_groups(&elems, cap);
        }
    }
    // A zero-element layer left behind an oversized one.
    assert_same_groups(&[0, 100], 16);
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for _ in 0..500 {
        let n = rng.gen_range(1usize..12);
        let elems: Vec<usize> = (0..n)
            .map(|_| {
                if rng.gen_range(0u32..4) == 0 {
                    0
                } else {
                    rng.gen_range(1usize..2000)
                }
            })
            .collect();
        let cap = [4, 64, 400, 4096, usize::MAX][rng.gen_range(0usize..5)];
        assert_same_groups(&elems, cap);
    }
}
