//! Delay-only faults must be invisible to the math: frames arrive late
//! but intact and in order, so both the sequential and the pipelined
//! engine must produce bit-identical results to a clean cluster for every
//! method in the registry.

use std::time::Duration;

use gcs_cluster::{FaultKind, FaultPlan, SimCluster};
use gcs_compress::registry::MethodConfig;
use gcs_ddp::{Arms, ExchangeConfig, Exchanger, Lane, Plan};
use gcs_tensor::Tensor;

const WORLD: usize = 4;

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

fn make_grads(rank: usize) -> Vec<Tensor> {
    [vec![6usize, 10], vec![33], vec![4, 4, 3, 3]]
        .iter()
        .enumerate()
        .map(|(l, s)| Tensor::randn(s.clone(), 42 + (rank * 131 + l) as u64))
        .collect()
}

/// `method` on one bucket holding the whole model, on `lane`.
fn one_bucket(method: &MethodConfig, lane: Lane) -> ExchangeConfig {
    ExchangeConfig {
        plan: Plan::Buckets {
            bytes: usize::MAX,
            matricize: false,
        },
        lane,
        arms: Arms::One(method.clone()),
    }
}

fn sequential_exchange(w: gcs_cluster::WorkerHandle, method: &MethodConfig) -> Vec<Tensor> {
    let grads = make_grads(w.rank());
    let mut eng = Exchanger::new(w, one_bucket(method, Lane::Inline)).unwrap();
    eng.exchange(&grads).unwrap()
}

fn pipelined_exchange(w: gcs_cluster::WorkerHandle, method: &MethodConfig) -> Vec<Tensor> {
    let grads = make_grads(w.rank());
    let mut eng = Exchanger::new(w, one_bucket(method, Lane::Comm { depth: 2 })).unwrap();
    let out = eng.exchange(&grads).unwrap();
    let _ = eng.into_parts();
    out
}

fn assert_bitwise_eq(a: &[Vec<Tensor>], b: &[Vec<Tensor>], method: &MethodConfig, what: &str) {
    for (rank, (x, y)) in a.iter().zip(b).enumerate() {
        for (layer, (s, p)) in x.iter().zip(y).enumerate() {
            let sb: Vec<u32> = s.data().iter().map(|v| v.to_bits()).collect();
            let pb: Vec<u32> = p.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                sb, pb,
                "{method:?} worker {rank} layer {layer}: {what} deviates under delay-only faults"
            );
        }
    }
}

#[test]
fn delay_only_faults_leave_both_engines_bit_identical_for_every_method() {
    let plan = FaultPlan::new(0xD31A).delay_jitter(Duration::from_micros(200));
    for method in registry() {
        let clean = SimCluster::run(WORLD, |w| sequential_exchange(w, &method));

        let (delayed_seq, events) =
            SimCluster::run_with_faults(WORLD, plan.clone(), |w| sequential_exchange(w, &method));
        assert!(
            !events.is_empty(),
            "{method:?}: the plan must actually inject delays"
        );
        assert!(
            events
                .iter()
                .all(|e| matches!(e.kind, FaultKind::Delay { .. })),
            "{method:?}: a delay-only plan must log only Delay events"
        );

        let (delayed_pipe, _) =
            SimCluster::run_with_faults(WORLD, plan.clone(), |w| pipelined_exchange(w, &method));

        assert_bitwise_eq(&clean, &delayed_seq, &method, "sequential engine");
        assert_bitwise_eq(&clean, &delayed_pipe, &method, "pipelined engine");
    }
}
