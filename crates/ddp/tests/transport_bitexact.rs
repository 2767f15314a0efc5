//! The TCP backend must be math-invisible: for every method in the
//! registry, both the sequential and the pipelined engine must produce
//! results over real loopback sockets that are bit-identical to the
//! deterministic [`SimCluster`] reference — clean and under a delay-only
//! fault plan (seeded from `GCS_FAULT_SEED` so CI sweeps seeds).

use std::time::Duration;

use gcs_cluster::{FaultPlan, SimCluster, TcpCluster};
use gcs_compress::registry::MethodConfig;
use gcs_ddp::{Arms, ExchangeConfig, Exchanger, Lane, Plan};
use gcs_tensor::Tensor;

const WORLD: usize = 4;

/// Seed for the faulted comparison; overridable so CI can sweep seeds.
fn seed_from_env() -> u64 {
    std::env::var("GCS_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x7C9_B17)
}

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

fn assert_bitwise_eq(sim: &[Vec<Tensor>], tcp: &[Vec<Tensor>], method: &MethodConfig, what: &str) {
    for (rank, (x, y)) in sim.iter().zip(tcp).enumerate() {
        assert_eq!(x.len(), y.len(), "{method:?} worker {rank}: layer count");
        for (layer, (s, t)) in x.iter().zip(y).enumerate() {
            let sb: Vec<u32> = s.data().iter().map(|v| v.to_bits()).collect();
            let tb: Vec<u32> = t.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                sb, tb,
                "{method:?} worker {rank} layer {layer}: {what} over TCP deviates from sim"
            );
        }
    }
}

#[test]
fn tcp_backend_is_bit_identical_to_sim_for_every_method() {
    for method in registry() {
        let sim_seq = SimCluster::run(WORLD, |w| sequential_exchange(w, &method));
        let tcp_seq =
            TcpCluster::run(WORLD, |w| sequential_exchange(w, &method)).expect("tcp mesh");
        assert_bitwise_eq(&sim_seq, &tcp_seq, &method, "sequential engine");

        let sim_pipe = SimCluster::run(WORLD, |w| pipelined_exchange(w, &method));
        let tcp_pipe =
            TcpCluster::run(WORLD, |w| pipelined_exchange(w, &method)).expect("tcp mesh");
        assert_bitwise_eq(&sim_pipe, &tcp_pipe, &method, "pipelined engine");
    }
}

#[test]
fn tcp_backend_stays_bit_identical_under_delay_faults() {
    // Real sockets + receiver-side delay injection: late frames must
    // still arrive intact and in per-peer order, so every method's
    // sequential exchange stays pinned to the clean sim reference.
    let plan = FaultPlan::new(seed_from_env()).delay_jitter(Duration::from_micros(200));
    for method in registry() {
        let reference = SimCluster::run(WORLD, |w| sequential_exchange(w, &method));
        let (tcp_delayed, _) =
            TcpCluster::run_with_faults(WORLD, plan.clone(), |w| sequential_exchange(w, &method))
                .expect("tcp mesh");
        assert_bitwise_eq(&reference, &tcp_delayed, &method, "sequential engine");
    }
}
