//! The adaptive controller under the deterministic fault plane:
//! delay-injected links make every wire byte expensive, which the
//! measured-mode bandwidth inversion must translate into a move toward
//! higher compression — reproducibly under a fixed `GCS_FAULT_SEED`.

use std::time::Duration;

use gcs_cluster::{FaultPlan, SimCluster};
use gcs_compress::adaptive::{AdaptiveConfig, DecisionInputs};
use gcs_compress::registry::MethodConfig;
use gcs_ddp::{ExchangeConfig, Exchanger};
use gcs_tensor::Tensor;

const WORLD: usize = 4;
const BUCKET_BYTES: usize = 8 * 1024;
const STEPS: usize = 8;

/// Seed for the fault plane; overridable so CI can sweep seeds.
fn seed_from_env() -> u64 {
    std::env::var("GCS_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x00C0_FFEE)
}

fn arms() -> Vec<MethodConfig> {
    vec![
        MethodConfig::SyncSgd,
        MethodConfig::PowerSgd { rank: 2 },
        MethodConfig::TopK { ratio: 0.01 },
    ]
}

fn grads_for(rank: usize, seed: u64) -> Vec<Tensor> {
    vec![
        Tensor::randn([48, 32], seed + rank as u64 * 131),
        Tensor::randn([40, 24], seed + 7 + rank as u64 * 131),
    ]
}

type RankOutcome = ((Vec<usize>, Vec<(u32, u32, u32, u32)>), Option<f64>);

/// Runs a measured-mode adaptive session under `plan` and returns each
/// rank's `((final assignment, decision trace as (step, bucket, from,
/// to)), bandwidth estimate)`. The first component is broadcast-driven
/// and identical across ranks; the bandwidth estimate comes from each
/// rank's own timers.
fn run_measured(plan: FaultPlan) -> Vec<RankOutcome> {
    let (outs, _events) = SimCluster::run_with_faults(WORLD, plan, |worker| {
        let cfg = AdaptiveConfig::new(arms())
            .unwrap()
            .inputs(DecisionInputs::Measured)
            .warmup_steps(3);
        let grads = grads_for(worker.rank(), 61);
        let exchange = ExchangeConfig::adaptive(cfg, BUCKET_BYTES);
        let mut engine = Exchanger::new(worker, exchange).unwrap();
        for _ in 0..STEPS {
            let out = engine.exchange(&grads).unwrap();
            for g in &out {
                assert!(g.data().iter().all(|x| x.is_finite()));
            }
        }
        let c = engine.controller().unwrap();
        let assignment: Vec<usize> = (0..c.num_buckets()).map(|b| c.arm_of(b)).collect();
        let trace: Vec<(u32, u32, u32, u32)> = c
            .trace()
            .iter()
            .map(|d| (d.step, d.bucket, d.from, d.to))
            .collect();
        ((assignment, trace), c.bandwidth_estimate())
    });
    outs
}

#[test]
fn delay_injected_links_steer_toward_higher_compression() {
    let seed = seed_from_env();
    let plan = FaultPlan::new(seed).delay_jitter(Duration::from_millis(2));
    let outs = run_measured(plan);
    for ((assignment, trace), _) in &outs {
        // A 2 ms per-frame tax dwarfs every encode cost; the inverted
        // bandwidth estimate must push each bucket off raw SyncSGD.
        assert!(
            assignment.iter().all(|&a| a != 0),
            "bucket left uncompressed on a delayed link: {assignment:?} ({trace:?})"
        );
    }
    // Every rank replayed rank 0's decisions exactly.
    for (o, _) in &outs[1..] {
        assert_eq!(o, &outs[0].0);
    }
}

#[test]
fn steering_reproduces_under_a_fixed_fault_seed() {
    let seed = seed_from_env();
    let mk = || FaultPlan::new(seed).delay_jitter(Duration::from_millis(2));
    let a = run_measured(mk());
    let b = run_measured(mk());
    // Wall-clock jitter may reorder estimates between equally-compressed
    // arms, but the *steering* — which buckets abandon SyncSGD — is a
    // property of the injected delays, which the seed fixes.
    let off_sync =
        |outs: &[RankOutcome]| -> Vec<bool> { outs[0].0 .0.iter().map(|&arm| arm != 0).collect() };
    assert_eq!(off_sync(&a), off_sync(&b));
    assert!(off_sync(&a).iter().all(|&moved| moved));
    // Within one run the ranks always agree, faults or not.
    for (o, _) in &a[1..] {
        assert_eq!(o, &a[0].0);
    }
    for (o, _) in &b[1..] {
        assert_eq!(o, &b[0].0);
    }
}

#[test]
fn delay_injection_collapses_the_bandwidth_estimate() {
    // Control experiment: the *reason* the controller compresses under
    // delay is the online inversion — the same workload must look like a
    // far slower link when frames are taxed 0–2 ms each. (The clean
    // in-process assignment itself is not asserted: even a clean channel
    // charges per-hop wakeups, which can legitimately favour a gather.)
    let seed = seed_from_env();
    let clean = run_measured(FaultPlan::new(seed));
    let delayed = run_measured(FaultPlan::new(seed).delay_jitter(Duration::from_millis(2)));
    for ((_, clean_bw), (_, delayed_bw)) in clean.iter().zip(&delayed) {
        let clean_bw = clean_bw.expect("clean run observed ring traffic");
        let delayed_bw = delayed_bw.expect("delayed run observed ring traffic");
        assert!(
            clean_bw > 5.0 * delayed_bw,
            "delay tax invisible to inversion: clean {clean_bw:.3e} vs delayed {delayed_bw:.3e} B/s"
        );
    }
}
