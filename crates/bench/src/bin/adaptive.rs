//! Adaptive-controller benchmark: the online Equation-1 controller vs.
//! every fixed scheme across emulated bandwidth regimes, writing
//! `BENCH_adaptive.json` at the repo root.
//!
//! For each regime (slow WAN-ish link → fast datacenter link) the same
//! gradient workload runs through an adaptive [`Exchanger`] five ways: the live
//! controller (twice — the decision traces must be bit-identical), and
//! once per arm pinned as a single-arm config. Pinned runs use the
//! identical engine and per-step decision broadcast, so the comparison
//! isolates exactly one variable: who picks the scheme.
//!
//! Two timing views per run:
//!
//! * `modelled_step_ms` — the controller's Equation-1 estimate under the
//!   regime's link parameters. Deterministic; this is what the report's
//!   acceptance summary is computed from.
//! * `measured_step_ms` — wall clock per step over the [`NetEmu`]-paced
//!   cluster. Machine-dependent; recorded for honesty, never gated.
//!
//! Run with `cargo run -p gcs-bench --bin adaptive --release`. Set
//! `GCS_BENCH_SMOKE=1` for a seconds-long CI smoke run (tiny tensors; the
//! tracked JSON is not rewritten unless `GCS_BENCH_OUT` redirects it).

use std::time::Instant;

use gcs_cluster::cost::NetworkModel;
use gcs_cluster::{NetEmu, SimCluster, WorkerHandle};
use gcs_compress::adaptive::{AdaptiveConfig, Decision};
use gcs_compress::registry::MethodConfig;
use gcs_ddp::{ExchangeConfig, Exchanger};
use gcs_tensor::Tensor;
use serde_json::{json, Value};

/// One emulated bandwidth regime.
struct Regime {
    name: &'static str,
    latency_us: f64,
    gbps: f64,
}

const REGIMES: [Regime; 3] = [
    Regime {
        name: "slow",
        latency_us: 50.0,
        gbps: 0.05,
    },
    Regime {
        name: "medium",
        latency_us: 25.0,
        gbps: 0.5,
    },
    Regime {
        name: "fast",
        latency_us: 15.0,
        gbps: 5.0,
    },
];

fn arms() -> Vec<MethodConfig> {
    vec![
        MethodConfig::SyncSgd,
        MethodConfig::PowerSgd { rank: 4 },
        MethodConfig::TopK { ratio: 0.01 },
    ]
}

struct BenchParams {
    world: usize,
    layer_shapes: Vec<Vec<usize>>,
    bucket_bytes: usize,
    steps: usize,
}

fn params(smoke: bool) -> BenchParams {
    if smoke {
        BenchParams {
            world: 2,
            layer_shapes: vec![vec![32, 32], vec![16, 16]],
            bucket_bytes: 2 * 1024,
            steps: 3,
        }
    } else {
        BenchParams {
            world: 4,
            // ~80 KB of gradients in three 32 KiB buckets: enough wire
            // traffic that the slow regime meaningfully separates the
            // schemes, small enough to bench in seconds.
            layer_shapes: vec![vec![128, 128], vec![64, 64]],
            bucket_bytes: 32 * 1024,
            steps: 12,
        }
    }
}

fn grads_for(rank: usize, shapes: &[Vec<usize>]) -> Vec<Tensor> {
    shapes
        .iter()
        .enumerate()
        .map(|(l, s)| Tensor::randn(s.clone(), 1000 + (rank * 131 + l) as u64))
        .collect()
}

struct RunOutcome {
    modelled_step_s: f64,
    measured_step_s: f64,
    assignment: Vec<usize>,
    trace: Vec<Decision>,
    switches: usize,
}

/// Runs `steps` adaptive exchanges over a NetEmu-paced cluster and
/// returns rank 0's controller view plus measured wall time per step.
fn run_engine(regime: &Regime, scheme_arms: Vec<MethodConfig>, bp: &BenchParams) -> RunOutcome {
    let netem = NetEmu::from_gbps(regime.latency_us, regime.gbps);
    let link = NetworkModel::from_gbps(regime.latency_us * 1e-6, regime.gbps);
    let shapes = bp.layer_shapes.clone();
    let bucket_bytes = bp.bucket_bytes;
    let steps = bp.steps;
    let mut outs = SimCluster::run_with_netem(bp.world, netem, move |worker: WorkerHandle| {
        let cfg = AdaptiveConfig::new(scheme_arms.clone())
            .expect("config")
            .link(link);
        let grads = grads_for(worker.rank(), &shapes);
        let exchange = ExchangeConfig::adaptive(cfg, bucket_bytes);
        let mut engine = Exchanger::new(worker, exchange).expect("engine");
        // Untimed warmup exchange: builds the plan, runs tune_initial.
        engine.exchange(&grads).expect("warmup exchange");
        let started = Instant::now();
        for _ in 0..steps {
            engine.exchange(&grads).expect("exchange");
        }
        let measured_step_s = started.elapsed().as_secs_f64() / steps as f64;
        let c = engine.controller().expect("initialized");
        RunOutcome {
            modelled_step_s: c.step_estimate(),
            measured_step_s,
            assignment: (0..c.num_buckets()).map(|b| c.arm_of(b)).collect(),
            trace: c.trace().to_vec(),
            switches: engine.switches().len(),
        }
    });
    outs.swap_remove(0)
}

fn decisions_json(trace: &[Decision]) -> Vec<Value> {
    trace
        .iter()
        .map(|d| {
            json!({
                "step": d.step,
                "bucket": d.bucket,
                "from": d.from,
                "to": d.to,
                "est_from_s": d.est_from_s,
                "est_to_s": d.est_to_s,
                "probe": d.probe,
            })
        })
        .collect()
}

fn main() {
    let smoke = std::env::var_os("GCS_BENCH_SMOKE").is_some();
    let bp = params(smoke);
    println!(
        "adaptive controller benchmark{}: p={} bucket {} KiB",
        if smoke { " (smoke)" } else { "" },
        bp.world,
        bp.bucket_bytes / 1024,
    );

    let mut rows = Vec::new();
    let mut summaries = Vec::new();
    let mut traces = Vec::new();
    for regime in &REGIMES {
        // The controller, twice: decision traces must be reproducible.
        let adaptive = run_engine(regime, arms(), &bp);
        let replayed = run_engine(regime, arms(), &bp);
        assert_eq!(
            adaptive.trace, replayed.trace,
            "controller decision trace must be deterministic (regime {})",
            regime.name
        );

        let mut fixed = Vec::new();
        for arm in arms() {
            let name = gcs_bench::method_name(&arm);
            let out = run_engine(regime, vec![arm], &bp);
            fixed.push((name, out));
        }

        let best = fixed
            .iter()
            .map(|(_, o)| o.modelled_step_s)
            .fold(f64::INFINITY, f64::min);
        let worst = fixed
            .iter()
            .map(|(_, o)| o.modelled_step_s)
            .fold(0.0, f64::max);
        println!(
            "{:<7} adaptive {:>8.3} ms (measured {:>8.3} ms)  best fixed {:>8.3} ms  worst fixed {:>8.3} ms  assignment {:?}",
            regime.name,
            adaptive.modelled_step_s * 1e3,
            adaptive.measured_step_s * 1e3,
            best * 1e3,
            worst * 1e3,
            adaptive.assignment,
        );

        for (scheme, out) in std::iter::once(("adaptive".to_owned(), &adaptive))
            .chain(fixed.iter().map(|(n, o)| (n.clone(), o)))
        {
            rows.push(json!({
                "regime": regime.name,
                "gbps": regime.gbps,
                "latency_us": regime.latency_us,
                "workers": bp.world,
                "scheme": scheme,
                "modelled_step_ms": out.modelled_step_s * 1e3,
                "measured_step_ms": out.measured_step_s * 1e3,
                "assignment": out.assignment.clone(),
                "switches": out.switches,
            }));
        }
        summaries.push(json!({
            "regime": regime.name,
            "gbps": regime.gbps,
            "adaptive_ms": adaptive.modelled_step_s * 1e3,
            "best_fixed_ms": best * 1e3,
            "worst_fixed_ms": worst * 1e3,
            "vs_best": adaptive.modelled_step_s / best,
            "vs_worst": worst / adaptive.modelled_step_s,
        }));
        traces.push(json!({
            "regime": regime.name,
            "decisions": decisions_json(&adaptive.trace),
        }));

        // Acceptance gates (modelled, hence machine-independent): the
        // controller tracks the best fixed scheme within 5% everywhere.
        assert!(
            adaptive.modelled_step_s <= 1.05 * best,
            "regime {}: adaptive {:.4e}s worse than best fixed {:.4e}s + 5%",
            regime.name,
            adaptive.modelled_step_s,
            best
        );
    }
    // ... and beats the worst fixed scheme >= 1.3x somewhere.
    let max_vs_worst = summaries
        .iter()
        .map(|s| s["vs_worst"].as_f64().unwrap_or(0.0))
        .fold(0.0, f64::max);
    assert!(
        max_vs_worst >= 1.3,
        "controller never beat the worst fixed scheme 1.3x (max {max_vs_worst:.2}x)"
    );

    let mut metadata = gcs_bench::metadata(smoke);
    if let Value::Object(fields) = &mut metadata {
        fields.push(("decision_traces".to_owned(), Value::Array(traces)));
    }
    let report: Value = json!({
        "bench": "adaptive",
        "smoke": smoke,
        "arms": arms().iter().map(gcs_bench::method_name).collect::<Vec<_>>(),
        "metadata": metadata,
        "summary": summaries,
        "rows": rows,
    });
    gcs_bench::write_report("adaptive", &report, smoke);
}
