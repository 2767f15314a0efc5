//! Pipelined-exchange benchmark: sequential vs. pipelined bucket exchange
//! over an emulated α–β network, writing `BENCH_pipeline.json` at the repo
//! root.
//!
//! Both engines run the identical compressed exchange (same bucket plan,
//! same matricized bucket shapes, same plain-ring collectives); the only
//! difference is the schedule. The sequential engine encodes a bucket,
//! blocks inside its collective, absorbs, then moves on; the pipelined
//! engine ships each bucket's collective to a dedicated comm thread so it
//! overlaps the next bucket's encode. The network is emulated ([`NetEmu`]) — frames are paced by latency +
//! bytes/bandwidth while the receiver sleeps — so the overlap is a genuine
//! wall-clock win even on a single core: encode CPU fills the windows
//! where the sequential engine would sleep in a collective.
//!
//! The emulated link is deliberately slow (0.2 Gbit/s, 25 µs) relative to
//! the paper's 10 Gbit/s: a lone CPU core encodes roughly three orders of
//! magnitude slower than a V100, so the network is scaled down by a
//! similar factor to keep the comm/compute ratio representative.
//!
//! Besides the headline per-engine medians, every configuration also
//! emits a per-engine phase breakdown row (`encode_ms` / `comm_ms` /
//! `decode_ms` / `exposed_wait_ms`) so a weak speedup is diagnosable:
//! `exposed_wait_ms` is the caller-blocked wait the schedule failed to
//! hide, and `comm_ms` for the pipelined engine is wire-busy time measured
//! on the comm thread itself.
//!
//! Run with `cargo run -p gcs-bench --bin pipeline --release`. Set
//! `GCS_BENCH_SMOKE=1` for a seconds-long CI smoke run (tiny model, one
//! iteration — timings meaningless, only the plumbing is exercised).

use gcs_bench::timing::black_box;
use gcs_cluster::{NetEmu, SimCluster};
use gcs_compress::registry::MethodConfig;
use gcs_ddp::exec::{exchange_gradients_with_plan, BucketPlan, BucketTiming};
use gcs_ddp::{PipelineConfig, PipelinedEngine};
use gcs_tensor::Tensor;
use serde_json::{json, Value};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Engine {
    Sequential,
    Pipelined,
}

impl Engine {
    fn name(self) -> &'static str {
        match self {
            Engine::Sequential => "sequential",
            Engine::Pipelined => "pipelined",
        }
    }
}

struct BenchParams {
    worlds: Vec<usize>,
    layer_shapes: Vec<Vec<usize>>,
    /// Paired engine measurements per configuration.
    trials: usize,
    /// Timed exchanges per measurement (one untimed warmup precedes them).
    inner: usize,
}

fn params(smoke: bool) -> BenchParams {
    if smoke {
        BenchParams {
            worlds: vec![2],
            layer_shapes: vec![vec![32, 32, 3, 3], vec![64, 64], vec![100]],
            trials: 1,
            inner: 1,
        }
    } else {
        BenchParams {
            // A ~4.2M-parameter conv-style stack: enough buckets for the
            // pipeline to fill, small enough to bench in seconds.
            worlds: vec![4, 8],
            layer_shapes: vec![
                vec![64, 64, 3, 3],
                vec![64],
                vec![128, 128, 3, 3],
                vec![128],
                vec![256, 256, 3, 3],
                vec![256],
                vec![512, 512, 3, 3],
                vec![512],
                vec![512, 1024],
                vec![1000, 512],
                vec![1000],
            ],
            trials: 5,
            inner: 2,
        }
    }
}

/// Benchmarked methods, each with a bucket size and an emulated link speed.
///
/// The bucket cap is a real DDP tuning knob (PyTorch's comm hooks pick
/// bucket caps per algorithm): Top-K and SignSGD ship large payloads whose
/// emulated transfers are best amortized over a few big buckets, while on
/// one core many small transfers tax the pipelined engine with per-step
/// scheduling latency.
///
/// The link speed is chosen *per method* so that emulated communication
/// time is comparable to the single-core encode time — the regime where
/// overlap matters and where the paper's analysis lives. The speeds are
/// not comparable across methods: PowerSGD compresses ~100× harder than
/// Top-K 5%, so it only reaches the balanced regime on a link ~100×
/// slower. (A lone CPU core also encodes orders of magnitude slower than
/// the paper's V100s, which is why all the links are far below 10 Gbit/s.)
fn methods(smoke: bool) -> Vec<(MethodConfig, usize, NetEmu)> {
    if smoke {
        let link = NetEmu::from_gbps(5.0, 2.0);
        return vec![
            (MethodConfig::PowerSgd { rank: 16 }, 16 * 1024, link),
            (MethodConfig::TopK { ratio: 0.05 }, 16 * 1024, link),
            (MethodConfig::SignSgd, 16 * 1024, link),
        ];
    }
    vec![
        (
            MethodConfig::PowerSgd { rank: 16 },
            4 * 1024 * 1024,
            NetEmu::from_gbps(25.0, 0.006),
        ),
        (
            MethodConfig::TopK { ratio: 0.05 },
            4 * 1024 * 1024,
            NetEmu::from_gbps(25.0, 0.2),
        ),
        (
            MethodConfig::SignSgd,
            4 * 1024 * 1024,
            NetEmu::from_gbps(25.0, 0.2),
        ),
    ]
}

fn make_grads(rank: usize, shapes: &[Vec<usize>]) -> Vec<Tensor> {
    shapes
        .iter()
        .enumerate()
        .map(|(l, s)| Tensor::randn(s.clone(), 7 + (rank * 257 + l) as u64))
        .collect()
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// Per-exchange phase breakdown in milliseconds:
/// `[encode, comm, decode, exposed_wait]`.
type Breakdown = [f64; 4];

fn sum_timings(timings: &[BucketTiming], comm_ms: f64) -> Breakdown {
    let encode: f64 = timings.iter().map(|t| t.encode_s).sum();
    let decode: f64 = timings.iter().map(|t| t.decode_s).sum();
    let exposed: f64 = timings.iter().map(|t| t.exposed_wait_s).sum();
    [encode * 1e3, comm_ms, decode * 1e3, exposed * 1e3]
}

/// Times one engine at world size `p`: one untimed warmup exchange, then
/// `inner` timed exchanges. Every worker loops full exchanges over
/// persistent gradients; rank 0's per-exchange time and breakdown are
/// reported (collectives synchronize all ranks to the same cadence).
///
/// `comm_ms` in the breakdown is wire-busy time: for the pipelined engine
/// it is the comm-thread busy counter averaged over the timed exchanges;
/// for the sequential engine it is the caller's in-collective time (the
/// two coincide there — the caller *is* the comm thread).
fn time_exchange(
    method: &MethodConfig,
    bucket_bytes: usize,
    netem: NetEmu,
    p: usize,
    engine: Engine,
    bp: &BenchParams,
) -> (f64, Breakdown) {
    let shapes = &bp.layer_shapes;
    let mut outs = SimCluster::run_with_netem(p, netem, move |w| {
        let grads = make_grads(w.rank(), shapes);
        if engine == Engine::Sequential {
            let mut c = method.build().expect("build compressor");
            let mut plan = BucketPlan::matricized(&grads, bucket_bytes);
            let mut run = || {
                let out = exchange_gradients_with_plan(&w, &mut c, &grads, &mut plan)
                    .expect("sequential exchange");
                black_box(out);
            };
            run();
            let t0 = std::time::Instant::now();
            for _ in 0..bp.inner {
                run();
            }
            let t = t0.elapsed().as_secs_f64() / bp.inner as f64;
            let timings = plan.last_timings();
            let comm_ms: f64 = timings.iter().map(|t| t.comm_s).sum::<f64>() * 1e3;
            (t, sum_timings(timings, comm_ms))
        } else {
            let c = method.build().expect("build compressor");
            let mut eng = PipelinedEngine::new(
                w,
                c,
                PipelineConfig {
                    bucket_bytes,
                    depth: 2,
                    matricize: true,
                },
            )
            .unwrap();
            black_box(eng.exchange(&grads).expect("pipelined exchange"));
            let busy0 = eng.comm_busy_seconds();
            let t0 = std::time::Instant::now();
            for _ in 0..bp.inner {
                black_box(eng.exchange(&grads).expect("pipelined exchange"));
            }
            let t = t0.elapsed().as_secs_f64() / bp.inner as f64;
            let comm_ms = (eng.comm_busy_seconds() - busy0) / bp.inner as f64 * 1e3;
            let breakdown = sum_timings(eng.last_timings(), comm_ms);
            let _ = eng.into_parts();
            (t, breakdown)
        }
    });
    outs.swap_remove(0)
}

struct Comparison {
    seq_ms: f64,
    pipe_ms: f64,
    /// Median of per-trial sequential/pipelined ratios.
    speedup: f64,
    breakdowns: [Breakdown; 2],
}

const ENGINES: [Engine; 2] = [Engine::Sequential, Engine::Pipelined];

/// One configuration: `trials` paired runs (the two engines back to back,
/// so machine-level interference hits both), summed up as the
/// median per-exchange time of each engine and the median of the per-trial
/// ratios. The median-of-ratios is the headline number: pairing plus the
/// median makes it robust against the scheduler noise that dominates
/// absolute timings when 2p threads share one core.
fn compare(
    method: &MethodConfig,
    bucket_bytes: usize,
    netem: NetEmu,
    p: usize,
    bp: &BenchParams,
) -> Comparison {
    let mut times: [Vec<f64>; 2] = Default::default();
    let mut ratios = Vec::with_capacity(bp.trials);
    let mut parts: [[Vec<f64>; 4]; 2] = Default::default();
    for _ in 0..bp.trials {
        let mut trial = [0.0f64; 2];
        for (e, engine) in ENGINES.into_iter().enumerate() {
            let (t, breakdown) = time_exchange(method, bucket_bytes, netem, p, engine, bp);
            trial[e] = t;
            times[e].push(t);
            for (k, ms) in breakdown.into_iter().enumerate() {
                parts[e][k].push(ms);
            }
        }
        ratios.push(trial[0] / trial[1]);
    }
    let mut breakdowns = [[0.0f64; 4]; 2];
    for e in 0..2 {
        for k in 0..4 {
            breakdowns[e][k] = median(&mut parts[e][k]);
        }
    }
    Comparison {
        seq_ms: median(&mut times[0]) * 1e3,
        pipe_ms: median(&mut times[1]) * 1e3,
        speedup: median(&mut ratios),
        breakdowns,
    }
}

fn main() {
    let smoke = std::env::var_os("GCS_BENCH_SMOKE").is_some();
    let bp = params(smoke);
    let total_params: usize = bp
        .layer_shapes
        .iter()
        .map(|s| s.iter().product::<usize>())
        .sum();
    println!(
        "pipelined exchange benchmark{}: {} params",
        if smoke { " (smoke)" } else { "" },
        total_params,
    );

    let mut rows = Vec::new();
    let mut breakdown_rows = Vec::new();
    for (method, bucket_bytes, netem) in methods(smoke) {
        let name = gcs_bench::method_name(&method);
        for &p in &bp.worlds {
            let c = compare(&method, bucket_bytes, netem, p, &bp);
            println!(
                "{name:<12} p={p:<2}  bucket {:>4} KiB  link {:>6.2} MB/s  sequential {:.3}ms  pipelined {:.3}ms  speedup {:.2}x",
                bucket_bytes / 1024,
                netem.bytes_per_sec / 1e6,
                c.seq_ms,
                c.pipe_ms,
                c.speedup,
            );
            rows.push(json!({
                "method": name,
                "p": p,
                "bucket_bytes": bucket_bytes,
                "link_mbytes_per_sec": netem.bytes_per_sec / 1e6,
                "sequential_ms": c.seq_ms,
                "pipelined_ms": c.pipe_ms,
                "speedup": c.speedup,
            }));
            for (e, engine) in ENGINES.into_iter().enumerate() {
                let [encode_ms, comm_ms, decode_ms, exposed_wait_ms] = c.breakdowns[e];
                println!(
                    "    {:<10}  encode {encode_ms:.3}ms  comm {comm_ms:.3}ms  decode {decode_ms:.3}ms  exposed wait {exposed_wait_ms:.3}ms",
                    engine.name(),
                );
                breakdown_rows.push(json!({
                    "method": name,
                    "engine": engine.name(),
                    "p": p,
                    "bucket_bytes": bucket_bytes,
                    "encode_ms": encode_ms,
                    "comm_ms": comm_ms,
                    "decode_ms": decode_ms,
                    "exposed_wait_ms": exposed_wait_ms,
                }));
            }
        }
    }

    let choice = gcs_tensor::autotune::choice();
    let metadata = json!({
        "active_kernel_table": gcs_tensor::kernels::active().name,
        "kernel_threads": gcs_tensor::pool::global().width(),
        "gemm_tile": choice.gemm_tile.name(),
        "wire_chunk_elems": choice.wire_chunk_elems,
        "autotune_provenance": choice.provenance,
        "smoke": smoke,
    });
    let report: Value = json!({
        "bench": "pipeline",
        "smoke": smoke,
        "params": total_params,
        "metadata": metadata,
        "rows": rows,
        "breakdown": breakdown_rows,
    });
    // `GCS_BENCH_OUT` redirects the report (written even in smoke mode, for
    // the structural regression gate in CI).
    let default_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    match (std::env::var("GCS_BENCH_OUT").ok(), smoke) {
        (Some(path), _) => {
            let text = serde_json::to_string_pretty(&report).expect("serialize report");
            std::fs::write(&path, text).expect("write GCS_BENCH_OUT report");
            println!("wrote {path}");
        }
        (None, true) => {
            // Smoke timings are meaningless; don't clobber the tracked file.
            println!("smoke mode: skipping write of {default_path}");
        }
        (None, false) => {
            let text = serde_json::to_string_pretty(&report).expect("serialize report");
            std::fs::write(default_path, text).expect("write BENCH_pipeline.json");
            println!("wrote {default_path}");
        }
    }
}
