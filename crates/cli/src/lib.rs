//! The `gradcomp` command-line what-if analyzer.
//!
//! This is the tool §7 of the paper envisions for data scientists: given
//! a model, a cluster and a network, decide whether (and which) gradient
//! compression will give a real end-to-end speedup.
//!
//! ```text
//! gradcomp predict  --model resnet50  --gpus 64 --batch 32 --gbps 10 --method powersgd:4
//! gradcomp compare  --model bert-base --gpus 96 --batch 12 --methods syncsgd,powersgd:4,signsgd
//! gradcomp required --model resnet101 --gpus 64 --batch 16 --gbps 10
//! gradcomp gap      --model bert-base --gpus 96 --batch 16 --gbps 10
//! gradcomp sweep    --model resnet50  --gpus 64 --batch 64 --method powersgd:4 --from 1 --to 30
//! gradcomp models | gradcomp methods
//! ```
//!
//! All logic lives in [`run`], which returns the rendered output so tests
//! can assert on it.

use gcs_cluster::cost::NetworkModel;
use gcs_compress::registry::MethodConfig;
use gcs_core::ideal::{ideal_gap, required_compression, RequiredCompression};
use gcs_core::perf::predict_iteration;
use gcs_core::whatif::bandwidth_sweep;
use gcs_ddp::sim::SimConfig;
use gcs_models::{presets, DeviceSpec, ModelSpec};
use std::collections::HashMap;
use std::fmt::Write as _;

mod multiproc;

/// A CLI error: bad usage or unknown values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// Result alias.
pub type Result<T> = std::result::Result<T, CliError>;

/// Usage text.
pub const USAGE: &str = "\
gradcomp — gradient-compression what-if analyzer (MLSys'22 reproduction)

USAGE:
  gradcomp <command> [--key value]...

COMMANDS:
  predict    predict iteration time for one method
  compare    rank several methods (--methods a,b,c)
  required   compression ratio needed for near-linear scaling
  gap        distance of syncSGD from ideal scaling
  sweep      bandwidth sweep for one method vs syncSGD (--from/--to Gbps)
  trace      ASCII two-stream timeline of one iteration (Figure-2 style)
  faults     train on the real in-process cluster under an injected fault plan
  adaptive   train with the online Equation-1 controller picking the scheme
             per bucket, vs. each arm pinned (time-to-loss comparison)
  analyze    static verification: schedule model checker + workspace lint
  worker     one rank of a multi-process TCP training run (real sockets)
  orchestrator  control plane for a multi-process run: assigns ranks,
             collects digests, verifies them against the sim reference
  models     list available model specs
  methods    list available compression methods
  help       show this text

COMMON FLAGS (with defaults):
  --model resnet50        resnet50|resnet101|bert-base|bert-large|vgg16
  --gpus 64               worker count
  --batch 32              per-worker batch size
  --gbps 10               network bandwidth
  --alpha-us 15           per-hop latency in microseconds
  --speedup 1.0           compute speedup vs V100
  --method syncsgd        e.g. powersgd:4, topk:0.01, qsgd:15, variance:1.5

FAULTS FLAGS (gradcomp faults, with defaults):
  --workers 4             worker thread count
  --steps 20              optimizer steps
  --seed 0                fault-plan master seed (same seed => same events)
  --jitter-us 0           per-frame delivery delay jitter bound (microseconds)
  --drop 0                per-frame drop probability in [0, 1]
  --reorder 0             per-frame reorder probability in [0, 1]
  --kill none             scheduled deaths, e.g. 3@5 or 1@4,6@10 (rank@step)
  --timeout-ms 0          recv deadline per attempt (0 = block forever)
  --retries 2             recv retries after a timeout

ADAPTIVE FLAGS (gradcomp adaptive, with defaults):
  --workers 4             worker thread count
  --steps 60              optimizer steps
  --gbps 0.01             modelled link bandwidth (Equation-1 cost input)
  --alpha-us 15           modelled per-message latency in microseconds
  --arms syncsgd,fp16,powersgd:2   candidate schemes (first is the baseline)
  --bucket-kb 1           gradient bucket size in KiB
  --seed 8                data/init seed

MULTI-PROCESS FLAGS:
  gradcomp worker --rank N --peers h:p,h:p,...   static mesh membership
                  [--method topk:0.2] [--steps 3]
  gradcomp worker --orchestrator HOST:PORT       rank assigned at runtime
  gradcomp orchestrator --world 2 [--method topk:0.2] [--steps 3]
                  [--port 0] [--addr-file F]     F gets the bound address

ANALYZE FLAGS (gradcomp analyze):
  --all                   run all four passes (default when no pass is named)
  --schedules             Pass 1: schedule verifier (ring/gather/broadcast/among
                          at p in 2..16 with dead-rank subsets of size <= 2)
  --lint                  Pass 2: workspace lint (raw f32 loops in data-plane
                          code, no Relaxed atomics outside tests; lists every
                          allow marker and #[allow]/#[expect] of the
                          compiler lints that hold the other source rules)
  --protocols             Pass 3: protocol state machines (Hello handshake,
                          adaptive decisions, pipeline FIFO window)
  --fuzz                  Pass 4: deterministic wire fuzz (headers, frames,
                          Payload::from_bytes for all 15 methods)
  --fuzz-seed <u64>       fuzz seed (default 3900867686 = 0xE8828466)
  --fuzz-iters <n>        fuzz iterations per target (default 1500)
  --inject <negative>     self-test: run one pass with a seeded negative that
                          MUST be detected (exit is non-zero when it is):
                          double-accept | parser-panic
  --root .                workspace root to lint / anchor-check
  --json <path>           report path (default <root>/results/analyze_report.json)
";

/// Looks up a model spec by CLI name.
pub fn parse_model(name: &str) -> Result<ModelSpec> {
    match name.to_ascii_lowercase().as_str() {
        "resnet50" | "resnet-50" => Ok(presets::resnet50()),
        "resnet101" | "resnet-101" => Ok(presets::resnet101()),
        "bert-base" | "bert_base" | "bert" => Ok(presets::bert_base()),
        "bert-large" | "bert_large" => Ok(presets::bert_large()),
        "vgg16" | "vgg-16" => Ok(presets::vgg16()),
        other => Err(CliError(format!(
            "unknown model '{other}' (try `gradcomp models`)"
        ))),
    }
}

/// Parsed common flags.
#[derive(Debug, Clone)]
struct Flags {
    model: ModelSpec,
    gpus: usize,
    batch: usize,
    gbps: f64,
    alpha: f64,
    speedup: f64,
    method: MethodConfig,
    methods: Vec<MethodConfig>,
    from: f64,
    to: f64,
}

/// Parses `--key value` pairs into a map.
pub(crate) fn flag_map(args: &[String]) -> Result<HashMap<String, String>> {
    let mut map: HashMap<String, String> = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| CliError(format!("expected --flag, got '{}'", args[i])))?;
        let value = args
            .get(i + 1)
            .ok_or_else(|| CliError(format!("--{key} needs a value")))?;
        map.insert(key.to_owned(), value.clone());
        i += 2;
    }
    Ok(map)
}

fn parse_flags(args: &[String]) -> Result<Flags> {
    let map = flag_map(args)?;
    let get_f64 = |key: &str, default: f64| -> Result<f64> {
        match map.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|e| CliError(format!("bad --{key} '{v}': {e}"))),
        }
    };
    let get_usize = |key: &str, default: usize| -> Result<usize> {
        match map.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|e| CliError(format!("bad --{key} '{v}': {e}"))),
        }
    };
    let model = parse_model(map.get("model").map_or("resnet50", String::as_str))?;
    let method = MethodConfig::parse(map.get("method").map_or("syncsgd", String::as_str))
        .map_err(|e| CliError(e.to_string()))?;
    let methods = match map.get("methods") {
        None => vec![
            MethodConfig::SyncSgd,
            MethodConfig::Fp16,
            MethodConfig::PowerSgd { rank: 4 },
            MethodConfig::TopK { ratio: 0.01 },
            MethodConfig::SignSgd,
        ],
        Some(list) => list
            .split(',')
            .map(|s| MethodConfig::parse(s.trim()).map_err(|e| CliError(e.to_string())))
            .collect::<Result<_>>()?,
    };
    let gpus = get_usize("gpus", 64)?;
    if gpus == 0 {
        return Err(CliError("--gpus must be at least 1".into()));
    }
    let batch = get_usize("batch", 32)?;
    if batch == 0 {
        return Err(CliError("--batch must be at least 1".into()));
    }
    let gbps = get_f64("gbps", 10.0)?;
    if gbps <= 0.0 {
        return Err(CliError("--gbps must be positive".into()));
    }
    Ok(Flags {
        model,
        gpus,
        batch,
        gbps,
        alpha: get_f64("alpha-us", 15.0)? * 1e-6,
        speedup: get_f64("speedup", 1.0)?,
        method,
        methods,
        from: get_f64("from", 1.0)?,
        to: get_f64("to", 30.0)?,
    })
}

fn sim_config(f: &Flags, method: MethodConfig) -> SimConfig {
    SimConfig::new(f.model.clone(), f.gpus)
        .batch_per_worker(f.batch)
        .network(NetworkModel::from_gbps(f.alpha, f.gbps))
        .device(DeviceSpec::v100().with_speedup(f.speedup))
        .method(method)
}

fn method_name(m: &MethodConfig) -> String {
    m.build()
        .map(|c| c.properties().name)
        .unwrap_or_else(|_| format!("{m:?}"))
}

/// Runs one CLI invocation (`args` excludes the program name) and returns
/// the rendered output.
///
/// # Errors
///
/// Returns [`CliError`] on unknown commands, flags or values.
pub fn run(args: &[String]) -> Result<String> {
    let Some((command, rest)) = args.split_first() else {
        return Ok(USAGE.to_owned());
    };
    let mut out = String::new();
    match command.as_str() {
        "help" | "--help" | "-h" => out.push_str(USAGE),
        "models" => {
            for m in [
                presets::resnet50(),
                presets::resnet101(),
                presets::bert_base(),
                presets::bert_large(),
                presets::vgg16(),
            ] {
                writeln!(
                    out,
                    "{:<12} {:>7.1} MB  {:>9} params  {:>4} tensors",
                    m.name.to_lowercase().replace(' ', "-"),
                    m.size_mb(),
                    m.total_params(),
                    m.num_layers()
                )
                .expect("write to string");
            }
        }
        "methods" => {
            out.push_str(
                "syncsgd | fp16 | powersgd:<rank> | topk:<ratio> | signsgd | efsignsgd\n\
                 qsgd:<levels> | terngrad | randomk:<ratio> | atomo:<rank> | onebit\n\
                 sketch:<block> | dgc:<ratio> | variance:<kappa> | natural\n",
            );
        }
        "predict" => {
            let f = parse_flags(rest)?;
            let cfg = sim_config(&f, f.method.clone());
            let p = predict_iteration(&cfg);
            writeln!(
                out,
                "{} | {} GPUs | batch {} | {:.0} Gbps | {}",
                f.model.name,
                f.gpus,
                f.batch,
                f.gbps,
                method_name(&f.method)
            )
            .expect("write to string");
            writeln!(out, "  backward      : {:>8.1} ms", p.t_comp_s * 1e3).expect("write");
            writeln!(out, "  encode/decode : {:>8.1} ms", p.t_encdec_s * 1e3).expect("write");
            writeln!(out, "  communication : {:>8.1} ms", p.t_comm_s * 1e3).expect("write");
            writeln!(out, "  iteration     : {:>8.1} ms", p.total_s * 1e3).expect("write");
        }
        "compare" => {
            let f = parse_flags(rest)?;
            let mut rows: Vec<(String, f64)> = f
                .methods
                .iter()
                .map(|m| {
                    let t = predict_iteration(&sim_config(&f, m.clone())).total_s;
                    (method_name(m), t)
                })
                .collect();
            rows.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
            let baseline = rows.iter().find(|(n, _)| n == "syncSGD").map(|&(_, t)| t);
            writeln!(
                out,
                "{} | {} GPUs | batch {} | {:.0} Gbps",
                f.model.name, f.gpus, f.batch, f.gbps
            )
            .expect("write");
            for (i, (name, t)) in rows.iter().enumerate() {
                let vs = baseline
                    .map(|b| format!("  ({:+.1}% vs syncSGD)", (t / b - 1.0) * 100.0))
                    .unwrap_or_default();
                writeln!(out, "  {}. {:<24} {:>8.1} ms{vs}", i + 1, name, t * 1e3).expect("write");
            }
        }
        "required" => {
            let f = parse_flags(rest)?;
            if f.gpus < 2 {
                return Err(CliError("required needs --gpus >= 2".into()));
            }
            let device = DeviceSpec::v100().with_speedup(f.speedup);
            let net = NetworkModel::from_gbps(f.alpha, f.gbps);
            match required_compression(&f.model, &device, &net, f.gpus, f.batch) {
                RequiredCompression::Achievable { ratio, bytes } => {
                    writeln!(
                        out,
                        "{}: {:.2}x compression (to {:.1} MB) hides all communication \
                         under the backward pass at {} GPUs / {:.0} Gbps / batch {}.",
                        f.model.name,
                        ratio,
                        bytes / 1e6,
                        f.gpus,
                        f.gbps,
                        f.batch
                    )
                    .expect("write");
                    if ratio < 2.5 {
                        out.push_str("Half-precision (FP16) alone would nearly suffice.\n");
                    }
                }
                RequiredCompression::LatencyBound => {
                    out.push_str(
                        "Latency-bound: even zero-byte gradients cannot reach ideal scaling.\n",
                    );
                }
            }
        }
        "gap" => {
            let f = parse_flags(rest)?;
            let device = DeviceSpec::v100().with_speedup(f.speedup);
            let net = NetworkModel::from_gbps(f.alpha, f.gbps);
            let gap = ideal_gap(&f.model, &device, &net, f.gpus, f.batch);
            writeln!(
                out,
                "{}: syncSGD is {:.1} ms per iteration from perfect scaling at {} GPUs.\n\
                 Any compression scheme must fit encode + decode + its own communication\n\
                 inside this budget to be a net win.",
                f.model.name,
                gap * 1e3,
                f.gpus
            )
            .expect("write");
        }
        "trace" => {
            let f = parse_flags(rest)?;
            let cfg = sim_config(&f, f.method.clone());
            let events = gcs_ddp::trace::trace_iteration(&cfg);
            writeln!(
                out,
                "{} | {} GPUs | batch {} | {:.0} Gbps | {}",
                f.model.name,
                f.gpus,
                f.batch,
                f.gbps,
                method_name(&f.method)
            )
            .expect("write");
            out.push_str(&gcs_ddp::trace::render_ascii(&events, 72));
            for e in &events {
                writeln!(
                    out,
                    "  {:>7.1} – {:>7.1} ms  {:<7}  {}",
                    e.start_s * 1e3,
                    e.end_s * 1e3,
                    format!("{:?}", e.stream),
                    e.label
                )
                .expect("write");
            }
        }
        "sweep" => {
            let f = parse_flags(rest)?;
            if f.from <= 0.0 || f.to < f.from {
                return Err(CliError("--from/--to must satisfy 0 < from <= to".into()));
            }
            let steps = 10usize;
            let gbps: Vec<f64> = (0..=steps)
                .map(|i| f.from + (f.to - f.from) * i as f64 / steps as f64)
                .collect();
            let pts = bandwidth_sweep(
                &f.model,
                &DeviceSpec::v100().with_speedup(f.speedup),
                f.gpus,
                f.batch,
                &f.method,
                &gbps,
                f.alpha,
            );
            writeln!(
                out,
                "{} | {} vs syncSGD | {} GPUs | batch {}",
                f.model.name,
                method_name(&f.method),
                f.gpus,
                f.batch
            )
            .expect("write");
            for p in &pts {
                writeln!(
                    out,
                    "  {:>5.1} Gbps: syncSGD {:>8.1} ms | method {:>8.1} ms | speedup {:.2}x",
                    p.x,
                    p.sync_s * 1e3,
                    p.method_s * 1e3,
                    p.speedup()
                )
                .expect("write");
            }
            if let Some(p) = pts.iter().find(|p| p.speedup() < 1.0) {
                writeln!(out, "syncSGD catches up at ≈ {:.1} Gbps.", p.x).expect("write");
            } else {
                out.push_str("Compression wins across the whole sweep.\n");
            }
        }
        "faults" => {
            let map = flag_map(rest)?;
            let get_parse = |key: &str, default: &str| -> Result<f64> {
                let v = map.get(key).map_or(default, String::as_str);
                v.parse()
                    .map_err(|e| CliError(format!("bad --{key} '{v}': {e}")))
            };
            let workers = get_parse("workers", "4")? as usize;
            if workers == 0 {
                return Err(CliError("--workers must be at least 1".into()));
            }
            let steps = get_parse("steps", "20")? as usize;
            let seed = get_parse("seed", "0")? as u64;
            let jitter_us = get_parse("jitter-us", "0")? as u64;
            let drop = get_parse("drop", "0")?;
            let reorder = get_parse("reorder", "0")?;
            if !(0.0..=1.0).contains(&drop) || !(0.0..=1.0).contains(&reorder) {
                return Err(CliError("--drop/--reorder must be in [0, 1]".into()));
            }
            let method = MethodConfig::parse(map.get("method").map_or("syncsgd", String::as_str))
                .map_err(|e| CliError(e.to_string()))?;
            let mut plan = gcs_cluster::FaultPlan::new(seed)
                .delay_jitter(std::time::Duration::from_micros(jitter_us))
                .drop_prob(drop)
                .reorder_prob(reorder);
            if let Some(kills) = map.get("kill") {
                for spec in kills.split(',') {
                    let (rank, at) = spec
                        .split_once('@')
                        .ok_or_else(|| CliError(format!("bad --kill '{spec}' (want rank@step)")))?;
                    let rank: usize = rank
                        .parse()
                        .map_err(|e| CliError(format!("bad --kill rank '{rank}': {e}")))?;
                    let at: usize = at
                        .parse()
                        .map_err(|e| CliError(format!("bad --kill step '{at}': {e}")))?;
                    if rank >= workers {
                        return Err(CliError(format!(
                            "--kill rank {rank} out of range for {workers} workers"
                        )));
                    }
                    plan = plan.kill(rank, at);
                }
            }
            let timeout_ms = get_parse("timeout-ms", "0")? as u64;
            if timeout_ms > 0 {
                let retries = get_parse("retries", "2")? as u32;
                plan = plan.recv_policy(gcs_cluster::RecvPolicy::with_timeout(
                    std::time::Duration::from_millis(timeout_ms),
                    retries,
                    std::time::Duration::from_millis(timeout_ms / 2),
                ));
            }
            let final_live = plan.live_members(workers, steps.saturating_sub(1)).len();
            let cfg = gcs_train::threaded::ThreadedConfig::new()
                .workers(workers)
                .steps(steps)
                .seed(seed)
                .faulty(plan);
            let task = gcs_train::task::LinearRegression::new(8, 96, 0.01, 41);
            let (rep, events) = gcs_train::threaded::train_threaded(&task, &method, &cfg)
                .map_err(|e| CliError(format!("faulty run failed: {e}")))?;
            writeln!(
                out,
                "{} | {workers} workers | {steps} steps | fault seed {seed:#x}",
                method_name(&method)
            )
            .expect("write");
            if events.is_empty() {
                out.push_str("  no robustness events (all ranks survived)\n");
            }
            for e in &events {
                writeln!(out, "  event: {e}").expect("write");
            }
            writeln!(
                out,
                "  loss {:.4} -> {:.4} over {steps} steps on {final_live} live workers",
                rep.initial_loss(),
                rep.final_loss()
            )
            .expect("write");
        }
        "adaptive" => {
            out.push_str(&cmd_adaptive(rest)?);
        }
        "analyze" => {
            out.push_str(&cmd_analyze(rest)?);
        }
        "worker" => {
            out.push_str(&multiproc::cmd_worker(rest)?);
        }
        "orchestrator" => {
            out.push_str(&multiproc::cmd_orchestrator(rest)?);
        }
        other => {
            return Err(CliError(format!(
                "unknown command '{other}' (try `gradcomp help`)"
            )));
        }
    }
    Ok(out)
}

/// `gradcomp adaptive [--workers N] [--steps N] [--gbps F] [--arms a,b,c] ...`
///
/// Trains a small convex task through the adaptive per-bucket controller
/// and through every arm pinned, then reports modelled step time and
/// time-to-loss — the what-if answer, demonstrated on the real data plane.
fn cmd_adaptive(rest: &[String]) -> Result<String> {
    use gcs_cluster::cost::NetworkModel;
    use gcs_compress::adaptive::AdaptiveConfig;
    use gcs_train::adaptive::train_threaded_adaptive;

    let map = flag_map(rest)?;
    let get_parse = |key: &str, default: &str| -> Result<f64> {
        let v = map.get(key).map_or(default, String::as_str);
        v.parse()
            .map_err(|e| CliError(format!("bad --{key} '{v}': {e}")))
    };
    let workers = get_parse("workers", "4")? as usize;
    if workers == 0 {
        return Err(CliError("--workers must be at least 1".into()));
    }
    let steps = get_parse("steps", "60")? as usize;
    let gbps = get_parse("gbps", "0.01")?;
    let bytes_per_sec = gbps * 1e9 / 8.0;
    if !(bytes_per_sec.is_finite() && bytes_per_sec > 0.0) {
        return Err(CliError("--gbps must be positive and finite".into()));
    }
    let alpha_s = get_parse("alpha-us", "15")? * 1e-6;
    if !(alpha_s.is_finite() && alpha_s >= 0.0) {
        return Err(CliError(
            "--alpha-us must be non-negative and finite".into(),
        ));
    }
    let bucket_kb = get_parse("bucket-kb", "1")?;
    if bucket_kb <= 0.0 {
        return Err(CliError("--bucket-kb must be positive".into()));
    }
    let seed = get_parse("seed", "8")? as u64;
    let arms: Vec<MethodConfig> = map
        .get("arms")
        .map_or("syncsgd,fp16,powersgd:2", String::as_str)
        .split(',')
        .map(|a| MethodConfig::parse(a.trim()).map_err(|e| CliError(e.to_string())))
        .collect::<Result<_>>()?;
    if arms.is_empty() {
        return Err(CliError("--arms needs at least one scheme".into()));
    }

    let link = NetworkModel::new(alpha_s, bytes_per_sec);
    let bucket_bytes = (bucket_kb * 1024.0) as usize;
    let task = gcs_train::task::LinearRegression::new(256, 256, 0.01, 41);
    let cfg = gcs_train::threaded::ThreadedConfig::new()
        .workers(workers)
        .steps(steps)
        .lr(0.05)
        .seed(seed);
    let run = |scheme_arms: Vec<MethodConfig>| -> Result<gcs_train::adaptive::AdaptiveTrainReport> {
        let acfg = AdaptiveConfig::new(scheme_arms)
            .map_err(|e| CliError(e.to_string()))?
            .link(link);
        train_threaded_adaptive(&task, &acfg, bucket_bytes, &cfg)
            .map_err(|e| CliError(format!("adaptive run failed: {e}")))
    };

    let adaptive = run(arms.clone())?;
    let mut out = String::new();
    writeln!(
        out,
        "adaptive | {workers} workers | {} arms | {gbps} Gbps | bucket {bucket_kb:.0} KiB",
        arms.len()
    )
    .expect("write");
    let arm_name =
        |i: usize| -> String { arms.get(i).map_or_else(|| format!("arm {i}"), method_name) };
    if adaptive.trace.is_empty() {
        out.push_str("  decisions: none (initial assignment kept)\n");
    } else {
        out.push_str("  decisions:\n");
        for d in &adaptive.trace {
            writeln!(
                out,
                "    step {:>3}: bucket {} {} -> {}{}",
                d.step,
                d.bucket,
                arm_name(d.from as usize),
                arm_name(d.to as usize),
                if d.probe { "  (probe)" } else { "" },
            )
            .expect("write");
        }
    }
    out.push_str("  final assignment:\n");
    for (b, &a) in adaptive.assignment.iter().enumerate() {
        writeln!(out, "    bucket {b} -> {}", arm_name(a)).expect("write");
    }
    let target = 0.4 * adaptive.report.initial_loss();
    let fmt_ttl = |r: &gcs_train::adaptive::AdaptiveTrainReport| -> String {
        r.time_to_loss(target)
            .map_or_else(|| "not reached".into(), |t| format!("{:.2} ms", t * 1e3))
    };
    writeln!(
        out,
        "  adaptive   : step {:.3} ms | time-to-0.4x-loss {}",
        adaptive.modelled_step_s * 1e3,
        fmt_ttl(&adaptive)
    )
    .expect("write");
    for arm in &arms {
        let fixed = run(vec![arm.clone()])?;
        writeln!(
            out,
            "  {:<11}: step {:.3} ms | time-to-0.4x-loss {}",
            method_name(arm),
            fixed.modelled_step_s * 1e3,
            fmt_ttl(&fixed)
        )
        .expect("write");
    }
    Ok(out)
}

/// Default seed for the wire fuzz pass (arbitrary but pinned so the
/// tracked report is reproducible).
const DEFAULT_FUZZ_SEED: u64 = 0xE882_8466;
/// Default per-target fuzz budget; sized so the whole pass stays well
/// under the CI budget of 10 s.
const DEFAULT_FUZZ_ITERS: usize = 1500;

/// `gradcomp analyze [--all|--schedules|--lint|--protocols|--fuzz]
/// [--fuzz-seed N] [--fuzz-iters N] [--inject NEG] [--root PATH] [--json PATH]`.
///
/// Runs the static-analysis passes, writes the machine-readable report
/// (schema v2, stable key order), and fails (so `main` exits non-zero)
/// if any pass found violations. `--inject` swaps one pass's subject for
/// a seeded negative — a double-accepting Hello machine or a panicking
/// parser — so CI can prove the gate has teeth.
fn cmd_analyze(rest: &[String]) -> Result<String> {
    let mut want_schedules = false;
    let mut want_lint = false;
    let mut want_protocols = false;
    let mut want_fuzz = false;
    let mut fuzz_seed = DEFAULT_FUZZ_SEED;
    let mut fuzz_iters = DEFAULT_FUZZ_ITERS;
    let mut inject: Option<String> = None;
    let mut root = String::from(".");
    let mut json_path: Option<String> = None;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--all" => {
                want_schedules = true;
                want_lint = true;
                want_protocols = true;
                want_fuzz = true;
            }
            "--schedules" => want_schedules = true,
            "--lint" => want_lint = true,
            "--protocols" => want_protocols = true,
            "--fuzz" => want_fuzz = true,
            "--root" | "--json" | "--fuzz-seed" | "--fuzz-iters" | "--inject" => {
                let key = rest[i].clone();
                i += 1;
                let val = rest
                    .get(i)
                    .ok_or_else(|| CliError(format!("{key} needs a value")))?;
                match key.as_str() {
                    "--root" => root = val.clone(),
                    "--json" => json_path = Some(val.clone()),
                    "--fuzz-seed" => {
                        fuzz_seed = val.parse().map_err(|_| {
                            CliError(format!("--fuzz-seed wants a u64, got '{val}'"))
                        })?;
                    }
                    "--fuzz-iters" => {
                        fuzz_iters = val.parse().map_err(|_| {
                            CliError(format!("--fuzz-iters wants a count, got '{val}'"))
                        })?;
                    }
                    _ => inject = Some(val.clone()),
                }
            }
            other => {
                return Err(CliError(format!(
                    "unknown analyze flag '{other}' (try `gradcomp help`)"
                )));
            }
        }
        i += 1;
    }
    // `--inject` selects the pass that owns the negative; other explicit
    // selections still run alongside it.
    match inject.as_deref() {
        Some("double-accept") => want_protocols = true,
        Some("parser-panic") => want_fuzz = true,
        Some(other) => {
            return Err(CliError(format!(
                "unknown --inject negative '{other}' (double-accept | parser-panic)"
            )));
        }
        None => {}
    }
    if !(want_schedules || want_lint || want_protocols || want_fuzz) {
        want_schedules = true;
        want_lint = true;
        want_protocols = true;
        want_fuzz = true;
    }

    let schedule_rep = want_schedules.then(gcs_analyze::report::run_schedule_pass);
    let lint_rep = if want_lint {
        Some(
            gcs_analyze::lint::run_lint(std::path::Path::new(&root))
                .map_err(|e| CliError(format!("lint walk of '{root}' failed: {e}")))?,
        )
    } else {
        None
    };
    let protocols_rep = want_protocols.then(|| {
        if inject.as_deref() == Some("double-accept") {
            gcs_analyze::protocol::run_protocol_mutants()
        } else {
            gcs_analyze::protocol::run_protocol_pass(std::path::Path::new(&root))
        }
    });
    let fuzz_rep = want_fuzz.then(|| {
        if inject.as_deref() == Some("parser-panic") {
            gcs_analyze::fuzz::run_fuzz_negative(fuzz_seed, fuzz_iters)
        } else {
            gcs_analyze::fuzz::run_fuzz_pass(fuzz_seed, fuzz_iters)
        }
    });

    let reports = gcs_analyze::report::AnalyzeReports {
        schedule: schedule_rep.as_ref(),
        lint: lint_rep.as_ref(),
        protocols: protocols_rep.as_ref(),
        fuzz: fuzz_rep.as_ref(),
    };
    let json = gcs_analyze::report::to_json(&reports);
    let report_path = json_path.map(std::path::PathBuf::from).unwrap_or_else(|| {
        std::path::Path::new(&root)
            .join("results")
            .join("analyze_report.json")
    });
    if let Some(dir) = report_path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError(format!("cannot create {}: {e}", dir.display())))?;
    }
    let rendered = serde_json::to_string_pretty(&json)
        .map_err(|e| CliError(format!("report serialization failed: {e}")))?;
    std::fs::write(&report_path, rendered)
        .map_err(|e| CliError(format!("cannot write {}: {e}", report_path.display())))?;

    let mut text = gcs_analyze::report::render_text(&reports);
    if let Some(neg) = &inject {
        text.push_str(&format!("injected negative: {neg}\n"));
    }
    text.push_str(&format!("report: {}\n", report_path.display()));

    if reports.ok() {
        Ok(text)
    } else {
        // The violations themselves are the error message; main prints
        // them to stderr and exits non-zero, which is what fails CI.
        Err(CliError(text))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn no_args_prints_usage() {
        assert!(run(&[]).unwrap().contains("USAGE"));
        assert!(run(&args("help")).unwrap().contains("COMMANDS"));
    }

    #[test]
    fn usage_names_the_default_fuzz_seed() {
        let named = format!("default {DEFAULT_FUZZ_SEED} = 0x{DEFAULT_FUZZ_SEED:X}");
        assert!(USAGE.contains(&named), "USAGE must say `{named}`");
    }

    #[test]
    fn models_lists_all_five() {
        let out = run(&args("models")).unwrap();
        for m in [
            "resnet-50",
            "resnet-101",
            "bert-base",
            "bert-large",
            "vgg-16",
        ] {
            assert!(out.contains(m), "missing {m} in {out}");
        }
    }

    #[test]
    fn predict_prints_breakdown() {
        let out = run(&args(
            "predict --model resnet50 --gpus 64 --batch 64 --method powersgd:4",
        ))
        .unwrap();
        assert!(out.contains("backward"));
        assert!(out.contains("PowerSGD (rank 4)"));
    }

    #[test]
    fn compare_ranks_methods_and_shows_baseline_delta() {
        let out = run(&args(
            "compare --model bert-base --gpus 96 --batch 12 --methods syncsgd,powersgd:4,signsgd",
        ))
        .unwrap();
        assert!(out.contains("1. "));
        assert!(out.contains("vs syncSGD"));
        // At 96 GPUs on BERT, PowerSGD should rank first.
        let first_line = out.lines().nth(1).unwrap();
        assert!(first_line.contains("PowerSGD"), "{out}");
    }

    #[test]
    fn required_reports_ratio() {
        let out = run(&args("required --model resnet101 --gpus 64 --batch 16")).unwrap();
        assert!(out.contains("x compression"), "{out}");
    }

    #[test]
    fn gap_reports_budget() {
        let out = run(&args("gap --model bert-base --gpus 96 --batch 16")).unwrap();
        assert!(out.contains("from perfect scaling"));
    }

    #[test]
    fn sweep_reports_crossover_for_resnet50() {
        let out = run(&args(
            "sweep --model resnet50 --gpus 64 --batch 64 --method powersgd:4 --from 1 --to 30",
        ))
        .unwrap();
        assert!(out.contains("catches up"), "{out}");
    }

    #[test]
    fn trace_renders_timeline() {
        let out = run(&args("trace --model resnet50 --gpus 16 --batch 64")).unwrap();
        assert!(out.contains("compute |"));
        assert!(out.contains("all-reduce"));
        let out = run(&args("trace --method powersgd:4")).unwrap();
        assert!(out.contains("encode/decode"));
    }

    #[test]
    fn bad_inputs_are_clean_errors() {
        assert!(run(&args("frobnicate")).is_err());
        assert!(run(&args("predict --model nope")).is_err());
        assert!(run(&args("predict --gpus 0")).is_err());
        assert!(run(&args("predict --gpus")).is_err());
        assert!(run(&args("predict notaflag 3")).is_err());
        assert!(run(&args("predict --method bogus:1")).is_err());
        assert!(run(&args("sweep --from 5 --to 1")).is_err());
        assert!(run(&args("required --gpus 1")).is_err());
    }

    #[test]
    fn faults_command_reports_death_and_ring_shrink() {
        let out = run(&args("faults --workers 4 --steps 12 --seed 5 --kill 2@4")).unwrap();
        assert!(out.contains("step 4: rank 2 died"), "{out}");
        assert!(out.contains("ring shrank 4 -> 3"), "{out}");
        assert!(out.contains("3 live workers"), "{out}");
    }

    #[test]
    fn faults_command_with_benign_plan_reports_no_events() {
        let out = run(&args("faults --workers 3 --steps 8")).unwrap();
        assert!(out.contains("no robustness events"), "{out}");
    }

    #[test]
    fn faults_command_without_survivors_is_a_clean_error() {
        let err = run(&args("faults --workers 2 --steps 10 --kill 0@1,1@1")).unwrap_err();
        assert!(err.0.contains("no survivor"), "{}", err.0);
    }

    #[test]
    fn faults_command_rejects_bad_specs() {
        assert!(run(&args("faults --kill banana")).is_err());
        assert!(run(&args("faults --workers 4 --kill 9@2")).is_err());
        assert!(run(&args("faults --drop 1.5")).is_err());
        assert!(run(&args("faults --workers 0")).is_err());
    }

    #[test]
    fn adaptive_command_compresses_on_a_slow_link() {
        let out = run(&args(
            "adaptive --workers 2 --steps 20 --gbps 0.001 --alpha-us 5",
        ))
        .unwrap();
        assert!(out.contains("final assignment"), "{out}");
        // 1 Mbps: the modelled controller must move the big weight bucket
        // onto a compressed arm and say which one.
        assert!(out.contains("-> PowerSGD"), "{out}");
        assert!(out.contains("adaptive   : step"), "{out}");
        assert!(out.contains("time-to-0.4x-loss"), "{out}");
    }

    #[test]
    fn adaptive_command_stays_uncompressed_on_a_fast_link() {
        let out = run(&args(
            "adaptive --workers 2 --steps 20 --gbps 10 --arms syncsgd,powersgd:2",
        ))
        .unwrap();
        assert!(out.contains("decisions: none"), "{out}");
        for line in out
            .lines()
            .filter(|l| l.trim_start().starts_with("bucket "))
        {
            assert!(line.ends_with("-> syncSGD"), "{out}");
        }
    }

    #[test]
    fn adaptive_command_rejects_bad_flags() {
        assert!(run(&args("adaptive --workers 0")).is_err());
        assert!(run(&args("adaptive --arms bogus:1")).is_err());
        assert!(run(&args("adaptive --bucket-kb 0")).is_err());
    }

    /// The link model asserts its inputs, so the CLI must turn a bad
    /// `--gbps` or `--alpha-us` into a typed error naming the flag.
    fn assert_rejects_link_flag(flag: &str, values: &[&str]) {
        for value in values {
            let err = run(&args(&format!("adaptive --{flag} {value}"))).unwrap_err();
            assert!(
                err.0.contains(&format!("--{flag} must be")),
                "--{flag} {value}: {err}"
            );
        }
    }

    #[test]
    fn adaptive_command_rejects_non_positive_or_non_finite_gbps() {
        assert_rejects_link_flag("gbps", &["-1", "0", "nan", "inf"]);
    }

    #[test]
    fn adaptive_command_rejects_negative_or_non_finite_alpha() {
        assert_rejects_link_flag("alpha-us", &["-1", "nan", "inf", "-inf"]);
    }

    #[test]
    fn variance_method_is_reachable_from_cli() {
        let out = run(&args("predict --method variance:1.5")).unwrap();
        assert!(out.contains("Variance-based"));
    }
}
