//! `gcs-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! One invocation runs one workload in one process. `--trace 0` measures
//! the end-to-end metrics on the library's own entry points; `--trace 1`
//! runs the same steps again as spans around each layer call and prints
//! the per-layer metrics. Every metric is printed by name and unit, the
//! outputs are checked, and the last line of stdout is the result as one
//! JSON object. See `benchmark/README.md`.

mod engine;
mod idle;
mod micro;
mod procfs;
mod run;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Duration;

use gcs_cluster::cost::NetworkModel;
use serde_json::{json, Value};

use run::{train, RankReport, RunSpec, Until};
use stats::{median, percentile};
use trace::{per_step_ms, residual_pct, Collective};
use workload::{Backend, Exchange, Workload, WARMUP_STEPS, WORLD};

/// The end-to-end metrics, `(name, unit)`, in printing order; the same
/// list as `BENCHMARK.json`'s `end_to_end` (a test compares them).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("step_ms", "ms"),
    ("time_to_loss_s", "s"),
    ("cpu_ms_per_step", "ms"),
    ("wire_bytes_per_step", "B"),
    ("steps_to_loss", "steps"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics, as `BENCHMARK.json`'s `per_layer`.
const PER_LAYER: &[(&str, &str)] = &[
    ("tensor.gemm_ms", "ms"),
    ("tensor.topk_select_ms", "ms"),
    ("tensor.sign_pack_ms", "ms"),
    ("tensor.wire_convert_ms", "ms"),
    ("compress.encode_ms", "ms"),
    ("compress.decode_ms", "ms"),
    ("compress.aggregate_ms", "ms"),
    ("compress.serialize_ms", "ms"),
    ("compress.ratio", "ratio"),
    ("compress.rounds_per_step", "count"),
    ("cluster.allreduce_ms", "ms"),
    ("cluster.allgather_ms", "ms"),
    ("cluster.p2p_rtt_us", "us"),
    ("cluster.p2p_mib_per_s", "MiB/s"),
    ("cluster.mesh_form_ms", "ms"),
    ("cluster.frames_per_step", "count"),
    ("cluster.collectives_per_step", "count"),
    ("cluster.ctx_switches_per_step", "count"),
    ("ddp.exchange_ms", "ms"),
    ("ddp.pack_ms", "ms"),
    ("ddp.scatter_ms", "ms"),
    ("ddp.buckets_per_step", "count"),
    ("ddp.exposed_wait_ms", "ms"),
    ("ddp.comm_busy_ms", "ms"),
    ("ddp.overlap_ratio", "ratio"),
    ("ddp.span_residual_pct", "%"),
    ("train.grad_ms", "ms"),
    ("train.optim_ms", "ms"),
    ("train.loss_eval_ms", "ms"),
    ("train.step_ms_p50", "ms"),
    ("train.step_ms_p99", "ms"),
    ("train.final_loss", "loss"),
    ("core.eq1_predicted_step_ms", "ms"),
    ("core.eq1_model_error_pct", "%"),
    ("host.steal_pct", "%"),
    ("host.runq_wait_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
];

/// Set-ups per end-to-end run: the one the timed phase continues from,
/// then eight with no timed phase. `setup_s` is the median of all five.
const SETUP_REPEATS: usize = 5;

/// Both TCP workloads are replayed on `SimCluster` for this many steps
/// (warm-up included) and must land on the same parameter digest.
const REPLAY_STEPS: usize = 50;

/// Steps the traced run takes after warm-up; the untraced run records its
/// digest at the same point so the two can be compared.
const TRACE_STEPS: usize = 400;

/// Where `--trace 1` leaves its span dump, relative to the repo root
/// (`run.sh` starts the program there).
const TRACE_DIR: &str = "benchmark/traces";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut name = None;
    let mut seed = 1u64;
    let mut seconds = 25.0f64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => name = Some(value()?.to_string()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let workload = workload::all()
        .into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Named pass/fail checks on the program's outputs.
#[derive(Default)]
struct Checks(Vec<(String, bool)>);

impl Checks {
    fn check(&mut self, ok: bool, what: impl Into<String>) {
        self.0.push((what.into(), ok));
    }

    fn all_pass(&self) -> bool {
        self.0.iter().all(|(_, ok)| *ok)
    }
}

/// What one invocation reports.
struct Outcome {
    /// `(name, value)`; must cover the mode's declared list exactly.
    metrics: Vec<(&'static str, f64)>,
    attempted: usize,
    failed: usize,
    checks: Checks,
}

/// Checks every run shares: no rank hit an error, all ended on the same
/// parameters.
fn check_ranks(checks: &mut Checks, label: &str, ranks: &[RankReport]) {
    for (rank, report) in ranks.iter().enumerate() {
        let error = report.error.as_deref();
        checks.check(
            error.is_none(),
            format!("{label}: rank {rank} finished ({})", error.unwrap_or("ok")),
        );
    }
    checks.check(
        ranks
            .iter()
            .all(|r| r.final_digest == ranks[0].final_digest),
        format!(
            "{label}: rank digests equal ({:016x})",
            ranks[0].final_digest
        ),
    );
}

/// `(attempted, failed)` timed steps of a run: an error fails the step it
/// hit, and ends the run.
fn step_counts(ranks: &[RankReport]) -> (usize, usize) {
    let failed = usize::from(ranks.iter().any(|r| r.error.is_some()));
    (ranks[0].steps + failed, failed)
}

/// Steps until the loss first reads at or below `target`: the first such
/// evaluation, moved back along the straight line in log-log space to
/// where the curve crossed the target (these losses fall as a power of
/// the step count). `None` if the target was never seen.
fn steps_to_loss(losses: &[(usize, f64)], target: f64) -> Option<f64> {
    let hit = losses.iter().position(|&(_, loss)| loss <= target)?;
    let (s1, l1) = losses[hit];
    let Some(&(s0, l0)) = hit.checked_sub(1).and_then(|i| losses.get(i)) else {
        return Some(s1 as f64);
    };
    if !(l0 > target && l1 > 0.0 && l0 > l1 && s0 > 0) {
        return Some(s1 as f64);
    }
    let t = (l0.ln() - target.ln()) / (l0.ln() - l1.ln());
    let (x0, x1) = ((s0 as f64).ln(), (s1 as f64).ln());
    Some((x0 + t * (x1 - x0)).exp())
}

fn end_to_end(args: &Args) -> Result<Outcome, String> {
    let w = &args.workload;
    // A run that only sets up; the others are variations of it.
    let spec = RunSpec {
        workload: w,
        backend: w.backend,
        seed: args.seed,
        until: Until::Steps(0),
        traced: false,
        digest_at: None,
    };
    // The timed run goes first, on a heap no earlier run has shaped: its
    // memory high-water mark is read when its timed phase ends.
    let ranks = train(RunSpec {
        until: Until::Elapsed {
            seconds: args.seconds,
            min_steps: 0,
            need_target: true,
        },
        digest_at: Some(REPLAY_STEPS),
        ..spec
    })?;
    let r0 = &ranks[0];
    let mut setups = vec![r0.setup_s];
    for _ in 1..SETUP_REPEATS {
        setups.push(train(spec)?[0].setup_s);
    }

    let mut checks = Checks::default();
    check_ranks(&mut checks, "timed run", &ranks);
    let final_loss = r0.losses.last().map_or(f64::NAN, |&(_, loss)| loss);
    let to_loss = steps_to_loss(&r0.losses, w.target_loss);
    checks.check(
        final_loss.is_finite() && to_loss.is_some(),
        format!(
            "final loss {final_loss:.3e} finite and target {:.3e} reached",
            w.target_loss
        ),
    );
    let all_steps = (WARMUP_STEPS + r0.steps) as f64;
    let wire_bytes_per_step = r0.bytes_sent as f64 / all_steps;
    if w.method == gcs_compress::registry::MethodConfig::SyncSgd {
        // Ring all-reduce sends 2(p-1)/p of the f32 gradient per rank.
        let expect = 2 * (WORLD - 1) * 4 * w.model.params() / WORLD;
        checks.check(
            wire_bytes_per_step == expect as f64,
            format!(
                "wire bytes per step {wire_bytes_per_step} equal 2(p-1)/p x 4 x params = {expect}"
            ),
        );
    }
    if w.backend == Backend::Tcp {
        let replay = train(RunSpec {
            backend: Backend::Sim,
            until: Until::Steps(REPLAY_STEPS - WARMUP_STEPS),
            digest_at: Some(REPLAY_STEPS),
            ..spec
        })?;
        check_ranks(&mut checks, "sim replay", &replay);
        checks.check(
            r0.digest_at.is_some() && replay[0].digest_at == r0.digest_at,
            format!("first {REPLAY_STEPS} steps give the same digest on SimCluster"),
        );
    }

    // The fastest tenth, not the median: a busy host slows a share of the
    // steps that grows with its load, and leaves the fast ones alone. Over
    // eight same-code runs, three of them while the host was busy, the
    // median of `dense-ring-tcp` ranged 6.3-7.9 ms and this 5.85-6.37.
    let step_ms = percentile(&r0.step_ms, 10.0);
    // Cores kept busy while stepping. This VM books stolen cycles as CPU
    // time (`host.steal_pct` reads 0 while CPU per step drifts with wall
    // time), so CPU is taken relative to wall and scaled to `step_ms`.
    let busy_cores = r0.cpu_ms / r0.step_ms.iter().sum::<f64>().max(1e-9);
    let steps_to_loss = to_loss.unwrap_or(0.0);
    println!(
        "samples: {} timed steps in {:.2} s, {} loss evaluations, step_ms p10 {:.4} p50 {:.4} p90 {:.4}, {:.3} cores busy",
        r0.steps,
        r0.timed_wall_s,
        r0.losses.len(),
        step_ms,
        median(&r0.step_ms),
        percentile(&r0.step_ms, 90.0),
        busy_cores,
    );
    let curve: Vec<String> = r0
        .losses
        .iter()
        .map(|(step, loss)| format!("{step}:{loss:.3e}"))
        .collect();
    println!("loss after timed step: {}", curve.join(" "));
    // Drift inside the run shows as a trend across these.
    let tenth = r0.step_ms.len().div_ceil(10).max(1);
    let tenths: Vec<String> = r0
        .step_ms
        .chunks(tenth)
        .map(|chunk| format!("{:.3}", median(chunk)))
        .collect();
    println!("step_ms median by tenth of the run: {}", tenths.join(" "));
    let (attempted, failed) = step_counts(&ranks);
    Ok(Outcome {
        metrics: vec![
            ("setup_s", median(&setups)),
            ("step_ms", step_ms),
            ("time_to_loss_s", steps_to_loss * step_ms / 1e3),
            ("cpu_ms_per_step", busy_cores * step_ms),
            ("wire_bytes_per_step", wire_bytes_per_step),
            ("steps_to_loss", steps_to_loss),
            ("peak_rss_mib", r0.peak_rss_mib),
        ],
        attempted,
        failed,
        checks,
    })
}

fn per_layer(args: &Args) -> Result<Outcome, String> {
    let w = &args.workload;
    let host_before = procfs::host_cpu();
    let mut spec = RunSpec {
        workload: w,
        backend: w.backend,
        seed: args.seed,
        until: Until::Elapsed {
            seconds: 0.55 * args.seconds,
            min_steps: w.eval_every.max(TRACE_STEPS),
            need_target: false,
        },
        traced: false,
        digest_at: Some(WARMUP_STEPS + TRACE_STEPS),
    };
    let plain = train(spec)?;
    let steps = TRACE_STEPS;
    spec.until = Until::Steps(steps);
    spec.traced = true;
    let mut traced = train(spec)?;

    let mut checks = Checks::default();
    check_ranks(&mut checks, "untraced run", &plain);
    check_ranks(&mut checks, "traced run", &traced);
    checks.check(
        Some(traced[0].final_digest) == plain[0].digest_at,
        format!("traced and untraced runs hold the same digest after {steps} steps"),
    );

    let micro_budget = Duration::from_secs_f64(0.1 * args.seconds);
    let tensor = micro::tensor(args.seed, micro_budget);
    let cluster = micro::cluster(w.backend, micro_budget)?;

    let recorders: Vec<_> = traced.iter_mut().map(|r| r.recorder.take()).collect();
    let Some(rec) = recorders[0].as_ref() else {
        return Err("traced run returned no recorder".into());
    };
    let spans = rec.spans();
    let per_step = |names: &[&str]| median(&per_step_ms(spans, names, WARMUP_STEPS, steps));
    let probes = rec.probes.get(WARMUP_STEPS..).unwrap_or_default();
    let probe =
        |f: fn(&trace::PipelineProbe) -> f64| median(&probes.iter().map(f).collect::<Vec<f64>>());
    let pipelined = matches!(w.exchange, Exchange::Pipelined { .. });
    let rounds = w
        .method
        .build()
        .map_err(|e| format!("building {}: {e}", w.method))?
        .properties()
        .rounds;

    let all_steps = WARMUP_STEPS + steps;
    let one_step = &rec.collectives[..rec.collectives.len() / all_steps.max(1)];
    let payload_bytes: usize = one_step
        .iter()
        .map(|c| match *c {
            Collective::AllReduce(b) | Collective::AllGather(b) => b,
        })
        .sum();
    let net = NetworkModel::new(
        cluster.p2p_rtt_us / 2.0 / 1e6,
        (cluster.p2p_mib_per_s * (1 << 20) as f64).max(1.0),
    );
    let modelled_comm_ms: f64 = one_step
        .iter()
        .map(|c| match *c {
            Collective::AllReduce(b) => net.ring_all_reduce(b, WORLD),
            Collective::AllGather(b) => net.all_gather(b, WORLD),
        })
        .sum::<f64>()
        * 1e3;

    let (encode_ms, decode_ms) = if pipelined {
        (probe(|p| p.encode_ms), probe(|p| p.decode_ms))
    } else {
        (
            per_step(&["compress.encode"]),
            per_step(&["compress.absorb", "compress.finish"]),
        )
    };
    let (grad_ms, optim_ms) = (per_step(&["train.grad"]), per_step(&["train.optim"]));
    let measured_step_ms = median(&plain[0].step_ms);
    // Equation 1 on this runtime: compute + encode/decode + modelled wire.
    let predicted_step_ms = grad_ms + optim_ms + encode_ms + decode_ms + modelled_comm_ms;
    let (exposed_wait_ms, comm_busy_ms) = (probe(|p| p.exposed_wait_ms), probe(|p| p.comm_busy_ms));
    let steal_pct = match (host_before, procfs::host_cpu()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            100.0 * s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
        }
        _ => 0.0,
    };

    let dump = json!({
        "workload": w.name,
        "seed": args.seed,
        "timed_steps": steps,
        "ranks": recorders
            .iter()
            .enumerate()
            .filter_map(|(rank, r)| r.as_ref().map(|r| r.to_json(rank)))
            .collect::<Vec<Value>>()
    });
    let path = format!("{TRACE_DIR}/{}.json", w.name);
    let written = std::fs::create_dir_all(TRACE_DIR)
        .and_then(|()| std::fs::write(&path, serde_json::to_string(&dump).unwrap_or_default()));
    match written {
        Ok(()) => println!("trace: {} spans per rank written to {path}", spans.len()),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }

    let (a0, f0) = step_counts(&plain);
    let (a1, f1) = step_counts(&traced);
    Ok(Outcome {
        metrics: vec![
            ("tensor.gemm_ms", tensor.gemm_ms),
            ("tensor.topk_select_ms", tensor.topk_select_ms),
            ("tensor.sign_pack_ms", tensor.sign_pack_ms),
            ("tensor.wire_convert_ms", tensor.wire_convert_ms),
            ("compress.encode_ms", encode_ms),
            ("compress.decode_ms", decode_ms),
            ("compress.aggregate_ms", per_step(&["compress.aggregate"])),
            (
                "compress.serialize_ms",
                per_step(&["compress.write_bytes", "compress.from_bytes"]),
            ),
            (
                "compress.ratio",
                (4 * w.model.params()) as f64 / payload_bytes.max(1) as f64,
            ),
            ("compress.rounds_per_step", rounds as f64),
            ("cluster.allreduce_ms", per_step(&["cluster.all_reduce"])),
            ("cluster.allgather_ms", per_step(&["cluster.all_gather"])),
            ("cluster.p2p_rtt_us", cluster.p2p_rtt_us),
            ("cluster.p2p_mib_per_s", cluster.p2p_mib_per_s),
            ("cluster.mesh_form_ms", cluster.mesh_form_ms),
            (
                "cluster.frames_per_step",
                plain[0].frames_sent as f64 / (WARMUP_STEPS + plain[0].steps) as f64,
            ),
            ("cluster.collectives_per_step", one_step.len() as f64),
            (
                "cluster.ctx_switches_per_step",
                plain[0].voluntary_switches as f64 / plain[0].steps.max(1) as f64,
            ),
            ("ddp.exchange_ms", per_step(&["ddp.exchange"])),
            ("ddp.pack_ms", per_step(&["ddp.pack"])),
            ("ddp.scatter_ms", per_step(&["ddp.scatter"])),
            ("ddp.buckets_per_step", traced[0].buckets as f64),
            ("ddp.exposed_wait_ms", exposed_wait_ms),
            ("ddp.comm_busy_ms", comm_busy_ms),
            (
                "ddp.overlap_ratio",
                if comm_busy_ms > 0.0 {
                    1.0 - exposed_wait_ms / comm_busy_ms
                } else {
                    0.0
                },
            ),
            ("ddp.span_residual_pct", residual_pct(spans, "step")),
            ("train.grad_ms", grad_ms),
            ("train.optim_ms", optim_ms),
            ("train.loss_eval_ms", median(&plain[0].eval_ms)),
            ("train.step_ms_p50", measured_step_ms),
            ("train.step_ms_p99", percentile(&plain[0].step_ms, 99.0)),
            (
                "train.final_loss",
                plain[0].losses.first().map_or(0.0, |&(_, loss)| loss),
            ),
            ("core.eq1_predicted_step_ms", predicted_step_ms),
            (
                "core.eq1_model_error_pct",
                100.0 * (predicted_step_ms - measured_step_ms) / measured_step_ms,
            ),
            ("host.steal_pct", steal_pct),
            ("host.runq_wait_pct", plain[0].runq_wait_pct),
            (
                "bench.trace_overhead_pct",
                100.0 * (median(&traced[0].step_ms) - measured_step_ms) / measured_step_ms,
            ),
        ],
        attempted: a0 + a1,
        failed: f0 + f1,
        checks,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == [idle::CHILD_FLAG] {
        idle::spin_until_orphaned();
        return ExitCode::SUCCESS;
    }
    if argv == ["--list"] {
        for w in workload::all() {
            println!("{}", w.name);
        }
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: gcs-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] | --list");
            return ExitCode::from(2);
        }
    };
    let w = &args.workload;
    println!(
        "workload {} seed {} seconds {} trace {} | ranks {WORLD} model {}x{}x{} ({} params) batch/rank {} method {} backend {:?} exchange {:?}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.model.dim,
        w.model.hidden,
        w.model.classes,
        w.model.params(),
        w.batch_per_rank,
        w.method,
        w.backend,
        w.exchange,
    );
    let guard = idle::IdleGuard::start();
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unset".into());
    println!(
        "config: GCS_KERNEL_THREADS={} GCS_NO_AUTOTUNE={} kernel_pool_width={} simd={} available_parallelism={} idle_guard={}",
        env("GCS_KERNEL_THREADS"),
        env("GCS_NO_AUTOTUNE"),
        gcs_tensor::pool::global().width(),
        gcs_tensor::kernels::feature_string(),
        std::thread::available_parallelism().map_or(0, usize::from),
        guard.mode,
    );
    let outcome = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    drop(guard);
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    if !declared
        .iter()
        .map(|(name, _)| name)
        .eq(outcome.metrics.iter().map(|(name, _)| name))
    {
        eprintln!("error: the metrics measured are not the metrics declared");
        return ExitCode::FAILURE;
    }
    for ((name, unit), (_, value)) in declared.iter().zip(&outcome.metrics) {
        println!("metric {name:<32} {value:>16.6} {unit}");
    }
    for (what, ok) in &outcome.checks.0 {
        println!("check {} {what}", if *ok { "pass" } else { "FAIL" });
    }
    println!(
        "steps_attempted {} steps_failed {}",
        outcome.attempted, outcome.failed
    );
    let correct = outcome.checks.all_pass() && outcome.failed == 0;
    let metrics: Vec<(String, Value)> = declared
        .iter()
        .zip(&outcome.metrics)
        .map(|((name, unit), (_, value))| (name.to_string(), json!({"value": value, "unit": unit})))
        .collect();
    let result = json!({
        "correct": correct,
        "attempted": outcome.attempted.max(1),
        "failed": outcome.failed,
        "metrics": Value::Object(metrics)
    });
    println!("{}", serde_json::to_string(&result).unwrap_or_default());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_to_loss_interpolates_along_the_power_law() {
        // loss = 1/step exactly: the target 1/300 is crossed at step 300.
        let losses = [(100, 0.01), (200, 0.005), (400, 0.0025), (800, 0.00125)];
        let got = steps_to_loss(&losses, 1.0 / 300.0).unwrap();
        assert!((got - 300.0).abs() < 1e-6, "{got}");
        // A target met exactly at an evaluation reads that step.
        let got = steps_to_loss(&losses, 0.005).unwrap();
        assert!((got - 200.0).abs() < 1e-6, "{got}");
    }

    #[test]
    fn steps_to_loss_without_a_bracket_reads_the_evaluated_step() {
        assert_eq!(steps_to_loss(&[(250, 0.001)], 0.01), Some(250.0));
        // A loss of exactly zero has no logarithm to interpolate on.
        assert_eq!(steps_to_loss(&[(250, 0.5), (500, 0.0)], 0.01), Some(500.0));
        assert_eq!(steps_to_loss(&[(250, 0.5)], 0.01), None);
        assert_eq!(steps_to_loss(&[], 0.01), None);
    }

    #[test]
    fn benchmark_json_declares_what_this_program_measures() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let spec: Value = serde_json::from_str(&text).expect("valid JSON");
        let pairs = |key: &str, second: &str| -> Vec<(String, String)> {
            let text = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap().to_string();
            let list = spec.get(key).and_then(Value::as_array).unwrap();
            list.iter()
                .map(|m| (text(m, "name"), text(m, second)))
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(pairs("end_to_end", "unit"), owned(END_TO_END));
        assert_eq!(pairs("per_layer", "unit"), owned(PER_LAYER));
        let declared: Vec<String> = pairs("workloads", "why").into_iter().map(|p| p.0).collect();
        let built: Vec<&str> = workload::all().iter().map(|w| w.name).collect();
        assert_eq!(declared, built);
    }

    #[test]
    fn arguments_are_validated() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&argv(
            "--workload lowrank-sim --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (ok.workload.name, ok.seed, ok.seconds, ok.trace),
            ("lowrank-sim", 7, 3.0, true)
        );
        assert!(parse_args(&argv("--seed 7")).is_err());
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload lowrank-sim --trace 2")).is_err());
        assert!(parse_args(&argv("--workload lowrank-sim --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload lowrank-sim --seconds")).is_err());
    }
}
