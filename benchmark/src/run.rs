//! The closed training loop every workload shares: two ranks in lockstep,
//! each `minibatch_grad` → exchange → `Sgd::step`, built only from public
//! calls of the crates under measurement.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use gcs_cluster::{NetEmu, SimCluster, TcpCluster, WorkerHandle};
use gcs_compress::CompressError;
use gcs_ddp::exec::ExecError;
use gcs_tensor::Tensor;
use gcs_train::optim::Sgd;
use gcs_train::task::Task;

use crate::engine::Engine;
use crate::procfs;
use crate::trace::Recorder;
use crate::workload::{Backend, Workload, WARMUP_STEPS, WORLD};

/// Runs `f` once per rank on `backend` and returns the results in rank
/// order.
pub fn on_cluster<R: Send>(
    backend: Backend,
    f: impl Fn(WorkerHandle) -> R + Sync,
) -> Result<Vec<R>, String> {
    match backend {
        Backend::Sim => Ok(SimCluster::run(WORLD, f)),
        Backend::SimNetem => Ok(SimCluster::run_with_netem(
            WORLD,
            NetEmu::from_gbps(25.0, 0.2),
            f,
        )),
        Backend::Tcp => TcpCluster::run(WORLD, f).map_err(|e| format!("forming tcp mesh: {e}")),
    }
}

/// When the timed phase ends.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After exactly this many timed steps.
    Steps(usize),
    /// At the first step boundary at which `seconds` have passed and at
    /// least `min_steps` are done and (if `need_target`) the target loss
    /// has been seen; given up on at three times `seconds`.
    Elapsed {
        seconds: f64,
        min_steps: usize,
        need_target: bool,
    },
}

#[derive(Debug, Clone, Copy)]
pub struct RunSpec<'a> {
    pub workload: &'a Workload,
    /// Normally the workload's own; the replay check overrides it.
    pub backend: Backend,
    pub seed: u64,
    pub until: Until,
    pub traced: bool,
    /// Record the parameter digest after this many steps (warm-up
    /// included), for comparison across backends.
    pub digest_at: Option<usize>,
}

/// What one rank brings back.
#[derive(Debug, Default)]
pub struct RankReport {
    /// Seconds from before task generation to the end of warm-up.
    pub setup_s: f64,
    /// Timed steps completed.
    pub steps: usize,
    /// Wall time of each timed step in ms.
    pub step_ms: Vec<f64>,
    /// `(timed steps done, full loss)`; rank 0 only.
    pub losses: Vec<(usize, f64)>,
    /// Wall time of each loss evaluation in ms; rank 0 only.
    pub eval_ms: Vec<f64>,
    pub final_digest: u64,
    pub digest_at: Option<u64>,
    /// Payload bytes and frames sent, warm-up included.
    pub bytes_sent: u64,
    pub frames_sent: u64,
    /// Process CPU over the timed phase, minus this rank's loss
    /// evaluations, in ms; rank 0 only.
    pub cpu_ms: f64,
    pub peak_rss_mib: f64,
    /// Voluntary context switches of the process over the timed phase.
    pub voluntary_switches: u64,
    /// Share of the timed phase this rank's thread sat runnable but
    /// unscheduled, in %.
    pub runq_wait_pct: f64,
    pub timed_wall_s: f64,
    pub buckets: usize,
    pub recorder: Option<Recorder>,
    /// The error that ended the run early, if one did.
    pub error: Option<String>,
}

/// FNV-1a over the bit patterns of every parameter.
pub fn digest(params: &[Tensor]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for value in params.iter().flat_map(|t| t.data()) {
        for byte in value.to_bits().to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Minibatch seed of `rank` at `step` (warm-up included): the run seed
/// spread so that ranks and steps never share a sample stream.
fn sample_seed(seed: u64, step: usize, rank: usize) -> u64 {
    seed.wrapping_add(1 + step as u64)
        .wrapping_mul(7_368_787)
        .wrapping_add(rank as u64)
}

/// One full run: task generation, cluster formation, engine construction,
/// warm-up, then the timed phase. Returns one report per rank.
pub fn train(spec: RunSpec<'_>) -> Result<Vec<RankReport>, String> {
    let started = Instant::now();
    let task = spec.workload.model.task(spec.seed);
    // The step at which every rank stops. Fixed up front for `Steps`;
    // for `Elapsed` rank 0 sets it two steps ahead of itself, which
    // rank 1 cannot have passed: it finishes a step's exchange only
    // after rank 0 has entered the same one.
    let stop_at = AtomicUsize::new(match spec.until {
        Until::Steps(n) => n,
        Until::Elapsed { .. } => usize::MAX,
    });
    on_cluster(spec.backend, |worker| {
        let mut report = RankReport::default();
        if let Err(e) = run_rank(&spec, &task, worker, started, &stop_at, &mut report) {
            report.error = Some(e.to_string());
            // Release the peer should it still be stepping.
            stop_at.store(0, Ordering::SeqCst);
        }
        report
    })
}

fn run_rank<T: Task>(
    spec: &RunSpec<'_>,
    task: &T,
    worker: WorkerHandle,
    started: Instant,
    stop_at: &AtomicUsize,
    report: &mut RankReport,
) -> Result<(), ExecError> {
    let workload = spec.workload;
    let rank = worker.rank();
    let mut params = task.init_params(spec.seed);
    let mut engine = Engine::new(workload, worker, &params)?;
    let mut opt = Sgd::new(workload.lr);
    let mut rec = spec.traced.then(Recorder::new);

    let mut step_once = |params: &mut Vec<Tensor>,
                         engine: &mut Engine,
                         rec: &mut Option<Recorder>,
                         step: usize|
     -> Result<(), ExecError> {
        let seed = sample_seed(spec.seed, step, rank);
        let batch = workload.batch_per_rank;
        let apply = |opt: &mut Sgd, params: &mut Vec<Tensor>, mean: &[Tensor]| {
            opt.step(params, mean).map_err(CompressError::from)
        };
        match rec {
            None => {
                let grads = task.minibatch_grad(params, batch, seed);
                let mean = engine.exchange(&grads)?;
                apply(&mut opt, params, &mean)?;
            }
            Some(rec) => {
                rec.set_step(step);
                rec.scope("step", |rec| -> Result<(), ExecError> {
                    let grads = rec.leaf("train.grad", || task.minibatch_grad(params, batch, seed));
                    let mean = engine.exchange_traced(&grads, rec)?;
                    rec.leaf("train.optim", || apply(&mut opt, params, &mean))?;
                    Ok(())
                })?;
            }
        }
        Ok(())
    };

    for step in 0..WARMUP_STEPS {
        step_once(&mut params, &mut engine, &mut rec, step)?;
    }
    report.setup_s = started.elapsed().as_secs_f64();

    let (deadline, min_steps, need_target) = match spec.until {
        Until::Steps(_) => (None, 0, false),
        Until::Elapsed {
            seconds,
            min_steps,
            need_target,
        } => (
            Some(Duration::from_secs_f64(seconds)),
            min_steps,
            need_target,
        ),
    };
    let mut reached_target = false;
    let mut eval_cpu_ns = 0u64;
    let cpu_before = procfs::process_cpu_ms();
    let switches_before = procfs::voluntary_switches();
    let sched_before = procfs::thread_sched();
    let phase = Instant::now();
    while report.steps < stop_at.load(Ordering::SeqCst) {
        let total_step = WARMUP_STEPS + report.steps;
        let t = Instant::now();
        step_once(&mut params, &mut engine, &mut rec, total_step)?;
        report.step_ms.push(t.elapsed().as_secs_f64() * 1e3);
        report.steps += 1;
        if spec.digest_at == Some(total_step + 1) {
            report.digest_at = Some(digest(&params));
        }
        if rank != 0 {
            continue;
        }
        if report.steps.is_multiple_of(workload.eval_every) {
            let on_cpu = procfs::thread_sched();
            let t = Instant::now();
            let loss = match &mut rec {
                Some(rec) => rec.leaf("train.loss_eval", || task.full_loss(&params)),
                None => task.full_loss(&params),
            };
            report.eval_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if let (Some((before, _)), Some((after, _))) = (on_cpu, procfs::thread_sched()) {
                eval_cpu_ns += after.saturating_sub(before);
            }
            report.losses.push((report.steps, loss));
            reached_target |= loss <= workload.target_loss;
        }
        if let Some(deadline) = deadline {
            let elapsed = phase.elapsed();
            let satisfied = report.steps >= min_steps && (reached_target || !need_target);
            if stop_at.load(Ordering::SeqCst) == usize::MAX
                && elapsed >= deadline
                && (satisfied || elapsed >= 3 * deadline)
            {
                stop_at.store(report.steps + 2, Ordering::SeqCst);
            }
        }
    }
    report.timed_wall_s = phase.elapsed().as_secs_f64();
    // The loss a timed run ended on, unless the last step already read it.
    if rank == 0 && deadline.is_some() && !report.steps.is_multiple_of(workload.eval_every) {
        report.losses.push((report.steps, task.full_loss(&params)));
    }
    if let (Some(before), Some(after)) = (cpu_before, procfs::process_cpu_ms()) {
        report.cpu_ms = after - before - eval_cpu_ns as f64 / 1e6;
    }
    if let (Some(before), Some(after)) = (switches_before, procfs::voluntary_switches()) {
        report.voluntary_switches = after.saturating_sub(before);
    }
    if let (Some((_, before)), Some((_, after))) = (sched_before, procfs::thread_sched()) {
        report.runq_wait_pct =
            100.0 * after.saturating_sub(before) as f64 / 1e9 / report.timed_wall_s.max(1e-9);
    }
    report.peak_rss_mib = procfs::peak_rss_mib().unwrap_or(0.0);
    report.final_digest = digest(&params);
    report.buckets = engine.buckets();
    let worker = engine.into_worker();
    report.bytes_sent = worker.traffic().bytes_sent();
    report.frames_sent = worker.traffic().messages_sent();
    report.recorder = rec;
    Ok(())
}
