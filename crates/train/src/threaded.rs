//! Fully threaded end-to-end training: one OS thread per worker, real
//! gradients, real compression, real collectives — the closest this
//! reproduction gets to an actual multi-GPU DDP job.
//!
//! Each worker owns its compressor state (error feedback, warm starts) and
//! its optimizer; gradient exchange goes through
//! [`gcs_ddp::exec::exchange_gradients`] (or the [`PipelinedEngine`]) over
//! the `gcs-cluster` channel mesh. Because all-reducible payloads ride the
//! real ring all-reduce, every worker ends each step with bit-identical
//! parameters — asserted at the end of the run.

use crate::harness::ConvergenceReport;
use crate::optim::Sgd;
use crate::task::Task;
use gcs_cluster::{FaultPlan, SimCluster, WorkerHandle};
use gcs_compress::registry::MethodConfig;
use gcs_compress::{CompressError, Compressor};
use gcs_ddp::exec::{exchange_gradients, ExecError};
use gcs_ddp::{PipelineConfig, PipelinedEngine, RunEvent, RunEventKind};
use gcs_tensor::Tensor;

/// Errors from threaded training.
#[derive(Debug)]
pub enum ThreadedTrainError {
    /// A worker failed during the exchange.
    Exec(ExecError),
    /// Workers ended the run with diverged parameters (protocol bug).
    Diverged {
        /// First rank whose parameters differ from rank 0's.
        rank: usize,
    },
    /// The fault plan killed every rank before the run ended, so no
    /// worker is left to report.
    NoSurvivors {
        /// Worker count of the run.
        workers: usize,
    },
    /// The config asks for something the trainer cannot honour (for
    /// example a fault plan together with the pipelined engine).
    InvalidConfig(String),
}

impl std::fmt::Display for ThreadedTrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThreadedTrainError::Exec(e) => write!(f, "worker failed: {e}"),
            ThreadedTrainError::Diverged { rank } => {
                write!(f, "worker {rank} diverged from rank 0")
            }
            ThreadedTrainError::NoSurvivors { workers } => {
                write!(
                    f,
                    "the fault plan killed all {workers} workers: no survivor"
                )
            }
            ThreadedTrainError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
        }
    }
}

impl std::error::Error for ThreadedTrainError {}

impl From<ExecError> for ThreadedTrainError {
    fn from(e: ExecError) -> Self {
        ThreadedTrainError::Exec(e)
    }
}

/// Configuration for a threaded run (kept small; the richer
/// [`TrainConfig`](crate::harness::TrainConfig) drives the centralized
/// harness).
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// Worker (thread) count.
    pub workers: usize,
    /// Optimizer steps.
    pub steps: usize,
    /// Per-worker minibatch size.
    pub batch_per_worker: usize,
    /// Learning rate.
    pub lr: f32,
    /// RNG seed.
    pub seed: u64,
    /// `Some(cfg)`: exchange through the [`PipelinedEngine`] (bucketed,
    /// comm thread, bounded-channel overlap) instead of the sequential
    /// per-layer engine. With the default plain-ring config the parameter
    /// trajectory is bit-identical between the two engines.
    pub pipeline: Option<PipelineConfig>,
    /// `Some(plan)`: run the cluster under this fault plan; ranks die on
    /// its schedule and the survivors shrink the ring (see
    /// [`train_threaded`]). Cannot be combined with `pipeline`.
    pub faults: Option<FaultPlan>,
}

impl ThreadedConfig {
    /// Defaults: 4 workers, 100 steps, batch 16, lr 0.1, sequential
    /// exchange.
    pub fn new() -> Self {
        ThreadedConfig {
            workers: 4,
            steps: 100,
            batch_per_worker: 16,
            lr: 0.1,
            seed: 0,
            pipeline: None,
            faults: None,
        }
    }

    /// Sets the worker count.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        self.workers = workers;
        self
    }

    /// Sets the step count.
    pub fn steps(mut self, steps: usize) -> Self {
        self.steps = steps;
        self
    }

    /// Sets the learning rate.
    pub fn lr(mut self, lr: f32) -> Self {
        self.lr = lr;
        self
    }

    /// Sets the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Routes the gradient exchange through the pipelined engine.
    pub fn pipelined(mut self, pipeline: PipelineConfig) -> Self {
        self.pipeline = Some(pipeline);
        self
    }

    /// Runs the cluster under `plan` (see [`train_threaded`]).
    pub fn faulty(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// A finished rank's final parameters and loss trajectory.
pub(crate) type RankRun = (Vec<Tensor>, Vec<(usize, f64)>);

/// The per-rank loop every threaded trainer shares: minibatch seed
/// derivation, exchange, SGD step, full loss at step 0, every 10 steps
/// and at the end. `exchange(step, grads)` returns the mean gradient, or
/// `None` when this rank leaves the run at `step` — then the loop stops
/// and returns `None` too.
pub(crate) fn train_rank<T: Task>(
    task: &T,
    cfg: &ThreadedConfig,
    rank: usize,
    mut exchange: impl FnMut(usize, &[Tensor]) -> Result<Option<Vec<Tensor>>, ExecError>,
) -> Result<Option<RankRun>, ExecError> {
    let mut params = task.init_params(cfg.seed);
    let mut opt = Sgd::new(cfg.lr);
    let mut losses = vec![(0usize, task.full_loss(&params))];
    for step in 0..cfg.steps {
        let grads = task.minibatch_grad(
            &params,
            cfg.batch_per_worker,
            cfg.seed
                .wrapping_add(1 + step as u64)
                .wrapping_mul(7_368_787)
                .wrapping_add(rank as u64),
        );
        let Some(mean) = exchange(step, &grads)? else {
            return Ok(None);
        };
        opt.step(&mut params, &mean)
            .map_err(CompressError::from)
            .map_err(ExecError::from)?;
        if (step + 1) % 10 == 0 || step + 1 == cfg.steps {
            losses.push((step + 1, task.full_loss(&params)));
        }
    }
    Ok(Some((params, losses)))
}

/// The lowest-ranked finished run and its extra output, from each rank's
/// result in rank order (its run, `None` if it left, plus
/// trainer-specific output) — after the first worker error and a check
/// that every finished rank holds the same parameters.
pub(crate) fn agreed_run<X>(
    results: Vec<Result<(Option<RankRun>, X), ExecError>>,
) -> Result<(RankRun, X), ThreadedTrainError> {
    let workers = results.len();
    let mut finished = Vec::with_capacity(workers);
    for (rank, r) in results.into_iter().enumerate() {
        if let (Some(run), extra) = r? {
            finished.push((rank, run, extra));
        }
    }
    let mut finished = finished.into_iter();
    let Some((_, first, extra)) = finished.next() else {
        return Err(ThreadedTrainError::NoSurvivors { workers });
    };
    for (rank, (params, _), _) in finished {
        if params != first.0 {
            return Err(ThreadedTrainError::Diverged { rank });
        }
    }
    Ok((first, extra))
}

/// Trains `task` with one thread per worker over real collectives and
/// returns the loss trajectory (evaluated every 10 steps on the
/// lowest-ranked worker that finished) plus the run's robustness events.
///
/// Under `cfg.faults` the cluster runs with the plan's injected faults,
/// and a rank that reaches its scheduled death drops out mid-run: it calls
/// `mark_dead`, while the survivors recompute the live membership from the
/// shared plan, shrink their handles' ring with `set_members` (so the
/// gradient mean renormalizes over the live member count), and keep
/// training. Each membership change is recorded as [`RunEvent`]s — one
/// `RankDead` per death and one `RingShrink` — as seen by the reporting
/// worker. Without a plan, or with a benign one, the events are empty and
/// the trajectory is bit-identical to a run without faults.
///
/// # Errors
///
/// Returns [`ThreadedTrainError`] if `cfg` sets both `faults` and
/// `pipeline` (the pipelined engine's comm thread owns the handle and
/// cannot re-plan membership), a worker's exchange fails, the finishing
/// workers end with different parameters, or the plan leaves no survivor.
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn train_threaded<T: Task + Sync>(
    task: &T,
    method: &MethodConfig,
    cfg: &ThreadedConfig,
) -> Result<(ConvergenceReport, Vec<RunEvent>), ThreadedTrainError> {
    // Either engine behind one `exchange` call so the training loop is
    // written once.
    enum Engine {
        Sequential(WorkerHandle, Box<dyn Compressor>),
        // Boxed: the pipelined engine is an order of magnitude larger
        // than the sequential pair.
        Pipelined(Box<PipelinedEngine<Box<dyn Compressor>>>),
    }
    if cfg.faults.is_some() && cfg.pipeline.is_some() {
        return Err(ThreadedTrainError::InvalidConfig(
            "a fault plan needs the sequential engine: the pipelined engine's comm \
             thread owns the worker handle and cannot shrink its ring"
                .into(),
        ));
    }
    let world = cfg.workers;
    let cluster = SimCluster::new_with_faults(world, None, cfg.faults.clone());
    let results = cluster.run_workers(|worker| {
        let rank = worker.rank();
        let compressor = method.build().map_err(ExecError::from)?;
        let mut engine = match &cfg.pipeline {
            Some(pcfg) => Engine::Pipelined(Box::new(PipelinedEngine::new(
                worker,
                compressor,
                pcfg.clone(),
            )?)),
            None => Engine::Sequential(worker, compressor),
        };
        let mut events: Vec<RunEvent> = Vec::new();
        let run = train_rank(task, cfg, rank, |step, grads| match &mut engine {
            Engine::Sequential(worker, compressor) => {
                if let Some(plan) = &cfg.faults {
                    if plan.dead_at(rank, step) {
                        // This rank's scheduled death: flip the alive bit
                        // (so stragglers poking this rank get PeerGone, and
                        // the fault log records the death) and leave.
                        worker.mark_dead(step);
                        return Ok(None);
                    }
                    let members = plan.live_members(world, step);
                    let live = worker.members().len();
                    if members.len() < live {
                        let newly_dead = plan.dead.iter().filter(|d| {
                            d.at_iter <= step && (step == 0 || !plan.dead_at(d.rank, step - 1))
                        });
                        events.extend(newly_dead.map(|d| RunEvent {
                            step,
                            kind: RunEventKind::RankDead { rank: d.rank },
                        }));
                        events.push(RunEvent {
                            step,
                            kind: RunEventKind::RingShrink {
                                from: live,
                                to: members.len(),
                            },
                        });
                        worker.set_members(&members)?;
                    }
                }
                exchange_gradients(worker, compressor, grads).map(Some)
            }
            Engine::Pipelined(engine) => engine.exchange(grads).map(Some),
        })?;
        Ok::<_, ExecError>((run, events))
    });
    let ((_, losses), events) = agreed_run(results)?;
    Ok((
        ConvergenceReport {
            method: method
                .build()
                .map(|c| c.properties().name)
                .unwrap_or_else(|_| "unknown".into()),
            task: task.name().to_owned(),
            losses,
        },
        events,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::LinearRegression;

    fn task() -> LinearRegression {
        LinearRegression::new(8, 96, 0.01, 41)
    }

    #[test]
    fn threaded_syncsgd_converges_and_workers_agree() {
        let (rep, _) = train_threaded(
            &task(),
            &MethodConfig::SyncSgd,
            &ThreadedConfig::new().workers(4).steps(120).lr(0.1).seed(2),
        )
        .unwrap();
        assert!(rep.final_loss() < 0.1 * rep.initial_loss());
    }

    #[test]
    fn threaded_powersgd_converges() {
        let (rep, _) = train_threaded(
            &task(),
            &MethodConfig::PowerSgd { rank: 2 },
            &ThreadedConfig::new().workers(3).steps(150).lr(0.1).seed(3),
        )
        .unwrap();
        assert!(
            rep.final_loss() < 0.2 * rep.initial_loss(),
            "{} -> {}",
            rep.initial_loss(),
            rep.final_loss()
        );
    }

    #[test]
    fn threaded_gather_method_converges() {
        let (rep, _) = train_threaded(
            &task(),
            &MethodConfig::EfSignSgd,
            &ThreadedConfig::new().workers(2).steps(200).lr(0.05).seed(4),
        )
        .unwrap();
        assert!(rep.final_loss() < 0.5 * rep.initial_loss());
    }

    #[test]
    fn pipelined_training_matches_sequential_bitwise() {
        // Same task/seeds, plain-ring pipeline: the whole parameter
        // trajectory must be bit-identical to the sequential engine
        // (per-layer exchange vs. one giant bucket holds because each
        // layer's ring reduction is independent of the packing — the
        // pipelined engine uses one bucket per layer here).
        let base = ThreadedConfig::new().workers(3).steps(40).lr(0.1).seed(6);
        let (seq, _) = train_threaded(&task(), &MethodConfig::SyncSgd, &base).unwrap();
        let (pipe, _) = train_threaded(
            &task(),
            &MethodConfig::SyncSgd,
            &base.clone().pipelined(PipelineConfig {
                // Tiny buckets: every layer gets its own bucket, so the
                // bucket schedule matches the per-layer schedule.
                bucket_bytes: 1,
                depth: 2,
                matricize: false,
            }),
        )
        .unwrap();
        assert_eq!(seq.losses, pipe.losses, "trajectories diverged");
    }

    #[test]
    fn pipelined_powersgd_converges_and_workers_agree() {
        let (rep, _) = train_threaded(
            &task(),
            &MethodConfig::PowerSgd { rank: 2 },
            &ThreadedConfig::new()
                .workers(3)
                .steps(150)
                .lr(0.1)
                .seed(3)
                .pipelined(PipelineConfig {
                    bucket_bytes: 256,
                    depth: 2,
                    matricize: false,
                }),
        )
        .unwrap();
        // Worker agreement is asserted inside train_threaded (Diverged).
        assert!(
            rep.final_loss() < 0.2 * rep.initial_loss(),
            "{} -> {}",
            rep.initial_loss(),
            rep.final_loss()
        );
    }

    #[test]
    fn killing_one_of_eight_workers_mid_run_degrades_gracefully() {
        // Rank 3 dies at step 5 of 40: the remaining 7 shrink the ring,
        // renormalize the mean over 7 contributions, and finish training.
        let cfg = ThreadedConfig::new()
            .workers(8)
            .steps(40)
            .lr(0.1)
            .seed(9)
            .faulty(FaultPlan::new(0xFA01).kill(3, 5));
        let (rep, events) = train_threaded(&task(), &MethodConfig::SyncSgd, &cfg).unwrap();
        // Training completed and converged on the survivors.
        assert_eq!(rep.losses.last().unwrap().0, 40);
        assert!(
            rep.final_loss() < 0.5 * rep.initial_loss(),
            "{} -> {}",
            rep.initial_loss(),
            rep.final_loss()
        );
        // The death and the ring reconfiguration are both on record.
        assert_eq!(
            events,
            vec![
                RunEvent {
                    step: 5,
                    kind: RunEventKind::RankDead { rank: 3 }
                },
                RunEvent {
                    step: 5,
                    kind: RunEventKind::RingShrink { from: 8, to: 7 }
                },
            ]
        );
    }

    #[test]
    fn no_plan_and_a_benign_plan_train_bitwise_alike() {
        let base = ThreadedConfig::new().workers(4).steps(30).lr(0.1).seed(12);
        let method = MethodConfig::TopK { ratio: 0.3 };
        let (plain, plain_events) = train_threaded(&task(), &method, &base).unwrap();
        let (benign, benign_events) =
            train_threaded(&task(), &method, &base.clone().faulty(FaultPlan::new(7))).unwrap();
        assert!(plain_events.is_empty() && benign_events.is_empty());
        assert_eq!(plain.losses, benign.losses, "benign plan must be a no-op");
    }

    #[test]
    fn a_plan_that_kills_every_rank_is_a_typed_error() {
        let cfg = ThreadedConfig::new()
            .workers(2)
            .steps(10)
            .faulty(FaultPlan::new(0).kill(0, 1).kill(1, 1));
        let err = train_threaded(&task(), &MethodConfig::SyncSgd, &cfg).unwrap_err();
        assert!(
            matches!(err, ThreadedTrainError::NoSurvivors { workers: 2 }),
            "{err}"
        );
    }

    #[test]
    fn faults_with_the_pipelined_engine_are_rejected() {
        let cfg = ThreadedConfig::new()
            .workers(2)
            .steps(10)
            .pipelined(PipelineConfig::default())
            .faulty(FaultPlan::new(0).kill(1, 5));
        let err = train_threaded(&task(), &MethodConfig::SyncSgd, &cfg).unwrap_err();
        assert!(matches!(err, ThreadedTrainError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn threaded_matches_centralized_harness() {
        // Same method + deterministic seeds: the threaded engine and the
        // centralized driver implement the same math, so final losses are
        // in the same regime (trajectories differ only by minibatch seed
        // derivation).
        use crate::harness::{train_distributed, TrainConfig};
        let (threaded, _) = train_threaded(
            &task(),
            &MethodConfig::Fp16,
            &ThreadedConfig::new().workers(3).steps(150).lr(0.05).seed(5),
        )
        .unwrap();
        let central = train_distributed(
            &task(),
            &MethodConfig::Fp16,
            &TrainConfig::new().workers(3).steps(150).lr(0.05).seed(5),
        )
        .unwrap();
        let ratio = threaded.final_loss() / central.final_loss().max(1e-9);
        assert!(
            (0.2..5.0).contains(&ratio),
            "threaded {} vs central {}",
            threaded.final_loss(),
            central.final_loss()
        );
    }
}
