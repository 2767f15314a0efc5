//! Fully threaded end-to-end training: one OS thread per worker, real
//! gradients, real compression, real collectives — the closest this
//! reproduction gets to an actual multi-GPU DDP job.
//!
//! Each worker owns an [`Exchanger`] (its compressor state: error
//! feedback, warm starts) and its optimizer, and exchanges gradients over
//! the `gcs-cluster` channel mesh as [`ThreadedConfig::exchange`] says:
//! per layer or in buckets, inline or on a comm thread, with one method or
//! the adaptive controller. Because all-reducible payloads ride the real
//! ring all-reduce, every worker ends each step with bit-identical
//! parameters — asserted at the end of the run. With adaptive arms the
//! report also carries the controller's modelled step time, so runs can be
//! compared on **time-to-loss**, the paper's figure of merit.

use crate::harness::ConvergenceReport;
use crate::optim::Sgd;
use crate::task::Task;
use gcs_cluster::{FaultPlan, SimCluster};
use gcs_compress::adaptive::Decision;
use gcs_compress::registry::MethodConfig;
use gcs_compress::{CompressError, Compressor};
use gcs_ddp::exec::ExecError;
use gcs_ddp::{Arms, ExchangeConfig, Exchanger, Lane, RunEvent, RunEventKind};

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
    /// example a fault plan together with the comm lane).
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
    /// Every worker's gradient exchange: plan, lane and arms.
    pub exchange: ExchangeConfig,
    /// `Some(plan)`: run the cluster under this fault plan; ranks die on
    /// its schedule and the survivors shrink the ring (see
    /// [`train_threaded`]). Needs one method on the inline lane.
    pub faults: Option<FaultPlan>,
}

impl ThreadedConfig {
    /// Defaults: 4 workers, 100 steps, batch 16, lr 0.1, syncSGD per
    /// layer on the inline lane.
    pub fn new() -> Self {
        ThreadedConfig {
            workers: 4,
            steps: 100,
            batch_per_worker: 16,
            lr: 0.1,
            seed: 0,
            exchange: ExchangeConfig::per_layer(MethodConfig::SyncSgd),
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

    /// Sets every worker's gradient exchange.
    pub fn exchange(mut self, exchange: ExchangeConfig) -> Self {
        self.exchange = exchange;
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

/// A threaded run: the loss trajectory, the robustness events, and with
/// adaptive arms the controller's view of the run.
#[derive(Debug, Clone)]
pub struct ThreadedReport {
    /// Loss trajectory (evaluated every 10 steps on the lowest-ranked
    /// worker that finished).
    pub report: ConvergenceReport,
    /// Membership changes under a fault plan, as the reporting worker saw
    /// them.
    pub events: Vec<RunEvent>,
    /// With adaptive arms: the reporting worker's controller at the end.
    pub adaptive: Option<AdaptiveReport>,
}

/// The adaptive controller's view of a finished run.
#[derive(Debug, Clone)]
pub struct AdaptiveReport {
    /// Modelled seconds per training step under the final arm assignment
    /// (Equation-1 comm cost plus encode/decode estimates, summed over
    /// buckets).
    pub modelled_step_s: f64,
    /// The full decision trace.
    pub trace: Vec<Decision>,
    /// Final per-bucket arm assignment.
    pub assignment: Vec<usize>,
}

impl ThreadedReport {
    /// Modelled wall-clock seconds until the full loss first drops to
    /// `target`: `None` without adaptive arms, or if the run never got
    /// there. Loss is sampled every 10 steps, so this has 10-step
    /// granularity — identical for every run it is compared against.
    pub fn time_to_loss(&self, target: f64) -> Option<f64> {
        let step_s = self.adaptive.as_ref()?.modelled_step_s;
        self.report
            .losses
            .iter()
            .find(|(_, loss)| *loss <= target)
            .map(|(step, _)| *step as f64 * step_s)
    }
}

/// Trains `task` with one thread per worker over real collectives, each
/// worker exchanging gradients through an [`Exchanger`] built from
/// `cfg.exchange`. A single-arm adaptive config is the fixed-scheme
/// baseline of an adaptive run: it runs the identical code path (including
/// the per-step decision broadcast), so adaptive-vs-fixed time-to-loss
/// comparisons are apples-to-apples.
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
/// Returns [`ThreadedTrainError`] if `cfg` sets `faults` with the comm
/// lane (its thread owns the handle and cannot re-plan membership) or with
/// adaptive arms (their decision broadcast needs every rank), an exchanger
/// cannot be built, a worker's exchange fails, the finishing workers end
/// with different parameters, or the plan leaves no survivor.
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn train_threaded<T: Task + Sync>(
    task: &T,
    cfg: &ThreadedConfig,
) -> Result<ThreadedReport, ThreadedTrainError> {
    let method = match &cfg.exchange.arms {
        Arms::One(method) => Some(method),
        Arms::Adaptive { .. } => None,
    };
    if cfg.faults.is_some() && (method.is_none() || cfg.exchange.lane != Lane::Inline) {
        return Err(ThreadedTrainError::InvalidConfig(
            "a fault plan needs one method on the inline lane: a comm thread owns the \
             worker handle and cannot shrink its ring, and the adaptive decision \
             broadcast needs every rank"
                .into(),
        ));
    }
    let world = cfg.workers;
    let cluster = SimCluster::new_with_faults(world, None, cfg.faults.clone());
    // Each rank's loop: minibatch seed derivation, exchange, SGD step, full
    // loss at step 0, every 10 steps and at the end; `None` for a rank that
    // left the run.
    let results = cluster.run_workers(|worker| {
        let rank = worker.rank();
        let mut exchanger = Exchanger::new(worker, cfg.exchange.clone())?;
        let mut events: Vec<RunEvent> = Vec::new();
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
            if let (Some(plan), Some(worker)) = (&cfg.faults, exchanger.worker()) {
                if plan.dead_at(rank, step) {
                    // This rank's scheduled death: flip the alive bit (so
                    // stragglers poking this rank get PeerGone, and the
                    // fault log records the death) and leave.
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
            let mean = exchanger.exchange(&grads)?;
            opt.step(&mut params, &mean).map_err(CompressError::from)?;
            if (step + 1) % 10 == 0 || step + 1 == cfg.steps {
                losses.push((step + 1, task.full_loss(&params)));
            }
        }
        let adaptive = exchanger.controller().map(|c| AdaptiveReport {
            modelled_step_s: c.step_estimate(),
            trace: c.trace().to_vec(),
            assignment: (0..c.num_buckets()).map(|b| c.arm_of(b)).collect(),
        });
        Ok::<_, ExecError>(Some((params, losses, events, adaptive)))
    });
    // The lowest-ranked finished run, after the first worker error and a
    // check that every finished rank holds the same parameters.
    let mut finished = Vec::with_capacity(world);
    for (rank, result) in results.into_iter().enumerate() {
        if let Some(run) = result? {
            finished.push((rank, run));
        }
    }
    let mut finished = finished.into_iter();
    let Some((_, (params, losses, events, adaptive))) = finished.next() else {
        return Err(ThreadedTrainError::NoSurvivors { workers: world });
    };
    if let Some((rank, _)) = finished.find(|(_, (other, ..))| *other != params) {
        return Err(ThreadedTrainError::Diverged { rank });
    }
    let method = method.map_or_else(
        || "adaptive".into(),
        |m| {
            m.build()
                .map(|c| c.properties().name)
                .unwrap_or_else(|_| "unknown".into())
        },
    );
    Ok(ThreadedReport {
        report: ConvergenceReport {
            method,
            task: task.name().to_owned(),
            losses,
        },
        events,
        adaptive,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::LinearRegression;
    use gcs_cluster::cost::NetworkModel;
    use gcs_compress::adaptive::AdaptiveConfig;
    use gcs_ddp::{Lane, Plan};

    fn task() -> LinearRegression {
        LinearRegression::new(8, 96, 0.01, 41)
    }

    /// `cfg` exchanging `method` per layer, inline.
    fn per_layer(cfg: ThreadedConfig, method: MethodConfig) -> ThreadedConfig {
        cfg.exchange(ExchangeConfig::per_layer(method))
    }

    /// `method` over flat buckets of at most `bytes`, on `lane`.
    fn bucketed(method: MethodConfig, bytes: usize, lane: Lane) -> ExchangeConfig {
        ExchangeConfig {
            plan: Plan::Buckets {
                bytes,
                matricize: false,
            },
            lane,
            arms: Arms::One(method),
        }
    }

    #[test]
    fn threaded_syncsgd_converges_and_workers_agree() {
        let cfg = ThreadedConfig::new().workers(4).steps(120).lr(0.1).seed(2);
        let rep = train_threaded(&task(), &per_layer(cfg, MethodConfig::SyncSgd))
            .unwrap()
            .report;
        assert!(rep.final_loss() < 0.1 * rep.initial_loss());
    }

    #[test]
    fn threaded_powersgd_converges() {
        let cfg = ThreadedConfig::new().workers(3).steps(150).lr(0.1).seed(3);
        let rep = train_threaded(&task(), &per_layer(cfg, MethodConfig::PowerSgd { rank: 2 }))
            .unwrap()
            .report;
        assert!(
            rep.final_loss() < 0.2 * rep.initial_loss(),
            "{} -> {}",
            rep.initial_loss(),
            rep.final_loss()
        );
    }

    #[test]
    fn threaded_gather_method_converges() {
        let cfg = ThreadedConfig::new().workers(2).steps(200).lr(0.05).seed(4);
        let rep = train_threaded(&task(), &per_layer(cfg, MethodConfig::EfSignSgd))
            .unwrap()
            .report;
        assert!(rep.final_loss() < 0.5 * rep.initial_loss());
    }

    #[test]
    fn pipelined_training_rejects_zero_bucket_bytes() {
        let cfg = ThreadedConfig::new().workers(2).steps(5).exchange(bucketed(
            MethodConfig::SyncSgd,
            0,
            Lane::Comm { depth: 2 },
        ));
        let err = train_threaded(&task(), &cfg).unwrap_err();
        assert!(
            matches!(
                err,
                ThreadedTrainError::Exec(ExecError::Compress(CompressError::InvalidConfig(_)))
            ),
            "{err}"
        );
    }

    #[test]
    fn bucketed_training_matches_per_layer_bitwise_on_both_lanes() {
        // Same task/seeds, tiny buckets: every layer gets its own bucket,
        // so the bucket schedule matches the per-layer schedule and the
        // whole parameter trajectory must be bit-identical, on the comm
        // lane and on the inline one.
        let base = ThreadedConfig::new().workers(3).steps(40).lr(0.1).seed(6);
        let seq = train_threaded(&task(), &per_layer(base.clone(), MethodConfig::SyncSgd))
            .unwrap()
            .report;
        for lane in [Lane::Comm { depth: 2 }, Lane::Inline] {
            let cfg = base
                .clone()
                .exchange(bucketed(MethodConfig::SyncSgd, 1, lane));
            let bucketed = train_threaded(&task(), &cfg).unwrap().report;
            assert_eq!(
                seq.losses, bucketed.losses,
                "{lane:?}: trajectories diverged"
            );
        }
    }

    #[test]
    fn pipelined_powersgd_converges_and_workers_agree() {
        let cfg = ThreadedConfig::new()
            .workers(3)
            .steps(150)
            .lr(0.1)
            .seed(3)
            .exchange(bucketed(
                MethodConfig::PowerSgd { rank: 2 },
                256,
                Lane::Comm { depth: 2 },
            ));
        let rep = train_threaded(&task(), &cfg).unwrap().report;
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
        // renormalize the mean over 7 contributions, and finish training,
        // per layer and in buckets alike.
        let base = ThreadedConfig::new()
            .workers(8)
            .steps(40)
            .lr(0.1)
            .seed(9)
            .faulty(FaultPlan::new(0xFA01).kill(3, 5));
        for exchange in [
            ExchangeConfig::per_layer(MethodConfig::SyncSgd),
            bucketed(MethodConfig::SyncSgd, 64, Lane::Inline),
        ] {
            let run = train_threaded(&task(), &base.clone().exchange(exchange)).unwrap();
            let rep = run.report;
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
                run.events,
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
    }

    #[test]
    fn no_plan_and_a_benign_plan_train_bitwise_alike() {
        let base = ThreadedConfig::new().workers(4).steps(30).lr(0.1).seed(12);
        let base = per_layer(base, MethodConfig::TopK { ratio: 0.3 });
        let plain = train_threaded(&task(), &base).unwrap();
        let benign = train_threaded(&task(), &base.clone().faulty(FaultPlan::new(7))).unwrap();
        assert!(plain.events.is_empty() && benign.events.is_empty());
        assert_eq!(
            plain.report.losses, benign.report.losses,
            "benign plan must be a no-op"
        );
    }

    #[test]
    fn a_plan_that_kills_every_rank_is_a_typed_error() {
        let cfg = ThreadedConfig::new()
            .workers(2)
            .steps(10)
            .faulty(FaultPlan::new(0).kill(0, 1).kill(1, 1));
        let err = train_threaded(&task(), &cfg).unwrap_err();
        assert!(
            matches!(err, ThreadedTrainError::NoSurvivors { workers: 2 }),
            "{err}"
        );
    }

    #[test]
    fn faults_with_the_comm_lane_or_adaptive_arms_are_rejected() {
        let base = ThreadedConfig::new()
            .workers(2)
            .steps(10)
            .faulty(FaultPlan::new(0).kill(1, 5));
        let adaptive = AdaptiveConfig::new(adaptive_arms()).unwrap();
        for exchange in [
            bucketed(MethodConfig::SyncSgd, 1024, Lane::Comm { depth: 2 }),
            ExchangeConfig::adaptive(adaptive, BUCKET_BYTES),
        ] {
            let err = train_threaded(&task(), &base.clone().exchange(exchange)).unwrap_err();
            assert!(matches!(err, ThreadedTrainError::InvalidConfig(_)), "{err}");
        }
    }

    #[test]
    fn threaded_matches_centralized_harness() {
        // Same method + deterministic seeds: the threaded engine and the
        // centralized driver implement the same math, so final losses are
        // in the same regime (trajectories differ only by minibatch seed
        // derivation).
        use crate::harness::{train_distributed, TrainConfig};
        let cfg = ThreadedConfig::new().workers(3).steps(150).lr(0.05).seed(5);
        let threaded = train_threaded(&task(), &per_layer(cfg, MethodConfig::Fp16))
            .unwrap()
            .report;
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

    fn adaptive_task() -> LinearRegression {
        LinearRegression::new(256, 256, 0.01, 41)
    }

    fn adaptive_arms() -> Vec<MethodConfig> {
        vec![
            MethodConfig::SyncSgd,
            MethodConfig::Fp16,
            MethodConfig::PowerSgd { rank: 2 },
        ]
    }

    /// 1 KiB buckets: the 256-element weight layer gets its own bucket
    /// (matricized to 16×16, where PowerSGD actually compresses).
    const BUCKET_BYTES: usize = 1024;

    fn run_adaptive(link: NetworkModel, pin: Option<MethodConfig>) -> ThreadedReport {
        let arms = match pin {
            Some(m) => vec![m],
            None => adaptive_arms(),
        };
        let acfg = AdaptiveConfig::new(arms).unwrap().link(link);
        // lr 0.05: every arm (including rank-2 PowerSGD, whose low-rank
        // noise destabilizes lr 0.1 on this task) converges cleanly.
        let cfg = ThreadedConfig::new()
            .workers(4)
            .steps(120)
            .lr(0.05)
            .seed(8)
            .exchange(ExchangeConfig::adaptive(acfg, BUCKET_BYTES));
        train_threaded(&adaptive_task(), &cfg).unwrap()
    }

    fn assignment(run: &ThreadedReport) -> &[usize] {
        &run.adaptive.as_ref().unwrap().assignment
    }

    #[test]
    fn adaptive_beats_worst_fixed_and_tracks_best_on_a_slow_link() {
        // 1 Mbps: wire bytes dominate, so low-rank compression should win
        // the modelled step time by a wide margin while converging on a
        // convex task.
        let link = NetworkModel::from_gbps(5e-6, 0.001);
        let adaptive = run_adaptive(link, None);
        let fixed: Vec<ThreadedReport> = adaptive_arms()
            .into_iter()
            .map(|m| run_adaptive(link, Some(m)))
            .collect();

        let target = 0.4 * adaptive.report.initial_loss();
        let t_adaptive = adaptive.time_to_loss(target).expect("adaptive converged");
        let t_fixed: Vec<f64> = fixed
            .iter()
            .map(|r| r.time_to_loss(target).expect("fixed run converged"))
            .collect();
        let best = t_fixed.iter().cloned().fold(f64::INFINITY, f64::min);
        let worst = t_fixed.iter().cloned().fold(0.0, f64::max);
        assert!(
            t_adaptive <= 1.05 * best,
            "adaptive {t_adaptive:.4e}s does not track best fixed {best:.4e}s"
        );
        assert!(
            1.3 * t_adaptive <= worst,
            "adaptive {t_adaptive:.4e}s does not beat worst fixed {worst:.4e}s by 1.3x"
        );
        // The win comes from actually switching the weight bucket off
        // uncompressed SGD.
        assert!(
            assignment(&adaptive).contains(&2),
            "no bucket on PowerSGD: {:?} ({:?})",
            assignment(&adaptive),
            adaptive.adaptive.as_ref().unwrap().trace
        );
    }

    #[test]
    fn adaptive_rejects_the_comm_lane() {
        let acfg = AdaptiveConfig::new(adaptive_arms()).unwrap();
        let exchange = ExchangeConfig {
            lane: Lane::Comm { depth: 2 },
            ..ExchangeConfig::adaptive(acfg, BUCKET_BYTES)
        };
        let cfg = ThreadedConfig::new().workers(2).steps(4).exchange(exchange);
        let err = train_threaded(&adaptive_task(), &cfg).unwrap_err();
        assert!(
            matches!(
                err,
                ThreadedTrainError::Exec(ExecError::Compress(CompressError::InvalidConfig(_)))
            ),
            "{err}"
        );
    }

    #[test]
    fn adaptive_stays_uncompressed_on_a_fast_link() {
        // 10 Gbps datacenter link: Equation 1 says compression cannot pay
        // for its encode cost, so the controller must keep every bucket on
        // SyncSGD and match the best fixed scheme exactly.
        let link = NetworkModel::from_gbps(15e-6, 10.0);
        let adaptive = run_adaptive(link, None);
        assert!(
            assignment(&adaptive).iter().all(|&a| a == 0),
            "compressed on a fast link: {:?}",
            assignment(&adaptive)
        );
        let fixed_sync = run_adaptive(link, Some(MethodConfig::SyncSgd));
        let target = 0.4 * adaptive.report.initial_loss();
        let t_adaptive = adaptive.time_to_loss(target).expect("adaptive converged");
        let t_sync = fixed_sync.time_to_loss(target).expect("syncsgd converged");
        assert!(
            t_adaptive <= 1.05 * t_sync,
            "adaptive {t_adaptive:.4e}s vs pinned syncsgd {t_sync:.4e}s"
        );
    }
}
