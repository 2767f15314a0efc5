//! End-to-end training through the adaptive per-bucket controller: the
//! same threaded loop as [`crate::threaded`], but gradient exchange goes
//! through [`gcs_ddp::AdaptiveEngine`], and the report carries the
//! controller's modelled step time so runs can be compared on
//! **time-to-loss** — the paper's actual figure of merit — instead of
//! steps-to-loss.

use crate::harness::ConvergenceReport;
use crate::task::Task;
use crate::threaded::{agreed_run, train_rank, ThreadedConfig, ThreadedTrainError};
use gcs_compress::adaptive::{AdaptiveConfig, Decision};
use gcs_ddp::exec::ExecError;
use gcs_ddp::AdaptiveEngine;

/// A threaded adaptive run: the convergence trajectory plus the
/// controller's view of how expensive each step was and what it decided.
#[derive(Debug, Clone)]
pub struct AdaptiveTrainReport {
    /// Loss trajectory (evaluated on rank 0, every 10 steps).
    pub report: ConvergenceReport,
    /// Modelled seconds per training step under the final arm assignment
    /// (Equation-1 comm cost plus encode/decode estimates, summed over
    /// buckets).
    pub modelled_step_s: f64,
    /// Rank 0's full decision trace.
    pub trace: Vec<Decision>,
    /// Final per-bucket arm assignment.
    pub assignment: Vec<usize>,
}

impl AdaptiveTrainReport {
    /// Modelled wall-clock seconds until the full loss first drops to
    /// `target`, or `None` if the run never got there. Loss is sampled
    /// every 10 steps, so this has 10-step granularity — identical for
    /// every run it is compared against.
    pub fn time_to_loss(&self, target: f64) -> Option<f64> {
        self.report
            .losses
            .iter()
            .find(|(_, loss)| *loss <= target)
            .map(|(step, _)| *step as f64 * self.modelled_step_s)
    }
}

/// Trains `task` with one thread per worker, exchanging gradients through
/// an [`AdaptiveEngine`] configured with `acfg`, in the per-rank loop
/// [`crate::threaded::train_threaded`] runs. A single-arm `acfg` is the
/// fixed-scheme baseline: it runs the identical code path (including the
/// per-step decision broadcast), so adaptive-vs-fixed time-to-loss
/// comparisons are apples-to-apples.
///
/// # Errors
///
/// Returns [`ThreadedTrainError`] if `cfg` sets `pipeline` or `faults`
/// (the adaptive engine has its own bucket schedule and needs every rank
/// for its decision broadcast), a worker's exchange fails, or workers end
/// with different parameters.
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn train_threaded_adaptive<T: Task + Sync>(
    task: &T,
    acfg: &AdaptiveConfig,
    bucket_bytes: usize,
    cfg: &ThreadedConfig,
) -> Result<AdaptiveTrainReport, ThreadedTrainError> {
    if cfg.pipeline.is_some() || cfg.faults.is_some() {
        return Err(ThreadedTrainError::InvalidConfig(
            "the adaptive trainer runs its own engine on a fault-free cluster: \
             unset `pipeline` and `faults`"
                .into(),
        ));
    }
    let results = gcs_cluster::SimCluster::run(cfg.workers, |worker| {
        let rank = worker.rank();
        let mut engine = AdaptiveEngine::new(acfg.clone(), bucket_bytes)?;
        let run = train_rank(task, cfg, rank, |_, grads| {
            engine.exchange(&worker, grads).map(Some)
        })?;
        let controller = engine.controller().ok_or_else(|| {
            ExecError::from(gcs_compress::CompressError::Protocol(
                "adaptive engine never initialized".into(),
            ))
        })?;
        let modelled_step_s = controller.step_estimate();
        let trace = controller.trace().to_vec();
        let assignment: Vec<usize> = (0..controller.num_buckets())
            .map(|b| controller.arm_of(b))
            .collect();
        Ok::<_, ExecError>((run, (modelled_step_s, trace, assignment)))
    });
    let ((_, losses), (modelled_step_s, trace, assignment)) = agreed_run(results)?;
    Ok(AdaptiveTrainReport {
        report: ConvergenceReport {
            method: "adaptive".into(),
            task: task.name().to_owned(),
            losses,
        },
        modelled_step_s,
        trace,
        assignment,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::LinearRegression;
    use gcs_cluster::cost::NetworkModel;
    use gcs_compress::registry::MethodConfig;

    fn task() -> LinearRegression {
        LinearRegression::new(256, 256, 0.01, 41)
    }

    fn arms() -> Vec<MethodConfig> {
        vec![
            MethodConfig::SyncSgd,
            MethodConfig::Fp16,
            MethodConfig::PowerSgd { rank: 2 },
        ]
    }

    /// 1 KiB buckets: the 256-element weight layer gets its own bucket
    /// (matricized to 16×16, where PowerSGD actually compresses).
    const BUCKET_BYTES: usize = 1024;

    fn run_lr(link: NetworkModel, pin: Option<MethodConfig>, lr: f32) -> AdaptiveTrainReport {
        let arms = match pin {
            Some(m) => vec![m],
            None => arms(),
        };
        let acfg = AdaptiveConfig::new(arms).unwrap().link(link);
        let cfg = ThreadedConfig::new().workers(4).steps(120).lr(lr).seed(8);
        train_threaded_adaptive(&task(), &acfg, BUCKET_BYTES, &cfg).unwrap()
    }

    fn run(link: NetworkModel, pin: Option<MethodConfig>) -> AdaptiveTrainReport {
        // lr 0.05: every arm (including rank-2 PowerSGD, whose low-rank
        // noise destabilizes lr 0.1 on this task) converges cleanly.
        run_lr(link, pin, 0.05)
    }

    #[test]
    fn adaptive_beats_worst_fixed_and_tracks_best_on_a_slow_link() {
        // 1 Mbps: wire bytes dominate, so low-rank compression should win
        // the modelled step time by a wide margin while converging on a
        // convex task.
        let link = NetworkModel::from_gbps(5e-6, 0.001);
        let adaptive = run(link, None);
        let fixed: Vec<AdaptiveTrainReport> =
            arms().into_iter().map(|m| run(link, Some(m))).collect();

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
            adaptive.assignment.contains(&2),
            "no bucket on PowerSGD: {:?} ({:?})",
            adaptive.assignment,
            adaptive.trace
        );
    }

    #[test]
    fn adaptive_rejects_a_pipeline_config() {
        let acfg = AdaptiveConfig::new(arms()).unwrap();
        let cfg = ThreadedConfig::new()
            .workers(2)
            .steps(4)
            .pipelined(gcs_ddp::PipelineConfig::default());
        let err = train_threaded_adaptive(&task(), &acfg, BUCKET_BYTES, &cfg).unwrap_err();
        assert!(matches!(err, ThreadedTrainError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn adaptive_rejects_a_fault_plan() {
        let acfg = AdaptiveConfig::new(arms()).unwrap();
        let cfg = ThreadedConfig::new()
            .workers(2)
            .steps(4)
            .faulty(gcs_cluster::FaultPlan::new(3));
        let err = train_threaded_adaptive(&task(), &acfg, BUCKET_BYTES, &cfg).unwrap_err();
        assert!(matches!(err, ThreadedTrainError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn adaptive_stays_uncompressed_on_a_fast_link() {
        // 10 Gbps datacenter link: Equation 1 says compression cannot pay
        // for its encode cost, so the controller must keep every bucket on
        // SyncSGD and match the best fixed scheme exactly.
        let link = NetworkModel::from_gbps(15e-6, 10.0);
        let adaptive = run(link, None);
        assert!(
            adaptive.assignment.iter().all(|&a| a == 0),
            "compressed on a fast link: {:?}",
            adaptive.assignment
        );
        let fixed_sync = run(link, Some(MethodConfig::SyncSgd));
        let target = 0.4 * adaptive.report.initial_loss();
        let t_adaptive = adaptive.time_to_loss(target).expect("adaptive converged");
        let t_sync = fixed_sync.time_to_loss(target).expect("syncsgd converged");
        assert!(
            t_adaptive <= 1.05 * t_sync,
            "adaptive {t_adaptive:.4e}s vs pinned syncsgd {t_sync:.4e}s"
        );
    }
}
