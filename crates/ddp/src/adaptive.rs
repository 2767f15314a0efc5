//! Adaptive data plane: the per-bucket scheme-switching engine driven by
//! [`gcs_compress::adaptive::Controller`].
//!
//! The engine holds one compressor per controller arm and runs the bucket
//! schedule of [`crate::exec`] on the inline lane, each bucket on its
//! currently-assigned arm and for that arm's rounds only. The schedule is
//! round-major like every other engine's; because every rank holds the
//! same assignment, every rank still issues the same collective sequence.
//! The schedule's [`BucketTiming`]s feed the controller's measured mode.
//!
//! Decision flow per step:
//!
//! 1. every rank times its exchange and feeds [`Observation`]s into its
//!    local controller copy;
//! 2. rank 0 runs the policy ([`Controller::end_step`]) and broadcasts
//!    the serialized decisions — *always*, even when empty, so a pinned
//!    single-arm baseline pays the identical per-step overhead and the
//!    adaptive-vs-fixed comparison stays fair;
//! 3. followers [`Controller::apply`] the broadcast;
//! 4. every rank executes the scheme switches at the bucket boundary via
//!    [`switch_scheme`], carrying (or documented-resetting) the
//!    error-feedback residual.

use crate::exec::{exchange_plan, BucketPlan, BucketTiming, Lane, Result};
use gcs_cluster::WorkerHandle;
use gcs_compress::adaptive::{
    decode_decisions, encode_decisions, AdaptiveConfig, Controller, Decision, Observation,
};
use gcs_compress::driver::{switch_scheme, ResidualPolicy, SwitchOutcome};
use gcs_compress::{CompressError, Compressor};
use gcs_tensor::Tensor;

/// One executed scheme switch: the controller's decision plus what
/// happened to the error-feedback residual at the boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchRecord {
    /// The decision that triggered the switch.
    pub decision: Decision,
    /// The residual carry/reset outcome.
    pub outcome: SwitchOutcome,
}

/// Data-parallel engine with per-bucket adaptive scheme selection.
pub struct AdaptiveEngine {
    cfg: AdaptiveConfig,
    bucket_bytes: usize,
    residual_policy: ResidualPolicy,
    /// One compressor per arm; per-bucket state inside each is keyed by
    /// bucket index.
    compressors: Vec<Box<dyn Compressor>>,
    /// Replay script for deterministic re-runs (None = live policy).
    script: Option<Vec<Decision>>,
    plan: Option<BucketPlan>,
    controller: Option<Controller>,
    switches: Vec<SwitchRecord>,
}

impl AdaptiveEngine {
    /// Creates an engine with the given controller config and bucket
    /// size. The controller itself is constructed lazily at the first
    /// exchange, when the gradient layout and world size are known.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::InvalidConfig`] when an arm fails to
    /// build or `bucket_bytes` is zero.
    pub fn new(cfg: AdaptiveConfig, bucket_bytes: usize) -> Result<Self> {
        if bucket_bytes == 0 {
            return Err(
                CompressError::InvalidConfig("bucket_bytes must be positive".into()).into(),
            );
        }
        let compressors = cfg
            .arms
            .iter()
            .map(|m| m.build())
            .collect::<gcs_compress::Result<Vec<_>>>()?;
        Ok(AdaptiveEngine {
            cfg,
            bucket_bytes,
            residual_policy: ResidualPolicy::Carry,
            compressors,
            script: None,
            plan: None,
            controller: None,
            switches: Vec::new(),
        })
    }

    /// Sets the residual policy applied at scheme switches.
    #[must_use]
    pub fn residual_policy(mut self, policy: ResidualPolicy) -> Self {
        self.residual_policy = policy;
        self
    }

    /// Replays a recorded decision trace instead of running the live
    /// policy (see [`Controller::scripted`]). Must be set before the
    /// first exchange.
    #[must_use]
    pub fn scripted(mut self, script: Vec<Decision>) -> Self {
        self.script = Some(script);
        self
    }

    /// The controller, once the first exchange has initialized it.
    pub fn controller(&self) -> Option<&Controller> {
        self.controller.as_ref()
    }

    /// Timing probes of the most recent exchange.
    pub fn last_timings(&self) -> &[BucketTiming] {
        self.plan.as_ref().map_or(&[], BucketPlan::last_timings)
    }

    /// Every scheme switch executed so far, with residual outcomes.
    pub fn switches(&self) -> &[SwitchRecord] {
        &self.switches
    }

    /// Runs one full adaptive gradient exchange: times every bucket,
    /// exchanges on the current arm assignment, then runs the end-of-step
    /// decision protocol (rank-0 policy + broadcast + residual-carrying
    /// switches).
    ///
    /// # Errors
    ///
    /// Propagates compression and transport errors.
    pub fn exchange(&mut self, worker: &WorkerHandle, grads: &[Tensor]) -> Result<Vec<Tensor>> {
        self.ensure_plan(worker, grads)?;
        // `ensure_plan` always leaves both in place; destructure to
        // appease the borrow checker without re-checking everywhere.
        let (Some(plan), Some(controller)) = (self.plan.as_mut(), self.controller.as_mut()) else {
            return Err(CompressError::Protocol("adaptive engine not initialized".into()).into());
        };

        let out = exchange_plan(
            &Lane::Inline(worker),
            &mut self.compressors,
            &|b| controller.arm_of(b),
            grads,
            plan,
        )?;

        // Feed the probes back (every rank keeps its controller copy
        // warm; only rank 0's estimates drive decisions).
        for t in plan.last_timings() {
            controller.observe(Observation {
                bucket: t.bucket,
                arm: controller.arm_of(t.bucket),
                encode_s: t.encode_s,
                comm_s: t.comm_s,
                decode_s: t.decode_s,
                ring_bytes: t.ring_bytes,
                ring_rounds: t.ring_rounds,
                gather_bytes: t.gather_bytes,
                gather_rounds: t.gather_rounds,
            });
        }

        // End-of-step decision protocol.
        let decisions = if worker.rank() == 0 {
            let ds = controller.end_step();
            worker.broadcast(0, Some(&encode_decisions(&ds)?))?;
            ds
        } else {
            let frame = worker.broadcast(0, None)?;
            let ds = decode_decisions(&frame)?;
            controller.apply(&ds)?;
            ds
        };
        self.execute_switches(&decisions)?;
        Ok(out)
    }

    /// Builds the bucket plan and controller on first use (or when the
    /// gradient layout changes), and runs the initial-assignment
    /// broadcast.
    fn ensure_plan(&mut self, worker: &WorkerHandle, grads: &[Tensor]) -> Result<()> {
        if self.plan.as_ref().is_some_and(|plan| plan.matches(grads)) {
            return Ok(());
        }
        let plan = BucketPlan::matricized(grads, self.bucket_bytes);
        let shapes: Vec<gcs_tensor::Shape> = (0..plan.num_buckets())
            .map(|b| plan.bucket_shape(b).clone())
            .collect();
        // A layout change orphans all per-bucket compressor state.
        for c in &mut self.compressors {
            c.reset();
        }
        self.switches.clear();
        let mut controller = match self.script.clone() {
            Some(script) => {
                Controller::scripted(self.cfg.clone(), &shapes, worker.world(), script)?
            }
            None => Controller::new(self.cfg.clone(), &shapes, worker.world())?,
        };
        // Initial assignment: rank 0 decides, everyone else replays.
        if worker.rank() == 0 {
            let ds = controller.tune_initial();
            worker.broadcast(0, Some(&encode_decisions(&ds)?))?;
        } else {
            let frame = worker.broadcast(0, None)?;
            controller.apply_initial(&decode_decisions(&frame)?)?;
        }
        self.plan = Some(plan);
        self.controller = Some(controller);
        Ok(())
    }

    /// Executes compressor-level scheme switches for `decisions`,
    /// carrying residuals per the configured policy.
    fn execute_switches(&mut self, decisions: &[Decision]) -> Result<()> {
        for d in decisions {
            // A no-op or out-of-range decision switches nothing.
            let Ok([old, new]) = self
                .compressors
                .get_disjoint_mut([d.from as usize, d.to as usize])
            else {
                continue;
            };
            let outcome = switch_scheme(old, new, d.bucket as usize, self.residual_policy)?;
            self.switches.push(SwitchRecord {
                decision: d.clone(),
                outcome,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_cluster::cost::NetworkModel;
    use gcs_cluster::SimCluster;
    use gcs_compress::adaptive::DecisionInputs;
    use gcs_compress::registry::MethodConfig;

    fn arms() -> Vec<MethodConfig> {
        vec![
            MethodConfig::SyncSgd,
            MethodConfig::PowerSgd { rank: 4 },
            MethodConfig::TopK { ratio: 0.01 },
        ]
    }

    fn grads_for(rank: usize, seed: u64) -> Vec<Tensor> {
        vec![
            Tensor::randn([64, 32], seed + rank as u64 * 131),
            Tensor::randn([48, 48], seed + 7 + rank as u64 * 131),
        ]
    }

    #[test]
    fn adaptive_engine_leaves_syncsgd_on_modelled_slow_link() {
        let p = 4;
        let results = SimCluster::run(p, move |worker| {
            let cfg = AdaptiveConfig::new(arms())
                .unwrap()
                .link(NetworkModel::from_gbps(15e-6, 0.05));
            let mut engine = AdaptiveEngine::new(cfg, 16 * 1024).unwrap();
            let grads = grads_for(worker.rank(), 11);
            for _ in 0..3 {
                let out = engine.exchange(&worker, &grads)?;
                for g in &out {
                    assert!(g.data().iter().all(|x| x.is_finite()));
                }
            }
            let controller = engine.controller().expect("initialized");
            let assignment: Vec<usize> = (0..controller.num_buckets())
                .map(|b| controller.arm_of(b))
                .collect();
            Ok::<_, crate::exec::ExecError>((assignment, controller.trace().to_vec()))
        });
        let outs: Vec<_> = results
            .into_iter()
            .collect::<Result<Vec<_>>>()
            .expect("all ranks succeed");
        // At 50 Mbps the uncompressed baseline loses to both compressed
        // arms for every bucket; the controller must have moved off it
        // (which arm wins depends on bucket size — tiny buckets favour
        // Top-K's 160-byte gather over PowerSGD's two ring rounds).
        for (assignment, _) in &outs {
            assert!(
                assignment.iter().all(|&a| a != 0),
                "assignment {assignment:?}"
            );
        }
        // Decision traces are identical across ranks.
        for (_, trace) in &outs[1..] {
            assert_eq!(trace, &outs[0].1);
        }
    }

    #[test]
    fn fixed_single_arm_baseline_never_switches() {
        let results = SimCluster::run(2, move |worker| {
            let cfg = AdaptiveConfig::new(vec![MethodConfig::PowerSgd { rank: 2 }])
                .unwrap()
                .link(NetworkModel::from_gbps(15e-6, 0.5));
            let mut engine = AdaptiveEngine::new(cfg, 8 * 1024).unwrap();
            let grads = grads_for(worker.rank(), 23);
            for _ in 0..4 {
                engine.exchange(&worker, &grads)?;
            }
            Ok::<_, crate::exec::ExecError>(engine.switches().len())
        });
        for r in results {
            assert_eq!(r.expect("runs"), 0);
        }
    }

    #[test]
    fn measured_mode_probes_and_stays_consistent_across_ranks() {
        let results = SimCluster::run(3, move |worker| {
            let cfg = AdaptiveConfig::new(arms())
                .unwrap()
                .inputs(DecisionInputs::Measured)
                .warmup_steps(3)
                .link(NetworkModel::from_gbps(15e-6, 1.0));
            let mut engine = AdaptiveEngine::new(cfg, 16 * 1024).unwrap();
            let grads = grads_for(worker.rank(), 5);
            for _ in 0..6 {
                let out = engine.exchange(&worker, &grads)?;
                for g in &out {
                    assert!(g.data().iter().all(|x| x.is_finite()));
                }
            }
            let c = engine.controller().expect("initialized");
            let assignment: Vec<usize> = (0..c.num_buckets()).map(|b| c.arm_of(b)).collect();
            Ok::<_, crate::exec::ExecError>((assignment, c.trace().len()))
        });
        let outs: Vec<_> = results
            .into_iter()
            .collect::<Result<Vec<_>>>()
            .expect("all ranks succeed");
        // All ranks agree on the final assignment and saw the same
        // number of decisions (warm-up probes included).
        for out in &outs[1..] {
            assert_eq!(out, &outs[0]);
        }
        assert!(outs[0].1 > 0, "warm-up must have probed");
    }

    #[test]
    fn timings_report_positive_wire_traffic() {
        let results = SimCluster::run(2, move |worker| {
            let cfg = AdaptiveConfig::new(vec![MethodConfig::SyncSgd]).unwrap();
            let mut engine = AdaptiveEngine::new(cfg, 16 * 1024).unwrap();
            let grads = grads_for(worker.rank(), 3);
            engine.exchange(&worker, &grads)?;
            Ok::<_, crate::exec::ExecError>(engine.last_timings().to_vec())
        });
        for r in results {
            let timings = r.expect("runs");
            assert!(!timings.is_empty());
            for t in &timings {
                assert!(t.ring_rounds == 1 && t.ring_bytes > 0, "{t:?}");
                assert_eq!(t.gather_rounds, 0);
                assert!(t.encode_s >= 0.0 && t.comm_s >= 0.0 && t.decode_s >= 0.0);
            }
        }
    }
}
