//! The adaptive arms of an [`Exchanger`](crate::Exchanger): per-bucket
//! scheme switching driven by [`gcs_compress::adaptive::Controller`].
//!
//! The exchanger holds one compressor per controller arm and runs the
//! bucket schedule of [`crate::exec`] on the inline lane, each bucket on
//! its currently-assigned arm and for that arm's rounds only. The schedule
//! is round-major for every configuration; because every rank holds the
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

use crate::exec::{BucketPlan, BucketTiming, Result};
use gcs_cluster::WorkerHandle;
use gcs_compress::adaptive::{
    decode_decisions, encode_decisions, AdaptiveConfig, Controller, Decision, Observation,
};
use gcs_compress::driver::{switch_scheme, ResidualPolicy, SwitchOutcome};
use gcs_compress::{CompressError, Compressor};

/// One executed scheme switch: the controller's decision plus what
/// happened to the error-feedback residual at the boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchRecord {
    /// The decision that triggered the switch.
    pub decision: Decision,
    /// The residual carry/reset outcome.
    pub outcome: SwitchOutcome,
}

/// The controller side of adaptive arms: its config, the residual policy
/// applied at switches, an optional replay script, and, once started, the
/// controller and the switches it executed.
pub(crate) struct Adaptive {
    config: AdaptiveConfig,
    residual: ResidualPolicy,
    script: Option<Vec<Decision>>,
    pub(crate) controller: Option<Controller>,
    pub(crate) switches: Vec<SwitchRecord>,
}

impl Adaptive {
    pub(crate) fn new(
        config: AdaptiveConfig,
        residual: ResidualPolicy,
        script: Option<Vec<Decision>>,
    ) -> Self {
        Adaptive {
            config,
            residual,
            script,
            controller: None,
            switches: Vec::new(),
        }
    }

    /// The arm `bucket` runs on (arm 0 before the controller starts).
    pub(crate) fn arm_of(&self, bucket: usize) -> usize {
        self.controller.as_ref().map_or(0, |c| c.arm_of(bucket))
    }

    /// Starts over on a new bucket plan (the first, or one for a new
    /// gradient layout): resets every arm's per-bucket state, builds the
    /// controller for the plan's bucket shapes and runs the
    /// initial-assignment broadcast.
    pub(crate) fn start<C: Compressor>(
        &mut self,
        worker: &WorkerHandle,
        plan: &BucketPlan,
        compressors: &mut [C],
    ) -> Result<()> {
        let shapes: Vec<gcs_tensor::Shape> = (0..plan.num_buckets())
            .map(|b| plan.bucket_shape(b).clone())
            .collect();
        // A layout change orphans all per-bucket compressor state.
        for c in compressors.iter_mut() {
            c.reset();
        }
        self.switches.clear();
        self.controller = None;
        let cfg = self.config.clone();
        let mut controller = match self.script.clone() {
            Some(script) => Controller::scripted(cfg, &shapes, worker.world(), script)?,
            None => Controller::new(cfg, &shapes, worker.world())?,
        };
        // Initial assignment: rank 0 decides, everyone else replays.
        if worker.rank() == 0 {
            let ds = controller.tune_initial();
            worker.broadcast(0, Some(&encode_decisions(&ds)?))?;
        } else {
            let frame = worker.broadcast(0, None)?;
            controller.apply_initial(&decode_decisions(&frame)?)?;
        }
        self.controller = Some(controller);
        Ok(())
    }

    /// The end-of-step protocol after an exchange that left `timings`:
    /// feeds them to the controller, runs the decision broadcast and
    /// executes the switches, carrying residuals per the policy.
    pub(crate) fn end_step<C: Compressor>(
        &mut self,
        worker: &WorkerHandle,
        timings: &[BucketTiming],
        compressors: &mut [C],
    ) -> Result<()> {
        let Some(controller) = self.controller.as_mut() else {
            return Err(CompressError::Protocol("adaptive arms not started".into()).into());
        };
        // Every rank keeps its controller copy warm; only rank 0's
        // estimates drive decisions.
        for t in timings {
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
        for d in decisions {
            // A no-op or out-of-range decision switches nothing.
            let Ok([old, new]) = compressors.get_disjoint_mut([d.from as usize, d.to as usize])
            else {
                continue;
            };
            let outcome = switch_scheme(old, new, d.bucket as usize, self.residual)?;
            self.switches.push(SwitchRecord {
                decision: d,
                outcome,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExchangeConfig, Exchanger};
    use gcs_cluster::cost::NetworkModel;
    use gcs_cluster::SimCluster;
    use gcs_compress::adaptive::DecisionInputs;
    use gcs_compress::registry::MethodConfig;
    use gcs_tensor::Tensor;

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
            let grads = grads_for(worker.rank(), 11);
            let mut engine =
                Exchanger::new(worker, ExchangeConfig::adaptive(cfg, 16 * 1024)).unwrap();
            for _ in 0..3 {
                let out = engine.exchange(&grads)?;
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
            let grads = grads_for(worker.rank(), 23);
            let mut engine =
                Exchanger::new(worker, ExchangeConfig::adaptive(cfg, 8 * 1024)).unwrap();
            for _ in 0..4 {
                engine.exchange(&grads)?;
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
            let grads = grads_for(worker.rank(), 5);
            let mut engine =
                Exchanger::new(worker, ExchangeConfig::adaptive(cfg, 16 * 1024)).unwrap();
            for _ in 0..6 {
                let out = engine.exchange(&grads)?;
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
            let grads = grads_for(worker.rank(), 3);
            let mut engine =
                Exchanger::new(worker, ExchangeConfig::adaptive(cfg, 16 * 1024)).unwrap();
            engine.exchange(&grads)?;
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
