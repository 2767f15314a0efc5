//! The one gradient-exchange engine.
//!
//! An [`Exchanger`] owns one rank's side of the exchange — its worker
//! handle (or the comm thread the handle moved onto), its compressors, its
//! bucket plan and the schedule's scratch — across steps. Each
//! [`Exchanger::exchange`] runs [`crate::exec`]'s bucket schedule once. One
//! [`ExchangeConfig`] picks the [`Plan`] (per layer, or buckets of a byte
//! cap), the [`Lane`] (inline, or a comm thread with a `depth`: see the
//! [`crate::exec`] docs for both) and the [`Arms`] (one method, or the
//! adaptive controller of [`crate::adaptive`]). For the same plan and
//! arms, every lane and depth computes the same bits
//! (`tests/pipeline_bitexact.rs`). The per-layer plan runs on the inline
//! lane only, and adaptive arms on matricized buckets on the inline lane
//! only; the constructor rejects other combinations.

use gcs_cluster::{CommEngine, WorkerHandle};
use gcs_compress::adaptive::{AdaptiveConfig, Controller, Decision};
use gcs_compress::driver::ResidualPolicy;
use gcs_compress::registry::MethodConfig;
use gcs_compress::{CompressError, Compressor};
use gcs_tensor::Tensor;

use crate::adaptive::{Adaptive, SwitchRecord};
use crate::exec::{
    exchange_layers, exchange_plan, BucketPlan, BucketTiming, LaneRef, Result, Scratch,
};

/// How an [`Exchanger`] groups layers into buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plan {
    /// Bucket `b` is layer `b`, encoded in its own shape straight from the
    /// caller's gradient, in layer order.
    PerLayer,
    /// [`BucketPlan::new`] (or, with `matricize`,
    /// [`BucketPlan::matricized`]) with a cap of `bytes` (> 0).
    Buckets { bytes: usize, matricize: bool },
}

/// Where an [`Exchanger`] runs its collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// On the calling thread.
    Inline,
    /// On a comm thread, at most `depth` (≥ 1) collectives in flight;
    /// depth 2 is double buffering.
    Comm { depth: usize },
}

/// Which compressors an [`Exchanger`] runs.
#[derive(Debug, Clone)]
pub enum Arms {
    /// One method on every bucket.
    One(MethodConfig),
    /// One compressor per arm of `config`, each bucket on the arm the
    /// adaptive controller assigns it.
    Adaptive {
        /// The controller's arms and policy.
        config: AdaptiveConfig,
        /// What a scheme switch does with the error-feedback residual.
        residual: ResidualPolicy,
        /// A recorded decision trace to replay instead of the live policy
        /// (see [`Controller::scripted`]).
        script: Option<Vec<Decision>>,
    },
}

/// What an [`Exchanger`] runs.
#[derive(Debug, Clone)]
pub struct ExchangeConfig {
    pub plan: Plan,
    pub lane: Lane,
    pub arms: Arms,
}

impl ExchangeConfig {
    /// `method` per layer on the inline lane: the sequential exchange.
    pub fn per_layer(method: MethodConfig) -> Self {
        ExchangeConfig {
            plan: Plan::PerLayer,
            lane: Lane::Inline,
            arms: Arms::One(method),
        }
    }

    /// The adaptive controller over `config`'s arms, on matricized buckets
    /// of at most `bucket_bytes` on the inline lane, carrying residuals
    /// across switches and running the live policy.
    pub fn adaptive(config: AdaptiveConfig, bucket_bytes: usize) -> Self {
        ExchangeConfig {
            plan: Plan::Buckets {
                bytes: bucket_bytes,
                matricize: true,
            },
            lane: Lane::Inline,
            arms: Arms::Adaptive {
                config,
                residual: ResidualPolicy::Carry,
                script: None,
            },
        }
    }
}

/// Where the worker handle lives.
enum Link {
    Inline(WorkerHandle),
    Comm(CommEngine, usize),
}

/// One rank's gradient exchange (see the module docs).
pub struct Exchanger<C: Compressor = Box<dyn Compressor>> {
    link: Link,
    plan: Plan,
    /// Built at the first bucketed exchange, and again when the gradient
    /// layout changes.
    buckets: Option<BucketPlan>,
    /// One per arm; per-bucket state inside each is keyed by bucket index.
    compressors: Vec<C>,
    adaptive: Option<Adaptive>,
    scratch: Scratch,
}

fn invalid(msg: &str) -> crate::exec::ExecError {
    CompressError::InvalidConfig(msg.into()).into()
}

impl Exchanger {
    /// Builds `cfg`'s compressors and takes over `worker`.
    ///
    /// # Errors
    ///
    /// [`CompressError::InvalidConfig`] when an arm fails to build, a
    /// bucket cap is zero or the combination is rejected (module docs); a
    /// cluster error when the comm thread cannot be spawned (depth 0).
    pub fn new(worker: WorkerHandle, cfg: ExchangeConfig) -> Result<Self> {
        let ExchangeConfig { plan, lane, arms } = cfg;
        let (config, residual, script) = match arms {
            Arms::One(method) => return Self::with_compressor(worker, plan, lane, method.build()?),
            Arms::Adaptive {
                config,
                residual,
                script,
            } => (config, residual, script),
        };
        if !matches!(
            plan,
            Plan::Buckets {
                matricize: true,
                ..
            }
        ) || lane != Lane::Inline
        {
            return Err(invalid(
                "adaptive arms run on matricized buckets on the inline lane",
            ));
        }
        let compressors = config
            .arms
            .iter()
            .map(MethodConfig::build)
            .collect::<gcs_compress::Result<Vec<_>>>()?;
        let mut exchanger = Self::build(worker, plan, lane, compressors)?;
        exchanger.adaptive = Some(Adaptive::new(config, residual, script));
        Ok(exchanger)
    }
}

impl<C: Compressor> Exchanger<C> {
    /// [`Exchanger::new`] for one compressor that is not in the registry.
    ///
    /// # Errors
    ///
    /// As [`Exchanger::new`].
    pub fn with_compressor(
        worker: WorkerHandle,
        plan: Plan,
        lane: Lane,
        compressor: C,
    ) -> Result<Self> {
        Self::build(worker, plan, lane, vec![compressor])
    }

    fn build(worker: WorkerHandle, plan: Plan, lane: Lane, compressors: Vec<C>) -> Result<Self> {
        let link = match (plan, lane) {
            (Plan::Buckets { bytes: 0, .. }, _) => {
                return Err(invalid("bucket_bytes must be positive"))
            }
            (Plan::PerLayer, Lane::Comm { .. }) => {
                return Err(invalid("the comm lane needs a bucket plan"))
            }
            (_, Lane::Inline) => Link::Inline(worker),
            (_, Lane::Comm { depth }) => Link::Comm(CommEngine::spawn(worker, depth)?, depth),
        };
        Ok(Exchanger {
            link,
            plan,
            buckets: None,
            compressors,
            adaptive: None,
            scratch: Scratch::default(),
        })
    }

    /// Exchanges this rank's per-layer gradients and returns the decoded
    /// mean gradients in layer order; adaptive arms then run their
    /// end-of-step decision protocol.
    ///
    /// # Errors
    ///
    /// Propagates compression and transport errors.
    pub fn exchange(&mut self, grads: &[Tensor]) -> Result<Vec<Tensor>> {
        let Exchanger {
            link,
            plan,
            buckets,
            compressors,
            adaptive,
            scratch,
        } = self;
        let lane = match link {
            Link::Inline(worker) => LaneRef::Inline(worker),
            Link::Comm(comm, depth) => LaneRef::Comm(comm, *depth),
        };
        let Plan::Buckets { bytes, matricize } = *plan else {
            // The per-layer plan: one compressor, inline.
            return exchange_layers(&lane, &mut compressors[0], grads, scratch);
        };
        let plan = match buckets.take() {
            Some(plan) if plan.matches(grads) => buckets.insert(plan),
            _ => {
                let plan = BucketPlan::build(grads, bytes, matricize);
                if let (Some(adaptive), LaneRef::Inline(worker)) = (adaptive.as_mut(), &lane) {
                    adaptive.start(worker, &plan, compressors)?;
                }
                buckets.insert(plan)
            }
        };
        match (adaptive, &lane) {
            (Some(adaptive), LaneRef::Inline(worker)) => {
                let arm_of = |b| adaptive.arm_of(b);
                let out = exchange_plan(&lane, compressors, &arm_of, grads, plan, scratch)?;
                adaptive.end_step(worker, &scratch.timings, compressors)?;
                Ok(out)
            }
            _ => exchange_plan(&lane, compressors, &|_| 0, grads, plan, scratch),
        }
    }

    /// The worker handle, lent back on the inline lane (for example to
    /// shrink the ring after a death); `None` on the comm lane, whose
    /// thread owns it.
    pub fn worker(&mut self) -> Option<&mut WorkerHandle> {
        match &mut self.link {
            Link::Inline(worker) => Some(worker),
            Link::Comm(..) => None,
        }
    }

    /// Per-bucket timing probes of the most recent exchange (empty before
    /// the first).
    pub fn last_timings(&self) -> &[BucketTiming] {
        &self.scratch.timings
    }

    /// Seconds the comm thread has spent in collectives since it started
    /// (monotone; 0 on the inline lane): the delta around an exchange is
    /// that step's wire-busy time.
    pub fn comm_busy_seconds(&self) -> f64 {
        match &self.link {
            Link::Comm(comm, _) => comm.busy_seconds(),
            Link::Inline(_) => 0.0,
        }
    }

    /// The adaptive controller, once the first exchange has started it.
    pub fn controller(&self) -> Option<&Controller> {
        self.adaptive.as_ref()?.controller.as_ref()
    }

    /// Every scheme switch the adaptive arms executed so far.
    pub fn switches(&self) -> &[SwitchRecord] {
        self.adaptive.as_ref().map_or(&[], |a| &a.switches)
    }

    /// Stops any comm thread and returns the worker handle and the
    /// compressors, one per arm.
    pub fn into_parts(self) -> (WorkerHandle, Vec<C>) {
        let worker = match self.link {
            Link::Inline(worker) => worker,
            Link::Comm(comm, _) => comm.shutdown(),
        };
        (worker, self.compressors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecError;
    use gcs_cluster::SimCluster;

    fn make_grads(rank: usize, shapes: &[Vec<usize>]) -> Vec<Tensor> {
        shapes
            .iter()
            .enumerate()
            .map(|(l, s)| Tensor::randn(s.clone(), 90 + (rank * 131 + l) as u64))
            .collect()
    }

    fn buckets(bytes: usize, matricize: bool, lane: Lane, method: MethodConfig) -> ExchangeConfig {
        ExchangeConfig {
            plan: Plan::Buckets { bytes, matricize },
            lane,
            arms: Arms::One(method),
        }
    }

    fn bits(out: &[Tensor]) -> Vec<u32> {
        out.iter()
            .flat_map(|t| t.data().iter().map(|x| x.to_bits()))
            .collect()
    }

    #[test]
    fn matricized_comm_lane_matches_matricized_inline_lane() {
        // Matricized buckets change what the compressor sees (a near-square
        // matrix instead of a flat vector) but not the schedule, so the
        // two lanes must still agree bit for bit.
        let shapes = vec![vec![40usize, 3], vec![64], vec![9, 7]];
        for method in [
            MethodConfig::PowerSgd { rank: 2 },
            MethodConfig::TopK { ratio: 0.25 },
        ] {
            let outs = SimCluster::run(4, |w| {
                let grads = make_grads(w.rank(), &shapes);
                let comm = buckets(600, true, Lane::Comm { depth: 2 }, method.clone());
                let mut exchanger = Exchanger::new(w, comm).unwrap();
                let piped = exchanger.exchange(&grads).unwrap();
                let (w, _) = exchanger.into_parts();
                let inline = buckets(600, true, Lane::Inline, method.clone());
                let seq = Exchanger::new(w, inline).unwrap().exchange(&grads).unwrap();
                (bits(&piped), bits(&seq))
            });
            for (piped, seq) in outs {
                assert_eq!(piped, seq, "{method:?}: matricized comm lane deviates");
            }
        }
    }

    #[test]
    fn comm_lane_timing_probes_count_wire_traffic() {
        let shapes = vec![vec![256usize], vec![200]];
        let outs = SimCluster::run(2, |w| {
            let grads = make_grads(w.rank(), &shapes);
            let cfg = buckets(
                256 * 4,
                false,
                Lane::Comm { depth: 2 },
                MethodConfig::SyncSgd,
            );
            let mut exchanger = Exchanger::new(w, cfg).unwrap();
            exchanger.exchange(&grads).unwrap();
            exchanger.last_timings().to_vec()
        });
        for timings in outs {
            assert_eq!(timings.len(), 2);
            let mut bytes: Vec<u64> = timings.iter().map(|t| t.ring_bytes).collect();
            bytes.sort_unstable();
            assert_eq!(bytes, vec![200 * 4, 256 * 4]);
            for t in &timings {
                assert_eq!((t.ring_rounds, t.gather_rounds), (1, 0));
                assert!(t.encode_s >= 0.0 && t.comm_s >= 0.0 && t.decode_s >= 0.0);
            }
        }
    }

    #[test]
    fn combinations_no_test_runs_are_rejected_at_construction() {
        let adaptive = || {
            let config = AdaptiveConfig::new(vec![MethodConfig::SyncSgd]).unwrap();
            ExchangeConfig::adaptive(config, 1024)
        };
        let comm = Lane::Comm { depth: 2 };
        let rejected = [
            buckets(0, false, Lane::Inline, MethodConfig::SyncSgd),
            buckets(0, false, comm, MethodConfig::SyncSgd),
            ExchangeConfig {
                lane: comm,
                ..ExchangeConfig::per_layer(MethodConfig::SyncSgd)
            },
            ExchangeConfig {
                lane: comm,
                ..adaptive()
            },
            ExchangeConfig {
                plan: Plan::Buckets {
                    bytes: 1024,
                    matricize: false,
                },
                ..adaptive()
            },
            ExchangeConfig {
                plan: Plan::PerLayer,
                ..adaptive()
            },
        ];
        for cfg in rejected {
            let errs = SimCluster::run(1, |w| Exchanger::new(w, cfg.clone()).err());
            assert!(
                matches!(
                    errs[0],
                    Some(ExecError::Compress(CompressError::InvalidConfig(_)))
                ),
                "{cfg:?}: {:?}",
                errs[0]
            );
        }
    }
}
