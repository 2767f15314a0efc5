//! Pipelined bucket exchange: comm/compute overlap in the real data plane.
//!
//! The sequential engine ([`exec::exchange_gradients_with_plan`]) encodes
//! a bucket, blocks inside the collective, absorbs, and only then touches
//! the next bucket — so while bytes are on the wire the CPU idles, and
//! while the CPU encodes the wire idles. [`PipelinedEngine`] runs the same
//! bucket schedule (see the [`exec`] module docs) on the **comm lane**,
//! splitting each worker into two threads:
//!
//! ```text
//!  encode thread (caller)          comm thread (gcs_cluster::CommEngine)
//!  ──────────────────────          ────────────────────────────────────
//!  pack+encode bucket 0  ──job──▶  collective(bucket 0)
//!  pack+encode bucket 1  ──job──▶  collective(bucket 1)
//!  absorb bucket 0 ◀──reply──────  ...
//!  pack+encode bucket 2  ──job──▶
//!  ...
//! ```
//!
//! The job queue is a *bounded* channel of depth
//! [`PipelineConfig::depth`] (default 2 — classic double buffering), so
//! the encode thread can run at most `depth` buckets ahead before
//! backpressure stalls it. Completions are always consumed **in
//! submission order** (the in-order absorb invariant): the schedule keeps
//! a FIFO of in-flight buckets and only ever waits on the front, which is
//! also the job the comm thread finishes first.
//!
//! # Bit-exactness
//!
//! Only the thread a collective runs on differs from the sequential
//! engine: the split, the ring `all_reduce_mean` (the same call on the
//! comm thread as inline), the serialized all-gather and
//! `Compressor::aggregate` are the schedule's, written once. Hence pipelined output is
//! bit-identical to the sequential engine for every method in the
//! registry, at every depth (asserted in `tests/pipeline_bitexact.rs`).
//!
//! Overlap is priced at bucket granularity, as in the paper's Equation 1:
//! a bucket is the unit of encode, collective and absorb. Splitting a
//! bucket into smaller wire chunks does not pay on this runtime (see
//! DESIGN.md §15).
//!
//! [`exec`]: crate::exec
//! [`exec::exchange_gradients_with_plan`]: crate::exec::exchange_gradients_with_plan

use gcs_cluster::{CommEngine, WorkerHandle};
use gcs_compress::{CompressError, Compressor};
use gcs_tensor::Tensor;

use crate::exec::{exchange_plan, BucketPlan, BucketTiming, Lane, Result};

/// Tuning knobs for [`PipelinedEngine`].
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Bucket capacity in bytes (of uncompressed f32 gradient). PyTorch
    /// DDP defaults to 25 MiB; small models end up with one bucket and no
    /// overlap, so benches use ~1 MiB buckets.
    pub bucket_bytes: usize,
    /// Bound on in-flight collectives (job-queue depth, ≥ 1). Depth 1
    /// degenerates to the sequential schedule (submit, wait, absorb);
    /// depth 2 is double buffering.
    pub depth: usize,
    /// Present packed buckets to the compressor as near-square matrices
    /// (see [`BucketPlan::matricized`]) instead of flat vectors. Needed
    /// for PowerSGD-class methods to actually compress buckets; off by
    /// default to match the flat sequential/reference semantics.
    pub matricize: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            bucket_bytes: 25 * 1024 * 1024,
            depth: 2,
            matricize: false,
        }
    }
}

/// A worker-side pipelined exchange engine: encode path on the calling
/// thread, collectives on a dedicated comm thread, connected by a bounded
/// channel. See the module docs for the thread layout and invariants.
pub struct PipelinedEngine<C: Compressor> {
    comm: CommEngine,
    compressor: C,
    cfg: PipelineConfig,
    plan: Option<BucketPlan>,
}

impl<C: Compressor> PipelinedEngine<C> {
    /// Moves `worker` onto a dedicated comm thread and wraps `compressor`
    /// in the pipelined schedule.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::InvalidConfig`] if `cfg.bucket_bytes` is
    /// zero, and an error if `cfg.depth == 0` or the comm thread cannot be
    /// spawned.
    pub fn new(worker: WorkerHandle, compressor: C, cfg: PipelineConfig) -> Result<Self> {
        if cfg.bucket_bytes == 0 {
            return Err(
                CompressError::InvalidConfig("bucket_bytes must be positive".into()).into(),
            );
        }
        Ok(PipelinedEngine {
            comm: CommEngine::spawn(worker, cfg.depth)?,
            compressor,
            cfg,
            plan: None,
        })
    }

    /// Seconds the comm thread has spent executing collectives since this
    /// engine was created (monotone). The delta around an
    /// [`exchange`](Self::exchange) is the wire-busy time of that step;
    /// subtracting it from the summed `exposed_wait_s` probes separates
    /// genuine wire time from pipeline stalls.
    pub fn comm_busy_seconds(&self) -> f64 {
        self.comm.busy_seconds()
    }

    /// Per-bucket timing probes of the most recent
    /// [`exchange`](Self::exchange). On this lane `comm_s` is the
    /// *exposed* (wait-blocked) communication time — overlap hides the
    /// rest, which is precisely the quantity an adaptive policy should
    /// react to.
    pub fn last_timings(&self) -> &[BucketTiming] {
        self.plan.as_ref().map_or(&[], BucketPlan::last_timings)
    }

    /// Stops the comm thread and returns the worker handle and compressor.
    pub fn into_parts(self) -> (WorkerHandle, C) {
        let PipelinedEngine {
            comm, compressor, ..
        } = self;
        (comm.shutdown(), compressor)
    }

    /// Runs one full compressed bucket exchange, overlapping each bucket's
    /// collective with the next bucket's encode. Returns the decoded
    /// aggregated gradients in layer order — bit-identical to
    /// [`exchange_gradients_with_plan`](crate::exec::exchange_gradients_with_plan)
    /// on the same inputs.
    ///
    /// # Errors
    ///
    /// Propagates compression and transport errors.
    pub fn exchange(&mut self, grads: &[Tensor]) -> Result<Vec<Tensor>> {
        // (Re)build the bucket plan only when the gradient layout changes.
        let mut plan = match self.plan.take() {
            Some(plan) if plan.matches(grads) => plan,
            _ if self.cfg.matricize => BucketPlan::matricized(grads, self.cfg.bucket_bytes),
            _ => BucketPlan::new(grads, self.cfg.bucket_bytes),
        };
        let result = exchange_plan(
            &Lane::Comm(&self.comm, self.cfg.depth),
            std::slice::from_mut(&mut self.compressor),
            &|_| 0,
            grads,
            &mut plan,
        );
        self.plan = Some(plan);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::exchange_gradients_with_plan;
    use gcs_cluster::SimCluster;
    use gcs_compress::registry::MethodConfig;

    fn make_grads(rank: usize, shapes: &[Vec<usize>]) -> Vec<Tensor> {
        shapes
            .iter()
            .enumerate()
            .map(|(l, s)| Tensor::randn(s.clone(), 90 + (rank * 131 + l) as u64))
            .collect()
    }

    fn assert_pipeline_matches_sequential(method: MethodConfig, bucket_bytes: usize) {
        let shapes = vec![vec![40usize, 3], vec![64], vec![9, 7], vec![128], vec![5]];
        let p = 4;
        let sequential = SimCluster::run(p, |w| {
            let mut c = method.build().unwrap();
            let grads = make_grads(w.rank(), &shapes);
            let mut plan = BucketPlan::new(&grads, bucket_bytes);
            exchange_gradients_with_plan(&w, &mut c, &grads, &mut plan).unwrap()
        });
        let pipelined = SimCluster::run(p, |w| {
            let c = method.build().unwrap();
            let grads = make_grads(w.rank(), &shapes);
            let cfg = PipelineConfig {
                bucket_bytes,
                depth: 2,
                matricize: false,
            };
            let mut eng = PipelinedEngine::new(w, c, cfg).unwrap();
            // Two steps through one engine: the cached plan and recycled
            // buffers must not change results.
            let first = eng.exchange(&grads).unwrap();
            let second = eng.exchange(&grads).unwrap();
            let _ = eng.into_parts();
            (first, second)
        });
        for (seq, (pipe1, pipe2)) in sequential.iter().zip(&pipelined) {
            for ((s, p1), p2) in seq.iter().zip(pipe1).zip(pipe2) {
                let sb: Vec<u32> = s.data().iter().map(|x| x.to_bits()).collect();
                let p1b: Vec<u32> = p1.data().iter().map(|x| x.to_bits()).collect();
                assert_eq!(sb, p1b, "{method:?} step 1 deviates");
                // Stateless methods repeat exactly; stateful ones (error
                // feedback, warm start) evolve — but both engines see the
                // same state trajectory, so only step 1 of a fresh engine
                // is comparable. Still, step 2 must be finite and sized.
                assert_eq!(p2.numel(), s.numel());
                assert!(p2.data().iter().all(|x| x.is_finite()));
            }
        }
    }

    #[test]
    fn pipeline_matches_sequential_syncsgd_multi_bucket() {
        assert_pipeline_matches_sequential(MethodConfig::SyncSgd, 600);
    }

    #[test]
    fn pipeline_matches_sequential_powersgd() {
        assert_pipeline_matches_sequential(MethodConfig::PowerSgd { rank: 2 }, 600);
    }

    #[test]
    fn pipeline_matches_sequential_topk_gather_path() {
        assert_pipeline_matches_sequential(MethodConfig::TopK { ratio: 0.25 }, 600);
    }

    #[test]
    fn pipeline_matches_sequential_single_bucket() {
        assert_pipeline_matches_sequential(MethodConfig::SignSgd, usize::MAX);
    }

    #[test]
    fn matricized_pipeline_matches_matricized_sequential() {
        // Matricized buckets change what the compressor sees (a near-square
        // matrix instead of a flat vector) but not the engine schedule, so
        // pipelined and sequential must still agree bit for bit.
        let shapes = vec![vec![40usize, 3], vec![64], vec![9, 7]];
        for method in [
            MethodConfig::PowerSgd { rank: 2 },
            MethodConfig::TopK { ratio: 0.25 },
        ] {
            let outs = SimCluster::run(4, |w| {
                let c = method.build().unwrap();
                let grads = make_grads(w.rank(), &shapes);
                let cfg = PipelineConfig {
                    bucket_bytes: 600,
                    depth: 2,
                    matricize: true,
                };
                let mut eng = PipelinedEngine::new(w, c, cfg).unwrap();
                let out = eng.exchange(&grads).unwrap();
                let (w, _) = eng.into_parts();
                let mut c2 = method.build().unwrap();
                let mut plan = BucketPlan::matricized(&grads, 600);
                let seq = exchange_gradients_with_plan(&w, &mut c2, &grads, &mut plan).unwrap();
                (out, seq)
            });
            for (pipe, seq) in outs {
                for (p, s) in pipe.iter().zip(&seq) {
                    assert_eq!(
                        p.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        s.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                        "{method:?}: matricized pipelined deviates from sequential"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_bucket_bytes_is_rejected_at_construction() {
        let errs = SimCluster::run(2, |w| {
            let cfg = PipelineConfig {
                bucket_bytes: 0,
                ..PipelineConfig::default()
            };
            PipelinedEngine::new(w, MethodConfig::SyncSgd.build().unwrap(), cfg).err()
        });
        for err in errs {
            assert!(
                matches!(
                    err,
                    Some(crate::exec::ExecError::Compress(
                        CompressError::InvalidConfig(_)
                    ))
                ),
                "{err:?}"
            );
        }
    }

    #[test]
    fn depth_one_degenerates_to_sequential() {
        let shapes = vec![vec![32usize], vec![48], vec![16]];
        let outs = SimCluster::run(3, |w| {
            let c = MethodConfig::SyncSgd.build().unwrap();
            let grads = make_grads(w.rank(), &shapes);
            let cfg = PipelineConfig {
                bucket_bytes: 200,
                depth: 1,
                matricize: false,
            };
            let mut eng = PipelinedEngine::new(w, c, cfg).unwrap();
            let out = eng.exchange(&grads).unwrap();
            let (w, _) = eng.into_parts();
            let mut c2 = MethodConfig::SyncSgd.build().unwrap();
            let grads2 = make_grads(w.rank(), &shapes);
            let mut plan = BucketPlan::new(&grads2, 200);
            let seq = exchange_gradients_with_plan(&w, &mut c2, &grads2, &mut plan).unwrap();
            (out, seq)
        });
        for (pipe, seq) in outs {
            for (p, s) in pipe.iter().zip(&seq) {
                assert_eq!(
                    p.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    s.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn pipeline_timing_probes_count_wire_traffic() {
        let shapes = vec![vec![256usize], vec![200]];
        let outs = SimCluster::run(2, |w| {
            let c = MethodConfig::SyncSgd.build().unwrap();
            let grads = make_grads(w.rank(), &shapes);
            let cfg = PipelineConfig {
                bucket_bytes: 256 * 4,
                depth: 2,
                matricize: false,
            };
            let mut eng = PipelinedEngine::new(w, c, cfg).unwrap();
            eng.exchange(&grads).unwrap();
            eng.last_timings().to_vec()
        });
        for timings in outs {
            assert_eq!(timings.len(), 2);
            let mut bytes: Vec<u64> = timings.iter().map(|t| t.ring_bytes).collect();
            bytes.sort_unstable();
            assert_eq!(bytes, vec![200 * 4, 256 * 4]);
            for t in &timings {
                assert_eq!(t.ring_rounds, 1);
                assert_eq!(t.gather_rounds, 0);
                assert!(t.encode_s >= 0.0 && t.comm_s >= 0.0 && t.decode_s >= 0.0);
            }
        }
    }
}
