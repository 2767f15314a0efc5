//! Pipelined bucket exchange: comm/compute overlap in the real data plane.
//!
//! The sequential engine ([`exec::exchange_gradients_with_plan`]) encodes
//! a bucket, blocks inside the collective, absorbs, and only then touches
//! the next bucket — so while bytes are on the wire the CPU idles, and
//! while the CPU encodes the wire idles. [`PipelinedEngine`] splits each
//! worker into two threads:
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
//! submission order** (the in-order absorb invariant): the engine keeps a
//! FIFO of in-flight buckets and only ever waits on the front, which is
//! also the job the comm thread finishes first.
//!
//! # Bit-exactness
//!
//! The pipelined engine performs *exactly* the arithmetic of the
//! sequential engine, just on a different thread:
//!
//! * summable payloads are split by the same `PayloadShell::split`, ride
//!   the same plain ring `all_reduce_sum`, and get the same f32 divide by
//!   the member count (Half payloads are decoded to f32 before submission
//!   and re-rounded after, as in `aggregate_over_cluster_with`);
//! * gather payloads are serialized to the same bytes, all-gathered, and
//!   aggregated by the same `Compressor::aggregate` call.
//!
//! Hence pipelined output is bit-identical to the sequential engine for
//! every method in the registry (asserted in `tests/pipeline_bitexact.rs`).
//!
//! Overlap is priced at bucket granularity, as in the paper's Equation 1:
//! a bucket is the unit of encode, collective and absorb. Splitting a
//! bucket into smaller wire chunks does not pay on this runtime (see
//! DESIGN.md §15).

use std::collections::VecDeque;

use gcs_cluster::{CommEngine, PendingGather, PendingReduce, WorkerHandle};
use gcs_compress::{Compressor, Payload, PayloadShell};
use gcs_tensor::Tensor;

use crate::exec::{divide_by_members, BucketPlan, BucketTiming, Result};
use gcs_compress::driver::{switch_scheme, ResidualPolicy, SwitchOutcome};

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

/// One in-flight bucket: which collective it is riding and how to turn
/// the completion back into a payload.
enum Inflight {
    Reduce {
        bucket: usize,
        shell: PayloadShell,
        pending: PendingReduce,
    },
    Gather {
        bucket: usize,
        pending: PendingGather,
    },
}

/// A worker-side pipelined exchange engine: encode path on the calling
/// thread, collectives on a dedicated comm thread, connected by a bounded
/// channel. See the module docs for the thread layout and invariants.
pub struct PipelinedEngine<C: Compressor> {
    comm: CommEngine,
    compressor: C,
    cfg: PipelineConfig,
    plan: Option<BucketPlan>,
    /// Recycled gather-path serialization buffers (up to `depth` circulate).
    wire_pool: Vec<Vec<u8>>,
    /// Per-bucket timing probes of the most recent exchange. In a
    /// pipelined schedule `comm_s` is the *exposed* (wait-blocked)
    /// communication time — overlap hides the rest, which is precisely
    /// the quantity an adaptive policy should react to.
    timings: Vec<BucketTiming>,
}

impl<C: Compressor> PipelinedEngine<C> {
    /// Moves `worker` onto a dedicated comm thread and wraps `compressor`
    /// in the pipelined schedule.
    ///
    /// # Errors
    ///
    /// Returns an error if `cfg.depth == 0` or the comm thread cannot be
    /// spawned.
    pub fn new(worker: WorkerHandle, compressor: C, cfg: PipelineConfig) -> Result<Self> {
        Ok(PipelinedEngine {
            comm: CommEngine::spawn(worker, cfg.depth)?,
            compressor,
            cfg,
            plan: None,
            wire_pool: Vec::new(),
            timings: Vec::new(),
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

    /// Per-bucket timing probes of the most recent [`exchange`](Self::exchange).
    pub fn last_timings(&self) -> &[BucketTiming] {
        &self.timings
    }

    /// The scheme-switch point of the pipelined plane: replaces the
    /// engine's compressor with `new` at a step boundary, moving (or
    /// documented-resetting) every bucket's error-feedback residual per
    /// `policy`. Returns the old compressor and one [`SwitchOutcome`] per
    /// bucket of the current plan. Must only be called between exchanges
    /// — the engine never holds in-flight collectives across
    /// [`exchange`](Self::exchange) calls, so that boundary is always
    /// safe.
    ///
    /// # Errors
    ///
    /// Propagates residual-reconciliation protocol errors.
    pub fn swap_compressor(
        &mut self,
        mut new: C,
        policy: ResidualPolicy,
    ) -> Result<(C, Vec<SwitchOutcome>)> {
        let buckets = self.plan.as_ref().map_or(0, BucketPlan::num_buckets);
        let mut outcomes = Vec::with_capacity(buckets);
        for bucket in 0..buckets {
            outcomes.push(switch_scheme(
                &mut self.compressor,
                &mut new,
                bucket,
                policy,
            )?);
        }
        Ok((std::mem::replace(&mut self.compressor, new), outcomes))
    }

    /// Rank of the underlying worker.
    pub fn rank(&self) -> usize {
        self.comm.rank()
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
    /// `exchange_gradients_bucketed` on the same inputs.
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
        let result = self.exchange_with_plan(grads, &mut plan);
        self.plan = Some(plan);
        result
    }

    fn exchange_with_plan(
        &mut self,
        grads: &[Tensor],
        plan: &mut BucketPlan,
    ) -> Result<Vec<Tensor>> {
        let rounds = self.compressor.properties().rounds;
        let mut inflight: VecDeque<Inflight> = VecDeque::new();
        let mut timings: Vec<BucketTiming> = (0..plan.num_buckets())
            .map(|bucket| BucketTiming {
                bucket,
                ..BucketTiming::default()
            })
            .collect();
        for round in 0..rounds {
            // Indexed loop: `complete_front` needs the whole `timings`
            // slice mid-iteration, so an `iter_mut` would double-borrow.
            #[allow(clippy::needless_range_loop)]
            for bucket_id in 0..plan.num_buckets() {
                // Backpressure: never run more than `depth` buckets ahead
                // of the oldest unabsorbed collective.
                while inflight.len() >= self.cfg.depth {
                    self.complete_front(round, &mut inflight, &mut timings)?;
                }
                let t0 = std::time::Instant::now();
                let payload = if round == 0 {
                    self.compressor
                        .encode_owned(bucket_id, plan.pack(grads, bucket_id)?)?
                } else {
                    self.compressor.encode_round(bucket_id, round)?
                };
                timings[bucket_id].encode_s += t0.elapsed().as_secs_f64();
                inflight.push_back(self.submit(bucket_id, payload, &mut timings[bucket_id])?);
            }
            // Rounds are a barrier: encode_round(i, r+1) may require the
            // absorb of round r for bucket i, so drain before moving on.
            while !inflight.is_empty() {
                self.complete_front(round, &mut inflight, &mut timings)?;
            }
        }
        let flats: Vec<Tensor> = (0..plan.num_buckets())
            .map(|bucket_id| {
                let t0 = std::time::Instant::now();
                let flat = self
                    .compressor
                    .finish(bucket_id, plan.bucket_shape(bucket_id))?;
                timings[bucket_id].decode_s += t0.elapsed().as_secs_f64();
                Ok(flat)
            })
            .collect::<Result<_>>()?;
        self.timings = timings;
        plan.scatter(grads, flats)
    }

    /// Hands one encoded payload to the comm thread, choosing the
    /// collective exactly like `aggregate_over_cluster_with`.
    fn submit(
        &mut self,
        bucket: usize,
        payload: Payload,
        timing: &mut BucketTiming,
    ) -> Result<Inflight> {
        match PayloadShell::split(payload) {
            Ok((shell, data)) => {
                timing.ring_bytes += 4 * data.len() as u64;
                timing.ring_rounds += 1;
                let pending = self.comm.start_all_reduce_sum(data)?;
                Ok(Inflight::Reduce {
                    bucket,
                    shell,
                    pending,
                })
            }
            Err(payload) => {
                let mut wire = self.wire_pool.pop().unwrap_or_default();
                wire.clear();
                payload.write_bytes(&mut wire);
                timing.gather_bytes += wire.len() as u64;
                timing.gather_rounds += 1;
                let pending = self.comm.start_all_gather(wire)?;
                Ok(Inflight::Gather { bucket, pending })
            }
        }
    }

    /// Waits for the oldest in-flight collective, finishes its aggregation
    /// arithmetic, and absorbs it — the in-order absorb invariant.
    fn complete_front(
        &mut self,
        round: usize,
        inflight: &mut VecDeque<Inflight>,
        timings: &mut [BucketTiming],
    ) -> Result<()> {
        let Some(front) = inflight.pop_front() else {
            return Ok(());
        };
        match front {
            Inflight::Reduce {
                bucket,
                shell,
                pending,
            } => {
                let t0 = std::time::Instant::now();
                let mut data = pending.wait()?;
                let waited = t0.elapsed().as_secs_f64();
                timings[bucket].comm_s += waited;
                timings[bucket].exposed_wait_s += waited;
                let t1 = std::time::Instant::now();
                divide_by_members(&mut data, self.comm.members());
                self.compressor
                    .absorb(bucket, round, shell.assemble(data))?;
                timings[bucket].decode_s += t1.elapsed().as_secs_f64();
            }
            Inflight::Gather { bucket, pending } => {
                let t0 = std::time::Instant::now();
                let (frames, wire) = pending.wait()?;
                let waited = t0.elapsed().as_secs_f64();
                timings[bucket].comm_s += waited;
                timings[bucket].exposed_wait_s += waited;
                let t1 = std::time::Instant::now();
                self.wire_pool.push(wire);
                let payloads: Vec<Payload> = frames
                    .iter()
                    .map(|b| Payload::from_bytes(b))
                    .collect::<gcs_compress::Result<_>>()?;
                let agg = self.compressor.aggregate(round, &payloads)?;
                self.compressor.absorb(bucket, round, agg)?;
                timings[bucket].decode_s += t1.elapsed().as_secs_f64();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::exchange_gradients_bucketed;
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
            exchange_gradients_bucketed(&w, &mut c, &grads, bucket_bytes).unwrap()
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
        use crate::exec::{exchange_gradients_with_plan, BucketPlan};
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
            let seq = exchange_gradients_bucketed(&w, &mut c2, &grads2, 200).unwrap();
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

    /// The controller's dependency-free `LinkModel` must price collectives
    /// exactly like the cluster's `NetworkModel` — the whole point of the
    /// online Equation-1 estimate is that it agrees with the cost layer.
    #[test]
    fn link_model_matches_network_model() {
        use gcs_cluster::cost::NetworkModel;
        use gcs_compress::adaptive::LinkModel;
        for &incast in &[0.0f64, 0.3, 0.7] {
            let net = NetworkModel::new(15e-6, 1.25e9).with_incast(incast);
            let mut link = LinkModel::new(15e-6, 1.25e9).unwrap();
            link.incast = incast;
            for &bytes in &[1_000usize, 1_000_000, 100_000_000] {
                for &p in &[1usize, 2, 4, 16, 64] {
                    let ring_net = net.ring_all_reduce(bytes, p);
                    let ring_link = link.ring_all_reduce(bytes as f64, p);
                    assert!(
                        (ring_net - ring_link).abs() <= 1e-15 * ring_net.abs().max(1.0),
                        "ring mismatch: {ring_net} vs {ring_link} (bytes={bytes}, p={p})"
                    );
                    let gather_net = net.all_gather(bytes, p);
                    let gather_link = link.all_gather(bytes as f64, p);
                    assert!(
                        (gather_net - gather_link).abs() <= 1e-15 * gather_net.abs().max(1.0),
                        "gather mismatch: {gather_net} vs {gather_link} (bytes={bytes}, p={p})"
                    );
                }
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

    #[test]
    fn swap_compressor_at_step_boundary_carries_residual() {
        use gcs_compress::driver::ResidualPolicy;
        use gcs_compress::topk::TopK;
        use gcs_compress::Compressor;
        let shapes = vec![vec![128usize], vec![96]];
        let outs = SimCluster::run(2, |w| {
            let c: Box<dyn Compressor> = Box::new(TopK::new(0.25).unwrap().error_feedback(true));
            let grads = make_grads(w.rank(), &shapes);
            let cfg = PipelineConfig {
                bucket_bytes: 128 * 4,
                depth: 2,
                matricize: false,
            };
            let mut eng = PipelinedEngine::new(w, c, cfg).unwrap();
            eng.exchange(&grads).unwrap();
            let replacement = MethodConfig::EfSignSgd.build().unwrap();
            let (_old, outcomes) = eng
                .swap_compressor(replacement, ResidualPolicy::Carry)
                .unwrap();
            let out = eng.exchange(&grads).unwrap();
            (outcomes, out)
        });
        for (outcomes, out) in outs {
            // Top-K at ratio 0.25 leaves a residual in every bucket; the
            // carry must move it into the replacement scheme.
            assert_eq!(outcomes.len(), 2);
            assert!(outcomes.iter().all(|o| o.carried));
            assert!(outcomes.iter().all(|o| o.residual_norm > 0.0));
            assert!(out.iter().all(|t| t.data().iter().all(|x| x.is_finite())));
        }
    }
}
