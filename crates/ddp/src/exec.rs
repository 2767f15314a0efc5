//! Real-execution data-parallel engine.
//!
//! Runs `p` worker threads over the `gcs-cluster` channel mesh. Each
//! worker owns a compressor instance and real per-layer gradients; the
//! round protocol of `gcs-compress` is driven through *actual
//! collectives*:
//!
//! * summable payloads (all-reducible methods) travel through the ring
//!   all-reduce on their `f32` content;
//! * everything else is serialized and all-gathered, then aggregated
//!   locally on every worker — exactly what PyTorch implementations of
//!   SignSGD/Top-K must do.
//!
//! The engine is validated against the centralized reference driver in
//! `gcs_compress::driver` (identical outputs for every method).

use gcs_cluster::WorkerHandle;
use gcs_compress::registry::MethodConfig;
use gcs_compress::{CompressError, Compressor, Payload, PayloadShell};
use gcs_tensor::Tensor;

/// Errors from the distributed engine: compression or transport.
#[derive(Debug)]
pub enum ExecError {
    /// A compression-protocol error.
    Compress(CompressError),
    /// A transport/collective error.
    Cluster(gcs_cluster::ClusterError),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Compress(e) => write!(f, "compression error: {e}"),
            ExecError::Cluster(e) => write!(f, "cluster error: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<CompressError> for ExecError {
    fn from(e: CompressError) -> Self {
        ExecError::Compress(e)
    }
}

impl From<gcs_cluster::ClusterError> for ExecError {
    fn from(e: gcs_cluster::ClusterError) -> Self {
        ExecError::Cluster(e)
    }
}

/// Result alias for the engine.
pub type Result<T> = std::result::Result<T, ExecError>;

/// Aggregates one payload across the handle's ring, choosing the
/// collective by payload shape: summable payloads ride the ring
/// all-reduce and are divided by the member count (the live mean — the
/// world size unless [`WorkerHandle::set_members`] shrank the ring);
/// everything else is all-gathered and reduced locally via the
/// compressor's own `aggregate`. The gather path writes the wire image
/// into `wire` (cleared first), so a driver looping over layers reuses one
/// allocation for every payload.
///
/// Returns the aggregated payload every member absorbs.
///
/// # Errors
///
/// Propagates compression and transport errors.
pub fn aggregate_over_cluster_with<C: Compressor + ?Sized>(
    worker: &WorkerHandle,
    compressor: &C,
    round: usize,
    payload: Payload,
    wire: &mut Vec<u8>,
) -> Result<Payload> {
    match PayloadShell::split(payload) {
        // NCCL sums fp16 natively; a Half image is summed in f32 and
        // re-rounded by `assemble`, which matches Payload::add_assign
        // semantics up to rounding order.
        Ok((shell, mut image)) => {
            worker.all_reduce_sum(&mut image)?;
            divide_by_members(&mut image, worker.members().len());
            Ok(shell.assemble(image))
        }
        Err(payload) => {
            // Non-associative aggregation: gather every member's payload
            // and reduce locally (identically on every member).
            wire.clear();
            payload.write_bytes(wire);
            let gathered = worker.all_gather_bytes(wire)?;
            aggregate_gathered(compressor, round, &gathered)
        }
    }
}

/// Turns a ring sum over `members` contributions into their mean — the
/// one divisor rule of the sequential and pipelined engines.
pub(crate) fn divide_by_members(image: &mut [f32], members: usize) {
    let denom = members as f32;
    for x in image {
        *x /= denom;
    }
}

/// Deserializes gathered wire images and reduces them through the
/// compressor's own `aggregate` (identically on every participant).
fn aggregate_gathered<C: Compressor + ?Sized>(
    compressor: &C,
    round: usize,
    gathered: &[gcs_cluster::Frame],
) -> Result<Payload> {
    let payloads: Vec<Payload> = gathered
        .iter()
        .map(|b| Payload::from_bytes(b))
        .collect::<gcs_compress::Result<_>>()?;
    Ok(compressor.aggregate(round, &payloads)?)
}

/// Runs one full compressed gradient exchange for `grads` (this worker's
/// per-layer gradients) and returns the decoded aggregated gradients in
/// layer order.
///
/// # Errors
///
/// Propagates compression and transport errors.
pub fn exchange_gradients<C: Compressor>(
    worker: &WorkerHandle,
    compressor: &mut C,
    grads: &[Tensor],
) -> Result<Vec<Tensor>> {
    let rounds = compressor.properties().rounds;
    let mut wire = Vec::new();
    // Round-major order: all layers do round 0, then all do round 1 —
    // matching how DDP issues one collective per bucket per phase.
    for round in 0..rounds {
        for (layer, grad) in grads.iter().enumerate() {
            let payload = if round == 0 {
                compressor.encode(layer, grad)?
            } else {
                compressor.encode_round(layer, round)?
            };
            let agg = aggregate_over_cluster_with(worker, compressor, round, payload, &mut wire)?;
            compressor.absorb(layer, round, agg)?;
        }
    }
    grads
        .iter()
        .enumerate()
        .map(|(layer, grad)| Ok(compressor.finish(layer, grad.shape())?))
        .collect()
}

/// The bucket partition of a gradient set plus the persistent buffers the
/// bucketed exchange needs — the flat pack buffer and the serialization
/// wire buffer — and the per-bucket timings of its most recent exchange.
///
/// DDP computes its bucket assignment once at model construction and
/// reuses it every iteration; recomputing the partition per step is pure
/// rework. Build a plan once with [`BucketPlan::new`] and drive
/// [`exchange_gradients_with_plan`] with it every step.
///
/// The packed bucket is *moved* into the compressor
/// ([`Compressor::encode_owned`]): for syncSGD that buffer is the payload,
/// rides the all-reduce in place and comes back from `finish` as the
/// decoded flat. [`BucketPlan::scatter`] closes the circle: a single-layer
/// bucket's flat becomes that layer's output tensor, so packing is the
/// step's only copy of its bytes; a multi-layer bucket's flat, once its
/// layers are copied out, becomes the next pack buffer.
#[derive(Debug)]
pub struct BucketPlan {
    /// Layer indices per bucket, filled in backward (reverse-layer) order
    /// the way DDP sees gradients become ready.
    buckets: Vec<Vec<usize>>,
    /// Total element count per bucket.
    elems: Vec<usize>,
    /// Shape each packed bucket is presented to the compressor with:
    /// `[elems]` by default, or `[d, elems/d]` (d the largest divisor ≤
    /// √elems) for [`BucketPlan::matricized`] plans.
    shapes: Vec<gcs_tensor::Shape>,
    /// Element count of every layer (used to detect layout changes).
    layer_elems: Vec<usize>,
    /// Flat pack buffer, taken by [`BucketPlan::pack`] and refilled by
    /// [`BucketPlan::scatter`] (or [`BucketPlan::reclaim`]).
    pack: Vec<f32>,
    /// Persistent serialization buffer for the gather path.
    wire: Vec<u8>,
    /// Per-bucket timing probes of the most recent
    /// [`exchange_gradients_with_plan`].
    timings: Vec<BucketTiming>,
}

impl BucketPlan {
    /// Partitions `grads` into flat buckets of at most `bucket_bytes`
    /// bytes (a layer larger than the cap gets a bucket of its own),
    /// filling in backward order to mirror DDP.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_bytes == 0`.
    pub fn new(grads: &[Tensor], bucket_bytes: usize) -> Self {
        Self::build(grads, bucket_bytes, false)
    }

    /// Like [`BucketPlan::new`], but presents each packed bucket to the
    /// compressor as a near-square matrix `[d, elems/d]` (d the largest
    /// divisor of the bucket's element count that is ≤ its square root)
    /// instead of a flat vector.
    ///
    /// Shape-sensitive compressors need this: a flat bucket matricizes to
    /// `(1, n)`, which collapses PowerSGD to rank 1 with an n-element
    /// factor — no compression at all. PyTorch's PowerSGD DDP hook
    /// likewise views each bucket as a matrix before factorizing.
    /// Flat packing stays the default because it matches the layer-wise
    /// reference driver on concatenated gradients exactly.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_bytes == 0`.
    pub fn matricized(grads: &[Tensor], bucket_bytes: usize) -> Self {
        Self::build(grads, bucket_bytes, true)
    }

    fn build(grads: &[Tensor], bucket_bytes: usize, matricize: bool) -> Self {
        assert!(bucket_bytes > 0, "bucket size must be positive");
        let mut buckets: Vec<Vec<usize>> = Vec::new();
        let mut current: Vec<usize> = Vec::new();
        let mut current_bytes = 0usize;
        for idx in (0..grads.len()).rev() {
            let b = grads[idx].numel() * 4;
            if current_bytes > 0 && current_bytes + b > bucket_bytes {
                buckets.push(std::mem::take(&mut current));
                current_bytes = 0;
            }
            current.push(idx);
            current_bytes += b;
        }
        if !current.is_empty() {
            buckets.push(current);
        }
        let elems: Vec<usize> = buckets
            .iter()
            .map(|layers| layers.iter().map(|&i| grads[i].numel()).sum())
            .collect();
        let shapes = elems
            .iter()
            .map(|&n| {
                let d = if matricize {
                    largest_divisor_le_sqrt(n)
                } else {
                    1
                };
                if d > 1 {
                    gcs_tensor::Shape::new(vec![d, n / d])
                } else {
                    gcs_tensor::Shape::new(vec![n])
                }
            })
            .collect();
        BucketPlan {
            buckets,
            elems,
            shapes,
            layer_elems: grads.iter().map(Tensor::numel).collect(),
            pack: Vec::new(),
            wire: Vec::new(),
            timings: Vec::new(),
        }
    }

    /// Number of buckets in the plan.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Layer indices assigned to `bucket` (in pack order).
    pub fn layers(&self, bucket: usize) -> &[usize] {
        &self.buckets[bucket]
    }

    /// Total element count of `bucket`.
    pub fn elems(&self, bucket: usize) -> usize {
        self.elems[bucket]
    }

    /// The shape `bucket` is presented to the compressor with.
    pub fn bucket_shape(&self, bucket: usize) -> &gcs_tensor::Shape {
        &self.shapes[bucket]
    }

    /// Whether this plan was built for gradients with the same per-layer
    /// element counts as `grads`.
    pub fn matches(&self, grads: &[Tensor]) -> bool {
        self.layer_elems.len() == grads.len()
            && self
                .layer_elems
                .iter()
                .zip(grads)
                .all(|(&n, g)| n == g.numel())
    }

    /// Packs `bucket`'s layers into one flat tensor, in the plan's pack
    /// buffer when it holds one. The engines move the tensor on into
    /// [`Compressor::encode_owned`]; a caller that only borrows it can hand
    /// it back with [`BucketPlan::reclaim`].
    ///
    /// # Errors
    ///
    /// Returns a protocol error if the plan was built for a different
    /// gradient layout (bucket shape no longer matches the element count).
    pub fn pack(&mut self, grads: &[Tensor], bucket: usize) -> Result<Tensor> {
        let mut flat = std::mem::take(&mut self.pack);
        flat.clear();
        flat.reserve(self.elems[bucket]);
        for &i in &self.buckets[bucket] {
            flat.extend_from_slice(grads[i].data());
        }
        Tensor::from_shape_vec(self.shapes[bucket].clone(), flat)
            .map_err(gcs_compress::CompressError::from)
            .map_err(ExecError::from)
    }

    /// Returns a spent pack tensor's allocation to the plan.
    pub fn reclaim(&mut self, packed: Tensor) {
        self.pack = packed.into_vec();
    }

    /// Scatters decoded flat buckets (`flats[b]` for bucket `b`) back to
    /// per-layer tensors shaped like `grads`. A single-layer bucket's flat
    /// is reshaped into the layer's tensor without a copy; a multi-layer
    /// bucket's layers are copied out and its flat becomes the plan's
    /// pack buffer.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from tensor construction.
    pub fn scatter(&mut self, grads: &[Tensor], flats: Vec<Tensor>) -> Result<Vec<Tensor>> {
        let shaped = |i: usize, data: Vec<f32>| {
            Tensor::from_shape_vec(grads[i].shape().clone(), data)
                .map_err(gcs_compress::CompressError::from)
        };
        let mut out: Vec<Option<Tensor>> = (0..grads.len()).map(|_| None).collect();
        for (layers, flat) in self.buckets.iter().zip(flats) {
            if let [i] = layers[..] {
                out[i] = Some(shaped(i, flat.into_vec())?);
                continue;
            }
            let mut offset = 0usize;
            for &i in layers {
                let n = grads[i].numel();
                out[i] = Some(shaped(i, flat.data()[offset..offset + n].to_vec())?);
                offset += n;
            }
            self.pack = flat.into_vec();
        }
        out.into_iter()
            .enumerate()
            .map(|(i, t)| {
                t.ok_or_else(|| {
                    ExecError::Compress(gcs_compress::CompressError::Protocol(format!(
                        "layer {i} was not covered by any bucket"
                    )))
                })
            })
            .collect()
    }

    /// The plan's persistent wire buffer (gather-path serialization).
    pub(crate) fn wire_mut(&mut self) -> &mut Vec<u8> {
        &mut self.wire
    }

    /// Per-bucket timing probes of the most recent
    /// [`exchange_gradients_with_plan`] driven by this plan (empty before
    /// the first, and after one that failed).
    pub fn last_timings(&self) -> &[BucketTiming] {
        &self.timings
    }
}

/// Runs the exchange at **bucket granularity**, the way PyTorch DDP comm
/// hooks actually see gradients: layers are packed (in backward order)
/// into flat buckets of at most `bucket_bytes`, each bucket is compressed
/// and aggregated as one tensor, and the decoded buckets are scattered
/// back to per-layer gradients.
///
/// Bucketing amortizes per-collective latency and — because the
/// compressor sees one long flat vector — sidesteps the per-layer encode
/// overhead §4.2 complains about. It is also the only way to use
/// non-layer-wise methods (Table 1's Random-K row) inside DDP.
///
/// Builds a fresh [`BucketPlan`] per call; steady-state drivers should
/// build the plan once and call [`exchange_gradients_with_plan`].
///
/// # Errors
///
/// Propagates compression and transport errors.
///
/// # Panics
///
/// Panics if `bucket_bytes == 0`.
pub fn exchange_gradients_bucketed<C: Compressor>(
    worker: &WorkerHandle,
    compressor: &mut C,
    grads: &[Tensor],
    bucket_bytes: usize,
) -> Result<Vec<Tensor>> {
    let mut plan = BucketPlan::new(grads, bucket_bytes);
    exchange_gradients_with_plan(worker, compressor, grads, &mut plan)
}

/// [`exchange_gradients_bucketed`] driven by a prebuilt [`BucketPlan`]:
/// the partition, pack buffer, and wire buffer all persist across steps.
/// Every (bucket, round) leg runs under monotonic timers; read the
/// per-bucket breakdown back with [`BucketPlan::last_timings`].
///
/// # Errors
///
/// Propagates compression and transport errors.
///
/// # Panics
///
/// Panics if `plan` was built for a different gradient layout (debug
/// builds only; release builds would produce garbage buckets, so the
/// check is cheap insurance — `plan.matches(grads)`).
pub fn exchange_gradients_with_plan<C: Compressor>(
    worker: &WorkerHandle,
    compressor: &mut C,
    grads: &[Tensor],
    plan: &mut BucketPlan,
) -> Result<Vec<Tensor>> {
    debug_assert!(plan.matches(grads), "plan built for a different model");
    let rounds = compressor.properties().rounds;
    let mut timings = std::mem::take(&mut plan.timings);
    timings.clear();
    timings.extend((0..plan.num_buckets()).map(|bucket| BucketTiming {
        bucket,
        ..BucketTiming::default()
    }));
    for round in 0..rounds {
        for (bucket_id, timing) in timings.iter_mut().enumerate() {
            run_timed_round(worker, compressor, grads, plan, bucket_id, round, timing)?;
        }
    }
    let flats: Vec<Tensor> = timings
        .iter_mut()
        .enumerate()
        .map(|(bucket_id, timing)| {
            let t0 = std::time::Instant::now();
            let flat = compressor.finish(bucket_id, plan.bucket_shape(bucket_id))?;
            timing.decode_s += t0.elapsed().as_secs_f64();
            Ok(flat)
        })
        .collect::<Result<_>>()?;
    plan.timings = timings;
    plan.scatter(grads, flats)
}

/// Per-bucket wall-clock breakdown of one exchange, from monotonic timers
/// around the encode / collective / absorb phases — the raw signal the
/// adaptive controller's measured mode consumes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BucketTiming {
    /// Bucket index.
    pub bucket: usize,
    /// Seconds spent encoding (all rounds, including packing).
    pub encode_s: f64,
    /// Seconds spent in the cluster collective (all rounds).
    pub comm_s: f64,
    /// Seconds spent absorbing and decoding.
    pub decode_s: f64,
    /// Seconds the caller was *blocked* on an in-flight collective with
    /// no local work to overlap it (pipelined engine only;
    /// the sequential engine folds all wire time into `comm_s`).
    pub exposed_wait_s: f64,
    /// Bytes this worker contributed to ring all-reduce rounds (the f32
    /// wire image for summable payloads).
    pub ring_bytes: u64,
    /// Number of ring rounds.
    pub ring_rounds: u32,
    /// Bytes this worker contributed to all-gather rounds (serialized
    /// payload length).
    pub gather_bytes: u64,
    /// Number of gather rounds.
    pub gather_rounds: u32,
}

/// Bytes a summable payload occupies on the ring — the length of the f32
/// image [`aggregate_over_cluster_with`] actually reduces (Half payloads
/// are decoded to f32 *before* the ring, so FP16 pays full f32 wire bytes
/// here).
pub fn summable_wire_bytes(payload: &Payload) -> u64 {
    match payload {
        Payload::Dense(v) => 4 * v.len() as u64,
        Payload::Half(h) => 4 * h.len() as u64,
        Payload::Factor { data, .. } => 4 * data.len() as u64,
        Payload::SharedSparse { values, .. } => 4 * values.len() as u64,
        _ => 0,
    }
}

/// Runs one (bucket, round) leg of the exchange with monotonic timers,
/// accumulating into `timing` — shared by the round-major
/// [`exchange_gradients_with_plan`] and the bucket-major adaptive engine.
pub(crate) fn run_timed_round<C: Compressor + ?Sized>(
    worker: &WorkerHandle,
    compressor: &mut C,
    grads: &[Tensor],
    plan: &mut BucketPlan,
    bucket_id: usize,
    round: usize,
    timing: &mut BucketTiming,
) -> Result<()> {
    let t0 = std::time::Instant::now();
    let payload = if round == 0 {
        compressor.encode_owned(bucket_id, plan.pack(grads, bucket_id)?)?
    } else {
        compressor.encode_round(bucket_id, round)?
    };
    let t1 = std::time::Instant::now();
    timing.encode_s += t1.duration_since(t0).as_secs_f64();
    let summable = payload.is_summable();
    if summable {
        timing.ring_bytes += summable_wire_bytes(&payload);
        timing.ring_rounds += 1;
    }
    let mut wire = std::mem::take(plan.wire_mut());
    let agg = aggregate_over_cluster_with(worker, compressor, round, payload, &mut wire);
    if !summable {
        // The gather path serialized this worker's payload into `wire`.
        timing.gather_bytes += wire.len() as u64;
        timing.gather_rounds += 1;
    }
    *plan.wire_mut() = wire;
    let t2 = std::time::Instant::now();
    timing.comm_s += t2.duration_since(t1).as_secs_f64();
    compressor.absorb(bucket_id, round, agg?)?;
    timing.decode_s += t2.elapsed().as_secs_f64();
    Ok(())
}

/// Largest divisor of `n` that is at most `√n` (1 for primes and `n ≤ 3`).
fn largest_divisor_le_sqrt(n: usize) -> usize {
    let mut best = 1;
    let mut d = 2;
    while d * d <= n {
        if n.is_multiple_of(d) {
            best = d;
        }
        d += 1;
    }
    best
}

/// Convenience harness: runs `exchange_gradients` across `p` in-process
/// worker threads where worker `w` contributes `grads_per_worker[w]`, with
/// a fresh compressor built from `method` on every worker. Returns each
/// worker's decoded gradients.
///
/// # Errors
///
/// Propagates the first worker error encountered.
///
/// # Panics
///
/// Panics if `grads_per_worker` is empty or a worker thread panics.
pub fn data_parallel_exchange(
    method: &MethodConfig,
    grads_per_worker: &[Vec<Tensor>],
) -> Result<Vec<Vec<Tensor>>> {
    assert!(!grads_per_worker.is_empty(), "need at least one worker");
    let p = grads_per_worker.len();
    let results = gcs_cluster::SimCluster::run(p, |worker| {
        let mut compressor = method.build()?;
        let grads = &grads_per_worker[worker.rank()];
        exchange_gradients(&worker, &mut compressor, grads)
    });
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_compress::driver::all_reduce_compressed;
    use gcs_tensor::stats::relative_l2_error;

    fn make_grads(workers: usize, layers: &[Vec<usize>], seed: u64) -> Vec<Vec<Tensor>> {
        (0..workers)
            .map(|w| {
                layers
                    .iter()
                    .enumerate()
                    .map(|(l, shape)| Tensor::randn(shape.clone(), seed + (w * 131 + l) as u64))
                    .collect()
            })
            .collect()
    }

    /// The real engine must agree with the centralized reference driver.
    fn assert_matches_reference(method: MethodConfig, workers: usize) {
        // FP16 sums in a different order over the ring than the reference's
        // sequential re-rounding accumulation, so allow half-precision
        // headroom there; everything else must agree to f32 noise.
        let tol = if method == MethodConfig::Fp16 {
            2e-3
        } else {
            1e-4
        };
        let layers = vec![vec![6usize, 10], vec![33], vec![4, 4, 3, 3]];
        let grads = make_grads(workers, &layers, 42);
        let distributed = data_parallel_exchange(&method, &grads).expect("engine runs");

        // Reference: one compressor per worker, centralized aggregation,
        // layer by layer.
        let mut reference_workers: Vec<_> = (0..workers)
            .map(|_| method.build().expect("builds"))
            .collect();
        for (layer, _) in layers.iter().enumerate() {
            let layer_grads: Vec<Tensor> = grads.iter().map(|g| g[layer].clone()).collect();
            let ref_out =
                all_reduce_compressed(&mut reference_workers, layer, &layer_grads).unwrap();
            for w in 0..workers {
                let err = relative_l2_error(&ref_out[w], &distributed[w][layer]);
                assert!(
                    err < tol,
                    "{method:?} worker {w} layer {layer}: engine deviates from reference ({err})"
                );
            }
        }
    }

    #[test]
    fn engine_matches_reference_syncsgd() {
        assert_matches_reference(MethodConfig::SyncSgd, 4);
    }

    #[test]
    fn engine_matches_reference_fp16() {
        assert_matches_reference(MethodConfig::Fp16, 4);
    }

    #[test]
    fn engine_matches_reference_powersgd() {
        assert_matches_reference(MethodConfig::PowerSgd { rank: 2 }, 3);
    }

    #[test]
    fn engine_matches_reference_topk() {
        assert_matches_reference(MethodConfig::TopK { ratio: 0.2 }, 4);
    }

    #[test]
    fn engine_matches_reference_signsgd() {
        assert_matches_reference(MethodConfig::SignSgd, 5);
    }

    #[test]
    fn engine_matches_reference_randomk() {
        assert_matches_reference(MethodConfig::RandomK { ratio: 0.25 }, 4);
    }

    #[test]
    fn engine_matches_reference_terngrad() {
        assert_matches_reference(MethodConfig::TernGrad, 3);
    }

    #[test]
    fn engine_matches_reference_qsgd() {
        assert_matches_reference(MethodConfig::Qsgd { levels: 15 }, 3);
    }

    #[test]
    fn engine_matches_reference_onebit() {
        assert_matches_reference(MethodConfig::OneBit, 3);
    }

    #[test]
    fn engine_matches_reference_sketch() {
        assert_matches_reference(MethodConfig::Sketch { block: 4 }, 4);
    }

    #[test]
    fn engine_matches_reference_atomo() {
        assert_matches_reference(MethodConfig::Atomo { rank: 2 }, 2);
    }

    #[test]
    fn syncsgd_engine_computes_exact_mean() {
        let grads = make_grads(4, &[vec![17]], 7);
        let outs = data_parallel_exchange(&MethodConfig::SyncSgd, &grads).unwrap();
        let mut mean = Tensor::zeros([17]);
        for g in &grads {
            mean.add_assign(&g[0]).unwrap();
        }
        mean.scale(0.25);
        for w in outs {
            assert!(relative_l2_error(&mean, &w[0]) < 1e-6);
        }
    }

    #[test]
    fn workers_agree_on_decoded_gradients() {
        for method in [
            MethodConfig::PowerSgd { rank: 2 },
            MethodConfig::SignSgd,
            MethodConfig::TopK { ratio: 0.5 },
        ] {
            let grads = make_grads(4, &[vec![8, 8]], 11);
            let outs = data_parallel_exchange(&method, &grads).unwrap();
            for w in 1..4 {
                assert_eq!(outs[0], outs[w], "{method:?} diverged across workers");
            }
        }
    }

    #[test]
    fn bucketed_exchange_matches_exact_mean_for_syncsgd() {
        let grads = make_grads(3, &[vec![6usize, 4], vec![9], vec![5, 5]], 31);
        let outs = gcs_cluster::SimCluster::run(3, |worker| {
            let mut c = MethodConfig::SyncSgd.build().unwrap();
            exchange_gradients_bucketed(&worker, &mut c, &grads[worker.rank()], 64).unwrap()
        });
        // Exact mean, layer by layer, regardless of bucket boundaries.
        for layer in 0..3 {
            let mut mean = Tensor::zeros(grads[0][layer].shape().clone());
            for g in &grads {
                mean.add_assign(&g[layer]).unwrap();
            }
            mean.scale(1.0 / 3.0);
            for out in &outs {
                assert!(
                    relative_l2_error(&mean, &out[layer]) < 1e-5,
                    "layer {layer}"
                );
            }
        }
    }

    #[test]
    fn bucketed_exchange_works_for_all_method_classes() {
        for method in [
            MethodConfig::Fp16,
            MethodConfig::PowerSgd { rank: 2 },
            MethodConfig::SignSgd,
            MethodConfig::RandomK { ratio: 0.5 }, // not layer-wise: needs buckets
        ] {
            let grads = make_grads(2, &[vec![4usize, 4], vec![7]], 37);
            let outs = gcs_cluster::SimCluster::run(2, |worker| {
                let mut c = method.build().unwrap();
                exchange_gradients_bucketed(&worker, &mut c, &grads[worker.rank()], 48).unwrap()
            });
            assert_eq!(outs[0], outs[1], "{method:?} diverged");
            for (out, g) in outs[0].iter().zip(&grads[0]) {
                assert_eq!(out.shape(), g.shape());
                assert!(out.data().iter().all(|x| x.is_finite()));
            }
        }
    }

    #[test]
    fn plan_exchange_keeps_per_bucket_timings_on_the_plan() {
        let grads = make_grads(2, &[vec![64usize], vec![6, 5], vec![40]], 43);
        let outs = gcs_cluster::SimCluster::run(2, |worker| {
            let grads = &grads[worker.rank()];
            let mut plan = BucketPlan::new(grads, 256);
            assert!(plan.last_timings().is_empty());
            let mut ring = MethodConfig::SyncSgd.build().unwrap();
            exchange_gradients_with_plan(&worker, &mut ring, grads, &mut plan).unwrap();
            let ring_timings = plan.last_timings().to_vec();
            let mut gather = MethodConfig::SignSgd.build().unwrap();
            exchange_gradients_with_plan(&worker, &mut gather, grads, &mut plan).unwrap();
            (
                plan.num_buckets(),
                ring_timings,
                plan.last_timings().to_vec(),
            )
        });
        for (buckets, ring, gather) in outs {
            assert_eq!(buckets, 3);
            // One entry per bucket, refreshed (not appended) per exchange.
            for (b, (r, g)) in ring.iter().zip(&gather).enumerate() {
                assert_eq!((r.bucket, g.bucket), (b, b));
                assert_eq!((r.ring_rounds, r.gather_rounds), (1, 0));
                assert_eq!((g.ring_rounds, g.gather_rounds), (0, 1));
                assert!(r.ring_bytes > 0 && g.gather_bytes > 0);
            }
            let total: u64 = ring.iter().map(|t| t.ring_bytes).sum();
            assert_eq!(total, 4 * (64 + 30 + 40));
        }
    }

    #[test]
    fn scatter_moves_single_layer_flats_and_recycles_multi_layer_ones() {
        // A 200-byte cap puts layer 2 (256 B) in a bucket of its own and
        // layers 1 + 0 (132 B) together.
        let grads = vec![
            Tensor::randn([6usize, 5], 1),
            Tensor::randn([3usize], 2),
            Tensor::randn([8usize, 8], 3),
        ];
        let mut plan = BucketPlan::new(&grads, 200);
        assert_eq!(
            (plan.layers(0), plan.layers(1)),
            (&[2usize][..], &[1usize, 0][..])
        );
        let flats: Vec<Tensor> = (0..plan.num_buckets())
            .map(|b| plan.pack(&grads, b).unwrap())
            .collect();
        let single = flats[0].data().as_ptr();
        let multi = flats[1].data().as_ptr();
        let out = plan.scatter(&grads, flats).unwrap();
        // Pack then scatter is the identity, layer shapes included.
        assert_eq!(out, grads);
        // The single-layer flat *is* the layer's output tensor...
        assert_eq!(out[2].data().as_ptr(), single);
        // ...and the multi-layer flat is the next pack buffer.
        assert_eq!(plan.pack(&grads, 1).unwrap().data().as_ptr(), multi);
    }

    #[test]
    fn giant_bucket_equals_whole_model_flat() {
        // With an unbounded bucket, bucketed syncSGD equals the per-layer
        // engine's result exactly.
        let grads = make_grads(2, &[vec![3usize, 3], vec![5]], 41);
        let bucketed = gcs_cluster::SimCluster::run(2, |worker| {
            let mut c = MethodConfig::SyncSgd.build().unwrap();
            exchange_gradients_bucketed(&worker, &mut c, &grads[worker.rank()], usize::MAX).unwrap()
        });
        let layered = data_parallel_exchange(&MethodConfig::SyncSgd, &grads).unwrap();
        for (a, b) in bucketed[0].iter().zip(&layered[0]) {
            assert!(relative_l2_error(a, b) < 1e-6);
        }
    }

    #[test]
    fn shrunk_exchange_averages_over_live_members_only() {
        // 4 workers, rank 2 is "dead": survivors exchange among {0, 1, 3}
        // and must compute the exact mean over exactly those three.
        let grads = make_grads(4, &[vec![9usize]], 23);
        let members = [0usize, 1, 3];
        let outs = gcs_cluster::SimCluster::run(4, |mut worker| {
            if worker.rank() == 2 {
                return None;
            }
            worker.set_members(&members).unwrap();
            let mut c = MethodConfig::SyncSgd.build().unwrap();
            Some(exchange_gradients(&worker, &mut c, &grads[worker.rank()]).unwrap())
        });
        let mut mean = Tensor::zeros([9]);
        for &m in &members {
            mean.add_assign(&grads[m][0]).unwrap();
        }
        mean.scale(1.0 / members.len() as f32);
        for (rank, out) in outs.iter().enumerate() {
            match out {
                None => assert_eq!(rank, 2),
                Some(layers) => {
                    assert!(
                        relative_l2_error(&mean, &layers[0]) < 1e-6,
                        "survivor {rank} must average over live members only"
                    );
                }
            }
        }
    }

    #[test]
    fn shrunk_exchange_gather_path_uses_live_members_only() {
        // SignSGD takes the gather/aggregate path; majority vote must be
        // over the survivors' payloads only.
        let grads = make_grads(4, &[vec![3usize, 4]], 29);
        let members = [0usize, 2, 3];
        let outs = gcs_cluster::SimCluster::run(4, |mut worker| {
            if worker.rank() == 1 {
                return None;
            }
            worker.set_members(&members).unwrap();
            let mut c = MethodConfig::SignSgd.build().unwrap();
            Some(exchange_gradients(&worker, &mut c, &grads[worker.rank()]).unwrap())
        });
        let survivors: Vec<_> = outs.iter().flatten().collect();
        assert_eq!(survivors.len(), 3);
        for s in &survivors[1..] {
            assert_eq!(*s, survivors[0], "survivors must agree bit-exactly");
        }
        // Reference: centralized driver over only the member gradients.
        let mut refs: Vec<_> = members
            .iter()
            .map(|_| MethodConfig::SignSgd.build().unwrap())
            .collect();
        let member_grads: Vec<Tensor> = members.iter().map(|&m| grads[m][0].clone()).collect();
        let ref_out = all_reduce_compressed(&mut refs, 0, &member_grads).unwrap();
        assert!(relative_l2_error(&ref_out[0], &survivors[0][0]) < 1e-5);
    }

    #[test]
    fn multi_iteration_powersgd_keeps_state_per_worker() {
        // Drive two iterations through the threaded engine; warm start and
        // error feedback must not corrupt cross-iteration state.
        let layers = vec![vec![12usize, 12]];
        let g1 = make_grads(3, &layers, 21);
        let g2 = make_grads(3, &layers, 22);
        let p = 3;
        let outs = gcs_cluster::SimCluster::run(p, |worker| {
            let mut c = MethodConfig::PowerSgd { rank: 2 }.build().unwrap();
            let a = exchange_gradients(&worker, &mut c, &g1[worker.rank()]).unwrap();
            let b = exchange_gradients(&worker, &mut c, &g2[worker.rank()]).unwrap();
            (a, b)
        });
        for w in 1..p {
            assert_eq!(outs[0], outs[w]);
        }
    }
}
