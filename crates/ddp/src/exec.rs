//! The one bucket schedule every gradient exchange runs, and the bucket
//! plan it runs over.
//!
//! Each worker owns a compressor instance and real per-layer gradients;
//! the round protocol of `gcs-compress` is driven through *actual
//! collectives* of the `gcs-cluster` mesh:
//!
//! * summable payloads (all-reducible methods) travel through the ring
//!   mean-all-reduce on their `f32` content, which divides by the member
//!   count inside the collective;
//! * everything else is serialized and all-gathered, then aggregated
//!   locally on every worker — exactly what PyTorch implementations of
//!   SignSGD/Top-K must do.
//!
//! [`crate::Exchanger`] is the entry point. This module holds what it
//! drives: [`BucketPlan`], the per-bucket [`BucketTiming`]s, and the
//! private round loop.
//!
//! # One schedule, two lanes
//!
//! The round loop is round-major (every bucket's round 0, then every
//! bucket's round 1, …) with a drain barrier between rounds, and each
//! bucket runs only the rounds of the compressor (arm) it is assigned to.
//! Every rank shares the assignment, so every rank issues the same
//! collective sequence. Only where the collective runs differs:
//!
//! * the **inline** lane runs it on the calling thread, **one ring and one
//!   gather per round**: each bucket's payload waits in a batch until the
//!   round drains, when every summable image rides one
//!   [`WorkerHandle::all_reduce_mean_many`] and every other payload,
//!   serialized back to back, one [`WorkerHandle::all_gather_bytes`]. A
//!   bucket whose payload is the caller's gradient is never copied into
//!   the batch: it lands the batch first, so collectives stay in bucket
//!   order, then runs its own ring;
//! * the **comm** lane queues each bucket's collective on a
//!   [`CommEngine`] thread with at most `depth` in flight and absorbs
//!   strictly in submission order. It keeps one collective per bucket:
//!   batching would serialize the overlap of each collective with the next
//!   bucket's encode.
//!
//! Either way `aggregate` and `absorb` run in bucket order. The split,
//! deserialization, `aggregate` and `absorb` are written once, and the
//! fused collectives are bit-identical to one per bucket, so every lane is
//! bit-identical to the other, and numerically equal to the centralized
//! reference driver in `gcs_compress::driver`. Timing follows one rule on
//! both lanes (see [`BucketTiming`]): `comm_s` is time in the collective —
//! the ring mean's divide included — and everything after it is
//! `decode_s`.

use std::collections::VecDeque;
use std::time::Instant;

use gcs_cluster::{CommEngine, Frame, PendingGather, PendingReduce, WorkerHandle};
use gcs_compress::{CompressError, Compressor, Payload, PayloadShell};
use gcs_models::buckets::partition_bytes;
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

/// Where the schedule runs each bucket's collective.
pub(crate) enum LaneRef<'a> {
    /// On the calling thread, inside [`LaneRef::submit`].
    Inline(&'a WorkerHandle),
    /// Queued on a comm thread, at most `depth` collectives in flight.
    Comm(&'a CommEngine, usize),
}

/// What a bucket round hands its collective.
enum Contribution<'g> {
    /// An encoded payload.
    Payload(Payload),
    /// Round 0 of a single-layer bucket whose payload is the layer's
    /// gradient itself ([`Compressor::payload_is_gradient`]): the ring
    /// mean reads it where it lies, so it is neither packed nor encoded.
    Gradient(&'g [f32]),
}

/// A submitted bucket round: landed already on the inline lane, still on
/// the comm thread on the comm lane.
enum Leg {
    Landed(Landed),
    Queued(Queued),
}

/// A collective's result, before `aggregate`.
enum Landed {
    Reduced(PayloadShell, Vec<f32>),
    /// Every member's frame, plus the buffer this rank sent.
    Gathered(Vec<Frame>, Vec<u8>),
    /// Every member's payload, parsed out of a fused gather.
    Parsed(Vec<Payload>),
}

/// A collective queued on the comm thread.
enum Queued {
    Reduce(PayloadShell, PendingReduce),
    Gather(PendingGather),
}

impl Queued {
    fn wait(self) -> Result<Landed> {
        Ok(match self {
            Queued::Reduce(shell, pending) => Landed::Reduced(shell, pending.wait()?),
            Queued::Gather(pending) => {
                let (frames, wire) = pending.wait()?;
                Landed::Gathered(frames, wire)
            }
        })
    }
}

struct Inflight {
    bucket: usize,
    arm: usize,
    leg: Leg,
}

impl LaneRef<'_> {
    /// How many landed bucket rounds may wait before the schedule absorbs
    /// the oldest. One on the inline lane, whose rounds land at the
    /// round's drain or when a borrowed gradient flushes the batch, and
    /// are absorbed before the next bucket is encoded.
    fn window(&self) -> usize {
        match self {
            LaneRef::Inline(_) => 1,
            LaneRef::Comm(_, depth) => *depth,
        }
    }

    /// Hands `bucket`'s `contribution` to its collective, chosen by
    /// payload shape: a borrowed gradient and summable payloads ride the
    /// ring mean-all-reduce, everything else is serialized and
    /// all-gathered.
    ///
    /// On the inline lane a payload waits in `scratch.batch` for the
    /// round's one ring and one gather; a borrowed gradient first lands
    /// the batch, so collectives stay in bucket order, then runs its own
    /// ring out of place. On the comm lane every contribution is queued
    /// as its own collective, its wire buffer recycled through
    /// `scratch.wires`. Anything landed or queued joins `inflight`.
    fn submit(
        &self,
        bucket: usize,
        arm: usize,
        contribution: Contribution<'_>,
        scratch: &mut Scratch,
        inflight: &mut VecDeque<Inflight>,
    ) -> Result<()> {
        let leg = match (self, contribution) {
            (LaneRef::Inline(worker), Contribution::Gradient(src)) => {
                scratch.batch.land(worker, &mut scratch.timings, inflight)?;
                let timing = &mut scratch.timings[bucket];
                timing.add_ring(src.len());
                let mean = timed(&mut timing.comm_s, || worker.all_reduce_mean_from(src))?;
                Leg::Landed(Landed::Reduced(PayloadShell::Dense, mean))
            }
            (LaneRef::Inline(_), Contribution::Payload(payload)) => {
                scratch
                    .batch
                    .push(bucket, arm, payload, &mut scratch.timings[bucket]);
                return Ok(());
            }
            (LaneRef::Comm(comm, _), contribution) => {
                let timing = &mut scratch.timings[bucket];
                let payload = match contribution {
                    // The schedule borrows gradients only on the inline
                    // lane; a comm thread would need an owned copy.
                    Contribution::Gradient(src) => Payload::Dense(src.to_vec()),
                    Contribution::Payload(payload) => payload,
                };
                match PayloadShell::split(payload) {
                    Ok((shell, image)) => {
                        timing.add_ring(image.len());
                        Leg::Queued(Queued::Reduce(shell, comm.start_all_reduce_mean(image)?))
                    }
                    Err(payload) => {
                        let mut wire = scratch.wires.pop().unwrap_or_default();
                        wire.clear();
                        payload.write_bytes(&mut wire);
                        timing.add_gather(wire.len());
                        Leg::Queued(Queued::Gather(comm.start_all_gather(wire)?))
                    }
                }
            }
        };
        inflight.push_back(Inflight { bucket, arm, leg });
        Ok(())
    }

    /// Lands whatever the lane still holds at a round's drain: the inline
    /// lane's batch. The comm lane's collectives are already queued.
    fn land(&self, scratch: &mut Scratch, inflight: &mut VecDeque<Inflight>) -> Result<()> {
        match self {
            LaneRef::Inline(worker) => scratch.batch.land(worker, &mut scratch.timings, inflight),
            LaneRef::Comm(..) => Ok(()),
        }
    }
}

/// One bucket round waiting in a [`Batch`].
#[derive(Debug)]
struct Deferred {
    bucket: usize,
    arm: usize,
    /// `Some` for the next image of [`Batch::images`], `None` for the next
    /// payload of [`Batch::wire`].
    shell: Option<PayloadShell>,
    /// Bytes the bucket puts on its collective: its share of that
    /// collective's time.
    bytes: u64,
}

/// The inline lane's deferred bucket rounds, in bucket order, waiting for
/// one ring and one gather.
///
/// Summable payloads' images ride one [`WorkerHandle::all_reduce_mean_many`]
/// (each bit-identical to its own ring); every other payload is
/// serialized back to back into one wire buffer, all-gathered once and
/// parsed with [`Payload::from_bytes_many`]. Both add no byte to the
/// wire: the ring carries the same images, and serialized payloads
/// delimit themselves.
#[derive(Debug, Default)]
struct Batch {
    entries: Vec<Deferred>,
    images: Vec<Vec<f32>>,
    wire: Vec<u8>,
}

impl Batch {
    /// Defers `bucket`'s `payload`, counting its wire bytes and round.
    fn push(&mut self, bucket: usize, arm: usize, payload: Payload, timing: &mut BucketTiming) {
        let (shell, bytes) = match PayloadShell::split(payload) {
            // NCCL sums fp16 natively; a Half image is summed in f32 and
            // re-rounded by `assemble`, which matches Payload::add_assign
            // semantics up to rounding order.
            Ok((shell, image)) => {
                timing.add_ring(image.len());
                let bytes = 4 * image.len() as u64;
                self.images.push(image);
                (Some(shell), bytes)
            }
            // Non-associative aggregation: gather every member's payload
            // and reduce locally (identically on every member).
            Err(payload) => {
                let start = self.wire.len();
                payload.write_bytes(&mut self.wire);
                timing.add_gather(self.wire.len() - start);
                (None, (self.wire.len() - start) as u64)
            }
        };
        self.entries.push(Deferred {
            bucket,
            arm,
            shell,
            bytes,
        });
    }

    /// Runs the batch's ring (if it holds an image) and then its gather
    /// (if it holds a serialized payload), and moves every deferred round
    /// onto `inflight` in bucket order, landed. Each collective's wall time
    /// is split across its buckets in proportion to their bytes as
    /// `comm_s`; parsing the gathered frames is split the same way as
    /// `decode_s`.
    fn land(
        &mut self,
        worker: &WorkerHandle,
        timings: &mut [BucketTiming],
        inflight: &mut VecDeque<Inflight>,
    ) -> Result<()> {
        // (bytes, rounds) on the ring, or on the gather.
        let tally = |ring: bool| {
            self.entries
                .iter()
                .filter(|e| e.shell.is_some() == ring)
                .fold((0, 0), |(bytes, n), e| (bytes + e.bytes, n + 1))
        };
        let (ring_total, gather_total) = (tally(true), tally(false));
        let (mut ring_s, mut gather_s, mut parse_s) = (0.0, 0.0, 0.0);
        if ring_total.1 > 0 {
            timed(&mut ring_s, || {
                worker.all_reduce_mean_many(&mut self.images)
            })?;
        }
        let mut parsed = Vec::new();
        if gather_total.1 > 0 {
            let frames = timed(&mut gather_s, || worker.all_gather_bytes(&self.wire))?;
            self.wire.clear();
            parsed = timed(&mut parse_s, || parse_per_bucket(&frames, gather_total.1))?;
        }
        let mut images = self.images.drain(..);
        let mut parsed = parsed.into_iter();
        let lost = || CompressError::Protocol("a batched bucket round lost its payload".into());
        for Deferred {
            bucket,
            arm,
            shell,
            bytes,
        } in self.entries.drain(..)
        {
            let timing = &mut timings[bucket];
            let landed = match shell {
                Some(shell) => {
                    timing.comm_s += share(ring_s, bytes, ring_total);
                    Landed::Reduced(shell, images.next().ok_or_else(lost)?)
                }
                None => {
                    timing.comm_s += share(gather_s, bytes, gather_total);
                    timing.decode_s += share(parse_s, bytes, gather_total);
                    Landed::Parsed(parsed.next().ok_or_else(lost)?)
                }
            };
            inflight.push_back(Inflight {
                bucket,
                arm,
                leg: Leg::Landed(landed),
            });
        }
        Ok(())
    }
}

/// Parses `n` back-to-back payloads out of every member's frame, and
/// regroups them from one list per member into one per bucket round, each
/// in member order.
fn parse_per_bucket(frames: &[Frame], n: usize) -> Result<Vec<Vec<Payload>>> {
    let mut per_bucket: Vec<Vec<Payload>> =
        (0..n).map(|_| Vec::with_capacity(frames.len())).collect();
    for frame in frames {
        for (round, payload) in per_bucket
            .iter_mut()
            .zip(Payload::from_bytes_many(frame, n)?)
        {
            round.push(payload);
        }
    }
    Ok(per_bucket)
}

/// The part of `secs`, spent in one collective for `(total_bytes, count)`
/// bucket rounds, that belongs to a round of `bytes` bytes: in proportion
/// to the bytes, or evenly when the collective carried none.
fn share(secs: f64, bytes: u64, (total_bytes, count): (u64, usize)) -> f64 {
    if total_bytes == 0 {
        secs / count as f64
    } else {
        secs * bytes as f64 / total_bytes as f64
    }
}

/// What the schedule keeps between exchanges: recycled gather-path wire
/// buffers of the comm lane (up to a window's worth circulate), the
/// inline lane's batch, and the per-bucket timings of the most recent
/// exchange.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    wires: Vec<Vec<u8>>,
    batch: Batch,
    pub(crate) timings: Vec<BucketTiming>,
}

/// Runs `f`, adding its wall-clock seconds to `slot`.
fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    // An f64 timer, not a gradient reduction.
    *slot += t0.elapsed().as_secs_f64(); // lint: allow(raw-f32-accumulation)
    out
}

/// The one bucket schedule. Round-major over `buckets` with a drain
/// barrier between rounds; bucket `b` runs on `compressors[arm_of(b)]`
/// for that compressor's rounds only, and `first(compressor, b, direct)`
/// produces its round-0 contribution. `direct` says whether that may be a
/// borrowed [`Contribution::Gradient`]: the compressor's payload is the
/// gradient and the lane reads the caller's memory. Leaves one
/// [`BucketTiming`] per bucket in `scratch`; finishing the buckets is the
/// caller's.
fn run_rounds<'g, C: Compressor>(
    lane: &LaneRef<'_>,
    compressors: &mut [C],
    arm_of: &dyn Fn(usize) -> usize,
    buckets: usize,
    scratch: &mut Scratch,
    mut first: impl FnMut(&mut C, usize, bool) -> Result<Contribution<'g>>,
) -> Result<()> {
    let rounds: Vec<usize> = compressors.iter().map(|c| c.properties().rounds).collect();
    // Only a collective on the caller's thread may read the caller's
    // gradients in place; the comm thread needs owned buffers.
    let direct: Vec<bool> = compressors
        .iter()
        .map(|c| matches!(lane, LaneRef::Inline(_)) && c.payload_is_gradient())
        .collect();
    scratch.timings.clear();
    scratch
        .timings
        .extend((0..buckets).map(|bucket| BucketTiming {
            bucket,
            ..BucketTiming::default()
        }));
    let mut inflight = VecDeque::with_capacity(lane.window());
    for round in 0..rounds.iter().copied().max().unwrap_or(0) {
        for bucket in 0..buckets {
            let arm = arm_of(bucket);
            if round >= rounds[arm] {
                continue;
            }
            // Backpressure: never run more than the window ahead of the
            // oldest unabsorbed collective.
            while inflight.len() >= lane.window() {
                complete_front(compressors, round, &mut inflight, scratch)?;
            }
            let compressor = &mut compressors[arm];
            let contribution = timed(&mut scratch.timings[bucket].encode_s, || {
                if round == 0 {
                    first(compressor, bucket, direct[arm])
                } else {
                    Ok(Contribution::Payload(
                        compressor.encode_round(bucket, round)?,
                    ))
                }
            })?;
            lane.submit(bucket, arm, contribution, scratch, &mut inflight)?;
        }
        // Rounds are a barrier: encode_round(b, r+1) may require the
        // absorb of round r for bucket b, so drain before moving on.
        lane.land(scratch, &mut inflight)?;
        while !inflight.is_empty() {
            complete_front(compressors, round, &mut inflight, scratch)?;
        }
    }
    Ok(())
}

/// Lands the oldest in-flight bucket round and absorbs it — the in-order
/// absorb invariant (the comm thread finishes jobs FIFO, so the front is
/// also the first to land). Blocked wait on the comm lane is `comm_s` and
/// `exposed_wait_s`; reassembly or deserialization and `aggregate`, and
/// `absorb`, are `decode_s`.
fn complete_front<C: Compressor>(
    compressors: &mut [C],
    round: usize,
    inflight: &mut VecDeque<Inflight>,
    scratch: &mut Scratch,
) -> Result<()> {
    let Some(Inflight { bucket, arm, leg }) = inflight.pop_front() else {
        return Ok(());
    };
    let timing = &mut scratch.timings[bucket];
    let landed = match leg {
        Leg::Landed(landed) => landed,
        Leg::Queued(queued) => {
            let mut waited = 0.0;
            let landed = timed(&mut waited, || queued.wait())?;
            timing.comm_s += waited;
            timing.exposed_wait_s += waited;
            landed
        }
    };
    let compressor = &mut compressors[arm];
    timed(&mut timing.decode_s, || {
        let agg = match landed {
            Landed::Reduced(shell, image) => shell.assemble(image),
            Landed::Gathered(frames, wire) => {
                scratch.wires.push(wire);
                let payloads: Vec<Payload> = frames
                    .iter()
                    .map(|b| Payload::from_bytes(b))
                    .collect::<gcs_compress::Result<_>>()?;
                compressor.aggregate(round, &payloads)?
            }
            Landed::Parsed(payloads) => compressor.aggregate(round, &payloads)?,
        };
        Ok(compressor.absorb(bucket, round, agg)?)
    })
}

/// The per-layer exchange: one schedule bucket per layer, in layer order,
/// each encoded in its own shape from the borrowed gradient, then
/// `finish`ed into the decoded aggregated gradients in layer order. Every
/// layer's payload of a round rides that round's one ring or one gather.
/// Under a compressor whose payload is the gradient (syncSGD) each layer
/// is all-reduced straight from `grads`, without a copy.
pub(crate) fn exchange_layers<C: Compressor>(
    lane: &LaneRef<'_>,
    compressor: &mut C,
    grads: &[Tensor],
    scratch: &mut Scratch,
) -> Result<Vec<Tensor>> {
    run_rounds(
        lane,
        std::slice::from_mut(compressor),
        &|_| 0,
        grads.len(),
        scratch,
        |c, layer, direct| {
            Ok(if direct {
                Contribution::Gradient(grads[layer].data())
            } else {
                Contribution::Payload(c.encode(layer, &grads[layer])?)
            })
        },
    )?;
    grads
        .iter()
        .enumerate()
        .map(|(layer, grad)| Ok(compressor.finish(layer, grad.shape())?))
        .collect()
}

/// The per-layer exchange of `grads` on the calling thread.
#[deprecated(note = "use an `Exchanger` built with `ExchangeConfig::per_layer`")]
pub fn exchange_gradients<C: Compressor>(
    worker: &WorkerHandle,
    compressor: &mut C,
    grads: &[Tensor],
) -> Result<Vec<Tensor>> {
    exchange_layers(
        &LaneRef::Inline(worker),
        compressor,
        grads,
        &mut Scratch::default(),
    )
}

/// The bucket partition of a gradient set plus the flat pack buffer the
/// bucketed exchange reuses.
///
/// DDP computes its bucket assignment once at model construction and
/// reuses it every iteration; recomputing the partition per step is pure
/// rework. An [`Exchanger`](crate::Exchanger) with a bucket plan builds
/// one at its first exchange and keeps it while the gradient layout
/// stays the same.
///
/// A packed bucket is *moved* into the compressor
/// ([`Compressor::encode_owned`]). Under syncSGD
/// ([`Compressor::payload_is_gradient`]) a single-layer bucket is not
/// packed at all on the calling thread: the ring mean reads the layer's
/// gradient where it lies and writes a fresh output once, which comes
/// back from `finish` as the decoded flat — so the step copies none of its
/// bytes. A multi-layer bucket (and every bucket on the comm lane, whose
/// thread needs an owned buffer) is packed, and for
/// syncSGD that buffer is the payload and rides the all-reduce in place.
/// [`BucketPlan::scatter`] closes the circle: a single-layer bucket's flat
/// becomes that layer's output tensor; a multi-layer bucket's flat, once
/// its layers are copied out, becomes the next pack buffer.
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

    pub(crate) fn build(grads: &[Tensor], bucket_bytes: usize, matricize: bool) -> Self {
        let layer_elems: Vec<usize> = grads.iter().map(Tensor::numel).collect();
        let layer_bytes: Vec<usize> = layer_elems.iter().map(|n| n * 4).collect();
        let (buckets, elems): (Vec<Vec<usize>>, Vec<usize>) =
            partition_bytes(&layer_bytes, bucket_bytes)
                .into_iter()
                .map(|b| (b.layers, b.bytes / 4))
                .unzip();
        let shapes = elems
            .iter()
            .map(|&n| match matricize.then(|| largest_divisor_le_sqrt(n)) {
                Some(d) if d > 1 => gcs_tensor::Shape::new(vec![d, n / d]),
                _ => gcs_tensor::Shape::new(vec![n]),
            })
            .collect();
        BucketPlan {
            buckets,
            elems,
            shapes,
            layer_elems,
            pack: Vec::new(),
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

    /// [`BucketPlan::matches`] as a typed error.
    fn check_layout(&self, grads: &[Tensor]) -> Result<()> {
        if self.matches(grads) {
            return Ok(());
        }
        Err(ExecError::Compress(gcs_compress::CompressError::Protocol(
            format!(
                "bucket plan built for {} layers of {:?} elements, given {} layers of {:?}",
                self.layer_elems.len(),
                self.layer_elems,
                grads.len(),
                grads.iter().map(Tensor::numel).collect::<Vec<_>>()
            ),
        )))
    }

    /// Packs `bucket`'s layers into one flat tensor, in the plan's pack
    /// buffer when it holds one. The engines move the tensor on into
    /// [`Compressor::encode_owned`]; a caller that only borrows it can hand
    /// it back with [`BucketPlan::reclaim`].
    ///
    /// # Errors
    ///
    /// Returns a protocol error if the plan was built for a different
    /// gradient layout ([`BucketPlan::matches`] is false).
    pub fn pack(&mut self, grads: &[Tensor], bucket: usize) -> Result<Tensor> {
        self.check_layout(grads)?;
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
}

/// The bucketed exchange of `grads` over `plan` on the calling thread.
#[deprecated(note = "use an `Exchanger` built with `Plan::Buckets`")]
pub fn exchange_gradients_with_plan<C: Compressor>(
    worker: &WorkerHandle,
    compressor: &mut C,
    grads: &[Tensor],
    plan: &mut BucketPlan,
) -> Result<Vec<Tensor>> {
    exchange_plan(
        &LaneRef::Inline(worker),
        std::slice::from_mut(compressor),
        &|_| 0,
        grads,
        plan,
        &mut Scratch::default(),
    )
}

/// The exchange at **bucket granularity**, the way PyTorch DDP comm hooks
/// see gradients: the schedule over `plan`'s buckets, each packed bucket
/// moved into its compressor (or a single layer's gradient borrowed where
/// the schedule allows it), then `finish` and scatter. Bucketing amortizes
/// per-collective latency, sidesteps the per-layer encode overhead of
/// §4.2, and is the only way to run non-layer-wise methods (Table 1's
/// Random-K) inside DDP. A plan built for another layout is a protocol
/// error before any collective runs.
pub(crate) fn exchange_plan<C: Compressor>(
    lane: &LaneRef<'_>,
    compressors: &mut [C],
    arm_of: &dyn Fn(usize) -> usize,
    grads: &[Tensor],
    plan: &mut BucketPlan,
    scratch: &mut Scratch,
) -> Result<Vec<Tensor>> {
    // Before any collective: a single-layer bucket is not packed, so
    // `pack`'s own check may come too late.
    plan.check_layout(grads)?;
    run_rounds(
        lane,
        compressors,
        arm_of,
        plan.num_buckets(),
        scratch,
        |c, bucket, direct| {
            Ok(match plan.layers(bucket) {
                &[layer] if direct => Contribution::Gradient(grads[layer].data()),
                _ => Contribution::Payload(c.encode_owned(bucket, plan.pack(grads, bucket)?)?),
            })
        },
    )?;
    let flats = scratch
        .timings
        .iter_mut()
        .map(|timing| {
            let b = timing.bucket;
            let compressor = &mut compressors[arm_of(b)];
            Ok(timed(&mut timing.decode_s, || {
                compressor.finish(b, plan.bucket_shape(b))
            })?)
        })
        .collect::<Result<Vec<Tensor>>>()?;
    plan.scatter(grads, flats)
}

/// Per-bucket wall-clock breakdown of one exchange, from monotonic timers
/// — the raw signal the adaptive controller's measured mode consumes. One
/// rule on both lanes of the schedule: `encode_s` ends where the payload
/// is handed to the collective, `comm_s` is the collective, and
/// `decode_s` is everything after it. A collective the inline lane fuses
/// across buckets, and the parse of its gathered frames, are split across
/// those buckets in proportion to the bytes each put on it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BucketTiming {
    /// Bucket index.
    pub bucket: usize,
    /// Seconds spent encoding (all rounds, including packing).
    pub encode_s: f64,
    /// Seconds spent in the cluster collective (all rounds): the call on
    /// the inline lane (this bucket's byte share of a fused call), the
    /// blocked wait on the comm lane. The ring mean's divide happens inside
    /// the collective, so it is counted here.
    pub comm_s: f64,
    /// Seconds spent turning collective results into the absorbed payload
    /// (reassembling a ring mean, deserialization and `aggregate`), in
    /// `absorb`, and in `finish`.
    pub decode_s: f64,
    /// Seconds the caller was *blocked* on a queued collective with no
    /// local work to overlap it (comm lane only; 0 on the inline lane,
    /// where all wire time is `comm_s`).
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

impl BucketTiming {
    /// Counts a ring round over `elems` f32s.
    fn add_ring(&mut self, elems: usize) {
        self.ring_bytes += 4 * elems as u64;
        self.ring_rounds += 1;
    }

    /// Counts a gather round of a `bytes`-long serialized payload.
    fn add_gather(&mut self, bytes: usize) {
        self.gather_bytes += bytes as u64;
        self.gather_rounds += 1;
    }
}

/// Bytes a summable payload occupies on the ring — the length of the f32
/// image the schedule's all-reduce actually reduces (Half payloads are
/// decoded to f32 *before* the ring, so FP16 pays full f32 wire bytes
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExchangeConfig, Exchanger, Lane, Plan};
    use gcs_compress::driver::all_reduce_compressed;
    use gcs_compress::registry::MethodConfig;
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

    /// `method` over flat buckets of at most `cap` bytes, inline.
    fn bucketed(method: MethodConfig, cap: usize) -> ExchangeConfig {
        ExchangeConfig {
            plan: Plan::Buckets {
                bytes: cap,
                matricize: false,
            },
            lane: Lane::Inline,
            arms: crate::Arms::One(method),
        }
    }

    /// One exchange of `cfg` on every rank of a `SimCluster`, where rank
    /// `w` contributes `grads[w]`.
    fn exchange_everywhere(cfg: &ExchangeConfig, grads: &[Vec<Tensor>]) -> Vec<Vec<Tensor>> {
        gcs_cluster::SimCluster::run(grads.len(), |worker| {
            let rank = worker.rank();
            let mut exchanger = Exchanger::new(worker, cfg.clone()).unwrap();
            exchanger.exchange(&grads[rank]).unwrap()
        })
    }

    /// The per-layer exchange of `method` on every rank.
    fn per_layer(method: &MethodConfig, grads: &[Vec<Tensor>]) -> Vec<Vec<Tensor>> {
        exchange_everywhere(&ExchangeConfig::per_layer(method.clone()), grads)
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
        let distributed = per_layer(&method, &grads);

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
        let outs = per_layer(&MethodConfig::SyncSgd, &grads);
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
            let outs = per_layer(&method, &grads);
            for w in 1..4 {
                assert_eq!(outs[0], outs[w], "{method:?} diverged across workers");
            }
        }
    }

    #[test]
    fn bucketed_exchange_matches_exact_mean_for_syncsgd() {
        let grads = make_grads(3, &[vec![6usize, 4], vec![9], vec![5, 5]], 31);
        let outs = exchange_everywhere(&bucketed(MethodConfig::SyncSgd, 64), &grads);
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
            let outs = exchange_everywhere(&bucketed(method.clone(), 48), &grads);
            assert_eq!(outs[0], outs[1], "{method:?} diverged");
            for (out, g) in outs[0].iter().zip(&grads[0]) {
                assert_eq!(out.shape(), g.shape());
                assert!(out.data().iter().all(|x| x.is_finite()));
            }
        }
    }

    #[test]
    fn bucket_exchange_keeps_per_bucket_timings() {
        let grads = make_grads(2, &[vec![64usize], vec![6, 5], vec![40]], 43);
        let outs = gcs_cluster::SimCluster::run(2, |worker| {
            let grads = &grads[worker.rank()];
            let mut ring = Exchanger::new(worker, bucketed(MethodConfig::SyncSgd, 256)).unwrap();
            assert!(ring.last_timings().is_empty());
            ring.exchange(grads).unwrap();
            ring.exchange(grads).unwrap();
            let ring_timings = ring.last_timings().to_vec();
            let (worker, _) = ring.into_parts();
            let mut gather = Exchanger::new(worker, bucketed(MethodConfig::SignSgd, 256)).unwrap();
            gather.exchange(grads).unwrap();
            (ring_timings, gather.last_timings().to_vec())
        });
        for (ring, gather) in outs {
            assert_eq!((ring.len(), gather.len()), (3, 3));
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

    /// The bucketed exchange over a given `plan` on the inline lane: the
    /// only way to hand the schedule a plan built for another layout (an
    /// `Exchanger` rebuilds its plan when the layout changes).
    fn inline_plan_exchange(
        worker: &WorkerHandle,
        c: &mut Box<dyn Compressor>,
        grads: &[Tensor],
        plan: &mut BucketPlan,
    ) -> Result<Vec<Tensor>> {
        let lane = LaneRef::Inline(worker);
        let mut scratch = Scratch::default();
        exchange_plan(
            &lane,
            std::slice::from_mut(c),
            &|_| 0,
            grads,
            plan,
            &mut scratch,
        )
    }

    #[test]
    fn plan_for_another_layout_is_a_typed_error() {
        // Built for three layers, given two: no panic and no garbage
        // bucket, in debug and release builds alike.
        let layout = vec![
            Tensor::randn([6usize], 1),
            Tensor::randn([4usize], 2),
            Tensor::randn([3usize], 3),
        ];
        fn protocol<T>(r: &Result<T>) -> bool {
            matches!(
                r,
                Err(ExecError::Compress(gcs_compress::CompressError::Protocol(
                    _
                )))
            )
        }
        let outs = gcs_cluster::SimCluster::run(1, |worker| {
            let mut plan = BucketPlan::new(&layout, 16);
            let mut c = MethodConfig::SyncSgd.build().unwrap();
            protocol(&inline_plan_exchange(
                &worker,
                &mut c,
                &layout[..2],
                &mut plan,
            ))
        });
        assert_eq!(outs, vec![true]);
        let mut plan = BucketPlan::new(&layout, 16);
        for bucket in 0..plan.num_buckets() {
            assert!(
                protocol(&plan.pack(&layout[..2], bucket)),
                "bucket {bucket}"
            );
        }
        // The layout it was built for still packs.
        assert!(plan.pack(&layout, 0).is_ok());
    }

    #[test]
    fn layout_mismatch_behind_a_single_layer_bucket_sends_no_frame() {
        // A 200-byte cap puts layer 2 (256 B) alone in bucket 0, which
        // syncSGD all-reduces straight from the gradient without packing;
        // the mismatch is in layer 1 of bucket 1. The plan must refuse the
        // layout before bucket 0 reaches the wire.
        let layout = [
            Tensor::randn([3usize], 1),
            Tensor::randn([4usize], 2),
            Tensor::randn([64usize], 3),
        ];
        let mismatched = [
            Tensor::randn([3usize], 1),
            Tensor::randn([5usize], 2),
            Tensor::randn([64usize], 3),
        ];
        let cluster = gcs_cluster::SimCluster::new(2);
        let traffic = cluster.traffic().to_vec();
        let outs = cluster.run_workers(|worker| {
            let mut plan = BucketPlan::new(&layout, 200);
            assert_eq!(plan.layers(0), &[2]);
            let mut c = MethodConfig::SyncSgd.build().unwrap();
            inline_plan_exchange(&worker, &mut c, &mismatched, &mut plan)
        });
        for out in outs {
            assert!(
                matches!(
                    out,
                    Err(ExecError::Compress(gcs_compress::CompressError::Protocol(
                        _
                    )))
                ),
                "{out:?}"
            );
        }
        assert!(traffic.iter().all(|t| t.messages_sent() == 0));
    }

    #[test]
    fn inline_lane_issues_one_collective_per_round() {
        // Four layers at p = 3. A gathered method sends one all-gather
        // (m − 1 frames) per round and a summable one ring (2(m − 1)
        // frames) per round, however many layers ride them; syncSGD's
        // gradients are all-reduced where they lie, one ring per layer.
        let layers = [vec![6usize, 10], vec![33], vec![4, 4, 3, 3], vec![2]];
        for (method, frames) in [
            (MethodConfig::SignSgd, 2),
            (MethodConfig::TopK { ratio: 0.2 }, 2),
            (MethodConfig::PowerSgd { rank: 2 }, 2 * 4),
            (MethodConfig::SyncSgd, 4 * 4),
        ] {
            let grads = make_grads(3, &layers, 5);
            let cluster = gcs_cluster::SimCluster::new(3);
            let traffic = cluster.traffic().to_vec();
            cluster.run_workers(|worker| {
                let rank = worker.rank();
                let cfg = ExchangeConfig::per_layer(method.clone());
                Exchanger::new(worker, cfg)
                    .unwrap()
                    .exchange(&grads[rank])
                    .unwrap()
            });
            for t in &traffic {
                assert_eq!(t.messages_sent(), frames, "{method:?}");
            }
        }
    }

    #[test]
    fn giant_bucket_equals_whole_model_flat() {
        // With an unbounded bucket, bucketed syncSGD equals the per-layer
        // engine's result exactly.
        let grads = make_grads(2, &[vec![3usize, 3], vec![5]], 41);
        let whole = exchange_everywhere(&bucketed(MethodConfig::SyncSgd, usize::MAX), &grads);
        let layered = per_layer(&MethodConfig::SyncSgd, &grads);
        for (a, b) in whole[0].iter().zip(&layered[0]) {
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
            let rank = worker.rank();
            let cfg = ExchangeConfig::per_layer(MethodConfig::SyncSgd);
            Some(
                Exchanger::new(worker, cfg)
                    .unwrap()
                    .exchange(&grads[rank])
                    .unwrap(),
            )
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
            let rank = worker.rank();
            let cfg = ExchangeConfig::per_layer(MethodConfig::SignSgd);
            Some(
                Exchanger::new(worker, cfg)
                    .unwrap()
                    .exchange(&grads[rank])
                    .unwrap(),
            )
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
            let rank = worker.rank();
            let cfg = ExchangeConfig::per_layer(MethodConfig::PowerSgd { rank: 2 });
            let mut exchanger = Exchanger::new(worker, cfg).unwrap();
            let a = exchanger.exchange(&g1[rank]).unwrap();
            let b = exchanger.exchange(&g2[rank]).unwrap();
            (a, b)
        });
        for w in 1..p {
            assert_eq!(outs[0], outs[w]);
        }
    }
}
