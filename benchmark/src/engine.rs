//! One gradient exchange, two ways: through the library's entry point
//! (what the end-to-end metrics time) and as the same sequence of public
//! calls with a span around each (what the per-layer metrics time). The
//! two must produce the same bits; the trace run checks that they do.

use gcs_cluster::WorkerHandle;
use gcs_compress::{CompressError, Compressor, Payload};
use gcs_ddp::exec::{exchange_gradients, exchange_gradients_with_plan, BucketPlan, ExecError};
use gcs_ddp::{summable_wire_bytes, PipelineConfig, PipelinedEngine};
use gcs_tensor::Tensor;

use crate::trace::{Collective, PipelineProbe, Recorder};
use crate::workload::{Exchange, Workload};

type Result<T> = std::result::Result<T, ExecError>;
type BoxedCompressor = Box<dyn Compressor>;

pub enum Engine {
    PerLayer {
        worker: WorkerHandle,
        compressor: BoxedCompressor,
    },
    Plan {
        worker: WorkerHandle,
        compressor: BoxedCompressor,
        plan: BucketPlan,
        /// Serialization buffer of the traced gather path; the library
        /// keeps its own inside the plan, out of reach.
        wire: Vec<u8>,
    },
    // Boxed: an order of magnitude larger than the other variants.
    Pipelined(Box<PipelinedEngine<BoxedCompressor>>),
}

impl Engine {
    /// Builds the workload's engine; `layout` is any tensor list shaped
    /// like the gradients (the parameters are).
    pub fn new(workload: &Workload, worker: WorkerHandle, layout: &[Tensor]) -> Result<Self> {
        let compressor = workload.method.build()?;
        Ok(match workload.exchange {
            Exchange::PerLayer => Engine::PerLayer { worker, compressor },
            Exchange::Plan { bucket_bytes } => Engine::Plan {
                worker,
                compressor,
                plan: BucketPlan::new(layout, bucket_bytes),
                wire: Vec::new(),
            },
            Exchange::Pipelined {
                depth,
                bucket_bytes,
            } => Engine::Pipelined(Box::new(PipelinedEngine::new(
                worker,
                compressor,
                PipelineConfig {
                    bucket_bytes,
                    depth,
                    ..PipelineConfig::default()
                },
            )?)),
        })
    }

    /// Buckets the exchange iterates over; 0 where no plan exists.
    pub fn buckets(&self) -> usize {
        match self {
            Engine::PerLayer { .. } => 0,
            Engine::Plan { plan, .. } => plan.num_buckets(),
            Engine::Pipelined(engine) => engine.last_timings().len(),
        }
    }

    /// The library's own exchange.
    pub fn exchange(&mut self, grads: &[Tensor]) -> Result<Vec<Tensor>> {
        match self {
            Engine::PerLayer { worker, compressor } => {
                exchange_gradients(worker, compressor, grads)
            }
            Engine::Plan {
                worker,
                compressor,
                plan,
                ..
            } => exchange_gradients_with_plan(worker, compressor, grads, plan),
            Engine::Pipelined(engine) => engine.exchange(grads),
        }
    }

    /// The same exchange as its public pieces, each inside a span.
    pub fn exchange_traced(&mut self, grads: &[Tensor], rec: &mut Recorder) -> Result<Vec<Tensor>> {
        rec.scope("ddp.exchange", |rec| match self {
            Engine::PerLayer { worker, compressor } => {
                per_layer_traced(worker, compressor, grads, rec)
            }
            Engine::Plan {
                worker,
                compressor,
                plan,
                wire,
            } => with_plan_traced(worker, compressor, grads, plan, wire, rec),
            Engine::Pipelined(engine) => pipelined_probed(engine, grads, rec),
        })
    }

    /// Stops any comm thread and returns the worker handle, whose traffic
    /// counters are unreachable while a pipelined engine owns it.
    pub fn into_worker(self) -> WorkerHandle {
        match self {
            Engine::PerLayer { worker, .. } | Engine::Plan { worker, .. } => worker,
            Engine::Pipelined(engine) => engine.into_parts().0,
        }
    }
}

/// Mirrors `gcs_ddp::exec::exchange_gradients`.
fn per_layer_traced(
    worker: &WorkerHandle,
    compressor: &mut BoxedCompressor,
    grads: &[Tensor],
    rec: &mut Recorder,
) -> Result<Vec<Tensor>> {
    let rounds = compressor.properties().rounds;
    let mut wire = Vec::new();
    for round in 0..rounds {
        for (layer, grad) in grads.iter().enumerate() {
            let payload = rec.leaf("compress.encode", || {
                if round == 0 {
                    compressor.encode(layer, grad)
                } else {
                    compressor.encode_round(layer, round)
                }
            })?;
            let agg = aggregate_traced(worker, compressor, round, payload, &mut wire, rec)?;
            rec.leaf("compress.absorb", || compressor.absorb(layer, round, agg))?;
        }
    }
    grads
        .iter()
        .enumerate()
        .map(|(layer, grad)| {
            Ok(rec.leaf("compress.finish", || compressor.finish(layer, grad.shape()))?)
        })
        .collect()
}

/// Mirrors `gcs_ddp::exec::exchange_gradients_with_plan`.
fn with_plan_traced(
    worker: &WorkerHandle,
    compressor: &mut BoxedCompressor,
    grads: &[Tensor],
    plan: &mut BucketPlan,
    wire: &mut Vec<u8>,
    rec: &mut Recorder,
) -> Result<Vec<Tensor>> {
    let rounds = compressor.properties().rounds;
    for round in 0..rounds {
        for bucket in 0..plan.num_buckets() {
            let payload = if round == 0 {
                let flat = rec.leaf("ddp.pack", || plan.pack(grads, bucket))?;
                let payload = rec.leaf("compress.encode", || compressor.encode(bucket, &flat));
                plan.reclaim(flat);
                payload?
            } else {
                rec.leaf("compress.encode", || compressor.encode_round(bucket, round))?
            };
            let agg = aggregate_traced(worker, compressor, round, payload, wire, rec)?;
            rec.leaf("compress.absorb", || compressor.absorb(bucket, round, agg))?;
        }
    }
    let flats = (0..plan.num_buckets())
        .map(|bucket| {
            Ok(rec.leaf("compress.finish", || {
                compressor.finish(bucket, plan.bucket_shape(bucket))
            })?)
        })
        .collect::<Result<Vec<Tensor>>>()?;
    rec.leaf("ddp.scatter", || plan.scatter(grads, flats))
}

/// Mirrors `gcs_ddp::exec::aggregate_over_cluster_with`, for the payload
/// kinds the four workloads produce.
fn aggregate_traced(
    worker: &WorkerHandle,
    compressor: &BoxedCompressor,
    round: usize,
    payload: Payload,
    wire: &mut Vec<u8>,
    rec: &mut Recorder,
) -> Result<Payload> {
    if payload.is_summable() {
        let bytes = usize::try_from(summable_wire_bytes(&payload)).unwrap_or(usize::MAX);
        rec.collectives.push(Collective::AllReduce(bytes));
        let denom = worker.world() as f32;
        let mean = |v: &mut Vec<f32>, rec: &mut Recorder| -> Result<()> {
            rec.leaf("cluster.all_reduce", || worker.all_reduce_sum(v))?;
            rec.leaf("ddp.mean_scale", || v.iter_mut().for_each(|x| *x /= denom));
            Ok(())
        };
        match payload {
            Payload::Dense(mut v) => {
                mean(&mut v, rec)?;
                Ok(Payload::Dense(v))
            }
            Payload::Factor {
                which,
                rows,
                cols,
                mut data,
            } => {
                mean(&mut data, rec)?;
                Ok(Payload::Factor {
                    which,
                    rows,
                    cols,
                    data,
                })
            }
            other => Err(CompressError::Protocol(format!(
                "no benchmark workload sends summable {} payloads",
                other.kind_name()
            ))
            .into()),
        }
    } else {
        wire.clear();
        rec.leaf("compress.write_bytes", || payload.write_bytes(wire));
        rec.collectives.push(Collective::AllGather(wire.len()));
        let gathered = rec.leaf("cluster.all_gather", || worker.all_gather_bytes(wire))?;
        let payloads = rec.leaf("compress.from_bytes", || {
            gathered
                .iter()
                .map(|frame| Payload::from_bytes(frame))
                .collect::<gcs_compress::Result<Vec<Payload>>>()
        })?;
        Ok(rec.leaf("compress.aggregate", || {
            compressor.aggregate(round, &payloads)
        })?)
    }
}

/// The pipelined engine runs its schedule on a comm thread, so from
/// outside there is one call to time; the rest comes from its probes.
fn pipelined_probed(
    engine: &mut PipelinedEngine<BoxedCompressor>,
    grads: &[Tensor],
    rec: &mut Recorder,
) -> Result<Vec<Tensor>> {
    let busy_before = engine.comm_busy_seconds();
    let out = engine.exchange(grads)?;
    let mut probe = PipelineProbe {
        comm_busy_ms: (engine.comm_busy_seconds() - busy_before) * 1e3,
        ..PipelineProbe::default()
    };
    for t in engine.last_timings() {
        probe.encode_ms += t.encode_s * 1e3;
        probe.decode_ms += t.decode_s * 1e3;
        probe.exposed_wait_ms += t.exposed_wait_s * 1e3;
        let per_round = |bytes: u64, rounds: u32| {
            usize::try_from(bytes / u64::from(rounds.max(1))).unwrap_or(usize::MAX)
        };
        for _ in 0..t.ring_rounds {
            rec.collectives.push(Collective::AllReduce(per_round(
                t.ring_bytes,
                t.ring_rounds,
            )));
        }
        for _ in 0..t.gather_rounds {
            rec.collectives.push(Collective::AllGather(per_round(
                t.gather_bytes,
                t.gather_rounds,
            )));
        }
    }
    rec.probes.push(probe);
    Ok(out)
}
