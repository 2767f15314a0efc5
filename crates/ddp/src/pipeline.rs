//! Deprecated: the pipelined engine's old names, kept only as wrappers
//! over an [`Exchanger`] on [`Lane::Comm`] for callers outside this
//! workspace that still spell them.

#![allow(deprecated)]

use gcs_cluster::WorkerHandle;
use gcs_compress::Compressor;
use gcs_tensor::Tensor;

use crate::exchanger::{Exchanger, Lane, Plan};
use crate::exec::{BucketTiming, Result};

/// [`Plan::Buckets`] plus [`Lane::Comm`]'s depth.
#[deprecated(note = "use `ExchangeConfig` with `Plan::Buckets` and `Lane::Comm`")]
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// [`Plan::Buckets`]'s `bytes`.
    pub bucket_bytes: usize,
    /// [`Lane::Comm`]'s `depth`.
    pub depth: usize,
    /// [`Plan::Buckets`]'s `matricize`.
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

/// An [`Exchanger`] with one compressor on the comm lane.
#[deprecated(note = "use `Exchanger` with `Lane::Comm`")]
pub struct PipelinedEngine<C: Compressor>(Exchanger<C>);

impl<C: Compressor> PipelinedEngine<C> {
    /// [`Exchanger::with_compressor`] on `cfg`'s plan and comm lane.
    pub fn new(worker: WorkerHandle, compressor: C, cfg: PipelineConfig) -> Result<Self> {
        let plan = Plan::Buckets {
            bytes: cfg.bucket_bytes,
            matricize: cfg.matricize,
        };
        let lane = Lane::Comm { depth: cfg.depth };
        Exchanger::with_compressor(worker, plan, lane, compressor).map(PipelinedEngine)
    }

    /// [`Exchanger::comm_busy_seconds`].
    pub fn comm_busy_seconds(&self) -> f64 {
        self.0.comm_busy_seconds()
    }

    /// [`Exchanger::last_timings`].
    pub fn last_timings(&self) -> &[BucketTiming] {
        self.0.last_timings()
    }

    /// [`Exchanger::into_parts`], with the one compressor.
    pub fn into_parts(self) -> (WorkerHandle, C) {
        let (worker, mut compressors) = self.0.into_parts();
        (worker, compressors.swap_remove(0))
    }

    /// [`Exchanger::exchange`].
    pub fn exchange(&mut self, grads: &[Tensor]) -> Result<Vec<Tensor>> {
        self.0.exchange(grads)
    }
}
