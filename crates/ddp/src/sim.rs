//! Discrete-event timing simulator for one distributed training iteration.
//!
//! Reproduces the mechanics the paper's performance model abstracts
//! (§4.1–4.2):
//!
//! * **syncSGD**: gradients become ready in reverse layer order during the
//!   backward pass; 25 MB buckets launch ring all-reduces on a dedicated
//!   communication stream as they fill, overlapping communication with the
//!   remaining backward work. The backward pass runs γ× slower while
//!   overlapped. The iteration ends when the last bucket's all-reduce
//!   completes.
//! * **compressed methods**: compression runs *after* the backward pass
//!   (the paper's §3.1 finding — overlapping it with backward causes
//!   compute contention and is slower; set
//!   [`SimConfig::overlap_compression`] to simulate the losing variant),
//!   then communication proceeds per the method's [`WirePlan`]: ring
//!   all-reduce rounds for associative schemes, all-gather otherwise.
//!
//! [`SimConfig::sync_plan`] picks between the two and derives their
//! compute terms; [`SimConfig::comm_time`] prices every collective. The
//! iteration's two-stream schedule is laid out once, and
//! [`simulate_iteration`] folds the same events that
//! [`crate::trace::trace_iteration`] returns, so the breakdown and the
//! Figure-2 timeline cannot drift apart.
//!
//! The simulator is deterministic: Figure 8 compares the §4 closed form
//! with its event schedule, not with a measured run.

use crate::trace::{schedule, Stream};
use crate::wire::{wire_plan, Collective, WirePlan};
use gcs_cluster::cost::NetworkModel;
use gcs_compress::registry::MethodConfig;
use gcs_models::buckets::DEFAULT_BUCKET_BYTES;
use gcs_models::encode_cost::encode_cost;
use gcs_models::{DeviceSpec, ModelSpec};

/// All-reduce algorithm selection (the paper forces ring via
/// `NCCL_TREE_THRESHOLD=0`; tree is provided for the ablation bench).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllReduceAlgo {
    /// Ring reduce-scatter + all-gather (Equation 1).
    #[default]
    Ring,
    /// Double binary tree (logarithmic latency).
    DoubleTree,
}

/// Configuration of one simulated iteration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Model being trained.
    pub model: ModelSpec,
    /// Accelerator spec.
    pub device: DeviceSpec,
    /// Network spec.
    pub network: NetworkModel,
    /// Number of GPUs (weak scaling: batch is per worker).
    pub workers: usize,
    /// Per-worker batch size.
    pub batch: usize,
    /// Compression method.
    pub method: MethodConfig,
    /// DDP bucket size for syncSGD overlap.
    pub bucket_bytes: usize,
    /// Overlap gradient compression with the backward pass (§3.1 ablation;
    /// slower due to compute contention).
    pub overlap_compression: bool,
    /// All-reduce algorithm.
    pub allreduce: AllReduceAlgo,
}

impl SimConfig {
    /// Creates a config with the paper's defaults: V100, 10 Gbps, batch
    /// 64, syncSGD, 25 MB buckets, ring all-reduce, sequential
    /// compression.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn new(model: ModelSpec, workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        SimConfig {
            model,
            device: DeviceSpec::v100(),
            network: NetworkModel::datacenter_10gbps(),
            workers,
            batch: 64,
            method: MethodConfig::SyncSgd,
            bucket_bytes: DEFAULT_BUCKET_BYTES,
            overlap_compression: false,
            allreduce: AllReduceAlgo::Ring,
        }
    }

    /// Sets the per-worker batch size.
    pub fn batch_per_worker(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Sets the compression method.
    pub fn method(mut self, method: MethodConfig) -> Self {
        self.method = method;
        self
    }

    /// Sets the network model.
    pub fn network(mut self, network: NetworkModel) -> Self {
        self.network = network;
        self
    }

    /// Sets the device.
    pub fn device(mut self, device: DeviceSpec) -> Self {
        self.device = device;
        self
    }

    /// Enables the overlapped-compression variant of §3.1.
    pub fn overlap_compression(mut self, on: bool) -> Self {
        self.overlap_compression = on;
        self
    }

    /// Sets the all-reduce algorithm.
    pub fn allreduce(mut self, algo: AllReduceAlgo) -> Self {
        self.allreduce = algo;
        self
    }

    /// Sets the DDP bucket size.
    ///
    /// # Panics
    ///
    /// Panics if `bytes == 0`.
    pub fn bucket_bytes(mut self, bytes: usize) -> Self {
        assert!(bytes > 0, "bucket size must be positive");
        self.bucket_bytes = bytes;
        self
    }

    /// Backward-pass time `T_comp` (no contention factors).
    pub fn backward_s(&self) -> f64 {
        self.device.backward_seconds(&self.model, self.batch)
    }

    /// Encode + decode time of the method, aggregation included, on this
    /// config's device.
    pub fn encode_decode_s(&self) -> f64 {
        let enc = encode_cost(&self.method, &self.model);
        self.device
            .scale_encode_seconds(enc.total_with_integration(self.workers))
    }

    /// How the iteration synchronises gradients, or `None` for a single
    /// worker (no communication, no compression).
    pub fn sync_plan(&self) -> Option<SyncPlan> {
        if self.workers == 1 {
            return None;
        }
        let (t_encdec_s, comm) = match &self.method {
            MethodConfig::SyncSgd => (0.0, SyncComm::Bucketed { byte_scale: 1.0 }),
            // FP16 rides the DDP bucket pipeline: the comm hook casts each
            // bucket in place (cheap, memory-bound) and all-reduces half
            // the bytes, so it overlaps exactly like syncSGD.
            MethodConfig::Fp16 => (
                self.encode_decode_s(),
                SyncComm::Bucketed { byte_scale: 0.5 },
            ),
            method => (
                self.encode_decode_s(),
                SyncComm::Sequential(wire_plan(method, &self.model)),
            ),
        };
        let t_comp = self.backward_s();
        let compute_s = match comm {
            SyncComm::Bucketed { .. } => self.device.gamma * t_comp + t_encdec_s,
            // §3.1: compression and backward compete for the GPU; both
            // slow down by the contention factor, so the overlapped
            // variant costs more than running them back to back.
            SyncComm::Sequential(_) if self.overlap_compression => {
                self.device.compression_contention * (t_comp + t_encdec_s)
            }
            SyncComm::Sequential(_) => t_comp + t_encdec_s,
        };
        Some(SyncPlan {
            t_encdec_s,
            compute_s,
            comm,
        })
    }

    /// Time of one `collective` on `bytes` per worker.
    pub fn comm_time(&self, bytes: usize, collective: Collective) -> f64 {
        let (net, p) = (&self.network, self.workers);
        match collective {
            Collective::AllGather => net.all_gather(bytes, p),
            Collective::AllReduce => match self.allreduce {
                AllReduceAlgo::Ring => net.ring_all_reduce(bytes, p),
                AllReduceAlgo::DoubleTree => net.tree_all_reduce(bytes, p),
            },
        }
    }
}

/// How one iteration synchronises gradients: the terms both the
/// simulator's schedule and the §4 closed form (`gcs_core::perf`) read.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncPlan {
    /// Encode + decode time on the compute stream (FP16: the bucket cast).
    pub t_encdec_s: f64,
    /// When the compute stream is done with backward and encode/decode.
    pub compute_s: f64,
    /// What goes on the wire, and when.
    pub comm: SyncComm,
}

/// The communication half of a [`SyncPlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum SyncComm {
    /// DDP's bucket pipeline: each bucket all-reduces `byte_scale` of its
    /// bytes once backward has filled it, overlapping the rest of backward.
    Bucketed {
        /// 1 for syncSGD, ½ for the FP16 hook.
        byte_scale: f64,
    },
    /// A compressed method's rounds, back to back once compute is done.
    Sequential(WirePlan),
}

/// Timing breakdown of one simulated iteration (backward + gradient sync;
/// the forward pass is identical across methods and excluded, as in the
/// paper's measurements).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationBreakdown {
    /// Pure backward-pass time `T_comp` (no contention factors).
    pub backward_s: f64,
    /// Encode + decode time.
    pub encode_decode_s: f64,
    /// Total communication busy time.
    pub comm_s: f64,
    /// Communication time *not* hidden behind compute.
    pub exposed_comm_s: f64,
    /// End-to-end iteration time (backward start → gradients ready).
    pub total_s: f64,
    /// Bytes contributed to the wire per worker.
    pub wire_bytes: usize,
}

impl IterationBreakdown {
    /// Fraction of the iteration spent on useful compute
    /// (`backward / total`) — 1.0 means perfect scaling.
    pub fn compute_utilization(&self) -> f64 {
        if self.total_s <= 0.0 {
            return 0.0;
        }
        (self.backward_s / self.total_s).min(1.0)
    }

    /// Slowdown versus perfect weak scaling (`total / backward`, ≥ 1).
    pub fn slowdown_vs_ideal(&self) -> f64 {
        if self.backward_s <= 0.0 {
            return 1.0;
        }
        (self.total_s / self.backward_s).max(1.0)
    }

    /// Training throughput in samples per second for a per-worker batch
    /// of `batch` across `workers` workers.
    ///
    /// # Panics
    ///
    /// Panics if the breakdown has a non-positive total time.
    pub fn samples_per_second(&self, batch: usize, workers: usize) -> f64 {
        assert!(self.total_s > 0.0, "breakdown must have positive time");
        (batch * workers) as f64 / self.total_s
    }
}

/// Simulates one iteration and returns its timing breakdown: a fold over
/// the events [`crate::trace::trace_iteration`] returns.
pub fn simulate_iteration(cfg: &SimConfig) -> IterationBreakdown {
    let backward_s = cfg.backward_s();
    let schedule = schedule(cfg);
    // Busy time is each comm span's own duration, summed in event order.
    let comm_s = schedule.comm_s.iter().fold(0.0, |busy, d| busy + d);
    let (encode_decode_s, compute_s) = schedule
        .sync
        .as_ref()
        .map_or((0.0, backward_s), |p| (p.t_encdec_s, p.compute_s));
    let (total_s, exposed_comm_s, wire_bytes) = match schedule.sync.map(|p| p.comm) {
        Some(SyncComm::Bucketed { byte_scale }) => {
            let comm_end = schedule
                .events
                .last()
                .filter(|e| e.stream == Stream::Comm)
                .map_or(0.0, |e| e.end_s);
            let total = comm_end.max(compute_s);
            let wire = (cfg.model.size_bytes() as f64 * byte_scale) as usize;
            (total, (total - compute_s).max(0.0), wire)
        }
        Some(SyncComm::Sequential(plan)) => (compute_s + comm_s, comm_s, plan.total_bytes()),
        // One worker: backward only.
        None => (backward_s, 0.0, 0),
    };
    IterationBreakdown {
        backward_s,
        encode_decode_s,
        comm_s,
        exposed_comm_s,
        total_s,
        wire_bytes,
    }
}

/// Time to process one epoch of `dataset_size` samples under weak
/// scaling: `ceil(N / (batch·p))` iterations at the simulated
/// per-iteration time. This is the "fixed number of epochs" accounting
/// behind Finding 2: larger batches mean fewer communications per epoch,
/// compounding the per-iteration overlap advantage.
///
/// # Panics
///
/// Panics if `dataset_size == 0`.
pub fn epoch_seconds(cfg: &SimConfig, dataset_size: usize) -> f64 {
    assert!(dataset_size > 0, "dataset must be non-empty");
    let global_batch = cfg.batch * cfg.workers;
    let iters = dataset_size.div_ceil(global_batch).max(1);
    iters as f64 * simulate_iteration(cfg).total_s
}

/// Simulates local SGD / periodic averaging: workers take `period` local
/// steps between gradient/parameter exchanges, amortizing one
/// communication (with full overlap mechanics on the sync step) over the
/// window. Returns the **per-step** breakdown.
///
/// This is the "reduce communication frequency" alternative the paper
/// contrasts with compression (§2): with `period = 1` it reduces to
/// [`simulate_iteration`].
///
/// # Panics
///
/// Panics if `period == 0`.
pub fn simulate_local_sgd(cfg: &SimConfig, period: usize) -> IterationBreakdown {
    assert!(period > 0, "local SGD period must be positive");
    let one = simulate_iteration(cfg);
    if period == 1 || cfg.workers == 1 {
        return one;
    }
    let t_comp = one.backward_s;
    // period-1 silent local steps + one fully synced step.
    let window = (period - 1) as f64 * t_comp + one.total_s;
    let h = period as f64;
    IterationBreakdown {
        backward_s: t_comp,
        encode_decode_s: one.encode_decode_s / h,
        comm_s: one.comm_s / h,
        exposed_comm_s: one.exposed_comm_s / h,
        total_s: window / h,
        wire_bytes: one.wire_bytes / period,
    }
}

/// Simulates one iteration under **strong scaling**: a fixed global batch
/// split across workers (`batch = global_batch / p`, minimum 1). Weak
/// scaling (the paper's default) keeps per-worker batch constant instead.
///
/// Strong scaling squeezes `T_comp` as workers are added, eroding
/// syncSGD's overlap window — the regime where compression becomes useful
/// earlier.
///
/// # Panics
///
/// Panics if `global_batch == 0`.
pub fn simulate_strong_scaling(cfg: &SimConfig, global_batch: usize) -> IterationBreakdown {
    assert!(global_batch > 0, "global batch must be positive");
    let per_worker = (global_batch / cfg.workers).max(1);
    simulate_iteration(&cfg.clone().batch_per_worker(per_worker))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_models::presets;

    fn cfg(model: ModelSpec, workers: usize) -> SimConfig {
        SimConfig::new(model, workers)
    }

    #[test]
    fn breakdown_utility_accessors() {
        let b = simulate_iteration(&cfg(presets::resnet50(), 16));
        assert!(b.compute_utilization() > 0.0 && b.compute_utilization() <= 1.0);
        assert!(b.slowdown_vs_ideal() >= 1.0);
        assert!(
            (b.compute_utilization() * b.slowdown_vs_ideal() - 1.0).abs() < 1e-9,
            "utilization and slowdown are reciprocal"
        );
        let sps = b.samples_per_second(64, 16);
        assert!((sps - 1024.0 / b.total_s).abs() < 1e-9);
    }

    #[test]
    fn single_worker_is_pure_compute() {
        let b = simulate_iteration(&cfg(presets::resnet50(), 1));
        assert_eq!(b.total_s, b.backward_s);
        assert_eq!(b.comm_s, 0.0);
    }

    #[test]
    fn syncsgd_total_at_least_backward() {
        let b = simulate_iteration(&cfg(presets::resnet50(), 16));
        assert!(b.total_s >= b.backward_s);
        assert!(b.exposed_comm_s >= 0.0);
    }

    #[test]
    fn syncsgd_scales_nearly_flat_with_workers() {
        // Ring all-reduce: weak-scaling iteration time grows slowly.
        let m = presets::resnet50();
        let t8 = simulate_iteration(&cfg(m.clone(), 8)).total_s;
        let t96 = simulate_iteration(&cfg(m, 96)).total_s;
        assert!(t96 / t8 < 1.5, "syncSGD should be near-flat: {}", t96 / t8);
    }

    #[test]
    fn gather_methods_scale_linearly_with_workers() {
        let m = presets::resnet101();
        let mk = |p| simulate_iteration(&cfg(m.clone(), p).method(MethodConfig::SignSgd)).total_s;
        let t8 = mk(8);
        let t96 = mk(96);
        assert!(
            t96 / t8 > 2.5,
            "SignSGD must degrade at scale: {}",
            t96 / t8
        );
    }

    #[test]
    fn signsgd_96gpu_resnet101_matches_paper_magnitudes() {
        // Paper §1: SignSGD ~1075 ms vs syncSGD <265 ms for ResNet-101 at
        // 96 GPUs. Shapes (and rough magnitudes) must hold.
        let m = presets::resnet101();
        let sign = simulate_iteration(&cfg(m.clone(), 96).method(MethodConfig::SignSgd)).total_s;
        let sync = simulate_iteration(&cfg(m, 96)).total_s;
        assert!(sign > 2.5 * sync, "sign {sign} vs sync {sync}");
        assert!(sync < 0.45, "sync {sync}");
        assert!(sign > 0.6, "sign {sign}");
    }

    #[test]
    fn powersgd_beats_syncsgd_on_bert_at_scale() {
        // Figure 4: BERT at 96 GPUs, rank 4 ≈ 23% faster than syncSGD.
        let m = presets::bert_base();
        let sync = simulate_iteration(&cfg(m.clone(), 96).batch_per_worker(12)).total_s;
        let psgd = simulate_iteration(
            &cfg(m, 96)
                .batch_per_worker(12)
                .method(MethodConfig::PowerSgd { rank: 4 }),
        )
        .total_s;
        assert!(psgd < sync, "psgd {psgd} vs sync {sync}");
    }

    #[test]
    fn powersgd_loses_on_resnet50_batch64() {
        // Figure 4: PowerSGD slower than syncSGD for ResNet-50 at batch 64.
        let m = presets::resnet50();
        let sync = simulate_iteration(&cfg(m.clone(), 64)).total_s;
        let psgd =
            simulate_iteration(&cfg(m, 64).method(MethodConfig::PowerSgd { rank: 4 })).total_s;
        assert!(psgd > sync, "psgd {psgd} vs sync {sync}");
    }

    #[test]
    fn powersgd_wins_at_small_batch_loses_at_large_batch() {
        // Figure 7 (ResNet-101): rank 4 ≈ 40% faster at batch 16, ~10%
        // slower at batch 64.
        let m = presets::resnet101();
        let speedup = |batch| {
            let sync = simulate_iteration(&cfg(m.clone(), 64).batch_per_worker(batch)).total_s;
            let psgd = simulate_iteration(
                &cfg(m.clone(), 64)
                    .batch_per_worker(batch)
                    .method(MethodConfig::PowerSgd { rank: 4 }),
            )
            .total_s;
            sync / psgd
        };
        assert!(speedup(16) > 1.2, "batch 16 speedup {}", speedup(16));
        assert!(speedup(64) < 1.05, "batch 64 speedup {}", speedup(64));
        assert!(speedup(16) > speedup(32));
        assert!(speedup(32) > speedup(64));
    }

    #[test]
    fn topk_never_beats_syncsgd() {
        // Figure 5: across models and scales Top-K loses.
        for m in presets::paper_models() {
            for p in [8usize, 32, 96] {
                let batch = if m.name.starts_with("BERT") { 12 } else { 64 };
                let sync = simulate_iteration(&cfg(m.clone(), p).batch_per_worker(batch)).total_s;
                let topk = simulate_iteration(
                    &cfg(m.clone(), p)
                        .batch_per_worker(batch)
                        .method(MethodConfig::TopK { ratio: 0.01 }),
                )
                .total_s;
                assert!(topk > sync, "{} p={p}: topk {topk} sync {sync}", m.name);
            }
        }
    }

    #[test]
    fn overlapped_compression_is_slower_than_sequential() {
        // Figure 3.
        let m = presets::resnet101();
        for method in [
            MethodConfig::PowerSgd { rank: 4 },
            MethodConfig::TopK { ratio: 0.01 },
            MethodConfig::SignSgd,
        ] {
            let seq = simulate_iteration(&cfg(m.clone(), 16).method(method.clone())).total_s;
            let ovl = simulate_iteration(
                &cfg(m.clone(), 16)
                    .method(method.clone())
                    .overlap_compression(true),
            )
            .total_s;
            assert!(ovl > seq, "{method:?}: overlap {ovl} vs sequential {seq}");
        }
    }

    #[test]
    fn tree_allreduce_wins_at_scale_for_small_payloads() {
        let m = presets::resnet50();
        let small = cfg(m, 128).method(MethodConfig::PowerSgd { rank: 4 });
        let ring = simulate_iteration(&small).total_s;
        let tree = simulate_iteration(&small.clone().allreduce(AllReduceAlgo::DoubleTree)).total_s;
        assert!(tree < ring, "tree {tree} vs ring {ring}");
    }

    #[test]
    fn smaller_buckets_cost_more_latency() {
        // Comm-bound configuration (small batch): per-bucket all-reduce
        // latency is exposed, so shrinking buckets hurts.
        let m = presets::bert_base();
        let big = simulate_iteration(
            &cfg(m.clone(), 32)
                .batch_per_worker(8)
                .bucket_bytes(25 << 20),
        )
        .total_s;
        let tiny =
            simulate_iteration(&cfg(m, 32).batch_per_worker(8).bucket_bytes(256 << 10)).total_s;
        assert!(tiny > big, "tiny-bucket {tiny} vs 25MB {big}");
    }

    #[test]
    fn epoch_time_rewards_large_batches_twice() {
        // Finding 2's mechanism: at fixed epochs, batch 64 beats batch 16
        // by MORE than the per-iteration ratio would suggest, because it
        // also does 4x fewer communications.
        let m = presets::resnet101();
        let n = 1_281_167; // ImageNet train size
        let e16 = epoch_seconds(&cfg(m.clone(), 64).batch_per_worker(16), n);
        let e64 = epoch_seconds(&cfg(m.clone(), 64).batch_per_worker(64), n);
        assert!(e64 < e16, "batch 64 epoch {e64} vs batch 16 {e16}");
        // And the *relative* advantage of syncSGD over PowerSGD grows in
        // epoch terms exactly as in iteration terms (same iteration count).
        let p16 = epoch_seconds(
            &cfg(m.clone(), 64)
                .batch_per_worker(16)
                .method(MethodConfig::PowerSgd { rank: 4 }),
            n,
        );
        assert!(p16 < e16, "PowerSGD should win per epoch at batch 16 too");
    }

    #[test]
    #[should_panic(expected = "dataset must be non-empty")]
    fn epoch_zero_dataset_panics() {
        let _ = epoch_seconds(&cfg(presets::resnet50(), 4), 0);
    }

    #[test]
    fn strong_scaling_erodes_syncsgd_overlap() {
        // Fixed global batch 1024: at 64 workers each gets 16 samples and
        // syncSGD loses its overlap window; PowerSGD's relative position
        // improves versus weak scaling at the same worker count.
        let m = presets::resnet101();
        let global = 1024usize;
        let speedup_at = |p: usize| {
            let sync = simulate_strong_scaling(&cfg(m.clone(), p), global).total_s;
            let psgd = simulate_strong_scaling(
                &cfg(m.clone(), p).method(MethodConfig::PowerSgd { rank: 4 }),
                global,
            )
            .total_s;
            sync / psgd
        };
        assert!(
            speedup_at(64) > speedup_at(8),
            "compression must gain ground as strong scaling starves compute: {} vs {}",
            speedup_at(64),
            speedup_at(8)
        );
    }

    #[test]
    #[should_panic(expected = "global batch must be positive")]
    fn strong_scaling_zero_batch_panics() {
        let _ = simulate_strong_scaling(&cfg(presets::resnet50(), 4), 0);
    }

    #[test]
    fn local_sgd_amortizes_communication() {
        let c = cfg(presets::bert_base(), 64).batch_per_worker(8);
        let t1 = simulate_local_sgd(&c, 1).total_s;
        let t4 = simulate_local_sgd(&c, 4).total_s;
        let t16 = simulate_local_sgd(&c, 16).total_s;
        assert!((t1 - simulate_iteration(&c).total_s).abs() < 1e-12);
        assert!(t4 < t1, "period 4 {t4} vs 1 {t1}");
        assert!(t16 < t4);
        // As period -> inf, per-step time approaches pure compute.
        let t_comp = c.device.backward_seconds(&c.model, c.batch);
        let t256 = simulate_local_sgd(&c, 256).total_s;
        assert!(
            (t256 - t_comp) / t_comp < 0.05,
            "t256 {t256} vs T_comp {t_comp}"
        );
    }

    #[test]
    fn local_sgd_reduces_gap_more_than_compression_needs_to() {
        // Period-8 local SGD already hides almost all communication even
        // for the comm-heavy BERT, without any encode cost.
        let c = cfg(presets::bert_base(), 96).batch_per_worker(12);
        let local8 = simulate_local_sgd(&c, 8).total_s;
        let psgd =
            simulate_iteration(&c.clone().method(MethodConfig::PowerSgd { rank: 4 })).total_s;
        assert!(local8 < psgd, "local SGD {local8} vs PowerSGD {psgd}");
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn local_sgd_zero_period_panics() {
        let _ = simulate_local_sgd(&cfg(presets::resnet50(), 4), 0);
    }
}
