//! §6 what-if analyses: the reason the performance model exists.
//!
//! "It becomes impossible to perform what-if analyses to study how does
//! the performance get affected under 100Gbps bandwidth or an 8× faster
//! GPU" — so the model answers instead. Three sweeps, one per figure:
//! bandwidth (Figure 11), compute speedup (Figure 12), and the
//! encode-time-vs-compression-ratio tradeoff (Figure 13).

use crate::perf::predict_iteration;
use gcs_cluster::cost::NetworkModel;
use gcs_compress::registry::MethodConfig;
use gcs_ddp::sim::SimConfig;
use gcs_ddp::wire::wire_plan;
use gcs_models::{DeviceSpec, ModelSpec};

/// One point of a two-method comparison sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// The swept variable (Gbps, speedup factor, or `k`).
    pub x: f64,
    /// syncSGD iteration time at this point (seconds).
    pub sync_s: f64,
    /// Compressed-method iteration time at this point (seconds).
    pub method_s: f64,
}

impl SweepPoint {
    /// Speedup of the method over syncSGD (>1 means the method wins).
    pub fn speedup(&self) -> f64 {
        self.sync_s / self.method_s
    }
}

/// Figure 11: sweep network bandwidth and compare syncSGD with `method`.
///
/// # Panics
///
/// Panics if any bandwidth is non-positive.
pub fn bandwidth_sweep(
    model: &ModelSpec,
    device: &DeviceSpec,
    workers: usize,
    batch: usize,
    method: &MethodConfig,
    gbps: &[f64],
    alpha: f64,
) -> Vec<SweepPoint> {
    gbps.iter()
        .map(|&g| {
            let net = NetworkModel::from_gbps(alpha, g);
            let base = SimConfig::new(model.clone(), workers)
                .batch_per_worker(batch)
                .device(device.clone())
                .network(net);
            let sync = predict_iteration(&base).total_s;
            let comp = predict_iteration(&base.clone().method(method.clone())).total_s;
            SweepPoint {
                x: g,
                sync_s: sync,
                method_s: comp,
            }
        })
        .collect()
}

/// Figure 12: sweep compute speedup (bandwidth fixed) and compare syncSGD
/// with `method`. Encode/decode time scales down with compute, as the
/// paper assumes.
pub fn compute_sweep(
    model: &ModelSpec,
    network: &NetworkModel,
    workers: usize,
    batch: usize,
    method: &MethodConfig,
    speedups: &[f64],
) -> Vec<SweepPoint> {
    speedups
        .iter()
        .map(|&k| {
            let device = DeviceSpec::v100().with_speedup(k);
            let base = SimConfig::new(model.clone(), workers)
                .batch_per_worker(batch)
                .device(device)
                .network(*network);
            let sync = predict_iteration(&base).total_s;
            let comp = predict_iteration(&base.clone().method(method.clone())).total_s;
            SweepPoint {
                x: k,
                sync_s: sync,
                method_s: comp,
            }
        })
        .collect()
}

/// One point of the Figure 13 tradeoff grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TradeoffPoint {
    /// Encode-time reduction factor `k` (encode/decode runs `k`× faster).
    pub k: f64,
    /// Coupling factor `l`: shrinking encode time by `k` inflates the
    /// communicated bytes by `l·k`.
    pub l: f64,
    /// Iteration time of the hypothetical scheme (seconds).
    pub total_s: f64,
    /// Iteration time of the unmodified baseline scheme (seconds).
    pub baseline_s: f64,
}

/// Figure 13: hypothetical schemes derived from `base` (the paper uses
/// PowerSGD rank 4) where encode/decode time is divided by `k` and wire
/// bytes are multiplied by `l·k`. The paper's conclusion — "any reduction
/// in encode-decode time even at the expense of increased communication
/// helps" — falls out of the returned grid.
///
/// # Panics
///
/// Panics if `workers == 0`.
#[allow(clippy::too_many_arguments)] // mirrors the experiment's parameter grid
pub fn tradeoff_sweep(
    model: &ModelSpec,
    device: &DeviceSpec,
    network: &NetworkModel,
    workers: usize,
    batch: usize,
    base: &MethodConfig,
    ks: &[f64],
    ls: &[f64],
) -> Vec<TradeoffPoint> {
    let cfg = SimConfig::new(model.clone(), workers)
        .batch_per_worker(batch)
        .device(device.clone())
        .network(*network)
        .method(base.clone());
    let t_comp = cfg.backward_s();
    let base_encdec = cfg.encode_decode_s();
    let plan = wire_plan(base, model);
    let comm_of = |multiplier: f64| -> f64 {
        plan.rounds
            .iter()
            .map(|r| cfg.comm_time((r.bytes as f64 * multiplier) as usize, r.collective))
            .sum()
    };
    let baseline_s = t_comp + base_encdec + comm_of(1.0);
    let mut out = Vec::with_capacity(ks.len() * ls.len());
    for &k in ks {
        for &l in ls {
            let total = t_comp + base_encdec / k + comm_of(l * k);
            out.push(TradeoffPoint {
                k,
                l,
                total_s: total,
                baseline_s,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_models::presets;

    const ALPHA: f64 = 15e-6;

    #[test]
    fn resnet50_crossover_near_9gbps() {
        // Figure 11: PowerSGD rank 4 wins at low bandwidth, loses above
        // ~9 Gbps for ResNet-50.
        let pts = bandwidth_sweep(
            &presets::resnet50(),
            &DeviceSpec::v100(),
            64,
            64,
            &MethodConfig::PowerSgd { rank: 4 },
            &[1.0, 3.0, 9.0, 15.0, 30.0],
            ALPHA,
        );
        assert!(
            pts[0].speedup() > 1.5,
            "1 Gbps speedup {}",
            pts[0].speedup()
        );
        assert!(
            pts.last().unwrap().speedup() < 1.0,
            "30 Gbps speedup {}",
            pts.last().unwrap().speedup()
        );
        // Speedup decreases monotonically with bandwidth.
        for w in pts.windows(2) {
            assert!(w[0].speedup() >= w[1].speedup() - 1e-9);
        }
    }

    #[test]
    fn bert_crossover_at_higher_bandwidth_than_resnet() {
        // Figure 11: the heavier the communication, the higher the
        // bandwidth at which syncSGD catches up (paper: ~9 vs ~15 Gbps).
        let cross = |model: &ModelSpec, batch| {
            let gbps: Vec<f64> = (1..=40).map(|g| g as f64).collect();
            let pts = bandwidth_sweep(
                model,
                &DeviceSpec::v100(),
                64,
                batch,
                &MethodConfig::PowerSgd { rank: 4 },
                &gbps,
                ALPHA,
            );
            pts.iter()
                .find(|p| p.speedup() < 1.0)
                .map_or(f64::INFINITY, |p| p.x)
        };
        let r50 = cross(&presets::resnet50(), 64);
        let bert = cross(&presets::bert_base(), 12);
        assert!(bert > r50, "bert cross {bert} vs r50 {r50}");
        assert!((5.0..20.0).contains(&r50), "r50 crossover {r50}");
    }

    #[test]
    fn faster_compute_helps_compression() {
        // Figure 12: with bandwidth pinned at 10 Gbps, compute speedups
        // make PowerSGD increasingly attractive (paper: ~1.75x at 3.5x).
        let pts = compute_sweep(
            &presets::resnet50(),
            &NetworkModel::from_gbps(ALPHA, 10.0),
            64,
            64,
            &MethodConfig::PowerSgd { rank: 4 },
            &[1.0, 2.0, 3.0, 4.0],
        );
        for w in pts.windows(2) {
            assert!(
                w[1].speedup() > w[0].speedup(),
                "speedup must grow with compute: {pts:?}"
            );
        }
        let last = pts.last().unwrap();
        assert!(
            last.speedup() > 1.2,
            "4x compute speedup {}",
            last.speedup()
        );
    }

    #[test]
    fn syncsgd_saturates_under_faster_compute() {
        // Figure 12's mechanism: syncSGD becomes communication-bound, so
        // its iteration time stops improving.
        let pts = compute_sweep(
            &presets::bert_base(),
            &NetworkModel::from_gbps(ALPHA, 10.0),
            64,
            12,
            &MethodConfig::PowerSgd { rank: 4 },
            &[1.0, 4.0],
        );
        let improvement = pts[0].sync_s / pts[1].sync_s;
        assert!(improvement < 1.6, "syncSGD should saturate: {improvement}");
    }

    #[test]
    fn reducing_encode_time_always_helps() {
        // Figure 13: for every l, k > 1 beats the baseline.
        let grid = tradeoff_sweep(
            &presets::resnet50(),
            &DeviceSpec::v100(),
            &NetworkModel::from_gbps(ALPHA, 10.0),
            64,
            64,
            &MethodConfig::PowerSgd { rank: 4 },
            &[1.0, 2.0, 3.0, 4.0],
            &[1.0, 2.0, 3.0],
        );
        for pt in &grid {
            if pt.k > 1.0 {
                assert!(
                    pt.total_s < pt.baseline_s,
                    "k={} l={} should beat baseline: {} vs {}",
                    pt.k,
                    pt.l,
                    pt.total_s,
                    pt.baseline_s
                );
            }
        }
        // And k=1, l=1 *is* the baseline.
        let id = grid.iter().find(|p| p.k == 1.0 && p.l == 1.0).unwrap();
        assert!((id.total_s - id.baseline_s).abs() < 1e-12);
    }

    #[test]
    fn tradeoff_monotone_in_k_for_fixed_l() {
        let grid = tradeoff_sweep(
            &presets::resnet101(),
            &DeviceSpec::v100(),
            &NetworkModel::from_gbps(ALPHA, 10.0),
            32,
            64,
            &MethodConfig::PowerSgd { rank: 4 },
            &[1.0, 2.0, 4.0],
            &[2.0],
        );
        for w in grid.windows(2) {
            assert!(w[1].total_s < w[0].total_s, "{grid:?}");
        }
    }
}
