//! The §4 analytic performance model.
//!
//! Unlike the discrete-event simulator in `gcs_ddp::sim` (which plays out
//! bucket-by-bucket ready times), this module evaluates the paper's
//! closed-form expressions:
//!
//! * **syncSGD** (§4.1):
//!   `T_obs ≈ max(γ·T_comp, (k−1)·T_comm(b, p, BW)) + T_comm(b̂, p, BW)`
//!   where the model is split into `k` buckets, `k−1` of size `b` and a
//!   final bucket `b̂` that cannot be overlapped;
//! * **PowerSGD** (§4.2):
//!   `T_obs ≈ T_comp + T_encdec + T_comm(P) + T_comm(Q)`;
//! * **Top-K**: `T_obs ≈ T_comp + T_encdec + T_comm(ĝ) + T_comm(î)` with
//!   all-gather cost `ĝ(p−1)/BW`;
//! * **SignSGD**: `T_obs ≈ T_comp + T_encdec + T_comm(ĝ)` with all-gather
//!   cost and `ĝ = g/32`;
//! * every other catalogue method follows the generic compressed model
//!   with its own wire plan.
//!
//! Figure 8 of the paper validates this model against testbed
//! measurements; here the `study` module validates it against the event
//! simulator (median deviation asserted in tests).

use gcs_compress::registry::MethodConfig;
use gcs_ddp::sim::{SimConfig, SyncComm};
use gcs_ddp::wire::{wire_plan, Collective};
use gcs_models::buckets::partition;

/// Output of the analytic model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Backward-pass time `T_comp`.
    pub t_comp_s: f64,
    /// Encode/decode time (0 for syncSGD).
    pub t_encdec_s: f64,
    /// Communication term of the closed form.
    pub t_comm_s: f64,
    /// Predicted iteration time.
    pub total_s: f64,
}

/// Evaluates the closed-form §4 model for `cfg`, on the terms of
/// [`SimConfig::sync_plan`] the event simulator reads too.
pub fn predict_iteration(cfg: &SimConfig) -> Prediction {
    let t_comp = cfg.backward_s();
    let Some(sync) = cfg.sync_plan() else {
        return Prediction {
            t_comp_s: t_comp,
            t_encdec_s: 0.0,
            t_comm_s: 0.0,
            total_s: t_comp,
        };
    };
    let (t_comm, total) = match &sync.comm {
        // The bucketed-overlap closed form:
        // `max(γ·T_comp + T_enc, (k−1)·T_comm(b·s)) + T_comm(b̂·s)` where
        // `s` scales bucket bytes (1 for syncSGD, ½ for the FP16 hook).
        SyncComm::Bucketed { byte_scale } => {
            let buckets = partition(&cfg.model, cfg.bucket_bytes);
            let k = buckets.len();
            let bucket_time = |bytes: usize| {
                cfg.comm_time((bytes as f64 * byte_scale) as usize, Collective::AllReduce)
            };
            let overlapped: f64 = buckets[..k - 1].iter().map(|b| bucket_time(b.bytes)).sum();
            let last = bucket_time(buckets[k - 1].bytes);
            (overlapped + last, sync.compute_s.max(overlapped) + last)
        }
        SyncComm::Sequential(plan) => {
            let t_comm: f64 = plan
                .rounds
                .iter()
                .map(|r| cfg.comm_time(r.bytes, r.collective))
                .sum();
            (t_comm, sync.compute_s + t_comm)
        }
    };
    Prediction {
        t_comp_s: t_comp,
        t_encdec_s: sync.t_encdec_s,
        t_comm_s: t_comm,
        total_s: total,
    }
}

/// §4.2's *generic* compressed model with compression and communication
/// overlapped against the backward pass:
///
/// `T_obs ≈ max(γ·T_comp + T_encdec, (c−1)·T_comm(b, p, BW)) + T_comm(b̂, p, BW)`
///
/// This is the hypothetical best case the paper's formula admits —
/// §3.1 shows real GPUs cannot deliver it (compression contends with
/// backward) — so it serves as an *upper bound on what overlap could
/// ever buy* a compression scheme. The compressed payload is split into
/// `c` buckets of `cfg.bucket_bytes`; all but the last are assumed to
/// hide under compute. Payloads smaller than one bucket are streamed in 8
/// per-layer pipeline chunks.
pub fn predict_generic_overlapped(cfg: &SimConfig) -> Prediction {
    if cfg.workers == 1 || matches!(cfg.method, MethodConfig::SyncSgd) {
        return predict_iteration(cfg);
    }
    let t_comp = cfg.backward_s();
    let t_encdec = cfg.encode_decode_s();
    let plan = wire_plan(&cfg.method, &cfg.model);
    // Split the compressed payload into c buckets; the collective of the
    // (single logical) round applies to each bucket.
    let total_bytes = plan.total_bytes();
    let collective = if plan.is_all_reducible() {
        Collective::AllReduce
    } else {
        Collective::AllGather
    };
    // At least 8 pipeline chunks so payloads smaller than one DDP bucket
    // can still stream against the backward pass (per-layer pipelining).
    let c = total_bytes.div_ceil(cfg.bucket_bytes).max(8);
    let bucket = total_bytes / c;
    let last = total_bytes - bucket * (c - 1);
    let overlapped: f64 = (0..c - 1).map(|_| cfg.comm_time(bucket, collective)).sum();
    let t_last = cfg.comm_time(last, collective);
    let compute = cfg.device.gamma * t_comp + t_encdec;
    let total = compute.max(overlapped) + t_last;
    Prediction {
        t_comp_s: t_comp,
        t_encdec_s: t_encdec,
        t_comm_s: overlapped + t_last,
        total_s: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_ddp::sim::simulate_iteration;
    use gcs_models::presets;

    #[test]
    fn single_worker_is_pure_compute() {
        let cfg = SimConfig::new(presets::resnet50(), 1);
        let p = predict_iteration(&cfg);
        assert_eq!(p.total_s, p.t_comp_s);
    }

    #[test]
    fn syncsgd_prediction_tracks_simulator_within_10pc() {
        // Figure 8a: median error 1.8% between model and measurement; our
        // "measurement" is the event simulator. Same order of fidelity.
        let mut errors = Vec::new();
        for model in presets::paper_models() {
            let batch = if model.name.starts_with("BERT") {
                12
            } else {
                64
            };
            for p in [8usize, 16, 32, 64, 96] {
                let cfg = SimConfig::new(model.clone(), p).batch_per_worker(batch);
                let predicted = predict_iteration(&cfg).total_s;
                let simulated = simulate_iteration(&cfg).total_s;
                errors.push(((predicted - simulated) / simulated).abs());
            }
        }
        let median = gcs_tensor::stats::median(&errors);
        assert!(median < 0.10, "median model-vs-sim deviation {median}");
    }

    #[test]
    fn compressed_predictions_match_simulator_exactly() {
        // For non-overlapped compressed methods the closed form and the
        // event simulator share the same structure, so they must agree to
        // numerical noise.
        for method in [
            MethodConfig::PowerSgd { rank: 4 },
            MethodConfig::TopK { ratio: 0.01 },
            MethodConfig::SignSgd,
        ] {
            let cfg = SimConfig::new(presets::resnet101(), 32).method(method.clone());
            let predicted = predict_iteration(&cfg).total_s;
            let simulated = simulate_iteration(&cfg).total_s;
            assert!(
                (predicted - simulated).abs() / simulated < 1e-9,
                "{method:?}: {predicted} vs {simulated}"
            );
        }
    }

    #[test]
    fn generic_overlap_saves_at_most_the_comm_and_costs_at_most_gamma() {
        // Overlap can hide at most the communication time, and its only
        // cost is the γ backward slowdown — so the overlapped prediction
        // is bracketed by [sequential − comm, sequential + (γ−1)·T_comp].
        for method in [
            MethodConfig::PowerSgd { rank: 4 },
            MethodConfig::TopK { ratio: 0.01 },
            MethodConfig::SignSgd,
        ] {
            let cfg = SimConfig::new(presets::resnet101(), 64).method(method.clone());
            let seq = predict_iteration(&cfg);
            let ovl = predict_generic_overlapped(&cfg).total_s;
            let gamma_cost = (cfg.device.gamma - 1.0) * seq.t_comp_s;
            assert!(
                ovl <= seq.total_s + gamma_cost + 1e-12,
                "{method:?}: {ovl} vs {} + γ {gamma_cost}",
                seq.total_s
            );
            assert!(
                ovl >= seq.total_s - seq.t_comm_s - 1e-12,
                "{method:?}: cannot hide more than comm"
            );
        }
        // For a comm-dominated method the hypothetical overlap is a real
        // win over sequential.
        let gather = SimConfig::new(presets::resnet101(), 96).method(MethodConfig::SignSgd);
        assert!(
            predict_generic_overlapped(&gather).total_s < predict_iteration(&gather).total_s,
            "overlap must help when communication dominates"
        );
    }

    #[test]
    fn even_free_overlap_does_not_save_topk() {
        // §5's strongest form: grant Top-K the perfect overlap §3.1 shows
        // is physically unavailable — it still loses to syncSGD, because
        // its encode time alone exceeds the opportunity window.
        for model in presets::paper_models() {
            let batch = if model.name.starts_with("BERT") {
                12
            } else {
                64
            };
            let sync =
                predict_iteration(&SimConfig::new(model.clone(), 64).batch_per_worker(batch))
                    .total_s;
            let topk = predict_generic_overlapped(
                &SimConfig::new(model.clone(), 64)
                    .batch_per_worker(batch)
                    .method(MethodConfig::TopK { ratio: 0.01 }),
            )
            .total_s;
            assert!(topk > sync, "{}: topk {topk} sync {sync}", model.name);
        }
    }

    #[test]
    fn fp16_halves_exposed_communication() {
        // Finding 1's mechanism: FP16 overlaps like syncSGD with half the
        // bytes, so in a comm-bound regime it cuts the iteration time.
        let model = presets::bert_base();
        let sync = predict_iteration(&SimConfig::new(model.clone(), 96).batch_per_worker(12));
        let fp16 = predict_iteration(
            &SimConfig::new(model, 96)
                .batch_per_worker(12)
                .method(MethodConfig::Fp16),
        );
        assert!(
            fp16.total_s < sync.total_s,
            "fp16 {} sync {}",
            fp16.total_s,
            sync.total_s
        );
        assert!(fp16.t_comm_s < 0.6 * sync.t_comm_s);
    }

    #[test]
    fn signsgd_model_matches_paper_formula() {
        // T_comm(ĝ) = ĝ(p−1)/BW with ĝ = g/32 (+ latency + sign scale
        // metadata, negligible here).
        let model = presets::resnet50();
        let cfg = SimConfig::new(model.clone(), 16).method(MethodConfig::SignSgd);
        let pred = predict_iteration(&cfg);
        let g_hat = model.size_bytes() as f64 / 32.0;
        let expected = g_hat * 15.0 / cfg.network.bandwidth + cfg.network.alpha * 15.0;
        assert!(
            (pred.t_comm_s - expected).abs() / expected < 0.02,
            "comm {} vs formula {expected}",
            pred.t_comm_s
        );
    }

    #[test]
    fn powersgd_pays_two_latency_terms() {
        // §4.2: PowerSGD sends P and Q separately — twice the α(p−1).
        let model = presets::resnet50();
        let p = 64usize;
        let cfg = SimConfig::new(model, p).method(MethodConfig::PowerSgd { rank: 4 });
        let pred = predict_iteration(&cfg);
        let latency_two_rounds = 2.0 * cfg.network.alpha * (p as f64 - 1.0);
        assert!(pred.t_comm_s > latency_two_rounds, "comm {}", pred.t_comm_s);
    }

    #[test]
    fn topk_comm_includes_values_and_indices() {
        // Top-K sends ĝ and î: equal byte counts, so the all-gather bytes
        // are 2 * k * 4.
        let model = presets::resnet50();
        let cfg = SimConfig::new(model.clone(), 8).method(MethodConfig::TopK { ratio: 0.01 });
        let pred = predict_iteration(&cfg);
        let k = (model.total_params() as f64 * 0.01).round();
        let bytes = 8.0 * k;
        let expected = bytes * 7.0 / cfg.network.bandwidth + cfg.network.alpha * 7.0;
        assert!(
            (pred.t_comm_s - expected).abs() / expected < 0.05,
            "comm {} vs {expected}",
            pred.t_comm_s
        );
    }
}
