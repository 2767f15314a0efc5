//! End-to-end integration tests spanning every crate: real gradients,
//! real compression, real collectives, real training, and the performance
//! model on top.

use gradcomp::cluster::SimCluster;
use gradcomp::compress::registry::MethodConfig;
use gradcomp::core::perf::predict_iteration;
use gradcomp::ddp::exec::Result as ExchangeResult;
use gradcomp::ddp::sim::{simulate_iteration, SimConfig};
use gradcomp::ddp::{ExchangeConfig, Exchanger};
use gradcomp::models::presets;
use gradcomp::tensor::{stats, Tensor};
use gradcomp::train::harness::{train_distributed, TrainConfig};
use gradcomp::train::task::LinearRegression;

/// Per-worker gradients for a small multi-layer "model".
fn worker_grads(workers: usize, seed: u64) -> Vec<Vec<Tensor>> {
    (0..workers as u64)
        .map(|w| {
            vec![
                Tensor::randn([16, 8], seed + w * 31),
                Tensor::randn([16], seed + w * 31 + 1),
                Tensor::randn([4, 16], seed + w * 31 + 2),
            ]
        })
        .collect()
}

/// One per-layer exchange of `method` on every rank of an in-process
/// cluster, rank `w` contributing `grads[w]`.
fn exchange_everywhere(
    method: &MethodConfig,
    grads: &[Vec<Tensor>],
) -> ExchangeResult<Vec<Vec<Tensor>>> {
    SimCluster::run(grads.len(), |worker| {
        let rank = worker.rank();
        Exchanger::new(worker, ExchangeConfig::per_layer(method.clone()))?.exchange(&grads[rank])
    })
    .into_iter()
    .collect()
}

#[test]
fn every_catalogue_method_exchanges_over_real_cluster() {
    for cfg in gradcomp::compress::registry::table1_methods() {
        let grads = worker_grads(3, 5);
        let outs =
            exchange_everywhere(&cfg, &grads).unwrap_or_else(|e| panic!("{cfg:?} failed: {e}"));
        assert_eq!(outs.len(), 3);
        // All workers decode the same gradients, with the right shapes.
        for w in 1..3 {
            assert_eq!(outs[0], outs[w], "{cfg:?} diverged across workers");
        }
        for (out, g) in outs[0].iter().zip(&grads[0]) {
            assert_eq!(out.shape(), g.shape());
            assert!(out.data().iter().all(|x| x.is_finite()));
        }
    }
}

#[test]
fn syncsgd_exchange_is_the_exact_mean() {
    let workers = 4;
    let grads = worker_grads(workers, 9);
    let outs = exchange_everywhere(&MethodConfig::SyncSgd, &grads).expect("exchange");
    for layer in 0..3 {
        let mut mean = Tensor::zeros(grads[0][layer].shape().clone());
        for w in &grads {
            mean.add_assign(&w[layer]).expect("same shapes");
        }
        mean.scale(1.0 / workers as f32);
        let err = stats::relative_l2_error(&mean, &outs[0][layer]);
        assert!(err < 1e-5, "layer {layer} error {err}");
    }
}

#[test]
fn distributed_training_loss_decreases_for_all_reducible_methods() {
    let task = LinearRegression::new(6, 96, 0.0, 3);
    let cfg = TrainConfig::new()
        .workers(3)
        .steps(120)
        .lr(0.1)
        .batch(8)
        .seed(2);
    for method in [
        MethodConfig::SyncSgd,
        MethodConfig::Fp16,
        MethodConfig::PowerSgd { rank: 2 },
        MethodConfig::RandomK { ratio: 0.5 },
    ] {
        let rep = train_distributed(&task, &method, &cfg).expect("training runs");
        assert!(
            rep.final_loss() < 0.2 * rep.initial_loss(),
            "{method:?}: {} -> {}",
            rep.initial_loss(),
            rep.final_loss()
        );
    }
}

#[test]
fn closed_form_and_event_schedule_agree_on_winner() {
    // Whatever the analytic model says about "does PowerSGD beat syncSGD",
    // the event simulator must agree, across the full grid.
    for model in presets::paper_models() {
        let batch = if model.name.starts_with("BERT") {
            12
        } else {
            64
        };
        for p in [8usize, 32, 96] {
            let sync_cfg = SimConfig::new(model.clone(), p).batch_per_worker(batch);
            let psgd_cfg = sync_cfg.clone().method(MethodConfig::PowerSgd { rank: 4 });
            let model_says =
                predict_iteration(&psgd_cfg).total_s < predict_iteration(&sync_cfg).total_s;
            let sim_says =
                simulate_iteration(&psgd_cfg).total_s < simulate_iteration(&sync_cfg).total_s;
            assert_eq!(
                model_says, sim_says,
                "{} p={p}: model and simulator disagree on the winner",
                model.name
            );
        }
    }
}

#[test]
fn compression_ratio_and_wire_bytes_are_consistent() {
    // The wire plan (used by the timing models) must agree with the bytes
    // the actual payloads serialize to, within framing overhead.
    use gradcomp::compress::Compressor;
    use gradcomp::ddp::wire::wire_plan;

    let model = presets::tiny_mlp(32, 64, 10);
    let grads: Vec<Tensor> = model
        .layers
        .iter()
        .enumerate()
        .map(|(i, l)| Tensor::randn(l.shape.clone(), i as u64))
        .collect();
    for method in [
        MethodConfig::SignSgd,
        MethodConfig::Fp16,
        MethodConfig::TernGrad,
        MethodConfig::Qsgd { levels: 15 },
        MethodConfig::TopK { ratio: 0.25 },
    ] {
        let plan_bytes = wire_plan(&method, &model).total_bytes();
        let mut compressor = method.build().expect("builds");
        let mut actual = 0usize;
        for (layer, g) in grads.iter().enumerate() {
            actual += compressor.encode(layer, g).expect("encode").wire_bytes();
        }
        let rel = (plan_bytes as f64 - actual as f64).abs() / actual as f64;
        assert!(
            rel < 0.1,
            "{method:?}: plan {plan_bytes} vs actual {actual} ({rel:.3})"
        );
    }
}

#[test]
fn weak_scaling_shapes_hold_end_to_end() {
    // The paper's central contrast in one test: scaling 8 -> 96 workers,
    // gather-based methods blow up, ring-based ones stay flat.
    let model = presets::resnet101();
    let slowdown = |method: MethodConfig| {
        let t8 =
            simulate_iteration(&SimConfig::new(model.clone(), 8).method(method.clone())).total_s;
        let t96 = simulate_iteration(&SimConfig::new(model.clone(), 96).method(method)).total_s;
        t96 / t8
    };
    assert!(slowdown(MethodConfig::SyncSgd) < 1.3);
    assert!(slowdown(MethodConfig::PowerSgd { rank: 4 }) < 1.3);
    assert!(slowdown(MethodConfig::SignSgd) > 2.0);
    assert!(slowdown(MethodConfig::TopK { ratio: 0.01 }) > 1.5);
}
