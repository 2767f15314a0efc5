//! The pipelined engine must be bit-identical to the sequential engine
//! and numerically equal to the centralized reference driver for every
//! method in the registry.
//!
//! Strategy: run both engines with a single giant bucket
//! (`bucket_bytes = usize::MAX`) so the whole model is one flat tensor.
//! That makes the reference-driver comparison well-defined too: the
//! driver is layer-wise, so we hand it the same flat concatenation as one
//! "layer". Pipelined vs. sequential is asserted with exact bit equality;
//! vs. the reference driver with f32 tolerance (the ring reduces in a
//! different association order than the driver's sequential sum).

use gcs_cluster::SimCluster;
use gcs_compress::driver::all_reduce_compressed;
use gcs_compress::registry::MethodConfig;
use gcs_ddp::exec::exchange_gradients_bucketed;
use gcs_ddp::{PipelineConfig, PipelinedEngine};
use gcs_tensor::Tensor;

const WORLD: usize = 4;

/// Every variant of `MethodConfig`, with representative parameters.
fn registry() -> Vec<MethodConfig> {
    vec![
        MethodConfig::SyncSgd,
        MethodConfig::Fp16,
        MethodConfig::PowerSgd { rank: 2 },
        MethodConfig::TopK { ratio: 0.2 },
        MethodConfig::SignSgd,
        MethodConfig::EfSignSgd,
        MethodConfig::Qsgd { levels: 15 },
        MethodConfig::TernGrad,
        MethodConfig::RandomK { ratio: 0.25 },
        MethodConfig::Atomo { rank: 2 },
        MethodConfig::OneBit,
        MethodConfig::Sketch { block: 4 },
        MethodConfig::Dgc { ratio: 0.05 },
        MethodConfig::Variance { kappa: 1.0 },
        MethodConfig::Natural,
    ]
}

fn shapes() -> Vec<Vec<usize>> {
    vec![vec![6, 10], vec![33], vec![4, 4, 3, 3]]
}

fn make_grads(rank: usize) -> Vec<Tensor> {
    shapes()
        .iter()
        .enumerate()
        .map(|(l, s)| Tensor::randn(s.clone(), 42 + (rank * 131 + l) as u64))
        .collect()
}

fn flat_concat(grads: &[Tensor]) -> Tensor {
    // The bucketed engines pack in backward (reverse-layer) order.
    let mut flat = Vec::new();
    for g in grads.iter().rev() {
        flat.extend_from_slice(g.data());
    }
    Tensor::from_vec(flat)
}

#[test]
fn pipelined_matches_sequential_and_reference_for_every_method() {
    for method in registry() {
        let sequential = SimCluster::run(WORLD, |w| {
            let mut c = method.build().unwrap();
            let grads = make_grads(w.rank());
            exchange_gradients_bucketed(&w, &mut c, &grads, usize::MAX).unwrap()
        });
        let pipelined = SimCluster::run(WORLD, |w| {
            let c = method.build().unwrap();
            let grads = make_grads(w.rank());
            let mut eng = PipelinedEngine::new(
                w,
                c,
                PipelineConfig {
                    bucket_bytes: usize::MAX,
                    depth: 2,
                    matricize: false,
                },
            )
            .unwrap();
            let out = eng.exchange(&grads).unwrap();
            let _ = eng.into_parts();
            out
        });

        // 1. Pipelined == sequential, bit for bit, every worker and layer.
        for (rank, (seq, pipe)) in sequential.iter().zip(&pipelined).enumerate() {
            for (layer, (s, p)) in seq.iter().zip(pipe).enumerate() {
                let sb: Vec<u32> = s.data().iter().map(|x| x.to_bits()).collect();
                let pb: Vec<u32> = p.data().iter().map(|x| x.to_bits()).collect();
                assert_eq!(
                    sb, pb,
                    "{method:?} worker {rank} layer {layer}: pipelined deviates from sequential"
                );
            }
        }

        // 2. Both engines vs. the centralized reference driver on the same
        // flat concatenation treated as one layer.
        let tol = if method == MethodConfig::Fp16 {
            2e-3
        } else {
            1e-4
        };
        let mut ref_workers: Vec<_> = (0..WORLD).map(|_| method.build().unwrap()).collect();
        let flat_grads: Vec<Tensor> = (0..WORLD).map(|r| flat_concat(&make_grads(r))).collect();
        let ref_out = all_reduce_compressed(&mut ref_workers, 0, &flat_grads).unwrap();
        for (rank, pipe) in pipelined.iter().enumerate() {
            let engine_flat = flat_concat(pipe);
            let reference = &ref_out[rank];
            assert_eq!(engine_flat.numel(), reference.numel());
            let ref_norm = reference
                .data()
                .iter()
                .map(|x| (*x as f64) * (*x as f64))
                .sum::<f64>()
                .sqrt();
            let err = engine_flat
                .data()
                .iter()
                .zip(reference.data())
                .map(|(a, b)| ((a - b) as f64) * ((a - b) as f64))
                .sum::<f64>()
                .sqrt();
            let rel = err / ref_norm.max(1e-12);
            assert!(
                rel < tol,
                "{method:?} worker {rank}: engine deviates from reference driver (rel {rel})"
            );
        }
    }
}
