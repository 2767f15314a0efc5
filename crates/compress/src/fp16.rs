//! Half-precision gradient communication — the "often a 2x reduction is all
//! you need" baseline from the paper's takeaway #1.

use crate::payload::Absorbed;
use crate::{Compressor, Payload, Properties, Result};
use gcs_tensor::f16::{decode_f16, encode_f16};
use gcs_tensor::{Shape, Tensor};

/// Communicates gradients as IEEE binary16, aggregated by an fp16-native
/// all-reduce (sums computed in `f32`, re-rounded to fp16 per hop —
/// matching NCCL's behaviour).
///
/// All-reducible, layer-wise, 2x compression, and near-zero encode cost —
/// the paper's Finding 1 notes that in >10 Gbps datacenters this is often
/// all the compression that is useful.
#[derive(Debug, Default)]
pub struct Fp16 {
    absorbed: Absorbed<Vec<u16>>,
}

impl Fp16 {
    /// Creates the half-precision compressor.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Compressor for Fp16 {
    fn properties(&self) -> Properties {
        Properties {
            name: "FP16".to_owned(),
            all_reducible: true,
            layerwise: true,
            rounds: 1,
        }
    }

    fn compressed_bytes(&self, shape: &Shape) -> usize {
        shape.numel() * 2
    }

    fn encode(&mut self, _layer: usize, grad: &Tensor) -> Result<Payload> {
        Ok(Payload::Half(encode_f16(grad.data())))
    }

    fn aggregate(&self, _round: usize, payloads: &[Payload]) -> Result<Payload> {
        crate::payload::summable_mean(payloads)
    }

    fn absorb(&mut self, layer: usize, round: usize, agg: Payload) -> Result<()> {
        self.absorbed
            .absorb("FP16", layer, round, agg, "Half", |p| match p {
                Payload::Half(v) => Some(v),
                _ => None,
            })
    }

    fn finish(&mut self, layer: usize, shape: &Shape) -> Result<Tensor> {
        let v = self.absorbed.take(layer)?;
        Tensor::from_shape_vec(shape.clone(), decode_f16(&v)).map_err(Into::into)
    }

    fn reset(&mut self) {
        self.absorbed.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{all_reduce_compressed, round_trip};

    #[test]
    fn round_trip_error_is_half_precision_small() {
        let g = Tensor::randn([1000], 4);
        let mut c = Fp16::new();
        let out = round_trip(&mut c, 0, &g).unwrap();
        let err = gcs_tensor::stats::relative_l2_error(&g, &out);
        assert!(err < 1e-3, "relative error {err}");
    }

    #[test]
    fn multi_worker_mean_is_close_to_exact() {
        let grads: Vec<Tensor> = (0..4).map(|s| Tensor::randn([256], s)).collect();
        let mut exact = Tensor::zeros([256]);
        for g in &grads {
            exact.add_assign(g).unwrap();
        }
        exact.scale(0.25);
        let mut workers: Vec<Fp16> = (0..4).map(|_| Fp16::new()).collect();
        let outs = all_reduce_compressed(&mut workers, 0, &grads).unwrap();
        let err = gcs_tensor::stats::relative_l2_error(&exact, &outs[0]);
        assert!(err < 5e-3, "relative error {err}");
    }

    #[test]
    fn exactly_half_the_bytes() {
        let c = Fp16::new();
        assert_eq!(c.compressed_bytes(&Shape::new(vec![512])), 1024);
    }

    #[test]
    fn wrong_payload_kind_rejected() {
        let mut c = Fp16::new();
        assert!(c.absorb(0, 0, Payload::Dense(vec![1.0])).is_err());
    }
}
