//! 1-bit SGD (Seide et al., 2014) — the earliest scheme the paper cites.
//!
//! Each element is bucketed by sign; the positive bucket is reconstructed
//! by the mean of its members and likewise the negative bucket. Error
//! feedback is integral to the original algorithm and always on here.
//! Reconstruction values differ per worker, so aggregation needs
//! all-gather.

use crate::payload::Absorbed;
use crate::{Compressor, Payload, Properties, Result};
use gcs_tensor::bits::SignBits;
use gcs_tensor::{Shape, Tensor};
use std::collections::HashMap;

/// 1-bit SGD compressor (error feedback built in, as in the original).
#[derive(Debug, Default)]
pub struct OneBitSgd {
    residual: HashMap<usize, Tensor>,
    absorbed: Absorbed,
}

impl OneBitSgd {
    /// Creates a 1-bit SGD compressor.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_means(v: &[f32]) -> (f32, f32) {
        let (mut pos_sum, mut pos_n, mut neg_sum, mut neg_n) = (0.0f64, 0usize, 0.0f64, 0usize);
        for &x in v {
            if x >= 0.0 {
                pos_sum += x as f64;
                pos_n += 1;
            } else {
                neg_sum += x as f64;
                neg_n += 1;
            }
        }
        let pos = if pos_n > 0 {
            (pos_sum / pos_n as f64) as f32
        } else {
            0.0
        };
        let neg = if neg_n > 0 {
            (neg_sum / neg_n as f64) as f32
        } else {
            0.0
        };
        (neg, pos)
    }
}

impl Compressor for OneBitSgd {
    fn properties(&self) -> Properties {
        Properties {
            name: "1-bit SGD".to_owned(),
            all_reducible: false,
            layerwise: true,
            rounds: 1,
        }
    }

    fn compressed_bytes(&self, shape: &Shape) -> usize {
        shape.numel().div_ceil(32) * 4 + 8
    }

    fn encode(&mut self, layer: usize, grad: &Tensor) -> Result<Payload> {
        let v = match self.residual.get(&layer) {
            Some(e) => grad.add(e)?,
            None => grad.clone(),
        };
        let bits = SignBits::pack(v.data());
        let (neg, pos) = Self::bucket_means(v.data());
        // Residual: v minus own reconstruction (accumulating unpack of the
        // negated bucket means — one vectorized pass, no recon buffer).
        let mut res = v.clone();
        bits.unpack_add_into(-neg, -pos, res.data_mut());
        self.residual.insert(layer, res);
        Ok(Payload::TwoScale {
            len: bits.len(),
            words: bits.words().to_vec(),
            neg,
            pos,
        })
    }

    fn aggregate(&self, _round: usize, payloads: &[Payload]) -> Result<Payload> {
        let (len, halves) = crate::payload::agreed_views(payloads, "TwoScale", |p| match p {
            Payload::TwoScale {
                words,
                len,
                neg,
                pos,
            } => Some((*len, (words, *neg, *pos))),
            _ => None,
        })?;
        let mut a = vec![0.0; len];
        for (words, neg, pos) in halves {
            SignBits::from_words(words.clone(), len).unpack_add_into(neg, pos, &mut a);
        }
        gcs_tensor::kernels::scale(&mut a, 1.0 / payloads.len() as f32);
        Ok(Payload::Dense(a))
    }

    fn absorb(&mut self, layer: usize, round: usize, agg: Payload) -> Result<()> {
        self.absorbed.absorb_dense("1-bit SGD", layer, round, agg)
    }

    fn finish(&mut self, layer: usize, shape: &Shape) -> Result<Tensor> {
        self.absorbed.finish_dense(layer, shape)
    }

    fn reset(&mut self) {
        self.residual.clear();
        self.absorbed.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::round_trip;

    #[test]
    fn forged_two_scale_length_is_a_protocol_error() {
        let two_scale = |len| Payload::TwoScale {
            words: vec![0b1011],
            len,
            neg: -1.0,
            pos: 1.0,
        };
        crate::payload::tests::assert_forged_length_refused(
            &OneBitSgd::new(),
            two_scale(4),
            two_scale(1 << 40),
        );
    }

    #[test]
    fn reconstruction_preserves_bucket_means() {
        let g = Tensor::from_vec(vec![1.0, 3.0, -2.0, -4.0]);
        let mut c = OneBitSgd::new();
        let out = round_trip(&mut c, 0, &g).unwrap();
        assert_eq!(out.data(), &[2.0, 2.0, -3.0, -3.0]);
    }

    #[test]
    fn all_positive_gradient() {
        let g = Tensor::from_vec(vec![1.0, 2.0, 3.0]);
        let mut c = OneBitSgd::new();
        let out = round_trip(&mut c, 0, &g).unwrap();
        assert_eq!(out.data(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn error_feedback_reconstructs_mean_over_time() {
        let g = Tensor::randn([64], 41);
        let mut c = OneBitSgd::new();
        let mut applied = Tensor::zeros([64]);
        let steps = 50;
        for _ in 0..steps {
            let out = round_trip(&mut c, 0, &g).unwrap();
            applied.add_assign(&out).unwrap();
        }
        applied.scale(1.0 / steps as f32);
        let cos = gcs_tensor::stats::cosine_similarity(&g, &applied);
        assert!(cos > 0.9, "cosine {cos}");
    }

    #[test]
    fn about_32x_compression() {
        let c = OneBitSgd::new();
        let n = 32 * 256;
        let ratio = (n * 4) as f64 / c.compressed_bytes(&Shape::new(vec![n])) as f64;
        assert!(ratio > 31.0);
    }
}
