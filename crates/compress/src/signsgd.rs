//! SignSGD with majority vote (Bernstein et al., 2018).
//!
//! Encode transmits one sign bit per 32-bit element (32x compression), and
//! aggregation is the per-coordinate majority `sign(Σᵢ sign(gᵢ))`. The
//! majority operator is **not associative**, so the method is not
//! all-reduce compatible — in the paper this is what makes its
//! communication grow linearly with worker count (Figure 6).

use crate::payload::Absorbed;
use crate::{CompressError, Compressor, Payload, Properties, Result};
use gcs_tensor::bits::{MajorityVote, SignBits};
use gcs_tensor::{Shape, Tensor};
use std::collections::HashMap;

/// How decoded signs are scaled back to gradient magnitudes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SignScale {
    /// Decode to `±1` and let the learning rate carry the magnitude — the
    /// original SignSGD formulation.
    #[default]
    Unit,
    /// Decode to `± mean(|g|)` (the EF-SignSGD scaling of Karimireddy et
    /// al.), which preserves the gradient's L1 mass and is required for
    /// error feedback to converge.
    MeanAbs,
}

/// SignSGD with majority-vote aggregation and optional error feedback.
///
/// # Example
///
/// ```
/// use gcs_compress::signsgd::SignSgd;
/// use gcs_compress::{driver::round_trip, Compressor};
/// use gcs_tensor::Tensor;
///
/// # fn main() -> Result<(), gcs_compress::CompressError> {
/// let mut c = SignSgd::new();
/// let g = Tensor::from_vec(vec![0.3, -0.7]);
/// let out = round_trip(&mut c, 0, &g)?;
/// assert_eq!(out.data(), &[1.0, -1.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct SignSgd {
    scale: SignScale,
    error_feedback: bool,
    /// Error-feedback memory per layer.
    residual: HashMap<usize, Tensor>,
    /// The majority's sign words, length and scale, awaiting `finish`.
    absorbed: Absorbed<(Vec<u32>, usize, f32)>,
}

impl SignSgd {
    /// Creates SignSGD with unit scaling and no error feedback (the variant
    /// benchmarked in the paper).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates EF-SignSGD: mean-absolute scaling plus error feedback.
    pub fn with_error_feedback() -> Self {
        SignSgd {
            scale: SignScale::MeanAbs,
            error_feedback: true,
            ..Self::default()
        }
    }

    /// Sets the decode scaling mode.
    pub fn scale_mode(mut self, scale: SignScale) -> Self {
        self.scale = scale;
        self
    }

    fn scale_for(&self, v: &Tensor) -> f32 {
        match self.scale {
            SignScale::Unit => 1.0,
            SignScale::MeanAbs => {
                if v.numel() == 0 {
                    0.0
                } else {
                    v.l1_norm() / v.numel() as f32
                }
            }
        }
    }
}

impl Compressor for SignSgd {
    fn properties(&self) -> Properties {
        Properties {
            name: if self.error_feedback {
                "EF-SignSGD".to_owned()
            } else {
                "SignSGD".to_owned()
            },
            all_reducible: false,
            layerwise: true,
            rounds: 1,
        }
    }

    fn compressed_bytes(&self, shape: &Shape) -> usize {
        shape.numel().div_ceil(32) * 4 + 4
    }

    fn encode(&mut self, layer: usize, grad: &Tensor) -> Result<Payload> {
        if !self.error_feedback {
            // Fast path: pack directly from the gradient, no copies.
            let bits = SignBits::pack(grad.data());
            let scale = self.scale_for(grad);
            return Ok(Payload::Signs {
                len: bits.len(),
                words: bits.into_words(),
                scale,
            });
        }
        // v = residual + gradient, built in the layer's residual buffer (a
        // layer's first encode starts from a copy of the gradient). The sum
        // commutes exactly, so this is the `g + e` of the EF update.
        let numel = grad.numel();
        let mut v = match self.residual.remove(&layer) {
            Some(e) if e.numel() != numel => {
                self.residual.insert(layer, e);
                return Err(CompressError::Protocol(format!(
                    "residual shape mismatch for layer {layer}"
                )));
            }
            Some(e) => {
                let mut v = e.into_vec();
                gcs_tensor::kernels::add_assign(&mut v, grad.data());
                v
            }
            None => grad.data().to_vec(),
        };
        let bits = SignBits::pack(&v);
        let scale = match self.scale {
            SignScale::Unit => 1.0,
            SignScale::MeanAbs => {
                if numel == 0 {
                    0.0
                } else {
                    gcs_tensor::kernels::sum_abs(&v) / numel as f32
                }
            }
        };
        // residual = v - decode(bits): decode is `+scale` exactly when
        // `v >= 0` (the pack convention), so it is rewritten in place.
        for x in &mut v {
            *x -= if *x >= 0.0 { scale } else { -scale };
        }
        self.residual
            .insert(layer, Tensor::from_shape_vec(grad.shape().clone(), v)?);
        Ok(Payload::Signs {
            len: bits.len(),
            words: bits.into_words(),
            scale,
        })
    }

    fn aggregate(&self, _round: usize, payloads: &[Payload]) -> Result<Payload> {
        // Every payload is checked before the first vote is counted.
        let (len, signs) = crate::payload::agreed_views(payloads, "Signs", |p| match p {
            Payload::Signs { words, len, scale } => Some((*len, (words, *scale))),
            _ => None,
        })?;
        let mut vote = MajorityVote::new(len);
        let mut scale_sum = 0.0f32;
        for (words, scale) in signs {
            vote.add(&SignBits::from_words(words.clone(), len));
            scale_sum += scale;
        }
        let bits = vote.majority_bits();
        Ok(Payload::Signs {
            len,
            words: bits.into_words(),
            scale: scale_sum / payloads.len() as f32,
        })
    }

    fn absorb(&mut self, layer: usize, round: usize, agg: Payload) -> Result<()> {
        self.absorbed
            .absorb("SignSGD", layer, round, agg, "Signs", |p| match p {
                Payload::Signs { words, len, scale } => Some((words, len, scale)),
                _ => None,
            })
    }

    fn finish(&mut self, layer: usize, shape: &Shape) -> Result<Tensor> {
        let (words, len, scale) = self.absorbed.take(layer)?;
        let bits = SignBits::from_words(words, len);
        Tensor::from_shape_vec(shape.clone(), bits.unpack(scale)).map_err(Into::into)
    }

    fn reset(&mut self) {
        self.residual.clear();
        self.absorbed.clear();
    }

    fn take_residual(&mut self, layer: usize) -> Option<Tensor> {
        if !self.error_feedback {
            return None;
        }
        self.residual.remove(&layer)
    }

    fn inject_residual(&mut self, layer: usize, residual: Tensor) -> Result<bool> {
        if !self.error_feedback {
            return Ok(false);
        }
        // Stored flat; `encode` adds by element count (a count mismatch
        // after a layer shape change is rejected there).
        self.residual
            .insert(layer, Tensor::from_vec(residual.into_vec()));
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::all_reduce_compressed;

    #[test]
    fn properties_not_all_reducible() {
        let p = SignSgd::new().properties();
        assert!(!p.all_reducible);
        assert!(p.layerwise);
    }

    #[test]
    fn compression_is_about_32x() {
        let c = SignSgd::new();
        let n = 32 * 1024;
        let bytes = c.compressed_bytes(&Shape::new(vec![n]));
        let ratio = (n * 4) as f64 / bytes as f64;
        assert!(ratio > 31.0 && ratio <= 32.0, "ratio {ratio}");
    }

    #[test]
    fn majority_vote_across_three_workers() {
        // Coordinate 0: 2/3 negative -> -1; coordinate 1: 2/3 positive -> +1.
        let grads = vec![
            Tensor::from_vec(vec![-1.0, 2.0]),
            Tensor::from_vec(vec![-0.5, -0.1]),
            Tensor::from_vec(vec![3.0, 0.4]),
        ];
        let mut workers: Vec<SignSgd> = (0..3).map(|_| SignSgd::new()).collect();
        let outs = all_reduce_compressed(&mut workers, 0, &grads).unwrap();
        for out in &outs {
            assert_eq!(out.data(), &[-1.0, 1.0]);
        }
    }

    #[test]
    fn mean_abs_scale_preserves_l1_mass() {
        let g = Tensor::from_vec(vec![2.0, -2.0, 2.0, -2.0]);
        let mut c = SignSgd::new().scale_mode(SignScale::MeanAbs);
        let out = crate::driver::round_trip(&mut c, 0, &g).unwrap();
        assert!((out.l1_norm() - g.l1_norm()).abs() < 1e-5);
    }

    #[test]
    fn error_feedback_accumulates_residual() {
        // A coordinate whose magnitude is below the mean keeps its residual;
        // compressing twice with EF must track it.
        let g = Tensor::from_vec(vec![0.1, -4.0]);
        let mut c = SignSgd::with_error_feedback();
        let _ = crate::driver::round_trip(&mut c, 0, &g).unwrap();
        let res = c.residual.get(&0).expect("residual stored");
        // residual = g - scale*sign(g), scale = (0.1+4)/2 = 2.05
        assert!((res.data()[0] - (0.1 - 2.05)).abs() < 1e-4);
        assert!((res.data()[1] - (-4.0 + 2.05)).abs() < 1e-4);
    }

    #[test]
    fn ef_residual_plus_decoded_equals_input() {
        let g = Tensor::randn([128], 9);
        let mut c = SignSgd::with_error_feedback();
        let p = c.encode(0, &g).unwrap();
        let agg = c.aggregate(0, std::slice::from_ref(&p)).unwrap();
        c.absorb(0, 0, agg).unwrap();
        let out = c.finish(0, g.shape()).unwrap();
        let res = c.residual.get(&0).unwrap();
        let sum = out.add(res).unwrap();
        let err = gcs_tensor::stats::relative_l2_error(&g, &sum);
        assert!(
            err < 1e-5,
            "decode + residual must reconstruct input: {err}"
        );
    }

    #[test]
    fn aggregate_rejects_mismatched_lengths() {
        let signs = |len: usize| Payload::Signs {
            words: vec![0; len.div_ceil(32)],
            len,
            scale: 1.0,
        };
        let c = SignSgd::new();
        assert!(matches!(
            c.aggregate(0, &[signs(40), signs(33)]),
            Err(CompressError::Protocol(_))
        ));
        assert!(matches!(
            c.aggregate(0, &[signs(40), signs(40), signs(64)]),
            Err(CompressError::Protocol(_))
        ));
        assert!(c.aggregate(0, &[signs(40), signs(40)]).is_ok());
    }

    #[test]
    fn ef_residual_of_another_size_is_rejected_and_kept() {
        let mut c = SignSgd::with_error_feedback();
        assert!(c
            .inject_residual(0, Tensor::from_vec(vec![0.5; 3]))
            .unwrap());
        let err = c.encode(0, &Tensor::from_vec(vec![1.0; 4])).unwrap_err();
        assert!(matches!(err, CompressError::Protocol(_)), "{err:?}");
        assert_eq!(c.residual.get(&0).unwrap().data(), &[0.5; 3]);
    }

    #[test]
    fn aggregate_rejects_foreign_payloads() {
        let c = SignSgd::new();
        assert!(c.aggregate(0, &[Payload::Dense(vec![1.0])]).is_err());
        assert!(c.aggregate(0, &[]).is_err());
    }
}
