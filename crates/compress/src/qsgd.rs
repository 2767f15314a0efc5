//! QSGD stochastic quantization (Alistarh et al., 2017).
//!
//! Each element is quantized to one of `s` levels of `‖g‖₂` with stochastic
//! rounding, which makes the quantizer unbiased: `E[decode(encode(g))] = g`.
//! Per-worker scales differ, so the aggregation is not associative and the
//! method falls in the all-gather column of Table 1.

use crate::payload::Absorbed;
use crate::{CompressError, Compressor, Payload, Properties, Result};
use gcs_tensor::{Shape, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// QSGD quantizer with `s` levels (at most 127 so levels fit in `i8`).
#[derive(Debug)]
pub struct Qsgd {
    levels: u8,
    rng: StdRng,
    absorbed: Absorbed,
}

impl Qsgd {
    /// Creates a QSGD quantizer with `levels` quantization levels
    /// (`s` in the paper's notation; 4-bit QSGD ≈ 15 levels).
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::InvalidConfig`] if `levels` is 0 or above
    /// 127.
    pub fn new(levels: u8) -> Result<Self> {
        if levels == 0 || levels > 127 {
            return Err(CompressError::InvalidConfig(format!(
                "QSGD levels must be in 1..=127, got {levels}"
            )));
        }
        Ok(Qsgd {
            levels,
            rng: StdRng::seed_from_u64(0x515d),
            absorbed: Absorbed::default(),
        })
    }

    /// Reseeds the stochastic-rounding RNG (give each worker its rank for
    /// independent rounding noise).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng = StdRng::seed_from_u64(seed);
        self
    }

    /// Quantizes a dense vector into levels plus scale.
    fn quantize(&mut self, data: &[f32]) -> (f32, Vec<i8>) {
        let norm: f32 = data.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm == 0.0 {
            return (0.0, vec![0; data.len()]);
        }
        let s = self.levels as f32;
        let levels = data
            .iter()
            .map(|&x| {
                let t = x.abs() / norm * s; // in [0, s]
                let low = t.floor();
                let frac = t - low;
                let level = if self.rng.gen::<f32>() < frac {
                    low + 1.0
                } else {
                    low
                };
                let signed = level * x.signum();
                signed.clamp(-127.0, 127.0) as i8
            })
            .collect();
        (norm / s, levels)
    }
}

fn dequantize(scale: f32, levels: &[i8]) -> Vec<f32> {
    levels.iter().map(|&l| l as f32 * scale).collect()
}

impl Compressor for Qsgd {
    fn properties(&self) -> Properties {
        Properties {
            name: format!("QSGD ({} levels)", self.levels),
            all_reducible: false,
            layerwise: true,
            rounds: 1,
        }
    }

    fn compressed_bytes(&self, shape: &Shape) -> usize {
        // One i8 level per element + scale. (The original paper Elias-codes
        // levels; we charge the simpler fixed-width layout we actually use.)
        shape.numel() + 4
    }

    fn encode(&mut self, _layer: usize, grad: &Tensor) -> Result<Payload> {
        let (scale, levels) = self.quantize(grad.data());
        Ok(Payload::Quantized { scale, levels })
    }

    fn aggregate(&self, _round: usize, payloads: &[Payload]) -> Result<Payload> {
        crate::payload::decoded_mean(payloads, "Quantized", |p| match p {
            Payload::Quantized { scale, levels } => Some(Ok(dequantize(*scale, levels))),
            _ => None,
        })
    }

    fn absorb(&mut self, layer: usize, round: usize, agg: Payload) -> Result<()> {
        self.absorbed.absorb_dense("QSGD", layer, round, agg)
    }

    fn finish(&mut self, layer: usize, shape: &Shape) -> Result<Tensor> {
        self.absorbed.finish_dense(layer, shape)
    }

    fn reset(&mut self) {
        self.absorbed.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::round_trip;

    #[test]
    fn rejects_bad_levels() {
        assert!(Qsgd::new(0).is_err());
        assert!(Qsgd::new(128).is_err());
        assert!(Qsgd::new(127).is_ok());
    }

    #[test]
    fn zero_vector_stays_zero() {
        let g = Tensor::zeros([32]);
        let mut c = Qsgd::new(15).unwrap();
        let out = round_trip(&mut c, 0, &g).unwrap();
        assert!(out.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn quantizer_is_unbiased_in_expectation() {
        let g = Tensor::from_vec(vec![0.3, -0.7, 0.05, 0.9]);
        let mut acc = [0.0f64; 4];
        let trials = 4000;
        let mut c = Qsgd::new(4).unwrap().with_seed(123);
        for _ in 0..trials {
            let out = round_trip(&mut c, 0, &g).unwrap();
            for (a, &x) in acc.iter_mut().zip(out.data()) {
                *a += x as f64;
            }
        }
        for (a, &x) in acc.iter().zip(g.data()) {
            let mean = a / trials as f64;
            assert!(
                (mean - x as f64).abs() < 0.02,
                "expected {x}, got mean {mean}"
            );
        }
    }

    #[test]
    fn quantized_levels_bounded_by_s() {
        let g = Tensor::randn([4096], 6);
        let mut c = Qsgd::new(15).unwrap();
        let p = c.encode(0, &g).unwrap();
        let Payload::Quantized { levels, .. } = p else {
            panic!("wrong payload kind")
        };
        // Stochastic rounding can exceed s by at most one step at the max
        // element (t = s exactly rounds up is impossible; frac = 0).
        assert!(levels.iter().all(|&l| l.unsigned_abs() <= 16));
    }

    #[test]
    fn error_bounded_by_scale() {
        let g = Tensor::randn([512], 7);
        let mut c = Qsgd::new(64).unwrap();
        let out = round_trip(&mut c, 0, &g).unwrap();
        let step = g.l2_norm() / 64.0;
        for (a, b) in g.data().iter().zip(out.data()) {
            assert!((a - b).abs() <= step + 1e-5);
        }
    }

    #[test]
    fn compressed_is_about_4x() {
        let c = Qsgd::new(15).unwrap();
        let n = 4096;
        let bytes = c.compressed_bytes(&Shape::new(vec![n]));
        assert!(((n * 4) as f64 / bytes as f64) > 3.9);
    }

    #[test]
    fn aggregate_rejects_foreign() {
        let c = Qsgd::new(15).unwrap();
        assert!(c.aggregate(0, &[Payload::Dense(vec![1.0])]).is_err());
    }
}
