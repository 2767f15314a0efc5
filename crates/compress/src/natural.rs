//! Natural compression (Horváth et al., 2019 — citation \[30\] in the
//! paper's quantization survey).
//!
//! Each element is rounded to a signed power of two, *stochastically* so
//! the quantizer is unbiased: `x = ±2^e·(1+f)` rounds up to `±2^(e+1)`
//! with probability `f/1` (in log space: proportional split between the
//! bracketing powers). One sign bit + one exponent byte per element
//! (≈ 3.5–4x compression) and extremely cheap encode — the design point
//! the paper's Figure 13 argues for (minimal encode cost, moderate
//! compression).
//!
//! Exponent codes travel as `i8`: `code = 0` means zero, otherwise
//! `value = sign(code) * 2^(|code| - BIAS)` with `|code| in 1..=127`,
//! covering magnitudes from `2^-63` to `2^63`.

use crate::payload::Absorbed;
use crate::{CompressError, Compressor, Payload, Properties, Result};
use gcs_tensor::{Shape, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Exponent bias: `|code| - BIAS` is the power of two.
const BIAS: i32 = 64;

/// Encodes one value to its stochastic power-of-two code.
fn encode_value(x: f32, rng: &mut StdRng) -> i8 {
    if x == 0.0 || !x.is_finite() {
        return 0;
    }
    let mag = x.abs();
    let e_low = mag.log2().floor();
    let low = 2.0f32.powf(e_low);
    let high = low * 2.0;
    // P(round up) chosen so E[decode] = mag: p*high + (1-p)*low = mag.
    let p_up = (mag - low) / (high - low);
    let e = if rng.gen::<f32>() < p_up {
        e_low + 1.0
    } else {
        e_low
    };
    let code = (e as i32 + BIAS).clamp(1, 127);
    if x >= 0.0 {
        code as i8
    } else {
        (-code) as i8
    }
}

/// Decodes one power-of-two code.
fn decode_value(code: i8) -> f32 {
    if code == 0 {
        return 0.0;
    }
    let sign = if code > 0 { 1.0f32 } else { -1.0 };
    let e = i32::from(code.unsigned_abs()) - BIAS;
    sign * 2.0f32.powi(e)
}

/// Natural (power-of-two) compression.
#[derive(Debug)]
pub struct NaturalCompression {
    rng: StdRng,
    absorbed: Absorbed,
}

impl Default for NaturalCompression {
    fn default() -> Self {
        Self::new()
    }
}

impl NaturalCompression {
    /// Creates a natural-compression quantizer with a fixed default seed.
    pub fn new() -> Self {
        NaturalCompression {
            rng: StdRng::seed_from_u64(0x2a7a),
            absorbed: Absorbed::default(),
        }
    }

    /// Reseeds the stochastic rounding RNG.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng = StdRng::seed_from_u64(seed);
        self
    }
}

impl Compressor for NaturalCompression {
    fn properties(&self) -> Properties {
        Properties {
            name: "Natural compression".to_owned(),
            all_reducible: false,
            layerwise: true,
            rounds: 1,
        }
    }

    fn compressed_bytes(&self, shape: &Shape) -> usize {
        shape.numel() + 4
    }

    fn encode(&mut self, _layer: usize, grad: &Tensor) -> Result<Payload> {
        let levels: Vec<i8> = grad
            .data()
            .iter()
            .map(|&x| encode_value(x, &mut self.rng))
            .collect();
        Ok(Payload::Quantized { scale: 1.0, levels })
    }

    fn aggregate(&self, _round: usize, payloads: &[Payload]) -> Result<Payload> {
        if payloads.is_empty() {
            return Err(CompressError::EmptyAggregate);
        }
        let mut acc: Option<Vec<f32>> = None;
        for p in payloads {
            match p {
                Payload::Quantized { levels, .. } => {
                    let a = acc.get_or_insert_with(|| vec![0.0; levels.len()]);
                    if a.len() != levels.len() {
                        return Err(CompressError::Protocol(
                            "natural payloads disagree on length".into(),
                        ));
                    }
                    for (x, &c) in a.iter_mut().zip(levels) {
                        // Fused decode-and-add: the addend is synthesized
                        // per element, so no bulk kernel applies.
                        *x += decode_value(c); // lint: allow(raw-f32-accumulation)
                    }
                }
                other => {
                    return Err(CompressError::PayloadKind {
                        expected: "Quantized",
                        actual: other.kind_name(),
                    });
                }
            }
        }
        let Some(mut a) = acc else {
            return Err(CompressError::EmptyAggregate);
        };
        gcs_tensor::kernels::scale(&mut a, 1.0 / payloads.len() as f32);
        Ok(Payload::Dense(a))
    }

    fn absorb(&mut self, layer: usize, round: usize, agg: Payload) -> Result<()> {
        self.absorbed
            .absorb_dense("natural compression", layer, round, agg)
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
    fn exact_powers_of_two_round_trip_exactly() {
        let g = Tensor::from_vec(vec![1.0, -2.0, 0.5, 4.0, -0.25, 0.0]);
        let mut c = NaturalCompression::new();
        let out = round_trip(&mut c, 0, &g).unwrap();
        assert_eq!(out.data(), g.data());
    }

    #[test]
    fn decoded_values_bracket_the_input() {
        let g = Tensor::from_vec(vec![0.3, -0.7, 1.5, -3.3, 100.0]);
        let mut c = NaturalCompression::new();
        let out = round_trip(&mut c, 0, &g).unwrap();
        for (x, y) in g.data().iter().zip(out.data()) {
            assert_eq!(x.signum(), y.signum(), "sign preserved");
            let r = y.abs() / x.abs();
            assert!(
                (0.5..=2.0).contains(&r),
                "decoded {y} not within a binade of {x}"
            );
        }
    }

    #[test]
    fn quantizer_is_unbiased_in_expectation() {
        let g = Tensor::from_vec(vec![0.3, -0.7, 1.5, 12.0]);
        let mut acc = [0.0f64; 4];
        let trials = 6000;
        let mut c = NaturalCompression::new().with_seed(5);
        for _ in 0..trials {
            let out = round_trip(&mut c, 0, &g).unwrap();
            for (a, &x) in acc.iter_mut().zip(out.data()) {
                *a += f64::from(x);
            }
        }
        for (a, &x) in acc.iter().zip(g.data()) {
            let mean = a / f64::from(trials as u32);
            assert!(
                (mean - f64::from(x)).abs() < 0.04 * f64::from(x.abs()).max(0.1),
                "expected {x}, got {mean}"
            );
        }
    }

    #[test]
    fn compression_is_about_4x() {
        let c = NaturalCompression::new();
        let n = 4096;
        let ratio = (n * 4) as f64 / c.compressed_bytes(&Shape::new(vec![n])) as f64;
        assert!(ratio > 3.9, "ratio {ratio}");
    }

    #[test]
    fn extreme_magnitudes_clamp_without_panicking() {
        let g = Tensor::from_vec(vec![1e30, -1e30, 1e-30, f32::MIN_POSITIVE]);
        let mut c = NaturalCompression::new();
        let out = round_trip(&mut c, 0, &g).unwrap();
        assert!(out.data().iter().all(|x| x.is_finite()));
    }
}
