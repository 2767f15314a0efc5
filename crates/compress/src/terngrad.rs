//! TernGrad ternary quantization (Wen et al., 2017).
//!
//! Elements are stochastically quantized to `{-1, 0, +1} · max|g|`,
//! transmitted 2 bits per element (16x compression). Per-worker scales make
//! the aggregation non-associative (Table 1: not all-reducible).

use crate::payload::Absorbed;
use crate::{Compressor, Payload, Properties, Result};
use gcs_tensor::{Shape, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// 2-bit codes used in the packed representation.
const CODE_ZERO: u8 = 0b00;
const CODE_POS: u8 = 0b01;
const CODE_NEG: u8 = 0b10;

/// Packs ternary values (one of the `CODE_*` constants) four per byte.
fn pack_ternary(codes: &[u8]) -> Vec<u8> {
    let mut out = vec![0u8; codes.len().div_ceil(4)];
    for (i, &c) in codes.iter().enumerate() {
        out[i / 4] |= (c & 0b11) << ((i % 4) * 2);
    }
    out
}

/// Unpacks `len` ternary codes.
fn unpack_ternary(packed: &[u8], len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (packed[i / 4] >> ((i % 4) * 2)) & 0b11)
        .collect()
}

/// TernGrad compressor.
#[derive(Debug)]
pub struct TernGrad {
    rng: StdRng,
    absorbed: Absorbed,
}

impl Default for TernGrad {
    fn default() -> Self {
        Self::new()
    }
}

impl TernGrad {
    /// Creates a TernGrad compressor with a fixed default RNG seed.
    pub fn new() -> Self {
        TernGrad {
            rng: StdRng::seed_from_u64(0x7e47),
            absorbed: Absorbed::default(),
        }
    }

    /// Reseeds the stochastic quantization RNG (use the worker rank).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng = StdRng::seed_from_u64(seed);
        self
    }
}

impl Compressor for TernGrad {
    fn properties(&self) -> Properties {
        Properties {
            name: "TernGrad".to_owned(),
            all_reducible: false,
            layerwise: true,
            rounds: 1,
        }
    }

    fn compressed_bytes(&self, shape: &Shape) -> usize {
        shape.numel().div_ceil(4) + 4
    }

    fn encode(&mut self, _layer: usize, grad: &Tensor) -> Result<Payload> {
        let scale = grad.linf_norm();
        let len = grad.numel();
        if scale == 0.0 {
            return Ok(Payload::Ternary {
                len,
                scale: 0.0,
                packed: vec![0; len.div_ceil(4)],
            });
        }
        let codes: Vec<u8> = grad
            .data()
            .iter()
            .map(|&x| {
                // P(keep sign) = |x| / scale; unbiased: E = x.
                if self.rng.gen::<f32>() < x.abs() / scale {
                    if x >= 0.0 {
                        CODE_POS
                    } else {
                        CODE_NEG
                    }
                } else {
                    CODE_ZERO
                }
            })
            .collect();
        Ok(Payload::Ternary {
            len,
            scale,
            packed: pack_ternary(&codes),
        })
    }

    fn aggregate(&self, _round: usize, payloads: &[Payload]) -> Result<Payload> {
        let (len, ternaries) = crate::payload::agreed_views(payloads, "Ternary", |p| match p {
            Payload::Ternary { len, scale, packed } => Some((*len, (*scale, packed))),
            _ => None,
        })?;
        let mut a = vec![0.0; len];
        for (scale, packed) in ternaries {
            let codes = unpack_ternary(packed, len);
            for (x, c) in a.iter_mut().zip(&codes) {
                // Fused decode-and-add: the addend is synthesized per
                // element, so no bulk kernel applies.
                // lint: allow(raw-f32-accumulation)
                *x += match *c {
                    CODE_POS => scale,
                    CODE_NEG => -scale,
                    _ => 0.0,
                };
            }
        }
        gcs_tensor::kernels::scale(&mut a, 1.0 / payloads.len() as f32);
        Ok(Payload::Dense(a))
    }

    fn absorb(&mut self, layer: usize, round: usize, agg: Payload) -> Result<()> {
        self.absorbed.absorb_dense("TernGrad", layer, round, agg)
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
    fn forged_ternary_length_is_a_protocol_error() {
        let ternary = |len| Payload::Ternary {
            len,
            scale: 0.5,
            packed: vec![0b0110],
        };
        crate::payload::tests::assert_forged_length_refused(
            &TernGrad::new(),
            ternary(4),
            ternary(1 << 40),
        );
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let codes = vec![
            CODE_POS, CODE_NEG, CODE_ZERO, CODE_POS, CODE_NEG, CODE_NEG, CODE_ZERO,
        ];
        assert_eq!(unpack_ternary(&pack_ternary(&codes), codes.len()), codes);
    }

    #[test]
    fn zero_gradient_roundtrips_to_zero() {
        let g = Tensor::zeros([17]);
        let mut c = TernGrad::new();
        let out = round_trip(&mut c, 0, &g).unwrap();
        assert!(out.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn outputs_take_only_three_values() {
        let g = Tensor::randn([256], 11);
        let scale = g.linf_norm();
        let mut c = TernGrad::new();
        let out = round_trip(&mut c, 0, &g).unwrap();
        for &x in out.data() {
            let ok = x == 0.0 || (x - scale).abs() < 1e-6 || (x + scale).abs() < 1e-6;
            assert!(ok, "unexpected value {x}");
        }
    }

    #[test]
    fn quantizer_is_unbiased_in_expectation() {
        let g = Tensor::from_vec(vec![0.5, -0.25, 1.0, 0.0]);
        let mut acc = [0.0f64; 4];
        let trials = 4000;
        let mut c = TernGrad::new().with_seed(77);
        for _ in 0..trials {
            let out = round_trip(&mut c, 0, &g).unwrap();
            for (a, &x) in acc.iter_mut().zip(out.data()) {
                *a += x as f64;
            }
        }
        for (a, &x) in acc.iter().zip(g.data()) {
            let mean = a / trials as f64;
            assert!((mean - x as f64).abs() < 0.05, "expected {x}, got {mean}");
        }
    }

    #[test]
    fn compression_is_about_16x() {
        let c = TernGrad::new();
        let n = 4096;
        let bytes = c.compressed_bytes(&Shape::new(vec![n]));
        let ratio = (n * 4) as f64 / bytes as f64;
        assert!(ratio > 15.0 && ratio <= 16.0, "ratio {ratio}");
    }

    #[test]
    fn table1_says_not_all_reducible() {
        assert!(!TernGrad::new().properties().all_reducible);
    }
}
