//! Variance-based sparsification (Tsuzuku et al., 2018 — §2.1 of the
//! paper: "recent work tracks the variance of each coordinate and only
//! communicates the gradient coordinates which have a variance less than
//! a specified threshold").
//!
//! Each worker maintains per-coordinate exponential moving estimates of
//! the gradient mean and second moment. A coordinate is *ambiguous* when
//! its magnitude is small relative to its estimated standard deviation —
//! such coordinates are deferred (accumulated in error-feedback memory)
//! and only confident coordinates are transmitted. Coordinate sets differ
//! per worker, so aggregation requires all-gather.

use crate::payload::Absorbed;
use crate::{CompressError, Compressor, Payload, Properties, Result};
use gcs_tensor::{Shape, Tensor};
use std::collections::HashMap;

/// Per-layer running statistics.
#[derive(Debug)]
struct LayerStats {
    ema_mean: Vec<f32>,
    ema_sq: Vec<f32>,
    residual: Vec<f32>,
    steps: u64,
}

/// Variance-based sparsifier with error feedback.
#[derive(Debug)]
pub struct VarianceSparsifier {
    /// Confidence multiplier κ: transmit when `|g| ≥ κ·σ`.
    kappa: f32,
    /// EMA decay for the moment estimates.
    beta: f32,
    layers: HashMap<usize, LayerStats>,
    absorbed: Absorbed,
}

impl VarianceSparsifier {
    /// Creates a sparsifier transmitting coordinates whose magnitude is at
    /// least `kappa` estimated standard deviations.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::InvalidConfig`] unless `kappa > 0`.
    pub fn new(kappa: f64) -> Result<Self> {
        if !(kappa.is_finite() && kappa > 0.0) {
            return Err(CompressError::InvalidConfig(format!(
                "variance kappa must be positive, got {kappa}"
            )));
        }
        Ok(VarianceSparsifier {
            kappa: kappa as f32,
            beta: 0.9,
            layers: HashMap::new(),
            absorbed: Absorbed::default(),
        })
    }

    /// The confidence multiplier.
    pub fn kappa(&self) -> f64 {
        f64::from(self.kappa)
    }
}

impl Compressor for VarianceSparsifier {
    fn properties(&self) -> Properties {
        Properties {
            name: format!("Variance-based (κ={:.1})", self.kappa),
            all_reducible: false,
            layerwise: true,
            rounds: 1,
        }
    }

    fn compressed_bytes(&self, shape: &Shape) -> usize {
        // Data dependent; for planning purposes assume ~10% survive (the
        // regime the original paper reports for κ≈1-2).
        ((shape.numel() as f64 * 0.10).round() as usize).max(1) * 8
    }

    fn encode(&mut self, layer: usize, grad: &Tensor) -> Result<Payload> {
        let n = grad.numel();
        crate::payload::check_sparse_index_space(n)?;
        let state = self.layers.entry(layer).or_insert_with(|| LayerStats {
            ema_mean: vec![0.0; n],
            ema_sq: vec![0.0; n],
            residual: vec![0.0; n],
            steps: 0,
        });
        if state.ema_mean.len() != n {
            *state = LayerStats {
                ema_mean: vec![0.0; n],
                ema_sq: vec![0.0; n],
                residual: vec![0.0; n],
                steps: 0,
            };
        }
        state.steps += 1;
        // Bias-corrected EMA updates on the raw gradient.
        let beta = self.beta;
        let corr = 1.0 - beta.powi(state.steps as i32);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (i, &g) in grad.data().iter().enumerate() {
            state.ema_mean[i] = beta * state.ema_mean[i] + (1.0 - beta) * g;
            state.ema_sq[i] = beta * state.ema_sq[i] + (1.0 - beta) * g * g;
            let mean = state.ema_mean[i] / corr;
            let var = (state.ema_sq[i] / corr - mean * mean).max(0.0);
            let candidate = g + state.residual[i];
            if candidate.abs() >= self.kappa * var.sqrt() && candidate != 0.0 {
                indices.push(i as u32);
                values.push(candidate);
                state.residual[i] = 0.0;
            } else {
                state.residual[i] = candidate;
            }
        }
        if indices.is_empty() {
            // Always make progress: send the largest accumulated value.
            if let Some((i, &v)) = state
                .residual
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
            {
                if v != 0.0 {
                    indices.push(i as u32);
                    values.push(v);
                    state.residual[i] = 0.0;
                }
            }
        }
        Ok(Payload::Sparse {
            len: n,
            indices,
            values,
        })
    }

    fn aggregate(&self, _round: usize, payloads: &[Payload]) -> Result<Payload> {
        crate::payload::sparse_mean(payloads)
    }

    fn absorb(&mut self, layer: usize, round: usize, agg: Payload) -> Result<()> {
        self.absorbed
            .absorb_dense("variance sparsifier", layer, round, agg)
    }

    fn finish(&mut self, layer: usize, shape: &Shape) -> Result<Tensor> {
        self.absorbed.finish_dense(layer, shape)
    }

    fn reset(&mut self) {
        self.layers.clear();
        self.absorbed.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::round_trip;

    #[test]
    fn forged_sparse_length_is_a_protocol_error() {
        let (honest, forged) = crate::payload::tests::honest_and_forged_sparse();
        crate::payload::tests::assert_forged_length_refused(
            &VarianceSparsifier::new(1.0).unwrap(),
            honest,
            forged,
        );
    }

    #[test]
    fn rejects_bad_kappa() {
        assert!(VarianceSparsifier::new(0.0).is_err());
        assert!(VarianceSparsifier::new(-1.0).is_err());
        assert!(VarianceSparsifier::new(f64::NAN).is_err());
        assert!(VarianceSparsifier::new(1.5).is_ok());
    }

    #[test]
    fn stable_coordinates_are_transmitted_noisy_ones_deferred() {
        // Coordinate 0 is constant (zero variance -> always confident);
        // coordinate 1 alternates sign (high variance, tiny mean).
        let mut c = VarianceSparsifier::new(1.5).unwrap();
        let mut sent_stable = 0usize;
        let mut sent_noisy = 0usize;
        for step in 0..40 {
            let noisy = if step % 2 == 0 { 1.0 } else { -1.0 };
            let g = Tensor::from_vec(vec![0.5, noisy]);
            let p = c.encode(0, &g).unwrap();
            let Payload::Sparse { indices, .. } = &p else {
                panic!("wrong payload")
            };
            sent_stable += usize::from(indices.contains(&0));
            sent_noisy += usize::from(indices.contains(&1));
            // Drive the protocol to completion so state stays consistent.
            let agg = c.aggregate(0, std::slice::from_ref(&p)).unwrap();
            c.absorb(0, 0, agg).unwrap();
            let _ = c.finish(0, g.shape()).unwrap();
        }
        assert!(sent_stable > 30, "stable coordinate sent {sent_stable}/40");
        assert!(
            sent_noisy < sent_stable,
            "noisy ({sent_noisy}) should be deferred more than stable ({sent_stable})"
        );
    }

    #[test]
    fn error_feedback_conserves_mass_on_constant_gradient() {
        let g = Tensor::from_vec(vec![0.2, -0.1, 0.7, 0.0]);
        let mut c = VarianceSparsifier::new(2.0).unwrap();
        let mut applied = Tensor::zeros([4]);
        let steps = 60;
        for _ in 0..steps {
            let out = round_trip(&mut c, 0, &g).unwrap();
            applied.add_assign(&out).unwrap();
        }
        applied.scale(1.0 / steps as f32);
        let cos = gcs_tensor::stats::cosine_similarity(&g, &applied);
        assert!(cos > 0.95, "cosine {cos}");
    }

    #[test]
    fn zero_gradient_yields_valid_payload() {
        let g = Tensor::zeros([8]);
        let mut c = VarianceSparsifier::new(1.0).unwrap();
        let out = round_trip(&mut c, 0, &g).unwrap();
        assert!(out.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn table_row_is_gathered_layerwise() {
        let p = VarianceSparsifier::new(1.0).unwrap().properties();
        assert!(!p.all_reducible);
        assert!(p.layerwise);
    }
}
