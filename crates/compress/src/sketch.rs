//! GradiVeq-style linear sketch compression (Yu et al., 2018),
//! simplified.
//!
//! GradiVeq compresses gradients with a *linear* projection onto a learned
//! PCA basis; linearity is what makes it all-reduce compatible (Table 1).
//! This module implements the same communication structure with a fixed
//! orthogonal projection — block averaging with `√c` scaling — instead of
//! the learned basis: every worker projects with the *same* matrix, the
//! projections sum associatively, and decode is the transpose. The wire
//! cost, aggregation semantics and scalability behaviour (the aspects the
//! paper's performance analysis needs) are identical to GradiVeq's; only
//! the approximation quality of the basis differs, which we document as a
//! substitution in DESIGN.md.

use crate::payload::Absorbed;
use crate::{CompressError, Compressor, Payload, Properties, Result};
use gcs_tensor::{Shape, Tensor};
use std::collections::HashMap;

/// Linear sketch compressor: project onto disjoint blocks of size `c`
/// (`y_j = Σ_{i∈block j} x_i / √c`), decode by transpose.
#[derive(Debug)]
pub struct LinearSketch {
    /// Block size = compression factor.
    block: usize,
    error_feedback: bool,
    residual: HashMap<usize, Tensor>,
    absorbed: Absorbed,
}

impl LinearSketch {
    /// Creates a sketch with compression factor `block` (each `block`
    /// consecutive coordinates collapse to one transmitted value).
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::InvalidConfig`] if `block == 0`.
    pub fn new(block: usize) -> Result<Self> {
        if block == 0 {
            return Err(CompressError::InvalidConfig(
                "sketch block size must be positive".into(),
            ));
        }
        Ok(LinearSketch {
            block,
            error_feedback: false,
            residual: HashMap::new(),
            absorbed: Absorbed::default(),
        })
    }

    /// Enables error feedback.
    pub fn error_feedback(mut self, on: bool) -> Self {
        self.error_feedback = on;
        self
    }

    fn sketch_len(&self, numel: usize) -> usize {
        numel.div_ceil(self.block)
    }

    fn project(&self, data: &[f32]) -> Vec<f32> {
        let scale = 1.0 / (self.block as f32).sqrt();
        data.chunks(self.block)
            .map(|c| c.iter().sum::<f32>() * scale)
            .collect()
    }

    fn lift(&self, sketch: &[f32], numel: usize) -> Vec<f32> {
        let scale = 1.0 / (self.block as f32).sqrt();
        let mut out = vec![0.0f32; numel];
        for (j, &y) in sketch.iter().enumerate() {
            let start = j * self.block;
            let end = (start + self.block).min(numel);
            for x in &mut out[start..end] {
                *x = y * scale;
            }
        }
        out
    }
}

impl Compressor for LinearSketch {
    fn properties(&self) -> Properties {
        Properties {
            name: format!("GradiVeq-sketch (c={})", self.block),
            all_reducible: true,
            layerwise: true,
            rounds: 1,
        }
    }

    fn compressed_bytes(&self, shape: &Shape) -> usize {
        self.sketch_len(shape.numel()) * 4
    }

    fn encode(&mut self, layer: usize, grad: &Tensor) -> Result<Payload> {
        let v = if self.error_feedback {
            match self.residual.get(&layer) {
                Some(e) => grad.add(e)?,
                None => grad.clone(),
            }
        } else {
            grad.clone()
        };
        let sketch = self.project(v.data());
        if self.error_feedback {
            let own = self.lift(&sketch, v.numel());
            let own = Tensor::from_shape_vec(v.shape().clone(), own)?;
            self.residual.insert(layer, v.sub(&own)?);
        }
        Ok(Payload::Dense(sketch))
    }

    fn aggregate(&self, _round: usize, payloads: &[Payload]) -> Result<Payload> {
        crate::payload::summable_mean(payloads)
    }

    fn absorb(&mut self, layer: usize, round: usize, agg: Payload) -> Result<()> {
        self.absorbed.absorb_dense("sketch", layer, round, agg)
    }

    fn finish(&mut self, layer: usize, shape: &Shape) -> Result<Tensor> {
        let sketch = self.absorbed.take(layer)?;
        let numel = shape.numel();
        if self.sketch_len(numel) != sketch.len() {
            return Err(CompressError::Protocol(format!(
                "sketch length {} does not match shape {shape}",
                sketch.len()
            )));
        }
        Tensor::from_shape_vec(shape.clone(), self.lift(&sketch, numel)).map_err(Into::into)
    }

    fn reset(&mut self) {
        self.residual.clear();
        self.absorbed.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{all_reduce_compressed, round_trip};

    #[test]
    fn rejects_zero_block() {
        assert!(LinearSketch::new(0).is_err());
    }

    #[test]
    fn block_one_is_identity() {
        let g = Tensor::randn([33], 61);
        let mut c = LinearSketch::new(1).unwrap();
        let out = round_trip(&mut c, 0, &g).unwrap();
        let err = gcs_tensor::stats::relative_l2_error(&g, &out);
        assert!(err < 1e-6, "err {err}");
    }

    #[test]
    fn constant_blocks_are_exact() {
        // Piecewise-constant gradients live in the sketch's range space.
        let g = Tensor::from_vec(vec![2.0, 2.0, 2.0, 2.0, -1.0, -1.0, -1.0, -1.0]);
        let mut c = LinearSketch::new(4).unwrap();
        let out = round_trip(&mut c, 0, &g).unwrap();
        let err = gcs_tensor::stats::relative_l2_error(&g, &out);
        assert!(err < 1e-6, "err {err}");
    }

    #[test]
    fn linearity_makes_aggregation_exact() {
        // mean(sketch(g_i)) decoded == sketch-decode of mean(g_i):
        // the all-reduce result must equal compressing the mean directly.
        let grads: Vec<Tensor> = (0..3).map(|s| Tensor::randn([64], 70 + s)).collect();
        let mut mean = Tensor::zeros([64]);
        for g in &grads {
            mean.add_assign(g).unwrap();
        }
        mean.scale(1.0 / 3.0);
        let mut workers: Vec<LinearSketch> =
            (0..3).map(|_| LinearSketch::new(4).unwrap()).collect();
        let outs = all_reduce_compressed(&mut workers, 0, &grads).unwrap();
        let mut single = LinearSketch::new(4).unwrap();
        let direct = round_trip(&mut single, 0, &mean).unwrap();
        let err = gcs_tensor::stats::relative_l2_error(&direct, &outs[0]);
        assert!(err < 1e-5, "err {err}");
    }

    #[test]
    fn compression_factor_matches_block() {
        let c = LinearSketch::new(8).unwrap();
        assert_eq!(c.compressed_bytes(&Shape::new(vec![800])), 100 * 4);
    }

    #[test]
    fn ef_residual_is_orthogonal_to_sketch_range() {
        // With a *fixed* linear projector the residual lives entirely in
        // the null space: re-projecting it must give (numerically) zero.
        // This is why GradiVeq needs to *learn* its basis — a fixed one can
        // never recover the complement, with or without error feedback.
        let g = Tensor::randn([32], 62);
        let mut c = LinearSketch::new(8).unwrap().error_feedback(true);
        let _ = round_trip(&mut c, 0, &g).unwrap();
        let res = c.residual.get(&0).unwrap().clone();
        let re_projected = c.project(res.data());
        let norm: f32 = re_projected.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!(norm < 1e-4 * res.l2_norm().max(1.0), "norm {norm}");
    }

    #[test]
    fn ragged_tail_roundtrips() {
        let g = Tensor::randn([10], 63); // block 4 -> sketch len 3, tail of 2
        let mut c = LinearSketch::new(4).unwrap();
        let out = round_trip(&mut c, 0, &g).unwrap();
        assert_eq!(out.numel(), 10);
    }
}
