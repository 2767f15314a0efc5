//! Top-K sparsification (Aji & Heafield, 2017).
//!
//! Keeps only the K% largest-magnitude coordinates and transmits
//! (index, value) pairs. The union of per-worker coordinate sets differs
//! across workers, so aggregation is not associative — the paper's Figure 5
//! shows the resulting all-gather traffic plus the very high encode time
//! (Table 2: ~240–295 ms on ResNet-50) make Top-K slower than syncSGD at
//! every scale it measured.

use crate::payload::Absorbed;
use crate::{Compressor, Payload, Properties, Result};
use gcs_tensor::select::top_k_abs_with;
use gcs_tensor::{Shape, Tensor};
use std::collections::HashMap;

/// Top-K sparsification with optional error feedback.
#[derive(Debug)]
pub struct TopK {
    /// Fraction of coordinates kept, in `(0, 1]`.
    ratio: f64,
    error_feedback: bool,
    residual: HashMap<usize, Tensor>,
    absorbed: Absorbed,
    /// Magnitude scratch for the selection, reused across encodes: the
    /// strided sample and the candidates' magnitudes (a few percent of the
    /// layer), or every magnitude when the select falls back to a full
    /// quickselect.
    mags: Vec<f32>,
}

impl TopK {
    /// Creates Top-K keeping `ratio` of the coordinates (e.g. `0.01` for
    /// the paper's Top-K 1%).
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::InvalidConfig`] unless `0 < ratio <= 1`.
    pub fn new(ratio: f64) -> Result<Self> {
        crate::payload::check_ratio("top-k ratio", ratio)?;
        Ok(TopK {
            ratio,
            error_feedback: false,
            residual: HashMap::new(),
            absorbed: Absorbed::default(),
            mags: Vec::new(),
        })
    }

    /// Enables error feedback (residual accumulation of dropped
    /// coordinates).
    pub fn error_feedback(mut self, on: bool) -> Self {
        self.error_feedback = on;
        self
    }

    /// The configured keep-fraction.
    pub fn ratio(&self) -> f64 {
        self.ratio
    }

    /// Number of coordinates kept for an `n`-element gradient (at least 1).
    pub fn k_for(&self, numel: usize) -> usize {
        crate::payload::kept(numel, self.ratio)
    }
}

impl Compressor for TopK {
    fn properties(&self) -> Properties {
        Properties {
            name: format!("TopK ({:.0}%)", self.ratio * 100.0),
            all_reducible: false,
            layerwise: true,
            rounds: 1,
        }
    }

    fn compressed_bytes(&self, shape: &Shape) -> usize {
        // 4-byte index + 4-byte value per kept coordinate.
        self.k_for(shape.numel()) * 8
    }

    fn encode(&mut self, layer: usize, grad: &Tensor) -> Result<Payload> {
        crate::payload::check_sparse_index_space(grad.numel())?;
        let k = self.k_for(grad.numel());
        if !self.error_feedback {
            // Fast path: select straight from the gradient; the only
            // steady-state allocations are the k-sized output arrays.
            let sel = top_k_abs_with(grad.data(), k, &mut self.mags);
            return Ok(Payload::Sparse {
                len: grad.numel(),
                indices: sel.indices,
                values: sel.values,
            });
        }
        // The residual is matched by element count, not shape: a
        // scheme-switch injection arrives flat while the bucket may be
        // matricized. A count mismatch (layer changed shape) drops it.
        let v = match self.residual.get(&layer) {
            Some(e) if e.numel() == grad.numel() => {
                let mut v = grad.clone();
                gcs_tensor::kernels::add_assign(v.data_mut(), e.data());
                v
            }
            _ => grad.clone(),
        };
        let sel = top_k_abs_with(v.data(), k, &mut self.mags);
        // Residual keeps exactly the dropped coordinates.
        let mut res = v;
        for &i in &sel.indices {
            res.data_mut()[i as usize] = 0.0;
        }
        let len = res.numel();
        self.residual.insert(layer, res);
        Ok(Payload::Sparse {
            len,
            indices: sel.indices,
            values: sel.values,
        })
    }

    fn aggregate(&self, _round: usize, payloads: &[Payload]) -> Result<Payload> {
        crate::payload::sparse_mean(payloads)
    }

    fn absorb(&mut self, layer: usize, round: usize, agg: Payload) -> Result<()> {
        self.absorbed.absorb_dense("TopK", layer, round, agg)
    }

    fn finish(&mut self, layer: usize, shape: &Shape) -> Result<Tensor> {
        self.absorbed.finish_dense(layer, shape)
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
        // The residual participates as `grad + residual` at the next
        // encode; only the element count matters, so reshape to flat.
        self.residual
            .insert(layer, Tensor::from_vec(residual.into_vec()));
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{all_reduce_compressed, round_trip};
    use crate::CompressError;

    #[test]
    fn forged_sparse_length_is_a_protocol_error() {
        let (honest, forged) = crate::payload::tests::honest_and_forged_sparse();
        crate::payload::tests::assert_forged_length_refused(
            &TopK::new(0.5).unwrap(),
            honest,
            forged,
        );
    }

    #[test]
    fn rejects_bad_ratio() {
        assert!(TopK::new(0.0).is_err());
        assert!(TopK::new(1.5).is_err());
        assert!(TopK::new(-0.1).is_err());
        assert!(TopK::new(1.0).is_ok());
    }

    #[test]
    fn keeps_only_largest_coordinates() {
        let g = Tensor::from_vec(vec![0.1, -5.0, 0.2, 4.0, 0.05]);
        let mut c = TopK::new(0.4).unwrap(); // k = 2
        let out = round_trip(&mut c, 0, &g).unwrap();
        assert_eq!(out.data(), &[0.0, -5.0, 0.0, 4.0, 0.0]);
    }

    #[test]
    fn k_is_at_least_one() {
        let c = TopK::new(0.001).unwrap();
        assert_eq!(c.k_for(10), 1);
        assert_eq!(c.k_for(0), 1); // degenerate, clamped
    }

    #[test]
    fn compressed_bytes_scale_with_ratio() {
        let shape = Shape::new(vec![10_000]);
        let one = TopK::new(0.01).unwrap().compressed_bytes(&shape);
        let ten = TopK::new(0.10).unwrap().compressed_bytes(&shape);
        assert_eq!(one, 100 * 8);
        assert_eq!(ten, 1000 * 8);
    }

    #[test]
    fn aggregation_averages_union_of_supports() {
        // Worker A keeps coord 0, worker B keeps coord 1.
        let grads = vec![
            Tensor::from_vec(vec![4.0, 0.1]),
            Tensor::from_vec(vec![0.1, -6.0]),
        ];
        let mut workers = vec![TopK::new(0.5).unwrap(), TopK::new(0.5).unwrap()];
        let outs = all_reduce_compressed(&mut workers, 0, &grads).unwrap();
        assert_eq!(outs[0].data(), &[2.0, -3.0]);
    }

    #[test]
    fn error_feedback_reinjects_dropped_mass() {
        let g = Tensor::from_vec(vec![1.0, 0.4, 0.0, 0.0]);
        let mut c = TopK::new(0.25).unwrap().error_feedback(true);
        // Iteration 1 sends coord 0, residual keeps 0.4 at coord 1.
        let _ = round_trip(&mut c, 0, &g).unwrap();
        // Iteration 2 input zero: the residual alone must now win.
        let zero = Tensor::zeros([4]);
        let out = round_trip(&mut c, 0, &zero).unwrap();
        assert_eq!(out.data(), &[0.0, 0.4, 0.0, 0.0]);
    }

    #[test]
    fn aggregate_validates_lengths_and_kinds() {
        let c = TopK::new(0.5).unwrap();
        let a = Payload::Sparse {
            len: 4,
            indices: vec![0],
            values: vec![1.0],
        };
        let b = Payload::Sparse {
            len: 5,
            indices: vec![0],
            values: vec![1.0],
        };
        assert!(c.aggregate(0, &[a.clone(), b]).is_err());
        assert!(c.aggregate(0, &[Payload::Dense(vec![])]).is_err());
        assert!(c.aggregate(0, &[]).is_err());
        assert!(c.aggregate(0, &[a]).is_ok());
    }

    #[test]
    fn aggregate_rejects_forged_out_of_range_index() {
        // A peer's frame whose first index was overwritten with one past
        // the dense length decodes fine (the wire format does not tie
        // indices to `len`) and used to panic the scatter in `aggregate`.
        let honest = Payload::Sparse {
            len: 4,
            indices: vec![1, 3],
            values: vec![1.0, -2.0],
        };
        let mut frame = honest.to_bytes();
        // tag (1) + len (8) + k (8), then the little-endian indices.
        frame[17..21].copy_from_slice(&4u32.to_le_bytes());
        let forged = Payload::from_bytes(&frame).expect("forged frame still parses");
        let c = TopK::new(0.5).unwrap();
        match c.aggregate(0, &[honest, forged]) {
            Err(CompressError::Protocol(msg)) => assert!(msg.contains("out of bounds"), "{msg}"),
            other => panic!("expected a Protocol error, got {other:?}"),
        }
    }
}
