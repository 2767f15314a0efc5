//! Random-K sparsification (Wangni et al., 2018).
//!
//! All workers draw the *same* random coordinate subset each iteration
//! (from a shared seed), so only values travel and elementwise summation is
//! associative — Table 1 of the paper marks Random-K all-reduce compatible
//! but **not** layer-wise (the shared coordinate sampling is defined over
//! the full flattened gradient, so per-layer overlap with the backward pass
//! is unavailable).

use crate::payload::Absorbed;
use crate::{CompressError, Compressor, Payload, Properties, Result};
use gcs_tensor::select::random_k;
use gcs_tensor::{Shape, Tensor};
use std::collections::HashMap;

/// Random-K sparsification with a shared per-iteration coordinate seed.
#[derive(Debug)]
pub struct RandomK {
    ratio: f64,
    base_seed: u64,
    error_feedback: bool,
    /// Per-layer iteration counters; all workers advance in lock step.
    iteration: HashMap<usize, u64>,
    residual: HashMap<usize, Tensor>,
    absorbed: Absorbed<(usize, u64, Vec<f32>)>,
}

impl RandomK {
    /// Creates Random-K keeping `ratio` of the coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::InvalidConfig`] unless `0 < ratio <= 1`.
    pub fn new(ratio: f64) -> Result<Self> {
        crate::payload::check_ratio("random-k ratio", ratio)?;
        Ok(RandomK {
            ratio,
            base_seed: 0xabcd_ef01,
            error_feedback: false,
            iteration: HashMap::new(),
            residual: HashMap::new(),
            absorbed: Absorbed::default(),
        })
    }

    /// Enables error feedback.
    pub fn error_feedback(mut self, on: bool) -> Self {
        self.error_feedback = on;
        self
    }

    /// Number of kept coordinates for `numel` elements (at least 1).
    pub fn k_for(&self, numel: usize) -> usize {
        crate::payload::kept(numel, self.ratio)
    }

    /// The shared coordinate seed for `(layer, iteration)`.
    fn coord_seed(&self, layer: usize, iter: u64) -> u64 {
        self.base_seed
            .wrapping_add((layer as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(iter.wrapping_mul(0xbf58_476d_1ce4_e5b9))
    }
}

impl Compressor for RandomK {
    fn properties(&self) -> Properties {
        Properties {
            name: format!("Random-K ({:.0}%)", self.ratio * 100.0),
            all_reducible: true,
            layerwise: false,
            rounds: 1,
        }
    }

    fn compressed_bytes(&self, shape: &Shape) -> usize {
        // Values only; the coordinate set is implied by the shared seed.
        self.k_for(shape.numel()) * 4 + 8
    }

    fn encode(&mut self, layer: usize, grad: &Tensor) -> Result<Payload> {
        let iter = *self.iteration.entry(layer).or_insert(0);
        self.iteration.insert(layer, iter + 1);
        let v = if self.error_feedback {
            match self.residual.get(&layer) {
                Some(e) => grad.add(e)?,
                None => grad.clone(),
            }
        } else {
            grad.clone()
        };
        let k = self.k_for(v.numel());
        let seed = self.coord_seed(layer, iter);
        let sel = random_k(v.data(), k, seed);
        if self.error_feedback {
            let mut res = v.clone();
            for &i in &sel.indices {
                res.data_mut()[i as usize] = 0.0;
            }
            self.residual.insert(layer, res);
        }
        Ok(Payload::SharedSparse {
            len: v.numel(),
            seed,
            values: sel.values,
        })
    }

    fn aggregate(&self, _round: usize, payloads: &[Payload]) -> Result<Payload> {
        crate::payload::summable_mean(payloads)
    }

    fn absorb(&mut self, layer: usize, round: usize, agg: Payload) -> Result<()> {
        self.absorbed
            .absorb("Random-K", layer, round, agg, "SharedSparse", |p| match p {
                Payload::SharedSparse { len, seed, values } => Some((len, seed, values)),
                _ => None,
            })
    }

    fn finish(&mut self, layer: usize, shape: &Shape) -> Result<Tensor> {
        let (len, seed, values) = self.absorbed.take(layer)?;
        if len != shape.numel() {
            return Err(CompressError::Protocol(format!(
                "payload length {len} does not match shape {shape}"
            )));
        }
        // Re-derive the shared coordinate set from the seed. The values in
        // `random_k` are positional, so selecting on a zero template gives
        // the index order values were packed in.
        let template = vec![0.0f32; len];
        let sel = random_k(&template, values.len(), seed);
        let mut dense = vec![0.0f32; len];
        for (&i, &v) in sel.indices.iter().zip(&values) {
            dense[i as usize] = v;
        }
        Tensor::from_shape_vec(shape.clone(), dense).map_err(Into::into)
    }

    fn reset(&mut self) {
        self.iteration.clear();
        self.residual.clear();
        self.absorbed.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{all_reduce_compressed, round_trip};

    #[test]
    fn rejects_bad_ratio() {
        assert!(RandomK::new(0.0).is_err());
        assert!(RandomK::new(2.0).is_err());
    }

    #[test]
    fn workers_share_coordinates_each_iteration() {
        let grads = vec![Tensor::randn([100], 1), Tensor::randn([100], 2)];
        let mut workers = vec![RandomK::new(0.1).unwrap(), RandomK::new(0.1).unwrap()];
        // Should not error: SharedSparse addition requires matching seeds.
        let outs = all_reduce_compressed(&mut workers, 0, &grads).unwrap();
        assert_eq!(outs[0], outs[1]);
        // Exactly k coordinates non-zero.
        let nz = outs[0].data().iter().filter(|&&x| x != 0.0).count();
        assert!(nz <= 10);
    }

    #[test]
    fn coordinates_change_across_iterations() {
        let g = Tensor::randn([1000], 3);
        let mut c = RandomK::new(0.01).unwrap();
        let a = round_trip(&mut c, 0, &g).unwrap();
        let b = round_trip(&mut c, 0, &g).unwrap();
        let support = |t: &Tensor| -> Vec<usize> {
            t.data()
                .iter()
                .enumerate()
                .filter(|(_, &x)| x != 0.0)
                .map(|(i, _)| i)
                .collect()
        };
        assert_ne!(support(&a), support(&b), "coordinate sets should rotate");
    }

    #[test]
    fn decoded_values_match_input_at_selected_coordinates() {
        let g = Tensor::randn([64], 4);
        let mut c = RandomK::new(0.25).unwrap();
        let out = round_trip(&mut c, 0, &g).unwrap();
        for (o, i) in out.data().iter().zip(g.data()) {
            assert!(*o == 0.0 || (o - i).abs() < 1e-6);
        }
    }

    #[test]
    fn error_feedback_covers_all_coordinates_eventually() {
        // With EF and rotating coordinates, the accumulated applied update
        // must converge toward the full gradient direction.
        let g = Tensor::randn([50], 5);
        let mut c = RandomK::new(0.2).unwrap().error_feedback(true);
        let mut applied = Tensor::zeros([50]);
        for _ in 0..60 {
            let out = round_trip(&mut c, 0, &g).unwrap();
            applied.add_assign(&out).unwrap();
        }
        // Per-iteration expectation is g (values passed through exactly),
        // so applied/iters ≈ g with EF soaking up the tail.
        applied.scale(1.0 / 60.0);
        let cos = gcs_tensor::stats::cosine_similarity(&g, &applied);
        assert!(cos > 0.95, "cosine {cos}");
    }

    #[test]
    fn table1_row() {
        let p = RandomK::new(0.5).unwrap().properties();
        assert!(p.all_reducible);
        assert!(!p.layerwise);
    }

    #[test]
    fn finish_validates_shape() {
        let g = Tensor::randn([10], 6);
        let mut c = RandomK::new(0.5).unwrap();
        let p = c.encode(0, &g).unwrap();
        let agg = c.aggregate(0, std::slice::from_ref(&p)).unwrap();
        c.absorb(0, 0, agg).unwrap();
        assert!(c.finish(0, &Shape::new(vec![11])).is_err());
    }
}
