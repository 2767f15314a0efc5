//! Deep Gradient Compression (Lin et al., 2017), threshold sparsification.
//!
//! DGC communicates coordinates whose magnitude exceeds a threshold chosen
//! so that roughly a target fraction survives. The threshold is estimated
//! from a random sample of the gradient (as in the reference
//! implementation) rather than a full sort, and dropped coordinates
//! accumulate locally (error feedback). *Momentum correction* — the
//! original paper's fix for stale sparse updates — is available via
//! [`Dgc::momentum_correction`]: momentum is applied **locally before**
//! sparsification, so the accumulated residual carries velocity rather
//! than raw gradients. Like Top-K it is not all-reduce compatible.

use crate::payload::Absorbed;
use crate::{CompressError, Compressor, Payload, Properties, Result};
use gcs_tensor::{Shape, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Deep Gradient Compression: sampled-threshold sparsification with error
/// feedback.
#[derive(Debug)]
pub struct Dgc {
    ratio: f64,
    sample_fraction: f64,
    /// Local momentum factor applied before sparsification (0 = off).
    momentum: f32,
    rng: StdRng,
    residual: HashMap<usize, Tensor>,
    /// Velocity state per layer (momentum correction).
    velocity: HashMap<usize, Tensor>,
    absorbed: Absorbed,
    /// Sampled-magnitude scratch for the threshold estimate, reused
    /// across encodes.
    sample: Vec<f32>,
}

impl Dgc {
    /// Creates DGC targeting `ratio` surviving coordinates (e.g. `0.001`
    /// for the paper's 0.1% operating point).
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::InvalidConfig`] unless `0 < ratio <= 1`.
    pub fn new(ratio: f64) -> Result<Self> {
        crate::payload::check_ratio("DGC ratio", ratio)?;
        Ok(Dgc {
            ratio,
            sample_fraction: 0.01,
            momentum: 0.0,
            rng: StdRng::seed_from_u64(0xd9c0),
            residual: HashMap::new(),
            velocity: HashMap::new(),
            absorbed: Absorbed::default(),
            sample: Vec::new(),
        })
    }

    /// Enables momentum correction with factor `m` in `[0, 1)`: the
    /// velocity `v ← m·v + g` is sparsified instead of the raw gradient,
    /// as in the original DGC.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::InvalidConfig`] unless `0 <= m < 1`.
    pub fn momentum_correction(mut self, m: f32) -> Result<Self> {
        if !(0.0..1.0).contains(&m) {
            return Err(CompressError::InvalidConfig(format!(
                "DGC momentum must be in [0, 1), got {m}"
            )));
        }
        self.momentum = m;
        Ok(self)
    }

    /// Sets the fraction of coordinates sampled when estimating the
    /// threshold (reference implementation uses 1%).
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::InvalidConfig`] unless `0 < fraction <= 1`.
    pub fn sample_fraction(mut self, fraction: f64) -> Result<Self> {
        crate::payload::check_ratio("sample fraction", fraction)?;
        self.sample_fraction = fraction;
        Ok(self)
    }

    /// Estimates the magnitude threshold whose survivors are ≈ `ratio` of
    /// the vector, from a random sample.
    fn estimate_threshold(&mut self, data: &[f32]) -> f32 {
        let n = data.len();
        if n == 0 {
            return 0.0;
        }
        let sample_n = ((n as f64 * self.sample_fraction) as usize)
            .clamp(1, n)
            .min(10_000);
        let rng = &mut self.rng;
        self.sample.clear();
        self.sample
            .extend((0..sample_n).map(|_| data[rng.gen_range(0..n)].abs()));
        let k = crate::payload::kept(sample_n, self.ratio);
        // One order statistic, so a quickselect rather than a sort. NaN-
        // total descending order: a NaN gradient must not scramble the
        // sampled threshold between runs.
        let (_, kth, _) = self
            .sample
            .select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a));
        *kth
    }
}

impl Compressor for Dgc {
    fn properties(&self) -> Properties {
        Properties {
            name: format!("DGC ({:.2}%)", self.ratio * 100.0),
            all_reducible: false,
            layerwise: true,
            rounds: 1,
        }
    }

    fn compressed_bytes(&self, shape: &Shape) -> usize {
        crate::payload::kept(shape.numel(), self.ratio) * 8
    }

    fn encode(&mut self, layer: usize, grad: &Tensor) -> Result<Payload> {
        crate::payload::check_sparse_index_space(grad.numel())?;
        // Momentum correction: sparsify the velocity, not the gradient.
        let input = if self.momentum > 0.0 {
            let vel = self
                .velocity
                .entry(layer)
                .or_insert_with(|| Tensor::zeros(grad.shape().clone()));
            if vel.shape() != grad.shape() {
                *vel = Tensor::zeros(grad.shape().clone());
            }
            vel.scale(self.momentum);
            vel.add_assign(grad)?;
            vel.clone()
        } else {
            grad.clone()
        };
        let v = match self.residual.get(&layer) {
            Some(e) => input.add(e)?,
            None => input,
        };
        let threshold = self.estimate_threshold(v.data());
        let mut indices = Vec::new();
        let mut values = Vec::new();
        let mut res = v.clone();
        for (i, &x) in v.data().iter().enumerate() {
            if x.abs() >= threshold && threshold > 0.0 {
                indices.push(i as u32);
                values.push(x);
                res.data_mut()[i] = 0.0;
            }
        }
        if indices.is_empty() {
            // Degenerate (all-zero sample): fall back to the single largest
            // coordinate so progress is always made.
            let sel = gcs_tensor::select::top_k_abs(v.data(), 1);
            for (&i, &x) in sel.indices.iter().zip(&sel.values) {
                indices.push(i);
                values.push(x);
                res.data_mut()[i as usize] = 0.0;
            }
        }
        self.residual.insert(layer, res);
        Ok(Payload::Sparse {
            len: v.numel(),
            indices,
            values,
        })
    }

    fn aggregate(&self, _round: usize, payloads: &[Payload]) -> Result<Payload> {
        crate::payload::sparse_mean(payloads)
    }

    fn absorb(&mut self, layer: usize, round: usize, agg: Payload) -> Result<()> {
        self.absorbed.absorb_dense("DGC", layer, round, agg)
    }

    fn finish(&mut self, layer: usize, shape: &Shape) -> Result<Tensor> {
        self.absorbed.finish_dense(layer, shape)
    }

    fn reset(&mut self) {
        self.residual.clear();
        self.velocity.clear();
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
            &Dgc::new(0.5).unwrap(),
            honest,
            forged,
        );
    }

    #[test]
    fn nan_gradient_keeps_threshold_deterministic() {
        // The sampled-threshold sort runs under f32::total_cmp: a NaN
        // coordinate must neither panic nor make the kept set run-to-run
        // noise (two encoders with identical state and input must agree).
        let mut data: Vec<f32> = (0..2048)
            .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.1)
            .collect();
        data[100] = f32::NAN;
        data[1999] = -f32::NAN;
        let g = Tensor::from_vec(data);
        let mut a = Dgc::new(0.05).unwrap();
        let mut b = Dgc::new(0.05).unwrap();
        let pa = a.encode(0, &g).unwrap();
        let pb = b.encode(0, &g).unwrap();
        let (
            Payload::Sparse {
                indices: ia,
                values: va,
                ..
            },
            Payload::Sparse {
                indices: ib,
                values: vb,
                ..
            },
        ) = (pa, pb)
        else {
            panic!("wrong payload")
        };
        assert_eq!(ia, ib, "kept coordinates must be deterministic");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&va), bits(&vb));
    }

    #[test]
    fn rejects_bad_config() {
        assert!(Dgc::new(0.0).is_err());
        assert!(Dgc::new(1.1).is_err());
        assert!(Dgc::new(0.5).unwrap().sample_fraction(0.0).is_err());
    }

    #[test]
    fn keeps_roughly_ratio_of_coordinates() {
        let g = Tensor::randn([20_000], 51);
        let mut c = Dgc::new(0.01).unwrap();
        let p = c.encode(0, &g).unwrap();
        let Payload::Sparse { indices, .. } = p else {
            panic!("wrong payload")
        };
        let frac = indices.len() as f64 / 20_000.0;
        assert!(frac > 0.002 && frac < 0.05, "kept fraction {frac}");
    }

    #[test]
    fn surviving_coordinates_dominate_dropped_ones() {
        let g = Tensor::randn([5000], 52);
        let mut c = Dgc::new(0.05).unwrap();
        let p = c.encode(0, &g).unwrap();
        let Payload::Sparse {
            indices, values, ..
        } = p
        else {
            panic!("wrong payload")
        };
        let min_kept = values.iter().map(|v| v.abs()).fold(f32::MAX, f32::min);
        let kept: std::collections::HashSet<u32> = indices.iter().copied().collect();
        // Sampled threshold is approximate: allow a slack factor of 2, but
        // the bulk of dropped coordinates must sit below the kept minimum.
        let violations = g
            .data()
            .iter()
            .enumerate()
            .filter(|(i, x)| !kept.contains(&(*i as u32)) && x.abs() > min_kept * 2.0)
            .count();
        assert_eq!(violations, 0);
    }

    #[test]
    fn error_feedback_reinjects_dropped_mass() {
        let g = Tensor::randn([1000], 53);
        let mut c = Dgc::new(0.02).unwrap();
        let mut applied = Tensor::zeros([1000]);
        for _ in 0..80 {
            let out = round_trip(&mut c, 0, &g).unwrap();
            applied.add_assign(&out).unwrap();
        }
        applied.scale(1.0 / 80.0);
        let cos = gcs_tensor::stats::cosine_similarity(&g, &applied);
        assert!(cos > 0.9, "cosine {cos}");
    }

    #[test]
    fn momentum_correction_validates_range() {
        assert!(Dgc::new(0.1).unwrap().momentum_correction(1.0).is_err());
        assert!(Dgc::new(0.1).unwrap().momentum_correction(-0.1).is_err());
        assert!(Dgc::new(0.1).unwrap().momentum_correction(0.9).is_ok());
    }

    #[test]
    fn momentum_correction_accumulates_velocity() {
        // A constant gradient with momentum m: applied updates approach
        // g / (1 - m) in steady state (velocity accumulation survives the
        // sparsifier thanks to error feedback).
        let g = Tensor::from_vec(vec![0.4, -0.2, 0.1, 0.0]);
        let mut c = Dgc::new(0.5).unwrap().momentum_correction(0.5).unwrap();
        // Sparse release is bursty (error feedback releases several
        // accumulated velocities at once), so check the *mean* applied
        // update over a window: it must approach v = g/(1-m) = 2g.
        let mut applied = Tensor::zeros([4]);
        let window = 80;
        for _ in 0..40 {
            let _ = round_trip(&mut c, 0, &g).unwrap(); // warm up
        }
        for _ in 0..window {
            let out = round_trip(&mut c, 0, &g).unwrap();
            applied.add_assign(&out).unwrap();
        }
        applied.scale(1.0 / window as f32);
        for (o, &x) in applied.data().iter().zip(g.data()) {
            assert!(
                (o - 2.0 * x).abs() < 0.25 * x.abs().max(0.05),
                "mean applied {o} vs {}",
                2.0 * x
            );
        }
    }

    #[test]
    fn zero_gradient_still_produces_valid_payload() {
        let g = Tensor::zeros([16]);
        let mut c = Dgc::new(0.1).unwrap();
        let out = round_trip(&mut c, 0, &g).unwrap();
        assert!(out.data().iter().all(|&x| x == 0.0));
    }
}
