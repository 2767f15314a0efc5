//! Optimizers operating on per-layer parameter tensors.

use gcs_tensor::{Tensor, TensorError};

/// SGD with (optional) heavyweight-ball momentum.
///
/// # Example
///
/// ```
/// use gcs_tensor::Tensor;
/// use gcs_train::optim::Sgd;
///
/// let mut params = vec![Tensor::from_vec(vec![1.0])];
/// let grads = vec![Tensor::from_vec(vec![0.5])];
/// let mut opt = Sgd::new(0.1);
/// opt.step(&mut params, &grads).unwrap();
/// assert!((params[0].data()[0] - 0.95).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Plain SGD with learning rate `lr`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive and finite.
    pub fn new(lr: f32) -> Self {
        assert!(lr.is_finite() && lr > 0.0, "learning rate must be positive");
        Sgd {
            lr,
            momentum: 0.0,
            velocity: Vec::new(),
        }
    }

    /// Adds momentum `m` in `[0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is outside `[0, 1)`.
    pub fn momentum(mut self, m: f32) -> Self {
        assert!((0.0..1.0).contains(&m), "momentum must be in [0, 1)");
        self.momentum = m;
        self
    }

    /// The learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Applies one update: `v ← m·v + g; p ← p − lr·v`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`], before any parameter or
    /// velocity is written, if `params` and `grads` differ in count, if a
    /// parameter and its gradient differ in shape, or, with momentum, if
    /// the velocity kept from earlier steps does not match the gradients.
    pub fn step(&mut self, params: &mut [Tensor], grads: &[Tensor]) -> gcs_tensor::Result<()> {
        check_counts(params.len(), grads.len(), "parameter")?;
        for (p, g) in params.iter().zip(grads) {
            check_shapes(p, g)?;
        }
        if self.momentum == 0.0 {
            for (p, g) in params.iter_mut().zip(grads) {
                p.axpy(-self.lr, g)?;
            }
            return Ok(());
        }
        if self.velocity.is_empty() {
            self.velocity = grads
                .iter()
                .map(|g| Tensor::zeros(g.shape().clone()))
                .collect();
        }
        check_counts(self.velocity.len(), grads.len(), "velocity")?;
        for (v, g) in self.velocity.iter().zip(grads) {
            check_shapes(v, g)?;
        }
        for ((p, g), v) in params.iter_mut().zip(grads).zip(&mut self.velocity) {
            v.scale(self.momentum);
            v.add_assign(g)?;
            p.axpy(-self.lr, v)?;
        }
        Ok(())
    }
}

fn check_counts(expected: usize, grads: usize, what: &str) -> gcs_tensor::Result<()> {
    if expected == grads {
        return Ok(());
    }
    Err(TensorError::ShapeMismatch {
        expected: format!("{expected} gradients, one per {what}"),
        actual: format!("{grads} gradients"),
    })
}

fn check_shapes(expected: &Tensor, grad: &Tensor) -> gcs_tensor::Result<()> {
    if expected.shape() == grad.shape() {
        return Ok(());
    }
    Err(TensorError::ShapeMismatch {
        expected: expected.shape().to_string(),
        actual: grad.shape().to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_sgd_step() {
        let mut p = vec![Tensor::from_vec(vec![1.0, 2.0])];
        let g = vec![Tensor::from_vec(vec![1.0, -1.0])];
        let mut opt = Sgd::new(0.5);
        opt.step(&mut p, &g).unwrap();
        assert_eq!(p[0].data(), &[0.5, 2.5]);
    }

    #[test]
    fn momentum_accumulates() {
        let mut p = vec![Tensor::from_vec(vec![0.0])];
        let g = vec![Tensor::from_vec(vec![1.0])];
        let mut opt = Sgd::new(1.0).momentum(0.5);
        opt.step(&mut p, &g).unwrap(); // v=1, p=-1
        opt.step(&mut p, &g).unwrap(); // v=1.5, p=-2.5
        assert!((p[0].data()[0] + 2.5).abs() < 1e-6);
    }

    #[test]
    fn shape_mismatch_is_error() {
        let mut p = vec![Tensor::zeros([2])];
        let g = vec![Tensor::zeros([3])];
        assert!(Sgd::new(0.1).step(&mut p, &g).is_err());
    }

    #[test]
    fn count_mismatch_is_error_either_way() {
        let two = vec![Tensor::zeros([2]), Tensor::zeros([2])];
        let one = vec![Tensor::zeros([2])];
        for opt in [Sgd::new(0.1), Sgd::new(0.1).momentum(0.9)] {
            for (params, grads) in [(&two, &one), (&one, &two)] {
                let mut p = params.clone();
                let err = opt.clone().step(&mut p, grads);
                assert!(
                    matches!(err, Err(TensorError::ShapeMismatch { .. })),
                    "{} params, {} grads: {err:?}",
                    params.len(),
                    grads.len()
                );
                assert_eq!(&p, params, "nothing is updated");
            }
        }
    }

    /// A wrong shape in the last layer is caught before the first layer
    /// moves, and, with momentum, before any velocity is scaled or added.
    #[test]
    fn last_layer_shape_mismatch_moves_nothing_either_way() {
        let params = vec![Tensor::zeros([2]), Tensor::zeros([2])];
        let good = vec![Tensor::from_vec(vec![1.0, 1.0]); 2];
        let bad = vec![Tensor::from_vec(vec![1.0, 1.0]), Tensor::zeros([3])];
        for mut opt in [Sgd::new(0.5), Sgd::new(0.5).momentum(0.9)] {
            let mut p = params.clone();
            opt.step(&mut p, &good).unwrap();
            let (moved, velocity) = (p.clone(), opt.velocity.clone());
            let err = opt.step(&mut p, &bad);
            assert!(
                matches!(err, Err(TensorError::ShapeMismatch { .. })),
                "{err:?}"
            );
            assert_eq!(p, moved, "params untouched");
            assert_eq!(opt.velocity, velocity, "velocity untouched");
            // A velocity kept from earlier steps rejects gradients of
            // another count or shape, even where they match the params.
            if opt.momentum > 0.0 {
                let err = opt.step(&mut p[..1], &good[..1]);
                assert!(matches!(err, Err(TensorError::ShapeMismatch { .. })));
                assert_eq!(p, moved);
                assert_eq!(opt.velocity, velocity);
                let mut wider = vec![Tensor::zeros([3]); 2];
                let err = opt.step(&mut wider, &[Tensor::zeros([3]), Tensor::zeros([3])]);
                assert!(matches!(err, Err(TensorError::ShapeMismatch { .. })));
                assert_eq!(wider, vec![Tensor::zeros([3]); 2]);
                assert_eq!(opt.velocity, velocity);
            }
        }
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn bad_lr_panics() {
        let _ = Sgd::new(-1.0);
    }

    #[test]
    #[should_panic(expected = "momentum must be in")]
    fn bad_momentum_panics() {
        let _ = Sgd::new(0.1).momentum(1.0);
    }
}
