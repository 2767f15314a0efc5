//! ATOMO atomic-decomposition compression (Wang et al., 2018), SVD variant.
//!
//! Each layer's matricized gradient is decomposed with a truncated SVD and
//! the `(U, S, V)` triplet is transmitted. Because every worker's singular
//! basis differs, aggregation requires all-gather (Table 1: not
//! all-reducible), and the SVD itself is the expensive encode step the
//! paper contrasts with PowerSGD's cheaper power iteration.

use crate::payload::Absorbed;
use crate::{CompressError, Compressor, Payload, Properties, Result};
use gcs_tensor::matrix::svd_truncated;
use gcs_tensor::{Shape, Tensor};

/// ATOMO (SVD) compressor.
#[derive(Debug)]
pub struct Atomo {
    rank: usize,
    /// Subspace iterations for the truncated SVD.
    svd_iters: usize,
    absorbed: Absorbed,
}

impl Atomo {
    /// Creates ATOMO with the given retained rank.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::InvalidConfig`] if `rank == 0`.
    pub fn new(rank: usize) -> Result<Self> {
        if rank == 0 {
            return Err(CompressError::InvalidConfig(
                "ATOMO rank must be positive".into(),
            ));
        }
        Ok(Atomo {
            rank,
            svd_iters: 10,
            absorbed: Absorbed::default(),
        })
    }

    /// Overrides the number of subspace iterations used by the SVD
    /// (more iterations: slower encode, more accurate factors).
    pub fn svd_iterations(mut self, iters: usize) -> Self {
        self.svd_iters = iters.max(1);
        self
    }

    /// The configured rank.
    pub fn rank(&self) -> usize {
        self.rank
    }
}

impl Compressor for Atomo {
    fn properties(&self) -> Properties {
        Properties {
            name: format!("ATOMO (rank {})", self.rank),
            all_reducible: false,
            layerwise: true,
            rounds: 1,
        }
    }

    fn compressed_bytes(&self, shape: &Shape) -> usize {
        let (m, n) = shape.matricized();
        let r = self.rank.min(m).min(n).max(1);
        (m * r + r + n * r) * 4
    }

    fn encode(&mut self, _layer: usize, grad: &Tensor) -> Result<Payload> {
        let (m, n) = grad.shape().matricized();
        let svd = svd_truncated(grad.data(), m, n, self.rank, self.svd_iters)?;
        Ok(Payload::Svd {
            rows: m,
            cols: n,
            rank: svd.rank,
            u: svd.u,
            s: svd.s,
            v: svd.v,
        })
    }

    fn aggregate(&self, _round: usize, payloads: &[Payload]) -> Result<Payload> {
        crate::payload::decoded_mean(payloads, "Svd", |p| {
            let Payload::Svd {
                rows,
                cols,
                u,
                s,
                v,
                ..
            } = p
            else {
                return None;
            };
            let mut dense = vec![0.0f32; rows * cols];
            Some(
                gcs_tensor::matrix::reconstruct_svd(u, s, v, *rows, *cols, &mut dense)
                    .map(|()| dense)
                    .map_err(Into::into),
            )
        })
    }

    fn absorb(&mut self, layer: usize, round: usize, agg: Payload) -> Result<()> {
        self.absorbed.absorb_dense("ATOMO", layer, round, agg)
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
    use gcs_tensor::matrix::{matmul, MatrixRef};
    use gcs_tensor::stats::relative_l2_error;

    #[test]
    fn rejects_rank_zero() {
        assert!(Atomo::new(0).is_err());
    }

    #[test]
    fn low_rank_gradient_recovered_exactly() {
        let u = Tensor::randn([12, 2], 21).into_vec();
        let v = Tensor::randn([2, 18], 22).into_vec();
        let mut g = vec![0.0f32; 12 * 18];
        matmul(
            MatrixRef::new(&u, 12, 2).unwrap(),
            MatrixRef::new(&v, 2, 18).unwrap(),
            &mut g,
        )
        .unwrap();
        let g = Tensor::from_shape_vec([12, 18], g).unwrap();
        let mut c = Atomo::new(2).unwrap().svd_iterations(20);
        let out = round_trip(&mut c, 0, &g).unwrap();
        let err = relative_l2_error(&g, &out);
        assert!(err < 1e-2, "relative error {err}");
    }

    #[test]
    fn higher_rank_is_more_accurate() {
        let g = Tensor::randn([20, 30], 23);
        let err_at = |rank: usize| {
            let mut c = Atomo::new(rank).unwrap().svd_iterations(15);
            let out = round_trip(&mut c, 0, &g).unwrap();
            relative_l2_error(&g, &out)
        };
        let e2 = err_at(2);
        let e8 = err_at(8);
        let e20 = err_at(20);
        assert!(e8 < e2, "rank 8 ({e8}) should beat rank 2 ({e2})");
        assert!(e20 < 0.05, "full rank should be near exact: {e20}");
    }

    #[test]
    fn compressed_bytes_include_singular_values() {
        let c = Atomo::new(4).unwrap();
        let shape = Shape::new(vec![100, 200]);
        assert_eq!(c.compressed_bytes(&shape), (100 * 4 + 4 + 200 * 4) * 4);
    }

    #[test]
    fn table1_says_not_all_reducible_but_layerwise() {
        let p = Atomo::new(4).unwrap().properties();
        assert!(!p.all_reducible);
        assert!(p.layerwise);
    }

    #[test]
    fn multiworker_aggregate_averages_reconstructions() {
        let g1 = Tensor::randn([6, 6], 31);
        let g2 = g1.scaled(3.0);
        let mut workers = vec![
            Atomo::new(6).unwrap().svd_iterations(20),
            Atomo::new(6).unwrap().svd_iterations(20),
        ];
        // Full-rank SVD on both: mean should be (g1 + 3 g1)/2 = 2 g1.
        let outs =
            crate::driver::all_reduce_compressed(&mut workers, 0, &[g1.clone(), g2]).unwrap();
        let expected = g1.scaled(2.0);
        let err = relative_l2_error(&expected, &outs[0]);
        assert!(err < 0.05, "mean reconstruction error {err}");
    }
}
