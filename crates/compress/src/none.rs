//! The uncompressed baseline (synchronous SGD).

use crate::payload::Absorbed;
use crate::{Compressor, Payload, Properties, Result};
use gcs_tensor::{Shape, Tensor};

/// No compression: gradients travel as raw `f32` and aggregate by exact
/// mean. This is the "syncSGD" baseline every experiment in the paper
/// compares against.
///
/// # Example
///
/// ```
/// use gcs_compress::{driver::round_trip, none::NoCompression};
/// use gcs_tensor::Tensor;
///
/// # fn main() -> Result<(), gcs_compress::CompressError> {
/// let g = Tensor::from_vec(vec![1.0, -2.0]);
/// let mut c = NoCompression::new();
/// assert_eq!(round_trip(&mut c, 0, &g)?, g);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct NoCompression {
    absorbed: Absorbed,
}

impl NoCompression {
    /// Creates the baseline compressor.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Compressor for NoCompression {
    fn properties(&self) -> Properties {
        Properties {
            name: "syncSGD".to_owned(),
            all_reducible: true,
            layerwise: true,
            rounds: 1,
        }
    }

    fn compressed_bytes(&self, shape: &Shape) -> usize {
        shape.numel() * 4
    }

    fn encode(&mut self, _layer: usize, grad: &Tensor) -> Result<Payload> {
        Ok(Payload::Dense(grad.data().to_vec()))
    }

    fn encode_owned(&mut self, _layer: usize, grad: Tensor) -> Result<Payload> {
        Ok(Payload::Dense(grad.into_vec()))
    }

    fn payload_is_gradient(&self) -> bool {
        true
    }

    fn aggregate(&self, _round: usize, payloads: &[Payload]) -> Result<Payload> {
        crate::payload::summable_mean(payloads)
    }

    fn absorb(&mut self, layer: usize, round: usize, agg: Payload) -> Result<()> {
        self.absorbed.absorb_dense("syncSGD", layer, round, agg)
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
    use crate::CompressError;

    #[test]
    fn properties_match_table1() {
        let p = NoCompression::new().properties();
        assert!(p.all_reducible);
        assert!(p.layerwise);
        assert_eq!(p.rounds, 1);
    }

    #[test]
    fn compressed_bytes_is_4n() {
        let c = NoCompression::new();
        assert_eq!(c.compressed_bytes(&Shape::new(vec![100])), 400);
    }

    #[test]
    fn aggregate_is_mean() {
        let c = NoCompression::new();
        let agg = c
            .aggregate(
                0,
                &[
                    Payload::Dense(vec![1.0, 2.0]),
                    Payload::Dense(vec![3.0, 4.0]),
                ],
            )
            .unwrap();
        assert_eq!(agg, Payload::Dense(vec![2.0, 3.0]));
    }

    #[test]
    fn aggregate_empty_fails() {
        let c = NoCompression::new();
        assert!(matches!(
            c.aggregate(0, &[]),
            Err(CompressError::EmptyAggregate)
        ));
    }

    #[test]
    fn protocol_errors() {
        let mut c = NoCompression::new();
        assert!(c.absorb(0, 1, Payload::Dense(vec![])).is_err());
        assert!(c
            .absorb(
                0,
                0,
                Payload::Signs {
                    words: vec![],
                    len: 0,
                    scale: 1.0
                }
            )
            .is_err());
        assert!(c.finish(0, &Shape::new(vec![1])).is_err());
    }

    #[test]
    fn encode_owned_moves_the_gradient_buffer() {
        let g = Tensor::randn([8, 5], 3);
        let expected = NoCompression::new().encode(0, &g).unwrap();
        let ptr = g.data().as_ptr();
        // Through the box, as the engines hold it: the forward must reach
        // the override, not the copying default.
        let mut c: Box<dyn Compressor> = Box::new(NoCompression::new());
        let payload = c.encode_owned(0, g).unwrap();
        match &payload {
            Payload::Dense(v) => assert_eq!(v.as_ptr(), ptr, "encode_owned copied the gradient"),
            other => panic!("expected Dense, got {}", other.kind_name()),
        }
        assert_eq!(payload, expected);
    }

    #[test]
    fn reset_clears_pending() {
        let mut c = NoCompression::new();
        c.absorb(3, 0, Payload::Dense(vec![1.0])).unwrap();
        c.reset();
        assert!(c.finish(3, &Shape::new(vec![1])).is_err());
    }
}
