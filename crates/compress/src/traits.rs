//! The [`Compressor`] protocol trait and method metadata.

use crate::{Payload, Result};
use gcs_tensor::{Shape, Tensor};

/// Static metadata describing a compression scheme — the columns of the
/// paper's Table 1 plus the analytic compression ratio used by the
/// performance model.
#[derive(Debug, Clone, PartialEq)]
pub struct Properties {
    /// Human-readable method name, e.g. `"PowerSGD (rank 4)"`.
    pub name: String,
    /// Whether the aggregation operator is associative and therefore
    /// all-reduce compatible (Table 1, column "All-reduce"). Methods that
    /// are not must fall back to all-gather, whose traffic grows linearly
    /// with the number of workers.
    pub all_reducible: bool,
    /// Whether the method can compress each layer independently (Table 1,
    /// column "Layer-Wise Compression").
    pub layerwise: bool,
    /// Communication rounds per iteration (1 for most; 2 for PowerSGD,
    /// which all-reduces `P` then `Q` and pays the latency term twice).
    pub rounds: usize,
}

/// A gradient compression scheme, driven once per layer per iteration
/// through the round protocol:
///
/// ```text
/// encode(layer, grad)            -> round-0 payload
/// aggregate(0, worker payloads)  -> aggregated payload   (on the "wire")
/// absorb(layer, 0, aggregated)
/// [ encode_round(layer, 1) -> aggregate(1, ..) -> absorb(layer, 1, ..) ]*
/// finish(layer, shape)           -> decoded mean gradient
/// ```
///
/// `aggregate` defines the reference semantics of the wire reduction: for
/// all-reducible methods it is a sum that a ring all-reduce can compute
/// incrementally; for the rest it requires all payloads at once (what an
/// all-gather provides). The distributed engine in `gcs-ddp` reproduces
/// exactly these semantics over real collectives.
///
/// Implementations keep per-layer state (error feedback memory, PowerSGD's
/// warm-started `Q`), keyed by the `layer` index. Every single-round
/// method holds its absorbed aggregate in one shared store,
/// `payload::Absorbed`, which owns the round check, the payload-kind check
/// and the "finish before absorb" error, so such a method's `absorb` is
/// one delegating call and its `finish` only decodes. PowerSGD, the one
/// two-round method, keeps its rounds in its own per-layer state.
pub trait Compressor: Send {
    /// Method metadata (Table 1 row).
    fn properties(&self) -> Properties;

    /// Analytic wire size in bytes of one worker's round-0 payload for a
    /// gradient of shape `shape`, as charged by the performance model.
    fn compressed_bytes(&self, shape: &Shape) -> usize;

    /// Starts an iteration for `layer`: consumes the local gradient and
    /// produces the round-0 payload.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors from the underlying kernels.
    fn encode(&mut self, layer: usize, grad: &Tensor) -> Result<Payload>;

    /// [`encode`](Compressor::encode) for a gradient the caller no longer
    /// needs, such as a freshly packed bucket. A scheme whose payload is
    /// the gradient itself overrides this to move the buffer instead of
    /// copying it; the result must be bit-identical to `encode`. (Where
    /// [`payload_is_gradient`](Compressor::payload_is_gradient) holds, an
    /// engine may skip both for a bucket of one layer.)
    ///
    /// # Errors
    ///
    /// As [`encode`](Compressor::encode).
    fn encode_owned(&mut self, layer: usize, grad: Tensor) -> Result<Payload> {
        self.encode(layer, &grad)
    }

    /// Whether this scheme's whole exchange is one round whose payload is
    /// [`Payload::Dense`] of exactly the gradient's elements — syncSGD.
    ///
    /// An engine may then skip [`encode`](Compressor::encode) and
    /// all-reduce the gradient where it lies (out of place, so it is never
    /// copied), then [`absorb`](Compressor::absorb) the mean as a `Dense`
    /// payload. The result must be bit-identical to encoding. Defaults to
    /// `false`; wrappers must forward it.
    fn payload_is_gradient(&self) -> bool {
        false
    }

    /// Produces the payload for a later round (`round >= 1`). Only
    /// multi-round methods implement this.
    ///
    /// # Errors
    ///
    /// The default returns [`CompressError::Protocol`](crate::CompressError)
    /// because single-round methods have no later rounds.
    fn encode_round(&mut self, layer: usize, round: usize) -> Result<Payload> {
        let _ = layer;
        Err(crate::CompressError::Protocol(format!(
            "{} has no round {round}",
            self.properties().name
        )))
    }

    /// Combines the payloads of all workers for `round` into the aggregated
    /// payload every worker receives back. Payloads are ordered by worker
    /// rank. The result of the final round, fed through
    /// [`absorb`](Compressor::absorb) and [`finish`](Compressor::finish),
    /// must decode to the *mean* of the workers' (compressed) gradients —
    /// except for vote-based schemes like SignSGD where it is the majority
    /// sign.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::EmptyAggregate`](crate::CompressError) when
    /// `payloads` is empty, or a payload-kind error on foreign payloads.
    fn aggregate(&self, round: usize, payloads: &[Payload]) -> Result<Payload>;

    /// Feeds the aggregated payload for `round` back into the worker.
    ///
    /// # Errors
    ///
    /// Returns a protocol error for out-of-order rounds or foreign payloads.
    fn absorb(&mut self, layer: usize, round: usize, agg: Payload) -> Result<()>;

    /// Returns the decoded aggregated gradient for `layer` and updates any
    /// per-layer state (error feedback memory, warm-start factors). Must be
    /// called exactly once per iteration, after every round was absorbed.
    ///
    /// # Errors
    ///
    /// Returns a protocol error if rounds are missing.
    fn finish(&mut self, layer: usize, shape: &Shape) -> Result<Tensor>;

    /// Clears all per-layer state (error feedback, warm starts, counters).
    fn reset(&mut self);

    /// Removes and returns the error-feedback residual for `layer` as a
    /// flat tensor, or `None` when this scheme keeps no residual (either
    /// because error feedback is disabled or the method has none).
    ///
    /// This is one half of the **scheme-switch residual contract** used by
    /// the adaptive controller: when a bucket switches compressors
    /// mid-run, the unsent gradient mass accumulated by the old scheme is
    /// extracted here and handed to
    /// [`inject_residual`](Compressor::inject_residual) on the new one
    /// (see [`driver::switch_scheme`](crate::driver::switch_scheme)).
    /// Implementations must leave the layer with a *zero* residual
    /// afterwards, so a `take` followed by continued use of the old
    /// compressor never double-counts mass.
    fn take_residual(&mut self, layer: usize) -> Option<Tensor> {
        let _ = layer;
        None
    }

    /// Seeds the error-feedback residual for `layer` with `residual`
    /// (flat, element count must match the layer's gradient). Returns
    /// `Ok(true)` if the residual was accepted, `Ok(false)` if this scheme
    /// cannot carry one (no error-feedback memory) — the caller must then
    /// treat the switch as a documented **reset**: the mass is dropped,
    /// exactly as if the old scheme had transmitted it losslessly and the
    /// optimizer had consumed it.
    ///
    /// # Errors
    ///
    /// May return a protocol error when the residual cannot be reconciled
    /// with existing layer state (implementations that defer the check to
    /// the next `encode` instead drop a mismatched residual there).
    fn inject_residual(&mut self, layer: usize, residual: Tensor) -> Result<bool> {
        let _ = (layer, residual);
        Ok(false)
    }
}

impl<C: Compressor + ?Sized> Compressor for Box<C> {
    fn properties(&self) -> Properties {
        (**self).properties()
    }

    fn compressed_bytes(&self, shape: &Shape) -> usize {
        (**self).compressed_bytes(shape)
    }

    fn encode(&mut self, layer: usize, grad: &Tensor) -> Result<Payload> {
        (**self).encode(layer, grad)
    }

    fn encode_owned(&mut self, layer: usize, grad: Tensor) -> Result<Payload> {
        (**self).encode_owned(layer, grad)
    }

    fn payload_is_gradient(&self) -> bool {
        (**self).payload_is_gradient()
    }

    fn encode_round(&mut self, layer: usize, round: usize) -> Result<Payload> {
        (**self).encode_round(layer, round)
    }

    fn aggregate(&self, round: usize, payloads: &[Payload]) -> Result<Payload> {
        (**self).aggregate(round, payloads)
    }

    fn absorb(&mut self, layer: usize, round: usize, agg: Payload) -> Result<()> {
        (**self).absorb(layer, round, agg)
    }

    fn finish(&mut self, layer: usize, shape: &Shape) -> Result<Tensor> {
        (**self).finish(layer, shape)
    }

    fn reset(&mut self) {
        (**self).reset()
    }

    fn take_residual(&mut self, layer: usize) -> Option<Tensor> {
        (**self).take_residual(layer)
    }

    fn inject_residual(&mut self, layer: usize, residual: Tensor) -> Result<bool> {
        (**self).inject_residual(layer, residual)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::none::NoCompression;

    #[test]
    fn compressor_is_object_safe() {
        let c: Box<dyn Compressor> = Box::new(NoCompression::new());
        assert_eq!(c.properties().rounds, 1);
    }

    #[test]
    fn boxed_compressors_forward_payload_is_gradient() {
        // Engines drive `Box<dyn Compressor>`: a missing forward would
        // silently take the copying path for syncSGD. Every variant of
        // the registry, syncSGD first.
        use crate::registry::MethodConfig as M;
        let methods = [
            M::SyncSgd,
            M::Fp16,
            M::PowerSgd { rank: 2 },
            M::TopK { ratio: 0.2 },
            M::SignSgd,
            M::EfSignSgd,
            M::Qsgd { levels: 15 },
            M::TernGrad,
            M::RandomK { ratio: 0.25 },
            M::Atomo { rank: 2 },
            M::OneBit,
            M::Sketch { block: 4 },
            M::Dgc { ratio: 0.05 },
            M::Variance { kappa: 1.0 },
            M::Natural,
        ];
        let forwarded: Vec<bool> = methods
            .iter()
            .map(|m| m.build().unwrap().payload_is_gradient())
            .collect();
        let mut expected = [false; 15];
        expected[0] = true;
        assert_eq!(forwarded, expected);
    }

    #[test]
    fn default_encode_round_is_protocol_error() {
        let mut c = NoCompression::new();
        assert!(c.encode_round(0, 1).is_err());
    }
}
