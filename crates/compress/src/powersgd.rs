//! PowerSGD low-rank compression (Vogels et al., 2019).
//!
//! Per layer, the gradient is matricized to `M ∈ R^{m x n}` and compressed
//! to rank-`r` factors with one warm-started power iteration:
//!
//! ```text
//! P = M · Q_prev          (round 0: all-reduce mean of P)
//! P̂ = orthonormalize(P̄)
//! Q = Mᵀ · P̂              (round 1: all-reduce mean of Q)
//! Ĝ = P̂ · Q̄ᵀ,  E ← M − Ĝ   (one pass: E is formed while Ĝ's row is hot)
//! ```
//!
//! `M = grad + E` and `E` share one `m x n` buffer per layer: `encode`
//! adds the gradient into the stored residual, both rounds read `M` from
//! it, and `finish` overwrites it with the new residual as it
//! reconstructs `Ĝ`. The price is that the buffer means different things
//! at different times — see [`PowerSgd::take_residual`].
//!
//! Both all-reduces operate on linear images of the gradients, so the
//! aggregation is associative — PowerSGD is the all-reduce-compatible
//! method in the paper (Table 1) and the only one that ever beats syncSGD
//! in its experiments (BERT at 96 GPUs, Figure 4). The cost is the
//! per-layer encode/decode time (Table 2) and twice the latency term
//! (§4.2).

use crate::{CompressError, Compressor, Factor, Payload, Properties, Result};
use gcs_tensor::matrix::{
    at_mul_b, matmul, orthonormalize_columns, reconstruct_residual_into, MatrixRef,
};
use gcs_tensor::{Shape, Tensor};
use std::collections::HashMap;

/// Per-layer PowerSGD state.
#[derive(Debug)]
struct LayerState {
    /// `n x r` right factor, warm-started across iterations.
    q: Vec<f32>,
    /// `m * n` (matricized layout). At a step boundary: the error-feedback
    /// memory `E` (stale when error feedback is off). While `in_flight`:
    /// `M = grad + E`, the matrix the iteration's rounds are computed from.
    error: Vec<f32>,
    /// Set when `encode` forms `M`, cleared by `finish`: `error` holds
    /// `M`, not `E`.
    in_flight: bool,
    /// Orthonormalized aggregated `P`, absorbed after round 0.
    p_hat: Option<Vec<f32>>,
    /// Aggregated `Q`, absorbed after round 1.
    q_agg: Option<Vec<f32>>,
    /// Recycled `m x r` buffer: the previous iteration's `p_hat` allocation,
    /// reused as the outgoing `P` of the next encode.
    p_scratch: Vec<f32>,
    /// Recycled `n x r` buffer, reused as the outgoing `Q` of round 1.
    q_scratch: Vec<f32>,
    rows: usize,
    cols: usize,
    rank: usize,
}

/// PowerSGD compressor.
///
/// # Example
///
/// ```
/// use gcs_compress::powersgd::PowerSgd;
/// use gcs_compress::{driver::round_trip, Compressor};
/// use gcs_tensor::Tensor;
///
/// # fn main() -> Result<(), gcs_compress::CompressError> {
/// let mut c = PowerSgd::new(4)?;
/// let g = Tensor::randn([32, 64], 0);
/// let approx = round_trip(&mut c, 0, &g)?;
/// assert_eq!(approx.shape(), g.shape());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PowerSgd {
    rank: usize,
    error_feedback: bool,
    warm_start: bool,
    layers: HashMap<usize, LayerState>,
    /// Residuals injected via the scheme-switch contract before this layer
    /// has any state; reconciled (or dropped on shape change) at the next
    /// `encode`.
    injected: HashMap<usize, Vec<f32>>,
    seed: u64,
}

impl PowerSgd {
    /// Creates PowerSGD with the given target rank (the paper evaluates
    /// ranks 4, 8 and 16), error feedback and warm start enabled — the
    /// configuration of the reference implementation.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::InvalidConfig`] if `rank == 0`.
    pub fn new(rank: usize) -> Result<Self> {
        if rank == 0 {
            return Err(CompressError::InvalidConfig(
                "PowerSGD rank must be positive".into(),
            ));
        }
        Ok(PowerSgd {
            rank,
            error_feedback: true,
            warm_start: true,
            layers: HashMap::new(),
            injected: HashMap::new(),
            seed: 0x9e37_79b9,
        })
    }

    /// Disables error feedback (ablation; hurts accuracy, not speed).
    pub fn error_feedback(mut self, on: bool) -> Self {
        self.error_feedback = on;
        self
    }

    /// Disables warm start: `Q` is re-initialized randomly every iteration
    /// (ablation; one power iteration from scratch approximates the
    /// gradient much less well).
    pub fn warm_start(mut self, on: bool) -> Self {
        self.warm_start = on;
        self
    }

    /// The configured rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Effective rank for a layer of matricized shape `(m, n)`.
    fn effective_rank(&self, m: usize, n: usize) -> usize {
        self.rank.min(m).min(n).max(1)
    }

    fn init_q(&self, layer: usize, n: usize, r: usize) -> Vec<f32> {
        let mut q =
            Tensor::randn([n, r], self.seed ^ (layer as u64).wrapping_mul(0x1000_0001)).into_vec();
        // Orthonormal start makes the first iteration a proper projection.
        let _ = orthonormalize_columns(&mut q, n, r);
        q
    }

    /// Everything `encode` does before `M` is formed: state
    /// (re)initialization and injected-residual reconciliation. Returns
    /// the layer's state, sized for `grad`'s matricized dims.
    ///
    /// With error feedback, a layer still in flight has lost its `E` to
    /// an `M` whose gradient was never applied, and nothing here can tell
    /// whether the caller is re-submitting that gradient or moving on, so
    /// that is a [`CompressError::Protocol`] error: `take_residual` (which
    /// hands back `M`) or `reset` first.
    fn prepare(&mut self, layer: usize, grad: &Tensor) -> Result<&mut LayerState> {
        let (m, n) = grad.shape().matricized();
        let r = self.effective_rank(m, n);
        let numel = m * n;
        if grad.numel() != numel {
            return Err(CompressError::Protocol(format!(
                "gradient numel {} does not match matricized {m}x{n}",
                grad.numel()
            )));
        }

        // Fetch or create state; rebuild if the layer changed shape.
        let current = self
            .layers
            .get(&layer)
            .filter(|s| s.rows == m && s.cols == n && s.rank == r);
        let needs_init = current.is_none();
        if self.error_feedback && current.is_some_and(|s| s.in_flight) {
            return Err(CompressError::Protocol(format!(
                "encode for layer {layer} before the previous iteration's finish"
            )));
        }
        let fresh_q = (needs_init || !self.warm_start).then(|| self.init_q(layer, n, r));
        if needs_init {
            self.layers.insert(
                layer,
                LayerState {
                    q: Vec::new(),
                    error: vec![0.0; numel],
                    in_flight: false,
                    p_hat: None,
                    q_agg: None,
                    p_scratch: Vec::new(),
                    q_scratch: Vec::new(),
                    rows: m,
                    cols: n,
                    rank: r,
                },
            );
        }
        let injected = self.injected.remove(&layer);
        let Some(state) = self.layers.get_mut(&layer) else {
            return Err(CompressError::Protocol(format!(
                "no per-layer state for layer {layer}"
            )));
        };
        if let Some(q) = fresh_q {
            state.q = q;
        }

        // A residual injected by a scheme switch replaces the layer's
        // error memory (dropped if the layer changed shape since).
        if let Some(injected) = injected {
            if injected.len() == numel {
                state.error.copy_from_slice(&injected);
            }
        }
        Ok(state)
    }
}

impl Compressor for PowerSgd {
    fn properties(&self) -> Properties {
        Properties {
            name: format!("PowerSGD (rank {})", self.rank),
            all_reducible: true,
            layerwise: true,
            rounds: 2,
        }
    }

    fn compressed_bytes(&self, shape: &Shape) -> usize {
        let (m, n) = shape.matricized();
        let r = self.effective_rank(m, n);
        (m * r + n * r) * 4
    }

    fn encode(&mut self, layer: usize, grad: &Tensor) -> Result<Payload> {
        let ef = self.error_feedback;
        let state = self.prepare(layer, grad)?;
        let (m, n, r) = (state.rows, state.cols, state.rank);
        // The buffer turns from `E` into `M = grad + E` (a copy of `grad`
        // without error feedback) and the layer is in flight.
        if ef {
            gcs_tensor::kernels::add_assign(&mut state.error, grad.data());
        } else {
            state.error.copy_from_slice(grad.data());
        }
        state.in_flight = true;

        // P = M · Q, into the recycled buffer from the previous round's
        // finish (steady state: no allocation).
        let mut p = std::mem::take(&mut state.p_scratch);
        p.clear();
        p.resize(m * r, 0.0);
        matmul(
            MatrixRef::new(&state.error, m, n)?,
            MatrixRef::new(&state.q, n, r)?,
            &mut p,
        )?;
        Ok(Payload::Factor {
            which: Factor::P,
            rows: m,
            cols: r,
            data: p,
        })
    }

    fn encode_round(&mut self, layer: usize, round: usize) -> Result<Payload> {
        if round != 1 {
            return Err(CompressError::Protocol(format!(
                "PowerSGD has rounds 0 and 1, got {round}"
            )));
        }
        let state = self.layers.get_mut(&layer).ok_or_else(|| {
            CompressError::Protocol(format!("encode_round before encode for layer {layer}"))
        })?;
        let p_hat = state
            .p_hat
            .as_ref()
            .ok_or_else(|| CompressError::Protocol("round 1 before absorbing round 0".into()))?;
        // Q = Mᵀ · P̂, into the recycled buffer.
        let (m, n, r) = (state.rows, state.cols, state.rank);
        let mut q = std::mem::take(&mut state.q_scratch);
        q.clear();
        q.resize(n * r, 0.0);
        at_mul_b(
            MatrixRef::new(&state.error, m, n)?,
            MatrixRef::new(p_hat, m, r)?,
            &mut q,
        )?;
        Ok(Payload::Factor {
            which: Factor::Q,
            rows: n,
            cols: r,
            data: q,
        })
    }

    fn aggregate(&self, _round: usize, payloads: &[Payload]) -> Result<Payload> {
        crate::payload::summable_mean(payloads)
    }

    fn absorb(&mut self, layer: usize, round: usize, agg: Payload) -> Result<()> {
        let state = self
            .layers
            .get_mut(&layer)
            .filter(|s| s.in_flight)
            .ok_or_else(|| {
                CompressError::Protocol(format!("absorb before encode for layer {layer}"))
            })?;
        match (round, agg) {
            (
                0,
                Payload::Factor {
                    which: Factor::P,
                    mut data,
                    rows,
                    cols,
                },
            ) => {
                if rows != state.rows || cols != state.rank {
                    return Err(CompressError::Protocol(
                        "aggregated P has wrong dimensions".into(),
                    ));
                }
                orthonormalize_columns(&mut data, rows, cols)?;
                state.p_hat = Some(data);
                Ok(())
            }
            (
                1,
                Payload::Factor {
                    which: Factor::Q,
                    data,
                    rows,
                    cols,
                },
            ) => {
                if rows != state.cols || cols != state.rank {
                    return Err(CompressError::Protocol(
                        "aggregated Q has wrong dimensions".into(),
                    ));
                }
                state.q_agg = Some(data);
                Ok(())
            }
            (r, p) => Err(CompressError::Protocol(format!(
                "unexpected round {r} payload {}",
                p.kind_name()
            ))),
        }
    }

    fn finish(&mut self, layer: usize, shape: &Shape) -> Result<Tensor> {
        let ef = self.error_feedback;
        let warm = self.warm_start;
        let state = self.layers.get_mut(&layer).ok_or_else(|| {
            CompressError::Protocol(format!("finish before encode for layer {layer}"))
        })?;
        let p_hat = state
            .p_hat
            .take()
            .ok_or_else(|| CompressError::Protocol("finish before absorbing round 0".into()))?;
        let q_agg = state
            .q_agg
            .take()
            .ok_or_else(|| CompressError::Protocol("finish before absorbing round 1".into()))?;
        let (m, n, r) = (state.rows, state.cols, state.rank);
        // Ĝ = P̂ · Q̄ᵀ, written once into a fresh buffer, and, in the same
        // pass, E ← M − Ĝ over the buffer that held M.
        let mut g_hat = Vec::new();
        reconstruct_residual_into(
            MatrixRef::new(&p_hat, m, r)?,
            MatrixRef::new(&q_agg, n, r)?,
            ef.then_some(&mut state.error[..]),
            &mut g_hat,
        )?;
        state.in_flight = false;
        if warm {
            // The displaced warm-start Q becomes next round's Q scratch.
            state.q_scratch = std::mem::replace(&mut state.q, q_agg);
        } else {
            state.q_scratch = q_agg;
        }
        // The spent P̂ allocation becomes the next encode's P buffer.
        state.p_scratch = p_hat;
        Tensor::from_shape_vec(shape.clone(), g_hat).map_err(Into::into)
    }

    fn reset(&mut self) {
        self.layers.clear();
        self.injected.clear();
    }

    /// The layer's error-feedback memory, leaving it zero.
    ///
    /// A step-boundary operation: after `finish` the buffer holds `E`.
    /// Between `encode` and `finish` it holds `M = grad + E`, all of which
    /// is still unapplied, so a mid-iteration call returns `M` and
    /// abandons the iteration (its rounds were computed from a matrix this
    /// compressor no longer has; `finish` then fails until the next
    /// `encode`).
    fn take_residual(&mut self, layer: usize) -> Option<Tensor> {
        if !self.error_feedback {
            return None;
        }
        if let Some(pending) = self.injected.remove(&layer) {
            return Some(Tensor::from_vec(pending));
        }
        let state = self.layers.get_mut(&layer)?;
        let numel = state.rows * state.cols;
        let out = std::mem::replace(&mut state.error, vec![0.0; numel]);
        state.in_flight = false;
        state.p_hat = None;
        state.q_agg = None;
        Some(Tensor::from_vec(out))
    }

    /// Replaces the layer's error-feedback memory.
    ///
    /// # Errors
    ///
    /// A step-boundary operation: between `encode` and `finish` the buffer
    /// is the `M` that the rounds in flight were computed from, and
    /// overwriting it would corrupt the residual `finish` leaves, so a
    /// mid-iteration call is a [`CompressError::Protocol`] error. So is an
    /// element count that does not match existing layer state.
    fn inject_residual(&mut self, layer: usize, residual: Tensor) -> Result<bool> {
        if !self.error_feedback {
            return Ok(false);
        }
        match self.layers.get_mut(&layer) {
            Some(state) if state.in_flight => {
                return Err(CompressError::Protocol(format!(
                    "residual injected into layer {layer} between encode and finish"
                )));
            }
            Some(state) if state.error.len() == residual.numel() => {
                state.error.copy_from_slice(residual.data());
            }
            Some(_) => {
                return Err(CompressError::Protocol(format!(
                    "injected residual numel {} does not match layer {layer} state",
                    residual.numel()
                )));
            }
            // No state yet: stash until the first encode fixes the shape.
            None => {
                self.injected.insert(layer, residual.into_vec());
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{all_reduce_compressed, round_trip};
    use gcs_tensor::stats::relative_l2_error;

    #[test]
    fn rejects_rank_zero() {
        assert!(PowerSgd::new(0).is_err());
    }

    #[test]
    fn properties_match_table1() {
        let p = PowerSgd::new(4).unwrap().properties();
        assert!(p.all_reducible);
        assert!(p.layerwise);
        assert_eq!(p.rounds, 2);
    }

    #[test]
    fn recovers_exactly_low_rank_gradients() {
        // Rank-2 gradient compressed at rank 4: repeated warm-started power
        // iterations must converge to (near-)exact recovery.
        let u = Tensor::randn([24, 2], 1).into_vec();
        let v = Tensor::randn([2, 36], 2).into_vec();
        let mut g = vec![0.0f32; 24 * 36];
        matmul(
            MatrixRef::new(&u, 24, 2).unwrap(),
            MatrixRef::new(&v, 2, 36).unwrap(),
            &mut g,
        )
        .unwrap();
        let g = Tensor::from_shape_vec([24, 36], g).unwrap();
        let mut c = PowerSgd::new(4).unwrap();
        let mut err = f32::MAX;
        for _ in 0..5 {
            let out = round_trip(&mut c, 0, &g).unwrap();
            err = relative_l2_error(&g, &out);
        }
        assert!(err < 1e-3, "relative error after warm-up {err}");
    }

    #[test]
    fn compressed_bytes_match_formula() {
        let c = PowerSgd::new(4).unwrap();
        let shape = Shape::new(vec![512, 512, 3, 3]); // m=512, n=4608
        assert_eq!(c.compressed_bytes(&shape), (512 * 4 + 4608 * 4) * 4);
        // Compression ratio ~ mn / (r(m+n)) = 512*4608 / (4*5120) ≈ 115x.
        let ratio = (shape.numel() * 4) as f64 / c.compressed_bytes(&shape) as f64;
        assert!(ratio > 100.0, "ratio {ratio}");
    }

    #[test]
    fn rank_clamped_for_small_layers() {
        let c = PowerSgd::new(16).unwrap();
        // Bias vector: 1 x 64 matricization -> rank 1.
        assert_eq!(c.compressed_bytes(&Shape::new(vec![64])), (1 + 64) * 4);
    }

    #[test]
    fn error_feedback_preserves_total_gradient_mass() {
        // decoded + error must equal input (+ previous error) each step.
        let g = Tensor::randn([16, 16], 5);
        let mut c = PowerSgd::new(2).unwrap();
        let out = round_trip(&mut c, 0, &g).unwrap();
        let err_mem =
            Tensor::from_shape_vec([16, 16], c.layers.get(&0).unwrap().error.clone()).unwrap();
        let sum = out.add(&err_mem).unwrap();
        assert!(relative_l2_error(&g, &sum) < 1e-4);
    }

    #[test]
    fn multi_worker_aggregation_is_consistent_across_workers() {
        let grads: Vec<Tensor> = (0..3).map(|s| Tensor::randn([8, 12], 100 + s)).collect();
        let mut workers: Vec<PowerSgd> = (0..3).map(|_| PowerSgd::new(4).unwrap()).collect();
        let outs = all_reduce_compressed(&mut workers, 7, &grads).unwrap();
        assert_eq!(outs[0], outs[1]);
        assert_eq!(outs[1], outs[2]);
    }

    #[test]
    fn multi_worker_converges_to_mean_under_warm_start() {
        // With a *fixed* set of per-worker gradients, repeated compression
        // with error feedback must converge to the true mean.
        let grads: Vec<Tensor> = (0..2).map(|s| Tensor::randn([10, 10], 50 + s)).collect();
        let mut mean = Tensor::zeros([10, 10]);
        for g in &grads {
            mean.add_assign(g).unwrap();
        }
        mean.scale(0.5);
        let mut workers: Vec<PowerSgd> = (0..2).map(|_| PowerSgd::new(3).unwrap()).collect();
        // Accumulate what the optimizer would apply over many steps; EF
        // guarantees the *running total* tracks the true mean even though
        // each step is low rank.
        let mut applied = Tensor::zeros([10, 10]);
        let steps = 100;
        for _ in 0..steps {
            let outs = all_reduce_compressed(&mut workers, 0, &grads).unwrap();
            applied.add_assign(&outs[0]).unwrap();
        }
        applied.scale(1.0 / steps as f32);
        let err = relative_l2_error(&mean, &applied);
        assert!(err < 0.05, "running mean error {err}");
    }

    #[test]
    fn protocol_violations_are_errors() {
        let mut c = PowerSgd::new(2).unwrap();
        let g = Tensor::randn([4, 4], 0);
        assert!(c.encode_round(0, 1).is_err()); // before encode
        let p = c.encode(0, &g).unwrap();
        assert!(c.encode_round(0, 1).is_err()); // before absorb round 0
        assert!(c.finish(0, g.shape()).is_err());
        let agg = c.aggregate(0, std::slice::from_ref(&p)).unwrap();
        c.absorb(0, 0, agg).unwrap();
        let q = c.encode_round(0, 1).unwrap();
        let qagg = c.aggregate(1, std::slice::from_ref(&q)).unwrap();
        c.absorb(0, 1, qagg).unwrap();
        assert!(c.finish(0, g.shape()).is_ok());
        // Second finish without new rounds fails.
        assert!(c.finish(0, g.shape()).is_err());
    }

    #[test]
    fn shape_change_reinitializes_layer_state() {
        let mut c = PowerSgd::new(2).unwrap();
        let g1 = Tensor::randn([4, 4], 1);
        let _ = round_trip(&mut c, 0, &g1).unwrap();
        let g2 = Tensor::randn([8, 8], 2);
        let out = round_trip(&mut c, 0, &g2).unwrap();
        assert_eq!(out.shape(), g2.shape());
    }

    /// One single-worker round trip as it ran before `M` and `E` shared a
    /// buffer and before the skinny kernels: copy, add, three general
    /// GEMMs, subtract. Aggregating one payload scales by 1.0, a no-op.
    struct Reference {
        q: Vec<f32>,
        error: Vec<f32>,
    }

    impl Reference {
        fn step(&mut self, c: &PowerSgd, grad: &Tensor) -> Vec<f32> {
            use gcs_tensor::matrix::{a_mul_bt, at_mul_b_with_tile, matmul_with_tile};
            let tile = gcs_tensor::matrix::best_supported_tile();
            let (m, n) = grad.shape().matricized();
            let r = c.effective_rank(m, n);
            if self.q.is_empty() || !c.warm_start {
                self.q = c.init_q(0, n, r);
                self.error.resize(m * n, 0.0);
            }
            let mut m_work = grad.data().to_vec();
            if c.error_feedback {
                gcs_tensor::kernels::add_assign(&mut m_work, &self.error);
            }
            let m_ref = MatrixRef::new(&m_work, m, n).unwrap();
            let mut p = vec![0.0f32; m * r];
            matmul_with_tile(tile, m_ref, MatrixRef::new(&self.q, n, r).unwrap(), &mut p).unwrap();
            orthonormalize_columns(&mut p, m, r).unwrap();
            let p_ref = MatrixRef::new(&p, m, r).unwrap();
            let mut q = vec![0.0f32; n * r];
            at_mul_b_with_tile(tile, m_ref, p_ref, &mut q).unwrap();
            let mut g_hat = vec![0.0f32; m * n];
            a_mul_bt(p_ref, MatrixRef::new(&q, n, r).unwrap(), &mut g_hat).unwrap();
            if c.error_feedback {
                for ((e, w), g) in self.error.iter_mut().zip(&m_work).zip(&g_hat) {
                    *e = w - g;
                }
            }
            if c.warm_start {
                self.q = q;
            }
            g_hat
        }
    }

    #[test]
    fn stateful_steps_match_the_unfused_general_kernel_sequence() {
        // Error feedback and warm start both on, both off, and one each;
        // the square layer (slow unoptimised) takes the first two at rank
        // 4 and the first at rank 16.
        let switches = [(true, true), (false, false), (true, false), (false, true)];
        let cases = [
            (vec![1024, 1024], vec![4], 2),
            (vec![1024, 1024], vec![16], 1),
            (vec![1024], vec![1, 4, 8, 16], 4),
            (vec![33, 70], vec![1, 4, 8, 16], 4),
            // Rows far wider than any cache block: a 1-D tensor and VGG's
            // first classifier layer in miniature.
            (vec![20000], vec![4], 2),
            (vec![4, 20000], vec![4, 16], 2),
        ];
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (shape, ranks, configs) in cases {
            for rank in ranks {
                for &(ef, warm) in &switches[..configs] {
                    let mut c = PowerSgd::new(rank)
                        .unwrap()
                        .error_feedback(ef)
                        .warm_start(warm);
                    let mut reference = Reference {
                        q: Vec::new(),
                        error: Vec::new(),
                    };
                    for step in 0..5 {
                        let g = Tensor::randn(shape.clone(), 40 + step);
                        let want = reference.step(&c, &g);
                        let got = round_trip(&mut c, 0, &g).unwrap();
                        assert_eq!(
                            bits(&want),
                            bits(got.data()),
                            "{shape:?} rank {rank} ef {ef} warm {warm} step {step}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rank4_steps_on_a_square_layer_are_pinned() {
        // Three round trips (encode, both rounds, finish) on the
        // benchmark's 1024 x 1024 layer: an FNV-1a hash of the bits of
        // every decoded gradient and of the residual left behind.
        let mut c = PowerSgd::new(4).unwrap();
        let mut decoded = Vec::new();
        for step in 0..3 {
            let g = Tensor::randn([1024, 1024], 70 + step);
            decoded.extend_from_slice(round_trip(&mut c, 0, &g).unwrap().data());
        }
        let words = decoded.iter().chain(&c.layers[&0].error);
        let hash = words
            .flat_map(|v| v.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        assert_eq!(hash, 0x7075_ad12_f98e_cd3e, "{hash:#x}");
    }

    #[test]
    fn two_worker_rank4_steps_on_the_benchmark_layers_are_pinned() {
        // Three steps of two workers through the reference driver on the
        // benchmark model's four layers (`lowrank-sim`): the aggregated P̂
        // of the square layer, four 4-row groups of the 16-row layer and
        // the rank-1 bias vectors. An FNV-1a hash of the bits of every
        // decoded gradient and of each worker's residual.
        let shapes = [vec![1024, 1024], vec![1024], vec![16, 1024], vec![16]];
        let mut workers: Vec<PowerSgd> = (0..2).map(|_| PowerSgd::new(4).unwrap()).collect();
        let mut words = Vec::new();
        for step in 0..3u64 {
            for (layer, shape) in shapes.iter().enumerate() {
                let grads: Vec<Tensor> = (0..2u64)
                    .map(|w| Tensor::randn(shape.clone(), 900 + 10 * step + 2 * layer as u64 + w))
                    .collect();
                for out in all_reduce_compressed(&mut workers, layer, &grads).unwrap() {
                    words.extend_from_slice(out.data());
                }
            }
        }
        for w in &workers {
            for layer in 0..shapes.len() {
                words.extend_from_slice(&w.layers[&layer].error);
            }
        }
        let hash = words
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        assert_eq!(hash, 0xe7b7_5ca3_a643_1b63, "{hash:#x}");
    }

    #[test]
    fn residual_calls_between_encode_and_finish() {
        let g = Tensor::randn([12, 10], 3);
        let carried = Tensor::randn([12, 10], 4);
        let mut c = PowerSgd::new(2).unwrap();
        c.inject_residual(0, carried.clone()).unwrap();
        let p = c.encode(0, &g).unwrap();
        // Mid-iteration the buffer is M = grad + E: it cannot be replaced...
        assert!(matches!(
            c.inject_residual(0, carried.clone()),
            Err(CompressError::Protocol(_))
        ));
        // ...and taking it yields all of the unapplied mass, M,
        let m = c.take_residual(0).unwrap();
        assert_eq!(m.data(), g.add(&carried).unwrap().data());
        // leaves zero behind and abandons the iteration.
        assert!(c.layers[&0].error.iter().all(|&e| e == 0.0));
        assert!(c.absorb(0, 0, p).is_err());
        assert!(c.encode_round(0, 1).is_err());
        assert!(c.finish(0, g.shape()).is_err());
        // At the step boundary both calls work again.
        assert!(c.inject_residual(0, carried.clone()).unwrap());
        let out = round_trip(&mut c, 0, &g).unwrap();
        let e = Tensor::from_shape_vec([12, 10], c.take_residual(0).unwrap().into_vec()).unwrap();
        let total = out.add(&e).unwrap();
        assert!(relative_l2_error(&g.add(&carried).unwrap(), &total) < 1e-4);
    }

    #[test]
    fn encode_before_the_previous_finish_is_a_protocol_error() {
        let (g1, g2) = (Tensor::randn([6, 9], 1), Tensor::randn([6, 9], 2));
        let mut c = PowerSgd::new(2).unwrap();
        let _ = round_trip(&mut c, 0, &g1).unwrap();
        let e = c.layers[&0].error.clone();
        c.encode(0, &g1).unwrap();
        // The exchange failed; neither a re-submission nor the next
        // gradient is silently added to the M left behind.
        for g in [&g1, &g2] {
            assert!(matches!(c.encode(0, g), Err(CompressError::Protocol(_))));
        }
        // The caller decides what becomes of M = g1 + E ...
        let m = c.take_residual(0).unwrap();
        let want = g1.add(&Tensor::from_shape_vec([6, 9], e).unwrap()).unwrap();
        assert_eq!(m.data(), want.data());
        assert!(c.encode(0, &g2).is_ok());
        // ... or drops it with all other state; a new shape does the same.
        c.reset();
        c.encode(0, &g2).unwrap();
        assert!(c.encode(0, &Tensor::randn([3, 9], 3)).is_ok());
        // Without error feedback there is no E to lose.
        let mut c = PowerSgd::new(2).unwrap().error_feedback(false);
        c.encode(0, &g1).unwrap();
        assert!(c.encode(0, &g2).is_ok());
    }

    #[test]
    fn no_warm_start_still_roundtrips() {
        let g = Tensor::randn([12, 12], 3);
        let mut c = PowerSgd::new(4).unwrap().warm_start(false);
        let out = round_trip(&mut c, 0, &g).unwrap();
        assert_eq!(out.shape(), g.shape());
        assert!(out.l2_norm() > 0.0);
    }
}
