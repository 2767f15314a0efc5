//! Synthetic learning tasks with exact, hand-written backward passes.

use gcs_tensor::kernels;
use gcs_tensor::matrix::{a_mul_bt, at_mul_b_into, matmul, MatrixRef};
use gcs_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A learning problem: parameters, stochastic gradients, and a loss to
/// monitor.
///
/// Parameters are a list of tensors ("layers"), matching the unit of
/// gradient compression.
pub trait Task {
    /// Task name for reports.
    fn name(&self) -> &str;

    /// Fresh parameter tensors (deterministic per seed).
    fn init_params(&self, seed: u64) -> Vec<Tensor>;

    /// Stochastic gradient of the loss on a size-`batch` minibatch drawn
    /// with `seed`, evaluated at `params`. Returns one gradient per
    /// parameter tensor.
    fn minibatch_grad(&self, params: &[Tensor], batch: usize, seed: u64) -> Vec<Tensor>;

    /// Full-dataset loss at `params` (the convergence metric).
    fn full_loss(&self, params: &[Tensor]) -> f64;
}

/// Least-squares linear regression on a fixed synthetic dataset:
/// `y = X w* + ε`. Parameters: `[w (d), b (1)]`.
///
/// Convex, so every sensible optimizer must reach near-zero excess loss —
/// the cleanest test of whether a compression scheme preserves enough
/// gradient information.
#[derive(Debug, Clone)]
pub struct LinearRegression {
    dim: usize,
    x: Vec<f32>,
    y: Vec<f32>,
    n: usize,
}

impl LinearRegression {
    /// Creates a dataset of `n` samples in `dim` dimensions with label
    /// noise `noise` (std), deterministic per `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `n == 0`.
    pub fn new(dim: usize, n: usize, noise: f32, seed: u64) -> Self {
        assert!(dim > 0 && n > 0, "dataset must be non-empty");
        let x = Tensor::randn([n, dim], seed).into_vec();
        let w_star = Tensor::randn([dim], seed ^ 0xdead_beef).into_vec();
        let b_star = 0.5f32;
        let noise_v = Tensor::randn([n], seed ^ 0x1234).into_vec();
        let y: Vec<f32> = (0..n)
            .map(|i| {
                let dot: f32 = (0..dim).map(|j| x[i * dim + j] * w_star[j]).sum();
                dot + b_star + noise * noise_v[i]
            })
            .collect();
        LinearRegression { dim, x, y, n }
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Dataset size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the dataset is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    fn predict(&self, params: &[Tensor], i: usize) -> f32 {
        let w = params[0].data();
        let b = params[1].data()[0];
        (0..self.dim)
            .map(|j| self.x[i * self.dim + j] * w[j])
            .sum::<f32>()
            + b
    }
}

impl Task for LinearRegression {
    fn name(&self) -> &str {
        "linear-regression"
    }

    fn init_params(&self, seed: u64) -> Vec<Tensor> {
        vec![
            Tensor::randn([self.dim], seed).scaled(0.1),
            Tensor::zeros([1]),
        ]
    }

    fn minibatch_grad(&self, params: &[Tensor], batch: usize, seed: u64) -> Vec<Tensor> {
        let mut rng = StdRng::seed_from_u64(seed);
        let batch = batch.max(1);
        let mut gw = vec![0.0f32; self.dim];
        let mut gb = 0.0f32;
        for _ in 0..batch {
            let i = rng.gen_range(0..self.n);
            let err = self.predict(params, i) - self.y[i];
            let row = &self.x[i * self.dim..(i + 1) * self.dim];
            for (g, &x) in gw.iter_mut().zip(row) {
                *g += 2.0 * err * x;
            }
            gb += 2.0 * err;
        }
        let inv = 1.0 / batch as f32;
        for g in &mut gw {
            *g *= inv;
        }
        vec![Tensor::from_vec(gw), Tensor::from_vec(vec![gb * inv])]
    }

    fn full_loss(&self, params: &[Tensor]) -> f64 {
        let mut loss = 0.0f64;
        for i in 0..self.n {
            let err = (self.predict(params, i) - self.y[i]) as f64;
            loss += err * err;
        }
        loss / self.n as f64
    }
}

/// Binary logistic regression on linearly separable-ish synthetic data:
/// `P(y=1|x) = σ(wᵀx + b)`, trained with the exact log-loss gradient.
/// Parameters: `[w (d), b (1)]`. Convex like [`LinearRegression`] but with
/// bounded gradients — a different stress profile for quantizers (the
/// per-coordinate magnitudes shrink as training converges, which is where
/// fixed-scale schemes like plain SignSGD hurt the most).
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    dim: usize,
    x: Vec<f32>,
    y: Vec<f32>,
    n: usize,
}

impl LogisticRegression {
    /// Creates `n` samples in `dim` dimensions around a random separating
    /// hyperplane with `flip` label-noise probability, deterministic per
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `n == 0` or `flip` is not in `[0, 0.5)`.
    pub fn new(dim: usize, n: usize, flip: f32, seed: u64) -> Self {
        assert!(dim > 0 && n > 0, "dataset must be non-empty");
        assert!(
            (0.0..0.5).contains(&flip),
            "label noise must be in [0, 0.5)"
        );
        let x = Tensor::randn([n, dim], seed).into_vec();
        let w_star = Tensor::randn([dim], seed ^ 0xfeed).into_vec();
        let noise = Tensor::rand_uniform([n], 0.0, 1.0, seed ^ 0x9a9a).into_vec();
        let y: Vec<f32> = (0..n)
            .map(|i| {
                let margin: f32 = (0..dim).map(|j| x[i * dim + j] * w_star[j]).sum();
                let label = if margin >= 0.0 { 1.0 } else { 0.0 };
                if noise[i] < flip {
                    1.0 - label
                } else {
                    label
                }
            })
            .collect();
        LogisticRegression { dim, x, y, n }
    }

    fn sigmoid(z: f32) -> f32 {
        1.0 / (1.0 + (-z).exp())
    }

    fn prob(&self, params: &[Tensor], i: usize) -> f32 {
        let w = params[0].data();
        let b = params[1].data()[0];
        let z: f32 = (0..self.dim)
            .map(|j| self.x[i * self.dim + j] * w[j])
            .sum::<f32>()
            + b;
        Self::sigmoid(z)
    }

    /// Classification accuracy at threshold 0.5.
    pub fn accuracy(&self, params: &[Tensor]) -> f64 {
        let correct = (0..self.n)
            .filter(|&i| (self.prob(params, i) >= 0.5) == (self.y[i] >= 0.5))
            .count();
        correct as f64 / self.n as f64
    }
}

impl Task for LogisticRegression {
    fn name(&self) -> &str {
        "logistic-regression"
    }

    fn init_params(&self, seed: u64) -> Vec<Tensor> {
        vec![
            Tensor::randn([self.dim], seed).scaled(0.01),
            Tensor::zeros([1]),
        ]
    }

    fn minibatch_grad(&self, params: &[Tensor], batch: usize, seed: u64) -> Vec<Tensor> {
        let mut rng = StdRng::seed_from_u64(seed);
        let batch = batch.max(1);
        let mut gw = vec![0.0f32; self.dim];
        let mut gb = 0.0f32;
        for _ in 0..batch {
            let i = rng.gen_range(0..self.n);
            let err = self.prob(params, i) - self.y[i]; // dL/dz
            let row = &self.x[i * self.dim..(i + 1) * self.dim];
            for (g, &x) in gw.iter_mut().zip(row) {
                *g += err * x;
            }
            gb += err;
        }
        let inv = 1.0 / batch as f32;
        for g in &mut gw {
            *g *= inv;
        }
        vec![Tensor::from_vec(gw), Tensor::from_vec(vec![gb * inv])]
    }

    fn full_loss(&self, params: &[Tensor]) -> f64 {
        let mut loss = 0.0f64;
        for i in 0..self.n {
            let p = f64::from(self.prob(params, i)).clamp(1e-9, 1.0 - 1e-9);
            let y = f64::from(self.y[i]);
            loss -= y * p.ln() + (1.0 - y) * (1.0 - p).ln();
        }
        loss / self.n as f64
    }
}

/// Two-layer MLP (tanh hidden) softmax classification on Gaussian blobs.
/// Parameters: `[W1 (h x d), b1 (h), W2 (c x h), b2 (c)]` with an exact
/// hand-written backward pass.
///
/// The hidden tanh is [`kernels::tanh`], fdlibm's `tanhf` in every kernel
/// table, so it does not depend on the host libm. The softmax's `exp` and
/// the loss's `ln` still call the host libm's.
#[derive(Debug, Clone)]
pub struct MlpClassification {
    dim: usize,
    hidden: usize,
    classes: usize,
    x: Vec<f32>,
    labels: Vec<usize>,
    n: usize,
}

impl MlpClassification {
    /// Creates `n` samples from `classes` Gaussian blobs in `dim`
    /// dimensions (unit-ish separation), deterministic per `seed`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `classes == 1`.
    pub fn new(dim: usize, hidden: usize, classes: usize, n: usize, seed: u64) -> Self {
        assert!(
            dim > 0 && hidden > 0 && classes > 1 && n > 0,
            "invalid MLP task dimensions"
        );
        let centers = Tensor::randn([classes, dim], seed).scaled(2.0).into_vec();
        let noise = Tensor::randn([n, dim], seed ^ 0x77).into_vec();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xbeef);
        let mut x = vec![0.0f32; n * dim];
        let mut labels = vec![0usize; n];
        for i in 0..n {
            let c = rng.gen_range(0..classes);
            labels[i] = c;
            for j in 0..dim {
                x[i * dim + j] = centers[c * dim + j] + noise[i * dim + j];
            }
        }
        MlpClassification {
            dim,
            hidden,
            classes,
            x,
            labels,
            n,
        }
    }

    /// Dataset rows `idx`, gathered into one `idx.len() x dim` batch.
    fn gather(&self, idx: &[usize]) -> Vec<f32> {
        let d = self.dim;
        let mut xb = Vec::with_capacity(idx.len() * d);
        for &i in idx {
            xb.extend_from_slice(&self.x[i * d..(i + 1) * d]);
        }
        xb
    }

    /// Forward pass for the input rows `xb` (`b x dim`); returns (hidden
    /// activations, logits).
    fn forward(&self, params: &[Tensor], xb: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let (d, h, c) = (self.dim, self.hidden, self.classes);
        let b = xb.len() / d;
        // hidden = tanh(X W1ᵀ + b1)
        let mut hid = vec![0.0f32; b * h];
        a_mul_bt(
            MatrixRef::new(xb, b, d).expect("xb shape"),
            MatrixRef::new(params[0].data(), h, d).expect("w1 shape"),
            &mut hid,
        )
        .expect("dims agree");
        for row in hid.chunks_exact_mut(h) {
            for (v, &bias) in row.iter_mut().zip(params[1].data()) {
                *v += bias;
            }
        }
        kernels::tanh(&mut hid);
        // logits = H W2ᵀ + b2
        let mut logits = vec![0.0f32; b * c];
        a_mul_bt(
            MatrixRef::new(&hid, b, h).expect("hid shape"),
            MatrixRef::new(params[2].data(), c, h).expect("w2 shape"),
            &mut logits,
        )
        .expect("dims agree");
        for r in 0..b {
            for k in 0..c {
                logits[r * c + k] += params[3].data()[k];
            }
        }
        (hid, logits)
    }

    fn softmax_rows(logits: &mut [f32], b: usize, c: usize) {
        for r in 0..b {
            let row = &mut logits[r * c..(r + 1) * c];
            let max = row.iter().fold(f32::MIN, |m, &x| m.max(x));
            let mut sum = 0.0f32;
            for x in row.iter_mut() {
                *x = (*x - max).exp();
                sum += *x;
            }
            for x in row.iter_mut() {
                *x /= sum;
            }
        }
    }

    /// Classification accuracy over the full dataset. A row whose
    /// probabilities hold a NaN (a diverged model) predicts no class and
    /// counts as wrong.
    pub fn accuracy(&self, params: &[Tensor]) -> f64 {
        let (_, mut logits) = self.forward(params, &self.x);
        Self::softmax_rows(&mut logits, self.n, self.classes);
        let mut correct = 0usize;
        for (row, &label) in logits.chunks_exact(self.classes).zip(&self.labels) {
            if row.iter().any(|p| p.is_nan()) {
                continue;
            }
            let pred = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(k, _)| k);
            correct += usize::from(pred == Some(label));
        }
        correct as f64 / self.n as f64
    }
}

impl Task for MlpClassification {
    fn name(&self) -> &str {
        "mlp-classification"
    }

    fn init_params(&self, seed: u64) -> Vec<Tensor> {
        let (d, h, c) = (self.dim, self.hidden, self.classes);
        vec![
            Tensor::randn([h, d], seed).scaled(1.0 / (d as f32).sqrt()),
            Tensor::zeros([h]),
            Tensor::randn([c, h], seed ^ 1).scaled(1.0 / (h as f32).sqrt()),
            Tensor::zeros([c]),
        ]
    }

    fn minibatch_grad(&self, params: &[Tensor], batch: usize, seed: u64) -> Vec<Tensor> {
        let mut rng = StdRng::seed_from_u64(seed);
        let b = batch.max(1);
        let (d, h, c) = (self.dim, self.hidden, self.classes);
        let idx: Vec<usize> = (0..b).map(|_| rng.gen_range(0..self.n)).collect();
        let xb = self.gather(&idx);
        let (hid, mut probs) = self.forward(params, &xb);
        Self::softmax_rows(&mut probs, b, c);
        // dlogits = probs - onehot(labels), averaged over the batch.
        for (r, &i) in idx.iter().enumerate() {
            probs[r * c + self.labels[i]] -= 1.0;
        }
        let inv = 1.0 / b as f32;
        for x in &mut probs {
            *x *= inv;
        }
        // The weight gradients are written once into fresh buffers, never
        // zero-filled first.
        // gW2 = dlogitsᵀ H  (c x h); gb2 = column sums of dlogits.
        let mut gw2 = Vec::new();
        at_mul_b_into(
            MatrixRef::new(&probs, b, c).expect("probs shape"),
            MatrixRef::new(&hid, b, h).expect("hid shape"),
            &mut gw2,
        )
        .expect("dims agree");
        let mut gb2 = vec![0.0f32; c];
        for r in 0..b {
            for k in 0..c {
                gb2[k] += probs[r * c + k];
            }
        }
        // dhid = dlogits W2, through tanh': (1 - hid^2).
        let mut dhid = vec![0.0f32; b * h];
        matmul(
            MatrixRef::new(&probs, b, c).expect("probs shape"),
            MatrixRef::new(params[2].data(), c, h).expect("w2 shape"),
            &mut dhid,
        )
        .expect("dims agree");
        for (dh, &hv) in dhid.iter_mut().zip(&hid) {
            *dh *= 1.0 - hv * hv;
        }
        // gW1 = dhidᵀ X  (h x d); gb1 = column sums of dhid.
        let mut gw1 = Vec::new();
        at_mul_b_into(
            MatrixRef::new(&dhid, b, h).expect("dhid shape"),
            MatrixRef::new(&xb, b, d).expect("xb shape"),
            &mut gw1,
        )
        .expect("dims agree");
        let mut gb1 = vec![0.0f32; h];
        for r in 0..b {
            for j in 0..h {
                gb1[j] += dhid[r * h + j];
            }
        }
        vec![
            Tensor::from_shape_vec([h, d], gw1).expect("gw1 shape"),
            Tensor::from_vec(gb1),
            Tensor::from_shape_vec([c, h], gw2).expect("gw2 shape"),
            Tensor::from_vec(gb2),
        ]
    }

    fn full_loss(&self, params: &[Tensor]) -> f64 {
        let (_, mut probs) = self.forward(params, &self.x);
        Self::softmax_rows(&mut probs, self.n, self.classes);
        let mut loss = 0.0f64;
        for i in 0..self.n {
            let p = probs[i * self.classes + self.labels[i]].max(1e-12);
            loss -= (p as f64).ln();
        }
        loss / self.n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linreg_dataset_is_deterministic() {
        let a = LinearRegression::new(4, 32, 0.0, 1);
        let b = LinearRegression::new(4, 32, 0.0, 1);
        assert_eq!(a.x, b.x);
        assert_eq!(a.y, b.y);
    }

    #[test]
    fn linreg_gradient_matches_finite_differences() {
        let task = LinearRegression::new(3, 16, 0.0, 2);
        // Use the full dataset as the "minibatch" via a big batch + fixed
        // seed, then check against numeric gradient of the minibatch loss.
        // Simpler: check descent direction decreases loss.
        let params = task.init_params(5);
        let grads = task.minibatch_grad(&params, 512, 9);
        let mut stepped: Vec<Tensor> = params.clone();
        for (p, g) in stepped.iter_mut().zip(&grads) {
            p.axpy(-0.01, g).unwrap();
        }
        assert!(task.full_loss(&stepped) < task.full_loss(&params));
    }

    #[test]
    fn linreg_zero_noise_is_solvable_to_near_zero() {
        let task = LinearRegression::new(4, 64, 0.0, 3);
        let mut params = task.init_params(7);
        for step in 0..400 {
            let grads = task.minibatch_grad(&params, 64, step);
            for (p, g) in params.iter_mut().zip(&grads) {
                p.axpy(-0.05, g).unwrap();
            }
        }
        assert!(
            task.full_loss(&params) < 1e-3,
            "loss {}",
            task.full_loss(&params)
        );
    }

    #[test]
    fn logistic_gradient_matches_finite_differences() {
        let task = LogisticRegression::new(3, 32, 0.0, 9);
        let params = task.init_params(1);
        // Exact full-dataset gradient (no sampling noise) vs central
        // differences of the full loss.
        let mut gw = [0.0f32; 3];
        let mut gb = 0.0f32;
        for i in 0..task.n {
            let err = task.prob(&params, i) - task.y[i];
            for (j, g) in gw.iter_mut().enumerate() {
                *g += err * task.x[i * 3 + j];
            }
            gb += err;
        }
        let inv = 1.0 / task.n as f32;
        let eps = 1e-3f32;
        for (coord, &g_coord) in gw.iter().enumerate() {
            let mut plus = params.clone();
            plus[0].data_mut()[coord] += eps;
            let mut minus = params.clone();
            minus[0].data_mut()[coord] -= eps;
            let numeric = (task.full_loss(&plus) - task.full_loss(&minus)) / (2.0 * f64::from(eps));
            let analytic = f64::from(g_coord * inv);
            assert!(
                (numeric - analytic).abs() < 0.02 * analytic.abs().max(0.01),
                "coord {coord}: numeric {numeric} analytic {analytic}"
            );
        }
        let _ = gb;
    }

    #[test]
    fn logistic_regression_is_learnable() {
        let task = LogisticRegression::new(6, 256, 0.02, 11);
        let mut params = task.init_params(2);
        let before = task.accuracy(&params);
        for step in 0..400 {
            let g = task.minibatch_grad(&params, 64, step);
            for (p, gi) in params.iter_mut().zip(&g) {
                p.axpy(-0.5, gi).unwrap();
            }
        }
        let after = task.accuracy(&params);
        assert!(after > 0.92, "accuracy {before} -> {after}");
        assert!(after > before);
    }

    #[test]
    fn mlp_gradient_is_a_descent_direction() {
        let task = MlpClassification::new(5, 12, 3, 128, 4);
        let params = task.init_params(11);
        let grads = task.minibatch_grad(&params, 128, 0);
        let mut stepped = params.clone();
        for (p, g) in stepped.iter_mut().zip(&grads) {
            p.axpy(-0.1, g).unwrap();
        }
        assert!(task.full_loss(&stepped) < task.full_loss(&params));
    }

    #[test]
    fn mlp_gradient_matches_finite_differences() {
        // Spot-check a few coordinates of every parameter tensor against
        // central differences on the same minibatch.
        let task = MlpClassification::new(3, 4, 2, 16, 6);
        let params = task.init_params(13);
        // A "minibatch loss" evaluator with the same sampling as
        // minibatch_grad requires replicating the RNG, so use the full
        // dataset by making batch huge and seed fixed — the sampled
        // multiset is deterministic either way.
        let batch = 64;
        let seed = 21;
        let grads = task.minibatch_grad(&params, batch, seed);
        let minibatch_loss = |params: &[Tensor]| -> f64 {
            // Recompute the sampled indices exactly as minibatch_grad does.
            let mut rng = StdRng::seed_from_u64(seed);
            let idx: Vec<usize> = (0..batch).map(|_| rng.gen_range(0..task.n)).collect();
            let (_, mut probs) = task.forward(params, &task.gather(&idx));
            MlpClassification::softmax_rows(&mut probs, batch, task.classes);
            let mut loss = 0.0f64;
            for (r, &i) in idx.iter().enumerate() {
                let p = probs[r * task.classes + task.labels[i]].max(1e-12);
                loss -= (p as f64).ln();
            }
            loss / batch as f64
        };
        let eps = 1e-3f32;
        for (pi, gi) in [(0usize, 0usize), (1, 1), (2, 2), (3, 0)] {
            let mut plus = params.clone();
            plus[pi].data_mut()[gi] += eps;
            let mut minus = params.clone();
            minus[pi].data_mut()[gi] -= eps;
            let numeric = (minibatch_loss(&plus) - minibatch_loss(&minus)) / (2.0 * eps as f64);
            let analytic = grads[pi].data()[gi] as f64;
            assert!(
                (numeric - analytic).abs() < 1e-2_f64.max(0.15 * analytic.abs()),
                "param {pi} coord {gi}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    /// FNV-1a over the bit patterns of every gradient element and of the
    /// full loss.
    fn fnv1a_bits(grads: &[Tensor], loss: f64) -> u64 {
        let bytes = grads
            .iter()
            .flat_map(|g| g.data().iter().flat_map(|v| v.to_bits().to_le_bytes()))
            .chain(loss.to_bits().to_le_bytes());
        bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn mlp_grad_and_loss_bits_are_pinned() {
        // ((dim, hidden, classes, samples, seed), batch, hash).
        // Odd sizes so every kernel tail runs: 11 and 23 rows leave partial
        // row panels, 29 hidden units and 5 classes leave partial column
        // blocks, and 37 inputs is not a multiple of any vector width.
        // Then the benchmark's two models at their batch sizes (the big
        // one's 4-row batch, the small one's 8), on 64 samples.
        let cases = [
            ((37, 29, 5, 23, 17), 11, 0x7e50_639b_29e5_2aad),
            ((1024, 1024, 16, 64, 7), 4, 0x677f_f6fe_98fa_c0d0),
            ((256, 512, 10, 64, 7), 8, 0x6df4_1ce1_d877_058b),
        ];
        for ((d, h, c, n, seed), batch, want) in cases {
            let task = MlpClassification::new(d, h, c, n, seed);
            let params = task.init_params(5);
            let grads = task.minibatch_grad(&params, batch, 3);
            let got = fnv1a_bits(&grads, task.full_loss(&params));
            assert_eq!(got, want, "{d}x{h}x{c} batch {batch}: {got:#x}");
        }
    }

    #[test]
    fn mlp_accuracy_starts_near_chance() {
        let task = MlpClassification::new(6, 8, 4, 256, 8);
        let params = task.init_params(3);
        let acc = task.accuracy(&params);
        assert!(acc < 0.7, "untrained accuracy {acc}");
    }

    #[test]
    fn mlp_accuracy_counts_nan_rows_as_wrong() {
        let task = MlpClassification::new(6, 8, 4, 256, 8);
        // One NaN weight reaches every row's logits through the dense
        // layers: a diverged run, which used to panic here.
        for layer in [0, 2] {
            let mut params = task.init_params(3);
            params[layer].data_mut()[0] = f32::NAN;
            assert_eq!(task.accuracy(&params), 0.0, "NaN in layer {layer}");
        }
    }
}
