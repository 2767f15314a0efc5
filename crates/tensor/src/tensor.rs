//! The dense tensor type.

use crate::Shape;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::error::Error;
use std::fmt;

/// Error type for tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two tensors (or a tensor and a buffer) had incompatible shapes.
    ShapeMismatch {
        /// Shape (or length) expected by the operation.
        expected: String,
        /// Shape (or length) actually supplied.
        actual: String,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { expected, actual } => {
                write!(f, "shape mismatch: expected {expected}, got {actual}")
            }
        }
    }
}

impl Error for TensorError {}

/// A contiguous, row-major dense `f32` tensor.
///
/// This is the value type gradients are represented with throughout the
/// study. It is intentionally simple — contiguous storage, eager
/// elementwise ops — because the compression kernels built on top of it
/// (power iteration, top-k selection, sign packing) only need flat access
/// and matrix views.
///
/// # Example
///
/// ```
/// use gcs_tensor::Tensor;
///
/// let mut g = Tensor::from_vec(vec![1.0, -2.0, 3.0]);
/// g.scale(0.5);
/// assert_eq!(g.data(), &[0.5, -1.0, 1.5]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        Tensor {
            data: vec![0.0; shape.numel()],
            shape,
        }
    }

    /// Creates a 1-D tensor owning `data`.
    pub fn from_vec(data: Vec<f32>) -> Self {
        let shape = Shape::new(vec![data.len()]);
        Tensor { data, shape }
    }

    /// Creates a tensor from `data` with an explicit shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `data.len()` does not equal
    /// `shape.numel()`.
    pub fn from_shape_vec(shape: impl Into<Shape>, data: Vec<f32>) -> crate::Result<Self> {
        let shape = shape.into();
        if data.len() != shape.numel() {
            return Err(TensorError::ShapeMismatch {
                expected: format!("{} elements", shape.numel()),
                actual: format!("{} elements", data.len()),
            });
        }
        Ok(Tensor { data, shape })
    }

    /// Creates a tensor with i.i.d. standard-normal entries drawn from a
    /// seeded RNG (Box–Muller over uniform draws; deterministic per seed).
    ///
    /// The stream layout, which [`Tensor::fill_randn`] and every caller
    /// that draws a buffer in windows rely on: after seeding
    /// `StdRng::seed_from_u64(seed)`, element pair `i` (elements `2i` and
    /// `2i + 1`) is one Box–Muller pair over draws `2i` and `2i + 1`, the
    /// first giving the radius and the second the angle; element `2i` is the
    /// cosine term and `2i + 1` the sine term. An odd element count drops
    /// the last sine. So element `k` depends on the seed and `k` alone, and
    /// any pair-aligned window of the buffer can be drawn on its own.
    pub fn randn(shape: impl Into<Shape>, seed: u64) -> Self {
        let shape = shape.into();
        let mut data = vec![0.0; shape.numel()];
        Tensor::fill_randn(&mut data, seed, 0);
        Tensor { data, shape }
    }

    /// Writes elements `start..start + out.len()` of the standard-normal
    /// stream [`Tensor::randn`] draws for `seed`: filling consecutive windows
    /// of one buffer, in any order and on any threads, gives the bits one
    /// `randn` call does. Allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `start` is odd: a window must begin on a Box–Muller pair.
    pub fn fill_randn(out: &mut [f32], seed: u64, start: usize) {
        assert!(
            start.is_multiple_of(2),
            "randn window starts mid-pair at {start}"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        rng.advance(start as u64);
        let mut pairs = out.chunks_exact_mut(2);
        for pair in &mut pairs {
            let (r, theta) = box_muller_polar(&mut rng);
            pair[0] = r * theta.cos();
            pair[1] = r * theta.sin();
        }
        if let [last] = pairs.into_remainder() {
            let (r, theta) = box_muller_polar(&mut rng);
            *last = r * theta.cos();
        }
    }

    /// Creates a tensor with entries uniform in `[lo, hi)` from a seeded RNG.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn rand_uniform(shape: impl Into<Shape>, lo: f32, hi: f32, seed: u64) -> Self {
        assert!(lo < hi, "rand_uniform requires lo < hi");
        let shape = shape.into();
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..shape.numel()).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor { data, shape }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of the underlying buffer (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// In-place scalar multiply.
    pub fn scale(&mut self, s: f32) {
        crate::kernels::scale(&mut self.data, s);
    }

    /// Returns `self * s` as a new tensor.
    pub fn scaled(&self, s: f32) -> Tensor {
        let mut out = self.clone();
        out.scale(s);
        out
    }

    /// In-place elementwise addition: `self += other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> crate::Result<()> {
        self.check_same_shape(other)?;
        crate::kernels::add_assign(&mut self.data, &other.data);
        Ok(())
    }

    /// In-place elementwise subtraction: `self -= other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub(crate) fn sub_assign(&mut self, other: &Tensor) -> crate::Result<()> {
        self.check_same_shape(other)?;
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a -= b;
        }
        Ok(())
    }

    /// In-place fused multiply-add: `self += alpha * other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> crate::Result<()> {
        self.check_same_shape(other)?;
        crate::kernels::axpy(&mut self.data, alpha, &other.data);
        Ok(())
    }

    /// Returns `self + other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &Tensor) -> crate::Result<Tensor> {
        let mut out = self.clone();
        out.add_assign(other)?;
        Ok(out)
    }

    /// Returns `self - other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, other: &Tensor) -> crate::Result<Tensor> {
        let mut out = self.clone();
        out.sub_assign(other)?;
        Ok(out)
    }

    /// Dot product of two tensors viewed as flat vectors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if element counts differ.
    pub(crate) fn dot(&self, other: &Tensor) -> crate::Result<f32> {
        if self.numel() != other.numel() {
            return Err(TensorError::ShapeMismatch {
                expected: format!("{} elements", self.numel()),
                actual: format!("{} elements", other.numel()),
            });
        }
        Ok(self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum())
    }

    /// Euclidean (Frobenius) norm.
    pub fn l2_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Sum of absolute values (lane-striped association order — see
    /// [`crate::kernels::sum_abs`] — identical under scalar and SIMD
    /// dispatch).
    pub fn l1_norm(&self) -> f32 {
        crate::kernels::sum_abs(&self.data)
    }

    /// Maximum absolute value (0 for an empty tensor).
    pub fn linf_norm(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, x| m.max(x.abs()))
    }

    fn check_same_shape(&self, other: &Tensor) -> crate::Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                expected: self.shape.to_string(),
                actual: other.shape.to_string(),
            });
        }
        Ok(())
    }
}

/// One Box–Muller pair's radius and angle, from two uniform draws.
#[inline]
fn box_muller_polar(rng: &mut StdRng) -> (f32, f32) {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    ((-2.0 * u1.ln()).sqrt(), 2.0 * std::f32::consts::PI * u2)
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::from_vec(Vec::new())
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{}(", self.shape)?;
        let show = self.data.len().min(8);
        for (i, v) in self.data[..show].iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        if self.data.len() > show {
            write!(f, ", …")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_are_zero() {
        let z = Tensor::zeros([2, 3]);
        assert_eq!(z.numel(), 6);
        assert!(z.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn from_shape_vec_validates_len() {
        assert!(Tensor::from_shape_vec([2, 2], vec![1.0; 4]).is_ok());
        let err = Tensor::from_shape_vec([2, 2], vec![1.0; 3]).unwrap_err();
        assert!(matches!(err, TensorError::ShapeMismatch { .. }));
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let a = Tensor::randn([100], 7);
        let b = Tensor::randn([100], 7);
        let c = Tensor::randn([100], 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn randn_has_roughly_standard_moments() {
        let t = Tensor::randn([100_000], 1);
        let mean = t.data().iter().sum::<f32>() / t.numel() as f32;
        assert!(mean.abs() < 0.02, "mean {mean}");
        let var = t.data().iter().map(|x| x * x).sum::<f32>() / t.numel() as f32;
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    /// The stream layout `randn` documents, written as one sequential
    /// push loop: the reference the windowed fill is checked against.
    fn sequential_randn(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos());
            if data.len() < n {
                data.push(r * theta.sin());
            }
        }
        data
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn randn_is_the_sequential_stream() {
        for n in [0, 1, 2, 3, 64, 1001, 4096] {
            let t = Tensor::randn([n], 0x77);
            assert_eq!(bits(t.data()), bits(&sequential_randn(n, 0x77)), "n {n}");
        }
    }

    #[test]
    fn fill_randn_windows_are_slices_of_the_stream() {
        for (total, seed) in [(1000, 3), (1001, 0x77), (65_537, 1)] {
            let stream = sequential_randn(total, seed);
            // (start, len): the head, mid-stream, odd lengths, windows that
            // end on or start at another's edge, and the odd total's tail.
            let windows = [
                (0, 1),
                (0, 2),
                (0, 64),
                (2, 7),
                (64, 64),
                (128, 1),
                (500, 300),
                (500, 0),
                (total - total % 2 - 2, 2),
                (total - total % 2, total % 2),
                (total - total % 2 - 100, 100 + total % 2),
            ];
            for (start, len) in windows {
                let mut out = vec![f32::NAN; len];
                Tensor::fill_randn(&mut out, seed, start);
                let want = &stream[start..start + len];
                assert_eq!(bits(&out), bits(want), "total {total} at {start}+{len}");
            }
            // Consecutive pair-aligned windows rebuild the whole buffer.
            let mut joined = vec![f32::NAN; total];
            let mut start = 0;
            for width in [2, 6, 64, 330].into_iter().cycle() {
                let end = (start + width).min(total);
                Tensor::fill_randn(&mut joined[start..end], seed, start);
                start = end;
                if start == total {
                    break;
                }
            }
            assert_eq!(bits(&joined), bits(&stream), "total {total} joined");
        }
    }

    #[test]
    #[should_panic(expected = "mid-pair")]
    fn fill_randn_refuses_an_odd_start() {
        Tensor::fill_randn(&mut [0.0; 4], 1, 3);
    }

    #[test]
    fn rand_uniform_respects_bounds() {
        let t = Tensor::rand_uniform([1000], -2.0, 3.0, 5);
        assert!(t.data().iter().all(|&x| (-2.0..3.0).contains(&x)));
    }

    #[test]
    fn arithmetic_roundtrip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(vec![0.5, 0.5, 0.5]);
        let mut c = a.add(&b).unwrap();
        c.sub_assign(&b).unwrap();
        assert_eq!(c, a);
        c.axpy(2.0, &b).unwrap();
        assert_eq!(c.data(), &[2.0, 3.0, 4.0]);
    }

    #[test]
    fn shape_mismatch_errors() {
        let a = Tensor::zeros([2]);
        let b = Tensor::zeros([3]);
        assert!(a.add(&b).is_err());
        assert!(a.dot(&b).is_err());
    }

    #[test]
    fn norms() {
        let t = Tensor::from_vec(vec![3.0, -4.0]);
        assert!((t.l2_norm() - 5.0).abs() < 1e-6);
        assert!((t.l1_norm() - 7.0).abs() < 1e-6);
        assert!((t.linf_norm() - 4.0).abs() < 1e-6);
        assert_eq!(Tensor::default().linf_norm(), 0.0);
    }

    #[test]
    fn display_truncates() {
        let t = Tensor::zeros([100]);
        let s = t.to_string();
        assert!(s.contains('…'));
        assert!(s.starts_with("Tensor[100]("));
    }

    #[test]
    fn error_display_nonempty() {
        let e = TensorError::ShapeMismatch {
            expected: "2 elements".into(),
            actual: "5 elements".into(),
        };
        assert!(!e.to_string().is_empty());
    }
}
