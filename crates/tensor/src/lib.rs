//! Dense `f32` tensor substrate for the gradient-compression study.
//!
//! This crate implements the numerical kernels every gradient-compression
//! scheme in the paper relies on:
//!
//! * [`Tensor`] — a contiguous, shape-tagged `f32` buffer with elementwise
//!   arithmetic, norms and reductions;
//! * [`Matrix`](matrix::MatrixRef) views with matrix multiplication and
//!   Gram–Schmidt orthonormalization (the core of PowerSGD's power
//!   iteration);
//! * top-k / random-k index selection ([`select`]) used by sparsification
//!   compressors;
//! * sign bit-packing and majority vote ([`bits`]) used by SignSGD;
//! * half-precision conversion ([mod@f16]) used by the FP16 baseline;
//! * the kernels ([`kernels`]) behind the hot loops of all of the above:
//!   auto-vectorized scalar loops, plus runtime-dispatched AVX2/AVX-512
//!   forms where those are faster (scalar elsewhere or with
//!   `GCS_FORCE_SCALAR=1`).
//!
//! Everything is deterministic: random initialisation goes through seeded
//! [`rand::rngs::StdRng`] so experiments are exactly reproducible.
//!
//! # Example
//!
//! ```
//! use gcs_tensor::Tensor;
//!
//! let a = Tensor::randn([4, 8], 42);
//! let b = a.scaled(2.0);
//! assert!((b.l2_norm() - 2.0 * a.l2_norm()).abs() < 1e-5);
//! ```

pub mod bits;
pub mod f16;
// The only modules where `unsafe` compiles (`unsafe_code = "deny"` in
// Cargo.toml): the SIMD kernel tables and the GEMM paths built on them.
#[allow(unsafe_code)]
pub mod kernels;
#[allow(unsafe_code)]
pub mod matrix;
pub mod pool;
pub mod select;
pub mod shape;
pub mod stats;
mod tensor;

pub use shape::Shape;
pub use tensor::{Tensor, TensorError};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
