//! Gradient compression schemes evaluated by *"On the Utility of Gradient
//! Compression in Distributed Training Systems"* (MLSys 2022).
//!
//! Every method is implemented for real — encode, aggregate and decode all
//! operate on actual gradient data — so the crate can both (a) measure true
//! encode/decode costs (the paper's Table 2) and (b) validate that the
//! optimizer-visible semantics (majority vote, error feedback, warm-started
//! power iteration) behave as published.
//!
//! # Protocol model
//!
//! A compression scheme is a [`Compressor`]: a small state machine driven
//! once per layer per iteration through
//! `encode → (aggregate → absorb)+ → finish`. Single-round methods
//! (SignSGD, Top-K, QSGD, …) use one aggregate step; PowerSGD uses two
//! (all-reduce of `P`, then of `Q`). The [`driver`] module runs the protocol
//! across a set of in-process workers and is the reference implementation
//! the distributed engine in `gcs-ddp` is tested against.
//!
//! # Example
//!
//! ```
//! use gcs_compress::{driver::all_reduce_compressed, signsgd::SignSgd, Compressor};
//! use gcs_tensor::Tensor;
//!
//! # fn main() -> Result<(), gcs_compress::CompressError> {
//! let grads = vec![
//!     Tensor::from_vec(vec![-0.5, 1.0, 2.0]),
//!     Tensor::from_vec(vec![-0.1, -3.0, 1.0]),
//!     Tensor::from_vec(vec![-1.7, 4.0, -0.2]),
//! ];
//! let mut workers: Vec<SignSgd> = (0..3).map(|_| SignSgd::new()).collect();
//! let out = all_reduce_compressed(&mut workers, 0, &grads)?;
//! // Majority vote: coordinate 0 is negative on all workers.
//! assert!(out[0].data()[0] < 0.0);
//! # Ok(())
//! # }
//! ```

// Data-plane errors propagate as `Result`s. An attribute, not `[lints]`, so
// integration-test helpers may unwrap (`clippy.toml` exempts unit tests).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod adaptive;
pub mod atomo;
pub mod dgc;
pub mod double_squeeze;
pub mod driver;
mod error;
pub mod fp16;
pub mod natural;
pub mod none;
pub mod onebit;
mod payload;
pub mod powersgd;
pub mod qsgd;
pub mod randomk;
pub mod registry;
pub mod signsgd;
pub mod sketch;
pub mod terngrad;
pub mod topk;
mod traits;
pub mod variance;

pub use error::CompressError;
pub use payload::{Factor, Payload, PayloadShell};
pub use traits::{Compressor, Properties};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CompressError>;
