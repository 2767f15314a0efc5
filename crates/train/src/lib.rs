//! Convergence validation for gradient compression.
//!
//! The paper's timing analysis is deliberately "generous" to compression —
//! it ignores accuracy loss (§1). This crate closes the loop mechanically:
//! it trains real (small, synthetic) models through the *actual*
//! compression protocol of `gcs-compress`, so claims like "error feedback
//! fixes SignSGD" or "PowerSGD warm start matters" are executable.
//!
//! * [`task`] — synthetic learning problems with hand-written backward
//!   passes (linear regression, MLP classification);
//! * [`optim`] — SGD with momentum, operating on per-layer parameter
//!   tensors;
//! * [`harness`] — the distributed training loop: per-worker minibatch
//!   gradients → compressed all-reduce → identical updates on every
//!   worker.
//!
//! # Example
//!
//! ```
//! use gcs_compress::registry::MethodConfig;
//! use gcs_train::harness::{train_distributed, TrainConfig};
//! use gcs_train::task::LinearRegression;
//!
//! # fn main() -> Result<(), gcs_compress::CompressError> {
//! let task = LinearRegression::new(8, 64, 0.01, 3);
//! let cfg = TrainConfig::new().workers(2).steps(60).lr(0.2);
//! let report = train_distributed(&task, &MethodConfig::SyncSgd, &cfg)?;
//! assert!(report.final_loss() < report.initial_loss());
//! # Ok(())
//! # }
//! ```

pub mod adaptive;
pub mod harness;
pub mod local_sgd;
pub mod optim;
pub mod task;
pub mod threaded;
