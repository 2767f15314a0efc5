//! Distributed data-parallel engine for the gradient-compression study.
//!
//! Two complementary halves:
//!
//! * [`sim`] — a discrete-event **timing** simulator of one training
//!   iteration with the system optimizations of PyTorch DDP: gradient
//!   bucketing, communication/computation overlap on a separate stream,
//!   the γ contention factor, ring/tree all-reduce, and
//!   sequential-vs-overlapped gradient compression (§3.1). This is the
//!   stand-in for the paper's AWS testbed; the benches sample it (with
//!   calibrated jitter) to produce "measured" curves.
//! * [`exec`] — a real **data-plane** engine: `p` worker threads compress
//!   actual gradients and aggregate them through the channel-level
//!   collectives of `gcs-cluster`, reproducing exactly the semantics of the
//!   centralized reference driver in `gcs-compress`.
//!
//! # Example
//!
//! ```
//! use gcs_compress::registry::MethodConfig;
//! use gcs_ddp::sim::{simulate_iteration, SimConfig};
//!
//! let cfg = SimConfig::new(gcs_models::presets::resnet50(), 16)
//!     .batch_per_worker(64)
//!     .method(MethodConfig::SyncSgd);
//! let breakdown = simulate_iteration(&cfg);
//! assert!(breakdown.total_s > 0.0);
//! ```

// Data-plane errors propagate as `Result`s. An attribute, not `[lints]`, so
// integration-test helpers may unwrap (`clippy.toml` exempts unit tests).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod adaptive;
pub mod exec;
pub mod pipeline;
pub mod sim;
pub mod trace;
pub mod wire;

pub use adaptive::{AdaptiveEngine, SwitchRecord};
pub use exec::{summable_wire_bytes, BucketTiming};
pub use pipeline::{PipelineConfig, PipelinedEngine};
pub use trace::{RunEvent, RunEventKind};
