//! In-process multi-worker cluster substrate.
//!
//! Stands in for the AWS/NCCL testbed of the paper: `p` worker threads
//! exchange real bytes over channels, and a separate α–β [`cost`] model
//! prices each collective the way §4 of the paper does
//! (`T_comm(b, p, BW) = α(p−1) + 2b(p−1)/(p·BW)` for ring all-reduce).
//!
//! * [`transport`] — point-to-point mesh of channels between workers;
//! * [`collectives`] — ring all-reduce / reduce-scatter / all-gather /
//!   broadcast with actual data movement (so aggregation semantics such as
//!   associativity are *executed*, not assumed);
//! * [`cost`] — analytic communication-time model for every collective;
//! * [`SimCluster`] — spawns the worker threads and hands each a
//!   [`WorkerHandle`];
//! * [`tcp`] / [`wire`] — the real multi-process backend: the same
//!   [`Transport`] trait over `std::net` sockets with a versioned,
//!   length-prefixed wire format, bit-identical to the simulator.
//!
//! # Example
//!
//! ```
//! use gcs_cluster::SimCluster;
//!
//! let sums = SimCluster::run(4, |worker| {
//!     let mut x = vec![worker.rank() as f32 + 1.0];
//!     worker.all_reduce_sum(&mut x).unwrap();
//!     x[0]
//! });
//! assert_eq!(sums, vec![10.0; 4]); // 1+2+3+4 on every worker
//! ```

// Data-plane errors propagate as `Result`s. An attribute, not `[lints]`, so
// integration-test helpers may unwrap (`clippy.toml` exempts unit tests).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod collectives;
pub mod comm;
pub mod cost;
mod error;
pub mod faults;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use comm::{CommEngine, Pending};
pub use error::ClusterError;
pub use faults::{DeadRank, FaultEvent, FaultKind, FaultLog, FaultPlan, RecvPolicy};
pub use tcp::{TcpCluster, TcpOptions, TcpRun};
pub use transport::{Frame, NetEmu, SimCluster, TrafficCounter, Transport, WorkerHandle};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ClusterError>;
