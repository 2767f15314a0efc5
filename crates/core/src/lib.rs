//! The analytic performance model and what-if engine of *"On the Utility
//! of Gradient Compression in Distributed Training Systems"*.
//!
//! This crate is the paper's primary contribution, reimplemented as a
//! library:
//!
//! * [`perf`] — the §4 performance model:
//!   `T_obs ≈ max(γ·T_comp, (k−1)·T_comm(b, p, BW)) + T_comm(b̂, p, BW)`
//!   for bucketed syncSGD, and the specialized models for PowerSGD, Top-K
//!   and SignSGD (plus every other method in the catalogue);
//! * [`ideal`] — §5: how much compression would be needed for near-linear
//!   scaling (Figure 9) and how far syncSGD already is from ideal
//!   (Figure 10), which bounds the encode budget any useful scheme must
//!   fit in;
//! * [`whatif`] — §6: bandwidth sweeps (Figure 11), compute-speedup
//!   sweeps (Figure 12) and the encode-time-vs-compression tradeoff
//!   (Figure 13);
//! * [`study`] — scalability-study orchestration producing the rows behind
//!   Figures 4–6 and the model-validation comparison of Figure 8.
//!
//! # Example
//!
//! ```
//! use gcs_core::perf::predict_iteration;
//! use gcs_ddp::sim::SimConfig;
//!
//! let cfg = SimConfig::new(gcs_models::presets::bert_base(), 64).batch_per_worker(12);
//! let t = predict_iteration(&cfg);
//! assert!(t.total_s > 0.0);
//! ```

pub mod accuracy;
pub mod ideal;
pub mod perf;
pub mod study;
pub mod whatif;
