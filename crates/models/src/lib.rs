//! DNN model and device specifications for the gradient-compression study.
//!
//! The paper measures ResNet-50 (97 MB), ResNet-101 (170 MB) and
//! BERT<sub>BASE</sub> (418 MB) on V100 GPUs. This crate provides:
//!
//! * [`ModelSpec`]/[`LayerSpec`] — per-layer parameter shapes, generated
//!   from the real architectures (parameter counts are asserted against the
//!   published totals in tests);
//! * [`presets`] — `resnet50`, `resnet101`, `bert_base`, `bert_large`,
//!   `vgg16`, plus a tiny test model;
//! * [`DeviceSpec`] — a V100-calibrated compute model (`T_comp`) with a
//!   speedup knob for the paper's "what if compute gets k× faster"
//!   analysis (Figure 12);
//! * [`buckets`] — PyTorch-DDP-style gradient bucketing (25 MB default)
//!   and backward-pass ready-time fractions used by the overlap simulator;
//! * [`encode_cost`] — the Table-2-calibrated encode/decode time model for
//!   every compression method.
//!
//! # Example
//!
//! ```
//! use gcs_models::{presets, DeviceSpec};
//!
//! let model = presets::resnet50();
//! assert!((model.size_mb() - 97.0).abs() < 5.0);
//! let t = DeviceSpec::v100().backward_seconds(&model, 64);
//! assert!((t - 0.122).abs() < 0.02); // paper: ~122 ms
//! ```

pub mod buckets;
pub mod device;
pub mod encode_cost;
pub mod presets;
mod spec;

pub use device::DeviceSpec;
pub use spec::{LayerSpec, ModelSpec};
