//! # gcs-analyze — static verification layer
//!
//! Four passes that turn the repo's correctness assumptions into
//! machine-checked invariants before anything runs:
//!
//! **Pass 1 — schedule verifier** ([`verify`], [`schedules`], [`ir`],
//! [`conformance`]): every collective (the ring all-reduce's four entry
//! points and the ring all-gather, also over a live subset as on a shrunk
//! handle; binomial-tree broadcast) is lifted into an IR of per-rank
//! `Send` / `Recv` ops and, for p ∈ {2..16} and every dead-rank subset of
//! size ≤ 2, checked op for op against a recording of the real collective
//! on `SimCluster`. The verifier then proves pairing completeness, no
//! self-sends, byte conservation per step, deterministic reduction order
//! (via symbolic per-element expression trees), and deadlock-freedom with
//! bounded channel capacities (covering the CommEngine/comm-lane
//! `sync_channel` handshake).
//!
//! **Pass 2 — workspace lint** ([`lint`]): a dependency-free token-level
//! Rust scanner for the two source rules no compiler has: raw f32
//! accumulation loops in data-plane code must route through
//! `gcs_tensor::kernels`, and no code outside tests uses
//! `Ordering::Relaxed`. The other rules are compiler lints (`unsafe_code`
//! forbidden in every crate but `gcs-tensor`, documented `unsafe` there,
//! no `unwrap`/`expect`/`panic!` in data-plane code); the scanner lists
//! every suppression of them. Every threaded component lives in a crate
//! that forbids `unsafe`, where a data race is a compile error.
//!
//! **Pass 3 — protocol state machines** ([`protocol`]): the TCP Hello
//! handshake, adaptive decision protocol, and pipeline FIFO window as
//! explicit state machines, proved free of deadlock, double-accept,
//! decision divergence, and out-of-window completion — with mutant
//! machines as seeded negatives and source anchors into the code each
//! machine models.
//!
//! **Pass 4 — deterministic wire fuzz** ([`fuzz`]): a SplitMix64-seeded
//! structured fuzzer over `gcs_cluster::wire` headers/frames and
//! `Payload::from_bytes` for all 15 registry methods; every mutation must
//! yield a typed `Wire`/`Protocol` error, never a panic.
//!
//! Passes 1 and 3 search state spaces through one explorer
//! ([`explore`]): each model is a [`explore::Machine`], and every finding
//! is an [`explore::Finding`].
//!
//! All passes run in CI via `gradcomp analyze --all` and fail the build
//! on violations; [`report`] renders `results/analyze_report.json`
//! (schema v3, stable key order).

pub mod conformance;
pub mod explore;
pub mod fuzz;
pub mod ir;
pub mod lint;
pub mod protocol;
pub mod report;
pub mod schedules;
pub mod verify;
