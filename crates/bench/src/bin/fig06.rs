//! Figure 6: scalability of SignSGD (majority vote) vs syncSGD.
//!
//! Expected shape: SignSGD encodes quickly but is not all-reducible; its
//! all-gather communication and majority-vote decode both grow linearly
//! with workers. The paper's headline number: at 96 GPUs on ResNet-101,
//! SignSGD ≈ 1075 ms vs < 265 ms for syncSGD.

use gcs_bench::scaling_figure;
use gcs_compress::registry::MethodConfig;
use gcs_core::study::Study;
use gcs_models::presets;

fn main() {
    let json = scaling_figure(
        "Figure 6: SignSGD scalability",
        &[MethodConfig::SignSgd],
        Some(32),
    );
    gcs_bench::write_json("fig06", &json);

    // The §1 headline comparison.
    let rows = Study::new(presets::resnet101(), 64)
        .methods(vec![MethodConfig::SyncSgd, MethodConfig::SignSgd])
        .worker_counts(vec![96])
        .run();
    println!(
        "\nHeadline check (ResNet-101, 96 GPUs): syncSGD {:.0} ms vs SignSGD {:.0} ms\n\
         (paper: <265 ms vs ~1075 ms — the ordering and ~4x gap are the reproduced shape)",
        rows[0].simulated_s * 1e3,
        rows[1].simulated_s * 1e3
    );
}
