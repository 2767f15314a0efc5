//! Figure 7: effect of per-worker batch size on PowerSGD's benefit
//! (ResNet-101, rank 4), plus the §3.3 BERT data point.
//!
//! Expected shape: ~40% speedup at batch 16 shrinking to a slowdown at
//! batch 64 — larger batches give syncSGD more backward time to hide its
//! communication behind.

use gcs_bench::{ms, print_table};
use gcs_compress::registry::MethodConfig;
use gcs_core::study::Study;
use gcs_models::presets;

fn main() {
    let model = presets::resnet101();
    let workers = 64;
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for batch in [16usize, 32, 64] {
        let out = Study::new(model.clone(), batch)
            .methods(vec![
                MethodConfig::SyncSgd,
                MethodConfig::PowerSgd { rank: 4 },
            ])
            .worker_counts(vec![workers])
            .run();
        let speedup = out[0].simulated_s / out[1].simulated_s;
        rows.push(vec![
            batch.to_string(),
            ms(out[0].simulated_s),
            ms(out[1].simulated_s),
            format!("{:+.1}%", (speedup - 1.0) * 100.0),
        ]);
        json.push(serde_json::json!({
            "model": model.name,
            "batch": batch,
            "sync_s": out[0].simulated_s,
            "powersgd4_s": out[1].simulated_s,
            "speedup": speedup,
        }));
    }
    print_table(
        &format!(
            "Figure 7: batch-size sweep — {} @ {workers} GPUs, PowerSGD rank 4",
            model.name
        ),
        &[
            "Batch/GPU",
            "syncSGD (ms)",
            "PowerSGD r4 (ms)",
            "PowerSGD speedup",
        ],
        &rows,
    );

    // §3.3 text: BERT at 64 machines, batch 10 vs 12.
    let bert = presets::bert_base();
    let mut bert_rows = Vec::new();
    for batch in [10usize, 12] {
        let out = Study::new(bert.clone(), batch)
            .methods(vec![
                MethodConfig::SyncSgd,
                MethodConfig::PowerSgd { rank: 4 },
            ])
            .worker_counts(vec![64])
            .run();
        let speedup = out[0].simulated_s / out[1].simulated_s;
        bert_rows.push(vec![
            batch.to_string(),
            ms(out[0].simulated_s),
            ms(out[1].simulated_s),
            format!("{:+.1}%", (speedup - 1.0) * 100.0),
        ]);
        json.push(serde_json::json!({
            "model": bert.name,
            "batch": batch,
            "sync_s": out[0].simulated_s,
            "powersgd4_s": out[1].simulated_s,
            "speedup": speedup,
        }));
    }
    print_table(
        "Figure 7 (companion, §3.3): BERT @ 64 GPUs",
        &[
            "Batch/GPU",
            "syncSGD (ms)",
            "PowerSGD r4 (ms)",
            "PowerSGD speedup",
        ],
        &bert_rows,
    );
    println!("\nExpected shape: speedup shrinks monotonically as the batch grows.");
    gcs_bench::write_json("fig07", &serde_json::Value::Array(json));
}
