//! Ablation: flat ring all-reduce (what the paper models) vs hierarchical
//! NVLink-aware all-reduce (what NCCL actually does on p3.8xlarge's 4-GPU
//! nodes). Quantifies how much headroom the flat-ring assumption leaves on
//! the table — and therefore how much *less* room compression has against
//! a topology-aware baseline.

use gcs_bench::{ms, print_table};
use gcs_cluster::cost::HierarchicalNetwork;
use gcs_models::presets;

fn main() {
    let h = HierarchicalNetwork::p3_8xlarge();
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for model in presets::paper_models() {
        let bytes = model.size_bytes();
        for p in [8usize, 16, 32, 64, 96] {
            let flat = h.flat_all_reduce(bytes, p);
            let hier = h.hierarchical_all_reduce(bytes, p);
            rows.push(vec![
                model.name.clone(),
                p.to_string(),
                ms(flat),
                ms(hier),
                format!("{:.2}x", flat / hier),
            ]);
            json.push(serde_json::json!({
                "model": model.name, "workers": p,
                "flat_s": flat, "hierarchical_s": hier,
            }));
        }
    }
    print_table(
        "Ablation: flat ring vs hierarchical all-reduce (4 GPUs/node, NVLink intra)",
        &[
            "Model",
            "GPUs",
            "Flat ring (ms)",
            "Hierarchical (ms)",
            "Speedup",
        ],
        &rows,
    );
    println!(
        "\nExpected shape: hierarchy wins everywhere multi-node (only node leaders\n\
         cross the slow network), and the win grows with GPUs per node."
    );
    gcs_bench::write_json("ablation_hierarchy", &serde_json::Value::Array(json));
}
