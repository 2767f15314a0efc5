//! Figure 8, closed form vs event schedule: the §4 analytic model against
//! the discrete-event simulator for syncSGD, PowerSGD and SignSGD.
//!
//! The paper reports median model-vs-measurement error of 1.8% (syncSGD),
//! 1.37% (PowerSGD) and 14.2% (SignSGD, blamed on incast) on a real
//! testbed. No run of this repo's runtime is compared here yet: both
//! columns are deterministic, and their gap is what the closed form
//! idealises — syncSGD's bucket overlap; a sequential method's schedule
//! is the closed form's own sum.

use gcs_bench::{ms, paper_batch, paper_models, paper_worker_counts, print_table};
use gcs_compress::registry::MethodConfig;
use gcs_core::study::{Study, StudyRow};

fn main() {
    let methods = [
        ("syncSGD", MethodConfig::SyncSgd),
        ("PowerSGD r4", MethodConfig::PowerSgd { rank: 4 }),
        ("SignSGD", MethodConfig::SignSgd),
    ];
    let mut json = Vec::new();
    for (label, method) in &methods {
        let mut rows = Vec::new();
        let mut errors = Vec::new();
        for model in paper_models() {
            let counts: Vec<usize> = if model.name.starts_with("BERT") && *label == "SignSGD" {
                paper_worker_counts()
                    .into_iter()
                    .filter(|&p| p <= 32)
                    .collect()
            } else {
                paper_worker_counts()
            };
            let out: Vec<StudyRow> = Study::new(model.clone(), paper_batch(&model))
                .methods(vec![method.clone()])
                .worker_counts(counts)
                .run();
            for r in &out {
                errors.push(r.model_error());
                rows.push(vec![
                    r.model.clone(),
                    r.workers.to_string(),
                    ms(r.simulated_s),
                    ms(r.predicted_s),
                    format!("{:.1}%", r.model_error() * 100.0),
                ]);
                json.push(serde_json::json!({
                    "method": label,
                    "model": r.model,
                    "workers": r.workers,
                    "simulated_s": r.simulated_s,
                    "predicted_s": r.predicted_s,
                    "error": r.model_error(),
                }));
            }
        }
        print_table(
            &format!("Figure 8: closed form vs event schedule — {label}"),
            &["Model", "GPUs", "Simulated (ms)", "Predicted (ms)", "Error"],
            &rows,
        );
        let median = gcs_tensor::stats::median(&errors);
        println!(
            "Median model error for {label}: {:.2}%  (paper: 1.8% sync / 1.37% PowerSGD / 14.2% SignSGD)",
            median * 100.0
        );
    }
    // The paper's SignSGD error (14.2 %) comes from incast on the real
    // testbed — an effect its model (and ours) deliberately omits. Turn
    // incast ON in the event schedule only and watch the same one-sided
    // error appear.
    let mut incast_errors = Vec::new();
    for model in paper_models() {
        let counts: Vec<usize> = if model.name.starts_with("BERT") {
            paper_worker_counts()
                .into_iter()
                .filter(|&p| p <= 32)
                .collect()
        } else {
            paper_worker_counts()
        };
        for p in counts {
            let clean = gcs_ddp::sim::SimConfig::new(model.clone(), p)
                .batch_per_worker(gcs_bench::paper_batch(&model))
                .method(MethodConfig::SignSgd);
            let congested = clean
                .clone()
                .network(gcs_cluster::cost::NetworkModel::datacenter_10gbps().with_incast(0.22));
            let predicted = gcs_core::perf::predict_iteration(&clean).total_s;
            let simulated = gcs_ddp::sim::simulate_iteration(&congested).total_s;
            incast_errors.push(((predicted - simulated) / simulated).abs());
        }
    }
    let median_incast = gcs_tensor::stats::median(&incast_errors);
    println!(
        "
With incast enabled in the event schedule (severity 0.22) but not in the model,
         SignSGD's median model error becomes {:.1}% — the same one-sided degradation
         the paper reports (14.2%) and attributes to incast (§4.3).",
        median_incast * 100.0
    );

    gcs_bench::write_json("fig08", &serde_json::Value::Array(json));
}
