//! Scalability-study orchestration: the data behind Figures 4–8.

use crate::perf::predict_iteration;
use gcs_compress::registry::MethodConfig;
use gcs_ddp::sim::{simulate_iteration, SimConfig};
use gcs_models::ModelSpec;

/// One simulated/modelled point of a scalability study.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyRow {
    /// Model name.
    pub model: String,
    /// Method name (human readable).
    pub method: String,
    /// Worker (GPU) count.
    pub workers: usize,
    /// Per-worker batch size.
    pub batch: usize,
    /// Iteration time of the event schedule ([`simulate_iteration`]),
    /// seconds.
    pub simulated_s: f64,
    /// Closed-form (§4) prediction, seconds.
    pub predicted_s: f64,
}

impl StudyRow {
    /// |predicted − simulated| / simulated.
    pub fn model_error(&self) -> f64 {
        ((self.predicted_s - self.simulated_s) / self.simulated_s).abs()
    }
}

/// Configuration of a scalability study over worker counts × methods.
#[derive(Debug, Clone)]
pub struct Study {
    /// Model under test.
    pub model: ModelSpec,
    /// Per-worker batch size.
    pub batch: usize,
    /// Worker counts to sweep (the paper uses 8–96 in steps of 8 GPUs /
    /// 2 instances).
    pub worker_counts: Vec<usize>,
    /// Methods to compare (syncSGD is usually the first entry).
    pub methods: Vec<MethodConfig>,
}

impl Study {
    /// A study with the paper's worker counts {8, 16, 24, 32, 48, 64, 96}.
    pub fn new(model: ModelSpec, batch: usize) -> Self {
        Study {
            model,
            batch,
            worker_counts: vec![8, 16, 24, 32, 48, 64, 96],
            methods: vec![MethodConfig::SyncSgd],
        }
    }

    /// Replaces the method list.
    pub fn methods(mut self, methods: Vec<MethodConfig>) -> Self {
        self.methods = methods;
        self
    }

    /// Replaces the worker counts.
    pub fn worker_counts(mut self, counts: Vec<usize>) -> Self {
        self.worker_counts = counts;
        self
    }

    /// Runs the study: one row per (method, worker count).
    pub fn run(&self) -> Vec<StudyRow> {
        let mut rows = Vec::new();
        for method in &self.methods {
            let method_name = method
                .build()
                .map(|c| c.properties().name)
                .unwrap_or_else(|_| format!("{method:?}"));
            for &workers in &self.worker_counts {
                let cfg = SimConfig::new(self.model.clone(), workers)
                    .batch_per_worker(self.batch)
                    .method(method.clone());
                rows.push(StudyRow {
                    model: self.model.name.clone(),
                    method: method_name.clone(),
                    workers,
                    batch: self.batch,
                    simulated_s: simulate_iteration(&cfg).total_s,
                    predicted_s: predict_iteration(&cfg).total_s,
                });
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_models::presets;

    #[test]
    fn study_produces_methods_times_counts_rows() {
        let rows = Study::new(presets::resnet50(), 64)
            .methods(vec![MethodConfig::SyncSgd, MethodConfig::SignSgd])
            .worker_counts(vec![8, 16])
            .run();
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.simulated_s > 0.0));
    }

    #[test]
    fn model_error_is_small_for_syncsgd() {
        // Figure 8a: median error 1.8%. The closed form idealises the
        // bucket overlap the event schedule lays out, so the two stay
        // within a few percent.
        let rows = Study::new(presets::resnet50(), 64)
            .worker_counts(vec![8, 32, 96])
            .run();
        let errors: Vec<f64> = rows.iter().map(StudyRow::model_error).collect();
        let median = gcs_tensor::stats::median(&errors);
        assert!(median < 0.10, "median error {median}");
    }

    #[test]
    fn figure4_shape_bert_powersgd_wins_resnet_loses() {
        let psgd = MethodConfig::PowerSgd { rank: 4 };
        let bert_rows = Study::new(presets::bert_base(), 12)
            .methods(vec![MethodConfig::SyncSgd, psgd.clone()])
            .worker_counts(vec![96])
            .run();
        assert!(
            bert_rows[1].simulated_s < bert_rows[0].simulated_s,
            "PowerSGD should win on BERT at 96 GPUs"
        );
        let r50_rows = Study::new(presets::resnet50(), 64)
            .methods(vec![MethodConfig::SyncSgd, psgd])
            .worker_counts(vec![96])
            .run();
        assert!(
            r50_rows[1].simulated_s > r50_rows[0].simulated_s,
            "PowerSGD should lose on ResNet-50 at batch 64"
        );
    }
}
