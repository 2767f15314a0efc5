//! Shared harness for the figure/table reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper. Output goes to stdout as an aligned text table (the "series the
//! paper reports") and, when `write_json` is used, to
//! `results/<name>.json` for machine consumption (EXPERIMENTS.md is
//! written from those files).
//!
//! Run them with `--release`; `table2` in particular measures real
//! encode/decode kernels.

use gcs_compress::registry::MethodConfig;
use gcs_models::presets;
use gcs_models::ModelSpec;
use std::io::Write;
use std::path::PathBuf;

pub mod timing;

/// The paper's per-worker batch size for a model (64 for vision, 12 for
/// BERT).
pub fn paper_batch(model: &ModelSpec) -> usize {
    if model.name.starts_with("BERT") {
        12
    } else {
        64
    }
}

/// The worker counts the paper sweeps (8–96 GPUs; 2–24 p3.8xlarge
/// instances).
pub fn paper_worker_counts() -> Vec<usize> {
    vec![8, 16, 24, 32, 48, 64, 96]
}

/// The three headline models.
pub fn paper_models() -> Vec<ModelSpec> {
    presets::paper_models()
}

/// PowerSGD ranks the paper evaluates.
pub fn paper_ranks() -> Vec<usize> {
    vec![4, 8, 16]
}

/// Top-K ratios the paper evaluates.
pub fn paper_topk_ratios() -> Vec<f64> {
    vec![0.01, 0.10, 0.20]
}

/// Human-readable name of a method config.
pub fn method_name(method: &MethodConfig) -> String {
    method
        .build()
        .map(|c| c.properties().name)
        .unwrap_or_else(|_| format!("{method:?}"))
}

/// Prints an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(
                "{:width$}  ",
                c,
                width = widths.get(i).copied().unwrap_or(0)
            ));
        }
        println!("{}", s.trim_end());
    };
    line(&headers.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    println!("{}", "-".repeat(total));
    for row in rows {
        line(row);
    }
}

/// Formats seconds as milliseconds with one decimal.
pub fn ms(seconds: f64) -> String {
    format!("{:.1}", seconds * 1e3)
}

/// Formats a mean ± std pair in milliseconds.
pub fn ms_pm(mean_s: f64, std_s: f64) -> String {
    format!("{:.1}±{:.1}", mean_s * 1e3, std_s * 1e3)
}

/// The workspace root.
fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench → workspace root is two up.
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop();
    dir.pop();
    dir
}

/// Directory the JSON results land in (`<workspace>/results`).
pub fn results_dir() -> PathBuf {
    workspace_root().join("results")
}

/// Writes a JSON value to `results/<name>.json` (best effort: prints a
/// warning instead of failing the experiment if the filesystem objects).
pub fn write_json(name: &str, value: &serde_json::Value) {
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            if let Err(e) = f.write_all(
                serde_json::to_string_pretty(value)
                    .expect("serializable")
                    .as_bytes(),
            ) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                println!("[results written to {}]", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot create {}: {e}", path.display()),
    }
}

/// `model name` from `/proc/cpuinfo`, or `"unknown"` off Linux.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Host + dispatch provenance for the tracked `BENCH_adaptive.json`
/// report (a number without the CPU and dispatch mode that produced it is
/// noise). `scripts/bench_compare.py` skips its timing check when two
/// reports name different CPUs.
pub fn metadata(smoke: bool) -> serde_json::Value {
    use gcs_tensor::kernels;
    serde_json::json!({
        "cpu_model": cpu_model(),
        "kernel_features": kernels::feature_string(),
        "active_kernel_table": kernels::active().name,
        "simd_active": kernels::simd_active(),
        "force_scalar": std::env::var("GCS_FORCE_SCALAR").ok(),
        "smoke": smoke,
    })
}

/// Writes a tracked report to `BENCH_<name>.json` at the repo root, or to
/// `GCS_BENCH_OUT` when that is set. `GCS_BENCH_OUT` is honoured even in
/// smoke mode, for the CI structure gate; a smoke run without it writes
/// nothing, since smoke timings are meaningless and must not clobber the
/// tracked file.
pub fn write_report(name: &str, report: &serde_json::Value, smoke: bool) {
    let path = match std::env::var("GCS_BENCH_OUT") {
        Ok(path) => PathBuf::from(path),
        Err(_) => {
            let path = workspace_root().join(format!("BENCH_{name}.json"));
            if smoke {
                println!("smoke mode: skipping write of {}", path.display());
                return;
            }
            path
        }
    };
    let text = serde_json::to_string_pretty(report).expect("serialize report");
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

/// Runs a Figures-4/5/6-style weak-scaling comparison: for each paper
/// model, `methods` (plus the syncSGD baseline) across the paper's worker
/// counts. `cap` limits worker counts for non-all-reducible methods on
/// BERT (the paper ran out of memory beyond 32 GPUs there, because
/// all-gather buffers grow linearly with workers). Prints one table per
/// model and returns the JSON rows.
pub fn scaling_figure(
    title: &str,
    methods: &[MethodConfig],
    bert_cap_for_gather: Option<usize>,
) -> serde_json::Value {
    use gcs_core::study::Study;
    let mut all_rows = Vec::new();
    for model in paper_models() {
        let batch = paper_batch(&model);
        let mut table_rows: Vec<Vec<String>> = Vec::new();
        let mut method_list = vec![MethodConfig::SyncSgd];
        method_list.extend_from_slice(methods);
        for method in &method_list {
            let gather_based = !method
                .build()
                .map(|c| c.properties().all_reducible)
                .unwrap_or(true);
            let counts: Vec<usize> = paper_worker_counts()
                .into_iter()
                .filter(|&p| {
                    !(model.name.starts_with("BERT") && gather_based)
                        || bert_cap_for_gather.is_none_or(|cap| p <= cap)
                })
                .collect();
            let rows = Study::new(model.clone(), batch)
                .methods(vec![method.clone()])
                .worker_counts(counts)
                .run();
            for r in &rows {
                table_rows.push(vec![
                    r.method.clone(),
                    r.workers.to_string(),
                    ms(r.simulated_s),
                ]);
                all_rows.push(serde_json::json!({
                    "model": &r.model,
                    "method": &r.method,
                    "workers": r.workers,
                    "batch": r.batch,
                    "simulated_s": r.simulated_s,
                    "predicted_s": r.predicted_s,
                }));
            }
        }
        print_table(
            &format!("{title} — {} (batch {batch}/GPU)", model.name),
            &["Method", "GPUs", "Iteration time (ms, simulated)"],
            &table_rows,
        );
        if model.name.starts_with("BERT") {
            if let Some(cap) = bert_cap_for_gather {
                println!(
                    "Note: gather-based methods capped at {cap} GPUs for BERT — their memory\n\
                     requirement grows linearly with workers (paper ran out of GPU memory)."
                );
            }
        }
    }
    serde_json::Value::Array(all_rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_batches() {
        assert_eq!(paper_batch(&presets::resnet50()), 64);
        assert_eq!(paper_batch(&presets::bert_base()), 12);
    }

    #[test]
    fn method_names_are_human_readable() {
        assert_eq!(method_name(&MethodConfig::SyncSgd), "syncSGD");
        assert_eq!(
            method_name(&MethodConfig::PowerSgd { rank: 4 }),
            "PowerSGD (rank 4)"
        );
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ms(0.1234), "123.4");
        assert_eq!(ms_pm(0.1, 0.01), "100.0±10.0");
    }

    #[test]
    fn results_dir_is_workspace_level() {
        assert!(results_dir().ends_with("results"));
    }
}
