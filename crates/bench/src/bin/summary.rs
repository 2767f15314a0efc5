//! Reproduction summary: reads `results/*.json` (produced by the other
//! binaries) and machine-checks every qualitative shape the paper claims,
//! printing a PASS/FAIL scorecard. Exits non-zero if any shape fails —
//! run `--bin all` first, then this.

use gcs_bench::{print_table, results_dir};
use serde_json::Value;

/// Loads one results file; `None` if it hasn't been generated yet.
fn load(name: &str) -> Option<Vec<Value>> {
    let path = results_dir().join(format!("{name}.json"));
    let text = std::fs::read_to_string(path).ok()?;
    serde_json::from_str::<Vec<Value>>(&text).ok()
}

fn f(v: &Value, key: &str) -> f64 {
    v[key].as_f64().unwrap_or(f64::NAN)
}

fn s<'a>(v: &'a Value, key: &str) -> &'a str {
    v[key].as_str().unwrap_or("")
}

/// One shape check: name, claim text, evaluated outcome.
struct Check {
    id: &'static str,
    claim: &'static str,
    outcome: Option<bool>,
}

fn check(id: &'static str, claim: &'static str, outcome: Option<bool>) -> Check {
    Check { id, claim, outcome }
}

#[allow(clippy::too_many_lines)] // one straight-line checklist per figure
fn run_checks() -> Vec<Check> {
    let mut checks = Vec::new();

    // Table 1: 4 all-reducible rows, 5 gather rows.
    checks.push(check(
        "table1",
        "4 all-reducible / 5 gather-based methods, as in the paper",
        load("table1").map(|rows| {
            let ar = rows.iter().filter(|r| r["all_reduce"] == true).count();
            ar == 4 && rows.len() == 9
        }),
    ));

    // Table 2: model anchors within 5% of paper; CPU SignSGD < PowerSGD r16.
    checks.push(check(
        "table2",
        "calibrated model hits the paper's anchors; CPU keeps SignSGD < PowerSGD r16",
        load("table2").map(|rows| {
            let anchors_ok = rows.iter().all(|r| match r["paper_v100_ms"].as_f64() {
                Some(paper) => (f(r, "modeled_v100_ms") - paper).abs() / paper < 0.05,
                None => true,
            });
            let cpu = |m: &str| {
                rows.iter()
                    .find(|r| s(r, "method") == m)
                    .map(|r| f(r, "measured_cpu_ms"))
            };
            let order_ok = match (cpu("SignSGD"), cpu("PowerSGD (rank 16)")) {
                (Some(sign), Some(p16)) => sign < p16,
                _ => false,
            };
            anchors_ok && order_ok
        }),
    ));

    // Fig 3: overlapped > sequential for every method.
    checks.push(check(
        "fig03",
        "overlapping compression with backward is slower for every method",
        load("fig03").map(|rows| {
            !rows.is_empty()
                && rows
                    .iter()
                    .all(|r| f(r, "overlapped_s") > f(r, "sequential_s"))
        }),
    ));

    // Fig 4: PowerSGD r4 loses on ResNet-50 b64 @96, wins on BERT @96.
    checks.push(check(
        "fig04",
        "PowerSGD r4 loses on ResNet-50 (batch 64) and wins on BERT at 96 GPUs",
        load("fig04").map(|rows| {
            let get = |model: &str, method: &str| {
                rows.iter()
                    .find(|r| {
                        s(r, "model") == model && s(r, "method") == method && r["workers"] == 96
                    })
                    .map(|r| f(r, "simulated_s"))
            };
            match (
                get("ResNet-50", "syncSGD"),
                get("ResNet-50", "PowerSGD (rank 4)"),
                get("BERT-base", "syncSGD"),
                get("BERT-base", "PowerSGD (rank 4)"),
            ) {
                (Some(rs), Some(rp), Some(bs), Some(bp)) => rp > rs && bp < bs,
                _ => false,
            }
        }),
    ));

    // Fig 5: TopK never beats syncSGD (per model+workers).
    checks.push(check(
        "fig05",
        "Top-K loses to syncSGD at every model and scale",
        load("fig05").map(|rows| {
            let sync = |model: &str, workers: &Value| {
                rows.iter()
                    .find(|r| {
                        s(r, "model") == model
                            && s(r, "method") == "syncSGD"
                            && &r["workers"] == workers
                    })
                    .map(|r| f(r, "simulated_s"))
            };
            rows.iter()
                .filter(|r| s(r, "method").starts_with("TopK"))
                .all(|r| match sync(s(r, "model"), &r["workers"]) {
                    Some(t) => f(r, "simulated_s") > t,
                    None => false,
                })
        }),
    ));

    // Fig 6: SignSGD >= 2.5x syncSGD on ResNet-101 at 96 GPUs.
    checks.push(check(
        "fig06",
        "SignSGD ≥ 2.5x slower than syncSGD (ResNet-101, 96 GPUs; paper ~4x)",
        load("fig06").map(|rows| {
            let get = |method: &str| {
                rows.iter()
                    .find(|r| {
                        s(r, "model") == "ResNet-101"
                            && s(r, "method") == method
                            && r["workers"] == 96
                    })
                    .map(|r| f(r, "simulated_s"))
            };
            match (get("syncSGD"), get("SignSGD")) {
                (Some(sync), Some(sign)) => sign > 2.5 * sync,
                _ => false,
            }
        }),
    ));

    // Fig 7: speedup monotone decreasing in batch for ResNet-101.
    checks.push(check(
        "fig07",
        "PowerSGD speedup shrinks monotonically with batch size",
        load("fig07").map(|rows| {
            let mut r101: Vec<(u64, f64)> = rows
                .iter()
                .filter(|r| s(r, "model") == "ResNet-101")
                .map(|r| (r["batch"].as_u64().unwrap_or(0), f(r, "speedup")))
                .collect();
            r101.sort_by_key(|&(b, _)| b);
            r101.len() >= 3 && r101.windows(2).all(|w| w[1].1 <= w[0].1)
        }),
    ));

    // Fig 8: median errors small for sync/powersgd.
    checks.push(check(
        "fig08",
        "closed form tracks the event schedule (median error < 10% for sync & PowerSGD)",
        load("fig08").map(|rows| {
            let median_for = |method: &str| {
                let errs: Vec<f64> = rows
                    .iter()
                    .filter(|r| s(r, "method") == method)
                    .map(|r| f(r, "error"))
                    .collect();
                gcs_tensor::stats::median(&errs)
            };
            median_for("syncSGD") < 0.10 && median_for("PowerSGD r4") < 0.10
        }),
    ));

    // Fig 9: all achievable ratios <= 12.
    checks.push(check(
        "fig09",
        "required compression ≤ ~12x everywhere at 10 Gbps",
        load("fig09").map(|rows| {
            rows.iter().all(|r| match r["required_ratio"].as_f64() {
                Some(ratio) => ratio <= 12.0,
                None => false,
            })
        }),
    ));

    // Fig 10: all gaps < 250 ms.
    checks.push(check(
        "fig10",
        "syncSGD-to-ideal gap stays below ~250 ms",
        load("fig10").map(|rows| rows.iter().all(|r| f(r, "gap_s") < 0.25)),
    ));

    // Fig 11: ResNet-50 crossover in 5..15 Gbps; BERT crossover above it.
    checks.push(check(
        "fig11",
        "bandwidth crossover ≈9 Gbps (ResNet-50) and higher for BERT (paper: 15)",
        load("fig11").map(|rows| {
            let crossover = |model: &str| {
                let mut pts: Vec<(f64, f64)> = rows
                    .iter()
                    .filter(|r| s(r, "model") == model)
                    .map(|r| (f(r, "gbps"), f(r, "sync_s") / f(r, "powersgd4_s")))
                    .collect();
                pts.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
                pts.iter().find(|&&(_, sp)| sp < 1.0).map(|&(g, _)| g)
            };
            match (crossover("ResNet-50"), crossover("BERT-base")) {
                (Some(r50), Some(bert)) => (5.0..=15.0).contains(&r50) && bert > r50,
                _ => false,
            }
        }),
    ));

    // Fig 12: speedup monotone increasing in compute for every model.
    checks.push(check(
        "fig12",
        "faster compute makes compression monotonically more attractive",
        load("fig12").map(|rows| {
            for model in ["ResNet-50", "ResNet-101", "BERT-base"] {
                let mut pts: Vec<(f64, f64)> = rows
                    .iter()
                    .filter(|r| s(r, "model") == model)
                    .map(|r| {
                        (
                            f(r, "compute_speedup"),
                            f(r, "sync_s") / f(r, "powersgd4_s"),
                        )
                    })
                    .collect();
                pts.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
                if pts.len() < 3 || pts.windows(2).any(|w| w[1].1 < w[0].1) {
                    return false;
                }
            }
            true
        }),
    ));

    // Fig 13: every k>1 beats baseline.
    checks.push(check(
        "fig13",
        "any encode-time reduction beats the baseline, for every byte penalty",
        load("fig13").map(|rows| {
            rows.iter()
                .filter(|r| f(r, "k") > 1.0)
                .all(|r| f(r, "total_s") < f(r, "baseline_s"))
        }),
    ));

    // Convergence: EF-SignSGD reaches ~syncSGD loss; plain SignSGD much worse.
    checks.push(check(
        "convergence",
        "error feedback fixes SignSGD (plain SignSGD ≥ 10x worse final loss)",
        load("convergence").map(|rows| {
            let final_of = |m: &str| {
                rows.iter()
                    .find(|r| s(r, "method") == m && s(r, "task") == "linear-regression")
                    .map(|r| f(r, "final_loss"))
            };
            match (final_of("SignSGD"), final_of("EF-SignSGD")) {
                (Some(plain), Some(ef)) => plain > 10.0 * ef,
                _ => false,
            }
        }),
    ));

    // Extension: large models flip the verdict.
    checks.push(check(
        "ext_large_models",
        "§7 regime: PowerSGD r32 ≥ 4x faster than syncSGD on the 12B model",
        load("ext_large_models").map(|rows| {
            let get = |method: &str| {
                rows.iter()
                    .find(|r| s(r, "model") == "DALL-E 12B" && s(r, "method") == method)
                    .map(|r| f(r, "total_s"))
            };
            match (get("syncSGD"), get("PowerSGD (rank 32)")) {
                (Some(sync), Some(p)) => sync > 4.0 * p,
                _ => false,
            }
        }),
    ));

    checks
}

fn main() {
    let checks = run_checks();
    let rows: Vec<Vec<String>> = checks
        .iter()
        .map(|c| {
            vec![
                c.id.to_owned(),
                c.claim.to_owned(),
                match c.outcome {
                    Some(true) => "PASS".to_owned(),
                    Some(false) => "FAIL".to_owned(),
                    None => "MISSING (run --bin all first)".to_owned(),
                },
            ]
        })
        .collect();
    print_table(
        "Reproduction scorecard (shapes from the paper, checked against results/*.json)",
        &["Experiment", "Claim", "Status"],
        &rows,
    );
    let failed = checks.iter().filter(|c| c.outcome != Some(true)).count();
    if failed == 0 {
        println!("\nAll {} shape checks PASS.", checks.len());
    } else {
        eprintln!("\n{failed} of {} checks did not pass.", checks.len());
        std::process::exit(1);
    }
}
