//! Pass orchestration and the machine-readable report.
//!
//! `run_schedule_pass` sweeps every collective over p ∈ {2..16} and
//! every dead-rank subset of size ≤ 2 (the rings a handle shrunk by
//! `set_members` runs), verifying each call's schedule and checking it
//! op for op against a recording of the real collective on `SimCluster`;
//! it cross-validates the canonical-order deadlock check with exhaustive
//! interleaving search on small configurations.
//! `to_json` renders all four passes into the
//! `results/analyze_report.json` shape CI consumes: a fixed
//! [`SCHEMA_VERSION`] plus deterministic key and pass ordering, so the
//! tracked report diffs stay reviewable.

use crate::conformance;
use crate::explore::PassReport;
use crate::fuzz::FuzzPassReport;
use crate::lint::LintReport;
use crate::schedules;
use crate::verify::{check_deadlock_exhaustive, verify_schedule};
use serde_json::{json, Value};
use std::collections::BTreeMap;

/// Version of the `results/analyze_report.json` document. Bump on any
/// key addition/removal/reorder; pinned by `crates/cli/tests/analyze_cli.rs`.
///
/// * v1 — PR 5: `schedule_verifier` + `workspace_lint`, no version field.
/// * v2 — `schema_version` field, `thread_race_checker`,
///   `protocol_machines`, and `wire_fuzz` passes, stable key order.
/// * v3 — `thread_race_checker` removed with the kernel pool it modelled.
pub const SCHEMA_VERSION: u64 = 3;

/// Aggregated outcome of the schedule-verification pass.
#[derive(Debug, Clone, Default)]
pub struct SchedulePassReport {
    /// Configurations verified per family name.
    pub configs_per_family: BTreeMap<String, usize>,
    /// Total IR ops executed across all canonical-order simulations.
    pub ops_executed: usize,
    /// States visited by the exhaustive interleaving cross-checks.
    pub exhaustive_states: usize,
    /// `(schedule name, violation)` pairs.
    pub violations: Vec<(String, String)>,
}

impl SchedulePassReport {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn configs_checked(&self) -> usize {
        self.configs_per_family.values().sum()
    }

    /// Counts a verified schedule under its family, the first word of its
    /// name (`ring-all-reduce p=3 ...`).
    fn record(&mut self, result: crate::verify::VerifyResult) {
        let family = result.schedule.split(' ').next().unwrap_or_default();
        *self
            .configs_per_family
            .entry(family.to_string())
            .or_insert(0) += 1;
        self.ops_executed += result.ops_executed;
        for v in result.violations {
            self.violations
                .push((result.schedule.clone(), v.to_string()));
        }
    }
}

/// Every live-member subset of `0..p` obtained by removing at most
/// `max_dead` ranks (the fault model: ≤ 2 simultaneous deaths).
/// Excludes the empty set.
pub fn live_subsets(p: usize, max_dead: usize) -> Vec<Vec<usize>> {
    let full: Vec<usize> = (0..p).collect();
    let mut out = vec![full.clone()];
    if max_dead >= 1 && p >= 2 {
        for dead in 0..p {
            out.push(full.iter().copied().filter(|&r| r != dead).collect());
        }
    }
    if max_dead >= 2 && p >= 3 {
        for d0 in 0..p {
            for d1 in d0 + 1..p {
                out.push(
                    full.iter()
                        .copied()
                        .filter(|&r| r != d0 && r != d1)
                        .collect(),
                );
            }
        }
    }
    out
}

/// The full sweep: for p ∈ {2..16} and every ring left by ≤ 2 dead ranks,
/// one `SimCluster` records [`conformance::calls`], and each call's
/// schedule is verified and must equal its recording op for op; then the
/// bounded-channel CommEngine handshakes and exhaustive cross-checks.
pub fn run_schedule_pass() -> SchedulePassReport {
    let mut rep = SchedulePassReport::default();
    for p in 2..=16usize {
        for members in live_subsets(p, 2) {
            let calls = conformance::calls(p, &members);
            let recorded = conformance::record_sim(p, &members, &calls).unwrap_or_else(|e| {
                let run = format!("cluster p={p} members={members:?}");
                rep.violations.push((run, format!("recording failed: {e}")));
                Vec::new()
            });
            for (k, call) in calls.iter().enumerate() {
                let s = call.schedule(p, &members);
                let mut result = verify_schedule(&s);
                for (rank, ops) in recorded.iter().enumerate() {
                    result
                        .violations
                        .extend(conformance::conform(&s, rank, &ops[k]));
                }
                rep.record(result);
            }
        }
    }
    // CommEngine/comm-lane handshake: bounded job channel of
    // capacity `depth`, in-flight window of the same depth.
    for p in [2usize, 4, 8] {
        for depth in [1usize, 2, 3] {
            for jobs in [1usize, 4] {
                rep.record(verify_schedule(&schedules::comm_engine_pipeline(
                    p, depth, jobs, 5,
                )));
            }
        }
    }
    // Exhaustive interleaving cross-checks (every scheduling, through the
    // shared explorer) on configurations small enough to enumerate — this
    // validates the canonical-order argument rather than assuming it.
    for sched in [
        schedules::ring_all_reduce(2, &[0, 1], &[5]),
        schedules::ring_all_reduce(3, &[0, 1, 2], &[4]),
        schedules::broadcast(4, 1),
        schedules::comm_engine_pipeline(2, 1, 2, 2),
        schedules::comm_engine_pipeline(2, 2, 3, 1),
    ] {
        match check_deadlock_exhaustive(&sched) {
            Ok(states) => {
                rep.exhaustive_states += states;
                *rep.configs_per_family
                    .entry("exhaustive-cross-check".into())
                    .or_insert(0) += 1;
            }
            Err(f) => rep.violations.push((sched.name.clone(), f.detail)),
        }
    }
    rep
}

/// The four pass outcomes feeding one report; any subset may be present
/// (the CLI can run passes separately).
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalyzeReports<'a> {
    pub schedule: Option<&'a SchedulePassReport>,
    pub lint: Option<&'a LintReport>,
    pub protocols: Option<&'a PassReport>,
    pub fuzz: Option<&'a FuzzPassReport>,
}

impl AnalyzeReports<'_> {
    pub fn ok(&self) -> bool {
        self.schedule.is_none_or(SchedulePassReport::ok)
            && self.lint.is_none_or(LintReport::ok)
            && self.protocols.is_none_or(PassReport::ok)
            && self.fuzz.is_none_or(FuzzPassReport::ok)
    }
}

/// Render the passes as the `results/analyze_report.json` document.
/// Key order is deterministic: top-level `tool`, `schema_version`, `ok`,
/// `passes`, with passes in pipeline order (1→4) and fixed keys inside
/// each pass, so report diffs are stable and reviewable.
pub fn to_json(reports: &AnalyzeReports<'_>) -> Value {
    let mut passes: Vec<(String, Value)> = Vec::new();
    if let Some(s) = reports.schedule {
        let families: Vec<Value> = s
            .configs_per_family
            .iter()
            .map(|(name, count)| json!({ "family": name, "configs": count }))
            .collect();
        let violations: Vec<Value> = s
            .violations
            .iter()
            .map(|(sched, v)| json!({ "schedule": sched, "violation": v }))
            .collect();
        passes.push((
            "schedule_verifier".to_string(),
            json!({
                "ok": s.ok(),
                "configs_checked": s.configs_checked(),
                "ops_executed": s.ops_executed,
                "exhaustive_states": s.exhaustive_states,
                "violation_count": s.violations.len(),
                "families": families,
                "violations": violations,
            }),
        ));
    }
    if let Some(l) = reports.lint {
        let violations: Vec<Value> = l
            .violations
            .iter()
            .map(|v| {
                json!({
                    "file": v.file,
                    "line": v.line,
                    "rule": v.rule,
                    "message": v.message,
                })
            })
            .collect();
        let allowed: Vec<Value> = l
            .allowed
            .iter()
            .map(|v| json!({ "file": v.file, "line": v.line, "rule": v.rule }))
            .collect();
        passes.push((
            "workspace_lint".to_string(),
            json!({
                "ok": l.ok(),
                "files_scanned": l.files_scanned,
                "violation_count": l.violations.len(),
                "allowed_count": l.allowed.len(),
                "violations": violations,
                "allowed": allowed,
            }),
        ));
    }
    if let Some(p) = reports.protocols {
        let findings: Vec<Value> = p
            .findings
            .iter()
            .map(|f| json!({ "machine": f.model, "kind": f.kind, "detail": f.detail }))
            .collect();
        let machines: Vec<Value> = p.machines.iter().map(|m| json!(m)).collect();
        passes.push((
            "protocol_machines".to_string(),
            json!({
                "ok": p.ok(),
                "machines_checked": p.machines.len(),
                "states_explored": p.states_explored,
                "finding_count": p.findings.len(),
                "machines": machines,
                "findings": findings,
            }),
        ));
    }
    if let Some(f) = reports.fuzz {
        let targets: Vec<Value> = f
            .stats
            .iter()
            .map(|s| {
                json!({
                    "target": s.target,
                    "cases": s.cases,
                    "accepted": s.accepted,
                    "rejected": s.rejected,
                })
            })
            .collect();
        let findings: Vec<Value> = f
            .findings
            .iter()
            .map(|v| json!({ "target": v.target, "case": v.case, "detail": v.detail }))
            .collect();
        passes.push((
            "wire_fuzz".to_string(),
            json!({
                "ok": f.ok(),
                "seed": f.seed,
                "corpus_methods": f.corpus_methods,
                "finding_count": f.findings.len(),
                "targets": targets,
                "findings": findings,
            }),
        ));
    }
    json!({
        "tool": "gradcomp analyze",
        "schema_version": SCHEMA_VERSION,
        "ok": reports.ok(),
        "passes": Value::Object(passes),
    })
}

/// Human-readable one-screen summary for CLI output.
pub fn render_text(reports: &AnalyzeReports<'_>) -> String {
    let mut out = String::new();
    if let Some(s) = reports.schedule {
        out.push_str(&format!(
            "schedule verifier: {} configs, {} ops simulated, {} exhaustive states — {}\n",
            s.configs_checked(),
            s.ops_executed,
            s.exhaustive_states,
            if s.ok() { "OK" } else { "FAILED" }
        ));
        for (family, count) in &s.configs_per_family {
            out.push_str(&format!("  {family}: {count} configs\n"));
        }
        for (sched, v) in &s.violations {
            out.push_str(&format!("  VIOLATION [{sched}]: {v}\n"));
        }
    }
    if let Some(l) = reports.lint {
        out.push_str(&format!(
            "workspace lint: {} files — {}\n",
            l.files_scanned,
            if l.ok() { "OK" } else { "FAILED" }
        ));
        if !l.allowed.is_empty() {
            out.push_str(&format!(
                "  {} explicitly allowed site(s)\n",
                l.allowed.len()
            ));
        }
        for v in &l.violations {
            out.push_str(&format!("  VIOLATION {v}\n"));
        }
    }
    if let Some(p) = reports.protocols {
        out.push_str(&format!(
            "protocol machines: {} machines, {} states — {}\n",
            p.machines.len(),
            p.states_explored,
            if p.ok() { "OK" } else { "FAILED" }
        ));
        for f in &p.findings {
            out.push_str(&format!(
                "  FINDING [{}] {}: {}\n",
                f.model, f.kind, f.detail
            ));
        }
    }
    if let Some(f) = reports.fuzz {
        let cases: usize = f.stats.iter().map(|s| s.cases).sum();
        out.push_str(&format!(
            "wire fuzz: seed {:#x}, {} targets, {} cases, {} corpus methods — {}\n",
            f.seed,
            f.stats.len(),
            cases,
            f.corpus_methods,
            if f.ok() { "OK" } else { "FAILED" }
        ));
        for v in &f.findings {
            out.push_str(&format!(
                "  FINDING [{} case {}]: {}\n",
                v.target, v.case, v.detail
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The Pass 1 sweep, run once per test binary and shared by every test
    /// that reads it.
    fn sweep() -> &'static SchedulePassReport {
        static SWEEP: OnceLock<SchedulePassReport> = OnceLock::new();
        SWEEP.get_or_init(run_schedule_pass)
    }

    #[test]
    fn live_subsets_counts() {
        // p=4: full + 4 singles + 6 pairs = 11.
        assert_eq!(live_subsets(4, 2).len(), 11);
        // p=2: full + 2 singles (pairs would empty the ring).
        assert_eq!(live_subsets(2, 2).len(), 3);
        for s in live_subsets(5, 2) {
            assert!(!s.is_empty());
            assert!(s.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn full_sweep_is_clean() {
        let rep = sweep();
        assert!(rep.ok(), "violations: {:?}", rep.violations);
        // Every ring left by at most two dead ranks, p ∈ 2..=16:
        // Σ (1 + p + C(p,2)), each with four ring all-reduce calls and one
        // all-gather; broadcast at full membership from roots {0, p/2, p − 1}.
        let rings: usize = (2..=16usize)
            .map(|p| 1 + p + if p >= 3 { p * (p - 1) / 2 } else { 0 })
            .sum();
        let want = [
            ("broadcast", 2 + 3 * 14),
            ("comm-engine", 18),
            ("exhaustive-cross-check", 5),
            ("ring-all-gather", rings),
            ("ring-all-reduce", 4 * rings),
        ];
        assert_eq!(
            rep.configs_per_family,
            want.map(|(f, n)| (f.to_string(), n)).into()
        );
    }

    #[test]
    fn json_shape_has_all_passes_in_order() {
        let sched = sweep();
        let lint = LintReport::default();
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let protocols = crate::protocol::run_protocol_pass(&root);
        let fuzz = crate::fuzz::run_fuzz_pass(7, 32);
        let v = to_json(&AnalyzeReports {
            schedule: Some(sched),
            lint: Some(&lint),
            protocols: Some(&protocols),
            fuzz: Some(&fuzz),
        });
        let s = serde_json::to_string_pretty(&v).unwrap();
        assert!(s.contains("\"schema_version\": 3"));
        assert!(s.contains("\"ok\": true"));
        // Pipeline order is part of the schema: 1→4.
        let order = [
            "schedule_verifier",
            "workspace_lint",
            "protocol_machines",
            "wire_fuzz",
        ];
        let positions: Vec<usize> = order
            .iter()
            .map(|k| {
                s.find(&format!("\"{k}\""))
                    .unwrap_or_else(|| panic!("{k} missing"))
            })
            .collect();
        assert!(
            positions.windows(2).all(|w| w[0] < w[1]),
            "pass order drifted: {positions:?}"
        );
    }

    #[test]
    fn json_rendering_is_deterministic() {
        let lint = LintReport::default();
        let fuzz = crate::fuzz::run_fuzz_pass(7, 32);
        let reports = AnalyzeReports {
            lint: Some(&lint),
            fuzz: Some(&fuzz),
            ..Default::default()
        };
        let a = serde_json::to_string_pretty(&to_json(&reports)).unwrap();
        let b = serde_json::to_string_pretty(&to_json(&reports)).unwrap();
        assert_eq!(a, b);
    }
}
