//! End-to-end checks for `gradcomp analyze`: the lint pass must fail
//! the build (non-zero exit == `Err` from `run`) on a workspace with a
//! raw f32 accumulation loop in data-plane code, and still write the
//! machine-readable report so CI has the violation counts.

use std::fs;
use std::path::PathBuf;

/// A scratch workspace under the target-adjacent temp dir, removed on
/// drop so failed assertions don't leak directories between runs.
struct ScratchRoot(PathBuf);

impl ScratchRoot {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("gcs-analyze-cli-{tag}-{}", std::process::id()));
        // A stale dir from a crashed prior run is fine to clobber.
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        ScratchRoot(dir)
    }
}

impl Drop for ScratchRoot {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn s(v: &[&str]) -> Vec<String> {
    v.iter().map(|x| x.to_string()).collect()
}

#[test]
fn analyze_lint_fails_on_raw_accumulation_and_still_writes_the_report() {
    let root = ScratchRoot::new("accum");
    let src = root.0.join("crates/compress/src");
    fs::create_dir_all(&src).unwrap();
    fs::write(
        src.join("hot.rs"),
        "pub fn add(acc: &mut [f32], x: &[f32]) { for (a, b) in acc.iter_mut().zip(x) { *a += b; } }\n",
    )
    .unwrap();

    let args = s(&["analyze", "--lint", "--root", root.0.to_str().unwrap()]);
    let err = gcs_cli::run(&args).expect_err("a raw accumulation loop must fail");
    assert!(
        err.0.contains("raw-f32-accumulation"),
        "error should cite the rule: {}",
        err.0
    );

    // The report must exist even on failure, with a non-zero count.
    let report = root.0.join("results/analyze_report.json");
    let text = fs::read_to_string(&report).unwrap();
    let json: serde_json::Value = serde_json::from_str(&text).unwrap();
    let count = json["passes"]["workspace_lint"]["violation_count"]
        .as_u64()
        .unwrap();
    assert!(count >= 1, "report must record the violation: {text}");
}

#[test]
fn analyze_lint_fails_on_relaxed_ordering_outside_allowlist() {
    let root = ScratchRoot::new("relaxed");
    let src = root.0.join("crates/ddp/src");
    fs::create_dir_all(&src).unwrap();
    fs::write(
        src.join("counter.rs"),
        concat!(
            "use std::sync::atomic::{AtomicUsize, Ordering};\n",
            "pub fn bump(c: &AtomicUsize) -> usize {\n",
            "    c.fetch_add(1, Ordering::Relaxed)\n",
            "}\n",
        ),
    )
    .unwrap();

    let args = s(&["analyze", "--lint", "--root", root.0.to_str().unwrap()]);
    let err = gcs_cli::run(&args).expect_err("Relaxed outside the allowlist must fail");
    assert!(
        err.0.contains("relaxed-atomic-ordering"),
        "error should cite the rule: {}",
        err.0
    );
}

#[test]
fn analyze_lint_fails_on_relaxed_in_the_former_pool_allowlist() {
    let root = ScratchRoot::new("nosync");
    let src = root.0.join("crates/tensor/src");
    fs::create_dir_all(&src).unwrap();
    // A justification comment does not exempt a file: Relaxed is
    // rejected in `crates/tensor` as everywhere else.
    fs::write(
        src.join("pool.rs"),
        concat!(
            "use std::sync::atomic::{AtomicUsize, Ordering};\n",
            "pub fn claim(c: &AtomicUsize) -> usize {\n",
            "    // SYNC: claims are CAS-unique.\n",
            "    c.fetch_add(1, Ordering::Relaxed)\n",
            "}\n",
        ),
    )
    .unwrap();

    let args = s(&["analyze", "--lint", "--root", root.0.to_str().unwrap()]);
    let err = gcs_cli::run(&args).expect_err("Relaxed in pool.rs must fail");
    assert!(
        err.0.contains("relaxed-atomic-ordering"),
        "error should cite the rule: {}",
        err.0
    );
}

/// The workspace root of the real repo (tests run with the crate dir as
/// cwd, two levels below it).
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

#[test]
fn analyze_all_report_pins_schema_version_and_key_order() {
    let root = ScratchRoot::new("schema");
    let json_path = root.0.join("report.json");
    let args = s(&[
        "analyze",
        "--all",
        "--fuzz-iters",
        "200",
        "--root",
        repo_root().to_str().unwrap(),
        "--json",
        json_path.to_str().unwrap(),
    ]);
    gcs_cli::run(&args).expect("the real workspace must be clean under --all");

    let text = fs::read_to_string(&json_path).unwrap();
    let json: serde_json::Value = serde_json::from_str(&text).unwrap();
    assert_eq!(
        json["schema_version"].as_u64(),
        Some(3),
        "schema_version is pinned at 3: {text}"
    );
    assert_eq!(json["ok"].as_bool(), Some(true));

    // Key order is part of the schema: consumers diff reports textually.
    let pos = |key: &str| {
        text.find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("report must contain key {key}: {text}"))
    };
    assert!(pos("tool") < pos("schema_version"));
    assert!(pos("schema_version") < pos("ok"));
    assert!(pos("ok") < pos("passes"));
    assert!(pos("schedule_verifier") < pos("workspace_lint"));
    assert!(pos("workspace_lint") < pos("protocol_machines"));
    assert!(!text.contains("thread_race_checker"), "{text}");
    assert!(pos("protocol_machines") < pos("wire_fuzz"));
}

#[test]
fn analyze_rejects_the_retired_thread_pass() {
    for args in [
        &["analyze", "--threads"][..],
        &["analyze", "--inject", "race"],
    ] {
        let err = gcs_cli::run(&s(args)).expect_err("the thread pass is gone");
        assert!(err.0.contains("unknown"), "{args:?}: {}", err.0);
    }
}

#[test]
fn analyze_inject_double_accept_is_detected() {
    let root = ScratchRoot::new("inj-hello");
    let json_path = root.0.join("report.json");
    let args = s(&[
        "analyze",
        "--inject",
        "double-accept",
        "--root",
        root.0.to_str().unwrap(),
        "--json",
        json_path.to_str().unwrap(),
    ]);
    let err = gcs_cli::run(&args).expect_err("mutant Hello machine must be flagged");
    assert!(
        err.0.contains("double-accept"),
        "error should report the double accept: {}",
        err.0
    );
}

#[test]
fn analyze_inject_parser_panic_is_detected() {
    let root = ScratchRoot::new("inj-fuzz");
    let json_path = root.0.join("report.json");
    let args = s(&[
        "analyze",
        "--inject",
        "parser-panic",
        "--fuzz-iters",
        "200",
        "--root",
        root.0.to_str().unwrap(),
        "--json",
        json_path.to_str().unwrap(),
    ]);
    let err = gcs_cli::run(&args).expect_err("panicking parser must be flagged");
    assert!(
        err.0.contains("PANIC"),
        "error should report the panic: {}",
        err.0
    );

    let json: serde_json::Value =
        serde_json::from_str(&fs::read_to_string(&json_path).unwrap()).unwrap();
    let count = json["passes"]["wire_fuzz"]["finding_count"]
        .as_u64()
        .unwrap();
    assert!(count >= 1, "report must record the panic finding");
}

#[test]
fn analyze_rejects_unknown_inject_negative() {
    let args = s(&["analyze", "--inject", "heisenbug"]);
    let err = gcs_cli::run(&args).expect_err("unknown negative must be rejected");
    assert!(
        err.0.contains("heisenbug"),
        "error names the value: {}",
        err.0
    );
}

#[test]
fn analyze_lint_passes_on_clean_workspace() {
    let root = ScratchRoot::new("clean");
    let src = root.0.join("crates/ddp/src");
    fs::create_dir_all(&src).unwrap();
    fs::write(
        src.join("ok.rs"),
        "pub fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n",
    )
    .unwrap();

    let args = s(&["analyze", "--lint", "--root", root.0.to_str().unwrap()]);
    let out = gcs_cli::run(&args).expect("clean workspace must pass");
    assert!(out.contains("OK"), "summary should say OK: {out}");
}
