#!/usr/bin/env bash
# Offline CI gate: build, tests, and lints for the whole workspace.
# No network access is assumed (all dependencies are vendored path crates).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

# The workspace pass runs the root package's suites too.
echo "==> cargo test --workspace -q"
cargo test --workspace -q

# Second pass with the SIMD kernel tables disabled: every dispatched call
# site must behave identically on the portable scalar path (the kernel
# property tests compare the tables directly; this run proves the whole
# pipeline — compression bit-exactness included — under forced-scalar
# dispatch, i.e. what a non-AVX2 host executes).
echo "==> cargo test --workspace -q (GCS_FORCE_SCALAR=1)"
GCS_FORCE_SCALAR=1 cargo test --workspace -q

# The skinny GEMM paths against the general kernels, the fused
# reconstruct (into a fresh, a recycled and a too-small `Vec`) against
# `a_mul_bt` then a subtract, `a_mul_bt` (both row layouts) against the
# scalar loop it replaced, `at_mul_b_into` against the zeroed slice form,
# PowerSGD against its unfused reference and its goldens, the benchmark
# models' gradient goldens, the wire image against `f32s_to_bytes`, the
# ring mean against the ring sum divided, the out-of-place mean against
# copy-then-mean and the fused mean of several buffers against each
# buffer's own ring, on SimCluster and TcpCluster
# (`all_reduce_mean_many_is_each_buffers_own_ring_*`, all in
# `ring_reference`) and every engine against the parent goldens
# (`pipeline_bitexact`), among them syncSGD's at p = 2, 3, 4
# (`syncsgd_exchanges_match_their_golden_digests`) and at p = 3 on a plan
# mixing packed and single-layer buckets
# (`syncsgd_mixed_plan_matches_its_golden_digest`), every method's
# per-layer exchange at p = 3, 5 with empty ring chunks
# (`ragged_per_layer_exchange_matches_its_golden_digests`), and SignSGD's
# and EF-SignSGD's at p = 2, 3, 5 with the final EF residuals
# (`sign_exchanges_match_their_golden_digests`), and the MLP's tanh
# against a branchy fdlibm `tanhf` in every kernel table
# (`tanh_matches_fdlibm_bitwise_in_every_table`, with the reference's own
# pinned pairs), named here so the gate
# does not rest on the two workspace passes above keeping them: once
# under the default dispatch and once forced scalar. `cargo test` passes
# when a filter matches nothing, so each run must report a test that ran.
filtered_run() {
  local out
  out=$("$@" 2>&1) || { echo "$out"; return 1; }
  echo "$out"
  if ! grep -Eq "test result: ok\. [1-9][0-9]* passed" <<<"$out"; then
    echo "$*: no test ran"
    return 1
  fi
}
filtered_test() {
  filtered_run cargo test -q "$@"
}
for scalar in 0 1; do
  echo "==> GEMM paths + write-once + PowerSGD + MLP + tanh + ring mean bit-exactness (GCS_FORCE_SCALAR=$scalar)"
  export GCS_FORCE_SCALAR=$scalar
  filtered_test -p gcs-tensor --test kernel_props -- \
    skinny fused a_mul_bt_matches_the_scalar_reference \
    a_mul_bt_interleaved_rows_match_the_scalar_reference \
    at_mul_b_into_matches_the_zeroed_slice_form wire_image_is_the_bytes_f32s_to_bytes_writes
  filtered_test -p gcs-compress --lib powersgd
  filtered_test -p gcs-train --lib mlp_grad_and_loss_bits_are_pinned
  filtered_test -p gcs-tensor --test kernel_props -- \
    tanh_matches_fdlibm_bitwise_in_every_table fdlibm_tanh_reference_is_pinned
  filtered_test -p gcs-cluster --test ring_reference
  filtered_test -p gcs-ddp --test pipeline_bitexact
done
unset GCS_FORCE_SCALAR

# Every kernel table's tanh against the fdlibm reference on all 2^32 f32
# bit patterns (about 40 s in release on 2 cores). The reference's own
# check against the host libm is left out: it tests the host, not the repo.
echo "==> tanh: every table against fdlibm on all 2^32 inputs (release)"
filtered_run timeout 300 cargo test -q --release -p gcs-tensor --test kernel_props -- \
  --ignored --exact tanh_matches_fdlibm_on_every_bit_pattern

# The whole kernel property suite on optimised code, the code the
# benchmark and the CLI run, under both dispatch modes: every table pair,
# the GEMM paths, `a_mul_bt`, the fused reconstruct, top-k, the sign
# kernels and the majority vote.
for scalar in 0 1; do
  echo "==> kernel_props in release (GCS_FORCE_SCALAR=$scalar)"
  export GCS_FORCE_SCALAR=$scalar
  filtered_run timeout 300 cargo test -q --release -p gcs-tensor --test kernel_props
done
unset GCS_FORCE_SCALAR

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The source rules that compiler lints hold (`unsafe_code` in the
# manifests, the documented-`unsafe` lints in gcs-tensor's, the data-plane
# `unwrap`/`expect`/`panic!` lints in the cluster, ddp and compress
# `lib.rs`) each get a seeded negative, as the analyzer passes do below:
# one violating item is appended to one file of a copy of the tracked
# sources, and clippy must fail on the copy with that lint among its
# diagnostics' codes. The copy keeps one target dir, so each negative
# after the first re-checks one crate. The file is restored with a fresh
# mtime, so the next check does not reuse the violating build.
LINT_DIR=$(mktemp -d)
trap 'rm -rf "$LINT_DIR"' EXIT
git ls-files -z | tar --null -T - -cf - | tar -xf - -C "$LINT_DIR"
# seeded_negative FILE LINT ITEM CLIPPY_ARGS...
seeded_negative() {
  local rel=$1 file=$LINT_DIR/$1 lint=$2 item=$3 out
  shift 3
  echo "==> seeded $lint in $rel (clippy must fail with it)"
  cp "$file" "$file.orig"
  printf '\n%s\n' "$item" >> "$file"
  if out=$(cargo clippy -q --offline --message-format=json "$@" 2>&1); then
    echo "clippy passed with $lint seeded in $file"
    return 1
  fi
  cp "$file.orig" "$file"
  rm "$file.orig"
  grep -qF "\"code\":{\"code\":\"$lint\"" <<<"$out" || {
    echo "$out"
    echo "clippy failed without $lint, which was seeded in $file"
    return 1
  }
}
workspace_clippy() {
  seeded_negative "$1" "$2" "$3" --manifest-path "$LINT_DIR/Cargo.toml" -p "$4" -- -D warnings
}
DEREF='pub fn seeded_negative(x: &u8) -> u8 { let p: *const u8 = x; unsafe { *p } }'
workspace_clippy crates/models/src/lib.rs unsafe_code "$DEREF" gcs-models
workspace_clippy crates/tensor/src/select.rs unsafe_code "$DEREF" gcs-tensor
workspace_clippy crates/tensor/src/kernels/scalar.rs clippy::undocumented_unsafe_blocks \
  "#[allow(dead_code)] $DEREF" gcs-tensor
workspace_clippy crates/tensor/src/kernels/scalar.rs clippy::missing_safety_doc \
  '#[allow(dead_code)] unsafe fn seeded_negative() {}' gcs-tensor
for crate in cluster ddp compress; do
  workspace_clippy "crates/$crate/src/lib.rs" clippy::unwrap_used \
    'pub fn seeded_negative(x: Option<u8>) -> u8 { x.unwrap() }' "gcs-$crate"
  workspace_clippy "crates/$crate/src/lib.rs" clippy::expect_used \
    'pub fn seeded_negative(x: Option<u8>) -> u8 { x.expect("seeded") }' "gcs-$crate"
  workspace_clippy "crates/$crate/src/lib.rs" clippy::panic \
    'pub fn seeded_negative() { panic!("seeded") }' "gcs-$crate"
done

# The repo's benchmark (BENCHMARK.json) is a crate of its own outside the
# workspace, so nothing above builds or tests it: run its unit tests —
# among them the one that fails when BENCHMARK.json and the code that
# prints the metrics drift apart — and check that the command
# BENCHMARK.json names still builds and starts.
echo "==> benchmark crate tests"
cargo test --offline --manifest-path benchmark/Cargo.toml --target-dir target -q

# No `unsafe` in the benchmark crate either. It is a workspace of its own,
# so `unsafe_code` comes in as a clippy argument, which reaches the
# benchmark package but not its path dependencies (gcs-tensor among
# them). Its seeded negative goes into the copy made above.
echo "==> benchmark crate: no unsafe"
cargo clippy --offline --manifest-path benchmark/Cargo.toml --target-dir target --all-targets \
  -- -A warnings -F unsafe_code
seeded_negative benchmark/src/main.rs unsafe_code "$DEREF" \
  --manifest-path "$LINT_DIR/benchmark/Cargo.toml" --target-dir "$LINT_DIR/target" --all-targets \
  -- -A warnings -F unsafe_code
rm -rf "$LINT_DIR"

echo "==> benchmark/run.sh --list"
bash benchmark/run.sh --list

# One short workload end to end: the benchmark's checks (same digest on
# every rank, a SimCluster replay, expected wire bytes) exit non-zero when
# a library change breaks them, so that shows up here and not first in a
# full 25-second benchmark run. Each smoke's stdout, where the benchmark
# prints its `check` lines, is kept in target/ci-smoke-<workload>.log; a
# failing smoke prints those lines and its exit code before CI stops.
smoke() {
  local workload=$1
  shift
  local log="target/ci-smoke-$workload.log"
  local status=0
  timeout 120 bash benchmark/run.sh --workload "$workload" "$@" > "$log" || status=$?
  if [ "$status" -ne 0 ]; then
    echo "benchmark smoke $workload failed with exit code $status (stdout in $log):"
    grep '^check ' "$log" || tail -n 20 "$log"
    exit 1
  fi
}

echo "==> benchmark smoke (dense-ring-tcp, 3 s)"
smoke dense-ring-tcp --seconds 3 --trace 0

# The pipelined engine over NetEmu in a release build, traced: the same
# digest/replay/wire-byte checks, plus the per-layer overlap metrics
# (`ddp.overlap_ratio`, `ddp.exposed_wait_ms`, `ddp.comm_busy_ms`).
echo "==> benchmark smoke (topk-overlap-netem, 3 s, traced)"
smoke topk-overlap-netem --seconds 3 --trace 1

# PowerSGD per layer over in-memory channels: the only workload whose
# inline lane fuses every layer's factor into one ring per round.
echo "==> benchmark smoke (lowrank-sim, 3 s)"
smoke lowrank-sim --seconds 3 --trace 0

# EF-SignSGD per layer over loopback TCP: the only workload whose
# exchange encodes signs and takes the majority vote. It needs 5 s: at
# 3 s the run gives up before it reaches the target loss.
echo "==> benchmark smoke (train-smallmsg-tcp, 5 s)"
smoke train-smallmsg-tcp --seconds 5 --trace 0

# Static verification layer, all four passes: (1) model-check every
# collective schedule family (p = 2..16, dead-rank subsets <= 2);
# (2) lint the workspace source for raw accumulation loops and Relaxed
# atomics, listing every allow marker and every `#[allow]`/`#[expect]` of
# the compiler lints seeded above; (3) prove the Hello
# handshake, decision protocol, and pipeline FIFO window state machines;
# (4) fuzz the wire headers/frames,
# Payload::from_bytes for all 15 methods and Payload::from_bytes_many over
# their concatenations at a fixed seed (deterministic,
# finishes well under 10 s). Exits non-zero on any violation. The report
# is deterministic, so it must also equal the committed
# results/analyze_report.json byte for byte: a change that moves it
# regenerates it in the same commit.
echo "==> gradcomp analyze --all (report must match the committed one)"
ANALYZE_REPORT=$(mktemp)
cargo run -q --release -p gcs-cli --bin gradcomp-cli -- analyze --all --json "$ANALYZE_REPORT"
if ! cmp "$ANALYZE_REPORT" results/analyze_report.json; then
  rm -f "$ANALYZE_REPORT"
  echo "results/analyze_report.json is stale: regenerate it with 'gradcomp analyze --all'"
  exit 1
fi
rm -f "$ANALYZE_REPORT"

# Every result file that does not time the host (all but table2.json,
# whose CPU column is measured) is deterministic, so each bin must
# rewrite its results/<bin>.json byte for byte: a change that moves one
# regenerates it in the same commit. Each bin takes well under a second
# in release; the committed copies are put back whatever the outcome.
echo "==> results/*.json (each must regenerate byte-identical)"
cargo build -q --release -p gcs-bench --bins
RESULTS_SAVED=$(mktemp -d)
# Under `set -e` a bin that exits non-zero ends the script inside the
# loop, so the copies are also put back on exit.
restore_results() {
  cp "$RESULTS_SAVED"/*.json results/ 2>/dev/null || true
  rm -rf "$RESULTS_SAVED"
}
trap restore_results EXIT
STALE=()
for bin in table1 fig02 fig03 fig04 fig05 fig06 fig07 fig08 fig09 fig10 fig11 fig12 \
    fig13 convergence ablation_allreduce ablation_buckets ablation_hierarchy ablation_ps \
    ext_local_sgd ext_time_to_accuracy ext_large_models ext_strong_scaling; do
  cp "results/$bin.json" "$RESULTS_SAVED/"
  ./target/release/"$bin" > /dev/null
  cmp -s "results/$bin.json" "$RESULTS_SAVED/$bin.json" || STALE+=("$bin")
  cp "$RESULTS_SAVED/$bin.json" results/
done
restore_results
trap - EXIT
if [ ${#STALE[@]} -gt 0 ]; then
  for bin in "${STALE[@]}"; do
    echo "results/$bin.json is stale: regenerate it with 'cargo run --release -p gcs-bench --bin $bin'"
  done
  exit 1
fi

# Negative self-test: each pass must still DETECT its seeded negative —
# a double-accepting Hello mutant, a panicking wire parser. If any of these exits zero the gate has lost its teeth. A
# non-zero exit alone could also be a build failure or a mistyped flag,
# so the report each run writes must carry the expected finding too.
NEG_DIR=$(mktemp -d)
for neg in double-accept parser-panic; do
  echo "==> gradcomp analyze --inject $neg (must fail with its finding)"
  if cargo run -q --release -p gcs-cli --bin gradcomp-cli -- \
      analyze --inject "$neg" --json "$NEG_DIR/$neg.json" \
      > /dev/null 2>&1; then
    echo "analyze --inject $neg exited zero: seeded negative NOT detected"
    exit 1
  fi
  python3 - "$neg" "$NEG_DIR/$neg.json" <<'PY'
import json
import sys

neg, path = sys.argv[1], sys.argv[2]
passes = json.load(open(path))["passes"]
if neg == "double-accept":
    details = [f["detail"] for f in passes["protocol_machines"]["findings"]]
    found = any(d.startswith("double-accept") for d in details)
else:
    found = bool(passes["wire_fuzz"]["findings"])
if not found:
    sys.exit(f"analyze --inject {neg}: the report lacks the expected finding")
PY
done
rm -rf "$NEG_DIR"

# Smoke-run the tracked benchmark binary: tiny sizes, one iteration, no
# JSON rewrite — catches bit-rot in the bench plumbing without the
# minutes-long full run.
# Bench regression gate: the smoke report must keep every tracked row of
# the committed baseline (structure check; timings are only diffed when
# comparing two full runs on the same CPU — see the script's docstring).
# Regenerate the committed file with a full run and the same script flags
# before landing intentional changes: a >20% slowdown on matched full-run
# rows fails the gate.
echo "==> bench smoke (adaptive)"
GCS_BENCH_SMOKE=1 GCS_BENCH_OUT=results/bench_adaptive_smoke.json \
  timeout 300 cargo run -q --release -p gcs-bench --bin adaptive

echo "==> bench compare (structure gate vs the committed baseline)"
python3 scripts/bench_compare.py BENCH_adaptive.json results/bench_adaptive_smoke.json

# Fault-injection suite under two fixed seeds (decimal; the suite reads
# GCS_FAULT_SEED). Wrapped in `timeout` because the failure mode the fault
# plane guards against is a hang — a wedged collective must fail CI fast,
# not stall it.
echo "==> fault suite (seed 12648430)"
GCS_FAULT_SEED=12648430 timeout 300 cargo test -q -p gcs-cluster --test fault_injection

echo "==> fault suite (seed 271828)"
GCS_FAULT_SEED=271828 timeout 300 cargo test -q -p gcs-cluster --test fault_injection

# The fault plane end to end through the CLI (binary built by the analyze
# step above): killing one of four workers must finish training on the
# shrunk ring, and a plan that kills every rank must fail with a typed
# error (exit 2) — never a panic (101) or a hang (124 from timeout).
echo "==> gradcomp faults (kill 1 of 4)"
FAULTS_OUT=$(timeout 120 ./target/release/gradcomp-cli faults --workers 4 --steps 20 --kill 1@3)
echo "$FAULTS_OUT"
grep -q "ring shrank 4 -> 3" <<<"$FAULTS_OUT" || {
  echo "faults run did not report the ring shrinking"; exit 1;
}

echo "==> gradcomp faults (no survivor, must fail typed)"
status=0
timeout 120 ./target/release/gradcomp-cli faults --workers 2 --steps 10 --kill 0@1,1@1 \
  > /dev/null 2>&1 || status=$?
if [ "$status" -eq 0 ] || [ "$status" -eq 101 ] || [ "$status" -eq 124 ]; then
  echo "no-survivor plan exited $status: expected a typed error"; exit 1
fi

# The controller's link model asserts its inputs, so a bad link flag must
# be rejected by the CLI as a typed error — never reach the assert (101).
echo "==> gradcomp adaptive (negative latency, must fail typed)"
status=0
timeout 120 ./target/release/gradcomp-cli adaptive --alpha-us -1 > /dev/null 2>&1 || status=$?
if [ "$status" -eq 0 ] || [ "$status" -eq 101 ] || [ "$status" -eq 124 ]; then
  echo "adaptive --alpha-us -1 exited $status: expected a typed error"; exit 1
fi

# CommEngine poison ordering under concurrent submitters, same two seeds
# (the failure mode is a hang or a silent post-poison success).
echo "==> comm poison suite (seed 12648430)"
GCS_FAULT_SEED=12648430 timeout 300 cargo test -q -p gcs-cluster --test comm_poison

echo "==> comm poison suite (seed 271828)"
GCS_FAULT_SEED=271828 timeout 300 cargo test -q -p gcs-cluster --test comm_poison

# Backend-agnostic transport semantics (same workload on SimCluster and
# TcpCluster through the Transport trait) and the TCP-vs-sim bitexact
# gate, each under the same two seeds.
echo "==> transport trait suite (seed 12648430)"
GCS_FAULT_SEED=12648430 timeout 300 cargo test -q -p gcs-cluster --test transport_trait

echo "==> transport trait suite (seed 271828)"
GCS_FAULT_SEED=271828 timeout 300 cargo test -q -p gcs-cluster --test transport_trait

echo "==> transport bitexact suite (seed 12648430)"
GCS_FAULT_SEED=12648430 timeout 300 cargo test -q -p gcs-ddp --test transport_bitexact

echo "==> transport bitexact suite (seed 271828)"
GCS_FAULT_SEED=271828 timeout 300 cargo test -q -p gcs-ddp --test transport_bitexact

# Multi-process smoke: one orchestrator + two workers as REAL OS
# processes over loopback. The orchestrator verifies every worker's
# digest against the in-process SimCluster reference and exits non-zero
# on any mismatch; `timeout` guards the whole choreography because the
# failure mode of a control/data-plane bug is a hang.
echo "==> multi-process smoke (orchestrator + 2 workers on loopback)"
GRADCOMP=./target/release/gradcomp-cli
MP_DIR=$(mktemp -d)
# Stop what still runs of the smoke on every exit path, so a failed
# check does not leave the orchestrator or a worker behind.
ORCH_PID='' W0_PID='' W1_PID=''
trap 'kill $ORCH_PID $W0_PID $W1_PID 2>/dev/null || true; rm -rf "$MP_DIR"' EXIT
timeout 120 "$GRADCOMP" orchestrator --world 2 --method topk:0.2 --steps 3 \
  --addr-file "$MP_DIR/orch.addr" > "$MP_DIR/orch.out" 2>&1 &
ORCH_PID=$!
for _ in $(seq 1 200); do
  [ -f "$MP_DIR/orch.addr" ] && break
  sleep 0.05
done
[ -f "$MP_DIR/orch.addr" ] || { echo "orchestrator never published its address"; exit 1; }
ORCH_ADDR=$(cat "$MP_DIR/orch.addr")
timeout 120 "$GRADCOMP" worker --orchestrator "$ORCH_ADDR" > "$MP_DIR/w0.out" 2>&1 &
W0_PID=$!
timeout 120 "$GRADCOMP" worker --orchestrator "$ORCH_ADDR" > "$MP_DIR/w1.out" 2>&1 &
W1_PID=$!
# One wait per process: `wait A B C` returns C's status alone.
for pid in "$ORCH_PID" "$W0_PID" "$W1_PID"; do
  wait "$pid" || {
    echo "multi-process smoke failed:"; cat "$MP_DIR"/*.out; exit 1;
  }
done
ORCH_PID='' W0_PID='' W1_PID=''
grep -q "bit-identical to the sim reference" "$MP_DIR/orch.out" || {
  echo "orchestrator did not verify:"; cat "$MP_DIR/orch.out"; exit 1;
}
cat "$MP_DIR/orch.out"

# The adaptive controller under the same two fault seeds: delay-injected
# links must steer the measured-mode controller toward compression, and
# the steering must reproduce per seed (see adaptive_faults.rs).
echo "==> adaptive controller fault suite (seed 12648430)"
GCS_FAULT_SEED=12648430 timeout 300 cargo test -q -p gcs-ddp --test adaptive_faults

echo "==> adaptive controller fault suite (seed 271828)"
GCS_FAULT_SEED=271828 timeout 300 cargo test -q -p gcs-ddp --test adaptive_faults

echo "==> adaptive switch property suite"
timeout 300 cargo test -q -p gcs-ddp --test adaptive_switch

echo "CI OK"
