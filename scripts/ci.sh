#!/usr/bin/env bash
# Offline CI gate: build, tests, and lints for the whole workspace.
# No network access is assumed (all dependencies are vendored path crates).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

# Second pass with the SIMD kernel tables disabled: every dispatched call
# site must behave identically on the portable scalar path (the kernel
# property tests compare the tables directly; this run proves the whole
# pipeline — compression bit-exactness included — under forced-scalar
# dispatch, i.e. what a non-AVX2 host executes).
echo "==> cargo test --workspace -q (GCS_FORCE_SCALAR=1)"
GCS_FORCE_SCALAR=1 cargo test --workspace -q

# The skinny GEMM paths and the fused reconstruct against the general
# kernels, `a_mul_bt` (both row layouts) against the scalar loop it
# replaced, the write-once `Vec` forms against the zeroed slice forms,
# PowerSGD against its unfused reference and its goldens, the benchmark
# models' gradient goldens, the wire image against `f32s_to_bytes`, the
# ring mean against the ring sum divided (`ring_reference`) and every
# engine against the parent goldens (`pipeline_bitexact`), named here so
# the gate does not rest on the two workspace passes above keeping them:
# once under the default dispatch and once forced scalar (which also pins
# the kernel pool to one thread).
for scalar in 0 1; do
  echo "==> GEMM paths + write-once + PowerSGD + MLP + ring mean bit-exactness (GCS_FORCE_SCALAR=$scalar)"
  GCS_FORCE_SCALAR=$scalar cargo test -q -p gcs-tensor --test kernel_props -- \
    skinny fused a_mul_bt_matches_the_scalar_reference \
    a_mul_bt_interleaved_rows_match_the_scalar_reference \
    write_once_forms_match_the_zeroed_slice_forms wire_image_is_the_bytes_f32s_to_bytes_writes
  GCS_FORCE_SCALAR=$scalar cargo test -q -p gcs-compress --lib powersgd
  GCS_FORCE_SCALAR=$scalar cargo test -q -p gcs-train --lib mlp_grad_and_loss_bits_are_pinned
  GCS_FORCE_SCALAR=$scalar cargo test -q -p gcs-cluster --test ring_reference
  GCS_FORCE_SCALAR=$scalar cargo test -q -p gcs-ddp --test pipeline_bitexact
done

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The repo's benchmark (BENCHMARK.json) is a crate of its own outside the
# workspace, so nothing above builds or tests it: run its unit tests —
# among them the one that fails when BENCHMARK.json and the code that
# prints the metrics drift apart — and check that the command
# BENCHMARK.json names still builds and starts.
echo "==> benchmark crate tests"
cargo test --offline --manifest-path benchmark/Cargo.toml --target-dir target -q

echo "==> benchmark/run.sh --list"
bash benchmark/run.sh --list

# One short workload end to end: the benchmark's checks (same digest on
# every rank, a SimCluster replay, expected wire bytes) exit non-zero when
# a library change breaks them, so that shows up here and not first in a
# full 25-second benchmark run.
echo "==> benchmark smoke (dense-ring-tcp, 3 s)"
timeout 120 bash benchmark/run.sh --workload dense-ring-tcp --seconds 3 --trace 0 > /dev/null

# Static verification layer, all five passes: (1) model-check every
# collective schedule family (p = 2..16, dead-rank subsets <= 2);
# (2) lint the workspace source (unsafe hygiene, data-plane panic paths,
# raw accumulation loops, Relaxed-ordering allowlist); (3) explore the
# thread/event models of the pool, CommEngine, pipeline window,
# adaptive broadcast, and TCP readers for races/deadlocks/lost wakeups;
# (4) prove the Hello handshake, decision protocol, and pipeline FIFO
# window state machines; (5) fuzz the wire headers/frames and
# Payload::from_bytes for all 15 methods at a fixed seed (deterministic,
# finishes well under 10 s). Writes results/analyze_report.json and
# exits non-zero on any violation.
echo "==> gradcomp analyze --all"
cargo run -q --release -p gcs-cli --bin gradcomp-cli -- analyze --all

# Negative self-test: each pass must still DETECT its seeded negative —
# a racy thread model, a double-accepting Hello mutant, a panicking wire
# parser. If any of these exits zero the gate has lost its teeth.
for neg in race double-accept parser-panic; do
  echo "==> gradcomp analyze --inject $neg (must fail)"
  if cargo run -q --release -p gcs-cli --bin gradcomp-cli -- \
      analyze --inject "$neg" --json "/tmp/gcs_analyze_neg_$neg.json" \
      > /dev/null 2>&1; then
    echo "analyze --inject $neg exited zero: seeded negative NOT detected"
    exit 1
  fi
done

# Smoke-run the tracked benchmark binaries: tiny sizes, one iteration,
# no JSON rewrite — catches bit-rot in the bench plumbing without the
# minutes-long full runs. The datapath smoke runs under both dispatch
# modes so the scalar fallback paths stay executable too.
echo "==> bench smoke (datapath)"
GCS_BENCH_SMOKE=1 GCS_BENCH_OUT=results/bench_datapath_smoke.json \
  cargo run -q --release -p gcs-bench --bin datapath

echo "==> bench smoke (datapath, GCS_FORCE_SCALAR=1)"
GCS_BENCH_SMOKE=1 GCS_FORCE_SCALAR=1 cargo run -q --release -p gcs-bench --bin datapath

echo "==> bench smoke (pipeline)"
GCS_BENCH_SMOKE=1 GCS_BENCH_OUT=results/bench_pipeline_smoke.json \
  cargo run -q --release -p gcs-bench --bin pipeline

# Bench regression gate: the smoke reports must keep every tracked row of
# the committed baselines (structure check; timings are only diffed when
# comparing two full runs on the same CPU — see the script's docstring).
# Regenerate the committed files with full runs and the same script flags
# before landing intentional changes: a >20% slowdown on matched full-run
# rows fails the gate.
echo "==> bench smoke (adaptive)"
GCS_BENCH_SMOKE=1 GCS_BENCH_OUT=results/bench_adaptive_smoke.json \
  timeout 300 cargo run -q --release -p gcs-bench --bin adaptive

echo "==> bench compare (structure gate vs committed baselines)"
python3 scripts/bench_compare.py BENCH_datapath.json results/bench_datapath_smoke.json
python3 scripts/bench_compare.py BENCH_pipeline.json results/bench_pipeline_smoke.json
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
trap 'rm -rf "$MP_DIR"' EXIT
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
wait "$ORCH_PID" "$W0_PID" "$W1_PID" || {
  echo "multi-process smoke failed:"; cat "$MP_DIR"/*.out; exit 1;
}
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

echo "==> bench smoke (straggler)"
GCS_BENCH_SMOKE=1 GCS_BENCH_OUT=results/bench_straggler_smoke.json \
  timeout 300 cargo run -q --release -p gcs-bench --bin straggler
python3 scripts/bench_compare.py BENCH_straggler.json results/bench_straggler_smoke.json

echo "CI OK"
