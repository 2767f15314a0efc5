#!/usr/bin/env bash
# Builds the benchmark and runs it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload, one process; the last line of stdout is the result
#       as JSON (the form BENCHMARK.json's command takes).
#   benchmark/run.sh [--seed <n>] [--seconds <s>] [--trace <0|1>]
#       all four workloads in turn, one process each; non-zero exit if
#       any of them fails a check.
#   benchmark/run.sh --list
#       the workload names.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Two ranks on two vCPUs: a kernel pool two wide per rank would
# oversubscribe them, and an autotuned tile choice may flip between runs.
# Both settings are printed with every result.
export GCS_KERNEL_THREADS=1 GCS_NO_AUTOTUNE=1

# Cargo runs from the repo root so that its .cargo/config.toml
# (-C target-cpu=native) applies, as it does to the crates measured.
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
bin="$target/release/gcs-benchmark"

for arg in "$@"; do
    if [[ "$arg" == "--workload" || "$arg" == "--list" ]]; then
        exec "$bin" "$@"
    fi
done

status=0
for workload in $("$bin" --list); do
    "$bin" --workload "$workload" "$@" || status=1
done
exit "$status"
