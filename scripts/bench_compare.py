#!/usr/bin/env python3
"""Compare a fresh benchmark report against the committed baseline.

Usage:
    bench_compare.py BASELINE.json FRESH.json [--max-regression 0.20]

Two layers of checking:

1. **Structure** (always): the fresh report must contain every benchmark
   row present in the baseline — same sections, same (scheme/regime,
   workers/link) identity keys, same timing fields. A refactor that
   silently drops a tracked row fails here even in smoke mode.
   Benches listed in REQUIRED_METADATA (adaptive) must also carry the
   metadata that makes a run attributable (the active kernel table).

2. **Timings** (full runs only): every `*_ms` field shared by a matched
   row pair must not regress by more than `--max-regression` (default
   20%). Skipped when either report is a smoke run (`metadata.smoke` /
   `smoke` true) or when the reports come from different CPU models —
   cross-machine wall-clock deltas are noise, not regressions.

Exit codes: 0 ok, 1 regression or structural mismatch, 2 usage/IO error.
"""

import argparse
import json
import sys

# Fields that identify a row within a section (never compared as timings).
# The coarse keys name *what* is benchmarked (stable across smoke and full
# runs): `scheme` and `regime` name an adaptive-bench row's arm and
# emulated link. The fine keys pin the exact configuration (world size,
# link), which smoke mode shrinks — so structure checks use coarse
# identity and timing checks use the full identity.
COARSE_KEYS = ("scheme", "regime")
FINE_KEYS = ("workers", "gbps", "latency_us")

# Wall-clock fields that depend on the machine running the bench (the
# adaptive report keeps them "for honesty, never gated") — excluded from
# the timing regression gate; modelled `*_ms` fields are still compared.
NOISY_FIELDS = {"measured_step_ms"}

# Per-bench metadata the report must carry so runs stay attributable to a
# concrete kernel configuration (keyed by the report's "bench").
REQUIRED_METADATA = {
    "adaptive": ("active_kernel_table",),
}


def row_identity(section, row, fine):
    ident = [("section", section)]
    keys = COARSE_KEYS + FINE_KEYS if fine else COARSE_KEYS
    for key in keys:
        if key in row:
            ident.append((key, row[key]))
    return tuple(ident)


def iter_rows(report):
    """Yields (section, row) for every dict row in the report."""
    for section, value in report.items():
        if section in ("metadata", "bench", "smoke", "params"):
            continue
        if isinstance(value, dict):
            yield section, value
        elif isinstance(value, list):
            for row in value:
                if isinstance(row, dict):
                    yield section, row


def timing_fields(row):
    return {
        key: val
        for key, val in row.items()
        if key.endswith("_ms")
        and key not in NOISY_FIELDS
        and isinstance(val, (int, float))
        and val > 0
    }


def missing_metadata(report):
    """Names of required metadata keys absent from `report`, if any."""
    required = REQUIRED_METADATA.get(report.get("bench"), ())
    meta = report.get("metadata") or {}
    return [key for key in required if key not in meta]


def is_smoke(report):
    meta = report.get("metadata") or {}
    return bool(report.get("smoke") or meta.get("smoke"))


def cpu_model(report):
    meta = report.get("metadata") or {}
    return meta.get("cpu_model")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.20,
        help="maximum tolerated fractional slowdown per timing (default 0.20)",
    )
    args = parser.parse_args()

    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
        with open(args.fresh) as f:
            fresh = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"bench_compare: cannot load reports: {err}", file=sys.stderr)
        return 2

    base_rows = {row_identity(s, r, True): r for s, r in iter_rows(baseline)}
    fresh_rows = {row_identity(s, r, True): r for s, r in iter_rows(fresh)}
    base_coarse = {row_identity(s, r, False): r for s, r in iter_rows(baseline)}
    fresh_coarse = {row_identity(s, r, False): r for s, r in iter_rows(fresh)}

    failures = []

    for name, report in (("baseline", baseline), ("fresh", fresh)):
        for key in missing_metadata(report):
            failures.append(f"{name} report lacks required metadata: {key}")

    # Layer 1: every benchmark the baseline tracks must still exist in the
    # fresh report with the same timing fields (coarse identity: smoke runs
    # shrink shapes/worlds but must not drop a tracked kernel or field).
    for ident, base_row in sorted(base_coarse.items()):
        if ident not in fresh_coarse:
            failures.append(f"missing benchmark: {dict(ident)}")
            continue
        missing = set(timing_fields(base_row)) - set(fresh_coarse[ident])
        if missing:
            failures.append(f"benchmark {dict(ident)} lost fields: {sorted(missing)}")

    # Layer 2: timing regression gate, full-run vs full-run on one machine.
    compare_times = not is_smoke(baseline) and not is_smoke(fresh)
    base_cpu, fresh_cpu = cpu_model(baseline), cpu_model(fresh)
    if compare_times and base_cpu and fresh_cpu and base_cpu != fresh_cpu:
        print(
            f"bench_compare: cpu mismatch ({base_cpu!r} vs {fresh_cpu!r}); "
            "skipping timing comparison"
        )
        compare_times = False

    checked = 0
    if compare_times:
        for ident, base_row in sorted(base_rows.items()):
            fresh_row = fresh_rows.get(ident)
            if fresh_row is None:
                continue
            for field, base_ms in timing_fields(base_row).items():
                fresh_ms = fresh_row.get(field)
                if not isinstance(fresh_ms, (int, float)):
                    continue
                checked += 1
                ratio = fresh_ms / base_ms
                if ratio > 1.0 + args.max_regression:
                    failures.append(
                        f"regression: {dict(ident)} {field} "
                        f"{base_ms:.3f}ms -> {fresh_ms:.3f}ms ({ratio:.2f}x)"
                    )

    mode = f"{checked} timings" if compare_times else "structure only (smoke)"
    if failures:
        for failure in failures:
            print(f"bench_compare: FAIL {failure}", file=sys.stderr)
        print(
            f"bench_compare: {len(failures)} failure(s) "
            f"({len(base_rows)} baseline rows, {mode})",
            file=sys.stderr,
        )
        return 1
    print(
        f"bench_compare: OK — {len(base_rows)} rows matched, {mode}, "
        f"tolerance {args.max_regression:.0%}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
