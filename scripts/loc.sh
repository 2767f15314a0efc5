#!/usr/bin/env bash
# Non-test source lines per crate and in total. Each file under
# crates/*/src counts up to its first line that begins with `#[cfg(test)]`,
# so a mention of the attribute inside a doc comment does not end the count.
# Usage: bash scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."
find crates/*/src -name '*.rs' -exec awk '/^#\[cfg\(test\)\]/ { nextfile } { print FILENAME }' {} + |
  cut -d/ -f2 | sort | uniq -c |
  while read -r n dir; do
    name=$(sed -n 's/^name = "\(.*\)"/\1/p' "crates/$dir/Cargo.toml" | head -n 1)
    printf '%-14s %6d\n' "$name" "$n"
  done |
  awk '{ print; total += $2 } END { printf "%-14s %6d\n", "total", total }'
