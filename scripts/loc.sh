#!/usr/bin/env bash
# Non-test source lines, `unsafe` blocks and `unsafe fn`s per crate and in
# total. Each file under crates/*/src counts up to its first line that
# begins with `#[cfg(test)]`, so a mention of the attribute inside a doc
# comment does not end the count. Comment lines (`//`, `///`, `//!`) add
# lines but never `unsafe` sites.
# Usage: bash scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."
find crates/*/src -name '*.rs' -exec awk '
  /^#\[cfg\(test\)\]/ { nextfile }
  {
    split(FILENAME, path, "/")
    dir = path[2]
    lines[dir]++
  }
  !/^[[:space:]]*\/\// {
    s = $0
    blocks[dir] += gsub(/unsafe[[:space:]]*\{/, "", s)
    fns[dir] += gsub(/unsafe[[:space:]]+fn[[:space:]]/, "", s)
  }
  END { for (d in lines) print d, lines[d], blocks[d] + 0, fns[d] + 0 }
' {} + |
  sort |
  awk '{ n[$1] += $2; b[$1] += $3; f[$1] += $4 } END { for (d in n) print d, n[d], b[d], f[d] }' |
  sort |
  while read -r dir n b f; do
    name=$(sed -n 's/^name = "\(.*\)"/\1/p' "crates/$dir/Cargo.toml" | head -n 1)
    printf '%-14s %6d %8d %10d\n' "$name" "$n" "$b" "$f"
  done |
  awk 'BEGIN { printf "%-14s %6s %8s %10s\n", "crate", "lines", "unsafe{}", "unsafe fn" }
       { print; n += $2; b += $3; f += $4 }
       END { printf "%-14s %6d %8d %10d\n", "total", n, b, f }'
