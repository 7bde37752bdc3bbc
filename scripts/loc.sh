#!/usr/bin/env bash
# Non-test Rust lines per crate, from the repo root:
#
#   scripts/loc.sh
#
# Counts every line of each crates/*/src/**/*.rs that comes before the
# file's first `#[cfg(test)]` (comments and blank lines included), so inline
# unit-test modules are left out. Integration tests (tests/), benches
# (benches/), the vendored crates (vendor/) and the benchmark harness
# (perfbench/) are outside crates/*/src and are not counted. Prints one
# `<lines> <crate>` row per crate, then the total. Compare the total before
# and after a change to report its net line delta.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for crate in crates/*/; do
    crate="${crate%/}"
    [[ -d "$crate/src" ]] || continue
    lines=$(find "$crate/src" -name '*.rs' -print0 | sort -z |
        xargs -0 -r awk '
            FNR == 1 { counting = 1 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
            counting { n++ }
            END { print n + 0 }' |
        awk '{ s += $1 } END { print s + 0 }')
    printf '%6d %s\n' "$lines" "${crate#crates/}"
    total=$((total + lines))
done
printf '%6d total\n' "$total"
