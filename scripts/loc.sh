#!/usr/bin/env bash
# The non-test line count: lines before the first `#[cfg(test)]` (or a
# leading `#![cfg(test)]`) of every file under crates/<c>/src, of
# crates/core/src/strategy/ and of the whole library (crates/*/src), then
# all of vendor/ and benches/, then every .rs file outside the benchmark.
# Run from anywhere: `scripts/loc.sh` (or `just loc`).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
non_test() { xargs -0 awk 'FNR==1{t=0} /^#!?\[cfg\(test\)\]/{t=1} !t{n++} END{print n+0}'; }
for c in crates/*/; do
    printf '%-10s %6d\n' "$(basename "$c")" "$(find "$c/src" -name '*.rs' -print0 | non_test)"
done
printf '%-10s %6d\n' "strategy" "$(find crates/core/src/strategy -name '*.rs' -print0 | non_test)"
printf '%-10s %6d\n' "library" "$(find crates/*/src -name '*.rs' -print0 | non_test)"
for d in vendor benches; do
    printf '%-10s %6d\n' "$d" "$(git ls-files "$d" | grep '\.rs$' | xargs cat | wc -l)"
done
printf '%-10s %6d\n' "all *.rs" "$(find crates src tests examples vendor -name '*.rs' -print0 | xargs -0 cat | wc -l)"
