#!/usr/bin/env bash
# Builds the benchmark offline (into benches/e2e/target unless
# CARGO_TARGET_DIR says otherwise) and runs every workload, end to end and
# traced, from the repository root. The first argument is where the results
# JSON goes; the rest is passed on (--seed, --reps, --only, --quick, --sets).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${1:-$here/target/results.json}"
shift || true
mkdir -p "$(dirname "$out")"
out="$(cd "$(dirname "$out")" && pwd)/$(basename "$out")"
cd "$here/../.."
exec cargo run --release --offline --quiet --manifest-path benches/e2e/Cargo.toml -- --out "$out" "$@"
