#!/usr/bin/env bash
# Repro smoke: the parallel repro harness must match serial byte for byte —
# stdout, and the metrics records (one per experiment) once each line's
# wall-clock `phases` object is removed — a mistyped experiment name must
# fail the process, and Table 1 and the capacity search (wall-clock, so
# outside the goldens) must print one row per quick-scale window and cell,
# the search measuring at least one capacity.
# Run from anywhere; scratch files go to a fresh temporary directory.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

cargo build --release -p dsj-bench --bin repro
DSJOIN_SCALE=quick ./target/release/repro fig8 ablation_detector --jobs 1 \
    --metrics-out "$out/metrics_j1.jsonl" > "$out/out_j1.txt"
DSJOIN_SCALE=quick ./target/release/repro fig8 ablation_detector --jobs 4 \
    --metrics-out "$out/metrics_j4.jsonl" > "$out/out_j4.txt"
diff "$out/out_j1.txt" "$out/out_j4.txt"
test "$(wc -l < "$out/metrics_j4.jsonl")" -eq 2
# The records are equal once each line's wall-clock `phases` goes.
strip_phases() { sed -E 's/"phases":\{("[^"]+":\{[^}]*\},?)*\},//' "$1"; }
strip_phases "$out/metrics_j1.jsonl" > "$out/stable_j1.jsonl"
strip_phases "$out/metrics_j4.jsonl" > "$out/stable_j4.jsonl"
if grep -q phases "$out/stable_j4.jsonl"; then exit 1; fi
diff "$out/stable_j1.jsonl" "$out/stable_j4.jsonl"
# A mistyped experiment name fails the process.
if DSJOIN_SCALE=quick ./target/release/repro figg8; then exit 1; fi
# Table 1 prints one row per quick-scale window.
DSJOIN_SCALE=quick ./target/release/repro table1 > "$out/table1.txt"
test "$(grep -cE '^ *[0-9]+( +[0-9]+\.[0-9]+){3}$' "$out/table1.txt")" -eq 2
# The capacity search prints one row per quick-scale cell, and at least one
# is a measured capacity: its max_tps is a number, not a `≥` lower bound.
DSJOIN_SCALE=quick ./target/release/repro capacity > "$out/capacity.txt"
row='^[A-Z]+ +[A-Z]+ +(threads|tcp_reactor) +[0-9]+ +'
test "$(grep -cE "$row" "$out/capacity.txt")" -eq 4
grep -qE "$row[0-9]" "$out/capacity.txt"
