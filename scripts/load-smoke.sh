#!/usr/bin/env bash
# CI-sized capacity probe: the open-loop load generator's quick scenario
# matrix (4 cells, small schedules, the full run's row schema). Its rows are
# this host's, so they go to a fresh temporary directory, never the tree.
# Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

cargo build --release -p dsj-bench --bin dsj-loadgen
./target/release/dsj-loadgen --quick --out "$out/load_quick.json"
