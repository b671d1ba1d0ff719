#!/usr/bin/env bash
# The zero-drift rows: recall, messages and bytes per tuple of both
# simulated benchmark workloads at `--reps 3 --seed 7` are deterministic,
# so a change that does not mean to move routing reproduces them exactly.
# Builds the benchmark (benches/e2e, into its own target directory unless
# CARGO_TARGET_DIR says otherwise), runs both workloads and exits 1 on any
# difference. A change that means to move routing re-pins the rows below,
# as it would re-record the goldens. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."
rows=(
    "sim-dftt-steady 0.737687469009364 0.488645 3.61757"
    "sim-skch-migrate 0.667266424730363 0.999155 5.167285"
)
cargo build --release --offline --quiet --manifest-path benches/e2e/Cargo.toml
bin="${CARGO_TARGET_DIR:-benches/e2e/target}/release/dsj-e2e"
# The value of end-to-end metric `$2` in the result line `$1`.
metric() { grep -o "\"$2\": {\"value\": [^,}]*" <<<"$1" | sed 's/.*: //'; }
status=0
for row in "${rows[@]}"; do
    read -r workload recall msgs bytes <<<"$row"
    line="$("$bin" --workload "$workload" --reps 3 --seed 7 | tail -n 1)"
    got="$(metric "$line" recall) $(metric "$line" msgs_per_tuple) $(metric "$line" bytes_per_tuple)"
    if [ "$got" = "$recall $msgs $bytes" ]; then
        echo "zero-drift $workload: $got"
    else
        echo "ZERO-DRIFT MOVED $workload: recall / msgs / bytes $got, pinned $recall $msgs $bytes"
        status=1
    fi
done
exit "$status"
