#!/usr/bin/env bash
# The repro contract: the recorded full-scale outputs `repro_full.txt` and
# `repro_ablations.txt` are reproduced byte for byte by every figure and
# ablation, named explicitly (not `all`, which adds Table 1's wall-clock
# seconds). `scripts/repro-contract.sh` checks them (~70 s on two cores);
# `scripts/repro-contract.sh record` rewrites them, only when a change
# means to move them. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."
targets=(fig3 fig4 fig5 fig6 fig8 fig9 fig10a fig10b fig11 ablations)

cargo build --release -p dsj-bench --bin repro
repro() { ./target/release/repro "$@" --jobs "$(nproc)"; }
case "${1:-check}" in
    check)
        repro "${targets[@]}" | diff repro_full.txt -
        repro ablations | diff repro_ablations.txt -
        ;;
    record)
        repro "${targets[@]}" > repro_full.txt
        repro ablations > repro_ablations.txt
        ;;
    *)
        echo "usage: $0 [check|record]" >&2
        exit 2
        ;;
esac
