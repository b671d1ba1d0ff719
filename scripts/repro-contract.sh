#!/usr/bin/env bash
# The repro contract: the recorded full-scale outputs `repro_full.txt` and
# `repro_ablations.txt` are reproduced byte for byte by every figure and
# ablation, named explicitly (not `all`, which adds Table 1's wall-clock
# seconds). `scripts/repro-contract.sh` checks them (~70 s on two cores);
# `scripts/repro-contract.sh record` rewrites them, only when a change
# means to move them, and prints every row it moved against the committed
# file (`git show HEAD:<file>`), old above new under the row's heading —
# the before/after table of a golden-moving change. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."
targets=(fig3 fig4 fig5 fig6 fig8 fig9 fig10a fig10b fig11 ablations)

cargo build --release -p dsj-bench --bin repro
repro() { ./target/release/repro "$@" --jobs "$(nproc)"; }
# Prints the rows of `$1` that differ from its committed version. Row
# pairs are matched by line number; a file whose line count changed is
# shown as a unified diff instead.
changed_rows() {
    if [ "$(git show "HEAD:$1" | wc -l)" -ne "$(wc -l < "$1")" ]; then
        diff -u <(git show "HEAD:$1") "$1" || true
        return
    fi
    awk -v file="$1" '
        NR == FNR { old[FNR] = $0; next }
        /^#/ { heading = $0; columns = ""; shown = 0; next }
        columns == "" { columns = $0 }
        old[FNR] != $0 {
            if (!moved++) print "== " file
            if (!shown++) print heading "\n      " columns
            print "  old " old[FNR] "\n  new " $0
        }
        END { print "== " file ": " moved + 0 " rows changed" }
    ' <(git show "HEAD:$1") "$1"
}
case "${1:-check}" in
    check)
        repro "${targets[@]}" | diff repro_full.txt -
        repro ablations | diff repro_ablations.txt -
        ;;
    record)
        repro "${targets[@]}" > repro_full.txt
        repro ablations > repro_ablations.txt
        changed_rows repro_full.txt
        changed_rows repro_ablations.txt
        ;;
    *)
        echo "usage: $0 [check|record]" >&2
        exit 2
        ;;
esac
