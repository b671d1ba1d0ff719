# Development workflow. `just ci` mirrors .github/workflows/ci.yml.

# Everything CI runs, in CI order.
ci: fmt-check clippy doc tier1 test-workspace repro-smoke repro-check live-smoke e2e-smoke load-smoke

# Formatting gate.
fmt-check:
    cargo fmt --check

# Lint gate — warnings are errors. The second line is the clippy gate
# (`clippy.toml`): panic-safety, float equality, hash order, wall clocks,
# `unsafe`, missing docs and wildcard arms that hide a future enum variant,
# over library and binary targets of every workspace crate; tests may
# unwrap, hash and time, so the first line allows the two `disallowed_*`
# lints.
clippy:
    cargo clippy --workspace --all-targets -- -D warnings -A clippy::disallowed-methods -A clippy::disallowed-types
    cargo clippy --workspace --exclude rand --exclude proptest --lib --bins -- --no-deps -D warnings -F unsafe-code -D missing-docs -D clippy::unwrap_used -D clippy::expect_used -D clippy::panic -D clippy::todo -D clippy::unimplemented -D clippy::float_cmp -D clippy::disallowed_methods -D clippy::disallowed_types -D clippy::match_wildcard_for_single_variants

# API docs must build without warnings.
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# The repo's tier-1 verify (ROADMAP.md).
tier1:
    cargo build --release
    cargo test -q

# Full workspace test suite.
test-workspace:
    cargo test -q --workspace

# What `--metrics-out` writes, minus each line's wall-clock `phases` object.
strip_phases := "sed -E 's/\"phases\":\\{(\"[^\"]+\":\\{[^}]*\\},?)*\\},//'"

# Parallel repro harness must match serial byte-for-byte — stdout, and the
# metrics records (one per experiment) once `phases` is removed — a
# mistyped experiment name must fail the process, and Table 1 (wall-clock,
# so outside the goldens) must print one row per quick-scale window.
repro-smoke:
    cargo build --release -p dsj-bench --bin repro
    DSJOIN_SCALE=quick ./target/release/repro fig8 ablation_detector --jobs 1 \
        --metrics-out /tmp/dsjoin_metrics_j1.jsonl > /tmp/dsjoin_out_j1.txt
    DSJOIN_SCALE=quick ./target/release/repro fig8 ablation_detector --jobs 4 \
        --metrics-out /tmp/dsjoin_metrics_j4.jsonl > /tmp/dsjoin_out_j4.txt
    diff /tmp/dsjoin_out_j1.txt /tmp/dsjoin_out_j4.txt
    test "$(wc -l < /tmp/dsjoin_metrics_j4.jsonl)" -eq 2
    {{strip_phases}} /tmp/dsjoin_metrics_j1.jsonl > /tmp/dsjoin_stable_j1.jsonl
    {{strip_phases}} /tmp/dsjoin_metrics_j4.jsonl > /tmp/dsjoin_stable_j4.jsonl
    if grep -q phases /tmp/dsjoin_stable_j4.jsonl; then exit 1; fi
    diff /tmp/dsjoin_stable_j1.jsonl /tmp/dsjoin_stable_j4.jsonl
    if DSJOIN_SCALE=quick ./target/release/repro figg8; then exit 1; fi
    DSJOIN_SCALE=quick ./target/release/repro table1 > /tmp/dsjoin_table1.txt
    test "$(grep -cE '^ *[0-9]+( +[0-9]+\.[0-9]+){3}$' /tmp/dsjoin_table1.txt)" -eq 2

# Live runtimes: the unit tests — among them the interleaving explorer's
# searches of the latch, mailbox + in-flight and dirty-flag protocols
# (`explored_*`, under their asserted 30 s budget) — and cross-backend
# lockstep equivalence (simnet = threads = TCP, all five strategies), plus
# real socket runs of the flagship algorithm, of the bulk closed-loop path
# (BASE: three messages per tuple, where the per-burst wake-ups and write
# coalescing engage), of a lockstep-paced BLOOM cluster, of SKCH and of a
# lockstep-paced DFT cluster (the two routers that keep their affinity rows
# and forwarding probabilities between summaries) and of DFTT at N = 32.
live-smoke:
    cargo test -q -p dsj-runtime
    cargo build --release -p dsj-runtime --example live_tcp
    ./target/release/examples/live_tcp 4 10000 dftt
    ./target/release/examples/live_tcp 4 50000 base
    ./target/release/examples/live_tcp 5 5000 bloom lockstep
    ./target/release/examples/live_tcp 4 10000 sketch
    ./target/release/examples/live_tcp 4 5000 dft lockstep
    ./target/release/examples/live_tcp 32 4000 dftt

# Run a workload over real loopback TCP sockets with codec-framed
# messages, e.g. `just live-tcp 5 50000 bloom lockstep` or
# `just live-tcp 128 5000 dftt` (see README "large clusters" for
# fd-limit notes).
live-tcp n="4" tuples="20000" algorithm="dftt" pacing="freerun":
    cargo build --release -p dsj-runtime --example live_tcp
    ./target/release/examples/live_tcp {{n}} {{tuples}} {{algorithm}} {{pacing}}

# The benchmark (benches/e2e) is its own workspace, so nothing above
# compiles it: run its unit tests and its quick correctness gate.
e2e-smoke:
    cargo test --offline --manifest-path benches/e2e/Cargo.toml
    benches/e2e/run.sh /tmp/e2e.json --quick

# Open-loop capacity search: max sustainable arrival rate + delivery
# latency percentiles for every scenario × strategy × backend × N cell
# (minutes). The rows are this host's, this session's: keep them out of
# the tree.
load:
    cargo build --release -p dsj-bench --bin dsj-loadgen
    ./target/release/dsj-loadgen --out target/load.json

# CI-sized capacity probe — 4 cells, small schedules, same row schema.
load-smoke:
    cargo build --release -p dsj-bench --bin dsj-loadgen
    ./target/release/dsj-loadgen --quick --out target/load_quick.json

# The non-test line count: lines before the first `#[cfg(test)]` (or a
# leading `#![cfg(test)]`) of every file under crates/<c>/src, then all of
# vendor/ and benches/, then every .rs file outside the benchmark.
loc:
    #!/usr/bin/env bash
    set -euo pipefail
    non_test() { xargs -0 awk 'FNR==1{t=0} /^#!?\[cfg\(test\)\]/{t=1} !t{n++} END{print n+0}'; }
    for c in crates/*/; do
        printf '%-10s %6d\n' "$(basename "$c")" "$(find "$c/src" -name '*.rs' -print0 | non_test)"
    done
    for d in vendor benches; do
        printf '%-10s %6d\n' "$d" "$(git ls-files "$d" | grep '\.rs$' | xargs cat | wc -l)"
    done
    printf '%-10s %6d\n' "all *.rs" "$(find crates src tests examples vendor -name '*.rs' -print0 | xargs -0 cat | wc -l)"

# The recorded full-scale reproduction outputs (`repro_full.txt`,
# `repro_ablations.txt`) are the contract: every figure and ablation, by
# explicit name — not `all`, which adds Table 1's wall-clock seconds.
repro_targets := "fig3 fig4 fig5 fig6 fig8 fig9 fig10a fig10b fig11 ablations"

# Regenerate the recorded outputs (only when a change means to move them).
repro-record:
    cargo build --release -p dsj-bench --bin repro
    ./target/release/repro {{repro_targets}} --jobs "$(nproc)" > repro_full.txt
    ./target/release/repro ablations --jobs "$(nproc)" > repro_ablations.txt

# The contract still holds: the same runs (~70 s on two cores) reproduce
# the recorded outputs byte for byte.
repro-check:
    cargo build --release -p dsj-bench --bin repro
    ./target/release/repro {{repro_targets}} --jobs "$(nproc)" | diff repro_full.txt -
    ./target/release/repro ablations --jobs "$(nproc)" | diff repro_ablations.txt -
