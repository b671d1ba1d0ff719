# Development workflow. `just ci` mirrors .github/workflows/ci.yml.

# Everything CI runs, in CI order.
ci: fmt-check clippy doc tier1 test-workspace test-release repro-smoke repro-check live-smoke e2e-smoke

# Formatting gate.
fmt-check:
    cargo fmt --check

# Lint gate, warnings as errors: both clippy lines, see the script.
clippy:
    scripts/lint.sh

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

# The bitwise kernel tests on optimised codegen: the DFTT plane read is
# vectorised only with optimisations on. The window's as-of proptests run
# here too, where its record arithmetic has no overflow checks.
test-release:
    cargo test -q --release -p dsj-dft -p dsj-core -p dsj-stream

# Parallel repro harness byte-identical to serial (stdout and metrics),
# bad names fail, Table 1 and the capacity search run: see the script.
repro-smoke:
    scripts/repro-smoke.sh

# Live runtimes' tests and real socket runs of every router: see the script.
live-smoke:
    scripts/live-smoke.sh

# Run a workload over real loopback TCP sockets with codec-framed
# messages, e.g. `just live-tcp 5 50000 bloom lockstep` or
# `just live-tcp 128 5000 dftt` (see README "large clusters" for
# fd-limit notes).
live-tcp n="4" tuples="20000" algorithm="dftt" pacing="freerun":
    cargo build --release -p dsj-runtime --example live_tcp
    ./target/release/examples/live_tcp {{n}} {{tuples}} {{algorithm}} {{pacing}}

# The benchmark (benches/e2e) is its own workspace, so nothing above
# compiles it: run its unit tests, its quick correctness gate and the
# zero-drift rows.
e2e-smoke:
    cargo test --offline --manifest-path benches/e2e/Cargo.toml
    benches/e2e/run.sh /tmp/e2e.json --quick
    scripts/zero-drift.sh

# The non-test line count of the library and the rest: see the script.
# Every line target in ROADMAP.md is measured by it.
loc:
    scripts/loc.sh

# The recorded full-scale reproduction outputs (`repro_full.txt`,
# `repro_ablations.txt`) are the contract: see the script for the runs.
# Regenerate them (only when a change means to move them).
repro-record:
    scripts/repro-contract.sh record

# The contract still holds: the same runs (~70 s on two cores) reproduce
# the recorded outputs byte for byte.
repro-check:
    scripts/repro-contract.sh
