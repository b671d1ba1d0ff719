#!/usr/bin/env bash
# The lint gate, warnings as errors; `just clippy` and CI's lint job run it.
# The first line is the usual lint of every target. The second is the clippy
# gate (`clippy.toml`): panic-safety, float equality, hash order, wall
# clocks, `unsafe`, missing docs and wildcard arms that hide a future enum
# variant, over library and binary targets of every workspace crate; tests
# may unwrap, hash and time, so the first line allows the two
# `disallowed_*` lints.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo clippy --workspace --all-targets -- -D warnings -A clippy::disallowed-methods -A clippy::disallowed-types
cargo clippy --workspace --exclude rand --exclude proptest --lib --bins -- \
    --no-deps -D warnings -F unsafe-code -D missing-docs \
    -D clippy::unwrap_used -D clippy::expect_used -D clippy::panic -D clippy::todo -D clippy::unimplemented \
    -D clippy::float_cmp -D clippy::disallowed_methods -D clippy::disallowed_types \
    -D clippy::match_wildcard_for_single_variants
