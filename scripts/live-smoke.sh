#!/usr/bin/env bash
# Live runtimes: the unit tests — among them the interleaving explorer's
# searches of the latch, mailbox + in-flight and dirty-flag protocols
# (`explored_*`, under their asserted 30 s budget) — and cross-backend
# lockstep equivalence (simnet = threads = TCP, all five strategies), plus
# real socket runs of the flagship algorithm, of the bulk closed-loop path
# (BASE: three messages per tuple, where the per-burst wake-ups and write
# coalescing engage), of a lockstep-paced BLOOM cluster, of SKCH and of a
# lockstep-paced DFT cluster (the two routers that keep their affinity rows
# and forwarding probabilities between summaries), of DFTT at N = 32 and of
# BASE at N = 128, the largest link set-up (8 128 connections).
# Each socket run also checks the byte model and exactness: `live_tcp` exits 1
# when the bytes its engines charged differ from the frame bytes its sockets
# took, or when any probe trailed past its window's grace (free runs at N = 4
# and N = 32 included).
set -euo pipefail
cd "$(dirname "$0")/.."

# N = 128 holds N(N-1) = 16 256 link ends and one listener open at once:
# raise this shell's soft descriptor limit as far as the hard one allows,
# and fail, not skip, when that is still too low.
ulimit -n "$(ulimit -Hn)"
fds=$(ulimit -n)
if [ "$fds" != unlimited ] && [ "$fds" -lt 16500 ]; then
    echo "live-smoke: N = 128 needs roughly 16.5 k descriptors, ulimit -n allows $fds;" \
        "raise it (README, \"Large clusters\")" >&2
    exit 1
fi

cargo test -q -p dsj-runtime
cargo build --release -p dsj-runtime --example live_tcp
./target/release/examples/live_tcp 4 10000 dftt
./target/release/examples/live_tcp 4 50000 base
./target/release/examples/live_tcp 5 5000 bloom lockstep
./target/release/examples/live_tcp 4 10000 sketch
./target/release/examples/live_tcp 4 5000 dft lockstep
./target/release/examples/live_tcp 32 4000 dftt
./target/release/examples/live_tcp 128 2000 base
