#!/usr/bin/env bash
# Live runtimes: the unit tests — among them the interleaving explorer's
# searches of the latch, mailbox + in-flight and dirty-flag protocols
# (`explored_*`, under their asserted 30 s budget) — and cross-backend
# lockstep equivalence (simnet = threads = TCP, all five strategies), plus
# real socket runs of the flagship algorithm, of the bulk closed-loop path
# (BASE: three messages per tuple, where the per-burst wake-ups and write
# coalescing engage), of a lockstep-paced BLOOM cluster, of SKCH and of a
# lockstep-paced DFT cluster (the two routers that keep their affinity rows
# and forwarding probabilities between summaries) and of DFTT at N = 32.
# Each socket run also checks the byte model and exactness: `live_tcp` exits 1
# when the bytes its engines charged differ from the frame bytes its sockets
# took, or when any probe trailed past its window's grace (free runs at N = 4
# and N = 32 included).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo test -q -p dsj-runtime
cargo build --release -p dsj-runtime --example live_tcp
./target/release/examples/live_tcp 4 10000 dftt
./target/release/examples/live_tcp 4 50000 base
./target/release/examples/live_tcp 5 5000 bloom lockstep
./target/release/examples/live_tcp 4 10000 sketch
./target/release/examples/live_tcp 4 5000 dft lockstep
./target/release/examples/live_tcp 32 4000 dftt
