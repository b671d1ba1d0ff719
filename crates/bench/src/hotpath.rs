//! `dsj-bench` — hot-path throughput measurements.
//!
//! Two layers of benchmark, both emitting the same machine-readable
//! record (`{bench, strategy, n, ns_per_op, tuples_per_sec, iters,
//! wall_ms}`) so `BENCH_*.json` files form a per-PR trajectory:
//!
//! * **micro** — ns/op for the per-tuple primitives in isolation:
//!   `Router::route` per strategy (via [`dsj_core::hotpath`]),
//!   `SlidingWindow::insert`/`probe`, `SlidingDft::push`,
//!   `PointDft::add`, and the Bloom/AGMS summary updates. State is warmed
//!   first (windows filled, summaries exchanged) so the loop measures the
//!   steady-state path, not cold construction.
//! * **macro** — end-to-end tuples/sec. `macro.simnet` runs the
//!   deterministic simulator: build the cluster, inject the full arrival
//!   schedule, run to quiescence; the timed region covers node
//!   construction, injection and the entire simulation loop, while
//!   workload *generation* and ground-truth accounting are excluded —
//!   runner-side costs, not system costs. `macro.tcp_reactor` runs the
//!   live TCP backend, timing first arrival to quiescence.
//!
//! Wall clocks are confined to this module (it is on the `dsj-lint`
//! timing allowlist); nothing here feeds reproduced results.

use dsj_core::hotpath::{HarnessParams, RouterHarness};
use dsj_core::wire::{FrameBatch, FrameDecoder};
use dsj_core::{Algorithm, ClusterConfig, Msg};
use dsj_dft::sliding::PointDft;
use dsj_dft::{ControlVector, SlidingDft};
use dsj_runtime::TcpCluster;
use dsj_simnet::{SimDuration, SimTime, Simulation};
use dsj_sketch::{AgmsSketch, CountingBloomFilter};
use dsj_stream::gen::{ArrivalGen, WorkloadKind};
use dsj_stream::partition::Partitioner;
use dsj_stream::{SlidingWindow, StreamId, Tuple, WindowSpec};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// One benchmark measurement — a row of `BENCH_*.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Benchmark id, `micro.*` or `macro.*`.
    pub bench: String,
    /// Strategy label (`BASE`/`BLOOM`/`SKCH`/`DFT`/`DFTT`) when the
    /// benchmark is strategy-specific.
    pub strategy: Option<&'static str>,
    /// Cluster size `N` when the benchmark involves one.
    pub n: Option<u16>,
    /// Nanoseconds per operation (per routed tuple for `macro.*`).
    pub ns_per_op: Option<f64>,
    /// End-to-end throughput; `macro.*` only.
    pub tuples_per_sec: Option<f64>,
    /// Timed operations (injected tuples for `macro.*`).
    pub iters: u64,
    /// Wall time of the timed region, milliseconds.
    pub wall_ms: f64,
}

impl BenchRecord {
    /// Renders the record as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(160);
        s.push_str("{\"bench\":\"");
        s.push_str(&self.bench);
        s.push_str("\",\"strategy\":");
        match self.strategy {
            Some(label) => {
                s.push('"');
                s.push_str(label);
                s.push('"');
            }
            None => s.push_str("null"),
        }
        s.push_str(",\"n\":");
        push_opt_u64(&mut s, self.n.map(u64::from));
        s.push_str(",\"ns_per_op\":");
        push_opt_f64(&mut s, self.ns_per_op);
        s.push_str(",\"tuples_per_sec\":");
        push_opt_f64(&mut s, self.tuples_per_sec);
        s.push_str(",\"iters\":");
        s.push_str(&self.iters.to_string());
        s.push_str(",\"wall_ms\":");
        push_opt_f64(&mut s, Some(self.wall_ms));
        s.push('}');
        s
    }
}

fn push_opt_u64(s: &mut String, v: Option<u64>) {
    match v {
        Some(v) => s.push_str(&v.to_string()),
        None => s.push_str("null"),
    }
}

fn push_opt_f64(s: &mut String, v: Option<f64>) {
    match v {
        Some(v) if v.is_finite() => {
            // Two fractional digits keep the trajectory diffable; Display
            // would emit full shortest-roundtrip noise.
            s.push_str(&format!("{v:.2}"));
        }
        _ => s.push_str("null"),
    }
}

/// Renders a full suite as a JSON array, one record per line.
pub fn to_json_array(records: &[BenchRecord]) -> String {
    let mut s = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        s.push_str("  ");
        s.push_str(&r.to_json());
        if i + 1 < records.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("]\n");
    s
}

/// Times `iters` calls of `op` (after `iters/10` warm-up calls) and
/// returns `(ns_per_op, wall_ms)` for the timed region.
fn time_loop<F: FnMut(u64)>(iters: u64, mut op: F) -> (f64, f64) {
    for i in 0..(iters / 10).max(1) {
        op(i);
    }
    let start = Instant::now();
    for i in 0..iters {
        op(i);
    }
    let wall = start.elapsed().as_secs_f64();
    ((wall * 1e9) / iters as f64, wall * 1e3)
}

/// The paper-like workload every benchmark draws keys from.
fn workload(n: u16, domain: u32, seed: u64) -> ArrivalGen {
    ArrivalGen::new(
        WorkloadKind::Zipf { alpha: 0.4 },
        Partitioner::geographic(n, 0.8),
        domain,
        seed,
    )
}

/// Builds an `n`-node harness cluster, warms every router with a
/// Zipf workload (windows emulated so evictions flow into the summaries)
/// and periodic full-summary exchanges, then returns the cluster plus a
/// key schedule for the timed routing loop.
fn warmed_cluster(
    algorithm: Algorithm,
    n: u16,
    p: HarnessParams,
) -> (Vec<RouterHarness>, Vec<(StreamId, u32)>) {
    let mut cluster: Vec<RouterHarness> = (0..n)
        .map(|me| RouterHarness::new(algorithm, me, p))
        .collect();
    // Emulated per-node per-stream windows so local_update sees evictions.
    let mut windows: Vec<[VecDeque<u32>; 2]> =
        (0..n).map(|_| [VecDeque::new(), VecDeque::new()]).collect();
    let mut gen = workload(n, p.domain, p.seed ^ 0x6E17);
    let warm = u64::from(n) * (p.window as u64) * 4;
    let mut evicted = [0u32; 1];
    for step in 0..warm {
        let a = gen.next_arrival();
        let node = a.node as usize;
        let w = &mut windows[node][a.stream.index()];
        w.push_back(a.key);
        let ev: &[u32] = if w.len() > p.window {
            evicted[0] = w.pop_front().unwrap_or_default();
            &evicted
        } else {
            &[]
        };
        cluster[node].local_update(a.stream, a.key, ev);
        if (step + 1) % 512 == 0 {
            exchange_all(&mut cluster);
        }
    }
    exchange_all(&mut cluster);
    let keys: Vec<(StreamId, u32)> = (0..4096)
        .map(|_| {
            let a = gen.next_arrival();
            (a.stream, a.key)
        })
        .collect();
    (cluster, keys)
}

/// Full-summary exchange between every ordered node pair.
fn exchange_all(cluster: &mut [RouterHarness]) {
    for i in 0..cluster.len() {
        for j in 0..cluster.len() {
            if i == j {
                continue;
            }
            let (a, b) = if i < j {
                let (lo, hi) = cluster.split_at_mut(j);
                (&mut lo[i], &mut hi[0])
            } else {
                let (lo, hi) = cluster.split_at_mut(i);
                (&mut hi[0], &mut lo[j])
            };
            a.exchange_into(b);
        }
    }
}

/// Micro: steady-state `Router::route` ns/op for one strategy at size `n`.
pub fn bench_route(algorithm: Algorithm, n: u16, iters: u64) -> BenchRecord {
    let p = HarnessParams {
        n,
        window: 256,
        ..HarnessParams::default()
    };
    let (mut cluster, keys) = warmed_cluster(algorithm, n, p);
    let (ns, wall_ms) = time_loop(iters, |i| {
        let (stream, key) = keys[(i as usize) % keys.len()];
        let (peers, fallback) = cluster[0].route(stream, key);
        black_box((peers.len(), fallback));
    });
    BenchRecord {
        bench: "micro.route".into(),
        strategy: Some(algorithm.label()),
        n: Some(n),
        ns_per_op: Some(ns),
        tuples_per_sec: None,
        iters,
        wall_ms,
    }
}

/// Micro: `SlidingWindow::insert` at steady state (every insert evicts).
pub fn bench_window_insert(iters: u64) -> BenchRecord {
    let mut w = SlidingWindow::new(WindowSpec::count(1024));
    let keys = key_schedule(1 << 12, 0x11);
    let mut seq = 0u64;
    let (ns, wall_ms) = time_loop(iters, |i| {
        let key = keys[(i as usize) % keys.len()];
        let evicted = w.insert(Tuple::new(StreamId::R, key, seq, 0), seq);
        black_box(evicted.len());
        seq += 1;
    });
    record_micro("micro.window_insert", ns, iters, wall_ms)
}

/// Micro: `SlidingWindow::probe` against a full 1024-tuple window.
pub fn bench_window_probe(iters: u64) -> BenchRecord {
    let mut w = SlidingWindow::new(WindowSpec::count(1024));
    let keys = key_schedule(1 << 12, 0x12);
    for (seq, &key) in keys.iter().take(2048).enumerate() {
        let seq = seq as u64;
        w.insert(Tuple::new(StreamId::R, key, seq, 0), seq);
    }
    let (ns, wall_ms) = time_loop(iters, |i| {
        black_box(w.probe(keys[(i as usize) % keys.len()]));
    });
    record_micro("micro.window_probe", ns, iters, wall_ms)
}

/// Micro: `SlidingDft::push` with `K = 16` maintained coefficients.
pub fn bench_sliding_dft_push(iters: u64) -> BenchRecord {
    let mut d = SlidingDft::new(1024, 16, ControlVector::never());
    let keys = key_schedule(1 << 12, 0x13);
    let (ns, wall_ms) = time_loop(iters, |i| {
        let x = f64::from(keys[(i as usize) % keys.len()]);
        black_box(d.push(x));
    });
    record_micro("micro.sliding_dft_push", ns, iters, wall_ms)
}

/// Micro: `PointDft::add` — the incremental coefficient update every
/// arrival performs (paper Eq. 7), `D = 4096`, `K = 16`.
pub fn bench_point_dft_add(iters: u64) -> BenchRecord {
    let mut d = PointDft::new(1 << 12, 16, ControlVector::never());
    let keys = key_schedule(1 << 12, 0x14);
    let (ns, wall_ms) = time_loop(iters, |i| {
        let idx = keys[(i as usize) % keys.len()] as usize;
        // Alternate add/remove so magnitudes stay bounded over long runs.
        d.add(idx, if i % 2 == 0 { 1.0 } else { -1.0 });
        black_box(d.updates());
    });
    record_micro("micro.point_dft_add", ns, iters, wall_ms)
}

/// Micro: counting-Bloom steady-state update (one insert + one remove,
/// emulating a window slide).
pub fn bench_bloom_update(iters: u64) -> BenchRecord {
    let mut f = CountingBloomFilter::with_size_bytes(256, 1024, 7);
    let keys = key_schedule(1 << 12, 0x15);
    let lag = 1024usize;
    for &key in keys.iter().take(lag) {
        f.insert(u64::from(key));
    }
    let (ns, wall_ms) = time_loop(iters, |i| {
        let i = i as usize;
        f.insert(u64::from(keys[(i + lag) % keys.len()]));
        f.remove(u64::from(keys[i % keys.len()]));
        black_box(&f);
    });
    record_micro("micro.bloom_update", ns, iters, wall_ms)
}

/// Micro: AGMS sketch steady-state update (add arriving key, retire the
/// evicted one).
pub fn bench_agms_update(iters: u64) -> BenchRecord {
    let mut s = AgmsSketch::with_size_bytes(256, 7);
    let keys = key_schedule(1 << 12, 0x16);
    let lag = 1024usize;
    for &key in keys.iter().take(lag) {
        s.update(u64::from(key), 1);
    }
    let (ns, wall_ms) = time_loop(iters, |i| {
        let i = i as usize;
        s.update(u64::from(keys[(i + lag) % keys.len()]), 1);
        s.update(u64::from(keys[i % keys.len()]), -1);
        black_box(s.updates());
    });
    record_micro("micro.agms_update", ns, iters, wall_ms)
}

/// Macro: end-to-end tuples/sec through `simnet` with paper-default
/// cluster parameters. Times build + inject + simulate-to-quiescence;
/// excludes workload generation and ground-truth accounting (runner-side
/// bookkeeping, not per-tuple system cost).
pub fn bench_macro_simnet(algorithm: Algorithm, n: u16, tuples: usize) -> BenchRecord {
    let cfg = ClusterConfig::new(n, algorithm).tuples(tuples);
    let arrivals = cfg.arrivals();
    let dt_us = cfg.interarrival_us();
    let start = Instant::now();
    let nodes: Vec<_> = (0..n)
        .map(|me| dsj_core::NodeEngine::new(cfg.build_node(me)))
        .collect();
    let mut sim = Simulation::new(nodes, cfg.link, cfg.seed ^ 0x51A1);
    for a in &arrivals {
        let t = SimTime::ZERO + SimDuration::from_micros(a.seq * dt_us);
        sim.inject_at(t, a.node, a.tuple());
    }
    sim.run_to_quiescence();
    let wall = start.elapsed().as_secs_f64();
    let mut matches = 0u64;
    for node in sim.iter_nodes() {
        matches ^= node.metrics().matches();
    }
    black_box(matches);
    BenchRecord {
        bench: "macro.simnet".into(),
        strategy: Some(algorithm.label()),
        n: Some(n),
        ns_per_op: Some(wall * 1e9 / tuples as f64),
        tuples_per_sec: Some(tuples as f64 / wall),
        iters: tuples as u64,
        wall_ms: wall * 1e3,
    }
}

/// Macro: end-to-end tuples/sec over real loopback TCP sockets (per-node
/// event loop, coalesced vectored writes), emitted as
/// `macro.tcp_reactor`. Throughput covers first arrival to quiescence;
/// socket setup is excluded.
pub fn bench_macro_tcp(algorithm: Algorithm, n: u16, tuples: usize) -> BenchRecord {
    let cfg = ClusterConfig::new(n, algorithm).tuples(tuples);
    let outcome = TcpCluster::run(&cfg)
        // dsj-lint: allow(panic) — a bench row without a cluster outcome is meaningless; aborting the suite (fd limit, port exhaustion) beats recording a lie
        .expect("tcp macro bench: cluster run failed (check `ulimit -n` for large N)");
    black_box(outcome.reported_matches);
    let wall = outcome.wall_time.as_secs_f64();
    BenchRecord {
        bench: "macro.tcp_reactor".into(),
        strategy: Some(algorithm.label()),
        n: Some(n),
        ns_per_op: Some(wall * 1e9 / tuples as f64),
        tuples_per_sec: Some(outcome.tuples_per_sec),
        iters: tuples as u64,
        wall_ms: wall * 1e3,
    }
}

/// Micro: ns per decoded message through [`FrameDecoder`], fed in
/// TCP-sized (1500-byte) chunks. `streaming = false` is the pre-PR-8
/// path — `feed` copies every chunk into the reassembly buffer, then
/// `next_msg` decodes out of it; `streaming = true` is `feed_decode`,
/// which decodes complete frames straight from the caller's chunk and
/// buffers only trailing partials. The pair is the before/after row for
/// the decode-allocation satellite.
pub fn bench_frame_decode(msgs_total: u64, streaming: bool) -> BenchRecord {
    let mut batch = FrameBatch::new();
    for i in 0..1024u64 {
        batch.push(&Msg::Tuple {
            tuple: Tuple::new(StreamId::R, (i % 509) as u32, i, 1),
            piggyback: Vec::new(),
        });
    }
    let chunks: Vec<&[u8]> = batch.bytes().chunks(1500).collect();
    let mut decoder = FrameDecoder::new();
    let mut count = 0u64;
    let start = Instant::now();
    while count < msgs_total {
        for chunk in &chunks {
            if streaming {
                decoder
                    .feed_decode(chunk, &mut |msg| {
                        black_box(msg.wire_bytes());
                        count += 1;
                        true
                    })
                    // dsj-lint: allow(panic) — the stream is self-encoded above; a decode error is a codec bug worth aborting on
                    .expect("valid stream");
            } else {
                decoder.feed(chunk);
                // dsj-lint: allow(panic) — the stream is self-encoded above; a decode error is a codec bug worth aborting on
                while let Some(msg) = decoder.next_msg().expect("valid stream") {
                    black_box(msg.wire_bytes());
                    count += 1;
                }
            }
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let bench = if streaming {
        "micro.frame_decode_stream"
    } else {
        "micro.frame_decode_feed"
    };
    record_micro(bench, wall * 1e9 / count as f64, count, wall * 1e3)
}

fn record_micro(bench: &str, ns: f64, iters: u64, wall_ms: f64) -> BenchRecord {
    BenchRecord {
        bench: bench.into(),
        strategy: None,
        n: None,
        ns_per_op: Some(ns),
        tuples_per_sec: None,
        iters,
        wall_ms,
    }
}

/// A deterministic Zipf key schedule shared by the primitive benches.
fn key_schedule(domain: u32, salt: u64) -> Vec<u32> {
    let mut gen = workload(2, domain, 42 ^ salt);
    (0..8192).map(|_| gen.next_arrival().key).collect()
}

/// Runs the full suite. `quick` cuts iteration counts ~10× for CI;
/// `only` keeps benchmarks whose id or strategy contains the substring.
pub fn run_suite(quick: bool, only: Option<&str>) -> Vec<BenchRecord> {
    let micro = if quick { 20_000 } else { 200_000 };
    let route_iters = if quick { 20_000 } else { 100_000 };
    let tuples = if quick { 4_000 } else { 20_000 };
    let strategies = [
        Algorithm::Base,
        Algorithm::Bloom,
        Algorithm::Sketch,
        Algorithm::Dft,
        Algorithm::Dftt,
    ];
    let mut records = Vec::new();
    let wanted = |bench: &str, strategy: Option<&str>| match only {
        Some(pat) => bench.contains(pat) || strategy.is_some_and(|s| s.contains(pat)),
        None => true,
    };
    for n in [4u16, 16] {
        for algorithm in strategies {
            if wanted("micro.route", Some(algorithm.label())) {
                records.push(bench_route(algorithm, n, route_iters));
            }
        }
    }
    type PrimitiveBench = fn(u64) -> BenchRecord;
    let primitives: [(&str, PrimitiveBench); 6] = [
        ("micro.window_insert", bench_window_insert),
        ("micro.window_probe", bench_window_probe),
        ("micro.sliding_dft_push", bench_sliding_dft_push),
        ("micro.point_dft_add", bench_point_dft_add),
        ("micro.bloom_update", bench_bloom_update),
        ("micro.agms_update", bench_agms_update),
    ];
    for (name, bench) in primitives {
        if wanted(name, None) {
            records.push(bench(micro));
        }
    }
    if wanted("micro.frame_decode_feed", None) {
        records.push(bench_frame_decode(micro, false));
    }
    if wanted("micro.frame_decode_stream", None) {
        records.push(bench_frame_decode(micro, true));
    }
    for n in [4u16, 16, 32] {
        for algorithm in strategies {
            if wanted("macro.simnet", Some(algorithm.label())) {
                records.push(bench_macro_simnet(algorithm, n, tuples));
            }
        }
    }
    // Live TCP macro rows as (N, schedule divisor): BASE (broadcast,
    // message bound) and DFTT (summary bound) bracket the traffic shapes;
    // the pair topology (N(N−1)/2 sockets) keeps N=128 inside typical fd
    // limits.
    let tcp_cells: &[(u16, usize)] = if quick {
        &[(4, 1), (16, 1)]
    } else {
        &[(4, 1), (16, 1), (32, 1), (64, 2), (128, 4)]
    };
    for &(n, shrink) in tcp_cells {
        for algorithm in [Algorithm::Base, Algorithm::Dftt] {
            if wanted("macro.tcp_reactor", Some(algorithm.label())) {
                records.push(bench_macro_tcp(algorithm, n, tuples / shrink));
            }
        }
    }
    records
}
