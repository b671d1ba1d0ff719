//! The traced pass: the workload's schedule taken through every layer on
//! its own — primitives, router, the staged replay over three pipes with
//! spans at each boundary, simnet, the channel backend and the reactor —
//! so that each layer has a number and the numbers add up to the
//! end-to-end figure with a named residual.

use crate::gate;
use crate::host::process_cpu_seconds;
use crate::stats::median;
use crate::system::{self, Cluster, Feed, Live, Pipe, Replay, Run};
use crate::trace::{layer_totals, spans_to_jsonl, Layer, LayerTotal, NoTrace, Tracer};
use crate::workload::{Backend, Better, Effort, Workload, ABORT_BACKLOG};
use std::path::Path;
use std::time::{Duration, Instant};

/// A per-layer metric: no bound, only a direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Every per-layer metric, in report order. `BENCHMARK.json` lists the
/// same table.
pub const PER_LAYER: [PerLayer; 38] = [
    lower("stream.gen.ns_per_tuple", "ns"),
    lower("stream.join.truth_ns_per_tuple", "ns"),
    lower("stream.window.insert_ns", "ns"),
    lower("stream.window.probe_ns", "ns"),
    lower("stream.window.probes_per_tuple", "count"),
    lower("dft.point_add_ns", "ns"),
    lower("sketch.agms.update_ns", "ns"),
    lower("core.strategy.route_ns", "ns"),
    lower("core.strategy.local_update_ns", "ns"),
    lower("core.strategy.fanout", "count"),
    lower("core.strategy.fallback_share", "ratio"),
    lower("core.strategy.summary_msgs_per_tuple", "count"),
    lower("core.strategy.overhead_byte_share", "ratio"),
    lower("core.engine.arrival_self_ns", "ns"),
    lower("core.engine.net_self_ns", "ns"),
    lower("core.engine.staged_ns_per_tuple", "ns"),
    lower("core.wire.encode_ns_per_msg", "ns"),
    lower("core.wire.decode_ns_per_msg", "ns"),
    lower("core.wire.bytes_per_msg", "bytes"),
    lower("simnet.inject_ns_per_tuple", "ns"),
    lower("simnet.events_per_tuple", "count"),
    lower("simnet.overhead_ns_per_tuple", "ns"),
    lower("runtime.harness.inject_lag_ms", "ms"),
    lower("runtime.harness.peak_backlog", "count"),
    lower("runtime.harness.overloaded_runs", "count"),
    lower("runtime.harness.p50_delivery_us", "us"),
    lower("runtime.harness.p99_delivery_us", "us"),
    higher("runtime.cluster.tuples_per_s", "1/s"),
    lower("runtime.cluster.cpu_us_per_tuple", "us"),
    lower("runtime.reactor.vs_threads_ratio", "ratio"),
    higher("runtime.reactor.frames_per_syscall", "count"),
    lower("runtime.reactor.syscalls_per_tuple", "count"),
    lower("runtime.reactor.wakeups_per_frame", "count"),
    lower("runtime.reactor.pending_peak_bytes", "bytes"),
    lower("runtime.reactor.cpu_us_per_tuple", "us"),
    lower("runtime.reactor.sock_ns_per_msg", "ns"),
    lower("runtime.reactor.residual_us_per_tuple", "us"),
    lower("trace.overhead_ratio", "ratio"),
];

/// The per-layer result of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerResult {
    pub workload: &'static str,
    pub tuples: u64,
    pub failures: Vec<String>,
    /// One value per entry of [`PER_LAYER`], in that order.
    pub values: Vec<f64>,
    /// The layer budget, rendered.
    pub table: String,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One pipe's replays: the untraced wall time, and the traced replay's
/// per-layer self times deflated to it.
struct Staged {
    replay: Replay,
    /// Untraced nanoseconds per tuple: the floor.
    floor_ns: f64,
    /// Traced over untraced wall time.
    overhead: f64,
    /// Self nanoseconds per tuple of each layer, scaled by 1 / overhead so
    /// that, with `loop_ns`, they sum to `floor_ns`.
    self_ns: [f64; 7],
    counts: [u64; 7],
    /// What the traced replay spent outside every span (the replay loop
    /// and the recording itself), scaled the same way.
    loop_ns: f64,
}

/// Replays the schedule over `pipe` untraced and traced, `rounds` times
/// each, and keeps the medians. Counters of every replay must equal
/// `expect` (the first replay's), or a failure is recorded: recall is then
/// identical traced and untraced, on every pipe.
fn staged(
    cluster: &Cluster,
    pipe: Pipe,
    rounds: usize,
    expect: &mut Option<Replay>,
    failures: &mut Vec<String>,
    spans_out: Option<&Path>,
) -> Option<Staged> {
    let tuples = cluster.tuples() as f64;
    let mut floors = Vec::new();
    let mut traced_walls = Vec::new();
    let mut totals_per_round: Vec<[LayerTotal; 7]> = Vec::new();
    let mut check = |label: &str, replay: Replay, failures: &mut Vec<String>| -> Replay {
        match expect {
            None => *expect = Some(replay.clone()),
            Some(first) => {
                if first.counts != replay.counts || first.msgs != replay.msgs {
                    failures.push(format!(
                        "staged replay {pipe:?} {label}: counters differ from the first replay \
                         (reported {} vs {})",
                        replay.counts.reported, first.counts.reported
                    ));
                }
            }
        }
        replay
    };
    let mut last = None;
    for round in 0..rounds {
        let untraced = match system::staged_replay(cluster, pipe, &mut NoTrace) {
            Ok(r) => check("untraced", r, failures),
            Err(e) => {
                failures.push(format!("staged replay {pipe:?}: {e}"));
                return None;
            }
        };
        floors.push(untraced.wall.as_nanos() as f64 / tuples);
        let mut tracer = Tracer::new();
        let traced = match system::staged_replay(cluster, pipe, &mut tracer) {
            Ok(r) => check("traced", r, failures),
            Err(e) => {
                failures.push(format!("staged replay {pipe:?} traced: {e}"));
                return None;
            }
        };
        traced_walls.push(traced.wall.as_nanos() as f64 / tuples);
        let totals = layer_totals(tracer.spans());
        totals_per_round.push(totals);
        if round == 0 {
            if let Some(path) = spans_out {
                // Written once per pipe, when the replay has ended.
                let file = path.with_extension(format!("{pipe:?}.jsonl").to_lowercase());
                if let Err(e) = std::fs::write(&file, spans_to_jsonl(tracer.spans())) {
                    failures.push(format!("writing {}: {e}", file.display()));
                }
            }
        }
        last = Some(untraced);
    }
    let floor_ns = median(&floors);
    let traced_ns = median(&traced_walls);
    let overhead = ratio(traced_ns, floor_ns);
    let mut self_ns = [0.0; 7];
    let mut counts = [0u64; 7];
    for layer in Layer::ALL {
        let i = layer as usize;
        let per_round: Vec<f64> = totals_per_round
            .iter()
            .map(|t| t[i].self_ns as f64 / tuples)
            .collect();
        self_ns[i] = ratio(median(&per_round), overhead);
        counts[i] = totals_per_round[0][i].count;
    }
    // Whatever the medians leave over is the loop's: the lines then sum
    // to the floor exactly.
    let loop_ns = floor_ns - self_ns.iter().sum::<f64>();
    Some(Staged {
        replay: last?,
        floor_ns,
        overhead,
        self_ns,
        counts,
        loop_ns,
    })
}

/// A live run with the process CPU time of its timed region: the CPU of
/// the whole call less the call's single-threaded set-up and teardown.
struct LiveSample {
    run: Run,
    cpu_us_per_tuple: f64,
}

fn live(
    cluster: &Cluster,
    backend: Live,
    feed: Feed,
    failures: &mut Vec<String>,
) -> Option<LiveSample> {
    let cpu_before = process_cpu_seconds();
    let start = Instant::now();
    let run = system::run_live(cluster, backend, feed);
    let call = start.elapsed();
    let cpu_after = process_cpu_seconds();
    match run {
        Err(e) => {
            failures.push(format!("traced pass {backend:?} {feed:?}: {e}"));
            None
        }
        Ok(run) => {
            let setup = call.saturating_sub(run.timed).as_secs_f64();
            let cpu = match (cpu_before, cpu_after) {
                (Some(a), Some(b)) => (b - a - setup).max(0.0),
                _ => 0.0,
            };
            let cpu_us_per_tuple = cpu * 1e6 / run.injected.max(1) as f64;
            Some(LiveSample {
                run,
                cpu_us_per_tuple,
            })
        }
    }
}

fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// Runs the traced pass of one workload.
///
/// The reference join always checks the schedule's ground truth; the
/// lockstep checks run when `lockstep` says so (a full run has already
/// made them in its end-to-end half).
pub fn traced_pass(
    w: &Workload,
    seed: u64,
    effort: Effort,
    lockstep: bool,
    spans_out: Option<&Path>,
) -> LayerResult {
    let quick = effort.quick;
    let tuples = w.tuples(quick);
    let rounds = if quick { 1 } else { 3 };
    let per_tuple = |d: Duration| d.as_nanos() as f64 / tuples as f64;
    let mut failures = Vec::new();

    let (schedule, gen) = time(|| system::schedule(w.skew, w.n, tuples, seed));
    let cluster = Cluster::new(w.alg, w.n, seed, &schedule);
    let (truth, truth_time) = time(|| cluster.truth_matches());
    gate::check_truth(
        &mut failures,
        &schedule,
        &cluster,
        truth,
        effort.reference_window,
    );
    if lockstep {
        gate::check_lockstep(&mut failures, &schedule, w.n, seed, quick);
    }
    let primitives = system::primitive_costs(&schedule, seed);
    let router = system::router_costs(w.alg, w.n, seed, &schedule);

    let mut expect = None;
    let mut pipe = |pipe| {
        staged(
            &cluster,
            pipe,
            rounds,
            &mut expect,
            &mut failures,
            spans_out,
        )
    };
    let (null, codec, socket) = (pipe(Pipe::Null), pipe(Pipe::Codec), pipe(Pipe::Socket));
    let (Some(null), Some(codec), Some(socket)) = (null, codec, socket) else {
        return LayerResult {
            workload: w.name,
            tuples: tuples as u64,
            failures,
            values: vec![0.0; PER_LAYER.len()],
            table: String::new(),
        };
    };
    let counts = &null.replay.counts;
    let t = tuples as f64;
    let msgs = null.replay.msgs as f64;

    let sims: Vec<Run> = (0..rounds)
        .map(|_| system::run_sim(&cluster, truth))
        .collect();
    let sim_ns = median(&sims.iter().map(|r| per_tuple(r.timed)).collect::<Vec<_>>());
    let sim_inject_ns = median(
        &sims
            .iter()
            .map(|r| per_tuple(r.sim_inject))
            .collect::<Vec<_>>(),
    );
    let sim_events = sims[0].sim_events as f64;

    let mut lives = |backend, feed| -> Vec<LiveSample> {
        (0..rounds)
            .filter_map(|_| live(&cluster, backend, feed, &mut failures))
            .collect()
    };
    let channels = lives(Live::Channels, Feed::Freerun);
    let reactor = lives(Live::Reactor, Feed::Freerun);
    let open = lives(
        Live::Reactor,
        Feed::Open {
            rate_tps: w.probe_rate_tps,
            abort_backlog: ABORT_BACKLOG,
        },
    );
    let med = |samples: &[LiveSample], f: &dyn Fn(&LiveSample) -> f64| {
        median(&samples.iter().map(f).collect::<Vec<_>>())
    };
    let tps = |s: &LiveSample| s.run.injected as f64 / s.run.timed.as_secs_f64().max(1e-9);
    let channels_tps = med(&channels, &tps);
    let reactor_tps = med(&reactor, &tps);
    let reactor_cpu_us = med(&reactor, &|s| s.cpu_us_per_tuple);
    let sockets = |f: &dyn Fn(&Run) -> f64| med(&reactor, &|s| f(&s.run));
    let inject_lag_ms = med(&open, &|s| {
        let scheduled = (s.run.injected.saturating_sub(1)) as f64 / w.probe_rate_tps;
        (s.run.timed.as_secs_f64() - scheduled) * 1e3
    });

    let staged_socket_us = socket.floor_ns / 1e3;
    let residual_us = reactor_cpu_us - staged_socket_us;
    let sim_overhead_ns = sim_ns - null.floor_ns;

    let values = vec![
        per_tuple(gen),
        per_tuple(truth_time),
        primitives.window_insert_ns,
        primitives.window_probe_ns,
        ratio((counts.arrivals + counts.tuples_received) as f64, t),
        primitives.point_dft_add_ns,
        primitives.agms_update_ns,
        router.route_ns,
        router.local_update_ns,
        ratio(counts.tuple_msgs as f64, t),
        ratio(counts.fallback_routes as f64, t),
        ratio(counts.summary_msgs as f64, t),
        ratio(counts.overhead_bytes as f64, counts.bytes() as f64),
        null.self_ns[Layer::EngineArrival as usize],
        ratio(null.self_ns[Layer::EngineNet as usize] * t, msgs),
        null.floor_ns,
        ratio(codec.self_ns[Layer::WireEncode as usize] * t, msgs),
        ratio(codec.self_ns[Layer::WireDecode as usize] * t, msgs),
        ratio(codec.replay.bytes as f64, msgs),
        sim_inject_ns,
        ratio(sim_events, t),
        sim_overhead_ns,
        inject_lag_ms,
        med(&open, &|s| s.run.peak_backlog as f64),
        open.iter().filter(|s| s.run.overloaded).count() as f64,
        med(&open, &|s| s.run.latency.map_or(0.0, |l| l.p50_us)),
        med(&open, &|s| s.run.latency.map_or(0.0, |l| l.p99_us)),
        channels_tps,
        med(&channels, &|s| s.cpu_us_per_tuple),
        ratio(channels_tps, reactor_tps),
        sockets(&|r| {
            ratio(
                r.sockets.frames_sent as f64,
                r.sockets.write_syscalls as f64,
            )
        }),
        sockets(&|r| ratio(r.sockets.write_syscalls as f64, r.injected as f64)),
        sockets(&|r| {
            ratio(
                r.sockets.reactor_wakeups as f64,
                r.sockets.frames_sent as f64,
            )
        }),
        sockets(&|r| r.sockets.pending_peak_bytes as f64),
        reactor_cpu_us,
        ratio(
            (socket.self_ns[Layer::SockWrite as usize] + socket.self_ns[Layer::SockRead as usize])
                * t,
            msgs,
        ),
        residual_us,
        null.overhead,
    ];
    debug_assert_eq!(values.len(), PER_LAYER.len());

    let table = match w.backend {
        Backend::Sim => budget_table(
            w.name,
            "null",
            &null,
            t,
            "simnet.overhead",
            sim_overhead_ns,
            "simnet wall time",
            sim_ns,
        ),
        Backend::TcpClosed | Backend::TcpOpen { .. } => budget_table(
            w.name,
            "socket",
            &socket,
            t,
            "runtime.reactor.residual",
            residual_us * 1e3,
            "reactor process CPU",
            reactor_cpu_us * 1e3,
        ),
    };
    LayerResult {
        workload: w.name,
        tuples: tuples as u64,
        failures,
        values,
        table,
    }
}

/// The layer budget: the staged replay's self times (deflated to the
/// untraced replay), the replay loop, and the residual that brings them to
/// the measured per-tuple total.
#[allow(clippy::too_many_arguments)]
fn budget_table(
    workload: &str,
    pipe: &str,
    staged: &Staged,
    tuples: f64,
    residual_name: &str,
    residual_ns: f64,
    total_name: &str,
    total_ns: f64,
) -> String {
    let mut out = format!(
        "layer budget of {workload}, ns per tuple ({pipe}-pipe staged replay, traced self times \
         deflated by the tracing overhead x{:.2})\n  {:<28}{:>14}{:>14}{:>9}\n",
        staged.overhead, "layer", "spans/tuple", "self ns/tuple", "share"
    );
    let mut line = |name: &str, spans: Option<f64>, ns: f64| {
        let spans = spans.map_or(String::new(), |s| format!("{s:.3}"));
        out.push_str(&format!(
            "  {name:<28}{spans:>14}{ns:>14.1}{:>8.1}%\n",
            100.0 * ratio(ns, total_ns)
        ));
    };
    for layer in Layer::ALL {
        let i = layer as usize;
        if staged.counts[i] > 0 {
            line(
                layer.name(),
                Some(staged.counts[i] as f64 / tuples),
                staged.self_ns[i],
            );
        }
    }
    line("replay.loop", None, staged.loop_ns);
    line(residual_name, None, residual_ns);
    line(&format!("= {total_name}"), None, total_ns);
    out
}
