//! Runs the distributed join over real loopback TCP sockets.
//!
//! ```text
//! cargo run --release -p dsj-runtime --example live_tcp -- [N] [TUPLES] [ALGO] [PACING]
//! ```
//!
//! `N` defaults to 4 nodes, `TUPLES` to 20 000, `ALGO` to `dftt`
//! (one of `base|dft|dftt|bloom|sketch`), `PACING` to `freerun`
//! (`lockstep` drains the cluster between arrivals and reproduces the
//! deterministic simulation's results exactly). Large `N` needs a
//! matching fd limit; see the README's "large clusters" note.
//!
//! Besides the join's result it prints the bytes per tuple the engines
//! charged, the write and read syscalls and latch parks per tuple, and the
//! probes that trailed their destination's window past its grace, and
//! exits 1 when that byte count differs from the frame bytes the
//! sockets' write queues took (the byte model must be what the wire
//! carries) or when any probe was late (the closed loop's cap must keep
//! every probe within its window's grace).

use dsj_core::{Algorithm, ClusterConfig};
use dsj_runtime::{Pacing, TcpCluster, TransportStats};
use dsj_stream::gen::WorkloadKind;

fn usage() -> ! {
    eprintln!("usage: live_tcp [N] [TUPLES] [base|dft|dftt|bloom|sketch] [freerun|lockstep]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: u16 = args
        .first()
        .map_or(Ok(4), |s| s.parse())
        .unwrap_or_else(|_| usage());
    let tuples: usize = args
        .get(1)
        .map_or(Ok(20_000), |s| s.parse())
        .unwrap_or_else(|_| usage());
    let algorithm = match args.get(2).map(String::as_str) {
        None | Some("dftt") => Algorithm::Dftt,
        Some("base") => Algorithm::Base,
        Some("dft") => Algorithm::Dft,
        Some("bloom") => Algorithm::Bloom,
        Some("sketch") => Algorithm::Sketch,
        Some(_) => usage(),
    };
    let pacing = match args.get(3).map(String::as_str) {
        None | Some("freerun") => Pacing::Freerun,
        Some("lockstep") => Pacing::Lockstep,
        Some(_) => usage(),
    };
    if args.len() > 4 {
        usage();
    }

    let cfg = ClusterConfig::new(n, algorithm)
        .window(512)
        .domain(1 << 10)
        .tuples(tuples)
        .workload(WorkloadKind::Zipf { alpha: 0.4 })
        .seed(1);
    match TcpCluster::run_paced(&cfg, pacing) {
        Ok(outcome) => {
            let t = &outcome.totals;
            let charged = t.data_bytes_sent + t.overhead_bytes_sent;
            let sum = |of: fn(&TransportStats) -> u64| -> u64 {
                outcome.transport_per_node.iter().map(of).sum()
            };
            let on_sockets = sum(|t| t.bytes_sent);
            let per_tuple = |of| sum(of) as f64 / tuples as f64;
            println!(
                "{algorithm} over TCP: {n} nodes x {tuples} tuples ({pacing:?})\n\
                 matches {}/{} (epsilon {:.4}), {} messages, {:.0} tuples/s in {:.2?}\n\
                 {:.2} bytes per tuple ({charged} charged, {on_sockets} on the sockets), {} late probes\n\
                 per tuple: {:.3} writes, {:.3} reads, {:.3} latch parks",
                outcome.reported_matches,
                outcome.truth_matches,
                outcome.epsilon,
                outcome.messages,
                outcome.tuples_per_sec,
                outcome.wall_time,
                charged as f64 / tuples as f64,
                t.late_probes,
                per_tuple(|t| t.write_syscalls),
                per_tuple(|t| t.read_syscalls),
                per_tuple(|t| t.reactor_wakeups),
            );
            if charged != on_sockets {
                eprintln!("live_tcp failed: the byte model charged {charged} bytes, the sockets took {on_sockets}");
                std::process::exit(1);
            }
            if t.late_probes > 0 {
                eprintln!(
                    "live_tcp failed: {} probes trailed past their window's grace",
                    t.late_probes
                );
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("live_tcp failed: {e}");
            std::process::exit(1);
        }
    }
}
