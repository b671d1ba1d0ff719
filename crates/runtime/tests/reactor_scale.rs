//! Reactor scaling guarantees that the unit tests can't see:
//! cluster-level thread accounting (O(N), not O(N²)) and quiescence
//! under sustained backpressure.

use dsj_core::{Algorithm, ClusterConfig};
use dsj_runtime::TcpCluster;
use dsj_stream::gen::WorkloadKind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

fn cfg(n: u16, tuples: usize) -> ClusterConfig {
    ClusterConfig::new(n, Algorithm::Base)
        .window(64)
        .domain(1 << 9)
        .tuples(tuples)
        .workload(WorkloadKind::Zipf { alpha: 0.4 })
        .seed(13)
}

/// The process's thread count is global state: the test that budgets it
/// must not overlap the other test's cluster.
static ONE_CLUSTER_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Current thread count of this process, from `/proc/self/status`.
/// Linux-only by construction; the whole suite targets the Linux CI box.
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

#[test]
fn reactor_thread_count_is_linear_in_n() {
    let _alone = ONE_CLUSTER_AT_A_TIME
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let n: u16 = 32;
    // A reader thread per link would add 32·31 = 992 threads on top of the
    // node threads at n=32. The budget is: n node threads (each reads its
    // own sockets; there is no reader pool) + the feeder, which is this
    // thread and also opens every link: set-up spawns no thread.
    // Assert the peak stays within n + 8 extra threads over the pre-run
    // baseline — room for the sampler and the test harness, an order of
    // magnitude below O(N²).
    let baseline = thread_count();
    let done = Arc::new(AtomicBool::new(false));
    let sampler = {
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let mut peak = 0usize;
            while !done.load(Ordering::SeqCst) {
                peak = peak.max(thread_count());
                thread::sleep(Duration::from_millis(1));
            }
            peak
        })
    };
    let outcome = TcpCluster::run(&cfg(n, 4_000)).expect("tcp n=32");
    done.store(true, Ordering::SeqCst);
    let peak = sampler.join().expect("sampler");
    assert!(outcome.reported_matches > 0);
    let budget = baseline + n as usize + 8;
    assert!(
        peak <= budget,
        "thread peak {peak} exceeds O(N) budget {budget} (baseline {baseline})"
    );
}

#[test]
fn freerun_reactor_survives_bursty_backpressure() {
    let _alone = ONE_CLUSTER_AT_A_TIME
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    // Broadcast (Base) at n=8 on a contended host: node threads are
    // constantly descheduled mid-stream, so every peer takes turns being
    // the slow reader while others keep writing. Quiescence must still
    // complete — parked bytes stay counted until the receiving engine
    // processes them, so the drain loop cannot be fooled — and the join
    // must stay exact: backpressure delays delivery, never drops it, and
    // the in-flight cap keeps every probe within its window's grace.
    let outcome = TcpCluster::run(&cfg(8, 8_000)).expect("reactor n=8 freerun");
    assert_eq!(
        (outcome.reported_matches, outcome.totals.late_probes),
        (outcome.truth_matches, 0),
        "eps {}",
        outcome.epsilon
    );
    let frames: u64 = outcome
        .transport_per_node
        .iter()
        .map(|t| t.frames_sent)
        .sum();
    assert_eq!(frames, outcome.messages, "no frame lost or double-counted");
}
