//! Double-run determinism: the same seeded experiment must produce
//! byte-identical *stable* metrics JSONL (the phase-free projection —
//! wall-clock phase timers legitimately differ per run) no matter how
//! many worker threads fan the cells out — and the allocation-free flow
//! filter must stay in lockstep with its allocating reference
//! transcription.

use dsj_bench::{figures, suite::Executor, Scale};
use dsj_core::hotpath::{HarnessParams, RouterHarness};
use dsj_core::{obs, Algorithm};
use dsj_stream::gen::Scenario;
use dsj_stream::StreamId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Fig. 8's rows and what it emitted: one stable (phase-free) line per
/// registry, in emission order. Folding them into the experiment's record
/// is `repro`'s job, pinned by its unit test and the binary-level test below.
fn fig8_stable_lines(jobs: usize) -> (Vec<figures::Fig8Row>, Vec<String>) {
    let (rows, regs) = obs::captured(|| figures::fig8(Scale::Quick, &Executor::new(jobs)));
    let lines = (0..)
        .zip(regs)
        .map(|(index, registry)| {
            let cell = obs::ExperimentRecord {
                index,
                label: "fig8".to_string(),
                runs: 1,
                registry,
            };
            cell.to_stable_json_line()
        })
        .collect();
    (rows.expect("fig8 runs"), lines)
}

#[test]
fn stable_metrics_identical_across_reruns_and_worker_counts() {
    let (rows_a, lines_a) = fig8_stable_lines(1);
    let (rows_b, lines_b) = fig8_stable_lines(1);
    let (rows_p, lines_p) = fig8_stable_lines(4);
    assert_eq!(lines_a.len(), 2, "fig8 must emit one registry per cell");
    assert_eq!(rows_a, rows_b, "serial reruns must reproduce the figure");
    assert_eq!(rows_a, rows_p, "parallel must reproduce the serial figure");
    assert_eq!(
        lines_a, lines_b,
        "serial rerun JSONL must be byte-identical"
    );
    assert_eq!(lines_a, lines_p, "parallel JSONL must match serial bytes");
}

/// End-to-end via the binary: two `repro --metrics-out` invocations write
/// JSONL whose stable projections are byte-identical, across worker counts.
#[test]
fn repro_metrics_out_is_deterministic() {
    let bin = env!("CARGO_BIN_EXE_repro");
    let dir = std::env::temp_dir();
    let run = |jobs: &str, name: &str| -> Vec<String> {
        let path = dir.join(name);
        let status = std::process::Command::new(bin)
            .args(["fig8", "--jobs", jobs, "--metrics-out"])
            .arg(&path)
            .env("DSJOIN_SCALE", "quick")
            .stdout(std::process::Stdio::null())
            .status()
            .expect("run repro");
        assert!(status.success());
        let text = std::fs::read_to_string(&path).expect("read metrics");
        let _ = std::fs::remove_file(&path);
        // The stable projection, textually: `"phases":{…},` is written
        // just before `"counters"`.
        text.lines()
            .map(|l| {
                let start = l.find("\"phases\":{").expect("phases object");
                let end = l.find("\"counters\":").expect("counters object");
                format!("{}{}", &l[..start], &l[end..])
            })
            .collect()
    };
    let serial = run("1", "dsj-metrics-serial.jsonl");
    let rerun = run("1", "dsj-metrics-rerun.jsonl");
    let parallel = run("4", "dsj-metrics-parallel.jsonl");
    assert!(!serial.is_empty());
    assert_eq!(serial, rerun);
    assert_eq!(serial, parallel);
}

/// Full-summary exchange between every ordered pair of harnesses.
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

/// `(node, stream, key)` per step of one lockstep drive. The uniform drive
/// keeps the routers mostly in their worst case (over half the DFT-family
/// and BLOOM routes are the round-robin fallback, and almost none picks
/// more than one peer); the skewed one — `Scenario::Steady`: Zipf 0.4 keys,
/// 0.8 locality — is what exercises membership hits, the residual budget
/// and the explore draw.
fn drive(skewed: bool, p: HarnessParams, steps: usize) -> Vec<(usize, StreamId, u32)> {
    if skewed {
        return Scenario::Steady
            .arrivals(p.n, p.domain, steps, 0.8, p.seed)
            .iter()
            .map(|a| (usize::from(a.node), a.stream, a.key))
            .collect();
    }
    let mut rng = StdRng::seed_from_u64(p.seed ^ 0xD21F7);
    (0..steps)
        .map(|_| {
            let node = (rng.gen::<u64>() % u64::from(p.n)) as usize;
            let stream = if rng.gen_bool(0.5) {
                StreamId::R
            } else {
                StreamId::S
            };
            (
                node,
                stream,
                (rng.gen::<u64>() % u64::from(p.domain)) as u32,
            )
        })
        .collect()
}

/// The allocation-free flow filter must never diverge from its allocating
/// reference transcription: two identically-built clusters — one routed
/// through `route`, one through `route_reference` — are driven in
/// lockstep through seeded arrivals, window evictions and summary
/// exchanges, and every routing decision must match exactly (same peers,
/// same fallback flag). Because both paths consume the same RNG draws,
/// one divergence would cascade — so agreement over thousands of tuples
/// across every strategy, two cluster sizes and two key distributions is
/// a strong equivalence proof.
#[test]
fn optimized_route_matches_reference_in_lockstep() {
    for skewed in [false, true] {
        for algorithm in Algorithm::ALL {
            for n in [3u16, 5] {
                let p = HarnessParams {
                    n,
                    domain: 1 << 10,
                    kappa: 64,
                    window: 128,
                    seed: 0xA11CE,
                };
                let mut opt: Vec<RouterHarness> = (0..n)
                    .map(|me| RouterHarness::new(algorithm, me, p))
                    .collect();
                let mut reference: Vec<RouterHarness> = (0..n)
                    .map(|me| RouterHarness::new(algorithm, me, p))
                    .collect();
                // Shared emulated windows: both clusters must see identical
                // arrival + eviction streams.
                let mut windows: Vec<[VecDeque<u32>; 2]> =
                    (0..n).map(|_| [VecDeque::new(), VecDeque::new()]).collect();
                let schedule = drive(skewed, p, usize::from(n) * 128 * 6);
                for (step, &(node, stream, key)) in schedule.iter().enumerate() {
                    let w = &mut windows[node][stream.index()];
                    w.push_back(key);
                    let evicted: Vec<u32> = if w.len() > p.window {
                        vec![w.pop_front().unwrap_or(0)]
                    } else {
                        Vec::new()
                    };
                    opt[node].local_update(stream, key, &evicted);
                    reference[node].local_update(stream, key, &evicted);
                    if (step + 1) % 256 == 0 {
                        exchange_all(&mut opt);
                        exchange_all(&mut reference);
                    }
                    let (ref_peers, ref_fallback) = reference[node].route_reference(stream, key);
                    let (opt_peers, opt_fallback) = opt[node].route(stream, key);
                    assert_eq!(
                        (opt_peers, opt_fallback),
                        (ref_peers.as_slice(), ref_fallback),
                        "{algorithm:?} n={n} skewed={skewed} diverged at step {step} (node {node}, {stream:?}, key {key})"
                    );
                }
            }
        }
    }
}
