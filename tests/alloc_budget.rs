//! The per-tuple path's heap-allocation budget, measured.
//!
//! A counting [`GlobalAlloc`] (this test is its own crate, so the
//! `unsafe impl` touches no `#![forbid(unsafe_code)]`) counts `alloc` and
//! `realloc` calls per thread while the five algorithms run the
//! paper-default schedule (N = 16, W = 1024, D = 4096, κ = 256, Zipf 0.4,
//! locality 0.8, seed 7) through [`RouterHarness`], [`SlidingWindow`] and
//! [`NodeEngine`]. The first half of every schedule is warm-up; the second
//! half is counted. Everything is single-threaded and seeded, so the
//! counts repeat exactly.
//!
//! What must not allocate is asserted at exactly zero. What does allocate
//! is pinned at the measured per-tuple value plus at most 15 % headroom,
//! with the cause named beside the budget — raise a budget only with the
//! new cause written next to it.

use dsjoin::core::hotpath::{HarnessParams, RouterHarness};
use dsjoin::core::{Algorithm, ClusterConfig, Msg, NodeEngine, Transport, TransportEvent};
use dsjoin::stream::gen::Arrival;
use dsjoin::stream::SlidingWindow;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::convert::Infallible;

const N: u16 = 16;
const SEED: u64 = 7;
/// Arrivals in the router and window schedules.
const ROUTER_TUPLES: usize = 200_000;
/// The router schedule ships every node's summaries to every peer this
/// often (`ClusterConfig::sync_arrival_interval`), uncounted.
const SYNC_EVERY: usize = 2048;
/// Arrivals in the whole-engine schedule.
const ENGINE_TUPLES: usize = 120_000;

thread_local! {
    /// Allocator calls made by this thread (tests run on parallel threads).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count_one() {
    // `try_with`: the allocator is still called while a thread's locals
    // are being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls this thread makes while `f` runs.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

fn config(algorithm: Algorithm, tuples: usize) -> ClusterConfig {
    ClusterConfig::new(N, algorithm).tuples(tuples).seed(SEED)
}

fn windows() -> Vec<[SlidingWindow; 2]> {
    let spec = config(Algorithm::Base, 1).window_spec();
    (0..N)
        .map(|_| [SlidingWindow::new(spec), SlidingWindow::new(spec)])
        .collect()
}

fn window_of<'a>(windows: &'a mut [[SlidingWindow; 2]], a: &Arrival) -> &'a mut SlidingWindow {
    &mut windows[usize::from(a.node)][a.stream as usize]
}

/// Asserts `budget / 1.15 <= measured <= budget`: at most 15 % of headroom
/// above the measurement, a budget that stopped being needed fails too,
/// and a budget of zero admits exactly zero.
fn assert_pinned(what: &str, measured: f64, budget: f64) {
    assert!(
        measured <= budget && measured * 1.15 >= budget,
        "{what}: measured {measured:.4} allocations per tuple, budget {budget}"
    );
}

#[test]
fn window_insert_never_allocates() {
    let schedule = config(Algorithm::Base, ROUTER_TUPLES).arrivals();
    let (warm, counted) = schedule.split_at(schedule.len() / 2);
    let mut windows = windows();
    for a in warm {
        window_of(&mut windows, a).insert(a.tuple(), a.seq);
    }
    let allocs = allocs_during(|| {
        for a in counted {
            window_of(&mut windows, a).insert(a.tuple(), a.seq);
        }
    });
    println!("SlidingWindow::insert: {allocs}");
    // A count window's slot ring and key index are sized at construction.
    assert_eq!(allocs, 0, "SlidingWindow::insert");
}

#[test]
fn router_updates_and_routes_never_allocate() {
    let schedule = config(Algorithm::Base, ROUTER_TUPLES).arrivals();
    // What each arrival evicts from its node's window, worked out ahead so
    // the counted loops hold router calls only.
    let mut windows = windows();
    let evicted: Vec<Option<u32>> = schedule
        .iter()
        .map(|a| {
            let w = window_of(&mut windows, a);
            w.insert(a.tuple(), a.seq);
            w.evicted_keys().first().copied()
        })
        .collect();
    let half = schedule.len() / 2;
    for algorithm in Algorithm::ALL {
        let params = HarnessParams {
            n: N,
            seed: SEED,
            ..HarnessParams::default()
        };
        let mut routers: Vec<RouterHarness> = (0..N)
            .map(|me| RouterHarness::new(algorithm, me, params))
            .collect();
        let (mut update_allocs, mut route_allocs) = (0u64, 0u64);
        for (i, (a, ev)) in schedule.iter().zip(&evicted).enumerate() {
            if i % SYNC_EVERY == 0 {
                exchange_all(&mut routers);
            }
            let router = &mut routers[usize::from(a.node)];
            let on_update = allocs_during(|| router.local_update(a.stream, a.key, ev.as_slice()));
            let on_route = allocs_during(|| {
                router.route(a.stream, a.key);
            });
            if i >= half {
                update_allocs += on_update;
                route_allocs += on_route;
            }
        }
        let per_route = route_allocs as f64 / (schedule.len() - half) as f64;
        println!(
            "{algorithm}: local_update {update_allocs}, route_into {route_allocs} = {per_route:.5} per route"
        );
        assert_eq!(update_allocs, 0, "{algorithm}: Router::local_update");
        assert_eq!(route_allocs, 0, "{algorithm}: Router::route_into");
    }
}

/// Ships every router's full summaries to every other router.
fn exchange_all(routers: &mut [RouterHarness]) {
    for i in 0..routers.len() {
        for j in 0..routers.len() {
            if i != j {
                let (src, dst) = if i < j {
                    let (lo, hi) = routers.split_at_mut(j);
                    (&mut lo[i], &mut hi[0])
                } else {
                    let (lo, hi) = routers.split_at_mut(i);
                    (&mut hi[0], &mut lo[j])
                };
                src.exchange_into(dst);
            }
        }
    }
}

/// A transport that queues sends for the test to deliver by hand.
struct Outbox {
    now_us: u64,
    sent: Vec<(u16, Msg)>,
}

impl Transport for Outbox {
    type Error = Infallible;
    fn send(&mut self, to: u16, msg: Msg) -> Result<(), Infallible> {
        self.sent.push((to, msg));
        Ok(())
    }
    fn poll(&mut self) -> Result<TransportEvent, Infallible> {
        Ok(TransportEvent::Shutdown)
    }
    fn now_us(&mut self) -> u64 {
        self.now_us
    }
    fn quiesce(&mut self) {}
}

#[test]
fn whole_engine_budgets_per_algorithm() {
    // (algorithm, on_arrival budget, on_net budget), allocations per
    // arrival. The window insert and the route allocate nothing (above),
    // so BASE's arrival is exactly zero and everything else is summary
    // traffic. `on_arrival`: DFT / DFTT build a tuple message's summary
    // payload — a piggyback's one-coefficient payload `Vec` and its update
    // list, or a `full_summaries` batch and one update list per changed
    // stream per peer per sync interval (the snapshot is overwritten in
    // place); BLOOM's and SKCH's `full_summaries` clone their two filters or
    // sketches per peer per sync interval, one allocation each (the
    // counters; the hash family is shared by `Arc`), plus the payload
    // `Vec`. `on_net` = applying a received summary: DFT coefficients,
    // Bloom filters and sketches all land in place once the first from a
    // peer is held, and every first arrives during warm-up.
    let budgets = [
        (Algorithm::Base, 0.0, 0.0),
        (Algorithm::Dft, 0.07, 0.0),
        (Algorithm::Dftt, 0.066, 0.0),
        // Was 0.05: a filter clone no longer copies its `k` hashes.
        (Algorithm::Bloom, 0.022, 0.0),
        // Was 0.035: a sketch clone no longer copies its coefficients.
        (Algorithm::Sketch, 0.023, 0.0),
    ];
    for (algorithm, arrival_budget, net_budget) in budgets {
        let cfg = config(algorithm, ENGINE_TUPLES);
        let dt_us = cfg.interarrival_us();
        let schedule = cfg.arrivals();
        let half = schedule.len() / 2;
        let mut engines: Vec<NodeEngine> = (0..N).map(|me| cfg.build_node(me)).collect();
        let mut outbox = Outbox {
            now_us: 0,
            sent: Vec::with_capacity(4 * usize::from(N)),
        };
        let (mut arrival_allocs, mut net_allocs) = (0u64, 0u64);
        for (i, a) in schedule.iter().enumerate() {
            outbox.now_us = a.seq * dt_us;
            let engine = &mut engines[usize::from(a.node)];
            let on_arrival = allocs_during(|| match engine.on_arrival(a.tuple(), &mut outbox) {
                Ok(()) => {}
                Err(e) => match e {},
            });
            assert!(outbox.sent.len() <= 4 * usize::from(N), "outbox grew");
            let mut on_net = 0;
            for (to, msg) in outbox.sent.drain(..) {
                let engine = &mut engines[usize::from(to)];
                on_net += allocs_during(|| engine.on_net(a.node, msg));
            }
            if i >= half {
                arrival_allocs += on_arrival;
                net_allocs += on_net;
            }
        }
        let counted = (schedule.len() - half) as f64;
        println!(
            "{algorithm}: on_arrival {arrival_allocs} = {:.4} per arrival, on_net {net_allocs} = {:.4}",
            arrival_allocs as f64 / counted,
            net_allocs as f64 / counted
        );
        assert_pinned(
            &format!("{algorithm} NodeEngine::on_arrival"),
            arrival_allocs as f64 / counted,
            arrival_budget,
        );
        assert_pinned(
            &format!("{algorithm} NodeEngine::on_net"),
            net_allocs as f64 / counted,
            net_budget,
        );
    }
}
