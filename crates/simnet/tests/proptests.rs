//! Property-based invariants of the discrete-event simulator.

use dsj_simnet::{Ctx, LinkConfig, NodeId, SimDuration, SimNode, SimTime, Simulation};
use proptest::prelude::*;

/// A node that forwards every received value once (decrementing a TTL) and
/// records the virtual time of every event it sees.
struct Recorder {
    seen: Vec<(SimTime, u32)>,
}

impl SimNode for Recorder {
    type Input = u32;
    type Msg = u32;

    fn on_input(&mut self, ttl: u32, ctx: &mut Ctx<'_, u32>) {
        self.seen.push((ctx.now(), ttl));
        if ttl > 0 {
            let to = (ctx.me() + 1) % ctx.nodes();
            if to != ctx.me() {
                ctx.send(to, ttl - 1, 64);
            }
        }
    }

    fn on_message(&mut self, _from: NodeId, ttl: u32, ctx: &mut Ctx<'_, u32>) {
        self.seen.push((ctx.now(), ttl));
        if ttl > 0 {
            let to = (ctx.me() + 1) % ctx.nodes();
            if to != ctx.me() {
                ctx.send(to, ttl - 1, 64);
            }
        }
    }
}

fn build(n: u16, seed: u64) -> Simulation<Recorder> {
    Simulation::new(
        (0..n).map(|_| Recorder { seen: Vec::new() }).collect(),
        LinkConfig::paper_wan(),
        seed,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Event timestamps every node observes are monotone non-decreasing,
    /// and all messages are eventually delivered (sent = delivered when
    /// links are lossless).
    #[test]
    fn causality_and_conservation(
        n in 2u16..8,
        injections in prop::collection::vec((0u64..50_000, 0u32..6), 1..40),
        seed in 0u64..1000,
    ) {
        let mut sim = build(n, seed);
        let mut sorted = injections.clone();
        sorted.sort_by_key(|&(t, _)| t);
        for (i, &(t, ttl)) in sorted.iter().enumerate() {
            sim.inject_at(SimTime::from_micros(t), (i as u16) % n, ttl);
        }
        sim.run_to_quiescence();
        prop_assert_eq!(
            sim.metrics().messages_sent,
            sim.metrics().messages_delivered,
            "lossless links deliver everything"
        );
        for id in 0..n {
            let seen = &sim.node(id).seen;
            for pair in seen.windows(2) {
                prop_assert!(pair[0].0 <= pair[1].0, "node {id} saw time go backwards");
            }
        }
        // Total events seen = injections + deliveries.
        let total: usize = (0..n).map(|i| sim.node(i).seen.len()).sum();
        prop_assert_eq!(
            total as u64,
            sorted.len() as u64 + sim.metrics().messages_delivered
        );
    }

    /// Identical seeds give identical runs; message loss conserves the
    /// sent = delivered + dropped identity.
    #[test]
    fn determinism_and_loss_accounting(
        n in 2u16..6,
        count in 1usize..30,
        loss_pct in 0u32..80,
        seed in 0u64..1000,
    ) {
        let cfg = LinkConfig::paper_wan().with_loss(f64::from(loss_pct) / 100.0);
        let run = |seed: u64| {
            let mut sim = Simulation::new(
                (0..n).map(|_| Recorder { seen: Vec::new() }).collect(),
                cfg,
                seed,
            );
            for i in 0..count {
                sim.inject_at(SimTime::from_micros(i as u64 * 500), (i as u16) % n, 4);
            }
            sim.run_to_quiescence();
            (
                sim.now(),
                sim.metrics().messages_sent,
                sim.metrics().messages_delivered,
                sim.metrics().messages_dropped,
            )
        };
        let a = run(seed);
        let b = run(seed);
        prop_assert_eq!(a, b, "same seed, same run");
        let (_, sent, delivered, dropped) = a;
        prop_assert_eq!(sent, delivered + dropped);
    }

    /// Stepping up to a horizon never advances past it, and resuming
    /// reaches the same final state as running straight through.
    #[test]
    fn step_until_is_resumable(
        horizon_us in 1u64..200_000,
        seed in 0u64..100,
    ) {
        let mut split = build(3, seed);
        let mut straight = build(3, seed);
        for i in 0..10u64 {
            split.inject_at(SimTime::from_micros(i * 7_000), (i % 3) as u16, 3);
            straight.inject_at(SimTime::from_micros(i * 7_000), (i % 3) as u16, 3);
        }
        while split.step_until(SimTime::from_micros(horizon_us)) {}
        prop_assert!(split.now() <= SimTime::from_micros(horizon_us));
        split.run_to_quiescence();
        straight.run_to_quiescence();
        prop_assert_eq!(split.now(), straight.now());
        prop_assert_eq!(
            split.metrics().messages_sent,
            straight.metrics().messages_sent
        );
        for id in 0..3 {
            prop_assert_eq!(&split.node(id).seen, &straight.node(id).seen);
        }
    }

    /// Delivery times always exceed send times by at least the minimum
    /// latency plus the transmission time.
    #[test]
    fn latency_floor_respected(seed in 0u64..200) {
        struct Probe {
            sent_at: Option<SimTime>,
            received_at: Option<SimTime>,
        }
        impl SimNode for Probe {
            type Input = ();
            type Msg = ();
            fn on_input(&mut self, _: (), ctx: &mut Ctx<'_, ()>) {
                self.sent_at = Some(ctx.now());
                ctx.send(1, (), 900); // 80 ms at 90 kbps
            }
            fn on_message(&mut self, _: NodeId, _: (), ctx: &mut Ctx<'_, ()>) {
                self.received_at = Some(ctx.now());
            }
        }
        let mut sim = Simulation::new(
            vec![
                Probe { sent_at: None, received_at: None },
                Probe { sent_at: None, received_at: None },
            ],
            LinkConfig::paper_wan(),
            seed,
        );
        sim.inject_at(SimTime::ZERO, 0, ());
        sim.run_to_quiescence();
        let sent = sim.node(0).sent_at.unwrap();
        let received = sim.node(1).received_at.unwrap();
        let floor = SimDuration::transmission(900, 90_000) + SimDuration::from_millis(20);
        prop_assert!(received - sent >= floor);
        let ceil = SimDuration::transmission(900, 90_000) + SimDuration::from_millis(100);
        prop_assert!(received - sent <= ceil);
    }
}
