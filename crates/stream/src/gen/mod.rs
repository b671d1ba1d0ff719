//! Workload generators.
//!
//! Four workloads mirror the paper's Section 6:
//!
//! * **UNI** — integers uniform over the domain (the analytic worst case).
//! * **ZIPF** — Zipf-distributed integers with skew `α` (paper: `α = 0.4`).
//! * **FIN** — synthetic financial trades: random-walk integer bid/ask
//!   prices over Zipf-popular symbols (substitute for the paper's 1.8 M
//!   real trades; the paper notes real-data results track ZIPF α = 0.4).
//! * **NWRK** — synthetic packet traces: Zipf-popular flows with bursty
//!   repetition (substitute for the paper's 2.2 M packet trace).
//!
//! [`ArrivalGen`] combines a key source with a [`Partitioner`] to produce
//! the global arrival sequence consumed by the distributed runtime.

mod financial;
mod network;
mod scenario;
mod uniform;
mod zipf;

pub use financial::{price_series, FinancialSource};
pub use network::NetworkSource;
pub use scenario::Scenario;
pub use uniform::UniformSource;
pub use zipf::ZipfSource;

use crate::partition::Partitioner;
use crate::tuple::{StreamId, Tuple};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which synthetic workload to generate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadKind {
    /// Uniform keys — the worst case for correlation-based filtering.
    Uniform,
    /// Zipf-distributed keys with skew `alpha`.
    Zipf {
        /// Skew parameter (the paper uses 0.4).
        alpha: f64,
    },
    /// Synthetic financial bid/ask trades (FIN).
    Financial,
    /// Synthetic network packet flows (NWRK).
    Network,
}

impl WorkloadKind {
    /// Short label used in experiment reports ("UNI", "ZIPF", ...).
    pub fn label(&self) -> &'static str {
        match self {
            WorkloadKind::Uniform => "UNI",
            WorkloadKind::Zipf { .. } => "ZIPF",
            WorkloadKind::Financial => "FIN",
            WorkloadKind::Network => "NWRK",
        }
    }
}

enum Source {
    Uniform(UniformSource),
    Zipf(ZipfSource),
    Financial(FinancialSource),
    Network(NetworkSource),
}

impl Source {
    fn next_key(&mut self, stream: StreamId, rng: &mut StdRng) -> u32 {
        match self {
            Source::Uniform(s) => s.next_key(stream, rng),
            Source::Zipf(s) => s.sample(rng),
            Source::Financial(s) => s.next_key(stream, rng),
            Source::Network(s) => s.next_key(stream, rng),
        }
    }
}

/// One global arrival: a tuple plus the node it arrives at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Stream the tuple belongs to.
    pub stream: StreamId,
    /// Join attribute value.
    pub key: u32,
    /// Global sequence number.
    pub seq: u64,
    /// Node the tuple arrives at.
    pub node: u16,
}

impl Arrival {
    /// The tuple carried by this arrival.
    pub fn tuple(&self) -> Tuple {
        Tuple::new(self.stream, self.key, self.seq, self.node)
    }
}

/// Deterministic generator of the global arrival sequence.
///
/// Streams `R` and `S` alternate tuple-by-tuple, matching the paper's model
/// where both streams flow into every node at comparable rates.
pub struct ArrivalGen {
    source: Source,
    partitioner: Partitioner,
    domain: u32,
    rng: StdRng,
    seq: u64,
    next_stream: StreamId,
}

impl ArrivalGen {
    /// Creates a generator for `kind` over `[0, domain)`, spreading tuples
    /// with `partitioner`, seeded by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `domain == 0`.
    pub fn new(kind: WorkloadKind, partitioner: Partitioner, domain: u32, seed: u64) -> Self {
        assert!(domain > 0, "attribute domain must be non-empty");
        let mut rng = StdRng::seed_from_u64(seed);
        let source = match kind {
            WorkloadKind::Uniform => Source::Uniform(UniformSource::new(domain)),
            WorkloadKind::Zipf { alpha } => Source::Zipf(ZipfSource::new(domain, alpha)),
            WorkloadKind::Financial => Source::Financial(FinancialSource::new(domain, &mut rng)),
            WorkloadKind::Network => Source::Network(NetworkSource::new(domain, &mut rng)),
        };
        ArrivalGen {
            source,
            partitioner,
            domain,
            rng,
            seq: 0,
            next_stream: StreamId::R,
        }
    }

    /// Produces the next arrival.
    pub fn next_arrival(&mut self) -> Arrival {
        let stream = self.next_stream;
        self.next_stream = stream.opposite();
        let key = self.source.next_key(stream, &mut self.rng);
        debug_assert!(key < self.domain);
        let node = self.partitioner.assign(key, self.domain, &mut self.rng);
        let seq = self.seq;
        self.seq += 1;
        Arrival {
            stream,
            key,
            seq,
            node,
        }
    }

    /// Produces the next `n` arrivals as a vector.
    pub fn take_vec(&mut self, n: usize) -> Vec<Arrival> {
        (0..n).map(|_| self.next_arrival()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(kind: WorkloadKind, seed: u64) -> ArrivalGen {
        ArrivalGen::new(kind, Partitioner::geographic(4, 0.0), 1 << 12, seed)
    }

    #[test]
    fn streams_alternate() {
        let mut g = gen(WorkloadKind::Uniform, 0);
        let a = g.next_arrival();
        let b = g.next_arrival();
        let c = g.next_arrival();
        assert_eq!(a.stream, StreamId::R);
        assert_eq!(b.stream, StreamId::S);
        assert_eq!(c.stream, StreamId::R);
    }

    #[test]
    fn sequence_numbers_increase() {
        let mut g = gen(WorkloadKind::Zipf { alpha: 0.4 }, 1);
        let v = g.take_vec(10);
        for (i, a) in v.iter().enumerate() {
            assert_eq!(a.seq, i as u64);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<Arrival> = gen(WorkloadKind::Financial, 7).take_vec(100);
        let b: Vec<Arrival> = gen(WorkloadKind::Financial, 7).take_vec(100);
        let c: Vec<Arrival> = gen(WorkloadKind::Financial, 8).take_vec(100);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn all_workloads_stay_in_domain() {
        for kind in [
            WorkloadKind::Uniform,
            WorkloadKind::Zipf { alpha: 0.4 },
            WorkloadKind::Financial,
            WorkloadKind::Network,
        ] {
            let mut g = gen(kind, 3);
            for a in g.take_vec(2_000) {
                assert!(a.key < (1 << 12), "{kind:?} overflowed domain");
                assert!(a.node < 4);
            }
        }
    }

    #[test]
    fn labels_match() {
        assert_eq!(WorkloadKind::Uniform.label(), "UNI");
        assert_eq!(WorkloadKind::Zipf { alpha: 0.4 }.label(), "ZIPF");
        assert_eq!(WorkloadKind::Financial.label(), "FIN");
        assert_eq!(WorkloadKind::Network.label(), "NWRK");
    }

    #[test]
    fn arrival_tuple_round_trip() {
        let a = Arrival {
            stream: StreamId::S,
            key: 9,
            seq: 3,
            node: 2,
        };
        let t = a.tuple();
        assert_eq!(t.stream, StreamId::S);
        assert_eq!(t.key, 9);
        assert_eq!(t.seq, 3);
        assert_eq!(t.origin, 2);
    }
}
