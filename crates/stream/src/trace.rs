//! Replaying a fixed arrival sequence.
//!
//! The paper's FIN and NWRK workloads are *recorded* traces replayed into
//! the system. Here those workloads are generated, so a [`Trace`] is an
//! arrival list held in memory — a generator's output or a hand-built
//! schedule — that a cluster replays instead of generating its own.

use crate::gen::Arrival;

/// A fixed sequence of arrivals to replay.
///
/// ```
/// use dsj_stream::gen::{ArrivalGen, WorkloadKind};
/// use dsj_stream::partition::Partitioner;
/// use dsj_stream::trace::Trace;
///
/// let mut gen = ArrivalGen::new(
///     WorkloadKind::Financial,
///     Partitioner::geographic(4, 0.8),
///     1 << 12,
///     7,
/// );
/// let trace = Trace::from_arrivals(gen.take_vec(1_000));
/// assert_eq!(trace.len(), 1_000);
/// assert!(trace.iter().all(|a| a.node < 4));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    arrivals: Vec<Arrival>,
}

impl Trace {
    /// Wraps an existing arrival list.
    ///
    /// # Panics
    ///
    /// Panics if sequence numbers are not consecutive from zero — replay
    /// semantics depend on them.
    pub fn from_arrivals(arrivals: Vec<Arrival>) -> Self {
        for (i, a) in arrivals.iter().enumerate() {
            assert_eq!(a.seq, i as u64, "trace sequence numbers must be dense");
        }
        Trace { arrivals }
    }

    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// `true` when the trace holds no arrival.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// The arrivals, in order.
    pub fn arrivals(&self) -> &[Arrival] {
        &self.arrivals
    }

    /// Iterates over the arrivals (replay).
    pub fn iter(&self) -> impl Iterator<Item = Arrival> + '_ {
        self.arrivals.iter().copied()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = Arrival;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Arrival>>;

    fn into_iter(self) -> Self::IntoIter {
        self.arrivals.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{ArrivalGen, WorkloadKind};
    use crate::partition::Partitioner;

    fn sample_gen(seed: u64) -> ArrivalGen {
        ArrivalGen::new(
            WorkloadKind::Network,
            Partitioner::geographic(4, 0.8),
            1 << 12,
            seed,
        )
    }

    #[test]
    fn from_arrivals_validates_sequences() {
        let mut gen = sample_gen(2);
        let good = gen.take_vec(50);
        let trace = Trace::from_arrivals(good);
        assert_eq!(trace.len(), 50);
    }

    #[test]
    #[should_panic(expected = "trace sequence numbers must be dense")]
    fn sparse_sequences_rejected() {
        let mut gen = sample_gen(3);
        let mut arrivals = gen.take_vec(10);
        arrivals.remove(4);
        Trace::from_arrivals(arrivals);
    }
}
