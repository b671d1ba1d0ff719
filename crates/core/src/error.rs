//! Error types for cluster experiment runs.

use dsj_simnet::LinkFault;
use std::fmt;

/// Error raised when an experiment configuration cannot be run.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// Fewer than two nodes were requested — a distributed join needs peers.
    TooFewNodes(u16),
    /// A zero compression factor: κ divides the domain into the retained
    /// prefix, so it must be at least 1.
    ZeroKappa,
    /// The compression factor exceeds the attribute domain (no coefficients
    /// would be retained).
    KappaTooLarge {
        /// Requested compression factor.
        kappa: u32,
        /// Attribute domain size.
        domain: u32,
    },
    /// No tuples were requested.
    NoTuples,
    /// A zero-tuple window: nothing could ever join.
    ZeroWindow,
    /// An empty attribute domain: no key could ever be drawn.
    ZeroDomain,
    /// The geographic locality is not a probability.
    LocalityOutOfRange(f64),
    /// The Zipf skew is negative or not finite.
    ZipfAlphaOutOfRange(f64),
    /// A bandwidth governor with a zero allowance could never send.
    ZeroBandwidthBudget,
    /// The per-node arrival rate is not a finite positive number of
    /// tuples per second, or is so small that the last arrival would be
    /// due 2⁵³ ns (about 104 days) or more after the first.
    ArrivalRateOutOfRange(f64),
    /// A constant message-complexity target is negative or not finite.
    TargetOutOfRange(f64),
    /// The uniform-data detector's threshold is negative or not finite
    /// (`0` switches the detector off).
    CvThresholdOutOfRange(f64),
    /// A zero-millisecond time window: every tuple expires on arrival.
    ZeroTimeWindow,
    /// A zero summary-sync interval (`ClusterConfig::sync_intervals`):
    /// a peer's summary would be due again before it was ever stale.
    ZeroSyncInterval {
        /// Tuple messages to a peer between refreshes.
        sent: u32,
        /// Local arrivals between refreshes.
        arrivals: u32,
    },
    /// The WAN link model cannot be simulated (`LinkConfig::validate`).
    InvalidLink(LinkFault),
    /// The warm-up fraction is not in `[0, 1)`: at 1 or above nothing is
    /// counted, so truth is 0 and ε reads a perfect 0.
    WarmupOutOfRange(f64),
    /// The error rate to calibrate to is not a fraction in `[0, 1]`.
    EpsilonOutOfRange(f64),
    /// An attached trace schedules an arrival on a node outside the
    /// cluster.
    TraceNodeOutOfRange {
        /// The offending node id.
        node: u16,
        /// Cluster size.
        n: u16,
    },
    /// `tuples` was set to something other than the attached trace's
    /// length: the run would replay the trace while warm-up and the
    /// per-tuple figures count `tuples`.
    TraceLengthMismatch {
        /// Arrivals in the trace.
        trace: usize,
        /// The configured tuple count.
        tuples: usize,
    },
    /// An attached trace carries a key outside the attribute domain.
    TraceKeyOutOfDomain {
        /// The offending key.
        key: u32,
        /// Attribute domain size.
        domain: u32,
    },
    /// The retained coefficient prefix is too long for the wire format:
    /// summary updates address coefficients with a 16-bit index, so a
    /// prefix beyond 65536 entries would silently truncate on encode.
    RetainedTooLarge {
        /// Retained prefix length implied by `domain / kappa`.
        retained: usize,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::TooFewNodes(n) => {
                write!(f, "distributed join needs at least 2 nodes, got {n}")
            }
            RunError::ZeroKappa => write!(f, "compression factor kappa must be at least 1"),
            RunError::KappaTooLarge { kappa, domain } => write!(
                f,
                "compression factor {kappa} exceeds attribute domain {domain}"
            ),
            RunError::NoTuples => write!(f, "experiment must process at least one tuple"),
            RunError::ZeroWindow => write!(f, "window must hold at least one tuple"),
            RunError::ZeroDomain => write!(f, "attribute domain must hold at least one key"),
            RunError::LocalityOutOfRange(l) => {
                write!(f, "locality {l} is not a probability in [0, 1]")
            }
            RunError::ZipfAlphaOutOfRange(a) => {
                write!(f, "Zipf skew {a} is not a finite non-negative number")
            }
            RunError::ZeroBandwidthBudget => {
                write!(f, "bandwidth budget must be at least 1 bit/s")
            }
            RunError::ArrivalRateOutOfRange(r) => write!(
                f,
                "arrival rate {r} tuples/s per node cannot be scheduled \
                 (need a finite positive rate whose last arrival is due within 2^53 ns)"
            ),
            RunError::TargetOutOfRange(t) => write!(
                f,
                "message-complexity target {t} is not a finite non-negative number"
            ),
            RunError::CvThresholdOutOfRange(cv) => write!(
                f,
                "uniform-data threshold {cv} is not a finite non-negative number"
            ),
            RunError::ZeroTimeWindow => write!(f, "time window must span at least 1 ms"),
            RunError::ZeroSyncInterval { sent, arrivals } => write!(
                f,
                "summary sync intervals must be at least 1 \
                 (got {sent} sent, {arrivals} arrivals)"
            ),
            RunError::InvalidLink(fault) => write!(f, "invalid link model: {fault}"),
            RunError::WarmupOutOfRange(w) => {
                write!(f, "warm-up fraction {w} is not in [0, 1)")
            }
            RunError::EpsilonOutOfRange(e) => {
                write!(f, "target error rate {e} is not a fraction in [0, 1]")
            }
            RunError::TraceNodeOutOfRange { node, n } => {
                write!(f, "trace node {node} out of range for a {n}-node cluster")
            }
            RunError::TraceLengthMismatch { trace, tuples } => write!(
                f,
                "tuple count {tuples} differs from the attached trace's {trace} arrivals"
            ),
            RunError::TraceKeyOutOfDomain { key, domain } => {
                write!(f, "trace key {key} out of attribute domain {domain}")
            }
            RunError::RetainedTooLarge { retained } => write!(
                f,
                "retained prefix of {retained} coefficients exceeds the 16-bit \
                 wire index space (max 65536); raise kappa or shrink the domain"
            ),
        }
    }
}

impl std::error::Error for RunError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(RunError::TooFewNodes(1).to_string().contains("at least 2"));
        assert!(RunError::ZeroKappa.to_string().contains("at least 1"));
        assert!(RunError::KappaTooLarge {
            kappa: 1024,
            domain: 256
        }
        .to_string()
        .contains("1024"));
        assert!(RunError::NoTuples.to_string().contains("at least one"));
        assert!(RunError::ZeroWindow.to_string().contains("window"));
        assert!(RunError::ZeroDomain.to_string().contains("domain"));
        assert!(RunError::LocalityOutOfRange(2.0).to_string().contains("2"));
        assert!(RunError::ZipfAlphaOutOfRange(-1.0)
            .to_string()
            .contains("-1"));
        assert!(RunError::ZeroBandwidthBudget.to_string().contains("budget"));
        assert!(RunError::ArrivalRateOutOfRange(-3.0)
            .to_string()
            .contains("-3"));
        assert!(RunError::TargetOutOfRange(-1.0).to_string().contains("-1"));
        assert!(RunError::CvThresholdOutOfRange(f64::NAN)
            .to_string()
            .contains("threshold NaN"));
        assert!(RunError::ZeroTimeWindow.to_string().contains("1 ms"));
        assert!(RunError::ZeroSyncInterval {
            sent: 0,
            arrivals: 2048
        }
        .to_string()
        .contains("got 0 sent, 2048 arrivals"));
        assert_eq!(
            RunError::InvalidLink(LinkFault::ZeroBandwidth).to_string(),
            "invalid link model: bandwidth must be positive"
        );
        assert!(RunError::InvalidLink(LinkFault::InvertedLatency)
            .to_string()
            .contains("latency range is inverted"));
        assert!(RunError::InvalidLink(LinkFault::LossAboveOne)
            .to_string()
            .contains("loss"));
        assert!(RunError::WarmupOutOfRange(1.0)
            .to_string()
            .contains("1 is not in [0, 1)"));
        assert!(RunError::EpsilonOutOfRange(2.0).to_string().contains("2"));
        assert!(RunError::TraceNodeOutOfRange { node: 99, n: 4 }
            .to_string()
            .contains("99"));
        assert!(RunError::TraceLengthMismatch {
            trace: 10,
            tuples: 12
        }
        .to_string()
        .contains("12 differs from the attached trace's 10"));
        assert!(RunError::TraceKeyOutOfDomain {
            key: 5000,
            domain: 1024
        }
        .to_string()
        .contains("5000"));
        assert!(RunError::RetainedTooLarge { retained: 131_072 }
            .to_string()
            .contains("131072"));
    }
}
