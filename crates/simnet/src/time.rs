//! Virtual time: microsecond-resolution instants and durations.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A duration of virtual time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// A duration of `us` microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// A duration of `ms` milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Duration to serialize `bytes` at `bits_per_sec` on a link.
    ///
    /// # Panics
    ///
    /// Panics if `bits_per_sec == 0`.
    pub fn transmission(bytes: usize, bits_per_sec: u64) -> Self {
        assert!(bits_per_sec > 0, "bandwidth must be positive");
        let bits = bytes as u128 * 8;
        SimDuration(((bits * 1_000_000) / bits_per_sec as u128) as u64)
    }

    /// This duration in whole microseconds.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This duration in (fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.1}ms", self.0 as f64 / 1_000.0)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

/// An instant of virtual time (microseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// An instant `us` microseconds after the epoch.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Microseconds since the epoch.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.as_micros())
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.as_micros();
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimDuration::from_millis(20).as_micros(), 20_000);
        assert!((SimDuration::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn transmission_time_90kbps() {
        // 90 kbit at 90 kbps takes exactly one second — the paper's model.
        let d = SimDuration::transmission(90_000 / 8, 90_000);
        assert_eq!(d, SimDuration::from_millis(1_000));
        // The widest bare tuple frame, 20 bytes, at 90 kbps: 160 bits /
        // 90k bps = 1777 us; a typical 8-byte one takes 711 us.
        let t = SimDuration::transmission(20, 90_000);
        assert_eq!(t.as_micros(), 1_777);
        assert_eq!(SimDuration::transmission(8, 90_000).as_micros(), 711);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_millis(5);
        let u = t + SimDuration::from_millis(3);
        assert_eq!(u - t, SimDuration::from_millis(3));
        assert_eq!(t - u, SimDuration::ZERO, "saturates");
        assert_eq!(t.max(u), u);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(SimDuration::from_micros(5).to_string(), "5us");
        assert_eq!(SimDuration::from_micros(2_500).to_string(), "2.5ms");
        assert_eq!(SimDuration::from_millis(3_000).to_string(), "3.000s");
        assert_eq!(SimTime::from_micros(1_000_000).to_string(), "t=1.000000s");
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        SimDuration::transmission(10, 0);
    }
}
