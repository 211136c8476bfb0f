//! Virtual time represented as integer nanoseconds.
//!
//! Floating-point time accumulates rounding drift and breaks the total order
//! the event queue relies on; integer nanoseconds give ~292 years of range
//! in a `u64`, far beyond any simulated I/O phase.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in virtual time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from seconds (saturating on overflow/negative).
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(secs_to_nanos(secs))
    }

    /// This instant expressed in seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Nanoseconds since the epoch.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration elapsed since `earlier`; zero if `earlier` is later.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from seconds (saturating on overflow/negative).
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(secs_to_nanos(secs))
    }

    /// Construct from microseconds.
    pub fn from_micros_f64(us: f64) -> Self {
        Self::from_secs_f64(us * 1e-6)
    }

    /// Construct from whole nanoseconds.
    pub fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// This span expressed in seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time to move `bytes` at `bytes_per_sec`; saturates on degenerate rates.
    pub fn for_bytes(bytes: u64, bytes_per_sec: f64) -> Self {
        if bytes_per_sec <= 0.0 {
            return SimDuration(u64::MAX);
        }
        Self::from_secs_f64(bytes as f64 / bytes_per_sec)
    }

    /// Scale by a non-negative factor (used for jitter).
    pub(crate) fn scale(self, factor: f64) -> Self {
        Self::from_secs_f64(self.as_secs_f64() * factor.max(0.0))
    }

    pub(crate) fn is_zero(self) -> bool {
        self.0 == 0
    }

    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
}

fn secs_to_nanos(secs: f64) -> u64 {
    if secs <= 0.0 {
        0
    } else {
        let ns = secs * 1e9;
        if ns >= u64::MAX as f64 {
            u64::MAX
        } else {
            ns.round() as u64
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs.max(1))
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s >= 1.0 {
            write!(f, "{s:.3}s")
        } else if s >= 1e-3 {
            write!(f, "{:.3}ms", s * 1e3)
        } else {
            write!(f, "{:.3}us", s * 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_roundtrips_seconds() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn negative_seconds_clamp_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-3.0), SimTime::ZERO);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn add_duration_advances_time() {
        let t = SimTime::from_secs_f64(1.0) + SimDuration::from_secs_f64(0.25);
        assert_eq!(t, SimTime::from_secs_f64(1.25));
    }

    #[test]
    fn since_is_saturating() {
        let a = SimTime::from_secs_f64(1.0);
        let b = SimTime::from_secs_f64(2.0);
        assert_eq!(b.since(a), SimDuration::from_secs_f64(1.0));
        assert_eq!(a.since(b), SimDuration::ZERO);
    }

    #[test]
    fn for_bytes_matches_rate() {
        // 1 GiB at 1 GiB/s takes one second.
        let d = SimDuration::for_bytes(1 << 30, (1u64 << 30) as f64);
        assert_eq!(d, SimDuration::from_secs_f64(1.0));
    }

    #[test]
    fn for_bytes_degenerate_rate_saturates() {
        assert_eq!(SimDuration::for_bytes(100, 0.0).as_nanos(), u64::MAX);
    }

    #[test]
    fn duration_arithmetic() {
        let d = SimDuration::from_secs_f64(2.0);
        assert_eq!(d * 3, SimDuration::from_secs_f64(6.0));
        assert_eq!(d / 4, SimDuration::from_secs_f64(0.5));
        assert_eq!(d - SimDuration::from_secs_f64(5.0), SimDuration::ZERO);
        let total: SimDuration = vec![d, d, d].into_iter().sum();
        assert_eq!(total, SimDuration::from_secs_f64(6.0));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimDuration::from_secs_f64(2.5)), "2.500s");
        assert_eq!(format!("{}", SimDuration::from_secs_f64(2.5e-3)), "2.500ms");
        assert_eq!(format!("{}", SimDuration::from_micros_f64(2.5)), "2.500us");
    }

    #[test]
    fn scale_applies_factor() {
        let d = SimDuration::from_secs_f64(1.0);
        assert_eq!(d.scale(0.5), SimDuration::from_secs_f64(0.5));
        assert_eq!(d.scale(-1.0), SimDuration::ZERO);
    }
}
