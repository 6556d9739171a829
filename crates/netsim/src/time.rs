//! Virtual time.
//!
//! The simulator keeps its own clock, entirely decoupled from wall time.
//! [`SimTime`] is an instant measured in nanoseconds since the start of the
//! simulation; [`SimDuration`] is a span between two instants. Both are thin
//! `u64` wrappers with saturating arithmetic: a simulation that runs "too
//! long" clamps rather than panics, which keeps long fault-injection runs
//! robust.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// Nanoseconds per millisecond.
const NANOS_PER_MILLI: u64 = 1_000_000;
/// Nanoseconds per microsecond.
const NANOS_PER_MICRO: u64 = 1_000;
/// Nanoseconds per second.
const NANOS_PER_SEC: u64 = 1_000_000_000;

/// An instant on the simulated clock (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * NANOS_PER_MILLI)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Milliseconds since simulation start, as a float (sub-millisecond
    /// precision preserved).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// The span from `earlier` to `self`; zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * NANOS_PER_MICRO)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * NANOS_PER_MILLI)
    }

    /// Construct from fractional milliseconds. Negative inputs clamp to zero;
    /// non-finite inputs clamp to zero (latency models occasionally produce
    /// denormal noise and must never panic the engine).
    pub fn from_millis_f64(ms: f64) -> Self {
        if ms.is_nan() || ms <= 0.0 {
            return SimDuration::ZERO;
        }
        let nanos = ms * NANOS_PER_MILLI as f64;
        if nanos >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(nanos as u64)
        }
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / NANOS_PER_MILLI
    }

    /// Fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Saturating sum of two spans.
    pub fn saturating_add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }

    /// Saturating difference of two spans.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Multiply the span by an integer factor, saturating.
    pub fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }

    /// Scale the span by a float factor (clamped to non-negative).
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration::from_millis_f64(self.as_millis_f64() * factor)
    }

    /// Halve the span (used to turn an RTT into a one-way delay).
    pub const fn halved(self) -> SimDuration {
        SimDuration(self.0 / 2)
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
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        self.saturating_add(rhs)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = self.saturating_add(rhs);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        self.saturating_sub(rhs)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = self.saturating_sub(rhs);
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, SimDuration::saturating_add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SimTime {
        /// Checked difference between two instants.
        fn checked_since(self, earlier: SimTime) -> Option<SimDuration> {
            self.0.checked_sub(earlier.0).map(SimDuration)
        }
    }

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_millis(250);
        let d = SimDuration::from_millis(100);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d).as_millis_f64(), 350.0);
    }

    #[test]
    fn duration_from_fractional_millis() {
        let d = SimDuration::from_millis_f64(1.5);
        assert_eq!(d.as_nanos(), 1_500_000);
        assert!((d.as_millis_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn negative_and_nan_millis_clamp_to_zero() {
        assert_eq!(SimDuration::from_millis_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_millis_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_millis_f64(f64::NEG_INFINITY),
            SimDuration::ZERO
        );
    }

    #[test]
    fn infinite_millis_saturate() {
        assert_eq!(
            SimDuration::from_millis_f64(f64::INFINITY),
            SimDuration::MAX
        );
    }

    #[test]
    fn saturating_subtraction_never_underflows() {
        let a = SimDuration::from_millis(5);
        let b = SimDuration::from_millis(9);
        assert_eq!(a - b, SimDuration::ZERO);
        assert_eq!(
            SimTime::from_millis(1) - SimDuration::from_millis(10),
            SimTime::ZERO
        );
    }

    #[test]
    fn halved_turns_rtt_into_one_way() {
        assert_eq!(
            SimDuration::from_millis(30).halved(),
            SimDuration::from_millis(15)
        );
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }

    #[test]
    fn display_formats_millis() {
        assert_eq!(format!("{}", SimDuration::from_millis(42)), "42.000ms");
    }

    #[test]
    fn checked_since_detects_order() {
        let early = SimTime::from_millis(10);
        let late = SimTime::from_millis(20);
        assert_eq!(
            late.checked_since(early),
            Some(SimDuration::from_millis(10))
        );
        assert_eq!(early.checked_since(late), None);
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_millis(100);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_millis(50));
        assert_eq!(d.mul_f64(-1.0), SimDuration::ZERO);
    }
}
