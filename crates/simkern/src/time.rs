//! Virtual time: nanosecond-resolution instants and durations.
//!
//! The whole reproduction measures what the paper measures —
//! `clock_gettime(CLOCK_MONOTONIC_RAW)` deltas — but against the simulated
//! clock. [`SimTime`] is an instant on that clock, [`SimDuration`] a span.
//! Both are thin `u64` nanosecond newtypes ([C-NEWTYPE]) with saturating
//! arithmetic so cost-model sweeps can never panic on overflow.
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulated monotonic clock, in nanoseconds since boot.
///
/// # Example
///
/// ```
/// use simkern::time::{SimDuration, SimTime};
/// let t = SimTime::from_micros(3) + SimDuration::from_nanos(125);
/// assert_eq!(t.as_nanos(), 3_125);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// # Example
///
/// ```
/// use simkern::time::SimDuration;
/// assert_eq!(SimDuration::from_micros(2).as_nanos(), 2_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The epoch of the simulated clock (boot time).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as "never" in schedulers.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `ns` nanoseconds after boot.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates an instant `us` microseconds after boot.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Creates an instant `ms` milliseconds after boot.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Creates an instant `s` seconds after boot.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Nanoseconds since boot.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since boot as a float, for reporting.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from `earlier` to `self`, or zero if `earlier` is later.
    ///
    /// Mirrors [`std::time::Instant::saturating_duration_since`], which is
    /// what robust benchmark loops want when the clock is quantized.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Rounds the instant *down* to a multiple of `tick`, modeling a timer
    /// with limited resolution (the paper observes heavily quantized
    /// `clock_gettime` readings: p25 = p75 in several box plots).
    ///
    /// A zero `tick` leaves the instant unchanged.
    pub fn quantize(self, tick: SimDuration) -> SimTime {
        if tick.0 == 0 {
            self
        } else {
            SimTime(self.0 - self.0 % tick.0)
        }
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a span of `ns` nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a span of `us` microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a span of `ms` milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a span of `s` seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// The span as whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span as seconds, for rate computations.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// `true` if the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating sum of two spans.
    pub fn saturating_add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }

    /// The time to serialize `bytes` bytes at `bits_per_sec`, rounded up.
    ///
    /// This is the workhorse behind the wire and PCI-bus models: a 1538-byte
    /// Ethernet frame (preamble + IFG included) takes 12 304 ns at 1 Gbit/s.
    ///
    /// # Example
    ///
    /// ```
    /// use simkern::time::SimDuration;
    /// let d = SimDuration::for_bytes_at_rate(1538, 1_000_000_000);
    /// assert_eq!(d.as_nanos(), 12_304);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `bits_per_sec` is zero.
    pub fn for_bytes_at_rate(bytes: u64, bits_per_sec: u64) -> SimDuration {
        assert!(bits_per_sec > 0, "link rate must be positive");
        let bits = bytes as u128 * 8;
        let ns = (bits * 1_000_000_000).div_ceil(bits_per_sec as u128);
        SimDuration(ns as u64)
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
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

impl From<SimDuration> for std::time::Duration {
    fn from(d: SimDuration) -> Self {
        std::time::Duration::from_nanos(d.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_micros(10);
        let d = SimDuration::from_nanos(250);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn subtraction_saturates_at_zero() {
        let early = SimTime::from_nanos(5);
        let late = SimTime::from_nanos(9);
        assert_eq!(early - late, SimDuration::ZERO);
        assert_eq!(early.saturating_duration_since(late), SimDuration::ZERO);
    }

    #[test]
    fn serialization_delay_matches_gige_math() {
        // A full-size TCP data frame on GbE including preamble+IFG.
        let d = SimDuration::for_bytes_at_rate(1538, 1_000_000_000);
        assert_eq!(d.as_nanos(), 12_304);
        // 64-byte minimum frame + 20B overhead = 672ns.
        let d = SimDuration::for_bytes_at_rate(84, 1_000_000_000);
        assert_eq!(d.as_nanos(), 672);
    }

    #[test]
    fn quantize_floors_to_tick() {
        let t = SimTime::from_nanos(1_234);
        assert_eq!(t.quantize(SimDuration::from_nanos(100)).as_nanos(), 1_200);
        assert_eq!(t.quantize(SimDuration::ZERO), t);
    }

    #[test]
    fn display_picks_a_sane_unit() {
        assert_eq!(SimDuration::from_nanos(42).to_string(), "42ns");
        assert_eq!(SimDuration::from_micros(42).to_string(), "42.000us");
        assert_eq!(SimDuration::from_millis(42).to_string(), "42.000ms");
        assert_eq!(SimDuration::from_secs(42).to_string(), "42.000s");
    }

    #[test]
    fn duration_sum_and_scale() {
        let parts = [SimDuration::from_nanos(10), SimDuration::from_nanos(32)];
        let total: SimDuration = parts.iter().copied().sum();
        assert_eq!(total.as_nanos(), 42);
        assert_eq!((total * 2).as_nanos(), 84);
        assert_eq!((total / 2).as_nanos(), 21);
    }
}
