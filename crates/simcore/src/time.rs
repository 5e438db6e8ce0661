//! Simulation clock types.
//!
//! The simulator measures time in integer **nanoseconds** from the start of
//! the run. Two newtypes keep instants and durations from being confused:
//! [`SimTime`] is a point on the simulation clock, [`SimDuration`] is a span.
//! Both are `Copy`, total-ordered, and cheap to hash, which the event queue
//! relies on.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in nanoseconds since time zero.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as "never" for disarmed timers.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Constructs an instant from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Constructs an instant from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Constructs an instant from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Constructs an instant from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in (possibly fractional) microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This instant expressed in (possibly fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Span since an earlier instant. Saturates to zero if `earlier` is later,
    /// which keeps clock arithmetic total (useful for RTT math on reordered
    /// timestamps).
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Constructs a span from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Constructs a span from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Constructs a span from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Constructs a span from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Constructs a span from fractional seconds, rounding to the nearest
    /// nanosecond and saturating on overflow/negatives.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        let ns = s * 1e9;
        if ns >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(ns.round() as u64)
        }
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This span in (possibly fractional) microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This span in (possibly fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Serialization delay of `bytes` at `rate_bps` bits per second,
    /// rounded up to a whole nanosecond so back-to-back packets never
    /// serialize in zero time.
    ///
    /// # Panics
    /// Panics if `rate_bps` is zero.
    #[inline]
    pub fn tx_time(bytes: u64, rate_bps: u64) -> Self {
        assert!(rate_bps > 0, "link rate must be positive");
        // bits * 1e9 / rate: one u64 division whenever the numerator fits
        // (every transfer below ~2.3 GB), a u128 one otherwise.
        SimDuration(match bytes.checked_mul(NS_BITS_PER_BYTE) {
            Some(num) => num.div_ceil(rate_bps),
            None => tx_time_wide(bytes, rate_bps),
        })
    }

    /// Multiplies the span by an integer factor, saturating.
    #[inline]
    pub fn saturating_mul(self, k: u64) -> Self {
        SimDuration(self.0.saturating_mul(k))
    }

    /// Scales the span by a float factor (used for RTO backoff and pacing).
    #[inline]
    pub fn mul_f64(self, k: f64) -> Self {
        SimDuration::from_secs_f64(self.as_secs_f64() * k)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self >= rhs, "SimTime subtraction went negative");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        self.saturating_mul(rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", fmt_ns(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&fmt_ns(self.0))
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&fmt_ns(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&fmt_ns(self.0))
    }
}

/// Human-readable rendering with an auto-selected unit.
fn fmt_ns(ns: u64) -> String {
    if ns == u64::MAX {
        "∞".to_string()
    } else if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Nanoseconds × bits per byte: `tx_time`'s numerator is `bytes` times this.
const NS_BITS_PER_BYTE: u64 = 8 * 1_000_000_000;

/// `tx_time` in `u128`, saturating: the path for numerators past `u64`.
#[cold]
fn tx_time_wide(bytes: u64, rate_bps: u64) -> u64 {
    let ns = (bytes as u128 * NS_BITS_PER_BYTE as u128).div_ceil(rate_bps as u128);
    ns.min(u64::MAX as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_micros(4).as_nanos(), 4_000);
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t = SimTime::from_micros(10);
        let d = SimDuration::from_micros(3);
        assert_eq!((t + d) - t, d);
        assert_eq!(t + SimDuration::ZERO, t);
    }

    #[test]
    fn saturating_since_is_total() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(9);
        assert_eq!(b.saturating_since(a).as_nanos(), 4);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn tx_time_matches_hand_math() {
        // 1500 bytes at 10 Gbps = 1.2 µs.
        assert_eq!(
            SimDuration::tx_time(1500, 10_000_000_000),
            SimDuration::from_nanos(1200)
        );
        // 64 bytes at 40 Gbps = 12.8 ns, rounded up to 13.
        assert_eq!(
            SimDuration::tx_time(64, 40_000_000_000),
            SimDuration::from_nanos(13)
        );
        // Rounding up: 1 byte at 1 Tbps is 0.008 ns -> 1 ns.
        assert_eq!(
            SimDuration::tx_time(1, 1_000_000_000_000),
            SimDuration::from_nanos(1)
        );
    }

    #[test]
    fn tx_time_paths_agree_around_the_overflow_boundary() {
        // The largest byte count whose numerator still fits in a u64.
        let edge = u64::MAX / NS_BITS_PER_BYTE;
        assert!(edge.checked_mul(NS_BITS_PER_BYTE).is_some());
        assert!((edge + 1).checked_mul(NS_BITS_PER_BYTE).is_none());
        let rates = [
            1,
            3,
            7_000_000_001,
            10_000_000_000,
            400_000_000_000,
            u64::MAX,
        ];
        for bytes in [0, 1, 1_500, 9_000, edge - 2, edge - 1, edge] {
            for rate in rates {
                let narrow = (bytes * NS_BITS_PER_BYTE).div_ceil(rate);
                assert_eq!(narrow, tx_time_wide(bytes, rate), "{bytes} B at {rate}");
                assert_eq!(SimDuration::tx_time(bytes, rate).as_nanos(), narrow);
            }
        }
        for bytes in [edge + 1, edge + 2, u64::MAX] {
            for rate in rates {
                assert_eq!(
                    SimDuration::tx_time(bytes, rate).as_nanos(),
                    tx_time_wide(bytes, rate),
                    "{bytes} B at {rate}"
                );
                // Monotone across the switch-over.
                assert!(SimDuration::tx_time(bytes, rate) >= SimDuration::tx_time(edge, rate));
            }
        }
        assert_eq!(SimDuration::tx_time(u64::MAX, 1), SimDuration::MAX);
    }

    #[test]
    #[should_panic(expected = "rate")]
    fn tx_time_rejects_zero_rate() {
        let _ = SimDuration::tx_time(100, 0);
    }

    #[test]
    fn from_secs_f64_edges() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1e30), SimDuration::MAX);
        assert_eq!(
            SimDuration::from_secs_f64(0.000_001),
            SimDuration::from_micros(1)
        );
    }

    #[test]
    fn mul_div() {
        let d = SimDuration::from_micros(10);
        assert_eq!(d * 3, SimDuration::from_micros(30));
        assert_eq!(d / 2, SimDuration::from_micros(5));
        assert_eq!(d.mul_f64(0.5), SimDuration::from_micros(5));
    }

    #[test]
    fn display_units() {
        assert_eq!(SimDuration::from_nanos(5).to_string(), "5ns");
        assert_eq!(SimDuration::from_micros(5).to_string(), "5.000µs");
        assert_eq!(SimDuration::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimDuration::from_secs(5).to_string(), "5.000s");
    }
}
