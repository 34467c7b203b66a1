//! Integer picosecond time base.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time (or a duration), in integer picoseconds.
///
/// Picoseconds are fine enough to express the paper's rates exactly:
/// an 8 Gbps link moves one byte per nanosecond (1000 ps/byte), and the
/// 12 Gbps crossbar moves one byte per 666.67 ps — rounding to integer
/// picoseconds introduces a relative error below 10⁻³ per packet, far below
/// the 5 µs measurement bins used by the experiments.
///
/// ```
/// use simcore::Picos;
/// let t = Picos::from_us(800);
/// assert_eq!(t.as_ns(), 800_000);
/// assert_eq!(t + Picos::from_ns(5), Picos::new(800_005_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Picos(u64);

impl Picos {
    /// Time zero.
    pub const ZERO: Picos = Picos(0);
    /// The maximum representable time; used as an "infinite" horizon.
    pub const MAX: Picos = Picos(u64::MAX);

    /// Creates a time from raw picoseconds.
    pub const fn new(ps: u64) -> Self {
        Picos(ps)
    }

    /// Creates a time from nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        Picos(ns * 1_000)
    }

    /// Creates a time from microseconds.
    pub const fn from_us(us: u64) -> Self {
        Picos(us * 1_000_000)
    }

    /// Raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Whole nanoseconds (truncating).
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole microseconds (truncating).
    pub const fn as_us(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Time as fractional microseconds (for reporting).
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time as fractional nanoseconds (for reporting).
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Saturating subtraction: `self - other`, or zero if `other > self`.
    pub fn saturating_sub(self, other: Picos) -> Picos {
        Picos(self.0.saturating_sub(other.0))
    }

    /// Checked addition.
    pub fn checked_add(self, other: Picos) -> Option<Picos> {
        self.0.checked_add(other.0).map(Picos)
    }

    /// The duration needed to serialize `bytes` at `gbps` gigabits per
    /// second, rounded up to a whole picosecond.
    ///
    /// ```
    /// use simcore::Picos;
    /// // 64 bytes at 8 Gbps = 64 ns.
    /// assert_eq!(Picos::serialize_bytes(64, 8), Picos::from_ns(64));
    /// // 64 bytes at 12 Gbps = 42.667 ns, rounded up.
    /// assert_eq!(Picos::serialize_bytes(64, 12), Picos::new(42_667));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `gbps` is zero.
    pub fn serialize_bytes(bytes: u64, gbps: u64) -> Picos {
        assert!(gbps > 0, "link rate must be positive");
        // bits * 1000 / gbps = picoseconds (1 Gbps = 1 bit/ns = 1 bit/1000 ps)
        let bits = bytes * 8;
        Picos((bits * 1_000).div_ceil(gbps))
    }

    /// Integer division of durations, yielding how many `step`s fit in `self`.
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero.
    pub fn div_duration(self, step: Picos) -> u64 {
        assert!(step.0 > 0, "step must be positive");
        self.0 / step.0
    }
}

impl fmt::Display for Picos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}us", self.as_us_f64())
        } else {
            write!(f, "{}ps", self.0)
        }
    }
}

impl Add for Picos {
    type Output = Picos;
    fn add(self, rhs: Picos) -> Picos {
        Picos(self.0 + rhs.0)
    }
}

impl AddAssign for Picos {
    fn add_assign(&mut self, rhs: Picos) {
        self.0 += rhs.0;
    }
}

impl Sub for Picos {
    type Output = Picos;
    fn sub(self, rhs: Picos) -> Picos {
        Picos(self.0 - rhs.0)
    }
}

impl SubAssign for Picos {
    fn sub_assign(&mut self, rhs: Picos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Picos {
    type Output = Picos;
    fn mul(self, rhs: u64) -> Picos {
        Picos(self.0 * rhs)
    }
}

impl Div<u64> for Picos {
    type Output = Picos;
    fn div(self, rhs: u64) -> Picos {
        Picos(self.0 / rhs)
    }
}

impl Sum for Picos {
    fn sum<I: Iterator<Item = Picos>>(iter: I) -> Picos {
        iter.fold(Picos::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(Picos::from_us(3).as_ps(), 3_000_000);
        assert_eq!(Picos::from_ns(7).as_ps(), 7_000);
        assert_eq!(Picos::from_us(170).as_us(), 170);
        assert_eq!(Picos::new(1_500).as_ns(), 1);
    }

    #[test]
    fn serialize_rates_match_paper() {
        // 8 Gbps link: 1 byte/ns.
        assert_eq!(Picos::serialize_bytes(512, 8), Picos::from_ns(512));
        // 12 Gbps crossbar: 512 bytes in 341.33.. ns -> ceil.
        assert_eq!(Picos::serialize_bytes(512, 12), Picos::new(341_334));
        // Zero bytes take zero time.
        assert_eq!(Picos::serialize_bytes(0, 8), Picos::ZERO);
    }

    #[test]
    #[should_panic(expected = "link rate must be positive")]
    fn serialize_zero_rate_panics() {
        let _ = Picos::serialize_bytes(1, 0);
    }

    #[test]
    fn arithmetic() {
        let a = Picos::from_ns(10);
        let b = Picos::from_ns(4);
        assert_eq!(a + b, Picos::from_ns(14));
        assert_eq!(a - b, Picos::from_ns(6));
        assert_eq!(a * 3, Picos::from_ns(30));
        assert_eq!(a / 2, Picos::from_ns(5));
        assert_eq!(b.saturating_sub(a), Picos::ZERO);
        assert_eq!(a.saturating_sub(b), Picos::from_ns(6));
        let mut c = a;
        c += b;
        c -= Picos::from_ns(1);
        assert_eq!(c, Picos::from_ns(13));
    }

    #[test]
    fn div_duration_counts_bins() {
        let t = Picos::from_us(23);
        assert_eq!(t.div_duration(Picos::from_us(5)), 4);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Picos::ZERO).is_empty());
        assert_eq!(format!("{}", Picos::from_us(2)), "2.000us");
        assert_eq!(format!("{}", Picos::new(12)), "12ps");
    }

    #[test]
    fn sum_of_durations() {
        let total: Picos = (1..=4).map(Picos::from_ns).sum();
        assert_eq!(total, Picos::from_ns(10));
    }
}
