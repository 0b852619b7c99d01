//! Virtual simulation time.
//!
//! [`SimTime`] is a monotone tick counter with microsecond granularity.
//! All latency models and churn timelines in this workspace are expressed
//! in `SimTime`; nothing in the simulator reads the wall clock.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, counted in microseconds since simulation start.
///
/// # Examples
///
/// ```
/// use trustex_netsim::time::SimTime;
/// let t = SimTime::from_millis(2) + SimTime::from_micros(500);
/// assert_eq!(t.as_micros(), 2_500);
/// assert_eq!(format!("{t}"), "2.500ms");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch (time zero).
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates a time from milliseconds.
    ///
    /// # Panics
    ///
    /// Panics on overflow (more than ~584 000 years of simulated time).
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Creates a time from whole seconds.
    ///
    /// # Panics
    ///
    /// Panics on overflow.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Returns the time in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the time in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating subtraction: `self - other`, clamped at zero.
    pub const fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// # Panics
    ///
    /// Panics if `rhs > self`; use [`SimTime::saturating_sub`] when the
    /// ordering is not statically known.
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.0;
        if us >= 1_000_000 {
            write!(f, "{}.{:03}s", us / 1_000_000, (us % 1_000_000) / 1_000)
        } else if us >= 1_000 {
            write!(f, "{}.{:03}ms", us / 1_000, us % 1_000)
        } else {
            write!(f, "{us}us")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(SimTime::ZERO.as_micros(), 0);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_millis(5);
        let b = SimTime::from_millis(3);
        assert_eq!(a + b, SimTime::from_millis(8));
        assert_eq!(a - b, SimTime::from_millis(2));
        let mut c = a;
        c += b;
        assert_eq!(c, SimTime::from_millis(8));
    }

    #[test]
    fn saturating_sub_clamps() {
        let a = SimTime::from_millis(1);
        let b = SimTime::from_millis(2);
        assert_eq!(a.saturating_sub(b), SimTime::ZERO);
        assert_eq!(b.saturating_sub(a), SimTime::from_millis(1));
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_micros(1) < SimTime::from_micros(2));
        assert!(SimTime::ZERO <= SimTime::ZERO);
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", SimTime::from_micros(7)), "7us");
        assert_eq!(format!("{}", SimTime::from_micros(2_500)), "2.500ms");
        assert_eq!(format!("{}", SimTime::from_micros(3_250_000)), "3.250s");
    }

    #[test]
    fn as_secs_f64_roundtrip() {
        let t = SimTime::from_millis(1_500);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }
}
