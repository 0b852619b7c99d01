//! Fixed-point money.
//!
//! The safe-exchange conditions of the paper are *exact* inequalities over
//! sums of valuations. Floating point would make "is this sequence safe?"
//! answer differently depending on summation order, so all monetary
//! quantities in `trustex` are [`Money`]: a signed 64-bit count of
//! **micro-units** (10⁻⁶ of the major currency unit).
//!
//! `Money` is signed because temptations, exposure bounds and gains are
//! naturally signed quantities.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Number of micro-units per major unit.
pub const MICROS_PER_UNIT: i64 = 1_000_000;

/// A signed fixed-point amount of money (micro-unit resolution).
///
/// # Examples
///
/// ```
/// use trustex_core::money::Money;
/// let price = Money::from_units(12) + Money::from_micros(500_000);
/// assert_eq!(price.to_string(), "12.500000");
/// assert_eq!(price * 2, Money::from_units(25));
/// assert!(Money::ZERO < price);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Money(i64);

impl Money {
    /// Zero money.
    pub const ZERO: Money = Money(0);
    /// The largest representable amount.
    pub const MAX: Money = Money(i64::MAX);
    /// The smallest (most negative) representable amount.
    pub const MIN: Money = Money(i64::MIN);

    /// Creates an amount from whole major units.
    ///
    /// # Panics
    ///
    /// Panics if the value overflows (|units| > ~9.2 × 10¹²).
    pub const fn from_units(units: i64) -> Money {
        Money(units * MICROS_PER_UNIT)
    }

    /// Creates an amount from raw micro-units.
    pub const fn from_micros(micros: i64) -> Money {
        Money(micros)
    }

    /// Converts a float amount of major units, rounding to the nearest
    /// micro-unit. Intended for test fixtures and workload generators.
    ///
    /// # Panics
    ///
    /// Panics if `units` is not finite or does not fit.
    pub fn from_f64(units: f64) -> Money {
        assert!(units.is_finite(), "money from non-finite float");
        let micros = (units * MICROS_PER_UNIT as f64).round();
        assert!(
            micros >= i64::MIN as f64 && micros <= i64::MAX as f64,
            "money overflow: {units}"
        );
        Money(micros as i64)
    }

    /// Raw micro-units.
    pub const fn as_micros(self) -> i64 {
        self.0
    }

    /// Value in major units as a float (lossy beyond 2⁵³ micro-units).
    pub fn as_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_UNIT as f64
    }

    /// `true` when the amount is strictly positive.
    pub const fn is_positive(self) -> bool {
        self.0 > 0
    }

    /// `true` when the amount is strictly negative.
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// `true` when the amount is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Absolute value (saturating at `Money::MAX` for `Money::MIN`).
    pub const fn abs(self) -> Money {
        Money(self.0.saturating_abs())
    }

    /// Checked addition; `None` on overflow.
    pub const fn checked_add(self, rhs: Money) -> Option<Money> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(Money(v)),
            None => None,
        }
    }

    /// Checked subtraction; `None` on overflow.
    pub const fn checked_sub(self, rhs: Money) -> Option<Money> {
        match self.0.checked_sub(rhs.0) {
            Some(v) => Some(Money(v)),
            None => None,
        }
    }

    /// Saturating addition.
    pub const fn saturating_add(self, rhs: Money) -> Money {
        Money(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, rhs: Money) -> Money {
        Money(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies by a float factor, rounding to the nearest micro-unit.
    ///
    /// Used by the decision module to scale stakes by probabilities.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is NaN or the result overflows.
    pub fn scale(self, factor: f64) -> Money {
        assert!(!factor.is_nan(), "money scale by NaN");
        let v = self.0 as f64 * factor;
        assert!(
            v >= i64::MIN as f64 && v <= i64::MAX as f64,
            "money scale overflow"
        );
        Money(v.round() as i64)
    }

    /// The smaller of two amounts.
    pub fn min(self, other: Money) -> Money {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two amounts.
    pub fn max(self, other: Money) -> Money {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Clamps into `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn clamp(self, lo: Money, hi: Money) -> Money {
        assert!(lo <= hi, "Money::clamp: lo > hi");
        self.max(lo).min(hi)
    }
}

impl Add for Money {
    type Output = Money;
    /// # Panics
    ///
    /// Panics on overflow (always checked, also in release builds).
    fn add(self, rhs: Money) -> Money {
        self.checked_add(rhs).expect("money addition overflow")
    }
}

impl AddAssign for Money {
    fn add_assign(&mut self, rhs: Money) {
        *self = *self + rhs;
    }
}

impl Sub for Money {
    type Output = Money;
    /// # Panics
    ///
    /// Panics on overflow (always checked, also in release builds).
    fn sub(self, rhs: Money) -> Money {
        self.checked_sub(rhs).expect("money subtraction overflow")
    }
}

impl SubAssign for Money {
    fn sub_assign(&mut self, rhs: Money) {
        *self = *self - rhs;
    }
}

impl Neg for Money {
    type Output = Money;
    fn neg(self) -> Money {
        Money(self.0.checked_neg().expect("money negation overflow"))
    }
}

impl Mul<i64> for Money {
    type Output = Money;
    /// # Panics
    ///
    /// Panics on overflow.
    fn mul(self, rhs: i64) -> Money {
        Money(self.0.checked_mul(rhs).expect("money multiply overflow"))
    }
}

impl Div<i64> for Money {
    type Output = Money;
    /// Integer division on micro-units (truncates toward zero).
    ///
    /// # Panics
    ///
    /// Panics if `rhs == 0`.
    fn div(self, rhs: i64) -> Money {
        Money(self.0 / rhs)
    }
}

impl Sum for Money {
    fn sum<I: Iterator<Item = Money>>(iter: I) -> Money {
        iter.fold(Money::ZERO, |acc, m| acc + m)
    }
}

impl<'a> Sum<&'a Money> for Money {
    fn sum<I: Iterator<Item = &'a Money>>(iter: I) -> Money {
        iter.copied().sum()
    }
}

impl fmt::Display for Money {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = if self.0 < 0 { "-" } else { "" };
        let a = self.0.unsigned_abs();
        write!(
            f,
            "{sign}{}.{:06}",
            a / MICROS_PER_UNIT as u64,
            a % MICROS_PER_UNIT as u64
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructors() {
        assert_eq!(Money::from_units(3).as_micros(), 3_000_000);
        assert_eq!(Money::from_micros(42).as_micros(), 42);
        assert_eq!(Money::from_f64(1.5).as_micros(), 1_500_000);
        assert_eq!(Money::from_f64(-0.000001).as_micros(), -1);
        assert_eq!(Money::ZERO, Money::default());
    }

    #[test]
    fn rounding_from_f64() {
        assert_eq!(Money::from_f64(0.0000014).as_micros(), 1);
        assert_eq!(Money::from_f64(0.0000016).as_micros(), 2);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn from_f64_rejects_nan() {
        Money::from_f64(f64::NAN);
    }

    #[test]
    fn arithmetic() {
        let a = Money::from_units(5);
        let b = Money::from_units(2);
        assert_eq!(a + b, Money::from_units(7));
        assert_eq!(a - b, Money::from_units(3));
        assert_eq!(-a, Money::from_units(-5));
        assert_eq!(a * 3, Money::from_units(15));
        assert_eq!(a / 2, Money::from_f64(2.5));
        let mut c = a;
        c += b;
        c -= Money::from_units(1);
        assert_eq!(c, Money::from_units(6));
    }

    #[test]
    fn sum_iterators() {
        let xs = [Money::from_units(1), Money::from_units(2)];
        let owned: Money = xs.iter().copied().sum();
        let referenced: Money = xs.iter().sum();
        assert_eq!(owned, Money::from_units(3));
        assert_eq!(referenced, Money::from_units(3));
    }

    #[test]
    fn predicates() {
        assert!(Money::from_micros(1).is_positive());
        assert!(Money::from_micros(-1).is_negative());
        assert!(Money::ZERO.is_zero());
        assert_eq!(Money::from_units(-4).abs(), Money::from_units(4));
    }

    #[test]
    fn min_max_clamp() {
        let a = Money::from_units(1);
        let b = Money::from_units(2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(Money::from_units(5).clamp(a, b), b);
        assert_eq!(Money::from_units(-5).clamp(a, b), a);
        assert_eq!(Money::from_f64(1.5).clamp(a, b), Money::from_f64(1.5));
    }

    #[test]
    #[should_panic(expected = "lo > hi")]
    fn clamp_invalid() {
        Money::ZERO.clamp(Money::from_units(2), Money::from_units(1));
    }

    #[test]
    fn checked_ops_at_extremes() {
        assert_eq!(Money::MAX.checked_add(Money::from_micros(1)), None);
        assert_eq!(Money::MIN.checked_sub(Money::from_micros(1)), None);
        assert_eq!(Money::MAX.saturating_add(Money::from_units(1)), Money::MAX);
        assert_eq!(Money::MIN.saturating_sub(Money::from_units(1)), Money::MIN);
    }

    #[test]
    #[should_panic(expected = "addition overflow")]
    fn add_overflow_panics() {
        let _ = Money::MAX + Money::from_micros(1);
    }

    #[test]
    fn scale_rounds() {
        assert_eq!(Money::from_units(10).scale(0.5), Money::from_units(5));
        assert_eq!(Money::from_micros(3).scale(0.5), Money::from_micros(2)); // 1.5 -> 2
        assert_eq!(Money::from_units(10).scale(0.0), Money::ZERO);
        assert_eq!(Money::from_units(-10).scale(0.5), Money::from_units(-5));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Money::from_units(3).to_string(), "3.000000");
        assert_eq!(Money::from_micros(-1_500_000).to_string(), "-1.500000");
        assert_eq!(Money::from_micros(25).to_string(), "0.000025");
        assert_eq!(Money::ZERO.to_string(), "0.000000");
    }

    #[test]
    fn as_f64_roundtrip() {
        let m = Money::from_micros(1_234_567);
        assert!((m.as_f64() - 1.234567).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn add_commutes(a in -1_000_000_000i64..1_000_000_000, b in -1_000_000_000i64..1_000_000_000) {
            let (x, y) = (Money::from_micros(a), Money::from_micros(b));
            prop_assert_eq!(x + y, y + x);
        }

        #[test]
        fn add_sub_inverse(a in -1_000_000_000i64..1_000_000_000, b in -1_000_000_000i64..1_000_000_000) {
            let (x, y) = (Money::from_micros(a), Money::from_micros(b));
            prop_assert_eq!(x + y - y, x);
        }

        #[test]
        fn ordering_consistent_with_micros(a in any::<i32>(), b in any::<i32>()) {
            let (x, y) = (Money::from_micros(a as i64), Money::from_micros(b as i64));
            prop_assert_eq!(x < y, a < b);
        }

        #[test]
        fn display_parse_roundtrip_sign(a in -1_000_000_000i64..1_000_000_000) {
            let m = Money::from_micros(a);
            let s = m.to_string();
            prop_assert_eq!(s.starts_with('-'), a < 0);
        }

        #[test]
        fn scale_by_one_is_identity(a in -1_000_000_000i64..1_000_000_000) {
            let m = Money::from_micros(a);
            prop_assert_eq!(m.scale(1.0), m);
        }
    }
}
