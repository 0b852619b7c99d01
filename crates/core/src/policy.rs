//! Payment policies: where within the admissible window the consumer's
//! outstanding balance is steered.
//!
//! The safety window gives a *range* of admissible outstanding payments
//! before each delivery; any point in it yields a valid schedule. The
//! choice distributes realized risk between the parties:
//!
//! * [`PaymentPolicy::Lazy`] keeps payments as late as possible —
//!   consumer-favouring (minimal consumer prepayment risk).
//! * [`PaymentPolicy::Eager`] pays as early as allowed —
//!   supplier-favouring.
//! * [`PaymentPolicy::Balanced`] steers to the midpoint, splitting the
//!   realized exposure between the parties.
//!
//! Experiment E10 ablates the three policies.

use crate::money::Money;

/// Strategy for choosing the outstanding balance within `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PaymentPolicy {
    /// Pay the minimum required now (keep the outstanding balance high).
    #[default]
    Lazy,
    /// Pay the maximum allowed now (drive the outstanding balance low).
    Eager,
    /// Aim for the midpoint of the admissible range.
    Balanced,
}

impl PaymentPolicy {
    /// All policies, for ablation sweeps.
    pub const ALL: [PaymentPolicy; 3] = [
        PaymentPolicy::Lazy,
        PaymentPolicy::Eager,
        PaymentPolicy::Balanced,
    ];

    /// Stable label for report tables.
    pub fn label(self) -> &'static str {
        match self {
            PaymentPolicy::Lazy => "lazy",
            PaymentPolicy::Eager => "eager",
            PaymentPolicy::Balanced => "balanced",
        }
    }

    /// Chooses the post-payment outstanding balance within `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` (callers must establish feasibility first).
    pub fn choose_outstanding(self, lo: Money, hi: Money) -> Money {
        assert!(lo <= hi, "empty payment window: lo={lo} hi={hi}");
        match self {
            PaymentPolicy::Lazy => hi,
            PaymentPolicy::Eager => lo,
            PaymentPolicy::Balanced => Money::from_micros((lo.as_micros() + hi.as_micros()) / 2),
        }
    }
}

impl std::fmt::Display for PaymentPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lazy_keeps_high() {
        let lo = Money::from_units(1);
        let hi = Money::from_units(5);
        assert_eq!(PaymentPolicy::Lazy.choose_outstanding(lo, hi), hi);
    }

    #[test]
    fn eager_goes_low() {
        let lo = Money::from_units(1);
        let hi = Money::from_units(5);
        assert_eq!(PaymentPolicy::Eager.choose_outstanding(lo, hi), lo);
    }

    #[test]
    fn balanced_midpoint() {
        let lo = Money::from_units(1);
        let hi = Money::from_units(5);
        assert_eq!(
            PaymentPolicy::Balanced.choose_outstanding(lo, hi),
            Money::from_units(3)
        );
    }

    #[test]
    fn degenerate_window() {
        let x = Money::from_units(2);
        for p in PaymentPolicy::ALL {
            assert_eq!(p.choose_outstanding(x, x), x);
        }
    }

    #[test]
    fn balanced_midpoint_negative_lo() {
        let lo = Money::from_units(-3);
        let hi = Money::from_units(5);
        assert_eq!(
            PaymentPolicy::Balanced.choose_outstanding(lo, hi),
            Money::from_units(1)
        );
    }

    #[test]
    #[should_panic(expected = "empty payment window")]
    fn empty_window_panics() {
        PaymentPolicy::Lazy.choose_outstanding(Money::from_units(2), Money::from_units(1));
    }

    #[test]
    fn labels() {
        assert_eq!(PaymentPolicy::Lazy.to_string(), "lazy");
        assert_eq!(PaymentPolicy::default(), PaymentPolicy::Lazy);
        assert_eq!(PaymentPolicy::ALL.len(), 3);
    }
}
