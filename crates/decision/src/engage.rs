//! The engage-or-decline decision: Figure 1's right-hand module.
//!
//! Before scheduling anything, each party decides whether the exchange is
//! worth entering at all: the expected gain under the trust estimate —
//! completion gain on honest behaviour, worst-case exposure loss on
//! defection — must not be negative, and the opponent must not be more
//! likely dishonest than honest.

use trustex_core::money::Money;
use trustex_trust::model::TrustEstimate;

use crate::exposure::effective_dishonesty;

/// Why an exchange was declined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeclineReason {
    /// Expected gain below zero.
    ExpectedGainTooLow,
    /// The opponent's dishonesty estimate exceeds the hard limit.
    OpponentTooRisky,
}

/// Outcome of the engagement decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Engagement {
    /// Proceed to scheduling; the expected gain is attached.
    Engage {
        /// Expected gain under the trust estimate.
        expected_gain: Money,
    },
    /// Do not trade.
    Decline {
        /// Why.
        reason: DeclineReason,
    },
}

/// Least acceptable expected gain.
const MIN_EXPECTED_GAIN: Money = Money::ZERO;

/// Hard ceiling on the opponent's effective dishonesty probability;
/// above it a party refuses regardless of stakes.
const MAX_DISHONESTY: f64 = 0.5;

/// Decides whether to enter an exchange.
///
/// `gain` is the party's completion gain; `exposure` the bound it would
/// grant (its worst-case loss). Expected gain =
/// `(1 − p̂)·gain − p̂·exposure` with `p̂` the confidence-blended
/// dishonesty estimate. The party declines when `p̂` exceeds ½ or the
/// expected gain is negative.
///
/// # Examples
///
/// ```
/// use trustex_core::money::Money;
/// use trustex_decision::engage::{decide, Engagement};
/// use trustex_trust::model::TrustEstimate;
///
/// let trusted = TrustEstimate::new(0.95, 1.0);
/// let d = decide(trusted, Money::from_units(10), Money::from_units(5));
/// assert!(matches!(d, Engagement::Engage { .. }));
/// ```
pub fn decide(opponent: TrustEstimate, gain: Money, exposure: Money) -> Engagement {
    let p = effective_dishonesty(opponent);
    if p > MAX_DISHONESTY {
        return Engagement::Decline {
            reason: DeclineReason::OpponentTooRisky,
        };
    }
    let expected = gain.scale(1.0 - p) - exposure.scale(p);
    if expected < MIN_EXPECTED_GAIN {
        Engagement::Decline {
            reason: DeclineReason::ExpectedGainTooLow,
        }
    } else {
        Engagement::Engage {
            expected_gain: expected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trusted_opponent_engaged() {
        let d = decide(
            TrustEstimate::new(0.95, 1.0),
            Money::from_units(10),
            Money::from_units(5),
        );
        match d {
            Engagement::Engage { expected_gain } => {
                // 0.95·10 − 0.05·5 = 9.25.
                assert_eq!(expected_gain, Money::from_f64(9.25));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn risky_opponent_declined_hard() {
        let d = decide(
            TrustEstimate::new(0.2, 1.0), // p̂ = 0.8 > 0.5
            Money::from_units(1_000),
            Money::ZERO,
        );
        assert_eq!(
            d,
            Engagement::Decline {
                reason: DeclineReason::OpponentTooRisky
            }
        );
    }

    #[test]
    fn low_expected_gain_declined() {
        // p̂ = 0.4: expected = 0.6·1 − 0.4·10 = −3.4 < 0.
        let d = decide(
            TrustEstimate::new(0.6, 1.0),
            Money::from_units(1),
            Money::from_units(10),
        );
        assert_eq!(
            d,
            Engagement::Decline {
                reason: DeclineReason::ExpectedGainTooLow
            }
        );
    }

    #[test]
    fn unknown_opponent_at_prior_boundary() {
        // Unknown ⇒ p_eff = 0.5, exactly at the ceiling: allowed.
        let d = decide(TrustEstimate::UNKNOWN, Money::from_units(10), Money::ZERO);
        assert!(
            matches!(d, Engagement::Engage { .. }),
            "boundary is inclusive"
        );
    }

    #[test]
    fn threshold_respected() {
        // p̂ = 0.5: expected = 0.5·10 − 0.5·10 = 0, exactly at the
        // threshold: allowed.
        let even = TrustEstimate::new(0.5, 1.0);
        let d = decide(even, Money::from_units(10), Money::from_units(10));
        assert_eq!(
            d,
            Engagement::Engage {
                expected_gain: Money::ZERO
            }
        );
        // expected = 0.5·10 − 0.5·11 = −0.5 < 0.
        let d = decide(even, Money::from_units(10), Money::from_units(11));
        assert_eq!(
            d,
            Engagement::Decline {
                reason: DeclineReason::ExpectedGainTooLow
            }
        );
    }
}
