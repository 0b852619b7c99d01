//! Trust → exposure-bound translation: the paper's §3 step of turning
//! "decreased expected gains" into "the values the partners accept to be
//! indebted".
//!
//! A party that completes the exchange gains `G`. Accepting an exposure
//! bound `ε` means a defecting opponent can cost it at most `ε`; with the
//! opponent's estimated dishonesty probability `p̂`, the party's expected
//! gain drops by at most `p̂ · ε`. A party willing to give up the
//! fraction `b` of its gain (its *risk budget*, shaped by its
//! [`crate::risk::RiskProfile`]) therefore accepts
//!
//! ```text
//!   ε = b · G / p̂        (capped, and infinite trust ⇒ the cap)
//! ```
//!
//! The dishonesty estimate is used *pessimistically*: estimates with low
//! confidence are blended towards the ignorant prior `0.5` before use.

use crate::risk::RiskProfile;
use trustex_core::money::Money;
use trustex_trust::model::TrustEstimate;

/// Base fraction of the completion gain put at risk (the paper's
/// "decrease of the expected gains") before the risk attitude scales it.
const BASE_BUDGET_FRACTION: f64 = 0.1;

/// Parameters of the exposure computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExposurePolicy {
    /// The party's risk attitude, multiplying the base fraction of 10 %.
    pub risk: RiskProfile,
    /// Hard cap on the exposure bound (e.g. the deal price): no trust
    /// level justifies risking more than this.
    pub cap: Money,
}

impl ExposurePolicy {
    /// A conservative default: risk 10% of the gain, neutral attitude.
    pub fn with_cap(cap: Money) -> ExposurePolicy {
        ExposurePolicy {
            risk: RiskProfile::Neutral,
            cap,
        }
    }
}

/// Blends an estimate towards the ignorant prior according to its
/// confidence: full confidence uses `p̂` as-is, zero confidence uses 0.5.
pub fn effective_dishonesty(estimate: TrustEstimate) -> f64 {
    let c = estimate.confidence.clamp(0.0, 1.0);
    c * estimate.p_dishonest() + (1.0 - c) * 0.5
}

/// Computes the exposure bound a party grants its opponent.
///
/// `gain` is the party's gain from completion (supplier profit or
/// consumer surplus). Returns zero when the gain is non-positive — a
/// party with nothing to win risks nothing.
///
/// # Examples
///
/// ```
/// use trustex_core::money::Money;
/// use trustex_decision::exposure::{exposure_bound, ExposurePolicy};
/// use trustex_trust::model::TrustEstimate;
///
/// let policy = ExposurePolicy::with_cap(Money::from_units(100));
/// // A fully trusted opponent (p_dishonest = 0.02 at high confidence):
/// let trusted = TrustEstimate::new(0.98, 1.0);
/// let eps_hi = exposure_bound(trusted, Money::from_units(10), policy);
/// // A distrusted opponent:
/// let shady = TrustEstimate::new(0.5, 1.0);
/// let eps_lo = exposure_bound(shady, Money::from_units(10), policy);
/// assert!(eps_hi > eps_lo);
/// ```
pub fn exposure_bound(opponent: TrustEstimate, gain: Money, policy: ExposurePolicy) -> Money {
    if !gain.is_positive() {
        return Money::ZERO;
    }
    let budget = gain.scale(BASE_BUDGET_FRACTION * policy.risk.multiplier());
    let p = effective_dishonesty(opponent);
    if p <= 0.0 {
        return policy.cap; // infinite trust: only the cap binds
    }
    budget.scale(1.0 / p).min(policy.cap).max(Money::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> ExposurePolicy {
        ExposurePolicy::with_cap(Money::from_units(1_000))
    }

    #[test]
    fn effective_dishonesty_blends_with_confidence() {
        let certain = TrustEstimate::new(0.9, 1.0);
        assert!((effective_dishonesty(certain) - 0.1).abs() < 1e-12);
        let ignorant = TrustEstimate::new(0.9, 0.0);
        assert!((effective_dishonesty(ignorant) - 0.5).abs() < 1e-12);
        let half = TrustEstimate::new(0.9, 0.5);
        assert!((effective_dishonesty(half) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn bound_formula() {
        // gain 100, budget 10% = 10, p̂ = 0.2 ⇒ ε = 50.
        let est = TrustEstimate::new(0.8, 1.0);
        let eps = exposure_bound(est, Money::from_units(100), policy());
        assert_eq!(eps, Money::from_units(50));
    }

    #[test]
    fn bound_monotone_in_trust() {
        let gain = Money::from_units(100);
        let mut last = Money::ZERO;
        for p_honest in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let eps = exposure_bound(TrustEstimate::new(p_honest, 1.0), gain, policy());
            assert!(eps >= last, "exposure must grow with trust");
            last = eps;
        }
    }

    #[test]
    fn cap_binds_at_full_trust() {
        let est = TrustEstimate::new(1.0, 1.0); // p̂ = 0
        let eps = exposure_bound(est, Money::from_units(100), policy());
        assert_eq!(eps, policy().cap);
    }

    #[test]
    fn zero_gain_zero_exposure() {
        let est = TrustEstimate::new(0.9, 1.0);
        assert_eq!(exposure_bound(est, Money::ZERO, policy()), Money::ZERO);
        assert_eq!(
            exposure_bound(est, Money::from_units(-5), policy()),
            Money::ZERO
        );
    }

    #[test]
    fn risk_attitude_scales_bound() {
        let est = TrustEstimate::new(0.8, 1.0);
        let gain = Money::from_units(100);
        let averse = ExposurePolicy {
            risk: RiskProfile::Averse,
            ..policy()
        };
        let seeking = ExposurePolicy {
            risk: RiskProfile::Seeking,
            ..policy()
        };
        let e_neutral = exposure_bound(est, gain, policy());
        let e_averse = exposure_bound(est, gain, averse);
        let e_seeking = exposure_bound(est, gain, seeking);
        assert_eq!(e_averse, e_neutral.scale(0.5));
        assert_eq!(e_seeking, e_neutral.scale(2.0));
    }

    #[test]
    fn unknown_opponent_uses_prior() {
        // Unknown opponent: p_eff = 0.5 ⇒ ε = 2 × budget.
        let eps = exposure_bound(TrustEstimate::UNKNOWN, Money::from_units(100), policy());
        assert_eq!(eps, Money::from_units(20));
    }

    #[test]
    fn with_cap_constructor() {
        let p = ExposurePolicy::with_cap(Money::from_units(7));
        assert_eq!(p.cap, Money::from_units(7));
        assert_eq!(p.risk, RiskProfile::Neutral);
    }
}
