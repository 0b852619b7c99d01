//! Bilateral planning: both parties' trust estimates → safety margins →
//! a scheduled, verified exchange.
//!
//! This is the paper's full §3 pipeline in one call: each side derives
//! the exposure bound it accepts from its trust in the other and its
//! risk attitude; the bounds become [`SafetyMargins`]; the scheduler
//! finds a sequence within them or reports the margin that would have
//! been needed.

use crate::engage::{decide, Engagement};
use crate::exposure::{exposure_bound, ExposurePolicy};
use trustex_core::deal::Deal;
use trustex_core::policy::PaymentPolicy;
use trustex_core::safety::SafetyMargins;
use trustex_core::scheduler::{min_required_margin, schedule, ScheduleError};
use trustex_core::sequence::VerifiedSequence;
use trustex_trust::model::TrustEstimate;

/// One party's inputs to the negotiation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartyInputs {
    /// The party's trust estimate of its *opponent*.
    pub trust_in_opponent: TrustEstimate,
    /// The party's exposure policy (risk attitude and cap).
    pub exposure: ExposurePolicy,
}

/// Why planning failed.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// The supplier declined to engage.
    SupplierDeclined,
    /// The consumer declined to engage.
    ConsumerDeclined,
    /// Both engaged but the margins their trust supports are too tight;
    /// carries what would have been needed vs granted (in micro-units of
    /// the total margin).
    MarginsTooTight {
        /// Minimal total margin that would make the deal schedulable
        /// (micro-units).
        required_micros: i64,
        /// Total margin the parties granted (micro-units).
        available_micros: i64,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::SupplierDeclined => write!(f, "supplier declined to engage"),
            PlanError::ConsumerDeclined => write!(f, "consumer declined to engage"),
            PlanError::MarginsTooTight {
                required_micros,
                available_micros,
            } => write!(
                f,
                "trust-supported margins too tight: required {required_micros}µ, available {available_micros}µ"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// A successful negotiation: margins plus a verified schedule.
#[derive(Debug, Clone)]
pub struct NegotiatedExchange {
    /// The margins both sides granted.
    pub margins: SafetyMargins,
    /// The scheduled and independently verified sequence.
    pub plan: VerifiedSequence,
}

/// Runs the full §3 pipeline.
///
/// # Errors
///
/// [`PlanError`] when either side declines or the margins don't support
/// any sequence.
///
/// # Examples
///
/// ```
/// use trustex_core::prelude::*;
/// use trustex_decision::negotiate::{plan_exchange, PartyInputs};
/// use trustex_decision::exposure::ExposurePolicy;
/// use trustex_trust::model::TrustEstimate;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let goods = Goods::from_f64_pairs(&[(2.0, 5.0), (1.0, 4.0)])?;
/// let deal = Deal::with_split_surplus(goods)?;
/// let inputs = PartyInputs {
///     trust_in_opponent: TrustEstimate::new(0.95, 0.9),
///     exposure: ExposurePolicy::with_cap(deal.price()),
/// };
/// let nx = plan_exchange(&deal, inputs, inputs, PaymentPolicy::Lazy)?;
/// assert!(nx.plan.sequence().delivery_count() == 2);
/// # Ok(())
/// # }
/// ```
pub fn plan_exchange(
    deal: &Deal,
    supplier: PartyInputs,
    consumer: PartyInputs,
    policy: PaymentPolicy,
) -> Result<NegotiatedExchange, PlanError> {
    // Each side translates trust into the exposure bound it tolerates.
    let eps_s = exposure_bound(
        supplier.trust_in_opponent,
        deal.supplier_profit(),
        supplier.exposure,
    );
    let eps_c = exposure_bound(
        consumer.trust_in_opponent,
        deal.consumer_surplus(),
        consumer.exposure,
    );

    // Engagement checks with the derived worst-case exposures.
    let s_decision = decide(supplier.trust_in_opponent, deal.supplier_profit(), eps_s);
    if !matches!(s_decision, Engagement::Engage { .. }) {
        return Err(PlanError::SupplierDeclined);
    }
    let c_decision = decide(consumer.trust_in_opponent, deal.consumer_surplus(), eps_c);
    if !matches!(c_decision, Engagement::Engage { .. }) {
        return Err(PlanError::ConsumerDeclined);
    }

    let margins =
        SafetyMargins::new(eps_s, eps_c).expect("exposure bounds are non-negative by construction");
    match schedule(deal, margins, policy) {
        Ok(plan) => Ok(NegotiatedExchange { margins, plan }),
        Err(ScheduleError::Infeasible {
            required,
            available,
        }) => Err(PlanError::MarginsTooTight {
            required_micros: required.as_micros(),
            available_micros: available.as_micros(),
        }),
    }
}

/// The minimal *symmetric-trust* level at which a deal becomes
/// schedulable under the given exposure policies: returns the smallest
/// `p_honest` (searched at full confidence, to 10⁻³ resolution) such
/// that the derived margins cover [`min_required_margin`]. `None` when
/// even full trust (capped exposure) is insufficient.
pub fn min_trust_to_trade(
    deal: &Deal,
    supplier_policy: ExposurePolicy,
    consumer_policy: ExposurePolicy,
) -> Option<f64> {
    let needed = min_required_margin(deal.goods());
    let margins_at = |p: f64| {
        let est = TrustEstimate::new(p, 1.0);
        let eps_s = exposure_bound(est, deal.supplier_profit(), supplier_policy);
        let eps_c = exposure_bound(est, deal.consumer_surplus(), consumer_policy);
        eps_s + eps_c
    };
    if margins_at(1.0) < needed {
        return None;
    }
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    // Exposure is monotone in trust: bisect.
    while hi - lo > 1e-3 {
        let mid = 0.5 * (lo + hi);
        if margins_at(mid) >= needed {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trustex_core::goods::Goods;
    use trustex_core::money::Money;

    fn deal() -> Deal {
        let goods = Goods::from_f64_pairs(&[(2.0, 5.0), (1.0, 4.0), (3.0, 3.0)]).unwrap();
        Deal::new(goods, Money::from_units(9)).unwrap()
    }

    fn inputs(p_honest: f64, confidence: f64) -> PartyInputs {
        PartyInputs {
            trust_in_opponent: TrustEstimate::new(p_honest, confidence),
            exposure: ExposurePolicy::with_cap(Money::from_units(9)),
        }
    }

    #[test]
    fn high_trust_schedules() {
        let d = deal();
        let nx = plan_exchange(
            &d,
            inputs(0.95, 1.0),
            inputs(0.95, 1.0),
            PaymentPolicy::Lazy,
        )
        .expect("high trust must trade");
        assert!(nx.margins.total() >= min_required_margin(d.goods()));
        assert_eq!(nx.plan.sequence().delivery_count(), 3);
    }

    #[test]
    fn low_trust_declines_or_fails() {
        let d = deal();
        let err = plan_exchange(&d, inputs(0.1, 1.0), inputs(0.95, 1.0), PaymentPolicy::Lazy)
            .unwrap_err();
        assert_eq!(err, PlanError::SupplierDeclined);
        let err = plan_exchange(&d, inputs(0.95, 1.0), inputs(0.1, 1.0), PaymentPolicy::Lazy)
            .unwrap_err();
        assert_eq!(err, PlanError::ConsumerDeclined);
    }

    /// A deal whose required margin (3 = the single item's cost) dwarfs
    /// the gains (0.5 each side), so trust-derived margins cannot cover
    /// it at any credible estimate.
    fn tight_deal() -> Deal {
        let goods = Goods::from_f64_pairs(&[(3.0, 4.0)]).unwrap();
        Deal::new(goods, Money::from_f64(3.5)).unwrap()
    }

    #[test]
    fn moderate_trust_margins_too_tight() {
        let d = tight_deal();
        assert_eq!(min_required_margin(d.goods()), Money::from_units(3));
        // p̂ = 0.45 ≤ ceiling ⇒ both engage; ε each ≈ 0.05/0.45 ≈ 0.11.
        let err = plan_exchange(
            &d,
            inputs(0.55, 1.0),
            inputs(0.55, 1.0),
            PaymentPolicy::Lazy,
        )
        .unwrap_err();
        match err {
            PlanError::MarginsTooTight {
                required_micros,
                available_micros,
            } => {
                assert_eq!(required_micros, 3_000_000);
                assert!(available_micros < required_micros);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn min_trust_to_trade_bisection() {
        // deal(): required margin 1; each side's budget is 0.3, so the
        // *margin* threshold solves 0.6/(1−p) = 1 ⇒ p ≈ 0.4.
        let d = deal();
        let policy = ExposurePolicy::with_cap(d.price());
        let p = min_trust_to_trade(&d, policy, policy).expect("full trust suffices (cap = 9)");
        assert!((0.3..0.6).contains(&p), "threshold should be ≈0.4: {p}");
        // At the threshold the derived margins cover the requirement…
        let est = TrustEstimate::new(p, 1.0);
        let eps_s = crate::exposure::exposure_bound(est, d.supplier_profit(), policy);
        let eps_c = crate::exposure::exposure_bound(est, d.consumer_surplus(), policy);
        assert!(eps_s + eps_c >= min_required_margin(d.goods()));
        // …and distinctly below they don't (decline or tight margins).
        assert!(plan_exchange(
            &d,
            inputs((p - 0.05).max(0.0), 1.0),
            inputs((p - 0.05).max(0.0), 1.0),
            PaymentPolicy::Lazy
        )
        .is_err());
        // Comfortably above both the margin and engagement thresholds the
        // trade goes through.
        let nx = plan_exchange(
            &d,
            inputs(p.max(0.55), 1.0),
            inputs(p.max(0.55), 1.0),
            PaymentPolicy::Lazy,
        );
        assert!(nx.is_ok(), "trade must work above the threshold: {nx:?}");
    }

    #[test]
    fn min_trust_none_when_cap_too_small() {
        let goods = Goods::from_f64_pairs(&[(5.0, 6.0)]).unwrap();
        let d = Deal::new(goods, Money::from_units(6)).unwrap();
        // Requirement = 5; caps of 1 each can cover at most 2.
        let tight = ExposurePolicy::with_cap(Money::from_units(1));
        assert_eq!(min_trust_to_trade(&d, tight, tight), None);
    }

    #[test]
    fn unknown_estimates_follow_prior_path() {
        let d = tight_deal();
        // Unknown opponents: p_eff = 0.5, at the default ceiling; the
        // margins derived from the prior are small (≈0.1 a side), so the
        // plan fails with tight margins rather than a decline.
        let r = plan_exchange(&d, inputs(0.5, 0.0), inputs(0.5, 0.0), PaymentPolicy::Lazy);
        assert!(matches!(r, Err(PlanError::MarginsTooTight { .. })), "{r:?}");
    }

    #[test]
    fn plan_error_display() {
        let e = PlanError::MarginsTooTight {
            required_micros: 5,
            available_micros: 3,
        };
        assert!(e.to_string().contains("required 5µ"));
        assert_eq!(
            PlanError::SupplierDeclined.to_string(),
            "supplier declined to engage"
        );
    }
}
