//! Exchange-scheduling strategies compared in experiments E4/E8.
//!
//! * [`Strategy::SafeOnly`] — zero margins: trade only when a fully safe
//!   sequence exists (Sandholm's original regime). Forgoes almost all
//!   trades but never loses to a defector.
//! * [`Strategy::TrustAware`] — the paper's contribution: margins from
//!   each party's trust estimate via the decision pipeline.
//! * [`Strategy::UnsafeDeliverFirst`] — no safety at all, supplier
//!   delivers everything before payment (maximal supplier exposure).
//! * [`Strategy::UnsafePayFirst`] — consumer prepays everything
//!   (maximal consumer exposure).

use trustex_core::deal::Deal;
use trustex_core::money::Money;
use trustex_core::policy::PaymentPolicy;
use trustex_core::safety::SafetyMargins;
use trustex_core::scheduler::schedule;
use trustex_core::sequence::ExchangeSequence;
use trustex_decision::exposure::ExposurePolicy;
use trustex_decision::negotiate::{plan_exchange, PartyInputs, PlanError};
use trustex_trust::model::TrustEstimate;

/// A scheduling strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Only fully safe sequences (ε = 0).
    SafeOnly,
    /// Trust-derived margins (the paper's scheme).
    TrustAware,
    /// Goods first, money afterwards; no safety analysis.
    UnsafeDeliverFirst,
    /// Money first, goods afterwards; no safety analysis.
    UnsafePayFirst,
}

impl Strategy {
    /// All strategies, for sweeps.
    pub const ALL: [Strategy; 4] = [
        Strategy::SafeOnly,
        Strategy::TrustAware,
        Strategy::UnsafeDeliverFirst,
        Strategy::UnsafePayFirst,
    ];

    /// Stable label for report tables.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::SafeOnly => "safe-only",
            Strategy::TrustAware => "trust-aware",
            Strategy::UnsafeDeliverFirst => "deliver-first",
            Strategy::UnsafePayFirst => "pay-first",
        }
    }
}

/// Why no exchange was scheduled.
#[derive(Debug, Clone, PartialEq)]
pub enum NoTrade {
    /// A party declined on its trust estimate (trust-aware only).
    Declined,
    /// The (possibly zero) margins admit no sequence.
    Infeasible,
}

/// The scheduling decision of a strategy for one deal.
pub fn plan(
    strategy: Strategy,
    deal: &Deal,
    supplier_trust_in_consumer: TrustEstimate,
    consumer_trust_in_supplier: TrustEstimate,
    policy: PaymentPolicy,
) -> Result<ExchangeSequence, NoTrade> {
    match strategy {
        Strategy::SafeOnly => schedule(deal, SafetyMargins::fully_safe(), policy)
            .map(|v| v.into_sequence())
            .map_err(|_| NoTrade::Infeasible),
        Strategy::TrustAware => {
            let mk_inputs = |trust: TrustEstimate| PartyInputs {
                trust_in_opponent: trust,
                exposure: ExposurePolicy::with_cap(deal.price()),
            };
            match plan_exchange(
                deal,
                mk_inputs(supplier_trust_in_consumer),
                mk_inputs(consumer_trust_in_supplier),
                policy,
            ) {
                Ok(nx) => Ok(nx.plan.into_sequence()),
                Err(PlanError::SupplierDeclined) | Err(PlanError::ConsumerDeclined) => {
                    Err(NoTrade::Declined)
                }
                Err(PlanError::MarginsTooTight { .. }) => Err(NoTrade::Infeasible),
            }
        }
        Strategy::UnsafeDeliverFirst | Strategy::UnsafePayFirst => {
            // Margins wide enough to admit any order; the payment policy
            // then pins the exposure to one side.
            let cap = deal.goods().total_consumer_value() + deal.price() + Money::from_units(1);
            let margins = SafetyMargins::new(cap, cap).expect("non-negative");
            let pay_policy = match strategy {
                Strategy::UnsafeDeliverFirst => PaymentPolicy::Lazy,
                _ => PaymentPolicy::Eager,
            };
            schedule(deal, margins, pay_policy)
                .map(|v| v.into_sequence())
                .map_err(|_| NoTrade::Infeasible)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trustex_core::goods::Goods;
    use trustex_core::sequence::Action;

    fn deal() -> Deal {
        let goods = Goods::from_f64_pairs(&[(2.0, 5.0), (1.0, 4.0), (3.0, 3.0)]).unwrap();
        Deal::new(goods, Money::from_units(9)).unwrap()
    }

    fn trusted() -> TrustEstimate {
        TrustEstimate::new(0.95, 1.0)
    }

    #[test]
    fn safe_only_refuses_positive_cost_deals() {
        let r = plan(
            Strategy::SafeOnly,
            &deal(),
            trusted(),
            trusted(),
            PaymentPolicy::Lazy,
        );
        assert_eq!(r.unwrap_err(), NoTrade::Infeasible);
    }

    #[test]
    fn trust_aware_trades_with_trust() {
        let seq = plan(
            Strategy::TrustAware,
            &deal(),
            trusted(),
            trusted(),
            PaymentPolicy::Lazy,
        )
        .expect("high trust trades");
        assert_eq!(seq.delivery_count(), 3);
    }

    #[test]
    fn trust_aware_declines_on_distrust() {
        let shady = TrustEstimate::new(0.1, 1.0);
        let r = plan(
            Strategy::TrustAware,
            &deal(),
            shady,
            trusted(),
            PaymentPolicy::Lazy,
        );
        assert_eq!(r.unwrap_err(), NoTrade::Declined);
    }

    #[test]
    fn deliver_first_ends_with_payment() {
        let seq = plan(
            Strategy::UnsafeDeliverFirst,
            &deal(),
            trusted(),
            trusted(),
            PaymentPolicy::Lazy,
        )
        .unwrap();
        assert!(matches!(seq.actions().last(), Some(Action::Pay(_))));
        // All deliveries precede the single payment.
        let first_pay = seq
            .actions()
            .iter()
            .position(|a| matches!(a, Action::Pay(_)))
            .unwrap();
        assert_eq!(first_pay, 3, "all 3 deliveries first: {:?}", seq.actions());
    }

    #[test]
    fn pay_first_starts_with_full_payment() {
        let seq = plan(
            Strategy::UnsafePayFirst,
            &deal(),
            trusted(),
            trusted(),
            PaymentPolicy::Lazy,
        )
        .unwrap();
        match seq.actions().first() {
            Some(Action::Pay(amount)) => assert_eq!(*amount, Money::from_units(9)),
            other => panic!("expected upfront payment, got {other:?}"),
        }
    }

    #[test]
    fn unsafe_strategies_ignore_trust() {
        let shady = TrustEstimate::new(0.0, 1.0);
        for s in [Strategy::UnsafeDeliverFirst, Strategy::UnsafePayFirst] {
            assert!(
                plan(s, &deal(), shady, shady, PaymentPolicy::Lazy).is_ok(),
                "{s:?} never declines"
            );
        }
    }

    #[test]
    fn labels() {
        assert_eq!(Strategy::ALL.len(), 4);
        assert_eq!(Strategy::SafeOnly.label(), "safe-only");
        assert_eq!(Strategy::TrustAware.label(), "trust-aware");
    }
}
