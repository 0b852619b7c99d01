//! Properties of the scheduler's error path and payment interleaving.
//!
//! Below the minimal margin the greedy order does not fit and every
//! `Infeasible` carries the true minimal margin, and
//! `interleave_payments` preserves action-count and running-balance
//! invariants under random feasible orders. The subset-DP oracle refuses
//! instances beyond its cap. The differential suites that pin the
//! reference order sources (Sandholm, branch-and-bound) against these
//! live beside E2 in the market crate.

#[path = "../../../tests/support/subset_dp.rs"]
mod subset_dp;

use proptest::prelude::*;
use subset_dp::{subset_dp_order, SUBSET_DP_MAX_ITEMS};
use trustex_core::prelude::*;
use trustex_core::scheduler::{greedy_order, interleave_payments, required_margin_of_order};

/// Goods of `1..=max_n` items with costs/values in 0..=10 units.
fn goods_strategy(max_n: usize) -> impl Strategy<Value = Goods> {
    prop::collection::vec((0i64..=10_000_000, 0i64..=10_000_000), 1..=max_n).prop_map(|pairs| {
        Goods::new(
            pairs
                .into_iter()
                .map(|(c, v)| (Money::from_micros(c), Money::from_micros(v))),
        )
        .expect("non-empty, non-negative")
    })
}

/// Total-margin helper.
fn at(total: Money) -> SafetyMargins {
    SafetyMargins::new(total, Money::ZERO).expect("non-negative")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Below the minimum margin the greedy order does not fit, and every
    /// `Infeasible` carries the true minimal margin: `schedule`'s and
    /// `interleave_payments`' reported `required` matches
    /// `min_required_margin`.
    #[test]
    fn infeasible_error_carries_true_min_margin(
        goods in goods_strategy(12),
        below in 1i64..=2_000_000,
        t in 0.0f64..=1.0,
    ) {
        let req = min_required_margin(&goods);
        prop_assume!(req > Money::ZERO);
        let m = at((req - Money::from_micros(below)).max(Money::ZERO));
        let infeasible = ScheduleError::Infeasible { required: req, available: m.total() };
        prop_assert!(
            required_margin_of_order(&goods, &greedy_order(&goods)) > m.total(),
            "greedy ordered below the minimum margin"
        );
        if let Some(deal) = deal_for(goods.clone(), t) {
            let err = schedule(&deal, m, PaymentPolicy::Lazy)
                .expect_err("margins below the minimum must fail");
            prop_assert_eq!(err, infeasible.clone());
            let err = interleave_payments(&deal, m, &greedy_order(&goods), PaymentPolicy::Lazy)
                .expect_err("an order below its requirement must not interleave");
            prop_assert_eq!(err, infeasible);
        }
    }

    /// `interleave_payments` structural invariants under *random* feasible
    /// orders (not just scheduler-produced ones): every item delivered
    /// exactly once, the full price paid, payments strictly positive, and
    /// the running balance never overshoots.
    #[test]
    fn interleave_preserves_action_and_balance_invariants(
        goods in goods_strategy(10),
        shuffle_seed in 0u64..u64::MAX,
        t in 0.0f64..=1.0,
    ) {
        // A uniformly shuffled delivery order, made feasible by granting
        // exactly the margin it requires.
        let mut order: Vec<ItemId> = goods.ids().collect();
        let mut s = shuffle_seed;
        for i in (1..order.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (s >> 33) as usize % (i + 1));
        }
        let m = at(required_margin_of_order(&goods, &order));
        let Some(deal) = deal_for(goods.clone(), t) else { return Ok(()); };
        for policy in PaymentPolicy::ALL {
            let seq = interleave_payments(&deal, m, &order, policy)
                .expect("order is feasible at its own margin");
            let n = goods.len();
            prop_assert_eq!(seq.delivery_count(), n, "{:?}", policy);
            prop_assert!(seq.actions().len() <= 2 * n + 1, "{:?}", policy);
            let paid: Money = seq.actions().iter().map(|a| match a {
                Action::Pay(m) => *m,
                Action::Deliver(_) => Money::ZERO,
            }).sum();
            prop_assert_eq!(paid, deal.price(), "{:?}", policy);
            // Deliveries follow the requested order exactly.
            let delivered: Vec<ItemId> = seq.actions().iter().filter_map(|a| match a {
                Action::Deliver(id) => Some(*id),
                Action::Pay(_) => None,
            }).collect();
            prop_assert_eq!(&delivered, &order, "{:?}", policy);
            // Running balance: payments are strictly positive, never
            // exceed the outstanding amount, and sum exactly to P.
            let mut outstanding = deal.price();
            for action in seq.actions() {
                if let Action::Pay(p) = action {
                    prop_assert!(p.is_positive(), "{:?}: non-positive payment", policy);
                    prop_assert!(*p <= outstanding, "{:?}: overpayment", policy);
                    outstanding -= *p;
                }
            }
            prop_assert!(outstanding.is_zero(), "{:?}: residual {}", policy, outstanding);
        }
    }
}

/// A valid price for the goods: Vs(G) + t · (Vc(G) − Vs(G)).
fn deal_for(goods: Goods, t: f64) -> Option<Deal> {
    let lo = goods.total_supplier_cost();
    let hi = goods.total_consumer_value();
    if hi < lo {
        return None; // negative-total-surplus set: no rational price
    }
    let price = lo + (hi - lo).scale(t);
    Deal::new(goods, price).ok()
}

/// The subset DP answers at its cap and refuses one item over it.
#[test]
fn subset_dp_refuses_beyond_its_cap() {
    // All-expensive items (every Vs above any achievable collateral at
    // ε = 0) so the at-cap run answers `None` without exploring the
    // exponential state space — the cap check happens before any search.
    let instance = |n: usize| Goods::from_f64_pairs(&vec![(10.0, 1.0); n]).expect("non-empty");
    let tight = SafetyMargins::fully_safe();

    assert_eq!(subset_dp_order(&instance(SUBSET_DP_MAX_ITEMS), tight), None);
    let over =
        std::panic::catch_unwind(|| subset_dp_order(&instance(SUBSET_DP_MAX_ITEMS + 1), tight));
    assert!(
        over.is_err(),
        "the DP must refuse {} items",
        SUBSET_DP_MAX_ITEMS + 1
    );
}
