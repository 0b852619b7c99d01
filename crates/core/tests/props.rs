//! Property tests for the safe-exchange core.
//!
//! The central invariants:
//!
//! 1. The greedy scheduler and the subset-DP ground truth agree on
//!    feasibility for every instance and margin.
//! 2. The greedy delivery order, under every payment policy, yields a
//!    sequence that passes the independent verifier, and its realized
//!    exposure stays within the margins.
//! 3. `min_required_margin` is exact: scheduling succeeds at the reported
//!    margin and fails one micro-unit below it.
//! 4. Feasibility is monotone in the margin.
//! 5. Honest execution of a scheduled sequence realizes exactly the
//!    deal's gains.

#[path = "../../../tests/support/subset_dp.rs"]
mod subset_dp;

use proptest::prelude::*;
use subset_dp::subset_dp_order;
use trustex_core::prelude::*;
use trustex_core::scheduler::{greedy_order, interleave_payments, required_margin_of_order};

/// Strategy: a goods set of 1..=8 items with costs/values in 0..=10 units
/// (micro-precision comes from the i64 micros range).
fn goods_strategy() -> impl Strategy<Value = Goods> {
    prop::collection::vec((0i64..=10_000_000, 0i64..=10_000_000), 1..=8).prop_map(|pairs| {
        Goods::new(
            pairs
                .into_iter()
                .map(|(c, v)| (Money::from_micros(c), Money::from_micros(v))),
        )
        .expect("non-empty, non-negative")
    })
}

fn margins_strategy() -> impl Strategy<Value = SafetyMargins> {
    (0i64..=8_000_000, 0i64..=8_000_000).prop_map(|(a, b)| {
        SafetyMargins::new(Money::from_micros(a), Money::from_micros(b)).expect("non-negative")
    })
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn greedy_agrees_with_subset_dp(goods in goods_strategy(), margins in margins_strategy()) {
        let greedy_feasible = feasible(&goods, margins);
        let dp = subset_dp_order(&goods, margins);
        prop_assert_eq!(greedy_feasible, dp.is_some(),
            "greedy and DP disagree: margin={:?} goods={:?}", margins, goods);
    }

    #[test]
    fn dp_order_respects_margin(goods in goods_strategy(), margins in margins_strategy()) {
        if let Some(order) = subset_dp_order(&goods, margins) {
            prop_assert!(required_margin_of_order(&goods, &order) <= margins.total());
        }
    }

    #[test]
    fn greedy_order_is_minimax(goods in goods_strategy()) {
        // No order can require less than the greedy order.
        let greedy_req = min_required_margin(&goods);
        let m = SafetyMargins::new(greedy_req, Money::ZERO).expect("non-negative");
        prop_assert!(subset_dp_order(&goods, m).is_some(),
            "DP infeasible at the greedy margin — greedy not optimal");
        if greedy_req > Money::ZERO {
            let below = SafetyMargins::new(greedy_req - Money::from_micros(1), Money::ZERO)
                .expect("non-negative");
            prop_assert!(subset_dp_order(&goods, below).is_none(),
                "DP feasible below the greedy margin — min margin not tight");
        }
    }

    #[test]
    fn scheduled_sequences_verify_and_respect_exposure(
        goods in goods_strategy(),
        margins in margins_strategy(),
        t in 0.0f64..=1.0,
    ) {
        prop_assume!(feasible(&goods, margins));
        let Some(deal) = deal_for(goods, t) else { return Ok(()); };
        let order = greedy_order(deal.goods());
        for policy in PaymentPolicy::ALL {
            let seq = interleave_payments(&deal, margins, &order, policy)
                .expect("feasible order must interleave");
            let v = verify(&deal, margins, seq)
                .unwrap_or_else(|e| panic!("greedy/{policy:?}: {e}"));
            // Exposure bounded by the margins.
            prop_assert!(v.max_consumer_temptation() <= margins.eps_supplier());
            prop_assert!(v.max_supplier_temptation() <= margins.eps_consumer());
            // Structure: every item delivered once, full price paid.
            prop_assert_eq!(v.sequence().delivery_count(), deal.goods().len());
            let paid: Money = v
                .sequence()
                .actions()
                .iter()
                .map(|a| match a {
                    Action::Pay(m) => *m,
                    Action::Deliver(_) => Money::ZERO,
                })
                .sum();
            prop_assert_eq!(paid, deal.price());
        }
        for policy in PaymentPolicy::ALL {
            let v = schedule(&deal, margins, policy).expect("feasible instance must schedule");
            prop_assert_eq!(v.sequence().delivery_count(), deal.goods().len());
        }
    }

    #[test]
    fn feasibility_monotone(goods in goods_strategy(), a in 0i64..=8_000_000, b in 0i64..=8_000_000) {
        let small = a.min(b);
        let large = a.max(b);
        let m_small = SafetyMargins::symmetric(Money::from_micros(small)).unwrap();
        let m_large = SafetyMargins::symmetric(Money::from_micros(large)).unwrap();
        if feasible(&goods, m_small) {
            prop_assert!(feasible(&goods, m_large), "feasibility must be monotone in margin");
        }
    }

    #[test]
    fn honest_execution_realizes_deal_gains(
        goods in goods_strategy(),
        t in 0.0f64..=1.0,
    ) {
        // Give a margin that always suffices: total cost is an upper
        // bound on the requirement (req(j) ≤ Vs(x_j) ≤ Vs(G) whenever the
        // suffix surplus is ≥ 0; pad with total value for safety).
        let eps = goods.total_supplier_cost() + goods.total_consumer_value();
        let margins = SafetyMargins::new(eps, eps).unwrap();
        prop_assume!(feasible(&goods, margins));
        let Some(deal) = deal_for(goods, t) else { return Ok(()); };
        let seq = schedule(&deal, margins, PaymentPolicy::Lazy)
            .expect("must schedule")
            .into_sequence();
        let out = execute(&deal, &seq, &mut Honest, &mut Honest);
        prop_assert!(out.status.is_completed());
        prop_assert_eq!(out.supplier_gain, deal.supplier_profit());
        prop_assert_eq!(out.consumer_gain, deal.consumer_surplus());
        prop_assert_eq!(out.welfare(), deal.goods().total_surplus());
    }

    #[test]
    fn rational_defector_with_margin_stake_never_defects(
        goods in goods_strategy(),
        eps_s in 0i64..=5_000_000,
        eps_c in 0i64..=5_000_000,
    ) {
        let margins = SafetyMargins::new(
            Money::from_micros(eps_s),
            Money::from_micros(eps_c),
        ).unwrap();
        prop_assume!(feasible(&goods, margins));
        let Some(deal) = deal_for(goods, 0.5) else { return Ok(()); };
        let seq = schedule(&deal, margins, PaymentPolicy::Balanced)
            .expect("must schedule")
            .into_sequence();
        // A rational party whose outside stake equals the tolerated bound
        // never strictly profits from defecting on a verified sequence.
        let mut sup = RationalDefector { stake: Money::from_micros(eps_c) };
        let mut con = RationalDefector { stake: Money::from_micros(eps_s) };
        let out = execute(&deal, &seq, &mut sup, &mut con);
        prop_assert!(out.status.is_completed(),
            "defection with stake ≥ ε on a verified sequence: {:?}", out);
    }

    #[test]
    fn verifier_rejects_mutated_sequences(
        goods in goods_strategy(),
        extra in 1i64..=1_000_000,
    ) {
        // Dropping the final payment (or adding an overpayment) must fail.
        let eps = goods.total_supplier_cost() + goods.total_consumer_value();
        let margins = SafetyMargins::new(eps, eps).unwrap();
        prop_assume!(feasible(&goods, margins));
        let Some(deal) = deal_for(goods, 0.5) else { return Ok(()); };
        let seq = schedule(&deal, margins, PaymentPolicy::Lazy)
            .expect("must schedule")
            .into_sequence();

        // Mutation 1: append an extra payment -> overpayment.
        let mut over = seq.clone();
        over.push(Action::Pay(Money::from_micros(extra)));
        prop_assert!(verify(&deal, margins, over).is_err());

        // Mutation 2: drop the last action -> incomplete.
        let actions = seq.actions();
        if actions.len() > 1 {
            let truncated = ExchangeSequence::new(actions[..actions.len() - 1].to_vec());
            prop_assert!(verify(&deal, margins, truncated).is_err());
        }
    }

    #[test]
    fn requirement_profile_suffix_identity(goods in goods_strategy()) {
        // req(n-1) for the greedy order's last item equals its Vs.
        let order = greedy_order(&goods);
        let profile = trustex_core::scheduler::requirement_profile(&goods, &order);
        let last = *order.last().unwrap();
        prop_assert_eq!(
            *profile.last().unwrap(),
            goods.item(last).supplier_cost()
        );
    }
}

mod game_props {
    use super::*;
    use trustex_core::game::{analyze, min_supporting_stake, Stakes};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The bridge between the scheduling theory and the game theory:
        /// a sequence scheduled and verified under margins (ε_s, ε_c) is
        /// a subgame-perfect equilibrium whenever each party's outside
        /// stake covers the exposure granted *against* it.
        #[test]
        fn verified_sequences_are_equilibria_under_covering_stakes(
            goods in goods_strategy(),
            eps_s in 0i64..=5_000_000,
            eps_c in 0i64..=5_000_000,
        ) {
            let margins = SafetyMargins::new(
                Money::from_micros(eps_s),
                Money::from_micros(eps_c),
            ).unwrap();
            prop_assume!(feasible(&goods, margins));
            let Some(deal) = deal_for(goods, 0.5) else { return Ok(()); };
            let seq = schedule(&deal, margins, PaymentPolicy::Lazy)
                .expect("feasible")
                .into_sequence();
            // Consumer temptation ≤ ε_s ⇒ consumer stake ε_s suffices;
            // symmetrically for the supplier.
            let stakes = Stakes {
                supplier: Money::from_micros(eps_c),
                consumer: Money::from_micros(eps_s),
            };
            let eq = analyze(&deal, &seq, stakes);
            prop_assert!(eq.completes, "{eq:?}");
            prop_assert_eq!(eq.supplier_value, deal.supplier_profit());
            prop_assert_eq!(eq.consumer_value, deal.consumer_surplus());
        }

        /// The minimal supporting symmetric stake never exceeds the
        /// margin the sequence was scheduled under.
        #[test]
        fn min_stake_bounded_by_margin(
            goods in goods_strategy(),
            eps in 0i64..=5_000_000,
        ) {
            let margins = SafetyMargins::symmetric(Money::from_micros(eps)).unwrap();
            prop_assume!(feasible(&goods, margins));
            let Some(deal) = deal_for(goods, 0.5) else { return Ok(()); };
            let seq = schedule(&deal, margins, PaymentPolicy::Balanced)
                .expect("feasible")
                .into_sequence();
            let stake = min_supporting_stake(&deal, &seq).expect("verified sequences supportable");
            prop_assert!(stake <= Money::from_micros(eps),
                "stake {} must not exceed margin {}", stake, eps);
        }

        /// Game analysis agrees with the execution engine: rational
        /// defectors with the covering stakes complete exactly when the
        /// equilibrium says so.
        #[test]
        fn game_agrees_with_execution(
            goods in goods_strategy(),
            stake in 0i64..=3_000_000,
        ) {
            let eps = goods.total_supplier_cost() + goods.total_consumer_value();
            let margins = SafetyMargins::new(eps, eps).unwrap();
            prop_assume!(feasible(&goods, margins));
            let Some(deal) = deal_for(goods, 0.5) else { return Ok(()); };
            let seq = schedule(&deal, margins, PaymentPolicy::Lazy)
                .expect("feasible")
                .into_sequence();
            let stakes = Stakes::symmetric(Money::from_micros(stake));
            let eq = analyze(&deal, &seq, stakes);
            if eq.completes {
                // If backward induction says complete, the (greedy,
                // peak-seeking) executed defectors cannot find a
                // profitable deviation either.
                let mut s = RationalDefector { stake: Money::from_micros(stake) };
                let mut c = RationalDefector { stake: Money::from_micros(stake) };
                let out = execute(&deal, &seq, &mut s, &mut c);
                prop_assert!(out.status.is_completed(),
                    "equilibrium completes but execution aborts: {:?}", out);
            }
        }
    }
}
