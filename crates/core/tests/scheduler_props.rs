//! Differential properties pinning the scheduler rewrite.
//!
//! Four oracles, one truth:
//!
//! 1. [`branch_and_bound_order`] agrees with the independent
//!    [`subset_dp_order`] on feasibility wherever both run.
//! 2. The greedy order's required margin is the *exact* minimum — the
//!    paper's optimality claim — certified against branch-and-bound,
//!    whose infeasibility verdicts never consult the greedy heuristic.
//! 3. [`sandholm_order`] succeeds iff the instance is feasible at ε and
//!    its output margin never exceeds ε.
//! 4. The indexed `O(n log n)` sandholm reproduces the original `O(n²)`
//!    scan bit-for-bit on the identical instance stream.
//!
//! Plus error-path coverage: below the minimal margin no order source
//! finds an order and `Infeasible` carries the true minimal margin,
//! `TooManyItems` fires exactly at each exact-solver cap, and
//! `interleave_payments` preserves action-count and running-balance
//! invariants under random feasible orders.

mod oracle;

use oracle::{order_sources, subset_dp_order, SUBSET_DP_MAX_ITEMS};
use proptest::prelude::*;
use trustex_core::prelude::*;
use trustex_core::scheduler::{
    branch_and_bound_order, greedy_order, interleave_payments, required_margin_of_order,
    sandholm_order, sandholm_order_scan, TooManyItems, BRANCH_AND_BOUND_MAX_ITEMS,
};

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

fn margins_strategy() -> impl Strategy<Value = SafetyMargins> {
    (0i64..=8_000_000, 0i64..=8_000_000).prop_map(|(a, b)| {
        SafetyMargins::new(Money::from_micros(a), Money::from_micros(b)).expect("non-negative")
    })
}

/// Total-margin helper.
fn at(total: Money) -> SafetyMargins {
    SafetyMargins::new(total, Money::ZERO).expect("non-negative")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Oracle vs oracle: branch-and-bound and subset DP agree on
    /// feasibility for every instance within the DP's comfortable range,
    /// and a returned order actually fits the margin.
    #[test]
    fn bnb_agrees_with_subset_dp(goods in goods_strategy(16), margins in margins_strategy()) {
        let dp = subset_dp_order(&goods, margins).expect("within DP cap");
        let bnb = branch_and_bound_order(&goods, margins).expect("within bnb cap");
        prop_assert_eq!(dp.is_some(), bnb.is_some(),
            "bnb and DP disagree: margins={:?} goods={:?}", margins, goods);
        if let Some(order) = bnb {
            prop_assert!(required_margin_of_order(&goods, &order) <= margins.total());
        }
    }

    /// The paper's optimality claim, certified by the exact oracle: the
    /// greedy order's required margin is feasible, and one micro-unit
    /// less is not.
    #[test]
    fn greedy_margin_is_exact_minimum(goods in goods_strategy(16)) {
        let req = required_margin_of_order(&goods, &greedy_order(&goods));
        prop_assert_eq!(req, min_required_margin(&goods));
        prop_assert!(branch_and_bound_order(&goods, at(req)).expect("size ok").is_some(),
            "bnb infeasible at the greedy margin — greedy not optimal");
        if req > Money::ZERO {
            prop_assert!(
                branch_and_bound_order(&goods, at(req - Money::from_micros(1)))
                    .expect("size ok")
                    .is_none(),
                "bnb feasible below the greedy margin — min margin not tight");
        }
    }

    /// Sandholm is complete and sound at its margin: it succeeds iff the
    /// instance is feasible at ε, and the order it emits never needs
    /// more than ε.
    #[test]
    fn sandholm_succeeds_iff_feasible(goods in goods_strategy(20), margins in margins_strategy()) {
        match sandholm_order(&goods, margins) {
            Ok(order) => {
                prop_assert!(feasible(&goods, margins));
                prop_assert!(required_margin_of_order(&goods, &order) <= margins.total());
            }
            Err(ScheduleError::Infeasible { required, available }) => {
                prop_assert!(!feasible(&goods, margins));
                prop_assert_eq!(required, min_required_margin(&goods));
                prop_assert_eq!(available, margins.total());
            }
        }
    }

    /// The indexed sandholm is the scan, bit for bit: same success
    /// orders, same errors, same error payloads, on the identical
    /// instance stream.
    #[test]
    fn indexed_sandholm_matches_scan(goods in goods_strategy(20), margins in margins_strategy()) {
        prop_assert_eq!(
            sandholm_order(&goods, margins),
            sandholm_order_scan(&goods, margins)
        );
    }

    /// Tight margins: both sandholm variants agree along the exact
    /// feasibility boundary, where the error path is actually exercised.
    #[test]
    fn indexed_sandholm_matches_scan_at_boundary(
        goods in goods_strategy(20),
        below in 1i64..=1_000_000,
    ) {
        let req = min_required_margin(&goods);
        for total in [req, (req - Money::from_micros(below)).max(Money::ZERO)] {
            let m = at(total);
            prop_assert_eq!(sandholm_order(&goods, m), sandholm_order_scan(&goods, m));
        }
    }

    /// Below the minimum margin no order source finds an order, and every
    /// `Infeasible` carries the true minimal margin: `schedule`'s and
    /// sandholm's reported `required` matches `min_required_margin`,
    /// branch-and-bound answers `Ok(None)`, and the reported requirement
    /// is itself schedulable (certified by the exact oracle).
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
        for (source, order) in order_sources(&goods, m) {
            prop_assert!(order.is_none(), "{} ordered below the minimum margin", source);
        }
        prop_assert_eq!(sandholm_order(&goods, m), Err(infeasible.clone()));
        if let Some(deal) = deal_for(goods.clone(), t) {
            let err = schedule(&deal, m, PaymentPolicy::Lazy)
                .expect_err("margins below the minimum must fail");
            prop_assert_eq!(err, infeasible.clone());
            let err = interleave_payments(&deal, m, &greedy_order(&goods), PaymentPolicy::Lazy)
                .expect_err("an order below its requirement must not interleave");
            prop_assert_eq!(err, infeasible);
        }
        // The reported requirement is tight: the exact oracle schedules at it.
        prop_assert!(branch_and_bound_order(&goods, at(req)).expect("size ok").is_some());
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

/// Deterministic uniform-valuation generator for the fixed-size suites.
fn random_goods(n: usize, seed: u64) -> Goods {
    let mut s = seed;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 33) as i64 % 10_000_001
    };
    Goods::new((0..n).map(|_| (Money::from_micros(next()), Money::from_micros(next()))))
        .expect("non-empty")
}

/// Deterministic workload-shaped generator: `Vc = Vs × markup` with
/// markup in `[0.7, 2.1]`, matching the paper-style curves where most —
/// but not all — items carry positive surplus.
fn random_markup_goods(n: usize, seed: u64) -> Goods {
    let mut s = seed;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 33) as f64 / (1u64 << 31) as f64
    };
    Goods::new((0..n).map(|_| {
        let cost = next() * 10.0;
        let markup = 0.7 + 1.4 * next();
        (Money::from_f64(cost), Money::from_f64(cost * markup))
    }))
    .expect("non-empty")
}

/// The acceptance bar for the exact oracle: n = 30 workload-shaped
/// random instances — far beyond the subset DP's cap — solved on both
/// sides of the exact feasibility boundary, certifying greedy optimality
/// at that size.
#[test]
fn branch_and_bound_solves_n30_at_the_boundary() {
    for seed in 0..20u64 {
        let goods = random_markup_goods(30, 0x3030 + seed);
        let req = min_required_margin(&goods);
        let order = branch_and_bound_order(&goods, at(req))
            .expect("size ok")
            .expect("must be feasible at the greedy margin");
        assert_eq!(order.len(), 30, "seed {seed}");
        assert!(
            required_margin_of_order(&goods, &order) <= req,
            "seed {seed}"
        );
        if req > Money::ZERO {
            assert!(
                branch_and_bound_order(&goods, at(req - Money::from_micros(1)))
                    .expect("size ok")
                    .is_none(),
                "seed {seed}: feasible below the greedy margin — greedy not optimal"
            );
        }
    }
}

/// Unbiased uniform valuations (≈ half the items negative-surplus, the
/// worst shape for the search) right at the subset DP's cap, both sides
/// of the boundary.
#[test]
fn branch_and_bound_exact_on_uniform_n24() {
    for seed in 0..6u64 {
        let goods = random_goods(24, 0x2424 + seed);
        let req = min_required_margin(&goods);
        assert!(
            branch_and_bound_order(&goods, at(req))
                .expect("size ok")
                .is_some(),
            "seed {seed}"
        );
        if req > Money::ZERO {
            assert!(
                branch_and_bound_order(&goods, at(req - Money::from_micros(1)))
                    .expect("size ok")
                    .is_none(),
                "seed {seed}: feasible below the greedy margin"
            );
        }
    }
}

/// DP cross-check near its ceiling: n = 18 instances, margins straddling
/// the exact boundary, the two exact oracles must agree everywhere.
#[test]
fn dp_cross_checks_bnb_at_n18() {
    for seed in 0..4u64 {
        let goods = random_goods(18, 0x1818 + seed);
        let req = min_required_margin(&goods);
        let probes = [
            Money::ZERO,
            req / 2,
            (req - Money::from_micros(1)).max(Money::ZERO),
            req,
        ];
        for total in probes {
            let m = at(total);
            let dp = subset_dp_order(&goods, m).expect("within DP cap");
            let bnb = branch_and_bound_order(&goods, m).expect("within bnb cap");
            assert_eq!(
                dp.is_some(),
                bnb.is_some(),
                "seed {seed} total {total}: oracles disagree"
            );
        }
    }
}

/// `TooManyItems` fires exactly at each exact solver's cap — one item
/// under passes, one item over errors with the right payload.
#[test]
fn too_many_items_fires_exactly_at_the_caps() {
    // All-expensive items (every Vs above any achievable collateral at
    // ε = 0) so the at-cap runs answer `Ok(None)` without exploring the
    // exponential state space — the cap check happens before any search.
    let instance = |n: usize| Goods::from_f64_pairs(&vec![(10.0, 1.0); n]).expect("non-empty");
    let tight = SafetyMargins::fully_safe();

    assert_eq!(
        subset_dp_order(&instance(SUBSET_DP_MAX_ITEMS), tight),
        Ok(None)
    );
    assert_eq!(
        subset_dp_order(&instance(SUBSET_DP_MAX_ITEMS + 1), tight).unwrap_err(),
        TooManyItems {
            n_items: SUBSET_DP_MAX_ITEMS + 1,
            limit: SUBSET_DP_MAX_ITEMS
        }
    );

    assert_eq!(
        branch_and_bound_order(&instance(BRANCH_AND_BOUND_MAX_ITEMS), tight),
        Ok(None)
    );
    assert_eq!(
        branch_and_bound_order(&instance(BRANCH_AND_BOUND_MAX_ITEMS + 1), tight).unwrap_err(),
        TooManyItems {
            n_items: BRANCH_AND_BOUND_MAX_ITEMS + 1,
            limit: BRANCH_AND_BOUND_MAX_ITEMS
        }
    );
}
