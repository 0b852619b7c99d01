//! The exchange scheduler: an optimal `O(n log n)` greedy delivery
//! order with interleaved payments and an independent verifier.
//!
//! # Theory
//!
//! Fix a delivery order `x₁ … xₙ`. Because payments are arbitrarily
//! divisible and irreversible, the order admits a (relaxed-)safe payment
//! interleaving **iff** for every position `j`
//!
//! ```text
//!   req(j)  :=  Vs(x_j) − Σ_{i>j} s(x_i)   ≤   ε           (†)
//! ```
//!
//! where `s(x) = Vc(x) − Vs(x)` is the item's surplus and
//! `ε = ε_s + ε_c` is the total window widening of
//! [`SafetyMargins`]. Intuition: when item `x_j` is handed over, the only
//! collateral keeping both parties honest is the surplus still to come;
//! the supplier's remaining production cost `Vs(x_j)` may exceed it by at
//! most the tolerated exposure.
//!
//! *Proof sketch (⇐).* Pay before each delivery down to
//! `min(R, U_next)`; (†) guarantees the admissible range is non-empty and
//! the invariants `L ≤ R ≤ U` are restored after every atomic action.
//! *(⇒)* At the moment `x_j` is delivered the window must contain the
//! outstanding `R`, which forces (†). ∎
//!
//! With `ε = 0` and `j = n`, (†) reads `Vs(xₙ) ≤ 0`: **an isolated
//! exchange with strictly positive delivery costs admits no fully safe
//! sequence** — the impossibility the paper cites from Sandholm, and the
//! reason reputation/trust must widen the window.
//!
//! # Entry points
//!
//! * [`schedule`] — the scheduler every production caller runs: the
//!   greedy order, [`interleave_payments`], then the independent
//!   [`verify`]. Fails with [`ScheduleError::Infeasible`], carrying the
//!   minimal margin, when the margins are too tight.
//! * [`greedy_order`] — sorts non-positive-surplus items by ascending
//!   `Vc`, then positive-surplus items by descending `Vs`. An
//!   adjacent-exchange argument shows this order minimises
//!   `max_j req(j)` — *simultaneously for every ε* — so it is feasible
//!   whenever any order is. `O(n log n)`.
//! * [`requirement_profile`], [`required_margin_of_order`],
//!   [`min_required_margin`] and [`feasible`] — the per-position
//!   requirements (†) of an order, their maximum, that maximum on the
//!   greedy order, and the margin check built on it.
//! * [`interleave_payments`] — turns any feasible delivery order into a
//!   complete exchange sequence under a [`PaymentPolicy`].

use crate::deal::Deal;
use crate::goods::{Goods, Item, ItemId};
use crate::money::Money;
use crate::policy::PaymentPolicy;
use crate::safety::SafetyMargins;
use crate::sequence::{verify, Action, ExchangeSequence, VerifiedSequence};
use std::cmp::Ordering;
use std::fmt;

/// Error from the scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// No delivery order satisfies the margins; `required` is the
    /// smallest total margin `ε_s + ε_c` that would make the deal
    /// schedulable, `available` is what the parties granted.
    Infeasible {
        /// Minimal total margin for which a sequence exists.
        required: Money,
        /// The margin that was available (`ε_s + ε_c`).
        available: Money,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Infeasible {
                required,
                available,
            } => write!(
                f,
                "no feasible exchange sequence: requires total margin {required}, available {available}"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// The greedy delivery order: non-positive-surplus items first (ascending
/// `Vc`, ties by id), then positive-surplus items (descending `Vs`, ties
/// by id).
fn greedy_cmp(a: &Item, b: &Item) -> Ordering {
    match (a.surplus().is_positive(), b.surplus().is_positive()) {
        (false, true) => Ordering::Less,
        (true, false) => Ordering::Greater,
        (false, false) => a
            .consumer_value()
            .cmp(&b.consumer_value())
            .then(a.id().cmp(&b.id())),
        (true, true) => b
            .supplier_cost()
            .cmp(&a.supplier_cost())
            .then(a.id().cmp(&b.id())),
    }
}

/// The greedy delivery order: non-positive-surplus items first
/// (ascending `Vc`), then positive-surplus items (descending `Vs`). Ties
/// break by item id so the order is deterministic.
///
/// This order minimises `max_j req(j)` over all orders (see module docs),
/// independent of the margins.
pub fn greedy_order(goods: &Goods) -> Vec<ItemId> {
    let mut order: Vec<ItemId> = goods.ids().collect();
    order.sort_unstable_by(|a, b| greedy_cmp(goods.item(*a), goods.item(*b)));
    order
}

/// The per-position requirement profile of a delivery order:
/// `req(j) = Vs(x_j) − Σ_{i>j} s(x_i)` for each position `j` (0-based),
/// in one reverse suffix-sum pass.
///
/// # Panics
///
/// Panics if `order` is not a permutation of the goods' item ids (checked
/// via length and per-item lookup).
pub fn requirement_profile(goods: &Goods, order: &[ItemId]) -> Vec<Money> {
    assert_eq!(order.len(), goods.len(), "order must cover all items");
    let mut reqs = vec![Money::ZERO; order.len()];
    // Suffix surpluses: suffix = Σ_{i>j} s(x_i).
    let mut suffix = Money::ZERO;
    for j in (0..order.len()).rev() {
        let item = goods.item(order[j]);
        reqs[j] = item.supplier_cost() - suffix;
        suffix += item.surplus();
    }
    reqs
}

/// The margin a given delivery order requires:
/// `max(0, max_j req(j))`, evaluated in one suffix-sum pass without
/// materialising the profile.
///
/// # Panics
///
/// Panics if `order` is not a permutation of the goods' item ids.
pub fn required_margin_of_order(goods: &Goods, order: &[ItemId]) -> Money {
    assert_eq!(order.len(), goods.len(), "order must cover all items");
    let mut suffix = Money::ZERO;
    let mut worst = Money::ZERO;
    for &id in order.iter().rev() {
        let item = goods.item(id);
        worst = worst.max(item.supplier_cost() - suffix);
        suffix += item.surplus();
    }
    worst
}

/// The minimal total margin `ε_s + ε_c` for which *any* feasible delivery
/// order exists — evaluated on the greedy order, which is minimax-optimal.
///
/// A fully safe exchange exists iff this is zero. The requirement is a
/// property of the goods alone: callers checking one instance against
/// many margins call this once and compare totals themselves.
///
/// # Examples
///
/// ```
/// use trustex_core::goods::Goods;
/// use trustex_core::money::Money;
/// use trustex_core::safety::SafetyMargins;
/// use trustex_core::scheduler::{feasible, min_required_margin};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Single item with positive cost: isolated safe exchange impossible —
/// // the required margin equals the cost of the last delivery.
/// let goods = Goods::from_f64_pairs(&[(3.0, 10.0)])?;
/// assert_eq!(min_required_margin(&goods), Money::from_units(3));
/// assert!(!feasible(&goods, SafetyMargins::fully_safe()));
/// assert!(feasible(&goods, SafetyMargins::new(Money::from_units(3), Money::ZERO)?));
/// # Ok(())
/// # }
/// ```
pub fn min_required_margin(goods: &Goods) -> Money {
    required_margin_of_order(goods, &greedy_order(goods))
}

/// Whether the goods admit any delivery order under the given margins.
pub fn feasible(goods: &Goods, margins: SafetyMargins) -> bool {
    min_required_margin(goods) <= margins.total()
}

/// Interleaves payments into a delivery order according to `policy`,
/// producing a complete exchange sequence.
///
/// # Errors
///
/// [`ScheduleError::Infeasible`] if the order violates (†) — callers that
/// obtained the order from a scheduler under the same margins never see
/// this.
pub fn interleave_payments(
    deal: &Deal,
    margins: SafetyMargins,
    order: &[ItemId],
    policy: PaymentPolicy,
) -> Result<ExchangeSequence, ScheduleError> {
    let goods = deal.goods();
    assert_eq!(order.len(), goods.len(), "order must cover all items");

    let mut actions = Vec::with_capacity(order.len() * 2 + 1);
    let mut outstanding = deal.price();
    // Remaining cost/value *before* each delivery.
    let mut remaining_cost = goods.total_supplier_cost();
    let mut remaining_value = goods.total_consumer_value();

    for &id in order {
        let item = goods.item(id);
        // Admissible outstanding balance after an optional payment, such
        // that delivering `id` right after stays within the window.
        let lower_now = remaining_cost - margins.eps_consumer();
        let upper_after = (remaining_value - item.consumer_value()) + margins.eps_supplier();
        let lo = lower_now.max(Money::ZERO);
        let hi = outstanding.min(upper_after);
        if lo > hi {
            return Err(ScheduleError::Infeasible {
                required: min_required_margin(goods),
                available: margins.total(),
            });
        }
        let target = policy.choose_outstanding(lo, hi);
        let payment = outstanding - target;
        if payment.is_positive() {
            actions.push(Action::Pay(payment));
            outstanding = target;
        }
        actions.push(Action::Deliver(id));
        remaining_cost -= item.supplier_cost();
        remaining_value -= item.consumer_value();
    }
    if outstanding.is_positive() {
        actions.push(Action::Pay(outstanding));
    }
    Ok(ExchangeSequence::new(actions))
}

/// The scheduler: orders the deliveries greedily, interleaves payments
/// by `policy`, and independently [`verify`]s the result.
///
/// # Errors
///
/// [`ScheduleError::Infeasible`] when the margins are too tight;
/// `required` is [`min_required_margin`].
///
/// # Panics
///
/// Panics if the internally produced sequence fails verification — that
/// would be a bug in this crate, not a caller error.
///
/// # Examples
///
/// ```
/// use trustex_core::deal::Deal;
/// use trustex_core::goods::Goods;
/// use trustex_core::money::Money;
/// use trustex_core::policy::PaymentPolicy;
/// use trustex_core::safety::SafetyMargins;
/// use trustex_core::scheduler::schedule;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let goods = Goods::from_f64_pairs(&[(2.0, 5.0), (1.0, 4.0), (3.0, 3.0)])?;
/// let deal = Deal::new(goods, Money::from_units(9))?;
/// // Fully safe is impossible (every item costs the supplier something)…
/// let margins = SafetyMargins::fully_safe();
/// assert!(schedule(&deal, margins, PaymentPolicy::Lazy).is_err());
/// // …but a small trust-backed margin makes the deal schedulable.
/// let margins = SafetyMargins::symmetric(Money::from_units(1))?;
/// let verified = schedule(&deal, margins, PaymentPolicy::Lazy)?;
/// assert!(verified.max_consumer_temptation() <= margins.eps_supplier());
/// # Ok(())
/// # }
/// ```
pub fn schedule(
    deal: &Deal,
    margins: SafetyMargins,
    policy: PaymentPolicy,
) -> Result<VerifiedSequence, ScheduleError> {
    let goods = deal.goods();
    let order = greedy_order(goods);
    let required = required_margin_of_order(goods, &order);
    if required > margins.total() {
        return Err(ScheduleError::Infeasible {
            required,
            available: margins.total(),
        });
    }
    let sequence = interleave_payments(deal, margins, &order, policy)?;
    Ok(verify(deal, margins, sequence)
        .expect("scheduler produced a sequence rejected by the verifier (bug)"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn goods(pairs: &[(f64, f64)]) -> Goods {
        Goods::from_f64_pairs(pairs).unwrap()
    }

    fn margins(eps: f64) -> SafetyMargins {
        SafetyMargins::symmetric(Money::from_f64(eps / 2.0)).unwrap()
    }

    // --- impossibility & existence -------------------------------------

    #[test]
    fn isolated_exchange_impossible_with_positive_costs() {
        // Every item has Vs > 0 ⇒ the last delivery always violates (†)
        // with ε = 0, whatever the order.
        let g = goods(&[(2.0, 5.0), (1.0, 4.0), (3.0, 6.0)]);
        assert!(min_required_margin(&g).is_positive());
        assert!(!feasible(&g, SafetyMargins::fully_safe()));
    }

    #[test]
    fn zero_cost_last_item_enables_fully_safe() {
        // A zero-cost item can be delivered last; here every prefix works.
        let g = goods(&[(0.0, 5.0), (2.0, 4.0)]);
        assert_eq!(min_required_margin(&g), Money::ZERO);
        assert!(feasible(&g, SafetyMargins::fully_safe()));
    }

    #[test]
    fn min_margin_single_item_equals_cost() {
        let g = goods(&[(3.0, 10.0)]);
        assert_eq!(min_required_margin(&g), Money::from_units(3));
        assert!(feasible(&g, margins(3.0)));
        assert!(!feasible(&g, margins(2.9)));
    }

    #[test]
    fn feasibility_monotone_in_margin() {
        let g = goods(&[(2.0, 3.0), (4.0, 1.0), (1.0, 6.0)]);
        let req = min_required_margin(&g);
        let below = SafetyMargins::new(req - Money::from_micros(1), Money::ZERO).unwrap();
        let exact = SafetyMargins::new(req, Money::ZERO).unwrap();
        assert!(!feasible(&g, below));
        assert!(feasible(&g, exact));
    }

    // --- greedy order structure ----------------------------------------

    #[test]
    fn greedy_puts_negative_surplus_first() {
        let g = goods(&[(1.0, 5.0), (5.0, 1.0), (2.0, 6.0), (6.0, 2.0)]);
        let order = greedy_order(&g);
        let surpluses: Vec<bool> = order
            .iter()
            .map(|id| g.item(*id).surplus().is_positive())
            .collect();
        // All `false` (non-positive surplus) before all `true`.
        let first_true = surpluses.iter().position(|b| *b).unwrap();
        assert!(surpluses[first_true..].iter().all(|b| *b));
        assert!(surpluses[..first_true].iter().all(|b| !*b));
    }

    #[test]
    fn greedy_negative_sorted_by_value_positive_by_cost_desc() {
        let g = goods(&[
            (5.0, 1.0), // neg, Vc=1
            (9.0, 3.0), // neg, Vc=3
            (1.0, 8.0), // pos, Vs=1
            (4.0, 9.0), // pos, Vs=4
        ]);
        let order = greedy_order(&g);
        let idx: Vec<usize> = order.iter().map(|id| id.index()).collect();
        assert_eq!(idx, vec![0, 1, 3, 2]);
    }

    #[test]
    fn requirement_profile_matches_manual() {
        // Two items: a (Vs=2, Vc=5, s=3), b (Vs=1, Vc=4, s=3).
        // Order [a, b]: req(a) = 2 - s(b) = -1 ; req(b) = 1 - 0 = 1.
        let g = goods(&[(2.0, 5.0), (1.0, 4.0)]);
        let ids: Vec<ItemId> = g.ids().collect();
        let reqs = requirement_profile(&g, &ids);
        assert_eq!(reqs, vec![Money::from_units(-1), Money::from_units(1)]);
        assert_eq!(required_margin_of_order(&g, &ids), Money::from_units(1));
    }

    #[test]
    fn schedulers_produce_verified_sequences() {
        let g = goods(&[(2.0, 5.0), (1.0, 4.0), (3.0, 3.0), (0.5, 2.0)]);
        let deal = Deal::with_split_surplus(g).unwrap();
        let m = margins(4.0);
        let order = greedy_order(deal.goods());
        for policy in PaymentPolicy::ALL {
            let seq = interleave_payments(&deal, m, &order, policy)
                .unwrap_or_else(|e| panic!("greedy/{policy:?}: {e}"));
            let v = verify(&deal, m, seq).unwrap_or_else(|e| panic!("greedy/{policy:?}: {e}"));
            assert_eq!(v.sequence().delivery_count(), 4, "greedy/{policy:?}");
            let paid: Money = v
                .sequence()
                .actions()
                .iter()
                .map(|a| match a {
                    Action::Pay(m) => *m,
                    Action::Deliver(_) => Money::ZERO,
                })
                .sum();
            assert_eq!(paid, deal.price(), "greedy/{policy:?}");
        }
        for policy in PaymentPolicy::ALL {
            assert!(schedule(&deal, m, policy).is_ok(), "{policy:?}");
        }
    }

    #[test]
    fn infeasible_error_reports_required_margin() {
        let g = goods(&[(3.0, 10.0)]);
        let deal = Deal::with_split_surplus(g).unwrap();
        let err = schedule(&deal, SafetyMargins::fully_safe(), PaymentPolicy::Lazy).unwrap_err();
        assert_eq!(
            err,
            ScheduleError::Infeasible {
                required: Money::from_units(3),
                available: Money::ZERO,
            }
        );
        assert!(err.to_string().contains("requires total margin"));
    }

    #[test]
    fn exact_margin_schedules() {
        let g = goods(&[(3.0, 10.0), (2.0, 8.0)]);
        let req = min_required_margin(&g);
        let deal = Deal::with_split_surplus(g).unwrap();
        let m = SafetyMargins::new(req, Money::ZERO).unwrap();
        assert!(schedule(&deal, m, PaymentPolicy::Lazy).is_ok());
    }

    #[test]
    fn interleave_lazy_defers_final_payment() {
        let g = goods(&[(1.0, 4.0), (2.0, 5.0)]);
        let deal = Deal::with_split_surplus(g).unwrap();
        let m = margins(6.0);
        let order = greedy_order(deal.goods());
        let seq = interleave_payments(&deal, m, &order, PaymentPolicy::Lazy).unwrap();
        // Lazy: the last action must be a payment (consumer pays last).
        assert!(matches!(seq.actions().last(), Some(Action::Pay(_))));
    }

    #[test]
    fn interleave_eager_prepays() {
        let g = goods(&[(1.0, 4.0), (2.0, 5.0)]);
        let deal = Deal::with_split_surplus(g).unwrap();
        let m = margins(20.0); // wide margins: eager pays everything upfront
        let order = greedy_order(deal.goods());
        let seq = interleave_payments(&deal, m, &order, PaymentPolicy::Eager).unwrap();
        assert!(
            matches!(seq.actions().first(), Some(Action::Pay(_))),
            "eager should front-load payments: {:?}",
            seq.actions()
        );
        // With margins that wide the whole price is paid before delivery.
        match seq.actions().first() {
            Some(Action::Pay(m0)) => assert_eq!(*m0, deal.price()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn required_margin_zero_for_all_zero_cost() {
        let g = goods(&[(0.0, 3.0), (0.0, 1.0)]);
        assert_eq!(min_required_margin(&g), Money::ZERO);
        let deal = Deal::new(g, Money::from_units(2)).unwrap();
        let v = schedule(&deal, SafetyMargins::fully_safe(), PaymentPolicy::Lazy).unwrap();
        assert_eq!(v.max_consumer_temptation(), Money::ZERO);
        assert_eq!(v.max_supplier_temptation(), Money::ZERO);
    }
}
