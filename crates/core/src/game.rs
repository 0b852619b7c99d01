//! Game-theoretic analysis of exchange sequences — the paper's stated
//! *future work* ("a game-theoretic extension of this work arising when
//! the partners are interested in maximizing their gains").
//!
//! A scheduled sequence induces a finite extensive-form game: at every
//! prefix state each party may *continue* or *defect*; defection ends
//! the game at the current state minus the defector's outside stake
//! (reputation value destroyed by defecting). [`analyze`] solves the
//! game exactly by backward induction and reports whether faithful
//! completion is the subgame-perfect outcome, and if not, where and by
//! whom the first rational defection happens.
//!
//! The connection to the scheduling theory: a sequence verified under
//! margins `(ε_s, ε_c)` keeps the consumer's temptation ≤ `ε_s` and the
//! supplier's ≤ `ε_c` at every state, so whenever each party's outside
//! stake covers the bound granted *against* it, backward induction
//! confirms completion — the theorem the equilibrium tests pin down.

use crate::deal::Deal;
use crate::money::Money;
use crate::sequence::{Action, ExchangeSequence};
use crate::state::{Progress, Role};

/// Outside stakes: the value each party forfeits by defecting
/// (discounted future business, reputation, bond…).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stakes {
    /// Value the supplier forfeits on defection.
    pub supplier: Money,
    /// Value the consumer forfeits on defection.
    pub consumer: Money,
}

impl Stakes {
    /// Both parties forfeit the same amount.
    pub const fn symmetric(stake: Money) -> Stakes {
        Stakes {
            supplier: stake,
            consumer: stake,
        }
    }

    /// Nobody has anything to lose — the isolated-exchange setting.
    pub const ZERO: Stakes = Stakes {
        supplier: Money::ZERO,
        consumer: Money::ZERO,
    };

    /// The stake of the given role.
    pub fn of(&self, role: Role) -> Money {
        match role {
            Role::Supplier => self.supplier,
            Role::Consumer => self.consumer,
        }
    }
}

/// The subgame-perfect outcome of an exchange game.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Equilibrium {
    /// Whether rational parties complete the exchange.
    pub completes: bool,
    /// The first rational defection (role, prefix index) when they don't.
    pub first_defection: Option<(Role, usize)>,
    /// The supplier's equilibrium payoff (stake forfeit included).
    pub supplier_value: Money,
    /// The consumer's equilibrium payoff (stake forfeit included).
    pub consumer_value: Money,
}

/// Solves the exchange game induced by `sequence` under `stakes` by
/// backward induction.
///
/// At each prefix state the tempted parties compare "defect now"
/// (current defection gain minus their stake) with the value of
/// continuing into the rest of the game (which already accounts for the
/// opponent's future rational defections). When both prefer to defect at
/// the same state, the one with the larger net advantage moves first
/// (ties: the party acting next moves last, mirroring the execution
/// engine's consult order).
///
/// # Panics
///
/// Panics if the sequence contains structurally invalid actions (replay
/// a verified sequence).
pub fn analyze(deal: &Deal, sequence: &ExchangeSequence, stakes: Stakes) -> Equilibrium {
    // Forward pass: record per-prefix defection gains for both parties.
    let n = sequence.len();
    let mut defect_gain_s = Vec::with_capacity(n + 1);
    let mut defect_gain_c = Vec::with_capacity(n + 1);
    let mut progress = Progress::new(deal);
    defect_gain_s.push(progress.defect_gain(Role::Supplier));
    defect_gain_c.push(progress.defect_gain(Role::Consumer));
    for action in sequence.actions() {
        match action {
            Action::Deliver(id) => progress.deliver(*id).expect("valid sequence"),
            Action::Pay(amount) => progress.pay(*amount).expect("valid sequence"),
        }
        defect_gain_s.push(progress.defect_gain(Role::Supplier));
        defect_gain_c.push(progress.defect_gain(Role::Consumer));
    }
    // Terminal values: the realized end-state gains (for a complete
    // sequence these are the deal's profit/surplus; for a partial one,
    // whatever the final state yields — walking away at the very end
    // costs no stake because the exchange is over).
    let mut value_s = defect_gain_s[n];
    let mut value_c = defect_gain_c[n];
    let mut completes = true;
    let mut first_defection: Option<(Role, usize)> = None;

    // Backward pass over prefix states n-1 .. 0.
    for i in (0..n).rev() {
        let net_s = (defect_gain_s[i] - stakes.supplier) - value_s;
        let net_c = (defect_gain_c[i] - stakes.consumer) - value_c;
        let defector = if net_s.is_positive() && net_c.is_positive() {
            // Both want out: the larger net advantage moves first.
            if net_s >= net_c {
                Some(Role::Supplier)
            } else {
                Some(Role::Consumer)
            }
        } else if net_s.is_positive() {
            Some(Role::Supplier)
        } else if net_c.is_positive() {
            Some(Role::Consumer)
        } else {
            None
        };
        if let Some(role) = defector {
            completes = false;
            first_defection = Some((role, i));
            value_s = defect_gain_s[i]
                - match role {
                    Role::Supplier => stakes.supplier,
                    Role::Consumer => Money::ZERO,
                };
            value_c = defect_gain_c[i]
                - match role {
                    Role::Consumer => stakes.consumer,
                    Role::Supplier => Money::ZERO,
                };
        }
        // No defection: values flow through unchanged.
    }

    Equilibrium {
        completes,
        first_defection,
        supplier_value: value_s,
        consumer_value: value_c,
    }
}

/// The smallest symmetric stake (to micro-unit precision) under which
/// rational parties complete `sequence`, found by bisection. Returns
/// `None` if even a stake equal to the whole deal value does not induce
/// completion (cannot happen for verified sequences).
pub fn min_supporting_stake(deal: &Deal, sequence: &ExchangeSequence) -> Option<Money> {
    let hi_cap = deal.goods().total_consumer_value() + deal.price();
    if !analyze(deal, sequence, Stakes::symmetric(hi_cap)).completes {
        return None;
    }
    let (mut lo, mut hi) = (0i64, hi_cap.as_micros());
    if analyze(deal, sequence, Stakes::ZERO).completes {
        return Some(Money::ZERO);
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if analyze(deal, sequence, Stakes::symmetric(Money::from_micros(mid))).completes {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(Money::from_micros(hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goods::Goods;
    use crate::policy::PaymentPolicy;
    use crate::safety::SafetyMargins;
    use crate::scheduler::schedule;

    fn deal() -> Deal {
        let goods = Goods::from_f64_pairs(&[(2.0, 5.0), (1.0, 4.0), (3.0, 3.0)]).unwrap();
        Deal::new(goods, Money::from_units(9)).unwrap()
    }

    fn planned(deal: &Deal, eps_units: f64) -> ExchangeSequence {
        let margins = SafetyMargins::symmetric(Money::from_f64(eps_units)).unwrap();
        schedule(deal, margins, PaymentPolicy::Lazy)
            .unwrap()
            .into_sequence()
    }

    #[test]
    fn stakes_covering_margins_support_completion() {
        let d = deal();
        let seq = planned(&d, 1.0); // ε_s = ε_c = 1
        let eq = analyze(&d, &seq, Stakes::symmetric(Money::from_units(1)));
        assert!(eq.completes, "{eq:?}");
        assert_eq!(eq.first_defection, None);
        assert_eq!(eq.supplier_value, d.supplier_profit());
        assert_eq!(eq.consumer_value, d.consumer_surplus());
    }

    #[test]
    fn zero_stakes_unravel_to_no_trade() {
        let d = deal();
        let seq = planned(&d, 1.0);
        let eq = analyze(&d, &seq, Stakes::ZERO);
        assert!(!eq.completes);
        let (_, step) = eq.first_defection.unwrap();
        assert!(step < seq.len());
        // Classic unravelling: anticipating the eventual defection, the
        // parties never create the surplus — equilibrium welfare is
        // strictly below the deal's.
        assert!(
            eq.supplier_value + eq.consumer_value < d.goods().total_surplus(),
            "{eq:?}"
        );
        // Nobody is forced below their walk-away-now payoff at the
        // defection point, so values can't both be negative.
        assert!(!eq.supplier_value.is_negative() || !eq.consumer_value.is_negative());
    }

    #[test]
    fn completion_monotone_in_stakes() {
        let d = deal();
        let seq = planned(&d, 2.0);
        let mut completed_before = false;
        for stake_units in 0..6 {
            let eq = analyze(&d, &seq, Stakes::symmetric(Money::from_units(stake_units)));
            if completed_before {
                assert!(eq.completes, "completion must be monotone in stakes");
            }
            completed_before = eq.completes;
        }
        assert!(completed_before, "large stakes must support completion");
    }

    #[test]
    fn min_supporting_stake_matches_exposure() {
        let d = deal();
        let seq = planned(&d, 1.0);
        let stake = min_supporting_stake(&d, &seq).unwrap();
        // The verified sequence caps both temptations at ε = 1, so a
        // symmetric stake of 1 suffices and nothing much smaller can.
        assert!(stake <= Money::from_units(1));
        assert!(stake > Money::from_f64(0.4), "stake {stake}");
        // Exactness: completes at `stake`, fails just below.
        assert!(analyze(&d, &seq, Stakes::symmetric(stake)).completes);
        let below = stake - Money::from_micros(1);
        assert!(!analyze(&d, &seq, Stakes::symmetric(below)).completes);
    }

    #[test]
    fn asymmetric_stakes_identify_the_weak_side() {
        let d = deal();
        let seq = planned(&d, 1.0);
        // Supplier fully bonded, consumer not: the consumer defects.
        let eq = analyze(
            &d,
            &seq,
            Stakes {
                supplier: Money::from_units(100),
                consumer: Money::ZERO,
            },
        );
        assert!(!eq.completes);
        assert_eq!(eq.first_defection.unwrap().0, Role::Consumer);
        // And symmetrically.
        let eq = analyze(
            &d,
            &seq,
            Stakes {
                supplier: Money::ZERO,
                consumer: Money::from_units(100),
            },
        );
        // With the lazy policy the consumer is the exposed one; the
        // supplier's temptation may never turn positive, in which case
        // completion survives.
        if !eq.completes {
            assert_eq!(eq.first_defection.unwrap().0, Role::Supplier);
        }
    }

    #[test]
    fn pay_first_with_zero_stakes_never_starts() {
        // Backward induction on a prepay-everything schedule: the
        // consumer foresees the supplier absconding after the payment
        // and rationally refuses to begin — the game unravels at step 0.
        let d = deal();
        let ids: Vec<_> = d.goods().ids().collect();
        let mut actions = vec![Action::Pay(d.price())];
        actions.extend(ids.iter().map(|id| Action::Deliver(*id)));
        let seq = ExchangeSequence::new(actions);
        let eq = analyze(&d, &seq, Stakes::ZERO);
        assert!(!eq.completes);
        assert_eq!(eq.first_defection, Some((Role::Consumer, 0)));
        assert_eq!(eq.supplier_value, Money::ZERO);
        assert_eq!(eq.consumer_value, Money::ZERO);
    }

    #[test]
    fn pay_first_with_committed_consumer_shows_the_abscond() {
        // Force the consumer to stay in (huge stake): now the supplier's
        // post-payment temptation materialises as the actual defection.
        let d = deal();
        let ids: Vec<_> = d.goods().ids().collect();
        let mut actions = vec![Action::Pay(d.price())];
        actions.extend(ids.iter().map(|id| Action::Deliver(*id)));
        let seq = ExchangeSequence::new(actions);
        let eq = analyze(
            &d,
            &seq,
            Stakes {
                supplier: Money::ZERO,
                consumer: Money::from_units(100),
            },
        );
        assert!(!eq.completes);
        assert_eq!(eq.first_defection, Some((Role::Supplier, 1)));
        assert_eq!(eq.supplier_value, d.price());
        assert_eq!(eq.consumer_value, -d.price());
    }

    #[test]
    fn min_stake_zero_for_zero_cost_goods() {
        let goods = Goods::from_f64_pairs(&[(0.0, 3.0)]).unwrap();
        let d = Deal::new(goods, Money::from_units(2)).unwrap();
        let seq = schedule(&d, SafetyMargins::fully_safe(), PaymentPolicy::Lazy)
            .unwrap()
            .into_sequence();
        assert_eq!(min_supporting_stake(&d, &seq), Some(Money::ZERO));
    }

    #[test]
    fn stakes_helpers() {
        let s = Stakes::symmetric(Money::from_units(2));
        assert_eq!(s.of(Role::Supplier), Money::from_units(2));
        assert_eq!(s.of(Role::Consumer), Money::from_units(2));
        assert_eq!(Stakes::ZERO.supplier, Money::ZERO);
    }
}
