//! Execution of a scheduled exchange between two (possibly dishonest)
//! parties.
//!
//! The schedulers guarantee that *rational* parties never profit from
//! defecting by more than the tolerated ε. Whether a real counterparty
//! defects anyway is a behavioural question — the execution engine
//! replays a sequence and consults a [`DefectionOracle`] for each party
//! after every atomic action (every state is a defection opportunity for
//! whichever party is currently tempted).
//!
//! The engine reports both parties' realized gains, which the market
//! simulation aggregates into the welfare metrics of experiments E4/E8.

use crate::deal::Deal;
use crate::money::Money;
use crate::sequence::{Action, ExchangeSequence};
use crate::state::{Progress, Role, StateView};

/// Decides whether a party walks away at the current state.
///
/// Implementations receive the party's current *temptation* (defection
/// gain minus completion gain, positive when defecting is profitable
/// right now), full state access, and the schedule's remaining actions —
/// both parties know the agreed sequence, so a rational agent can reason
/// about where its temptation peaks. The oracle is consulted once per
/// party per state.
pub trait DefectionOracle {
    /// Returns `true` if the party defects at this state.
    ///
    /// `upcoming` holds the actions not yet executed (empty at the final
    /// consultation).
    fn defects(
        &mut self,
        role: Role,
        temptation: Money,
        view: &StateView<'_>,
        upcoming: &[Action],
    ) -> bool;
}

/// The largest temptation the given role will experience from the
/// current state onwards if the remaining schedule executes faithfully
/// (including the current state itself).
///
/// This is the quantity a schedule-aware rational agent compares its
/// outside stake against: defecting before the peak leaves money on the
/// table.
pub fn max_future_temptation(role: Role, view: &StateView<'_>, upcoming: &[Action]) -> Money {
    let deal = view.deal();
    let mut paid = view.state().paid();
    let mut delivered_value = view.state().delivered_value();
    let mut delivered_cost = view.state().delivered_cost();
    let temptation = |paid: Money, dv: Money, dc: Money| -> Money {
        match role {
            // (Vc(D) − m) − (Vc(G) − P)
            Role::Consumer => (dv - paid) - deal.consumer_surplus(),
            // (m − Vs(D)) − (P − Vs(G))
            Role::Supplier => (paid - dc) - deal.supplier_profit(),
        }
    };
    let mut best = temptation(paid, delivered_value, delivered_cost);
    for action in upcoming {
        match action {
            Action::Pay(amount) => paid += *amount,
            Action::Deliver(id) => {
                let item = deal.goods().item(*id);
                delivered_value += item.consumer_value();
                delivered_cost += item.supplier_cost();
            }
        }
        best = best.max(temptation(paid, delivered_value, delivered_cost));
    }
    best
}

/// Never defects — the honest party.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Honest;

impl DefectionOracle for Honest {
    fn defects(
        &mut self,
        _role: Role,
        _temptation: Money,
        _view: &StateView<'_>,
        _upcoming: &[Action],
    ) -> bool {
        false
    }
}

/// The *rational opportunist*: knows the schedule, waits for the state
/// where its temptation peaks, and defects there if the peak exceeds its
/// outside (reputation) stake. A stake of zero grabs the largest
/// achievable haul; a stake at or above the tolerated margin never
/// defects on a verified sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RationalDefector {
    /// Defect when the (peak) temptation exceeds this stake.
    pub stake: Money,
}

impl DefectionOracle for RationalDefector {
    fn defects(
        &mut self,
        role: Role,
        temptation: Money,
        view: &StateView<'_>,
        upcoming: &[Action],
    ) -> bool {
        if temptation <= self.stake {
            return false;
        }
        // Worth defecting eventually — but only strike at the peak.
        temptation >= max_future_temptation(role, view, upcoming)
    }
}

/// Terminal status of an executed exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeStatus {
    /// Every action executed; goods fully delivered and price fully paid.
    Completed,
    /// The named party walked away before the action at `at_step` (0-based
    /// index into the sequence; equal to the step count executed so far).
    Aborted {
        /// Who defected.
        by: Role,
        /// Number of actions that had been executed when the defection
        /// happened.
        at_step: usize,
    },
}

impl ExchangeStatus {
    /// Whether the exchange ran to completion.
    pub fn is_completed(self) -> bool {
        matches!(self, ExchangeStatus::Completed)
    }
}

/// The realized result of executing an exchange sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExchangeOutcome {
    /// How the exchange ended.
    pub status: ExchangeStatus,
    /// Supplier's realized gain: money received minus cost of goods
    /// actually delivered.
    pub supplier_gain: Money,
    /// Consumer's realized gain: value of goods received minus money paid.
    pub consumer_gain: Money,
    /// Items delivered before termination.
    pub items_delivered: usize,
    /// Money paid before termination.
    pub amount_paid: Money,
}

impl ExchangeOutcome {
    /// Realized gain of the given role.
    pub fn gain(&self, role: Role) -> Money {
        match role {
            Role::Supplier => self.supplier_gain,
            Role::Consumer => self.consumer_gain,
        }
    }

    /// Realized social welfare: the sum of both gains.
    pub fn welfare(&self) -> Money {
        self.supplier_gain + self.consumer_gain
    }
}

/// Replays `sequence` over `deal`, consulting the oracles after every
/// state (including the initial one). Defection checks happen *before*
/// each action: the party consulted first at each state is the one whose
/// temptation is larger (deterministic tie-break: the actor of the next
/// action moves last, so the waiting party gets the first chance — in a
/// real exchange the tempted party simply stops responding).
///
/// The sequence need not be verified or even safe; the engine executes
/// whatever it is given (tests use this for failure injection).
///
/// # Panics
///
/// Panics if the sequence contains structurally invalid actions (unknown
/// item, double delivery, non-positive payment) — execute verified
/// sequences, or sequences from [`crate::scheduler::schedule`].
pub fn execute(
    deal: &Deal,
    sequence: &ExchangeSequence,
    supplier: &mut dyn DefectionOracle,
    consumer: &mut dyn DefectionOracle,
) -> ExchangeOutcome {
    let mut progress = Progress::new(deal);

    let actions = sequence.actions();
    for (step, action) in actions.iter().enumerate() {
        // Defection opportunity before each action.
        if let Some(by) = consult(&progress, supplier, consumer, &actions[step..]) {
            return outcome_at(&progress, ExchangeStatus::Aborted { by, at_step: step });
        }
        match action {
            Action::Deliver(id) => progress
                .deliver(*id)
                .expect("invalid delivery in executed sequence"),
            Action::Pay(amount) => progress
                .pay(*amount)
                .expect("invalid payment in executed sequence"),
        }
    }
    // Final defection opportunity is moot: at completion both temptations
    // are zero, but consult anyway for oracles with non-rational logic.
    if let Some(by) = consult(&progress, supplier, consumer, &[]) {
        return outcome_at(
            &progress,
            ExchangeStatus::Aborted {
                by,
                at_step: sequence.len(),
            },
        );
    }
    outcome_at(&progress, ExchangeStatus::Completed)
}

/// Asks both oracles in temptation order; returns the defector, if any.
fn consult(
    progress: &Progress<'_>,
    supplier: &mut dyn DefectionOracle,
    consumer: &mut dyn DefectionOracle,
    upcoming: &[Action],
) -> Option<Role> {
    let view = progress.view();
    let ts = view.supplier_temptation();
    let tc = view.consumer_temptation();
    let first_supplier = ts >= tc;
    let order: [Role; 2] = if first_supplier {
        [Role::Supplier, Role::Consumer]
    } else {
        [Role::Consumer, Role::Supplier]
    };
    for role in order {
        let (oracle, temptation): (&mut dyn DefectionOracle, Money) = match role {
            Role::Supplier => (supplier, ts),
            Role::Consumer => (consumer, tc),
        };
        if oracle.defects(role, temptation, &view, upcoming) {
            return Some(role);
        }
    }
    None
}

fn outcome_at(progress: &Progress<'_>, status: ExchangeStatus) -> ExchangeOutcome {
    let view = progress.view();
    ExchangeOutcome {
        status,
        supplier_gain: view.supplier_defect_gain(),
        consumer_gain: view.consumer_defect_gain(),
        items_delivered: progress.state().delivered_count(),
        amount_paid: progress.state().paid(),
    }
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

    fn scheduled(deal: &Deal, eps: f64) -> ExchangeSequence {
        let m = SafetyMargins::symmetric(Money::from_f64(eps / 2.0)).unwrap();
        schedule(deal, m, PaymentPolicy::Lazy)
            .unwrap()
            .into_sequence()
    }

    #[test]
    fn honest_parties_complete() {
        let d = deal();
        let seq = scheduled(&d, 4.0);
        let out = execute(&d, &seq, &mut Honest, &mut Honest);
        assert!(out.status.is_completed());
        assert_eq!(out.supplier_gain, d.supplier_profit());
        assert_eq!(out.consumer_gain, d.consumer_surplus());
        assert_eq!(out.items_delivered, 3);
        assert_eq!(out.amount_paid, d.price());
        assert_eq!(out.welfare(), d.goods().total_surplus());
    }

    #[test]
    fn gains_sum_to_welfare_even_on_abort() {
        let d = deal();
        let seq = scheduled(&d, 4.0);
        let mut defector = RationalDefector { stake: Money::ZERO };
        let out = execute(&d, &seq, &mut Honest, &mut defector);
        // welfare = Vc(D) - Vs(D): value created by delivered items.
        assert_eq!(
            out.welfare(),
            out.consumer_gain + out.supplier_gain,
            "identity"
        );
    }

    #[test]
    fn zero_stake_consumer_defects_when_tempted() {
        let d = deal();
        // With a relaxed margin the sequence exposes the supplier to
        // positive consumer temptation at some point.
        let seq = scheduled(&d, 4.0);
        let mut defector = RationalDefector { stake: Money::ZERO };
        let out = execute(&d, &seq, &mut Honest, &mut defector);
        match out.status {
            ExchangeStatus::Aborted { by, .. } => assert_eq!(by, Role::Consumer),
            ExchangeStatus::Completed => {
                panic!("zero-stake consumer should defect under relaxed margins")
            }
        }
        // The defecting consumer ends strictly better off than the honest
        // supplier at that point.
        assert!(out.consumer_gain > Money::ZERO);
    }

    #[test]
    fn defector_with_stake_above_margin_completes() {
        let d = deal();
        let eps = 4.0;
        let seq = scheduled(&d, eps);
        // Temptation never exceeds ε_s = 2 along a verified sequence, so a
        // stake of 2 units is never strictly exceeded.
        let mut defector = RationalDefector {
            stake: Money::from_units(2),
        };
        let out = execute(&d, &seq, &mut Honest, &mut defector);
        assert!(
            out.status.is_completed(),
            "stake ≥ ε means no profitable defection: {out:?}"
        );
    }

    #[test]
    fn supplier_defection_detected() {
        let d = deal();
        // Force an unsafe sequence: consumer pays everything first.
        let ids: Vec<_> = d.goods().ids().collect();
        let mut actions = vec![Action::Pay(d.price())];
        actions.extend(ids.iter().map(|id| Action::Deliver(*id)));
        let seq = ExchangeSequence::new(actions);
        let mut supplier = RationalDefector { stake: Money::ZERO };
        let out = execute(&d, &seq, &mut supplier, &mut Honest);
        match out.status {
            ExchangeStatus::Aborted { by, at_step } => {
                assert_eq!(by, Role::Supplier);
                assert_eq!(at_step, 1, "defects right after being paid in full");
            }
            ExchangeStatus::Completed => panic!("supplier should abscond with the payment"),
        }
        assert_eq!(out.supplier_gain, d.price());
        assert_eq!(out.consumer_gain, -d.price());
        assert_eq!(out.items_delivered, 0);
    }

    #[test]
    fn oracle_is_consulted() {
        /// Never defects; counts how often it was asked.
        struct Counting(usize);
        impl DefectionOracle for Counting {
            fn defects(&mut self, _: Role, _: Money, _: &StateView<'_>, _: &[Action]) -> bool {
                self.0 += 1;
                false
            }
        }
        let d = deal();
        let seq = scheduled(&d, 4.0);
        let mut oracle = Counting(0);
        let out = execute(&d, &seq, &mut oracle, &mut Honest);
        assert!(out.status.is_completed());
        assert!(oracle.0 > 0, "oracle must be consulted");
    }

    #[test]
    fn consult_order_prefers_higher_temptation() {
        let d = deal();
        // Unsafe both ways is impossible; instead verify that when the
        // consumer is the tempted one, a both-defect oracle pair reports
        // the consumer as defector.
        let ids: Vec<_> = d.goods().ids().collect();
        let seq = ExchangeSequence::new(vec![Action::Deliver(ids[0])]);
        let mut s = RationalDefector { stake: Money::ZERO };
        let mut c = RationalDefector { stake: Money::ZERO };
        let out = execute(&d, &seq, &mut s, &mut c);
        match out.status {
            ExchangeStatus::Aborted { by, .. } => assert_eq!(by, Role::Consumer),
            _ => panic!("expected abort"),
        }
    }

    #[test]
    fn outcome_gain_accessor() {
        let d = deal();
        let seq = scheduled(&d, 4.0);
        let out = execute(&d, &seq, &mut Honest, &mut Honest);
        assert_eq!(out.gain(Role::Supplier), out.supplier_gain);
        assert_eq!(out.gain(Role::Consumer), out.consumer_gain);
    }

    #[test]
    fn empty_sequence_aborts_incomplete_as_completed_noop() {
        // An empty sequence "completes" trivially at the initial state:
        // nothing delivered, nothing paid, zero gains. The *verifier*
        // rejects it as incomplete; the engine just replays.
        let d = deal();
        let seq = ExchangeSequence::default();
        let out = execute(&d, &seq, &mut Honest, &mut Honest);
        assert!(out.status.is_completed());
        assert_eq!(out.supplier_gain, Money::ZERO);
        assert_eq!(out.consumer_gain, Money::ZERO);
    }
}
