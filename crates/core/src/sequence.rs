//! Exchange sequences and the independent safety verifier.
//!
//! An [`ExchangeSequence`] is the concrete schedule the paper's algorithm
//! outputs: an interleaving of item deliveries and payment chunks. The
//! [`verify`] function replays a sequence against a deal and margins and
//! checks *every* prefix against the safety conditions — it shares no
//! code with the schedulers, so the two act as independent witnesses in
//! the test suite.

use crate::deal::Deal;
use crate::goods::ItemId;
use crate::money::Money;
use crate::safety::{check, SafetyCheck, SafetyMargins};
use crate::state::{Progress, Role, StateError};
use std::fmt;

/// One atomic step of an exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// The supplier delivers the identified item.
    Deliver(ItemId),
    /// The consumer pays the contained amount.
    Pay(Money),
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Deliver(id) => write!(f, "deliver {id}"),
            Action::Pay(m) => write!(f, "pay {m}"),
        }
    }
}

/// An ordered schedule of actions for one deal.
///
/// Construction does not validate anything; validation is the verifier's
/// job so that tests can build intentionally broken sequences.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExchangeSequence {
    actions: Vec<Action>,
}

impl ExchangeSequence {
    /// Creates a sequence from raw actions.
    pub fn new(actions: Vec<Action>) -> ExchangeSequence {
        ExchangeSequence { actions }
    }

    /// The actions in order.
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// Number of actions.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Appends an action.
    pub fn push(&mut self, action: Action) {
        self.actions.push(action);
    }

    /// Number of delivery actions.
    pub fn delivery_count(&self) -> usize {
        self.actions
            .iter()
            .filter(|a| matches!(a, Action::Deliver(_)))
            .count()
    }
}

impl FromIterator<Action> for ExchangeSequence {
    fn from_iter<T: IntoIterator<Item = Action>>(iter: T) -> Self {
        ExchangeSequence {
            actions: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a ExchangeSequence {
    type Item = &'a Action;
    type IntoIter = std::slice::Iter<'a, Action>;
    fn into_iter(self) -> Self::IntoIter {
        self.actions.iter()
    }
}

/// Why a sequence failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The very first state (nothing exchanged) already violates safety —
    /// the price is outside the initial window.
    UnsafeInitialState {
        /// Whose temptation is violated initially.
        tempted: Role,
        /// By how much.
        excess: Money,
    },
    /// Safety violated after executing the action at `step`.
    UnsafePrefix {
        /// Index of the violating action.
        step: usize,
        /// The violating action.
        action: Action,
        /// Whose temptation exceeds its bound.
        tempted: Role,
        /// By how much.
        excess: Money,
    },
    /// An action was structurally invalid (double delivery, unknown item,
    /// non-positive payment).
    InvalidAction {
        /// Index of the invalid action.
        step: usize,
        /// The underlying state error.
        source: StateError,
    },
    /// Payments in the sequence exceed the price `P`.
    Overpayment {
        /// Index of the action at which cumulative payments first exceed P.
        step: usize,
        /// Cumulative amount paid after that action.
        paid: Money,
        /// The agreed price.
        price: Money,
    },
    /// The sequence ended without delivering every item and paying `P`.
    Incomplete {
        /// Items delivered by the end.
        delivered: usize,
        /// Items in the deal.
        total_items: usize,
        /// Amount paid by the end.
        paid: Money,
        /// The agreed price.
        price: Money,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::UnsafeInitialState { tempted, excess } => write!(
                f,
                "initial state unsafe: {tempted} temptation exceeds bound by {excess}"
            ),
            VerifyError::UnsafePrefix {
                step,
                action,
                tempted,
                excess,
            } => write!(
                f,
                "unsafe after step {step} ({action}): {tempted} temptation exceeds bound by {excess}"
            ),
            VerifyError::InvalidAction { step, source } => {
                write!(f, "invalid action at step {step}: {source}")
            }
            VerifyError::Overpayment { step, paid, price } => {
                write!(f, "overpayment at step {step}: paid {paid} of price {price}")
            }
            VerifyError::Incomplete {
                delivered,
                total_items,
                paid,
                price,
            } => write!(
                f,
                "incomplete sequence: delivered {delivered}/{total_items}, paid {paid}/{price}"
            ),
        }
    }
}

impl std::error::Error for VerifyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VerifyError::InvalidAction { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// A sequence that passed verification, with its exposure profile.
///
/// The exposure profile records the worst temptation each party was
/// subjected to along the way — the realized counterpart of the ε bounds
/// (exposed per C-INTERMEDIATE so callers don't recompute it).
#[derive(Debug, Clone, PartialEq)]
pub struct VerifiedSequence {
    sequence: ExchangeSequence,
    max_consumer_temptation: Money,
    max_supplier_temptation: Money,
}

impl VerifiedSequence {
    /// The verified sequence.
    pub fn sequence(&self) -> &ExchangeSequence {
        &self.sequence
    }

    /// Consumes the wrapper, returning the sequence.
    pub fn into_sequence(self) -> ExchangeSequence {
        self.sequence
    }

    /// Largest consumer temptation reached (the supplier's realized risk).
    pub fn max_consumer_temptation(&self) -> Money {
        self.max_consumer_temptation
    }

    /// Largest supplier temptation reached (the consumer's realized risk).
    pub fn max_supplier_temptation(&self) -> Money {
        self.max_supplier_temptation
    }
}

/// Replays `sequence` against `deal`, checking the (relaxed) safety
/// conditions after the initial state and every action, plus structural
/// validity and completeness.
///
/// Takes the sequence by value: a sequence that passes moves into the
/// returned [`VerifiedSequence`] without a copy, and one that fails is
/// dropped with its error.
///
/// # Errors
///
/// Returns the first [`VerifyError`] encountered, or the verified
/// sequence with its exposure profile.
pub fn verify(
    deal: &Deal,
    margins: SafetyMargins,
    sequence: ExchangeSequence,
) -> Result<VerifiedSequence, VerifyError> {
    let mut progress = Progress::new(deal);
    let mut max_tc = Money::MIN;
    let mut max_ts = Money::MIN;

    // Initial state check.
    match check(&progress.view(), margins) {
        SafetyCheck::Safe => {}
        SafetyCheck::Violated { tempted, excess } => {
            return Err(VerifyError::UnsafeInitialState { tempted, excess });
        }
    }
    max_tc = max_tc.max(progress.view().consumer_temptation());
    max_ts = max_ts.max(progress.view().supplier_temptation());

    for (step, action) in sequence.actions().iter().enumerate() {
        let applied = match action {
            Action::Deliver(id) => progress.deliver(*id),
            Action::Pay(amount) => progress.pay(*amount),
        };
        if let Err(source) = applied {
            return Err(VerifyError::InvalidAction { step, source });
        }
        if progress.state().paid() > deal.price() {
            return Err(VerifyError::Overpayment {
                step,
                paid: progress.state().paid(),
                price: deal.price(),
            });
        }
        match check(&progress.view(), margins) {
            SafetyCheck::Safe => {}
            SafetyCheck::Violated { tempted, excess } => {
                return Err(VerifyError::UnsafePrefix {
                    step,
                    action: *action,
                    tempted,
                    excess,
                });
            }
        }
        max_tc = max_tc.max(progress.view().consumer_temptation());
        max_ts = max_ts.max(progress.view().supplier_temptation());
    }

    if !progress.is_complete() {
        return Err(VerifyError::Incomplete {
            delivered: progress.state().delivered_count(),
            total_items: deal.goods().len(),
            paid: progress.state().paid(),
            price: deal.price(),
        });
    }

    Ok(VerifiedSequence {
        sequence,
        max_consumer_temptation: max_tc,
        max_supplier_temptation: max_ts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goods::Goods;

    /// Vs = [2,1,3], Vc = [5,4,3]; Vs(G)=6, Vc(G)=12, P=9.
    fn deal() -> Deal {
        let goods = Goods::from_f64_pairs(&[(2.0, 5.0), (1.0, 4.0), (3.0, 3.0)]).unwrap();
        Deal::new(goods, Money::from_units(9)).unwrap()
    }

    fn ids(deal: &Deal) -> Vec<ItemId> {
        deal.goods().ids().collect()
    }

    #[test]
    fn sequence_accessors() {
        let d = deal();
        let id = ids(&d)[0];
        let mut seq = ExchangeSequence::new(vec![Action::Pay(Money::from_units(3))]);
        seq.push(Action::Deliver(id));
        assert_eq!(seq.len(), 2);
        assert!(!seq.is_empty());
        assert_eq!(seq.delivery_count(), 1);
        let paid: Money = seq
            .actions()
            .iter()
            .map(|a| match a {
                Action::Pay(m) => *m,
                Action::Deliver(_) => Money::ZERO,
            })
            .sum();
        assert_eq!(paid, Money::from_units(3));
        assert_eq!(seq.actions()[1], Action::Deliver(id));
        let collected: ExchangeSequence = seq.actions().iter().copied().collect();
        assert_eq!(collected, seq);
        assert_eq!((&seq).into_iter().count(), 2);
        assert_eq!(format!("{}", seq.actions()[0]), "pay 3.000000");
        assert!(format!("{}", seq.actions()[1]).starts_with("deliver item#"));
    }

    /// A hand-built sequence that is safe under a symmetric ε = 3 margin:
    /// pay 3 → deliver #2 (Vc=3,Vs=3) → pay 3 → deliver #1 (Vc=4,Vs=1)
    /// → deliver #0 (Vc=5,Vs=2) → pay 3.
    fn relaxed_sequence(d: &Deal) -> ExchangeSequence {
        let ids = ids(d);
        ExchangeSequence::new(vec![
            Action::Pay(Money::from_units(3)),
            Action::Deliver(ids[2]),
            Action::Pay(Money::from_units(3)),
            Action::Deliver(ids[1]),
            Action::Deliver(ids[0]),
            Action::Pay(Money::from_units(3)),
        ])
    }

    #[test]
    fn verifier_accepts_relaxed_sequence() {
        let d = deal();
        let margins = SafetyMargins::symmetric(Money::from_units(3)).unwrap();
        let verified = verify(&d, margins, relaxed_sequence(&d)).unwrap();
        // The final delivery leaves the consumer holding all goods owing 3:
        // T_c = 3 at that point; the supplier was at most owed cost 3.
        assert_eq!(verified.max_consumer_temptation(), Money::from_units(3));
        assert!(verified.max_supplier_temptation() <= Money::from_units(3));
        assert_eq!(verified.sequence().len(), 6);
        assert_eq!(verified.clone().into_sequence().len(), 6);
    }

    #[test]
    fn verifier_rejects_same_sequence_fully_safe() {
        let d = deal();
        let err = verify(&d, SafetyMargins::fully_safe(), relaxed_sequence(&d)).unwrap_err();
        match err {
            VerifyError::UnsafePrefix {
                step,
                tempted,
                excess,
                ..
            } => {
                // The early payments sit exactly on the boundary (T_s = 0);
                // the first strict violation is the final delivery, which
                // leaves the consumer holding everything while owing 3.
                assert_eq!(tempted, Role::Consumer);
                assert_eq!(step, 4);
                assert_eq!(excess, Money::from_units(3));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn verifier_rejects_incomplete() {
        let d = deal();
        let margins = SafetyMargins::symmetric(Money::from_units(12)).unwrap();
        let seq = ExchangeSequence::new(vec![Action::Pay(Money::from_units(1))]);
        let err = verify(&d, margins, seq).unwrap_err();
        assert!(matches!(err, VerifyError::Incomplete { delivered: 0, .. }));
        assert!(err.to_string().contains("incomplete"));
    }

    #[test]
    fn verifier_rejects_double_delivery() {
        let d = deal();
        let margins = SafetyMargins::symmetric(Money::from_units(20)).unwrap();
        let id = ids(&d)[0];
        let seq = ExchangeSequence::new(vec![Action::Deliver(id), Action::Deliver(id)]);
        let err = verify(&d, margins, seq).unwrap_err();
        assert!(matches!(
            err,
            VerifyError::InvalidAction {
                step: 1,
                source: StateError::AlreadyDelivered(_)
            }
        ));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn verifier_rejects_overpayment() {
        let d = deal();
        let margins = SafetyMargins::symmetric(Money::from_units(20)).unwrap();
        let seq = ExchangeSequence::new(vec![
            Action::Pay(Money::from_units(9)),
            Action::Pay(Money::from_units(1)),
        ]);
        let err = verify(&d, margins, seq).unwrap_err();
        assert!(matches!(err, VerifyError::Overpayment { step: 1, .. }));
    }

    #[test]
    fn initial_state_of_validated_deal_is_always_safe() {
        // Deal validation guarantees Vs(G) ≤ P ≤ Vc(G), which makes both
        // initial temptations ≤ 0 — `UnsafeInitialState` is therefore
        // unreachable through the public constructors and exists only as
        // a defensive check. Boundary case: P = Vc(G).
        let goods = Goods::from_f64_pairs(&[(1.0, 2.0)]).unwrap();
        let deal = Deal::new(goods, Money::from_units(2)).unwrap();
        // Any single positive-cost item makes a fully safe completion
        // impossible: the failure must be an UnsafePrefix at the delivery,
        // never an unsafe initial state.
        let err = verify(
            &deal,
            SafetyMargins::fully_safe(),
            ExchangeSequence::new(vec![
                Action::Pay(Money::from_units(1)),
                Action::Deliver(deal.goods().ids().next().unwrap()),
                Action::Pay(Money::from_units(1)),
            ]),
        )
        .unwrap_err();
        match err {
            VerifyError::UnsafePrefix { step, tempted, .. } => {
                assert_eq!(step, 1);
                assert_eq!(tempted, Role::Consumer);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unknown_item_is_invalid_action() {
        let d = deal();
        let margins = SafetyMargins::symmetric(Money::from_units(20)).unwrap();
        let seq = ExchangeSequence::new(vec![Action::Deliver(ItemId(42))]);
        let err = verify(&d, margins, seq).unwrap_err();
        assert!(matches!(
            err,
            VerifyError::InvalidAction {
                step: 0,
                source: StateError::UnknownItem(_)
            }
        ));
    }

    #[test]
    fn fully_safe_single_zero_cost_item() {
        // One item with Vs = 0: pay-all-then-deliver is fully safe since
        // the supplier loses nothing by delivering.
        let goods = Goods::from_f64_pairs(&[(0.0, 5.0)]).unwrap();
        let deal = Deal::new(goods, Money::from_units(4)).unwrap();
        let id = deal.goods().ids().next().unwrap();
        let seq =
            ExchangeSequence::new(vec![Action::Pay(Money::from_units(4)), Action::Deliver(id)]);
        let v = verify(&deal, SafetyMargins::fully_safe(), seq).unwrap();
        assert_eq!(v.max_consumer_temptation(), Money::ZERO);
        assert_eq!(v.max_supplier_temptation(), Money::ZERO);
    }

    #[test]
    fn zero_payment_rejected_structurally() {
        let d = deal();
        let margins = SafetyMargins::symmetric(Money::from_units(20)).unwrap();
        let seq = ExchangeSequence::new(vec![Action::Pay(Money::ZERO)]);
        let err = verify(&d, margins, seq).unwrap_err();
        assert!(matches!(err, VerifyError::InvalidAction { .. }));
    }
}
