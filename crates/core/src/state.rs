//! Exchange state and the gain/temptation calculus.
//!
//! During an exchange the observable state is the set of delivered items
//! and the money paid so far. From it, both parties' *defection gains*,
//! *completion gains* and *temptations* are derived — the quantities the
//! paper's safety conditions (§2) constrain.
//!
//! Sign conventions (all quantities are [`Money`], positive = better for
//! the named party):
//!
//! * consumer defect gain  = `Vc(D) − m`
//! * consumer complete gain = `Vc(G) − P`
//! * consumer temptation   = defect − complete = `R − (Vc(G) − Vc(D))`
//!   with `R = P − m` the outstanding payment
//! * supplier defect gain  = `m − Vs(D)`
//! * supplier complete gain = `P − Vs(G)`
//! * supplier temptation   = `(Vs(G) − Vs(D)) − R`
//!
//! A positive consumer temptation means the consumer is currently
//! *indebted* (has received more value than the outstanding balance
//! justifies) and would gain by walking away; symmetrically for the
//! supplier. The fully safe window of the paper keeps both ≤ 0.

use crate::deal::Deal;
use crate::goods::ItemId;
use crate::money::Money;

/// The two exchange roles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// The party delivering goods.
    Supplier,
    /// The party paying money.
    Consumer,
}

impl Role {
    /// The opposite role.
    pub fn other(self) -> Role {
        match self {
            Role::Supplier => Role::Consumer,
            Role::Consumer => Role::Supplier,
        }
    }

    /// Stable lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Role::Supplier => "supplier",
            Role::Consumer => "consumer",
        }
    }
}

impl std::fmt::Display for Role {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Mutable state of one exchange in progress.
///
/// # Examples
///
/// ```
/// use trustex_core::deal::Deal;
/// use trustex_core::goods::Goods;
/// use trustex_core::money::Money;
/// use trustex_core::state::ExchangeState;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use trustex_core::state::Progress;
/// let goods = Goods::from_f64_pairs(&[(2.0, 5.0), (1.0, 4.0)])?;
/// let deal = Deal::new(goods, Money::from_units(6))?;
/// let mut p = Progress::new(&deal);
/// assert_eq!(p.view().outstanding(), Money::from_units(6));
/// p.pay(Money::from_units(4))?;
/// let id = deal.goods().ids().next().unwrap();
/// p.deliver(id)?;
/// assert_eq!(p.state().delivered_count(), 1);
/// assert_eq!(p.view().outstanding(), Money::from_units(2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExchangeState {
    delivered: Vec<bool>,
    delivered_count: usize,
    delivered_cost: Money,
    delivered_value: Money,
    paid: Money,
}

/// Error applying an action to an [`ExchangeState`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateError {
    /// The item was already delivered.
    AlreadyDelivered(ItemId),
    /// The item id does not belong to the deal's goods.
    UnknownItem(ItemId),
    /// Payments must be strictly positive.
    NonPositivePayment(Money),
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::AlreadyDelivered(id) => write!(f, "{id} was already delivered"),
            StateError::UnknownItem(id) => write!(f, "{id} does not belong to this deal"),
            StateError::NonPositivePayment(m) => {
                write!(f, "payment must be positive, got {m}")
            }
        }
    }
}

impl std::error::Error for StateError {}

impl ExchangeState {
    /// The initial state of a deal: nothing delivered, nothing paid.
    pub fn new(deal: &Deal) -> ExchangeState {
        ExchangeState {
            delivered: vec![false; deal.goods().len()],
            delivered_count: 0,
            delivered_cost: Money::ZERO,
            delivered_value: Money::ZERO,
            paid: Money::ZERO,
        }
    }

    /// Number of items delivered so far.
    pub fn delivered_count(&self) -> usize {
        self.delivered_count
    }

    /// Whether the given item has been delivered.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range for the deal this state was
    /// created from.
    pub fn is_delivered(&self, id: ItemId) -> bool {
        self.delivered[id.index()]
    }

    /// Money paid so far (`m`).
    pub fn paid(&self) -> Money {
        self.paid
    }

    /// `Vs(D)`: supplier cost of the delivered subset.
    pub fn delivered_cost(&self) -> Money {
        self.delivered_cost
    }

    /// `Vc(D)`: consumer value of the delivered subset.
    pub fn delivered_value(&self) -> Money {
        self.delivered_value
    }

    /// Whether every item has been delivered.
    pub fn all_delivered(&self) -> bool {
        self.delivered_count == self.delivered.len()
    }

    /// Applies a delivery, updating the cached subset sums.
    ///
    /// The state only records flags and sums; the caller supplies the
    /// item's cost and value; [`Progress`] pairs the state with its deal
    /// and looks the item up itself.
    fn apply_delivery_raw(
        &mut self,
        id: ItemId,
        cost: Money,
        value: Money,
    ) -> Result<(), StateError> {
        let idx = id.index();
        if idx >= self.delivered.len() {
            return Err(StateError::UnknownItem(id));
        }
        if self.delivered[idx] {
            return Err(StateError::AlreadyDelivered(id));
        }
        self.delivered[idx] = true;
        self.delivered_count += 1;
        self.delivered_cost += cost;
        self.delivered_value += value;
        Ok(())
    }

    /// Applies a payment of `amount`.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::NonPositivePayment`] when `amount ≤ 0`.
    /// Overpaying beyond `P` is permitted by the state (the verifier
    /// rejects it at the sequence level where the deal is known).
    pub fn apply_payment(&mut self, amount: Money) -> Result<(), StateError> {
        if !amount.is_positive() {
            return Err(StateError::NonPositivePayment(amount));
        }
        self.paid += amount;
        Ok(())
    }

    /// The delivered flags, aligned with item ids.
    pub fn delivered_flags(&self) -> &[bool] {
        &self.delivered
    }
}

/// A view pairing an [`ExchangeState`] with its [`Deal`], exposing the
/// derived economic quantities.
#[derive(Debug, Clone, Copy)]
pub struct StateView<'a> {
    deal: &'a Deal,
    state: &'a ExchangeState,
}

impl<'a> StateView<'a> {
    /// Creates a view over `state` in the context of `deal`.
    ///
    /// # Panics
    ///
    /// Panics if the state was created for a different number of items.
    pub fn new(deal: &'a Deal, state: &'a ExchangeState) -> StateView<'a> {
        assert_eq!(
            deal.goods().len(),
            state.delivered.len(),
            "state does not belong to this deal"
        );
        StateView { deal, state }
    }

    /// The underlying deal.
    pub fn deal(&self) -> &'a Deal {
        self.deal
    }

    /// The underlying state.
    pub fn state(&self) -> &'a ExchangeState {
        self.state
    }

    /// Outstanding payment `R = P − m` (negative if overpaid).
    pub fn outstanding(&self) -> Money {
        self.deal.price() - self.state.paid
    }

    /// Remaining supplier cost `Vs(G) − Vs(D)`.
    pub fn remaining_cost(&self) -> Money {
        self.deal.goods().total_supplier_cost() - self.state.delivered_cost
    }

    /// Remaining consumer value `Vc(G) − Vc(D)`.
    pub fn remaining_value(&self) -> Money {
        self.deal.goods().total_consumer_value() - self.state.delivered_value
    }

    /// Consumer's gain from defecting now: `Vc(D) − m`.
    pub fn consumer_defect_gain(&self) -> Money {
        self.state.delivered_value - self.state.paid
    }

    /// Consumer's gain from completing: `Vc(G) − P`.
    pub fn consumer_complete_gain(&self) -> Money {
        self.deal.consumer_surplus()
    }

    /// Supplier's gain from defecting now: `m − Vs(D)`.
    pub fn supplier_defect_gain(&self) -> Money {
        self.state.paid - self.state.delivered_cost
    }

    /// Supplier's gain from completing: `P − Vs(G)`.
    pub fn supplier_complete_gain(&self) -> Money {
        self.deal.supplier_profit()
    }

    /// Consumer temptation `T_c = defect − complete = R − (Vc(G) − Vc(D))`.
    pub fn consumer_temptation(&self) -> Money {
        self.consumer_defect_gain() - self.consumer_complete_gain()
    }

    /// Supplier temptation `T_s = (Vs(G) − Vs(D)) − R`.
    pub fn supplier_temptation(&self) -> Money {
        self.supplier_defect_gain() - self.supplier_complete_gain()
    }

    /// Temptation of the given role.
    pub fn temptation(&self, role: Role) -> Money {
        match role {
            Role::Supplier => self.supplier_temptation(),
            Role::Consumer => self.consumer_temptation(),
        }
    }

    /// What the named party loses (vs. completing) if the *other* party
    /// defects right now. Equal to the negation of the other party's
    /// temptation — the identity the paper's bounds exploit.
    pub fn exposure(&self, role: Role) -> Money {
        -self.temptation(role.other())
    }
}

/// Convenience: pairs a deal with an owned state and applies actions.
pub mod progress {
    use super::*;

    /// An exchange in progress: deal + owned state.
    #[derive(Debug, Clone)]
    pub struct Progress<'a> {
        deal: &'a Deal,
        state: ExchangeState,
    }

    impl<'a> Progress<'a> {
        /// Starts a fresh exchange over `deal`.
        pub fn new(deal: &'a Deal) -> Progress<'a> {
            Progress {
                deal,
                state: ExchangeState::new(deal),
            }
        }

        /// The deal being exchanged.
        pub fn deal(&self) -> &'a Deal {
            self.deal
        }

        /// Read access to the state.
        pub fn state(&self) -> &ExchangeState {
            &self.state
        }

        /// A derived-quantities view of the current state.
        pub fn view(&self) -> StateView<'_> {
            StateView::new(self.deal, &self.state)
        }

        /// Delivers an item.
        ///
        /// # Errors
        ///
        /// [`StateError::UnknownItem`] / [`StateError::AlreadyDelivered`].
        pub fn deliver(&mut self, id: ItemId) -> Result<(), StateError> {
            let item = self
                .deal
                .goods()
                .get(id.index())
                .ok_or(StateError::UnknownItem(id))?;
            self.state
                .apply_delivery_raw(id, item.supplier_cost(), item.consumer_value())
        }

        /// Pays an amount.
        ///
        /// # Errors
        ///
        /// [`StateError::NonPositivePayment`].
        pub fn pay(&mut self, amount: Money) -> Result<(), StateError> {
            self.state.apply_payment(amount)
        }

        /// Whether the exchange is complete: all delivered and fully paid.
        pub fn is_complete(&self) -> bool {
            self.state.all_delivered() && self.view().outstanding().is_zero()
        }
    }
}

pub use progress::Progress;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::goods::Goods;

    fn deal() -> Deal {
        // Vs(G) = 6, Vc(G) = 12, P = 9.
        let goods = Goods::from_f64_pairs(&[(2.0, 5.0), (1.0, 4.0), (3.0, 3.0)]).unwrap();
        Deal::new(goods, Money::from_units(9)).unwrap()
    }

    #[test]
    fn initial_state_quantities() {
        let d = deal();
        let st = ExchangeState::new(&d);
        let v = StateView::new(&d, &st);
        assert_eq!(v.outstanding(), Money::from_units(9));
        assert_eq!(v.remaining_cost(), Money::from_units(6));
        assert_eq!(v.remaining_value(), Money::from_units(12));
        // T_c(0) = P - Vc(G) = -3 ; T_s(0) = Vs(G) - P = -3.
        assert_eq!(v.consumer_temptation(), Money::from_units(-3));
        assert_eq!(v.supplier_temptation(), Money::from_units(-3));
        assert_eq!(v.consumer_defect_gain(), Money::ZERO);
        assert_eq!(v.supplier_defect_gain(), Money::ZERO);
    }

    #[test]
    fn temptation_identity_with_exposure() {
        let d = deal();
        let mut p = Progress::new(&d);
        p.pay(Money::from_units(4)).unwrap();
        let ids: Vec<ItemId> = d.goods().ids().collect();
        p.deliver(ids[0]).unwrap();
        let v = p.view();
        assert_eq!(v.exposure(Role::Consumer), -v.supplier_temptation());
        assert_eq!(v.exposure(Role::Supplier), -v.consumer_temptation());
    }

    #[test]
    fn delivery_updates_sums() {
        let d = deal();
        let mut p = Progress::new(&d);
        let ids: Vec<ItemId> = d.goods().ids().collect();
        p.deliver(ids[1]).unwrap();
        assert_eq!(p.state().delivered_cost(), Money::from_units(1));
        assert_eq!(p.state().delivered_value(), Money::from_units(4));
        assert!(p.state().is_delivered(ids[1]));
        assert!(!p.state().is_delivered(ids[0]));
        assert_eq!(p.state().delivered_count(), 1);
    }

    #[test]
    fn double_delivery_rejected() {
        let d = deal();
        let mut p = Progress::new(&d);
        let id = d.goods().ids().next().unwrap();
        p.deliver(id).unwrap();
        assert_eq!(p.deliver(id), Err(StateError::AlreadyDelivered(id)));
    }

    #[test]
    fn unknown_item_rejected() {
        let d = deal();
        let mut p = Progress::new(&d);
        let bogus = ItemId(99);
        assert_eq!(p.deliver(bogus), Err(StateError::UnknownItem(bogus)));
    }

    #[test]
    fn non_positive_payment_rejected() {
        let d = deal();
        let mut p = Progress::new(&d);
        assert!(matches!(
            p.pay(Money::ZERO),
            Err(StateError::NonPositivePayment(_))
        ));
        assert!(matches!(
            p.pay(Money::from_units(-1)),
            Err(StateError::NonPositivePayment(_))
        ));
    }

    #[test]
    fn consumer_temptation_rises_with_delivery() {
        let d = deal();
        let mut p = Progress::new(&d);
        let before = p.view().consumer_temptation();
        let id = d.goods().ids().next().unwrap(); // Vc = 5
        p.deliver(id).unwrap();
        let after = p.view().consumer_temptation();
        assert_eq!(after - before, Money::from_units(5));
    }

    #[test]
    fn supplier_temptation_rises_with_payment() {
        let d = deal();
        let mut p = Progress::new(&d);
        let before = p.view().supplier_temptation();
        p.pay(Money::from_units(2)).unwrap();
        let after = p.view().supplier_temptation();
        assert_eq!(after - before, Money::from_units(2));
    }

    #[test]
    fn completion_detection() {
        let d = deal();
        let mut p = Progress::new(&d);
        for id in d.goods().ids().collect::<Vec<_>>() {
            p.deliver(id).unwrap();
        }
        assert!(!p.is_complete());
        p.pay(Money::from_units(9)).unwrap();
        assert!(p.is_complete());
        // At completion both temptations are zero.
        let v = p.view();
        assert_eq!(v.consumer_temptation(), Money::ZERO);
        assert_eq!(v.supplier_temptation(), Money::ZERO);
    }

    #[test]
    fn role_helpers() {
        assert_eq!(Role::Supplier.other(), Role::Consumer);
        assert_eq!(Role::Consumer.other(), Role::Supplier);
        assert_eq!(Role::Supplier.to_string(), "supplier");
        assert_eq!(Role::Consumer.label(), "consumer");
    }

    #[test]
    #[should_panic(expected = "does not belong")]
    fn view_mismatched_state_panics() {
        let d = deal();
        let other_goods = Goods::from_f64_pairs(&[(1.0, 2.0)]).unwrap();
        let other_deal = Deal::new(other_goods, Money::from_units(1)).unwrap();
        let st = ExchangeState::new(&other_deal);
        let _ = StateView::new(&d, &st);
    }
}
