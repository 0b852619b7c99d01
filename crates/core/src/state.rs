//! Exchange state and the gain/temptation calculus.
//!
//! During an exchange the observable state is the set of delivered items
//! `D` and the money paid so far `m`. [`Progress`] holds both, together
//! with the deal, and derives from them both parties' *defection gains*
//! and *temptations* — the quantities the paper's safety conditions
//! (§2) constrain.
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

/// One exchange in progress: the deal, the items delivered so far (`D`)
/// and the money paid so far (`m`), with the derived gains and
/// temptations of both parties.
///
/// # Examples
///
/// ```
/// use trustex_core::deal::Deal;
/// use trustex_core::goods::Goods;
/// use trustex_core::money::Money;
/// use trustex_core::state::{Progress, Role};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let goods = Goods::from_f64_pairs(&[(2.0, 5.0), (1.0, 4.0)])?;
/// let deal = Deal::new(goods, Money::from_units(6))?;
/// let mut p = Progress::new(&deal);
/// assert_eq!(p.outstanding(), Money::from_units(6));
/// p.pay(Money::from_units(4))?;
/// let id = deal.goods().ids().next().unwrap();
/// p.deliver(id)?;
/// assert_eq!(p.delivered_count(), 1);
/// assert_eq!(p.outstanding(), Money::from_units(2));
/// // T_c = R − (Vc(G) − Vc(D)) = 2 − (9 − 5).
/// assert_eq!(p.temptation(Role::Consumer), Money::from_units(-2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Progress<'a> {
    deal: &'a Deal,
    delivered: Vec<bool>,
    delivered_count: usize,
    delivered_cost: Money,
    delivered_value: Money,
    paid: Money,
}

/// Error applying an action to a [`Progress`].
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

/// A party's gain from walking away with `paid` paid and items worth
/// `value` to the consumer and `cost` to the supplier delivered:
/// `Vc(D) − m` or `m − Vs(D)`.
#[inline]
fn defect_gain(role: Role, paid: Money, value: Money, cost: Money) -> Money {
    match role {
        Role::Consumer => value - paid,
        Role::Supplier => paid - cost,
    }
}

/// A party's temptation at the state with these running sums: its defect
/// gain minus its completion gain (`Vc(G) − P` or `P − Vs(G)`).
#[inline]
pub(crate) fn temptation(deal: &Deal, role: Role, paid: Money, value: Money, cost: Money) -> Money {
    let complete_gain = match role {
        Role::Consumer => deal.consumer_surplus(),
        Role::Supplier => deal.supplier_profit(),
    };
    defect_gain(role, paid, value, cost) - complete_gain
}

impl<'a> Progress<'a> {
    /// Starts a fresh exchange over `deal`: nothing delivered, nothing
    /// paid.
    pub fn new(deal: &'a Deal) -> Progress<'a> {
        Progress {
            deal,
            delivered: vec![false; deal.goods().len()],
            delivered_count: 0,
            delivered_cost: Money::ZERO,
            delivered_value: Money::ZERO,
            paid: Money::ZERO,
        }
    }

    /// The deal being exchanged.
    #[inline]
    pub fn deal(&self) -> &'a Deal {
        self.deal
    }

    /// Number of items delivered so far.
    #[inline]
    pub fn delivered_count(&self) -> usize {
        self.delivered_count
    }

    /// Money paid so far (`m`).
    #[inline]
    pub fn paid(&self) -> Money {
        self.paid
    }

    /// `Vs(D)`: supplier cost of the delivered subset.
    #[inline]
    pub fn delivered_cost(&self) -> Money {
        self.delivered_cost
    }

    /// `Vc(D)`: consumer value of the delivered subset.
    #[inline]
    pub fn delivered_value(&self) -> Money {
        self.delivered_value
    }

    /// Delivers an item, updating the delivered sums.
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
        let flag = &mut self.delivered[id.index()];
        if *flag {
            return Err(StateError::AlreadyDelivered(id));
        }
        *flag = true;
        self.delivered_count += 1;
        self.delivered_cost += item.supplier_cost();
        self.delivered_value += item.consumer_value();
        Ok(())
    }

    /// Pays `amount`. Overpaying beyond `P` is permitted here; the
    /// verifier rejects it at the sequence level.
    ///
    /// # Errors
    ///
    /// [`StateError::NonPositivePayment`] when `amount ≤ 0`.
    pub fn pay(&mut self, amount: Money) -> Result<(), StateError> {
        if !amount.is_positive() {
            return Err(StateError::NonPositivePayment(amount));
        }
        self.paid += amount;
        Ok(())
    }

    /// Whether the exchange is complete: all delivered and fully paid.
    pub fn is_complete(&self) -> bool {
        self.delivered_count == self.delivered.len() && self.outstanding().is_zero()
    }

    /// Outstanding payment `R = P − m` (negative if overpaid).
    #[inline]
    pub fn outstanding(&self) -> Money {
        self.deal.price() - self.paid
    }

    /// The role's gain from defecting now: `Vc(D) − m` for the consumer,
    /// `m − Vs(D)` for the supplier.
    #[inline]
    pub fn defect_gain(&self, role: Role) -> Money {
        defect_gain(role, self.paid, self.delivered_value, self.delivered_cost)
    }

    /// Temptation of the given role: `T_c = R − (Vc(G) − Vc(D))` or
    /// `T_s = (Vs(G) − Vs(D)) − R`.
    #[inline]
    pub fn temptation(&self, role: Role) -> Money {
        temptation(
            self.deal,
            role,
            self.paid,
            self.delivered_value,
            self.delivered_cost,
        )
    }
}

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
        let p = Progress::new(&d);
        assert_eq!(p.outstanding(), Money::from_units(9));
        assert_eq!(d.goods().total_supplier_cost(), Money::from_units(6));
        assert_eq!(d.goods().total_consumer_value(), Money::from_units(12));
        assert_eq!(
            (p.delivered_cost(), p.delivered_value()),
            (Money::ZERO, Money::ZERO)
        );
        // T_c(0) = P - Vc(G) = -3 ; T_s(0) = Vs(G) - P = -3.
        assert_eq!(p.temptation(Role::Consumer), Money::from_units(-3));
        assert_eq!(p.temptation(Role::Supplier), Money::from_units(-3));
        assert_eq!(p.defect_gain(Role::Consumer), Money::ZERO);
        assert_eq!(p.defect_gain(Role::Supplier), Money::ZERO);
    }

    #[test]
    fn delivery_updates_sums() {
        let d = deal();
        let mut p = Progress::new(&d);
        let ids: Vec<ItemId> = d.goods().ids().collect();
        p.deliver(ids[1]).unwrap();
        assert_eq!(p.delivered_cost(), Money::from_units(1));
        assert_eq!(p.delivered_value(), Money::from_units(4));
        assert!(p.delivered[ids[1].index()]);
        assert!(!p.delivered[ids[0].index()]);
        assert_eq!(p.delivered_count(), 1);
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
        let before = p.temptation(Role::Consumer);
        let id = d.goods().ids().next().unwrap(); // Vc = 5
        p.deliver(id).unwrap();
        let after = p.temptation(Role::Consumer);
        assert_eq!(after - before, Money::from_units(5));
    }

    #[test]
    fn supplier_temptation_rises_with_payment() {
        let d = deal();
        let mut p = Progress::new(&d);
        let before = p.temptation(Role::Supplier);
        p.pay(Money::from_units(2)).unwrap();
        let after = p.temptation(Role::Supplier);
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
        assert_eq!(p.temptation(Role::Consumer), Money::ZERO);
        assert_eq!(p.temptation(Role::Supplier), Money::ZERO);
    }

    #[test]
    fn role_helpers() {
        assert_eq!(Role::Supplier.other(), Role::Consumer);
        assert_eq!(Role::Consumer.other(), Role::Supplier);
        assert_eq!(Role::Supplier.to_string(), "supplier");
        assert_eq!(Role::Consumer.label(), "consumer");
    }
}
