//! Goods: the divisible set of items a supplier sells to a consumer.
//!
//! The paper's setting (§2) assumes a set of goods consisting of a number
//! of items, with two commonly-known value functions: `Vs(x)` — the
//! supplier's cost of generating and delivering item `x` — and `Vc(x)` —
//! what item `x` is worth to the consumer. This module provides the
//! [`Item`]/[`Goods`] types and the [`curves`](crate::curves) module
//! provides shape generators used by workloads.

use crate::money::Money;
use std::fmt;

/// Identifier of an item within one [`Goods`] set.
///
/// Ids are dense indices assigned by [`Goods::new`]; they are only
/// meaningful relative to their owning `Goods`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ItemId(pub(crate) u32);

impl ItemId {
    /// The dense index of this item in its `Goods`.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "item#{}", self.0)
    }
}

/// One indivisible item: the supplier's cost and the consumer's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Item {
    id: ItemId,
    supplier_cost: Money,
    consumer_value: Money,
}

impl Item {
    /// This item's identifier.
    pub fn id(&self) -> ItemId {
        self.id
    }

    /// `Vs(x)`: the supplier's cost of generating and delivering the item.
    pub fn supplier_cost(&self) -> Money {
        self.supplier_cost
    }

    /// `Vc(x)`: the item's worth to the consumer.
    pub fn consumer_value(&self) -> Money {
        self.consumer_value
    }

    /// The item's surplus `s(x) = Vc(x) − Vs(x)` (may be negative).
    pub fn surplus(&self) -> Money {
        self.consumer_value - self.supplier_cost
    }
}

/// Error building a [`Goods`] set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GoodsError {
    /// The set must contain at least one item.
    Empty,
    /// Valuations must be non-negative; the offending index is given.
    NegativeValuation {
        /// Position of the offending `(cost, value)` pair.
        index: usize,
    },
    /// Too many items (the id space is `u32`).
    TooManyItems,
}

impl fmt::Display for GoodsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GoodsError::Empty => write!(f, "goods set must contain at least one item"),
            GoodsError::NegativeValuation { index } => {
                write!(f, "negative valuation for item at index {index}")
            }
            GoodsError::TooManyItems => write!(f, "too many items for the u32 id space"),
        }
    }
}

impl std::error::Error for GoodsError {}

/// The complete set of goods in one deal, with both value functions.
///
/// # Examples
///
/// ```
/// use trustex_core::goods::Goods;
/// use trustex_core::money::Money;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let goods = Goods::new(vec![
///     (Money::from_units(2), Money::from_units(5)), // (Vs, Vc)
///     (Money::from_units(1), Money::from_units(4)),
/// ])?;
/// assert_eq!(goods.len(), 2);
/// assert_eq!(goods.total_supplier_cost(), Money::from_units(3));
/// assert_eq!(goods.total_consumer_value(), Money::from_units(9));
/// assert_eq!(goods.total_surplus(), Money::from_units(6));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Goods {
    items: Vec<Item>,
    total_cost: Money,
    total_value: Money,
}

impl Goods {
    /// Builds a goods set from `(supplier_cost, consumer_value)` pairs,
    /// taken in order: the `i`-th pair becomes the item with id `i`.
    ///
    /// Any exact-size iterator works, a `Vec` as well as a generator's
    /// `map` over a range: the items are built straight from it into
    /// the one `Vec<Item>` the set keeps, with no intermediate list of
    /// pairs. A lazy input is consumed in order and stops at the first
    /// negative pair.
    ///
    /// # Errors
    ///
    /// Returns [`GoodsError::Empty`] for an empty input,
    /// [`GoodsError::TooManyItems`] beyond `u32::MAX` items (both read
    /// from the input's length, before any pair is consumed), and
    /// [`GoodsError::NegativeValuation`] if any cost or value is
    /// negative.
    pub fn new<I>(valuations: I) -> Result<Goods, GoodsError>
    where
        I: IntoIterator<Item = (Money, Money)>,
        I::IntoIter: ExactSizeIterator,
    {
        let valuations = valuations.into_iter();
        if valuations.len() == 0 {
            return Err(GoodsError::Empty);
        }
        if valuations.len() > u32::MAX as usize {
            return Err(GoodsError::TooManyItems);
        }
        let mut items = Vec::with_capacity(valuations.len());
        let mut total_cost = Money::ZERO;
        let mut total_value = Money::ZERO;
        for (i, (cost, value)) in valuations.enumerate() {
            if cost.is_negative() || value.is_negative() {
                return Err(GoodsError::NegativeValuation { index: i });
            }
            total_cost += cost;
            total_value += value;
            items.push(Item {
                id: ItemId(i as u32),
                supplier_cost: cost,
                consumer_value: value,
            });
        }
        Ok(Goods {
            items,
            total_cost,
            total_value,
        })
    }

    /// Convenience constructor from float major-unit pairs (for tests and
    /// workload generators).
    ///
    /// # Errors
    ///
    /// Same as [`Goods::new`].
    pub fn from_f64_pairs(pairs: &[(f64, f64)]) -> Result<Goods, GoodsError> {
        Goods::new(
            pairs
                .iter()
                .map(|&(c, v)| (Money::from_f64(c), Money::from_f64(v))),
        )
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty (never true for a constructed `Goods`).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The item with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this goods set.
    pub fn item(&self, id: ItemId) -> &Item {
        &self.items[id.index()]
    }

    /// Returns the item at a dense index, if in range.
    pub fn get(&self, index: usize) -> Option<&Item> {
        self.items.get(index)
    }

    /// Iterates over all items in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &Item> + '_ {
        self.items.iter()
    }

    /// All items as a dense slice in id order (`slice[i].id().index() == i`).
    ///
    /// The scheduler hot paths index this slice directly instead of going
    /// through per-id lookups.
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// All item ids in id order.
    pub fn ids(&self) -> impl ExactSizeIterator<Item = ItemId> + '_ {
        self.items.iter().map(|i| i.id)
    }

    /// `Vs(G)`: total supplier cost of the whole set.
    pub fn total_supplier_cost(&self) -> Money {
        self.total_cost
    }

    /// `Vc(G)`: total consumer value of the whole set.
    pub fn total_consumer_value(&self) -> Money {
        self.total_value
    }

    /// Total surplus `Vc(G) − Vs(G)` created by trading the whole set.
    pub fn total_surplus(&self) -> Money {
        self.total_value - self.total_cost
    }
}

impl<'a> IntoIterator for &'a Goods {
    type Item = &'a Item;
    type IntoIter = std::slice::Iter<'a, Item>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn goods_abc() -> Goods {
        Goods::from_f64_pairs(&[(2.0, 5.0), (1.0, 4.0), (3.0, 3.0)]).unwrap()
    }

    #[test]
    fn construction_and_totals() {
        let g = goods_abc();
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
        assert_eq!(g.total_supplier_cost(), Money::from_units(6));
        assert_eq!(g.total_consumer_value(), Money::from_units(12));
        assert_eq!(g.total_surplus(), Money::from_units(6));
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(Goods::new(vec![]), Err(GoodsError::Empty));
    }

    #[test]
    fn negative_valuation_rejected() {
        let err = Goods::new(vec![
            (Money::from_units(1), Money::from_units(1)),
            (Money::from_units(-1), Money::from_units(1)),
        ])
        .unwrap_err();
        assert_eq!(err, GoodsError::NegativeValuation { index: 1 });
        let msg = err.to_string();
        assert!(msg.contains("index 1"), "{msg}");
    }

    #[test]
    fn item_accessors() {
        let g = goods_abc();
        let ids: Vec<ItemId> = g.ids().collect();
        assert_eq!(ids.len(), 3);
        let first = g.item(ids[0]);
        assert_eq!(first.supplier_cost(), Money::from_units(2));
        assert_eq!(first.consumer_value(), Money::from_units(5));
        assert_eq!(first.surplus(), Money::from_units(3));
        assert_eq!(first.id(), ids[0]);
        assert_eq!(format!("{}", ids[0]), "item#0");
        assert!(g.get(99).is_none());
        assert!(g.get(2).is_some());
    }

    #[test]
    fn negative_surplus_item_allowed() {
        let g = goods_abc();
        let third = g.get(2).unwrap();
        assert_eq!(third.surplus(), Money::ZERO);
        let g2 = Goods::from_f64_pairs(&[(5.0, 1.0)]).unwrap();
        assert_eq!(g2.get(0).unwrap().surplus(), Money::from_units(-4));
    }

    #[test]
    fn iteration() {
        let g = goods_abc();
        let n_ref = (&g).into_iter().count();
        assert_eq!(n_ref, 3);
        assert_eq!(g.iter().len(), 3);
    }

    #[test]
    fn items_slice_is_dense_in_id_order() {
        let g = goods_abc();
        let items = g.items();
        assert_eq!(items.len(), g.len());
        for (i, item) in items.iter().enumerate() {
            assert_eq!(item.id().index(), i);
            assert_eq!(g.item(item.id()), item);
        }
    }
}
