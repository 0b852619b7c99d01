//! A deal: goods plus an agreed total price.
//!
//! The paper assumes supplier and consumer "agreed about the overall price
//! the consumer will have to pay for the goods (P)". A [`Deal`] packages
//! the goods set with that price and checks *individual rationality*: a
//! price below the supplier's total cost or above the consumer's total
//! value would make one side prefer not to trade at all, independent of
//! trust.

use crate::goods::Goods;
use crate::money::Money;
use std::fmt;

/// Error constructing a [`Deal`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DealError {
    /// `P < Vs(G)`: the supplier would lose money even if fully paid.
    PriceBelowCost {
        /// The offered price.
        price: Money,
        /// The supplier's total cost `Vs(G)`.
        total_cost: Money,
    },
    /// `P > Vc(G)`: the consumer pays more than the goods are worth.
    PriceAboveValue {
        /// The offered price.
        price: Money,
        /// The consumer's total value `Vc(G)`.
        total_value: Money,
    },
    /// Negative prices are not meaningful.
    NegativePrice,
}

impl fmt::Display for DealError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DealError::PriceBelowCost { price, total_cost } => {
                write!(f, "price {price} below total supplier cost {total_cost}")
            }
            DealError::PriceAboveValue { price, total_value } => {
                write!(f, "price {price} above total consumer value {total_value}")
            }
            DealError::NegativePrice => write!(f, "negative price"),
        }
    }
}

impl std::error::Error for DealError {}

/// An individually rational deal: goods and total price `P` with
/// `Vs(G) ≤ P ≤ Vc(G)`.
///
/// # Examples
///
/// ```
/// use trustex_core::deal::Deal;
/// use trustex_core::goods::Goods;
/// use trustex_core::money::Money;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let goods = Goods::from_f64_pairs(&[(2.0, 5.0), (1.0, 4.0)])?;
/// let deal = Deal::new(goods, Money::from_units(6))?;
/// assert_eq!(deal.supplier_profit(), Money::from_units(3));
/// assert_eq!(deal.consumer_surplus(), Money::from_units(3));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Deal {
    goods: Goods,
    price: Money,
}

impl Deal {
    /// Creates a deal, validating individual rationality.
    ///
    /// # Errors
    ///
    /// Returns a [`DealError`] when the price is negative, below `Vs(G)`,
    /// or above `Vc(G)`.
    pub fn new(goods: Goods, price: Money) -> Result<Deal, DealError> {
        if price.is_negative() {
            return Err(DealError::NegativePrice);
        }
        if price < goods.total_supplier_cost() {
            return Err(DealError::PriceBelowCost {
                price,
                total_cost: goods.total_supplier_cost(),
            });
        }
        if price > goods.total_consumer_value() {
            return Err(DealError::PriceAboveValue {
                price,
                total_value: goods.total_consumer_value(),
            });
        }
        Ok(Deal { goods, price })
    }

    /// Creates a deal that splits the total surplus in half:
    /// `P = (Vs(G) + Vc(G)) / 2` — the symmetric Nash bargaining price.
    ///
    /// # Errors
    ///
    /// Propagates [`DealError`] (only possible for degenerate goods whose
    /// total surplus is negative, which `Goods` permits item-wise but not
    /// in aggregate here).
    pub fn with_split_surplus(goods: Goods) -> Result<Deal, DealError> {
        let mid_micros = (goods.total_supplier_cost().as_micros()
            + goods.total_consumer_value().as_micros())
            / 2;
        let price = Money::from_micros(mid_micros);
        Deal::new(goods, price)
    }

    /// The goods being exchanged.
    pub fn goods(&self) -> &Goods {
        &self.goods
    }

    /// The agreed total price `P`.
    pub fn price(&self) -> Money {
        self.price
    }

    /// The supplier's profit on completion: `P − Vs(G)` (≥ 0).
    pub fn supplier_profit(&self) -> Money {
        self.price - self.goods.total_supplier_cost()
    }

    /// The consumer's surplus on completion: `Vc(G) − P` (≥ 0).
    pub fn consumer_surplus(&self) -> Money {
        self.goods.total_consumer_value() - self.price
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn goods() -> Goods {
        Goods::from_f64_pairs(&[(2.0, 5.0), (1.0, 4.0), (3.0, 3.0)]).unwrap()
        // Vs(G) = 6, Vc(G) = 12
    }

    #[test]
    fn valid_deal() {
        let d = Deal::new(goods(), Money::from_units(9)).unwrap();
        assert_eq!(d.price(), Money::from_units(9));
        assert_eq!(d.supplier_profit(), Money::from_units(3));
        assert_eq!(d.consumer_surplus(), Money::from_units(3));
        assert_eq!(d.goods().len(), 3);
    }

    #[test]
    fn boundary_prices_allowed() {
        assert!(Deal::new(goods(), Money::from_units(6)).is_ok());
        assert!(Deal::new(goods(), Money::from_units(12)).is_ok());
    }

    #[test]
    fn price_below_cost_rejected() {
        let err = Deal::new(goods(), Money::from_units(5)).unwrap_err();
        assert!(matches!(err, DealError::PriceBelowCost { .. }));
        assert!(err.to_string().contains("below total supplier cost"));
    }

    #[test]
    fn price_above_value_rejected() {
        let err = Deal::new(goods(), Money::from_units(13)).unwrap_err();
        assert!(matches!(err, DealError::PriceAboveValue { .. }));
    }

    #[test]
    fn negative_price_rejected() {
        let err = Deal::new(goods(), Money::from_units(-1)).unwrap_err();
        assert_eq!(err, DealError::NegativePrice);
    }

    #[test]
    fn split_surplus_is_midpoint() {
        let d = Deal::with_split_surplus(goods()).unwrap();
        assert_eq!(d.price(), Money::from_units(9));
        assert_eq!(d.supplier_profit(), d.consumer_surplus());
    }
}
