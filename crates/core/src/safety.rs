//! Safety conditions: the paper's `Pmin`/`Pmax` window and its
//! trust-aware relaxation.
//!
//! §2 of the paper states the existence conditions for a safe exchange as
//! "the current utilities of the two partners lie between two bounds,
//! `Pmin` and `Pmax`, that are functions of `Vs(x)`, `Vc(x)` and `P`".
//! Concretely, after every atomic action the outstanding payment
//! `R = P − m` must satisfy
//!
//! ```text
//!   Vs(G) − Vs(D)  ≤  R  ≤  Vc(G) − Vc(D)
//!   └── Pmin ──┘          └── Pmax ──┘
//! ```
//!
//! * the *upper* bound caps the **consumer's temptation** (`T_c ≤ 0`):
//!   the consumer must never have received so much value that defecting
//!   beats completing;
//! * the *lower* bound caps the **supplier's temptation** (`T_s ≤ 0`).
//!
//! §3's trust-aware extension widens the window by two exposure bounds:
//! [`SafetyMargins`] carries `ε_s` (how much consumer temptation the
//! *supplier* tolerates, based on its trust in the consumer) and `ε_c`
//! (how much supplier temptation the *consumer* tolerates):
//!
//! ```text
//!   Vs(G) − Vs(D) − ε_c  ≤  R  ≤  Vc(G) − Vc(D) + ε_s
//! ```
//!
//! With `ε_s = ε_c = 0` this degenerates to the fully safe window.

use crate::money::Money;
use crate::state::{Role, StateView};
use std::fmt;

/// The exposure bounds each party accepts, derived from trust.
///
/// `eps_supplier` (`ε_s`) is the amount of consumer temptation — i.e.
/// consumer indebtedness — the **supplier** accepts; it should grow with
/// the supplier's trust in the consumer. `eps_consumer` (`ε_c`) is the
/// symmetric bound accepted by the consumer.
///
/// # Examples
///
/// ```
/// use trustex_core::money::Money;
/// use trustex_core::safety::SafetyMargins;
///
/// let strict = SafetyMargins::fully_safe();
/// assert!(strict.total().is_zero());
/// let relaxed = SafetyMargins::new(Money::from_units(2), Money::from_units(1)).unwrap();
/// assert_eq!(relaxed.total(), Money::from_units(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SafetyMargins {
    eps_supplier: Money,
    eps_consumer: Money,
}

/// Error constructing [`SafetyMargins`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NegativeMarginError {
    /// The offending bound.
    pub which: Role,
    /// The negative value supplied.
    pub value: Money,
}

impl fmt::Display for NegativeMarginError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "exposure bound accepted by the {} must be non-negative, got {}",
            self.which, self.value
        )
    }
}

impl std::error::Error for NegativeMarginError {}

impl SafetyMargins {
    /// The fully safe margins: `ε_s = ε_c = 0` (no tolerated temptation).
    pub const fn fully_safe() -> SafetyMargins {
        SafetyMargins {
            eps_supplier: Money::ZERO,
            eps_consumer: Money::ZERO,
        }
    }

    /// Creates margins from the two accepted exposure bounds.
    ///
    /// # Errors
    ///
    /// Returns [`NegativeMarginError`] if either bound is negative.
    pub fn new(
        eps_supplier: Money,
        eps_consumer: Money,
    ) -> Result<SafetyMargins, NegativeMarginError> {
        if eps_supplier.is_negative() {
            return Err(NegativeMarginError {
                which: Role::Supplier,
                value: eps_supplier,
            });
        }
        if eps_consumer.is_negative() {
            return Err(NegativeMarginError {
                which: Role::Consumer,
                value: eps_consumer,
            });
        }
        Ok(SafetyMargins {
            eps_supplier,
            eps_consumer,
        })
    }

    /// Symmetric margins: both parties accept the same bound.
    ///
    /// # Errors
    ///
    /// Returns [`NegativeMarginError`] if `eps` is negative.
    pub fn symmetric(eps: Money) -> Result<SafetyMargins, NegativeMarginError> {
        SafetyMargins::new(eps, eps)
    }

    /// `ε_s`: consumer temptation tolerated by the supplier.
    pub fn eps_supplier(&self) -> Money {
        self.eps_supplier
    }

    /// `ε_c`: supplier temptation tolerated by the consumer.
    pub fn eps_consumer(&self) -> Money {
        self.eps_consumer
    }

    /// `ε_s + ε_c`: the total window widening — the only quantity the
    /// feasibility condition depends on.
    pub fn total(&self) -> Money {
        self.eps_supplier + self.eps_consumer
    }
}

impl Default for SafetyMargins {
    fn default() -> Self {
        SafetyMargins::fully_safe()
    }
}

impl fmt::Display for SafetyMargins {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ε_s={} ε_c={}", self.eps_supplier, self.eps_consumer)
    }
}

/// The result of checking one state against the safety conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SafetyCheck {
    /// Both temptations within the tolerated bounds.
    Safe,
    /// The named role's temptation exceeds what the other role tolerates,
    /// by `excess`.
    Violated {
        /// Whose temptation exceeds the bound.
        tempted: Role,
        /// By how much the bound is exceeded (> 0).
        excess: Money,
    },
}

/// Checks the state in `view` against the margins.
///
/// When both temptations are violated (possible only for inconsistent
/// deals, since the two bounds move in opposite directions with `R`), the
/// larger excess is reported.
pub fn check(view: &StateView<'_>, margins: SafetyMargins) -> SafetyCheck {
    let tc = view.consumer_temptation() - margins.eps_supplier();
    let ts = view.supplier_temptation() - margins.eps_consumer();
    let worst = tc.max(ts);
    if !worst.is_positive() {
        SafetyCheck::Safe
    } else if tc >= ts {
        SafetyCheck::Violated {
            tempted: Role::Consumer,
            excess: tc,
        }
    } else {
        SafetyCheck::Violated {
            tempted: Role::Supplier,
            excess: ts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deal::Deal;
    use crate::goods::Goods;
    use crate::state::Progress;

    fn deal() -> Deal {
        // Vs(G) = 6, Vc(G) = 12, P = 9.
        let goods = Goods::from_f64_pairs(&[(2.0, 5.0), (1.0, 4.0), (3.0, 3.0)]).unwrap();
        Deal::new(goods, Money::from_units(9)).unwrap()
    }

    #[test]
    fn margins_construction() {
        assert!(SafetyMargins::new(Money::from_units(1), Money::from_units(2)).is_ok());
        let err = SafetyMargins::new(Money::from_units(-1), Money::ZERO).unwrap_err();
        assert_eq!(err.which, Role::Supplier);
        let err = SafetyMargins::new(Money::ZERO, Money::from_units(-1)).unwrap_err();
        assert_eq!(err.which, Role::Consumer);
        assert!(err.to_string().contains("non-negative"));
        assert_eq!(SafetyMargins::default(), SafetyMargins::fully_safe());
    }

    #[test]
    fn margins_accessors() {
        let m = SafetyMargins::new(Money::from_units(2), Money::from_units(1)).unwrap();
        assert_eq!(m.eps_supplier(), Money::from_units(2));
        assert_eq!(m.eps_consumer(), Money::from_units(1));
        assert_eq!(m.total(), Money::from_units(3));
        assert_eq!(format!("{m}"), "ε_s=2.000000 ε_c=1.000000");
        let s = SafetyMargins::symmetric(Money::from_units(4)).unwrap();
        assert_eq!(s.total(), Money::from_units(8));
    }

    #[test]
    fn initial_state_is_safe_for_rational_deal() {
        let d = deal();
        let p = Progress::new(&d);
        assert_eq!(
            check(&p.view(), SafetyMargins::fully_safe()),
            SafetyCheck::Safe
        );
    }

    #[test]
    fn consumer_violation_detected() {
        let d = deal();
        let mut p = Progress::new(&d);
        // Deliver everything without payment: consumer holds 12 of value,
        // owes 9 -> T_c = R - remaining value = 9 - 0 = 9 > 0.
        for id in d.goods().ids().collect::<Vec<_>>() {
            p.deliver(id).unwrap();
        }
        match check(&p.view(), SafetyMargins::fully_safe()) {
            SafetyCheck::Violated { tempted, excess } => {
                assert_eq!(tempted, Role::Consumer);
                assert_eq!(excess, Money::from_units(9));
            }
            SafetyCheck::Safe => panic!("expected violation"),
        }
        // A margin of 9 makes it admissible again.
        let wide = SafetyMargins::new(Money::from_units(9), Money::ZERO).unwrap();
        assert_eq!(check(&p.view(), wide), SafetyCheck::Safe);
    }

    #[test]
    fn supplier_violation_detected() {
        let d = deal();
        let mut p = Progress::new(&d);
        // Pay everything upfront: supplier holds 9, delivered nothing ->
        // T_s = Vs(G) - R = 6 - 0 = 6 > 0.
        p.pay(Money::from_units(9)).unwrap();
        match check(&p.view(), SafetyMargins::fully_safe()) {
            SafetyCheck::Violated { tempted, excess } => {
                assert_eq!(tempted, Role::Supplier);
                assert_eq!(excess, Money::from_units(6));
            }
            SafetyCheck::Safe => panic!("expected violation"),
        }
        let wide = SafetyMargins::new(Money::ZERO, Money::from_units(6)).unwrap();
        assert_eq!(check(&p.view(), wide), SafetyCheck::Safe);
    }

    /// `check` agrees with the module's window inequality
    /// `Vs(G) − Vs(D) − ε_c ≤ R ≤ Vc(G) − Vc(D) + ε_s`.
    #[test]
    fn check_matches_window_membership() {
        let d = deal();
        let mut p = Progress::new(&d);
        p.pay(Money::from_units(3)).unwrap();
        let v = p.view();
        for eps in 0..4 {
            let m = SafetyMargins::symmetric(Money::from_units(eps)).unwrap();
            let r = v.outstanding();
            let remaining_cost = d.goods().total_supplier_cost() - v.state().delivered_cost();
            let remaining_value = d.goods().total_consumer_value() - v.state().delivered_value();
            let in_window =
                remaining_cost - m.eps_consumer() <= r && r <= remaining_value + m.eps_supplier();
            assert_eq!(in_window, check(&v, m) == SafetyCheck::Safe, "eps={eps}");
        }
    }

    #[test]
    fn margin_exactly_at_temptation_is_safe() {
        let d = deal();
        let mut p = Progress::new(&d);
        let ids: Vec<_> = d.goods().ids().collect();
        p.deliver(ids[0]).unwrap(); // Vc=5 delivered, T_c = 9 - 7 = 2
        let v = p.view();
        assert_eq!(v.consumer_temptation(), Money::from_units(2));
        let exact = SafetyMargins::new(Money::from_units(2), Money::ZERO).unwrap();
        assert_eq!(check(&v, exact), SafetyCheck::Safe, "bound is inclusive");
        let below = SafetyMargins::new(Money::from_f64(1.999999), Money::ZERO).unwrap();
        assert_ne!(check(&v, below), SafetyCheck::Safe);
    }
}
