//! # trustex-core — trust-aware safe exchange
//!
//! A from-scratch Rust implementation of the core contribution of
//! *Trust-Aware Cooperation* (Despotovic, Aberer, Hauswirth; ICDCS 2002):
//! scheduling exchanges of goods for money so that, after every atomic
//! step, neither party has a rational incentive to walk away — and, when
//! no such *fully safe* schedule exists, relaxing the safety window by
//! trust-derived exposure bounds so that sufficiently trustworthy
//! partners can still trade.
//!
//! ## The model in one paragraph
//!
//! A supplier sells a set of discrete items to a consumer for an agreed
//! total price `P` ([`deal::Deal`]). Both parties know the supplier's
//! per-item cost `Vs(x)` and the consumer's per-item value `Vc(x)`
//! ([`goods::Goods`]). Deliveries are item-at-a-time; payments may be
//! chunked arbitrarily ([`sequence::Action`]). After every step the
//! outstanding payment must stay within a window derived from the
//! remaining cost and remaining value ([`safety`]); the window may be
//! widened by the exposure bounds `ε_s`, `ε_c` each party accepts based
//! on its trust in the other ([`safety::SafetyMargins`]). The
//! [`scheduler`] finds an admissible schedule whenever one exists and
//! reports the minimal total margin otherwise; the [`sequence`] verifier
//! independently replays and checks any schedule; the [`execute`] engine
//! runs a schedule against behavioural models of the two parties.
//!
//! ## Quick start
//!
//! ```
//! use trustex_core::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Three items: (supplier cost, consumer value) each.
//! let goods = Goods::from_f64_pairs(&[(2.0, 5.0), (1.0, 4.0), (3.0, 3.0)])?;
//! let deal = Deal::with_split_surplus(goods)?;
//!
//! // Fully safe exchange is impossible (positive delivery costs)…
//! assert!(min_required_margin(deal.goods()).is_positive());
//!
//! // …but partners who tolerate 1.0 of exposure each can trade safely:
//! let margins = SafetyMargins::symmetric(Money::from_units(1))?;
//! let plan = schedule(&deal, margins, PaymentPolicy::Lazy)?;
//!
//! // Execution between honest parties completes and realizes the gains.
//! let outcome = execute(&deal, plan.sequence(), &mut Honest, &mut Honest);
//! assert!(outcome.status.is_completed());
//! assert_eq!(outcome.welfare(), deal.goods().total_surplus());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod curves;
pub mod deal;
pub mod execute;
pub mod game;
pub mod goods;
pub mod money;
pub mod policy;
pub mod safety;
pub mod scheduler;
pub mod sequence;
pub mod state;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::curves::{generate as generate_goods, CurveShape};
    pub use crate::deal::{Deal, DealError};
    pub use crate::execute::{
        execute, max_future_temptation, DefectionOracle, ExchangeOutcome, ExchangeStatus, Honest,
        RationalDefector,
    };
    pub use crate::game::{analyze as analyze_game, min_supporting_stake, Equilibrium, Stakes};
    pub use crate::goods::{Goods, GoodsError, Item, ItemId};
    pub use crate::money::Money;
    pub use crate::policy::PaymentPolicy;
    pub use crate::safety::{SafetyCheck, SafetyMargins};
    pub use crate::scheduler::{feasible, min_required_margin, schedule, ScheduleError};
    pub use crate::sequence::{verify, Action, ExchangeSequence, VerifiedSequence, VerifyError};
    pub use crate::state::{ExchangeState, Progress, Role, StateView};
}
