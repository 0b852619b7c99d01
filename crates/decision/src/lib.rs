//! # trustex-decision — decision making from trust estimates
//!
//! The "decision making" module of the reference architecture in
//! *Trust-Aware Cooperation* (Figure 1): the piece the paper identifies
//! as missing from prior work. It turns a trust estimate plus the user's
//! risk attitude into concrete actions:
//!
//! * [`risk`] — risk profiles (neutral / averse / seeking).
//! * [`exposure`] — the §3 translation of decreased expected gains into
//!   the **bound on accepted indebtedness** `ε = budget / p̂`.
//! * [`engage`] — the participate-or-not rule on expected gains.
//! * [`negotiate`] — the full bilateral pipeline: trust on both sides →
//!   [`SafetyMargins`](trustex_core::safety::SafetyMargins) → verified
//!   schedule (or a precise report of why no trade happens).
//!
//! ```
//! use trustex_core::money::Money;
//! use trustex_decision::prelude::*;
//! use trustex_trust::model::TrustEstimate;
//!
//! let policy = ExposurePolicy::with_cap(Money::from_units(100));
//! let eps = exposure_bound(TrustEstimate::new(0.9, 1.0), Money::from_units(50), policy);
//! assert!(eps.is_positive());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engage;
pub mod exposure;
pub mod negotiate;
pub mod risk;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::engage::{decide, DeclineReason, Engagement};
    pub use crate::exposure::{effective_dishonesty, exposure_bound, ExposurePolicy};
    pub use crate::negotiate::{
        min_trust_to_trade, plan_exchange, NegotiatedExchange, PartyInputs, PlanError,
    };
    pub use crate::risk::RiskProfile;
}
