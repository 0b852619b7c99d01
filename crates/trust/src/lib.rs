//! # trustex-trust — trust learning models
//!
//! The "trust learning" module of the reference architecture in
//! *Trust-Aware Cooperation* (Figure 1): given records of past behaviour
//! (direct experiences and witness reports), compute probabilistic
//! predictions of future behaviour.
//!
//! Two principled models from the paper's own references, plus two
//! baselines for the accuracy experiments:
//!
//! * [`beta::BetaTrust`] — Bayesian beta-posterior reputation with
//!   witness-reliability discounting and optional forgetting
//!   (Mui, Mohtashemi & Halberstadt, HICSS 2002 — reference \[3\]).
//! * [`complaints::ComplaintTrust`] — complaint-product metric with the
//!   outlier decision rule (Aberer & Despotovic, CIKM 2001 —
//!   reference \[2\]).
//! * [`baselines::MeanTrust`], [`baselines::EwmaTrust`] — naive
//!   baselines.
//!
//! All models implement [`model::TrustModel`] and return
//! [`model::TrustEstimate`]s (probability + confidence); the
//! [`confidence`] module carries the Chernoff-bound machinery Mui et al.
//! use to quantify estimate reliability.
//!
//! ```
//! use trustex_trust::prelude::*;
//!
//! let mut model = BetaTrust::new();
//! model.record_direct(PeerId(1), Conduct::Honest, 0);
//! model.record_direct(PeerId(1), Conduct::Honest, 1);
//! let estimate = model.predict(PeerId(1));
//! assert!(estimate.p_honest > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod beta;
pub mod complaints;
pub mod confidence;
pub mod engine;
pub mod evidence_log;
pub mod model;
pub mod table;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::baselines::{EwmaTrust, MeanTrust};
    pub use crate::beta::{BetaConfig, BetaTrust};
    pub use crate::complaints::{Assessment, ComplaintConfig, ComplaintTrust};
    pub use crate::confidence::{chernoff_half_width, chernoff_sample_size};
    pub use crate::engine::{TrustEngine, TrustEvent, TrustSnapshot};
    pub use crate::evidence_log::{EvidenceLog, EvidenceRecord, LogReplay};
    pub use crate::model::{Conduct, PeerId, TrustEstimate, TrustModel, WitnessReport};
}
