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
//!   witness-reliability discounting (Mui, Mohtashemi & Halberstadt,
//!   HICSS 2002 — reference \[3\]).
//! * [`complaints::ComplaintTrust`] — complaint-product metric with the
//!   outlier decision rule (Aberer & Despotovic, CIKM 2001 —
//!   reference \[2\]).
//! * [`baselines::MeanTrust`], [`baselines::EwmaTrust`] — naive
//!   baselines.
//!
//! Each model's parameters (priors, witness weights, the outlier
//! factor, the EWMA rate) are constants. Its one switch is
//! `scorer_weighted(bool)`, a builder that additionally weighs (or
//! gates) witness reports by the evaluator's own honesty estimate of
//! the reporter.
//!
//! All models implement [`model::TrustModel`] and return
//! [`model::TrustEstimate`]s (probability + confidence); the
//! [`confidence`] module maps evidence mass to the confidence score,
//! a practical stand-in for the Chernoff bound Mui et al. use to
//! quantify estimate reliability.
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

use trustex_persist::codec::ByteReader;
use trustex_persist::PersistError;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::baselines::{EwmaTrust, MeanTrust};
    pub use crate::beta::BetaTrust;
    pub use crate::complaints::{ComplaintTrust, OUTLIER_FACTOR};
    pub use crate::engine::{TrustEngine, TrustEvent, TrustSnapshot};
    pub use crate::evidence_log::{EvidenceLog, EvidenceRecord, LogReplay};
    pub use crate::model::{Conduct, PeerId, TrustEstimate, TrustModel, WitnessReport};
}

/// The largest evidence count a decoded snapshot may carry: 2⁵³. Each
/// event adds at most 1 to one count, so every reachable state stays
/// below it, and counts up to it keep every sum, product and ratio the
/// models form finite.
const MAX_COUNT: f64 = 9_007_199_254_740_992.0;

/// Reads one persisted evidence count, refusing with `context` any value
/// outside `[0, 2⁵³]`.
pub(crate) fn take_count(r: &mut ByteReader, context: &'static str) -> Result<f64, PersistError> {
    let count = r.take_finite_f64()?;
    if (0.0..=MAX_COUNT).contains(&count) {
        Ok(count)
    } else {
        Err(PersistError::Invalid { context })
    }
}

/// Reads one persisted configuration slot, refusing with `context` any
/// value whose bits differ from `expected`. The models' parameters are
/// constants; the layout keeps the slots they were once written to.
pub(crate) fn take_fixed_f64(
    r: &mut ByteReader,
    expected: f64,
    context: &'static str,
) -> Result<(), PersistError> {
    if r.take_f64()?.to_bits() == expected.to_bits() {
        Ok(())
    } else {
        Err(PersistError::Invalid { context })
    }
}
