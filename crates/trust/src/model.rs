//! The trust-model abstraction: Figure 1's "trust learning" module.
//!
//! A [`TrustModel`] is held by one evaluating agent. It ingests *direct
//! experiences* (outcomes of the evaluator's own exchanges) and *witness
//! reports* (second-hand outcomes relayed by other community members,
//! possibly lies), and produces [`TrustEstimate`]s: calibrated
//! probabilities that a subject will behave honestly in the next
//! interaction, with an attached confidence.

use std::fmt;

/// Identifier of a peer (community member).
///
/// A dense newtype over `u32`; the market simulation assigns them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PeerId(pub u32);

impl PeerId {
    /// The dense index of this peer.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "peer#{}", self.0)
    }
}

impl From<u32> for PeerId {
    fn from(v: u32) -> Self {
        PeerId(v)
    }
}

/// Observed conduct in one interaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Conduct {
    /// The subject honoured the exchange.
    Honest,
    /// The subject defected / cheated.
    Dishonest,
}

impl Conduct {
    /// Creates conduct from a boolean (`true` = honest).
    pub fn from_honest(honest: bool) -> Conduct {
        if honest {
            Conduct::Honest
        } else {
            Conduct::Dishonest
        }
    }

    /// Whether the conduct was honest.
    pub fn is_honest(self) -> bool {
        matches!(self, Conduct::Honest)
    }

    /// The opposite conduct (used by lying witnesses).
    pub fn inverted(self) -> Conduct {
        match self {
            Conduct::Honest => Conduct::Dishonest,
            Conduct::Dishonest => Conduct::Honest,
        }
    }
}

/// A probabilistic trust estimate for one subject.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrustEstimate {
    /// Estimated probability the subject behaves honestly next time,
    /// in `[0, 1]`.
    pub p_honest: f64,
    /// Confidence in the estimate, in `[0, 1]`: 0 = pure prior,
    /// approaching 1 with abundant evidence.
    pub confidence: f64,
}

impl TrustEstimate {
    /// The uninformed estimate: maximum ignorance.
    pub const UNKNOWN: TrustEstimate = TrustEstimate {
        p_honest: 0.5,
        confidence: 0.0,
    };

    /// Creates an estimate, clamping both fields into `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if either argument is NaN.
    pub fn new(p_honest: f64, confidence: f64) -> TrustEstimate {
        assert!(!p_honest.is_nan() && !confidence.is_nan(), "NaN estimate");
        TrustEstimate {
            p_honest: p_honest.clamp(0.0, 1.0),
            confidence: confidence.clamp(0.0, 1.0),
        }
    }

    /// Estimated probability of dishonest behaviour (`1 − p_honest`).
    pub fn p_dishonest(&self) -> f64 {
        1.0 - self.p_honest
    }
}

/// A second-hand report: `witness` claims that `subject` behaved
/// `conduct`-ly in an interaction at `round`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WitnessReport {
    /// Who relays the observation.
    pub witness: PeerId,
    /// Whom the observation is about.
    pub subject: PeerId,
    /// The claimed conduct.
    pub conduct: Conduct,
    /// Simulation round of the underlying interaction.
    pub round: u64,
}

/// The trust-learning interface (Figure 1, middle module).
///
/// Implementations are owned by a single evaluator; `record_direct` feeds
/// the evaluator's own experiences, `record_witness` feeds relayed ones.
/// `predict` must be callable at any time and must return
/// [`TrustEstimate::UNKNOWN`]-like values for never-seen subjects.
pub trait TrustModel {
    /// Ingests a direct experience with `subject`.
    fn record_direct(&mut self, subject: PeerId, conduct: Conduct, round: u64);

    /// Ingests a witness report (implementations decide how much —
    /// if at all — to discount it).
    fn record_witness(&mut self, report: WitnessReport);

    /// Predicts the subject's behaviour in the next interaction.
    fn predict(&self, subject: PeerId) -> TrustEstimate;

    /// Fills `out[i]` with the estimate for subject `PeerId(i)` — the
    /// dense row read of the trust engine's snapshots, which serve
    /// whole pages of estimates (the e12 replay, the service), and of
    /// the persistence checks.
    ///
    /// Must be bit-identical to calling [`TrustModel::predict`] per
    /// subject; models with per-peer evidence tables override it with a
    /// single table sweep that hoists every per-call invariant (priors,
    /// the complaint median, bounds checks) out of the loop.
    fn predict_row_into(&self, out: &mut [TrustEstimate]) {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.predict(PeerId(i as u32));
        }
    }

    /// The sparse read of the whole row — the read path of the accuracy
    /// metrics, which score every subject but find only a few dozen of
    /// each evaluator's slots written.
    ///
    /// Clears `out`, lists in it each subject whose evidence slot is
    /// written (at most once, in no particular order, ids beyond any
    /// population included) with its estimate, and returns the *cold*
    /// estimate, which every subject not listed gets. A listed estimate
    /// may equal the cold one, say for a slot `forget_peer` reset.
    ///
    /// Filling a row with the cold estimate and then writing the listed
    /// ids must be bit-identical to calling [`TrustModel::predict`] per
    /// subject. Like [`TrustModel::predict_row_into`], the read hoists
    /// per-call work (the complaint median) out of the walk. There is no
    /// default: only the model knows which slots it wrote.
    fn predict_row_sparse(&self, out: &mut Vec<(PeerId, TrustEstimate)>) -> TrustEstimate;

    /// Erases every trace of `peer` from the evaluator's state —
    /// evidence about it as a subject *and* any reporter standing it
    /// earned as a witness — as if the evaluator had never met it.
    ///
    /// This is the receiving side of a whitewashing attack: the peer
    /// sheds its identity (leave + rejoin under a fresh id) and the
    /// rest of the community forgets it. Predictions for the peer must
    /// return the cold-start estimate afterwards; predictions for every
    /// other subject must be unaffected (up to population statistics,
    /// such as the complaint median, that legitimately included the
    /// peer's records). The
    /// default is a no-op for stateless models.
    fn forget_peer(&mut self, peer: PeerId) {
        let _ = peer;
    }

    /// Stable model name for experiment tables.
    fn name(&self) -> &'static str;

    /// Settles derived state before the model is shared with readers
    /// (see [`crate::engine`]).
    ///
    /// Every owner that shares a model seals it first, so a shared model
    /// is plain data. Sealing must not change any prediction: it only
    /// does deferred work (the complaint model's population median) now,
    /// on the write side, so every read of the sealed model is a table
    /// read. The next mutation may unseal the model. The default is a
    /// no-op: most models derive nothing lazily.
    fn seal(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peer_id_display_index() {
        let p: PeerId = 5u32.into();
        assert_eq!(format!("{p}"), "peer#5");
        assert_eq!(p.index(), 5);
    }

    #[test]
    fn conduct_roundtrip() {
        assert!(Conduct::from_honest(true).is_honest());
        assert!(!Conduct::from_honest(false).is_honest());
        assert_eq!(Conduct::Honest.inverted(), Conduct::Dishonest);
        assert_eq!(Conduct::Dishonest.inverted(), Conduct::Honest);
    }

    #[test]
    fn estimate_clamps() {
        let e = TrustEstimate::new(1.5, -0.2);
        assert_eq!(e.p_honest, 1.0);
        assert_eq!(e.confidence, 0.0);
        assert!((TrustEstimate::new(0.3, 0.5).p_dishonest() - 0.7).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn estimate_rejects_nan() {
        TrustEstimate::new(f64::NAN, 0.0);
    }

    #[test]
    fn unknown_is_maximum_ignorance() {
        assert_eq!(TrustEstimate::UNKNOWN.p_honest, 0.5);
        assert_eq!(TrustEstimate::UNKNOWN.confidence, 0.0);
    }
}
