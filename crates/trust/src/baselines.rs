//! Baseline trust models: plain mean and EWMA.
//!
//! These are the strawmen for experiment E5: they use the same inputs as
//! the principled models but with naive statistics, quantifying how much
//! the Bayesian treatment (priors, discounting, witness reliability)
//! actually buys.

use crate::confidence::evidence_confidence;
use crate::model::{Conduct, PeerId, TrustEstimate, TrustModel, WitnessReport};
use crate::table::PeerTable;
use crate::take_fixed_f64;
use trustex_persist::codec::{ByteReader, ByteWriter};
use trustex_persist::snapshot::Persistable;
use trustex_persist::PersistError;

/// Arithmetic-mean trust: `p = honest / total`, 0.5 when unseen.
/// Witness reports count exactly like direct experience (no
/// discounting) — deliberately gullible.
#[derive(Debug, Clone, Default)]
pub struct MeanTrust {
    /// `(honest, total)` counts keyed by [`PeerId`];
    /// `total == 0` marks a never-observed subject.
    counts: PeerTable<(u64, u64)>,
    /// Scorer-weighted aggregation: drop witness reports from reporters
    /// whose own observed mean sits below coin-flip. The crudest form of
    /// the defense the principled models apply continuously — still a
    /// mean, but no longer gullible to known cheaters.
    scorer_weighted: bool,
}

impl MeanTrust {
    /// Creates an empty model.
    pub fn new() -> MeanTrust {
        MeanTrust::default()
    }

    /// Creates a model whose table covers a community of `n` peers (see
    /// [`MeanTrust::ensure_capacity`]).
    pub fn with_population(n: usize) -> MeanTrust {
        let mut model = MeanTrust::new();
        model.ensure_capacity(n);
        model
    }

    /// Raises the count table's dense length to `n` (never lowers it),
    /// so the persisted form covers peers `0..n`. Allocates nothing:
    /// count slots are allocated only for the peers written.
    pub fn ensure_capacity(&mut self, n: usize) {
        self.counts.ensure_capacity(n);
    }

    /// `(honest, total)` observation counts for a subject.
    pub fn counts(&self, subject: PeerId) -> (u64, u64) {
        self.counts.get(subject)
    }

    /// Enables (or disables) the scorer-weighted witness gate; returns
    /// the model for builder-style chaining.
    pub fn scorer_weighted(mut self, on: bool) -> MeanTrust {
        self.scorer_weighted = on;
        self
    }

    fn add(&mut self, subject: PeerId, conduct: Conduct) {
        let e = self.counts.slot_mut(subject);
        if conduct.is_honest() {
            e.0 += 1;
        }
        e.1 += 1;
    }

    fn estimate_of(counts: (u64, u64)) -> TrustEstimate {
        match counts {
            (_, 0) => TrustEstimate::UNKNOWN,
            (h, t) => TrustEstimate::new(h as f64 / t as f64, evidence_confidence(t as f64)),
        }
    }
}

impl TrustModel for MeanTrust {
    fn record_direct(&mut self, subject: PeerId, conduct: Conduct, _round: u64) {
        self.add(subject, conduct);
    }

    fn record_witness(&mut self, report: WitnessReport) {
        // Gate, don't weight: integer counts leave no room for fractional
        // discounting, so a witness observed below coin-flip honesty is
        // ignored outright. Cold witnesses (0.5) pass.
        if self.scorer_weighted && self.predict(report.witness).p_honest < 0.5 {
            return;
        }
        self.add(report.subject, report.conduct);
    }

    fn predict(&self, subject: PeerId) -> TrustEstimate {
        Self::estimate_of(self.counts(subject))
    }

    fn predict_row_into(&self, out: &mut [TrustEstimate]) {
        self.counts.map_row_into(out, Self::estimate_of);
    }

    fn predict_row_sparse(&self, out: &mut Vec<(PeerId, TrustEstimate)>) -> TrustEstimate {
        self.counts.map_sparse_into(out, Self::estimate_of)
    }

    fn forget_peer(&mut self, peer: PeerId) {
        self.counts.forget(peer);
    }

    fn name(&self) -> &'static str {
        "mean"
    }
}

/// Exponentially weighted moving average trust.
///
/// `p ← (1 − λ)·p + λ·outcome` per observation, starting from 0.5, with
/// learning rate λ = 0.2. Reacts quickly to behaviour changes but never
/// converges, and treats witness reports at weight `λ/2`.
#[derive(Debug, Clone)]
pub struct EwmaTrust {
    /// `(score, observations)` slots keyed by [`PeerId`];
    /// `observations == 0` marks a never-observed subject (the score
    /// slot idles at the 0.5 starting point, the table's cold value).
    scores: PeerTable<(f64, u64)>,
    /// Scorer-weighted aggregation: drop witness reports from reporters
    /// whose own EWMA score sits below coin-flip (see
    /// [`MeanTrust`]'s gate; cold reporters at 0.5 pass).
    scorer_weighted: bool,
}

/// The cold value of an untouched EWMA score: the 0.5 starting point
/// with zero observations.
const EWMA_COLD: (f64, u64) = (0.5, 0);

/// The EWMA learning rate λ.
const RATE: f64 = 0.2;

impl EwmaTrust {
    /// Creates an empty model.
    pub fn new() -> EwmaTrust {
        EwmaTrust {
            scores: PeerTable::new(EWMA_COLD),
            scorer_weighted: false,
        }
    }

    /// Enables (or disables) the scorer-weighted witness gate; returns
    /// the model for builder-style chaining.
    pub fn scorer_weighted(mut self, on: bool) -> EwmaTrust {
        self.scorer_weighted = on;
        self
    }

    /// Creates a model whose table covers a community of `n` peers (see
    /// [`EwmaTrust::ensure_capacity`]).
    pub fn with_population(n: usize) -> EwmaTrust {
        let mut model = EwmaTrust::new();
        model.ensure_capacity(n);
        model
    }

    /// Raises the score table's dense length to `n` (never lowers it),
    /// so the persisted form covers peers `0..n`. Allocates nothing:
    /// score slots are allocated only for the peers written.
    pub fn ensure_capacity(&mut self, n: usize) {
        self.scores.ensure_capacity(n);
    }

    fn update(&mut self, subject: PeerId, conduct: Conduct, weight: f64) {
        let (score, n) = self.scores.slot_mut(subject);
        let target = if conduct.is_honest() { 1.0 } else { 0.0 };
        let lambda = RATE * weight;
        *score = (1.0 - lambda) * *score + lambda * target;
        *n += 1;
    }

    fn estimate_of(slot: (f64, u64)) -> TrustEstimate {
        match slot {
            (_, 0) => TrustEstimate::UNKNOWN,
            (score, n) => TrustEstimate::new(score, evidence_confidence(n as f64)),
        }
    }
}

impl Default for EwmaTrust {
    fn default() -> Self {
        EwmaTrust::new()
    }
}

impl TrustModel for EwmaTrust {
    fn record_direct(&mut self, subject: PeerId, conduct: Conduct, _round: u64) {
        self.update(subject, conduct, 1.0);
    }

    fn record_witness(&mut self, report: WitnessReport) {
        if self.scorer_weighted && self.predict(report.witness).p_honest < 0.5 {
            return;
        }
        self.update(report.subject, report.conduct, 0.5);
    }

    fn predict(&self, subject: PeerId) -> TrustEstimate {
        Self::estimate_of(self.scores.get(subject))
    }

    fn predict_row_into(&self, out: &mut [TrustEstimate]) {
        self.scores.map_row_into(out, Self::estimate_of);
    }

    fn predict_row_sparse(&self, out: &mut Vec<(PeerId, TrustEstimate)>) -> TrustEstimate {
        self.scores.map_sparse_into(out, Self::estimate_of)
    }

    fn forget_peer(&mut self, peer: PeerId) {
        self.scores.forget(peer);
    }

    fn name(&self) -> &'static str {
        "ewma"
    }
}

impl Persistable for MeanTrust {
    const TAG: [u8; 4] = *b"MEAN";

    fn encode_state(&self, w: &mut ByteWriter) {
        w.put_bool(self.scorer_weighted);
        w.put_len(self.counts.len());
        for (honest, total) in self.counts.iter() {
            w.put_u64(honest);
            w.put_u64(total);
        }
    }

    fn decode_state(r: &mut ByteReader) -> Result<Self, PersistError> {
        let scorer_weighted = r.take_bool()?;
        let n = r.take_len(16)?;
        let take_counts = || {
            let honest = r.take_u64()?;
            let total = r.take_u64()?;
            if honest > total {
                return Err(PersistError::Invalid {
                    context: "mean-trust honest count exceeds total",
                });
            }
            Ok((honest, total))
        };
        let counts = PeerTable::try_from_dense((0, 0), n, take_counts, |&c| c == (0, 0))?;
        Ok(MeanTrust {
            counts,
            scorer_weighted,
        })
    }
}

impl Persistable for EwmaTrust {
    const TAG: [u8; 4] = *b"EWMA";

    fn encode_state(&self, w: &mut ByteWriter) {
        w.put_f64(RATE);
        w.put_bool(self.scorer_weighted);
        w.put_len(self.scores.len());
        for (score, n) in self.scores.iter() {
            w.put_f64(score);
            w.put_u64(n);
        }
    }

    fn decode_state(r: &mut ByteReader) -> Result<Self, PersistError> {
        take_fixed_f64(r, RATE, "ewma rate differs from the model's constant")?;
        let scorer_weighted = r.take_bool()?;
        let n = r.take_len(16)?;
        let take_score = || {
            let score = r.take_finite_f64()?;
            let observations = r.take_u64()?;
            // Scores are convex combinations of {0, 1} seeded at 0.5, so
            // anything outside [0, 1] — or a touched-looking cold slot —
            // is a crafted payload, not reachable state.
            if !(0.0..=1.0).contains(&score) {
                return Err(PersistError::Invalid {
                    context: "ewma score out of [0, 1]",
                });
            }
            if observations == 0 && score != EWMA_COLD.0 {
                return Err(PersistError::Invalid {
                    context: "ewma cold slot with non-default score",
                });
            }
            Ok((score, observations))
        };
        let scores = PeerTable::try_from_dense(EWMA_COLD, n, take_score, |&(score, n)| {
            score.to_bits() == EWMA_COLD.0.to_bits() && n == 0
        })?;
        Ok(EwmaTrust {
            scores,
            scorer_weighted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_matches_fraction() {
        let mut m = MeanTrust::new();
        let p = PeerId(1);
        for i in 0..10 {
            m.record_direct(p, Conduct::from_honest(i % 5 != 0), 0);
        }
        // 8 honest of 10.
        assert!((m.predict(p).p_honest - 0.8).abs() < 1e-12);
        assert_eq!(m.counts(p), (8, 10));
    }

    #[test]
    fn mean_unknown_is_half() {
        let m = MeanTrust::new();
        assert_eq!(m.predict(PeerId(3)), TrustEstimate::UNKNOWN);
    }

    #[test]
    fn mean_is_gullible_to_witnesses() {
        let mut m = MeanTrust::new();
        let p = PeerId(1);
        m.record_direct(p, Conduct::Honest, 0);
        m.record_witness(WitnessReport {
            witness: PeerId(2),
            subject: p,
            conduct: Conduct::Dishonest,
            round: 0,
        });
        assert!((m.predict(p).p_honest - 0.5).abs() < 1e-12, "full weight");
    }

    #[test]
    fn ewma_tracks_recent_behaviour() {
        let mut m = EwmaTrust::new();
        let p = PeerId(1);
        for _ in 0..30 {
            m.record_direct(p, Conduct::Honest, 0);
        }
        let high = m.predict(p).p_honest;
        assert!(high > 0.95);
        for _ in 0..12 {
            m.record_direct(p, Conduct::Dishonest, 0);
        }
        let low = m.predict(p).p_honest;
        assert!(low < 0.1, "EWMA must react to the behaviour flip: {low}");
    }

    #[test]
    fn ewma_update_formula() {
        let mut m = EwmaTrust::new();
        let p = PeerId(1);
        m.record_direct(p, Conduct::Honest, 0);
        // λ = 0.2: 0.8·0.5 + 0.2·1 = 0.6.
        assert!((m.predict(p).p_honest - 0.6).abs() < 1e-12);
        m.record_direct(p, Conduct::Dishonest, 0);
        // 0.8·0.6 + 0.2·0 = 0.48.
        assert!((m.predict(p).p_honest - 0.48).abs() < 1e-12);
    }

    #[test]
    fn ewma_witness_half_weight() {
        let mut m = EwmaTrust::new();
        let p = PeerId(1);
        m.record_witness(WitnessReport {
            witness: PeerId(9),
            subject: p,
            conduct: Conduct::Honest,
            round: 0,
        });
        // λ·w = 0.1: 0.9·0.5 + 0.1·1 = 0.55.
        assert!((m.predict(p).p_honest - 0.55).abs() < 1e-12);
    }

    #[test]
    fn scorer_gate_blocks_known_cheaters_only() {
        let mut m = MeanTrust::new().scorer_weighted(true);
        let cheater = PeerId(9);
        let stranger = PeerId(8);
        let subject = PeerId(1);
        for _ in 0..4 {
            m.record_direct(cheater, Conduct::Dishonest, 0);
        }
        m.record_witness(WitnessReport {
            witness: cheater,
            subject,
            conduct: Conduct::Dishonest,
            round: 0,
        });
        assert_eq!(m.counts(subject), (0, 0), "cheater's report dropped");
        // A cold stranger (0.5) still passes the gate.
        m.record_witness(WitnessReport {
            witness: stranger,
            subject,
            conduct: Conduct::Honest,
            round: 0,
        });
        assert_eq!(m.counts(subject), (1, 1));

        let mut e = EwmaTrust::new().scorer_weighted(true);
        for _ in 0..4 {
            e.record_direct(cheater, Conduct::Dishonest, 0);
        }
        e.record_witness(WitnessReport {
            witness: cheater,
            subject,
            conduct: Conduct::Dishonest,
            round: 0,
        });
        assert_eq!(e.predict(subject), TrustEstimate::UNKNOWN);
        e.record_witness(WitnessReport {
            witness: stranger,
            subject,
            conduct: Conduct::Honest,
            round: 0,
        });
        assert!((e.predict(subject).p_honest - 0.55).abs() < 1e-12);
    }

    #[test]
    fn forget_peer_recolds_baselines() {
        let p = PeerId(2);
        let other = PeerId(4);
        let mut m = MeanTrust::with_population(8);
        m.record_direct(p, Conduct::Dishonest, 0);
        m.record_direct(other, Conduct::Honest, 0);
        m.forget_peer(p);
        assert_eq!(m.predict(p), TrustEstimate::UNKNOWN);
        assert_eq!(m.counts(other), (1, 1));
        m.forget_peer(PeerId(999));

        let mut e = EwmaTrust::with_population(8);
        e.record_direct(p, Conduct::Dishonest, 0);
        let other_est = {
            e.record_direct(other, Conduct::Honest, 0);
            e.predict(other)
        };
        e.forget_peer(p);
        assert_eq!(e.predict(p), TrustEstimate::UNKNOWN);
        assert_eq!(e.predict(other), other_est);
        e.forget_peer(PeerId(999));
    }

    #[test]
    fn names_and_defaults() {
        assert_eq!(MeanTrust::new().name(), "mean");
        assert_eq!(EwmaTrust::default().name(), "ewma");
    }
}
