//! Bayesian beta-reputation trust (the model of Mui, Mohtashemi &
//! Halberstadt, HICSS 2002 — reference \[3\] of the paper).
//!
//! Each subject's honesty is modelled as an unknown Bernoulli parameter
//! `θ` with a Beta(α, β) posterior. Direct experiences update the
//! posterior with unit weight; witness reports are *discounted* by the
//! evaluator's trust in the witness (fractional pseudo-counts), so
//! slander by unknown or distrusted witnesses has limited effect.
//!
//! The trust estimate is the posterior mean `α / (α + β)`; the confidence
//! is derived from the evidence mass, matching Mui et al.'s
//! Chernoff-bound "reliability" notion (see [`crate::confidence`]).

use crate::confidence::evidence_confidence;
use crate::model::{Conduct, PeerId, TrustEstimate, TrustModel, WitnessReport};
use crate::table::PeerTable;
use crate::{take_count, take_fixed_f64};
use trustex_persist::codec::{ByteReader, ByteWriter};
use trustex_persist::snapshot::Persistable;
use trustex_persist::PersistError;

/// Prior pseudo-count of honest observations (α₀): with
/// [`PRIOR_DISHONEST`], the uniform prior Beta(1, 1).
const PRIOR_HONEST: f64 = 1.0;
/// Prior pseudo-count of dishonest observations (β₀).
const PRIOR_DISHONEST: f64 = 1.0;
/// Weight multiplier for witness reports, before reliability
/// discounting.
const WITNESS_WEIGHT: f64 = 0.5;
/// Assumed reliability of a never-graded witness. 0.5 would ignore
/// strangers entirely; the slightly optimistic 0.6 lets a cold-started
/// community benefit from gossip while graded liars still end up fully
/// discounted.
const WITNESS_PRIOR: f64 = 0.6;
/// The configuration slots of the persisted layout, in order: the two
/// priors, the forgetting factor (1 = no forgetting, the only value the
/// model runs), the witness weight and the witness prior.
const PERSISTED_CONFIG: [f64; 5] = [
    PRIOR_HONEST,
    PRIOR_DISHONEST,
    1.0,
    WITNESS_WEIGHT,
    WITNESS_PRIOR,
];

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Evidence {
    honest: f64,
    dishonest: f64,
    /// The latest round observed. Evidence never decays, so nothing
    /// reads it; it travels in the persisted layout.
    last_round: u64,
}

impl Evidence {
    /// Whether the evidence is bit-identical to the cold default; a
    /// `-0.0` count is not cold (it must survive a persist round trip).
    fn is_cold(&self) -> bool {
        self.honest.to_bits() == 0.0f64.to_bits()
            && self.dishonest.to_bits() == 0.0f64.to_bits()
            && self.last_round == 0
    }

    /// Ingests one observation of `weight` at `round`.
    fn observe(&mut self, conduct: Conduct, weight: f64, round: u64) {
        match conduct {
            Conduct::Honest => self.honest += weight,
            Conduct::Dishonest => self.dishonest += weight,
        }
        self.last_round = self.last_round.max(round);
    }
}

/// A witness's own evidence plus an explicit graded marker: an ungraded
/// witness gets the witness prior (0.6), which differs from the
/// posterior of empty evidence — the table must keep the two apart just
/// like a `HashMap` miss did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct WitnessSlot {
    evidence: Evidence,
    graded: bool,
}

impl WitnessSlot {
    fn is_cold(&self) -> bool {
        !self.graded && self.evidence.is_cold()
    }
}

/// The beta-posterior trust model: prior Beta(1, 1), witness weight ½,
/// witness prior 0.6, and no forgetting.
///
/// # Examples
///
/// ```
/// use trustex_trust::beta::BetaTrust;
/// use trustex_trust::model::{Conduct, PeerId, TrustModel};
///
/// let mut model = BetaTrust::new();
/// let alice = PeerId(1);
/// for _ in 0..8 {
///     model.record_direct(alice, Conduct::Honest, 0);
/// }
/// model.record_direct(alice, Conduct::Dishonest, 0);
/// let est = model.predict(alice);
/// // Posterior mean (1+8)/(2+9) ≈ 0.818.
/// assert!((est.p_honest - 9.0 / 11.0).abs() < 1e-9);
/// assert!(est.confidence > 0.5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BetaTrust {
    /// Per-subject evidence, keyed by [`PeerId`]; unwritten
    /// ids read as cold (no evidence).
    evidence: PeerTable<Evidence>,
    /// Witness reliability estimates (their own beta evidence), used to
    /// discount their reports.
    witness_evidence: PeerTable<WitnessSlot>,
    /// Scorer-weighted aggregation: additionally scale every witness
    /// report by the evaluator's *behavioural* trust in the witness
    /// (`predict(witness).p_honest`). Witness grading only reacts to
    /// contradicted reports; this also deflates reporters the evaluator
    /// has watched cheat in exchanges — the natural defense against
    /// Sybil clones and collusion rings that never file a gradeable lie
    /// about the evaluator's own partners.
    scorer_weighted: bool,
}

impl BetaTrust {
    /// Creates an empty model.
    pub fn new() -> BetaTrust {
        BetaTrust::default()
    }

    /// Creates a model whose tables cover a community of `n` peers (see
    /// [`BetaTrust::ensure_capacity`]).
    pub fn with_population(n: usize) -> BetaTrust {
        let mut model = BetaTrust::new();
        model.ensure_capacity(n);
        model
    }

    /// Enables (or disables) scorer-weighted witness aggregation;
    /// returns the model for builder-style chaining.
    pub fn scorer_weighted(mut self, on: bool) -> BetaTrust {
        self.scorer_weighted = on;
        self
    }

    /// Raises both tables' dense length to `n` (never lowers it), so
    /// the persisted form covers peers `0..n`. Allocates nothing:
    /// evidence slots are allocated only for the peers written, and
    /// writes beyond `n` raise the length on demand.
    pub fn ensure_capacity(&mut self, n: usize) {
        self.evidence.ensure_capacity(n);
        self.witness_evidence.ensure_capacity(n);
    }

    /// Marks a witness's report as later corroborated (`true`) or
    /// contradicted (`false`) by direct experience — feeds the witness
    /// reliability used for discounting.
    pub fn grade_witness(&mut self, witness: PeerId, corroborated: bool, round: u64) {
        let slot = self.witness_evidence.slot_mut(witness);
        slot.graded = true;
        slot.evidence
            .observe(Conduct::from_honest(corroborated), 1.0, round);
    }

    /// The evaluator's reliability estimate for a witness in `[0, 1]`.
    pub fn witness_reliability(&self, witness: PeerId) -> f64 {
        let slot = self.witness_evidence.get(witness);
        if !slot.graded {
            return WITNESS_PRIOR;
        }
        (PRIOR_HONEST + slot.evidence.honest)
            / (PRIOR_HONEST + PRIOR_DISHONEST + slot.evidence.honest + slot.evidence.dishonest)
    }

    fn estimate_of(e: Evidence) -> TrustEstimate {
        let alpha = PRIOR_HONEST + e.honest;
        let beta = PRIOR_DISHONEST + e.dishonest;
        let mean = alpha / (alpha + beta);
        // Evidence mass beyond the prior drives confidence.
        let mass = (alpha + beta) - (PRIOR_HONEST + PRIOR_DISHONEST);
        TrustEstimate::new(mean, evidence_confidence(mass))
    }
}

impl TrustModel for BetaTrust {
    fn record_direct(&mut self, subject: PeerId, conduct: Conduct, round: u64) {
        self.evidence.slot_mut(subject).observe(conduct, 1.0, round);
    }

    fn record_witness(&mut self, report: WitnessReport) {
        // Jøsang-style discounting: the report enters with weight
        // witness_weight · (2·reliability − 1)⁺ — reports from witnesses
        // at or below coin-flip reliability are ignored entirely.
        let reliability = self.witness_reliability(report.witness);
        let discount = (2.0 * reliability - 1.0).max(0.0);
        let mut weight = WITNESS_WEIGHT * discount;
        if self.scorer_weighted {
            // Defense knob: deflate by behavioural trust in the witness,
            // so agents watched cheating lose reporting power even when
            // their reports were never directly contradicted.
            weight *= self.predict(report.witness).p_honest;
        }
        if weight <= 0.0 {
            return;
        }
        self.evidence
            .slot_mut(report.subject)
            .observe(report.conduct, weight, report.round);
    }

    fn predict(&self, subject: PeerId) -> TrustEstimate {
        Self::estimate_of(self.evidence.get(subject))
    }

    fn predict_row_into(&self, out: &mut [TrustEstimate]) {
        self.evidence.map_row_into(out, Self::estimate_of);
    }

    fn predict_row_sparse(&self, out: &mut Vec<(PeerId, TrustEstimate)>) -> TrustEstimate {
        self.evidence.map_sparse_into(out, Self::estimate_of)
    }

    fn forget_peer(&mut self, peer: PeerId) {
        // Drop both roles: evidence about the peer as a subject and its
        // accumulated witness standing. Estimates for other subjects keep
        // whatever weight the peer's past reports already contributed —
        // absorbed gossip is not re-attributable.
        self.evidence.forget(peer);
        self.witness_evidence.forget(peer);
    }

    fn name(&self) -> &'static str {
        "beta"
    }
}

impl Persistable for BetaTrust {
    const TAG: [u8; 4] = *b"BETA";

    fn encode_state(&self, w: &mut ByteWriter) {
        for v in PERSISTED_CONFIG {
            w.put_f64(v);
        }
        w.put_bool(self.scorer_weighted);
        w.put_len(self.evidence.len());
        for e in self.evidence.iter() {
            w.put_f64(e.honest);
            w.put_f64(e.dishonest);
            w.put_u64(e.last_round);
        }
        w.put_len(self.witness_evidence.len());
        for s in self.witness_evidence.iter() {
            w.put_f64(s.evidence.honest);
            w.put_f64(s.evidence.dishonest);
            w.put_u64(s.evidence.last_round);
            w.put_bool(s.graded);
        }
    }

    fn decode_state(r: &mut ByteReader) -> Result<Self, PersistError> {
        for v in PERSISTED_CONFIG {
            take_fixed_f64(
                r,
                v,
                "beta configuration differs from the model's constants",
            )?;
        }
        let scorer_weighted = r.take_bool()?;
        let take_evidence = |r: &mut ByteReader| -> Result<Evidence, PersistError> {
            Ok(Evidence {
                honest: take_count(r, "beta evidence counts must be in [0, 2^53]")?,
                dishonest: take_count(r, "beta evidence counts must be in [0, 2^53]")?,
                last_round: r.take_u64()?,
            })
        };
        let n = r.take_len(24)?;
        let evidence = PeerTable::try_from_dense(
            Evidence::default(),
            n,
            || take_evidence(r),
            Evidence::is_cold,
        )?;
        let n = r.take_len(25)?;
        let witness_evidence = PeerTable::try_from_dense(
            WitnessSlot::default(),
            n,
            || {
                Ok(WitnessSlot {
                    evidence: take_evidence(r)?,
                    graded: r.take_bool()?,
                })
            },
            WitnessSlot::is_cold,
        )?;
        Ok(BetaTrust {
            evidence,
            witness_evidence,
            scorer_weighted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const R: u64 = 0;

    #[test]
    fn prior_gives_half() {
        let m = BetaTrust::new();
        let e = m.predict(PeerId(9));
        assert_eq!(e.p_honest, 0.5);
        assert_eq!(e.confidence, 0.0);
    }

    #[test]
    fn posterior_mean_matches_formula() {
        let mut m = BetaTrust::new();
        let p = PeerId(1);
        for _ in 0..3 {
            m.record_direct(p, Conduct::Honest, R);
        }
        m.record_direct(p, Conduct::Dishonest, R);
        // Beta(1 + 3, 1 + 1): mean 4/6, evidence mass 4.
        let e = m.predict(p);
        assert!((e.p_honest - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(e.confidence, evidence_confidence(4.0));
    }

    #[test]
    fn confidence_grows_with_evidence() {
        let mut m = BetaTrust::new();
        let p = PeerId(1);
        let mut last = m.predict(p).confidence;
        for i in 0..20 {
            m.record_direct(p, Conduct::Honest, i);
            let c = m.predict(p).confidence;
            assert!(c >= last, "confidence must be monotone");
            last = c;
        }
        assert!(last > 0.6, "confidence after 20 observations: {last}");
    }

    #[test]
    fn no_forgetting_is_order_independent() {
        let mut a = BetaTrust::new();
        let mut b = BetaTrust::new();
        let p = PeerId(1);
        a.record_direct(p, Conduct::Honest, 0);
        a.record_direct(p, Conduct::Dishonest, 5);
        b.record_direct(p, Conduct::Dishonest, 5);
        b.record_direct(p, Conduct::Honest, 0);
        assert_eq!(a.predict(p).p_honest, b.predict(p).p_honest);
    }

    #[test]
    fn unknown_witness_reports_weigh_little() {
        let mut m = BetaTrust::new();
        let subject = PeerId(1);
        m.record_witness(WitnessReport {
            witness: PeerId(2),
            subject,
            conduct: Conduct::Dishonest,
            round: R,
        });
        // Unknown witness: prior reliability 0.6 → discount 0.2 →
        // weight 0.1: a nudge, far from a direct observation.
        let p = m.predict(subject).p_honest;
        assert!(p < 0.5 && p > 0.45, "small nudge expected: {p}");
    }

    #[test]
    fn reliable_witness_reports_move_the_estimate() {
        let mut m = BetaTrust::new();
        let witness = PeerId(2);
        let subject = PeerId(1);
        for _ in 0..10 {
            m.grade_witness(witness, true, R);
        }
        assert!(m.witness_reliability(witness) > 0.9);
        for round in 0..6 {
            m.record_witness(WitnessReport {
                witness,
                subject,
                conduct: Conduct::Dishonest,
                round,
            });
        }
        assert!(
            m.predict(subject).p_honest < 0.4,
            "trusted witness reports must matter: {}",
            m.predict(subject).p_honest
        );
    }

    #[test]
    fn contradicted_witness_loses_influence() {
        let mut m = BetaTrust::new();
        let witness = PeerId(2);
        for _ in 0..10 {
            m.grade_witness(witness, false, R);
        }
        assert!(m.witness_reliability(witness) < 0.2);
        let subject = PeerId(1);
        m.record_witness(WitnessReport {
            witness,
            subject,
            conduct: Conduct::Dishonest,
            round: R,
        });
        assert_eq!(m.predict(subject).p_honest, 0.5, "slander ignored");
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(BetaTrust::new().name(), "beta");
    }

    /// Evidence never decays, so a late observation enters at full
    /// weight and the posterior is order independent.
    #[test]
    fn late_evidence_full_weight_without_forgetting() {
        let p = PeerId(1);
        let mut m = BetaTrust::new();
        m.record_direct(p, Conduct::Honest, 10);
        m.record_direct(p, Conduct::Honest, 3);
        // Beta(1 + 2, 1): both observations at full weight.
        assert_eq!(
            m.predict(p),
            TrustEstimate::new(0.75, evidence_confidence(2.0))
        );
    }

    #[test]
    fn scorer_weighting_deflates_reports_from_known_cheaters() {
        let mut weighted = BetaTrust::new().scorer_weighted(true);
        let mut plain = BetaTrust::new();
        let witness = PeerId(2);
        let subject = PeerId(1);
        // Build witness reliability in both, then let the weighted model
        // also watch the witness cheat directly.
        for m in [&mut weighted, &mut plain] {
            for _ in 0..10 {
                m.grade_witness(witness, true, R);
            }
        }
        for _ in 0..10 {
            weighted.record_direct(witness, Conduct::Dishonest, R);
            plain.record_direct(witness, Conduct::Dishonest, R);
        }
        let report = WitnessReport {
            witness,
            subject,
            conduct: Conduct::Dishonest,
            round: R,
        };
        weighted.record_witness(report);
        plain.record_witness(report);
        // p_honest(witness) = 1/12 → the weighted report barely moves the
        // subject; the plain one enters at full discounted weight.
        assert!(
            weighted.predict(subject).p_honest > plain.predict(subject).p_honest,
            "scorer weighting must deflate a cheater's slander"
        );
        // The subject has no honest evidence, so α stays at the prior 1
        // and p_honest = 1 / (1 + β).
        let beta_of = |m: &BetaTrust| 1.0 / m.predict(subject).p_honest - 1.0;
        let (beta_w, beta_p) = (beta_of(&weighted), beta_of(&plain));
        assert!(
            (beta_p - beta_w) > 0.3,
            "weighted {beta_w} vs plain {beta_p}"
        );
    }

    #[test]
    fn scorer_weighting_off_changes_nothing() {
        let mut m = BetaTrust::new().scorer_weighted(false);
        let witness = PeerId(2);
        for _ in 0..10 {
            m.grade_witness(witness, true, R);
            m.record_direct(witness, Conduct::Dishonest, R);
        }
        let mut reference = BetaTrust::new();
        for _ in 0..10 {
            reference.grade_witness(witness, true, R);
            reference.record_direct(witness, Conduct::Dishonest, R);
        }
        let report = WitnessReport {
            witness,
            subject: PeerId(1),
            conduct: Conduct::Dishonest,
            round: R,
        };
        m.record_witness(report);
        reference.record_witness(report);
        assert_eq!(m.predict(PeerId(1)), reference.predict(PeerId(1)));
    }

    #[test]
    fn forget_peer_resets_subject_and_witness_roles() {
        let mut m = BetaTrust::with_population(8);
        let churner = PeerId(3);
        let other = PeerId(5);
        for _ in 0..12 {
            m.record_direct(churner, Conduct::Dishonest, R);
            m.record_direct(other, Conduct::Honest, R);
            m.grade_witness(churner, false, R);
        }
        assert!(m.predict(churner).p_honest < 0.2);
        assert!(m.witness_reliability(churner) < 0.2);
        let other_before = m.predict(other);
        m.forget_peer(churner);
        // Cold again in both roles; bystanders untouched.
        assert_eq!(m.predict(churner), BetaTrust::new().predict(churner));
        assert_eq!(m.witness_reliability(churner), WITNESS_PRIOR);
        assert_eq!(m.predict(other), other_before);
        // Forgetting an id beyond the table is a no-op, not a panic.
        m.forget_peer(PeerId(10_000));
    }

    #[test]
    fn with_population_presizes_without_changing_predictions() {
        let sized = BetaTrust::with_population(64);
        let grown = BetaTrust::new();
        for id in [0u32, 7, 63, 64, 1000] {
            assert_eq!(sized.predict(PeerId(id)), grown.predict(PeerId(id)));
        }
    }
}
