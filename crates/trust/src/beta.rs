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
use trustex_persist::codec::{ByteReader, ByteWriter};
use trustex_persist::snapshot::Persistable;
use trustex_persist::PersistError;

/// Configuration of a [`BetaTrust`] model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BetaConfig {
    /// Prior pseudo-count of honest observations (α₀ > 0).
    pub prior_honest: f64,
    /// Prior pseudo-count of dishonest observations (β₀ > 0).
    pub prior_dishonest: f64,
    /// Per-round exponential forgetting factor in `(0, 1]`; 1 = no
    /// forgetting. Evidence from `d` rounds ago weighs `forgetting^d`.
    pub forgetting: f64,
    /// Weight multiplier for witness reports (before reliability
    /// discounting), in `[0, 1]`.
    pub witness_weight: f64,
    /// Assumed reliability of a never-graded witness, in `[0, 1]`.
    /// 0.5 ignores strangers entirely; the slightly optimistic default
    /// (0.6) lets a cold-started community benefit from gossip while
    /// graded liars still end up fully discounted.
    pub witness_prior: f64,
    /// Scorer-weighted aggregation: additionally scale every witness
    /// report by the evaluator's *behavioural* trust in the witness
    /// (`predict(witness).p_honest`). Witness grading only reacts to
    /// contradicted reports; this knob also deflates reporters the
    /// evaluator has watched cheat in exchanges — the natural defense
    /// against Sybil clones and collusion rings that never file a
    /// gradeable lie about the evaluator's own partners.
    pub scorer_weighted: bool,
}

impl Default for BetaConfig {
    /// Uniform prior Beta(1, 1), no forgetting, witness weight ½,
    /// witness prior 0.6.
    fn default() -> Self {
        BetaConfig {
            prior_honest: 1.0,
            prior_dishonest: 1.0,
            forgetting: 1.0,
            witness_weight: 0.5,
            witness_prior: 0.6,
            scorer_weighted: false,
        }
    }
}

impl BetaConfig {
    /// The configuration's rules: positive priors, forgetting in
    /// `(0, 1]`, witness weight and prior in `[0, 1]`. Returns the first
    /// rule violated (NaN violates every rule).
    fn validate(&self) -> Result<(), &'static str> {
        if !(self.prior_honest > 0.0 && self.prior_dishonest > 0.0) {
            return Err("beta priors must be positive");
        }
        if !(self.forgetting > 0.0 && self.forgetting <= 1.0) {
            return Err("beta forgetting must be in (0, 1]");
        }
        if !(0.0..=1.0).contains(&self.witness_weight) {
            return Err("beta witness weight must be in [0, 1]");
        }
        if !(0.0..=1.0).contains(&self.witness_prior) {
            return Err("beta witness prior must be in [0, 1]");
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Evidence {
    honest: f64,
    dishonest: f64,
    /// Round of the last decay application.
    last_round: u64,
}

impl Evidence {
    fn decay_to(&mut self, round: u64, forgetting: f64) {
        if forgetting < 1.0 && round > self.last_round {
            let f = forgetting.powf((round - self.last_round) as f64);
            self.honest *= f;
            self.dishonest *= f;
        }
        self.last_round = self.last_round.max(round);
    }

    /// Whether the evidence is bit-identical to the cold default; a
    /// `-0.0` count is not cold (it must survive a persist round trip).
    fn is_cold(&self) -> bool {
        self.honest.to_bits() == 0.0f64.to_bits()
            && self.dishonest.to_bits() == 0.0f64.to_bits()
            && self.last_round == 0
    }

    fn add(&mut self, conduct: Conduct, weight: f64) {
        match conduct {
            Conduct::Honest => self.honest += weight,
            Conduct::Dishonest => self.dishonest += weight,
        }
    }

    /// Ingests one observation at `round`, decaying state or — when the
    /// observation arrives *out of order* (gossip replaying per-session
    /// feedback forks can deliver reports from rounds already decayed
    /// past) — discounting the late evidence to its age-equivalent
    /// weight `weight · forgetting^(last_round − round)` instead of
    /// letting it enter at full weight.
    fn observe(&mut self, conduct: Conduct, weight: f64, round: u64, forgetting: f64) {
        if forgetting < 1.0 && round < self.last_round {
            let staleness = forgetting.powf((self.last_round - round) as f64);
            self.add(conduct, weight * staleness);
        } else {
            self.decay_to(round, forgetting);
            self.add(conduct, weight);
        }
    }
}

/// A witness's own evidence plus an explicit graded marker: an ungraded
/// witness gets [`BetaConfig::witness_prior`], which differs from the
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

/// The beta-posterior trust model.
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
#[derive(Debug, Clone)]
pub struct BetaTrust {
    config: BetaConfig,
    /// Per-subject evidence, keyed by [`PeerId`]; unwritten
    /// ids read as cold (no evidence).
    evidence: PeerTable<Evidence>,
    /// Witness reliability estimates (their own beta evidence), used to
    /// discount their reports.
    witness_evidence: PeerTable<WitnessSlot>,
}

impl Default for BetaTrust {
    fn default() -> Self {
        Self::new()
    }
}

impl BetaTrust {
    /// Creates a model with [`BetaConfig::default`].
    pub fn new() -> BetaTrust {
        BetaTrust::with_config(BetaConfig::default())
    }

    /// Creates a model with an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics on invalid configuration values (see [`BetaConfig`]).
    pub fn with_config(config: BetaConfig) -> BetaTrust {
        if let Err(rule) = config.validate() {
            panic!("{rule}");
        }
        BetaTrust {
            config,
            evidence: PeerTable::default(),
            witness_evidence: PeerTable::default(),
        }
    }

    /// Creates a default-configured model whose tables cover a
    /// community of `n` peers (see [`BetaTrust::ensure_capacity`]).
    pub fn with_population(n: usize) -> BetaTrust {
        let mut model = BetaTrust::new();
        model.ensure_capacity(n);
        model
    }

    /// Raises both tables' dense length to `n` (never lowers it), so
    /// the persisted form covers peers `0..n`. Allocates nothing:
    /// evidence slots are allocated only for the peers written, and
    /// writes beyond `n` raise the length on demand.
    pub fn ensure_capacity(&mut self, n: usize) {
        self.evidence.ensure_capacity(n);
        self.witness_evidence.ensure_capacity(n);
    }

    /// The active configuration.
    pub fn config(&self) -> BetaConfig {
        self.config
    }

    /// Marks a witness's report as later corroborated (`true`) or
    /// contradicted (`false`) by direct experience — feeds the witness
    /// reliability used for discounting.
    pub fn grade_witness(&mut self, witness: PeerId, corroborated: bool, round: u64) {
        let forgetting = self.config.forgetting;
        let slot = self.witness_evidence.slot_mut(witness);
        slot.graded = true;
        slot.evidence
            .observe(Conduct::from_honest(corroborated), 1.0, round, forgetting);
    }

    /// The evaluator's reliability estimate for a witness in `[0, 1]`.
    pub fn witness_reliability(&self, witness: PeerId) -> f64 {
        let slot = self.witness_evidence.get(witness);
        if !slot.graded {
            return self.config.witness_prior;
        }
        (self.config.prior_honest + slot.evidence.honest)
            / (self.config.prior_honest
                + self.config.prior_dishonest
                + slot.evidence.honest
                + slot.evidence.dishonest)
    }

    /// Raw posterior parameters `(α, β)` for a subject (including priors).
    pub fn posterior(&self, subject: PeerId) -> (f64, f64) {
        let e = self.evidence.get(subject);
        (
            self.config.prior_honest + e.honest,
            self.config.prior_dishonest + e.dishonest,
        )
    }

    fn estimate_of(&self, e: Evidence) -> TrustEstimate {
        let alpha = self.config.prior_honest + e.honest;
        let beta = self.config.prior_dishonest + e.dishonest;
        let mean = alpha / (alpha + beta);
        // Evidence mass beyond the prior drives confidence.
        let mass = (alpha + beta) - (self.config.prior_honest + self.config.prior_dishonest);
        TrustEstimate::new(mean, evidence_confidence(mass))
    }
}

impl TrustModel for BetaTrust {
    fn record_direct(&mut self, subject: PeerId, conduct: Conduct, round: u64) {
        let forgetting = self.config.forgetting;
        self.evidence
            .slot_mut(subject)
            .observe(conduct, 1.0, round, forgetting);
    }

    fn record_witness(&mut self, report: WitnessReport) {
        // Jøsang-style discounting: the report enters with weight
        // witness_weight · (2·reliability − 1)⁺ — reports from witnesses
        // at or below coin-flip reliability are ignored entirely.
        let reliability = self.witness_reliability(report.witness);
        let discount = (2.0 * reliability - 1.0).max(0.0);
        let mut weight = self.config.witness_weight * discount;
        if self.config.scorer_weighted {
            // Defense knob: deflate by behavioural trust in the witness,
            // so agents watched cheating lose reporting power even when
            // their reports were never directly contradicted.
            weight *= self.predict(report.witness).p_honest;
        }
        if weight <= 0.0 {
            return;
        }
        let forgetting = self.config.forgetting;
        self.evidence.slot_mut(report.subject).observe(
            report.conduct,
            weight,
            report.round,
            forgetting,
        );
    }

    fn predict(&self, subject: PeerId) -> TrustEstimate {
        self.estimate_of(self.evidence.get(subject))
    }

    fn predict_row_into(&self, out: &mut [TrustEstimate]) {
        self.evidence.map_row_into(out, |e| self.estimate_of(e));
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
        w.put_f64(self.config.prior_honest);
        w.put_f64(self.config.prior_dishonest);
        w.put_f64(self.config.forgetting);
        w.put_f64(self.config.witness_weight);
        w.put_f64(self.config.witness_prior);
        w.put_bool(self.config.scorer_weighted);
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
        let config = BetaConfig {
            prior_honest: r.take_finite_f64()?,
            prior_dishonest: r.take_finite_f64()?,
            forgetting: r.take_finite_f64()?,
            witness_weight: r.take_finite_f64()?,
            witness_prior: r.take_finite_f64()?,
            scorer_weighted: r.take_bool()?,
        };
        config
            .validate()
            .map_err(|context| PersistError::Invalid { context })?;
        let take_evidence = |r: &mut ByteReader| -> Result<Evidence, PersistError> {
            let e = Evidence {
                honest: r.take_finite_f64()?,
                dishonest: r.take_finite_f64()?,
                last_round: r.take_u64()?,
            };
            if e.honest < 0.0 || e.dishonest < 0.0 {
                return Err(PersistError::Invalid {
                    context: "beta evidence counts must be non-negative",
                });
            }
            Ok(e)
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
            config,
            evidence,
            witness_evidence,
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
        let (a, b) = m.posterior(p);
        assert_eq!((a, b), (4.0, 2.0));
        assert!((m.predict(p).p_honest - 4.0 / 6.0).abs() < 1e-12);
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
    fn forgetting_discounts_old_evidence() {
        let cfg = BetaConfig {
            forgetting: 0.5,
            ..BetaConfig::default()
        };
        let mut m = BetaTrust::with_config(cfg);
        let p = PeerId(1);
        // 10 dishonest observations at round 0.
        for _ in 0..10 {
            m.record_direct(p, Conduct::Dishonest, 0);
        }
        assert!(m.predict(p).p_honest < 0.2);
        // 5 honest at round 10: the old evidence has decayed by 2^-10.
        for _ in 0..5 {
            m.record_direct(p, Conduct::Honest, 10);
        }
        assert!(
            m.predict(p).p_honest > 0.8,
            "recent honesty should dominate: {}",
            m.predict(p).p_honest
        );
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
    fn neutral_witness_prior_ignores_strangers() {
        let mut m = BetaTrust::with_config(BetaConfig {
            witness_prior: 0.5,
            ..BetaConfig::default()
        });
        m.record_witness(WitnessReport {
            witness: PeerId(2),
            subject: PeerId(1),
            conduct: Conduct::Dishonest,
            round: R,
        });
        assert_eq!(m.predict(PeerId(1)).p_honest, 0.5);
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
    fn witness_weight_zero_disables_witnesses() {
        let mut m = BetaTrust::with_config(BetaConfig {
            witness_weight: 0.0,
            ..BetaConfig::default()
        });
        let witness = PeerId(2);
        for _ in 0..10 {
            m.grade_witness(witness, true, R);
        }
        m.record_witness(WitnessReport {
            witness,
            subject: PeerId(1),
            conduct: Conduct::Dishonest,
            round: R,
        });
        assert_eq!(m.predict(PeerId(1)).p_honest, 0.5);
    }

    #[test]
    #[should_panic(expected = "priors must be positive")]
    fn invalid_prior_panics() {
        BetaTrust::with_config(BetaConfig {
            prior_honest: 0.0,
            ..BetaConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "forgetting")]
    fn invalid_forgetting_panics() {
        BetaTrust::with_config(BetaConfig {
            forgetting: 1.5,
            ..BetaConfig::default()
        });
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(BetaTrust::new().name(), "beta");
    }

    /// Regression: an observation whose round predates `last_round` used
    /// to skip the decay entirely and enter at *full* weight under
    /// forgetting < 1. It must instead be discounted by
    /// `forgetting^(last_round − round)`, exactly as if it had been
    /// recorded on time and decayed since.
    #[test]
    fn late_evidence_is_discounted_to_age_equivalent_weight() {
        let cfg = BetaConfig {
            forgetting: 0.5,
            ..BetaConfig::default()
        };
        // In-order: honest at round 8, then advance to round 10.
        let mut on_time = BetaTrust::with_config(cfg);
        let p = PeerId(1);
        on_time.record_direct(p, Conduct::Honest, 8);
        on_time.record_direct(p, Conduct::Dishonest, 10);
        // Out-of-order: round 10 first, the round-8 report replays late.
        let mut late = BetaTrust::with_config(cfg);
        late.record_direct(p, Conduct::Dishonest, 10);
        late.record_direct(p, Conduct::Honest, 8);
        // Both orders must agree: the late honest observation carries
        // weight 0.5² = 0.25, not 1.0.
        let (alpha, beta) = late.posterior(p);
        assert!((alpha - 1.25).abs() < 1e-12, "late α: {alpha}");
        assert!((beta - 2.0).abs() < 1e-12, "late β: {beta}");
        let (a2, b2) = on_time.posterior(p);
        assert!((alpha - a2).abs() < 1e-12 && (beta - b2).abs() < 1e-12);
        // Late witness reports take the same path.
        let mut m = BetaTrust::with_config(cfg);
        let witness = PeerId(2);
        for _ in 0..10 {
            m.grade_witness(witness, true, 0);
        }
        m.record_direct(p, Conduct::Honest, 6);
        let (before, _) = m.posterior(p);
        m.record_witness(WitnessReport {
            witness,
            subject: p,
            conduct: Conduct::Honest,
            round: 2,
        });
        let (after, _) = m.posterior(p);
        let gained = after - before;
        assert!(
            gained > 0.0 && gained < 0.5 * 0.0625 + 1e-12,
            "stale witness report must enter below its on-time weight: {gained}"
        );
    }

    /// With forgetting = 1 (the default) late evidence is weightless to
    /// discount — order independence must hold exactly as before.
    #[test]
    fn late_evidence_full_weight_without_forgetting() {
        let p = PeerId(1);
        let mut m = BetaTrust::new();
        m.record_direct(p, Conduct::Honest, 10);
        m.record_direct(p, Conduct::Honest, 3);
        assert_eq!(m.posterior(p), (3.0, 1.0));
    }

    #[test]
    fn scorer_weighting_deflates_reports_from_known_cheaters() {
        let cfg = BetaConfig {
            scorer_weighted: true,
            ..BetaConfig::default()
        };
        let mut weighted = BetaTrust::with_config(cfg);
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
        let (_, beta_w) = weighted.posterior(subject);
        let (_, beta_p) = plain.posterior(subject);
        assert!(
            (beta_p - beta_w) > 0.3,
            "weighted {beta_w} vs plain {beta_p}"
        );
    }

    #[test]
    fn scorer_weighting_off_changes_nothing() {
        let cfg = BetaConfig::default();
        assert!(!cfg.scorer_weighted);
        let mut m = BetaTrust::with_config(cfg);
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
        assert_eq!(m.witness_reliability(churner), m.config().witness_prior);
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
