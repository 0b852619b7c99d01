//! Reporting behaviours: how community members feed the reputation
//! system *after* an exchange.
//!
//! Honest reputation data is what makes trust-aware exchange work; lying
//! reporters are the primary attack on it. The market simulation calls
//! [`ReportingBehavior::report`] with the true observed conduct and
//! publishes whatever comes back.

use crate::adversary::Faction;
use trustex_netsim::rng::SimRng;
use trustex_trust::model::Conduct;

/// How an agent reports interaction outcomes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReportingBehavior {
    /// Reports the truth.
    Truthful,
    /// Always reports the opposite of what happened.
    Liar,
    /// Reports truthfully about honest partners but also files
    /// unprovoked false complaints against random victims with the given
    /// per-round probability.
    Slanderer {
        /// Probability of filing a fake complaint each round.
        slander_prob: f64,
    },
    /// Never reports anything (free rider on the reputation system).
    Silent,
    /// Collusion-ring member: claims `Honest` about fellow ring members
    /// regardless of what happened, reports the truth about outsiders
    /// (cover), and files unprovoked positive vouches for ring members.
    Colluder {
        /// Probability of an unprovoked vouch per session.
        vouch_prob: f64,
    },
    /// Targeted slander-campaign member: claims `Dishonest` about
    /// marked victims, reports the truth about everyone else (cover),
    /// and files unprovoked complaints against the victim set.
    Smear {
        /// Probability of an unprovoked targeted complaint per session.
        smear_prob: f64,
    },
}

/// An unprovoked report a reporting behaviour may file after a session
/// (see [`ReportingBehavior::campaigns_now`]); the market simulation
/// resolves the target and delivers the gossip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Campaign {
    /// A fake complaint against a uniformly random other agent (the
    /// independent [`ReportingBehavior::Slanderer`]).
    RandomSlander,
    /// A fake complaint against a member of the marked victim set.
    TargetedSlander,
    /// An unprovoked `Honest` vouch for a fellow ring member.
    Vouch,
}

impl ReportingBehavior {
    /// Shapes a true observation into what the agent actually reports;
    /// `None` means no report is filed.
    pub fn report(self, truth: Conduct) -> Option<Conduct> {
        match self {
            ReportingBehavior::Truthful => Some(truth),
            ReportingBehavior::Liar => Some(truth.inverted()),
            ReportingBehavior::Slanderer { .. } => Some(truth),
            ReportingBehavior::Silent => None,
            // Outside their campaign targets, coordinated reporters
            // tell the truth as cover; faction-aware shaping happens in
            // `report_about`.
            ReportingBehavior::Colluder { .. } | ReportingBehavior::Smear { .. } => Some(truth),
        }
    }

    /// Faction-aware report shaping: like [`ReportingBehavior::report`]
    /// but coordinated behaviours may distort based on who the subject
    /// is — colluders vouch `Honest` for fellow ring members, smear
    /// cells claim `Dishonest` about marked victims. For every
    /// non-coordinated behaviour this is exactly `report(truth)`.
    pub fn report_about(
        self,
        truth: Conduct,
        own_faction: Faction,
        subject_faction: Faction,
    ) -> Option<Conduct> {
        match self {
            ReportingBehavior::Colluder { .. } => {
                if let (Faction::Ring(own), Faction::Ring(subject)) = (own_faction, subject_faction)
                {
                    if own == subject {
                        return Some(Conduct::Honest);
                    }
                }
                Some(truth)
            }
            ReportingBehavior::Smear { .. } => {
                if subject_faction == Faction::Victim {
                    Some(Conduct::Dishonest)
                } else {
                    Some(truth)
                }
            }
            other => other.report(truth),
        }
    }

    /// Which unprovoked campaign report, if any, the agent files after a
    /// session. Behaviours without a campaign never touch the RNG, so
    /// populations without them replay bit-identical streams.
    pub fn campaigns_now(self, rng: &mut SimRng) -> Option<Campaign> {
        match self {
            ReportingBehavior::Slanderer { slander_prob } => {
                rng.chance(slander_prob).then_some(Campaign::RandomSlander)
            }
            ReportingBehavior::Smear { smear_prob } => {
                rng.chance(smear_prob).then_some(Campaign::TargetedSlander)
            }
            ReportingBehavior::Colluder { vouch_prob } => {
                rng.chance(vouch_prob).then_some(Campaign::Vouch)
            }
            _ => None,
        }
    }

    /// Whether reports from this behaviour are truthful.
    pub fn is_truthful(self) -> bool {
        matches!(
            self,
            ReportingBehavior::Truthful | ReportingBehavior::Slanderer { .. }
        )
    }

    /// Stable label for report tables.
    pub fn label(self) -> &'static str {
        match self {
            ReportingBehavior::Truthful => "truthful",
            ReportingBehavior::Liar => "liar",
            ReportingBehavior::Slanderer { .. } => "slanderer",
            ReportingBehavior::Silent => "silent",
            ReportingBehavior::Colluder { .. } => "colluder",
            ReportingBehavior::Smear { .. } => "smear",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthful_passes_through() {
        assert_eq!(
            ReportingBehavior::Truthful.report(Conduct::Honest),
            Some(Conduct::Honest)
        );
        assert_eq!(
            ReportingBehavior::Truthful.report(Conduct::Dishonest),
            Some(Conduct::Dishonest)
        );
    }

    #[test]
    fn liar_inverts() {
        assert_eq!(
            ReportingBehavior::Liar.report(Conduct::Honest),
            Some(Conduct::Dishonest)
        );
        assert_eq!(
            ReportingBehavior::Liar.report(Conduct::Dishonest),
            Some(Conduct::Honest)
        );
    }

    #[test]
    fn silent_reports_nothing() {
        assert_eq!(ReportingBehavior::Silent.report(Conduct::Honest), None);
    }

    #[test]
    fn slanderer_reports_truth_but_slanders() {
        let s = ReportingBehavior::Slanderer { slander_prob: 1.0 };
        assert_eq!(s.report(Conduct::Dishonest), Some(Conduct::Dishonest));
        let mut rng = SimRng::new(1);
        assert_eq!(s.campaigns_now(&mut rng), Some(Campaign::RandomSlander));
        assert_eq!(ReportingBehavior::Truthful.campaigns_now(&mut rng), None);
    }

    #[test]
    fn slander_rate() {
        let s = ReportingBehavior::Slanderer { slander_prob: 0.25 };
        let mut rng = SimRng::new(2);
        let hits = (0..10_000)
            .filter(|_| s.campaigns_now(&mut rng) == Some(Campaign::RandomSlander))
            .count();
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.02, "{rate}");
    }

    #[test]
    fn colluder_vouches_for_ring_and_covers_elsewhere() {
        let c = ReportingBehavior::Colluder { vouch_prob: 1.0 };
        // Fellow ring member: always whitewashed to Honest.
        assert_eq!(
            c.report_about(Conduct::Dishonest, Faction::Ring(0), Faction::Ring(0)),
            Some(Conduct::Honest)
        );
        // Different ring or outsider: truthful cover.
        assert_eq!(
            c.report_about(Conduct::Dishonest, Faction::Ring(0), Faction::Ring(1)),
            Some(Conduct::Dishonest)
        );
        assert_eq!(
            c.report_about(Conduct::Honest, Faction::Ring(0), Faction::None),
            Some(Conduct::Honest)
        );
        let mut rng = SimRng::new(3);
        assert_eq!(c.campaigns_now(&mut rng), Some(Campaign::Vouch));
    }

    #[test]
    fn smear_targets_victims_only() {
        let s = ReportingBehavior::Smear { smear_prob: 1.0 };
        assert_eq!(
            s.report_about(Conduct::Honest, Faction::SlanderCell, Faction::Victim),
            Some(Conduct::Dishonest)
        );
        assert_eq!(
            s.report_about(Conduct::Honest, Faction::SlanderCell, Faction::None),
            Some(Conduct::Honest)
        );
        let mut rng = SimRng::new(4);
        assert_eq!(s.campaigns_now(&mut rng), Some(Campaign::TargetedSlander));
    }

    #[test]
    fn report_about_matches_report_for_independent_behaviours() {
        let behaviours = [
            ReportingBehavior::Truthful,
            ReportingBehavior::Liar,
            ReportingBehavior::Slanderer { slander_prob: 0.3 },
            ReportingBehavior::Silent,
        ];
        for b in behaviours {
            for truth in [Conduct::Honest, Conduct::Dishonest] {
                for faction in [Faction::None, Faction::Victim, Faction::Ring(2)] {
                    assert_eq!(
                        b.report_about(truth, Faction::None, faction),
                        b.report(truth),
                        "{b:?} must ignore factions"
                    );
                }
            }
        }
    }

    #[test]
    fn campaigns_consume_no_rng_for_independent_reporters() {
        // Truthful/Liar/Silent must not advance the stream: two RNGs,
        // one run through campaigns_now, must stay in lockstep.
        let mut a = SimRng::new(9);
        let mut b = SimRng::new(9);
        for behaviour in [
            ReportingBehavior::Truthful,
            ReportingBehavior::Liar,
            ReportingBehavior::Silent,
        ] {
            assert_eq!(behaviour.campaigns_now(&mut a), None);
        }
        assert_eq!(a.next_u64(), b.next_u64(), "stream advanced");
    }

    #[test]
    fn truthfulness_classification() {
        assert!(ReportingBehavior::Truthful.is_truthful());
        assert!(ReportingBehavior::Slanderer { slander_prob: 0.1 }.is_truthful());
        assert!(!ReportingBehavior::Liar.is_truthful());
        assert!(!ReportingBehavior::Silent.is_truthful());
    }

    #[test]
    fn labels() {
        assert_eq!(ReportingBehavior::Truthful.label(), "truthful");
        assert_eq!(ReportingBehavior::Liar.label(), "liar");
        assert_eq!(
            ReportingBehavior::Slanderer { slander_prob: 0.1 }.label(),
            "slanderer"
        );
        assert_eq!(ReportingBehavior::Silent.label(), "silent");
    }
}
