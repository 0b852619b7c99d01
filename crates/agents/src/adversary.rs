//! The adversary zoo: composable *coordinated* attack strategies.
//!
//! The paper's threat model stops at independent liars; production
//! reputation systems die to coordination. This module packages the
//! classic coordinated attacks as [`AgentProfile`]s so the market
//! simulation can mix them into a population:
//!
//! * **Collusion rings** ([`Adversary::Colluder`]) — members report
//!   `Honest` about fellow ring members regardless of what happened and
//!   file unprovoked positive vouches for each other (EigenTrust's
//!   motivating case).
//! * **Targeted slander** ([`Adversary::Slanderer`]) — a cell files
//!   unprovoked complaints against a marked set of honest victims
//!   instead of random targets.
//! * **Sybil amplification** ([`Adversary::Sybil`]) — every witness
//!   report one cell identity gossips is echoed by up to `fanout`
//!   fellow identities, multiplying its apparent corroboration.
//! * **Oscillation** ([`Adversary::Oscillator`]) — on/off defectors
//!   that rebuild trust during honest phases and strike in bursts,
//!   milking decayed history.
//! * **Whitewashing** ([`Adversary::Whitewasher`]) — identity churn:
//!   the community's memory of the agent is wiped every `period`
//!   rounds, as if it had left and rejoined with a fresh id.
//!
//! Every archetype is parameterised by a **coordination level** `c ∈
//! [0, 1]`. At `c == 0` each degrades *exactly* to the independent
//! baseline profiles of [`PopulationMix::standard`] — same
//! [`AgentProfile`] values, no faction marking — so a zoo mix at zero
//! coordination reproduces the pre-zoo experiment tables bit for bit
//! (pinned by the adversary property suite in `trustex-market`).

use crate::behavior::ExchangeBehavior;
use crate::profile::{AgentProfile, PopulationMix};
use crate::reporting::ReportingBehavior;

/// Coordinated-campaign membership attached to an [`AgentProfile`].
///
/// `Faction::None` (the default) marks every pre-zoo profile; the
/// simulation's campaign hooks are inert for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Faction {
    /// No coordinated affiliation.
    #[default]
    None,
    /// Member of collusion ring `0`: cross-vouches for fellow members.
    Ring(u16),
    /// Member of the slander campaign targeting the victim set.
    SlanderCell,
    /// Sybil identity: up to `fanout` fellow identities of `cell` echo
    /// every witness report this agent gossips.
    Sybil {
        /// Cell the identity belongs to.
        cell: u16,
        /// Maximum fellow identities echoing each report.
        fanout: u16,
    },
    /// Marked honest victim of the slander campaign.
    Victim,
    /// Whitewasher: the community's memory of this agent is wiped every
    /// `period` rounds (identity churn).
    Whitewash {
        /// Rounds between identity resets (≥ 1).
        period: u64,
    },
}

/// The composable coordinated-attack archetypes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Adversary {
    /// Collusion-ring member (cross-vouching).
    Colluder,
    /// Targeted slander-campaign member.
    Slanderer,
    /// Sybil identity with witness-report amplification.
    Sybil,
    /// On/off oscillating defector.
    Oscillator,
    /// Identity-churning whitewasher.
    Whitewasher,
}

/// Share of the honest population marked as slander victims when a
/// slander cell is present at positive coordination.
pub const VICTIM_SHARE: f64 = 0.1;

impl Adversary {
    /// All archetypes, in zoo order.
    pub const ALL: [Adversary; 5] = [
        Adversary::Colluder,
        Adversary::Slanderer,
        Adversary::Sybil,
        Adversary::Oscillator,
        Adversary::Whitewasher,
    ];

    /// Stable label for report tables.
    pub fn label(self) -> &'static str {
        match self {
            Adversary::Colluder => "colluder",
            Adversary::Slanderer => "slanderer",
            Adversary::Sybil => "sybil",
            Adversary::Oscillator => "oscillator",
            Adversary::Whitewasher => "whitewasher",
        }
    }

    /// One attacker's profile at coordination level `c` (clamped to
    /// `[0, 1]`).
    ///
    /// At `c == 0` the result is exactly the independent baseline the
    /// standard mixes use — zero-stake rational defectors, lying or
    /// truthful reporters, no faction — so coordinated populations
    /// degrade bit-identically to the existing experiments.
    pub fn profile(self, coordination: f64) -> AgentProfile {
        let c = coordination.clamp(0.0, 1.0);
        let defect = ExchangeBehavior::Rational { stake_micros: 0 };
        if c <= 0.0 {
            let reporting = match self {
                // Colluders and sybils decay to independent liars, the
                // rest to truthful defectors — together exactly the
                // `PopulationMix::standard(f, 0.4)` split.
                Adversary::Colluder | Adversary::Sybil => ReportingBehavior::Liar,
                _ => ReportingBehavior::Truthful,
            };
            return AgentProfile {
                exchange: defect,
                reporting,
                faction: Faction::None,
            };
        }
        match self {
            Adversary::Colluder => AgentProfile {
                exchange: defect,
                reporting: ReportingBehavior::Colluder {
                    vouch_prob: 0.5 * c,
                },
                faction: Faction::Ring(0),
            },
            Adversary::Slanderer => AgentProfile {
                exchange: defect,
                reporting: ReportingBehavior::Smear {
                    smear_prob: 0.5 * c,
                },
                faction: Faction::SlanderCell,
            },
            Adversary::Sybil => AgentProfile {
                exchange: defect,
                reporting: ReportingBehavior::Liar,
                faction: Faction::Sybil {
                    cell: 0,
                    fanout: (c * 8.0).round() as u16,
                },
            },
            Adversary::Oscillator => AgentProfile {
                // Longer defecting bursts at higher coordination; the
                // honest phase rebuilds whatever trust decays away.
                exchange: ExchangeBehavior::Oscillating {
                    period: 8,
                    defect_rounds: 1 + (c * 3.0).round() as u64,
                },
                reporting: ReportingBehavior::Truthful,
                faction: Faction::None,
            },
            Adversary::Whitewasher => AgentProfile {
                exchange: defect,
                reporting: ReportingBehavior::Truthful,
                faction: Faction::Whitewash {
                    period: (2.0 + 14.0 * (1.0 - c)).round() as u64,
                },
            },
        }
    }
}

/// A population mix with `attacker_fraction` of the community split
/// evenly across the given archetypes at coordination level
/// `coordination`, the rest honest truthful citizens.
///
/// When a slander cell is present (and coordination is positive),
/// [`VICTIM_SHARE`] of the honest population is marked
/// [`Faction::Victim`]; victims behave exactly like other honest agents
/// — the marking only aims the campaign.
///
/// # Panics
///
/// Panics when `zoo` is empty.
pub fn mix_of(zoo: &[Adversary], attacker_fraction: f64, coordination: f64) -> PopulationMix {
    assert!(!zoo.is_empty(), "adversary zoo cannot be empty");
    let f = attacker_fraction.clamp(0.0, 1.0);
    let c = coordination.clamp(0.0, 1.0);
    let honest = 1.0 - f;
    let victim = if c > 0.0 && zoo.contains(&Adversary::Slanderer) {
        AgentProfile {
            faction: Faction::Victim,
            ..AgentProfile::honest()
        }
    } else {
        AgentProfile::honest()
    };
    let mut entries = vec![
        (honest * (1.0 - VICTIM_SHARE), AgentProfile::honest()),
        (honest * VICTIM_SHARE, victim),
    ];
    let share = f / zoo.len() as f64;
    for archetype in zoo {
        entries.push((share, archetype.profile(c)));
    }
    PopulationMix::new(entries)
}

/// The full zoo: [`mix_of`] over every archetype in [`Adversary::ALL`].
pub fn zoo_mix(attacker_fraction: f64, coordination: f64) -> PopulationMix {
    mix_of(&Adversary::ALL, attacker_fraction, coordination)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_coordination_degrades_to_standard_baselines() {
        let defect = ExchangeBehavior::Rational { stake_micros: 0 };
        for archetype in Adversary::ALL {
            let p = archetype.profile(0.0);
            assert_eq!(p.exchange, defect, "{archetype:?}");
            assert_eq!(p.faction, Faction::None, "{archetype:?}");
            assert!(
                matches!(
                    p.reporting,
                    ReportingBehavior::Liar | ReportingBehavior::Truthful
                ),
                "{archetype:?} must decay to an independent reporter"
            );
        }
        // Exactly 2 of 5 archetypes decay to liars: the zoo at c = 0 is
        // the standard mix at liar share 0.4.
        let liars = Adversary::ALL
            .iter()
            .filter(|a| a.profile(0.0).reporting == ReportingBehavior::Liar)
            .count();
        assert_eq!(liars, 2);
    }

    #[test]
    fn positive_coordination_marks_factions() {
        assert_eq!(
            Adversary::Colluder.profile(1.0).faction,
            Faction::Ring(0),
            "colluders join the ring"
        );
        assert_eq!(
            Adversary::Slanderer.profile(0.5).faction,
            Faction::SlanderCell
        );
        assert!(matches!(
            Adversary::Sybil.profile(1.0).faction,
            Faction::Sybil { fanout: 8, .. }
        ));
        assert!(matches!(
            Adversary::Whitewasher.profile(1.0).faction,
            Faction::Whitewash { period: 2 }
        ));
        // Low coordination churns slowly.
        assert!(matches!(
            Adversary::Whitewasher.profile(1e-9).faction,
            Faction::Whitewash { period: 16 }
        ));
    }

    #[test]
    fn coordination_scales_campaign_rates() {
        for c in [0.25, 0.5, 1.0] {
            match Adversary::Colluder.profile(c).reporting {
                ReportingBehavior::Colluder { vouch_prob } => {
                    assert!((vouch_prob - 0.5 * c).abs() < 1e-12)
                }
                other => panic!("unexpected reporting {other:?}"),
            }
            match Adversary::Slanderer.profile(c).reporting {
                ReportingBehavior::Smear { smear_prob } => {
                    assert!((smear_prob - 0.5 * c).abs() < 1e-12)
                }
                other => panic!("unexpected reporting {other:?}"),
            }
        }
    }

    #[test]
    fn oscillator_milkable_duty_cycle() {
        let p = Adversary::Oscillator.profile(1.0);
        match p.exchange {
            ExchangeBehavior::Oscillating {
                period,
                defect_rounds,
            } => {
                assert_eq!((period, defect_rounds), (8, 4));
                assert!(!p.exchange.is_fundamentally_honest());
                assert!((p.exchange.true_cooperation_prob() - 0.5).abs() < 1e-12);
            }
            other => panic!("unexpected exchange {other:?}"),
        }
    }

    #[test]
    fn zoo_mix_composition() {
        let mix = zoo_mix(0.5, 1.0);
        let entries = mix.entries();
        // 2 honest entries (plain + victim-marked) + 5 archetypes.
        assert_eq!(entries.len(), 7);
        let total: f64 = entries.iter().map(|(w, _)| *w).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(entries[1].1.faction, Faction::Victim);
        // Attacker weight split evenly.
        for (w, _) in &entries[2..] {
            assert!((w - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn zoo_mix_without_slanderers_marks_no_victims() {
        let mix = mix_of(&[Adversary::Colluder], 0.3, 1.0);
        assert!(mix
            .entries()
            .iter()
            .all(|(_, p)| p.faction != Faction::Victim));
        // ... and so does the full zoo at zero coordination.
        let cold = zoo_mix(0.3, 0.0);
        assert!(cold
            .entries()
            .iter()
            .all(|(_, p)| p.faction == Faction::None));
    }

    #[test]
    fn labels_are_stable() {
        let labels: Vec<&str> = Adversary::ALL.iter().map(|a| a.label()).collect();
        assert_eq!(
            labels,
            [
                "colluder",
                "slanderer",
                "sybil",
                "oscillator",
                "whitewasher"
            ]
        );
    }

    #[test]
    #[should_panic(expected = "cannot be empty")]
    fn empty_zoo_panics() {
        mix_of(&[], 0.3, 1.0);
    }
}
