//! Agent profiles and population mixes.
//!
//! A profile couples an exchange behaviour with a reporting behaviour; a
//! [`PopulationMix`] describes the composition of a community and samples
//! concrete populations deterministically.

use crate::adversary::Faction;
use crate::behavior::ExchangeBehavior;
use crate::reporting::ReportingBehavior;
use trustex_netsim::rng::SimRng;

/// One agent's complete behavioural profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgentProfile {
    /// Behaviour inside exchanges.
    pub exchange: ExchangeBehavior,
    /// Behaviour towards the reputation system.
    pub reporting: ReportingBehavior,
    /// Coordinated-campaign membership ([`Faction::None`] for every
    /// independent profile).
    pub faction: Faction,
}

impl AgentProfile {
    /// The canonical honest citizen.
    pub fn honest() -> AgentProfile {
        AgentProfile {
            exchange: ExchangeBehavior::Honest,
            reporting: ReportingBehavior::Truthful,
            faction: Faction::None,
        }
    }

    /// A cheater that also lies about its victims.
    pub fn malicious(defect_prob: f64) -> AgentProfile {
        AgentProfile {
            exchange: ExchangeBehavior::Stochastic { defect_prob },
            reporting: ReportingBehavior::Liar,
            faction: Faction::None,
        }
    }
}

/// A weighted mixture of profiles describing a community.
///
/// # Examples
///
/// ```
/// use trustex_agents::profile::{AgentProfile, PopulationMix};
/// use trustex_netsim::rng::SimRng;
///
/// let mix = PopulationMix::new(vec![
///     (0.7, AgentProfile::honest()),
///     (0.3, AgentProfile::malicious(0.8)),
/// ]);
/// let mut rng = SimRng::new(1);
/// let population = mix.sample(100, &mut rng);
/// assert_eq!(population.len(), 100);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationMix {
    entries: Vec<(f64, AgentProfile)>,
}

impl PopulationMix {
    /// Creates a mix from `(weight, profile)` entries.
    ///
    /// # Panics
    ///
    /// Panics when empty or when any weight is negative / non-finite, or
    /// all weights are zero.
    pub fn new(entries: Vec<(f64, AgentProfile)>) -> PopulationMix {
        assert!(!entries.is_empty(), "population mix cannot be empty");
        let total: f64 = entries.iter().map(|(w, _)| *w).sum();
        assert!(
            entries.iter().all(|(w, _)| w.is_finite() && *w >= 0.0) && total > 0.0,
            "weights must be non-negative with positive sum"
        );
        PopulationMix { entries }
    }

    /// The standard experiment mix: `1 − dishonest_fraction` honest
    /// truthful agents, the rest zero-stake rational defectors of which
    /// `liar_share` also lie in their reports.
    pub fn standard(dishonest_fraction: f64, liar_share: f64) -> PopulationMix {
        let d = dishonest_fraction.clamp(0.0, 1.0);
        let l = liar_share.clamp(0.0, 1.0);
        let mut entries = vec![(1.0 - d, AgentProfile::honest())];
        if d > 0.0 {
            entries.push((
                d * (1.0 - l),
                AgentProfile {
                    exchange: ExchangeBehavior::Rational { stake_micros: 0 },
                    reporting: ReportingBehavior::Truthful,
                    faction: Faction::None,
                },
            ));
            if l > 0.0 {
                entries.push((
                    d * l,
                    AgentProfile {
                        exchange: ExchangeBehavior::Rational { stake_micros: 0 },
                        reporting: ReportingBehavior::Liar,
                        faction: Faction::None,
                    },
                ));
            }
        }
        PopulationMix::new(entries)
    }

    /// The mix entries.
    pub fn entries(&self) -> &[(f64, AgentProfile)] {
        &self.entries
    }

    /// Samples a concrete population of `n` agents.
    ///
    /// Deterministic given the RNG state; the realized composition
    /// matches the weights in expectation (stratified assignment keeps it
    /// close to exact: quotas are computed by largest remainder, then the
    /// assignment is shuffled).
    pub fn sample(&self, n: usize, rng: &mut SimRng) -> Vec<AgentProfile> {
        let total: f64 = self.entries.iter().map(|(w, _)| *w).sum();
        // Largest-remainder quotas.
        let mut quotas: Vec<(usize, f64)> = self
            .entries
            .iter()
            .map(|(w, _)| {
                let exact = n as f64 * w / total;
                (exact.floor() as usize, exact.fract())
            })
            .collect();
        let assigned: usize = quotas.iter().map(|(q, _)| *q).sum();
        // Distribute the remainder by largest fractional part (ties by
        // entry order for determinism).
        let mut order: Vec<usize> = (0..quotas.len()).collect();
        order.sort_by(|&a, &b| {
            quotas[b]
                .1
                .partial_cmp(&quotas[a].1)
                .expect("finite weights")
                .then(a.cmp(&b))
        });
        for i in 0..(n - assigned) {
            quotas[order[i % order.len()]].0 += 1;
        }
        let mut population = Vec::with_capacity(n);
        for ((q, _), (_, profile)) in quotas.iter().zip(&self.entries) {
            population.extend(std::iter::repeat_n(*profile, *q));
        }
        rng.shuffle(&mut population);
        population
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_respects_quotas_exactly() {
        let mix = PopulationMix::new(vec![
            (0.5, AgentProfile::honest()),
            (0.5, AgentProfile::malicious(1.0)),
        ]);
        let mut rng = SimRng::new(3);
        let pop = mix.sample(10, &mut rng);
        let honest = pop
            .iter()
            .filter(|p| p.exchange == ExchangeBehavior::Honest)
            .count();
        assert_eq!(honest, 5);
    }

    #[test]
    fn largest_remainder_rounds_sensibly() {
        let mix = PopulationMix::new(vec![
            (2.0, AgentProfile::honest()),
            (1.0, AgentProfile::malicious(1.0)),
        ]);
        let mut rng = SimRng::new(4);
        let pop = mix.sample(10, &mut rng);
        let honest = pop
            .iter()
            .filter(|p| p.exchange == ExchangeBehavior::Honest)
            .count();
        assert!(honest == 7, "2/3 of 10 ≈ 7 by largest remainder: {honest}");
        assert_eq!(pop.len(), 10);
    }

    #[test]
    fn sample_is_shuffled_but_deterministic() {
        let mix = PopulationMix::standard(0.5, 0.0);
        let mut rng1 = SimRng::new(5);
        let mut rng2 = SimRng::new(5);
        let a = mix.sample(50, &mut rng1);
        let b = mix.sample(50, &mut rng2);
        assert_eq!(a, b, "same seed, same population");
        // Not all honest agents first (shuffled).
        let first_half_honest = a[..25]
            .iter()
            .filter(|p| p.exchange == ExchangeBehavior::Honest)
            .count();
        assert!(first_half_honest > 5 && first_half_honest < 20);
    }

    #[test]
    fn standard_mix_composition() {
        let mix = PopulationMix::standard(0.4, 0.5);
        let mut rng = SimRng::new(6);
        let pop = mix.sample(100, &mut rng);
        let honest = pop
            .iter()
            .filter(|p| p.exchange == ExchangeBehavior::Honest)
            .count();
        let liars = pop
            .iter()
            .filter(|p| p.reporting == ReportingBehavior::Liar)
            .count();
        assert_eq!(honest, 60);
        assert_eq!(liars, 20);
    }

    #[test]
    fn standard_mix_degenerate_fractions() {
        let all_honest = PopulationMix::standard(0.0, 0.0);
        let mut rng = SimRng::new(7);
        assert!(all_honest
            .sample(10, &mut rng)
            .iter()
            .all(|p| p.exchange == ExchangeBehavior::Honest));
        let all_bad = PopulationMix::standard(1.0, 1.0);
        assert!(all_bad
            .sample(10, &mut rng)
            .iter()
            .all(|p| p.exchange != ExchangeBehavior::Honest));
    }

    #[test]
    #[should_panic(expected = "cannot be empty")]
    fn empty_mix_panics() {
        PopulationMix::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_panics() {
        PopulationMix::new(vec![(-1.0, AgentProfile::honest())]);
    }

    #[test]
    fn profile_constructors() {
        let h = AgentProfile::honest();
        assert!(h.exchange.is_fundamentally_honest());
        assert!(matches!(
            h.reporting,
            ReportingBehavior::Truthful | ReportingBehavior::Slanderer { .. }
        ));
        let m = AgentProfile::malicious(0.9);
        assert!(!m.exchange.is_fundamentally_honest());
        assert!(!matches!(
            m.reporting,
            ReportingBehavior::Truthful | ReportingBehavior::Slanderer { .. }
        ));
    }
}
