//! Exchange behaviours: how community members act *during* an exchange.
//!
//! Each behaviour adapts to the [`DefectionOracle`] interface of the
//! execution engine; the market simulation instantiates one oracle per
//! exchange from the agent's [`ExchangeBehavior`].

use trustex_core::execute::{max_future_temptation, DefectionOracle};
use trustex_core::money::Money;
use trustex_core::sequence::Action;
use trustex_core::state::{Role, StateView};
use trustex_netsim::rng::SimRng;

/// How an agent behaves inside exchanges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExchangeBehavior {
    /// Always completes.
    Honest,
    /// Defects whenever its temptation exceeds its outside stake —
    /// the rational model the safe-exchange theory assumes. A stake of
    /// zero defects at the first strictly positive temptation.
    Rational {
        /// Outside (reputation) stake in micro-units.
        stake_micros: i64,
    },
    /// Defects at each positive-temptation opportunity with the given
    /// probability — a noisy cheater.
    Stochastic {
        /// Per-opportunity defection probability in `[0, 1]`.
        defect_prob: f64,
    },
    /// Cooperates for `honest_rounds` simulation rounds to build
    /// reputation, then behaves like `Rational { stake: 0 }` —
    /// the classic exit scam.
    ExitScam {
        /// Rounds of honest behaviour before turning.
        honest_rounds: u64,
    },
    /// Alternates phases on a fixed cycle: honest for `period −
    /// defect_rounds` rounds to rebuild reputation, then striking like
    /// `Rational { stake: 0 }` for `defect_rounds` rounds — the
    /// oscillating attacker that milks decayed or short-memory trust.
    Oscillating {
        /// Cycle length in rounds (≥ 1).
        period: u64,
        /// Defecting rounds at the end of each cycle (≤ `period`).
        defect_rounds: u64,
    },
}

impl ExchangeBehavior {
    /// Ground truth: the long-run probability this behaviour completes an
    /// exchange that exposes it to positive temptation (used as the
    /// reference value in trust-accuracy experiments).
    ///
    /// `Rational` agents depend on the offered temptation, so their
    /// reference value is taken at the zero-stake worst case; `ExitScam`
    /// is evaluated in its post-turn phase.
    pub fn true_cooperation_prob(self) -> f64 {
        match self {
            ExchangeBehavior::Honest => 1.0,
            ExchangeBehavior::Rational { stake_micros } => {
                if stake_micros > 0 {
                    1.0 // completes verified sequences within its stake
                } else {
                    0.0
                }
            }
            ExchangeBehavior::Stochastic { defect_prob } => 1.0 - defect_prob,
            ExchangeBehavior::ExitScam { .. } => 0.0,
            ExchangeBehavior::Oscillating {
                period,
                defect_rounds,
            } => {
                // Long-run honest share of the cycle.
                let period = period.max(1);
                (period - defect_rounds.min(period)) as f64 / period as f64
            }
        }
    }

    /// Whether the behaviour is fundamentally honest (never exploits).
    pub fn is_fundamentally_honest(self) -> bool {
        matches!(self, ExchangeBehavior::Honest)
            || matches!(self, ExchangeBehavior::Rational { stake_micros } if stake_micros > 0)
    }

    /// Stable label for report tables.
    pub fn label(self) -> &'static str {
        match self {
            ExchangeBehavior::Honest => "honest",
            ExchangeBehavior::Rational { .. } => "rational",
            ExchangeBehavior::Stochastic { .. } => "stochastic",
            ExchangeBehavior::ExitScam { .. } => "exit-scam",
            ExchangeBehavior::Oscillating { .. } => "oscillating",
        }
    }

    /// Builds the per-exchange oracle. `round` is the current simulation
    /// round (relevant for [`ExchangeBehavior::ExitScam`]); `rng` drives
    /// stochastic behaviours deterministically.
    pub fn oracle<'a>(self, round: u64, rng: &'a mut SimRng) -> BehaviorOracle<'a> {
        BehaviorOracle {
            behavior: self,
            round,
            rng,
        }
    }
}

/// The [`DefectionOracle`] adapter for an [`ExchangeBehavior`].
#[derive(Debug)]
pub struct BehaviorOracle<'a> {
    behavior: ExchangeBehavior,
    round: u64,
    rng: &'a mut SimRng,
}

impl DefectionOracle for BehaviorOracle<'_> {
    fn defects(
        &mut self,
        role: Role,
        temptation: Money,
        view: &StateView<'_>,
        upcoming: &[Action],
    ) -> bool {
        match self.behavior {
            ExchangeBehavior::Honest => false,
            ExchangeBehavior::Rational { stake_micros } => {
                // Schedule-aware: strike only at the temptation peak.
                temptation > Money::from_micros(stake_micros)
                    && temptation >= max_future_temptation(role, view, upcoming)
            }
            ExchangeBehavior::Stochastic { defect_prob } => {
                // Myopic: flips a coin at every profitable opportunity.
                temptation.is_positive() && self.rng.chance(defect_prob)
            }
            ExchangeBehavior::ExitScam { honest_rounds } => {
                self.round >= honest_rounds
                    && temptation.is_positive()
                    && temptation >= max_future_temptation(role, view, upcoming)
            }
            ExchangeBehavior::Oscillating {
                period,
                defect_rounds,
            } => {
                let period = period.max(1);
                let in_defect_phase = self.round % period >= period - defect_rounds.min(period);
                in_defect_phase
                    && temptation.is_positive()
                    && temptation >= max_future_temptation(role, view, upcoming)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trustex_core::deal::Deal;
    use trustex_core::execute::execute;
    use trustex_core::execute::Honest as HonestOracle;
    use trustex_core::goods::Goods;
    use trustex_core::policy::PaymentPolicy;
    use trustex_core::safety::SafetyMargins;
    use trustex_core::scheduler::schedule;
    use trustex_core::sequence::ExchangeSequence;

    fn deal() -> Deal {
        let goods = Goods::from_f64_pairs(&[(2.0, 5.0), (1.0, 4.0), (3.0, 3.0)]).unwrap();
        Deal::new(goods, Money::from_units(9)).unwrap()
    }

    fn plan(deal: &Deal, eps_units: i64) -> ExchangeSequence {
        let m = SafetyMargins::symmetric(Money::from_units(eps_units)).unwrap();
        schedule(deal, m, PaymentPolicy::Lazy)
            .unwrap()
            .into_sequence()
    }

    #[test]
    fn honest_completes() {
        let d = deal();
        let seq = plan(&d, 2);
        let mut rng = SimRng::new(1);
        let mut consumer = ExchangeBehavior::Honest.oracle(0, &mut rng);
        let out = execute(&d, &seq, &mut HonestOracle, &mut consumer);
        assert!(out.status.is_completed());
    }

    #[test]
    fn zero_stake_rational_defects() {
        let d = deal();
        let seq = plan(&d, 2);
        let mut rng = SimRng::new(1);
        let mut consumer = ExchangeBehavior::Rational { stake_micros: 0 }.oracle(0, &mut rng);
        let out = execute(&d, &seq, &mut HonestOracle, &mut consumer);
        assert!(!out.status.is_completed());
    }

    #[test]
    fn sufficient_stake_rational_completes() {
        let d = deal();
        let seq = plan(&d, 2);
        let mut rng = SimRng::new(1);
        let mut consumer = ExchangeBehavior::Rational {
            stake_micros: Money::from_units(2).as_micros(),
        }
        .oracle(0, &mut rng);
        let out = execute(&d, &seq, &mut HonestOracle, &mut consumer);
        assert!(out.status.is_completed());
    }

    #[test]
    fn stochastic_defects_at_rate() {
        let d = deal();
        let seq = plan(&d, 2);
        let mut rng = SimRng::new(7);
        let mut completions = 0;
        let trials = 500;
        for _ in 0..trials {
            let mut consumer =
                ExchangeBehavior::Stochastic { defect_prob: 0.5 }.oracle(0, &mut rng);
            let out = execute(&d, &seq, &mut HonestOracle, &mut consumer);
            if out.status.is_completed() {
                completions += 1;
            }
        }
        let rate = completions as f64 / trials as f64;
        // The lazy schedule offers a handful of positive-temptation
        // opportunities; completion rate must sit strictly between the
        // extremes and well below 1.
        assert!(rate > 0.05 && rate < 0.7, "completion rate {rate}");
    }

    #[test]
    fn exit_scam_turns() {
        let d = deal();
        let seq = plan(&d, 2);
        let behavior = ExchangeBehavior::ExitScam { honest_rounds: 10 };
        let mut rng = SimRng::new(1);
        let mut early = behavior.oracle(5, &mut rng);
        assert!(execute(&d, &seq, &mut HonestOracle, &mut early)
            .status
            .is_completed());
        let mut rng = SimRng::new(1);
        let mut late = behavior.oracle(10, &mut rng);
        assert!(!execute(&d, &seq, &mut HonestOracle, &mut late)
            .status
            .is_completed());
    }

    #[test]
    fn oscillator_strikes_only_in_its_defect_phase() {
        let d = deal();
        let seq = plan(&d, 2);
        let behavior = ExchangeBehavior::Oscillating {
            period: 8,
            defect_rounds: 3,
        };
        // Rounds 0..5 of each cycle are honest, 5..8 defect.
        for round in 0..16u64 {
            let mut rng = SimRng::new(1);
            let mut oracle = behavior.oracle(round, &mut rng);
            let completed = execute(&d, &seq, &mut HonestOracle, &mut oracle)
                .status
                .is_completed();
            assert_eq!(
                completed,
                round % 8 < 5,
                "round {round}: completed={completed}"
            );
        }
        assert!((behavior.true_cooperation_prob() - 5.0 / 8.0).abs() < 1e-12);
        assert!(!behavior.is_fundamentally_honest());
        assert_eq!(behavior.label(), "oscillating");
    }

    #[test]
    fn ground_truth_labels() {
        assert_eq!(ExchangeBehavior::Honest.true_cooperation_prob(), 1.0);
        assert_eq!(
            ExchangeBehavior::Stochastic { defect_prob: 0.3 }.true_cooperation_prob(),
            0.7
        );
        assert_eq!(
            ExchangeBehavior::ExitScam { honest_rounds: 5 }.true_cooperation_prob(),
            0.0
        );
        assert!(ExchangeBehavior::Honest.is_fundamentally_honest());
        assert!(ExchangeBehavior::Rational {
            stake_micros: 1_000_000
        }
        .is_fundamentally_honest());
        assert!(!ExchangeBehavior::Rational { stake_micros: 0 }.is_fundamentally_honest());
        assert_eq!(ExchangeBehavior::Honest.label(), "honest");
        assert_eq!(
            ExchangeBehavior::ExitScam { honest_rounds: 1 }.label(),
            "exit-scam"
        );
    }
}
