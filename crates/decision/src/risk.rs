//! Risk attitudes.
//!
//! The paper (§3) leaves "how much to decrease the expected gains" to the
//! partners, noting it depends on their *risk averseness* and the
//! opponent's trustworthiness. [`RiskProfile`] captures the risk
//! averseness half: it scales the fraction of the completion gain a party
//! is willing to put at risk.

/// A party's attitude towards exposure risk.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RiskProfile {
    /// Accepts a risk budget equal to the base fraction of its gain.
    #[default]
    Neutral,
    /// Scales the budget down: `gamma` in `(0, 1)`; smaller = more
    /// cautious.
    Averse {
        /// Budget multiplier in `(0, 1)`.
        gamma: f64,
    },
    /// Scales the budget up: `gamma > 1`; larger = more aggressive.
    Seeking {
        /// Budget multiplier `> 1`.
        gamma: f64,
    },
}

impl RiskProfile {
    /// The multiplier applied to the base risk budget.
    ///
    /// # Panics
    ///
    /// Panics if an averse gamma is outside `(0, 1]` or a seeking gamma
    /// is `< 1` — profiles are configuration, not user input.
    pub fn multiplier(self) -> f64 {
        match self {
            RiskProfile::Neutral => 1.0,
            RiskProfile::Averse { gamma } => {
                assert!(gamma > 0.0 && gamma <= 1.0, "averse gamma in (0,1]");
                gamma
            }
            RiskProfile::Seeking { gamma } => {
                assert!(gamma >= 1.0, "seeking gamma ≥ 1");
                gamma
            }
        }
    }

    /// Stable label for report tables.
    pub fn label(self) -> &'static str {
        match self {
            RiskProfile::Neutral => "neutral",
            RiskProfile::Averse { .. } => "averse",
            RiskProfile::Seeking { .. } => "seeking",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multipliers() {
        assert_eq!(RiskProfile::Neutral.multiplier(), 1.0);
        assert_eq!(RiskProfile::Averse { gamma: 0.25 }.multiplier(), 0.25);
        assert_eq!(RiskProfile::Seeking { gamma: 2.0 }.multiplier(), 2.0);
        assert_eq!(RiskProfile::default(), RiskProfile::Neutral);
    }

    #[test]
    #[should_panic(expected = "averse gamma")]
    fn bad_averse() {
        RiskProfile::Averse { gamma: 1.5 }.multiplier();
    }

    #[test]
    #[should_panic(expected = "seeking gamma")]
    fn bad_seeking() {
        RiskProfile::Seeking { gamma: 0.5 }.multiplier();
    }

    #[test]
    fn labels() {
        assert_eq!(RiskProfile::Neutral.label(), "neutral");
        assert_eq!(RiskProfile::Averse { gamma: 0.5 }.label(), "averse");
        assert_eq!(RiskProfile::Seeking { gamma: 2.0 }.label(), "seeking");
    }
}
