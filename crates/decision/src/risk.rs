//! Risk attitudes.
//!
//! The paper (§3) leaves "how much to decrease the expected gains" to the
//! partners, noting it depends on their *risk averseness* and the
//! opponent's trustworthiness. [`RiskProfile`] captures the risk
//! averseness half: it scales the fraction of the completion gain a party
//! is willing to put at risk.

/// Budget multiplier of a risk-averse party.
const AVERSE_MULTIPLIER: f64 = 0.5;

/// Budget multiplier of a risk-seeking party.
const SEEKING_MULTIPLIER: f64 = 2.0;

/// A party's attitude towards exposure risk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RiskProfile {
    /// Accepts a risk budget equal to the base fraction of its gain.
    #[default]
    Neutral,
    /// Halves the budget.
    Averse,
    /// Doubles the budget.
    Seeking,
}

impl RiskProfile {
    /// The multiplier applied to the base risk budget.
    pub fn multiplier(self) -> f64 {
        match self {
            RiskProfile::Neutral => 1.0,
            RiskProfile::Averse => AVERSE_MULTIPLIER,
            RiskProfile::Seeking => SEEKING_MULTIPLIER,
        }
    }

    /// Stable label for report tables.
    pub fn label(self) -> &'static str {
        match self {
            RiskProfile::Neutral => "neutral",
            RiskProfile::Averse => "averse",
            RiskProfile::Seeking => "seeking",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multipliers() {
        assert_eq!(RiskProfile::Neutral.multiplier(), 1.0);
        assert_eq!(RiskProfile::Averse.multiplier(), 0.5);
        assert_eq!(RiskProfile::Seeking.multiplier(), 2.0);
        assert_eq!(RiskProfile::default(), RiskProfile::Neutral);
    }

    #[test]
    fn labels() {
        assert_eq!(RiskProfile::Neutral.label(), "neutral");
        assert_eq!(RiskProfile::Averse.label(), "averse");
        assert_eq!(RiskProfile::Seeking.label(), "seeking");
    }
}
