//! Confidence measures for trust estimates.
//!
//! Mui et al. (the paper's reference \[3\]) quantify the reliability of a
//! reputation estimate through the Chernoff bound: how many samples are
//! needed so that the empirical mean is within `ε` of the true Bernoulli
//! parameter with probability `1 − δ`. This module provides the mapping
//! from evidence mass to a `[0, 1)` confidence score used by the models.

/// Pseudo-count of evidence at which confidence reaches ½.
pub const CONFIDENCE_HALF_MASS: f64 = 2.0;

/// Maps a (possibly fractional) evidence mass to a confidence score in
/// `[0, 1)` via the saturating ratio `m / (m + 2)`.
///
/// The strict Chernoff complement (`1 − ε(m)` with
/// `ε(m) = sqrt(ln(2/δ) / 2m)`) stays at zero until several
/// observations and needs ~185 for 0.9 at δ = 0.05 — far too
/// conservative for communities whose members meet tens of times. The
/// saturating ratio preserves the same qualitative behaviour (0 with no
/// evidence, monotone, → 1) with a practical ramp: 1 observation → ⅓,
/// 5 → ~0.71, 20 → ~0.91.
pub fn evidence_confidence(mass: f64) -> f64 {
    let m = mass.max(0.0);
    m / (m + CONFIDENCE_HALF_MASS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confidence_bounds_and_monotonicity() {
        assert_eq!(evidence_confidence(0.0), 0.0);
        assert_eq!(evidence_confidence(-3.0), 0.0);
        let mut last = 0.0;
        for m in [1.0, 2.0, 5.0, 10.0, 50.0, 200.0, 1e6] {
            let c = evidence_confidence(m);
            assert!((0.0..1.0).contains(&c), "c={c}");
            assert!(c >= last);
            last = c;
        }
        assert!(last > 0.99);
    }
}
