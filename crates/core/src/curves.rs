//! Valuation-curve generators for workloads and experiments.
//!
//! The feasibility of (trust-aware) safe exchange depends on the *shape*
//! of the two value functions: how surplus is distributed across items.
//! Experiment E1 sweeps these shapes. Generators are deterministic given
//! a uniform-random source, which callers supply as a closure so this
//! crate stays dependency-free (the simulator passes its own PRNG).

use crate::goods::{Goods, GoodsError};
use crate::money::Money;

/// Named valuation-curve families used across the experiment suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CurveShape {
    /// All items identical: cost `c`, value `v` scaled to the deal size.
    Uniform,
    /// Supplier cost concentrated early in item index (front-loaded
    /// production), consumer value spread evenly.
    FrontLoadedCost,
    /// Consumer value concentrated in the last items (e.g. the final
    /// chapters of a serialized work) — the adversarial case for safe
    /// exchange.
    BackLoadedValue,
    /// Costs and values drawn independently at random (uniform).
    Random,
    /// A mix: half the items have negative surplus, half positive —
    /// exercises the two-phase structure of the optimal order.
    MixedSurplus,
}

impl CurveShape {
    /// All shapes, for parameter sweeps.
    pub const ALL: [CurveShape; 5] = [
        CurveShape::Uniform,
        CurveShape::FrontLoadedCost,
        CurveShape::BackLoadedValue,
        CurveShape::Random,
        CurveShape::MixedSurplus,
    ];

    /// A short stable label for report tables.
    pub fn label(self) -> &'static str {
        match self {
            CurveShape::Uniform => "uniform",
            CurveShape::FrontLoadedCost => "front-cost",
            CurveShape::BackLoadedValue => "back-value",
            CurveShape::Random => "random",
            CurveShape::MixedSurplus => "mixed",
        }
    }
}

/// Mean supplier cost per generated item, in major units.
const MEAN_COST: f64 = 10.0;

/// Multiplier from mean cost to mean consumer value: above 1, so every
/// generated deal is socially valuable.
const VALUE_MARKUP: f64 = 1.6;

/// Generates a goods set of `n` items of the given shape, with a
/// mean supplier cost of 10 and a mean consumer value 1.6 times that.
///
/// `uniform` must yield independent draws in `[0, 1)`; the simulator
/// passes `|| rng.f64()`.
///
/// # Errors
///
/// Returns [`GoodsError::Empty`] when `n == 0`.
///
/// # Examples
///
/// ```
/// use trustex_core::curves::{generate, CurveShape};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut x = 0.37_f64;
/// // A deterministic low-discrepancy source is fine for the doc example.
/// let mut src = move || { x = (x + 0.61803398875).fract(); x };
/// let goods = generate(CurveShape::Random, 8, &mut src)?;
/// assert_eq!(goods.len(), 8);
/// # Ok(())
/// # }
/// ```
pub fn generate(
    shape: CurveShape,
    n: usize,
    uniform: &mut dyn FnMut() -> f64,
) -> Result<Goods, GoodsError> {
    if n == 0 {
        return Err(GoodsError::Empty);
    }
    let mc = MEAN_COST;
    let mv = MEAN_COST * VALUE_MARKUP;
    let mut pairs: Vec<(f64, f64)> = Vec::with_capacity(n);
    match shape {
        CurveShape::Uniform => {
            for _ in 0..n {
                pairs.push((mc, mv));
            }
        }
        CurveShape::FrontLoadedCost => {
            // Costs decay geometrically with index; values stay flat.
            // Normalise so the mean cost is preserved.
            let ratio: f64 = 0.7;
            let weights: Vec<f64> = (0..n).map(|i| ratio.powi(i as i32)).collect();
            let wsum: f64 = weights.iter().sum();
            for w in &weights {
                pairs.push((mc * n as f64 * w / wsum, mv));
            }
        }
        CurveShape::BackLoadedValue => {
            // Values grow geometrically with index; costs stay flat.
            let ratio: f64 = 0.7;
            let weights: Vec<f64> = (0..n).map(|i| ratio.powi((n - 1 - i) as i32)).collect();
            let wsum: f64 = weights.iter().sum();
            for w in &weights {
                pairs.push((mc, mv * n as f64 * w / wsum));
            }
        }
        CurveShape::Random => {
            for _ in 0..n {
                let c = mc * 2.0 * uniform();
                let v = mv * 2.0 * uniform();
                pairs.push((c, v));
            }
        }
        CurveShape::MixedSurplus => {
            for i in 0..n {
                if i % 2 == 0 {
                    // Positive surplus: value well above cost.
                    pairs.push((mc * 0.5, mv * 1.5));
                } else {
                    // Negative surplus: cost above value.
                    pairs.push((mc * 1.5, mv * 0.5f64.min(mc / mv.max(1e-9))));
                }
            }
        }
    }
    Goods::new(
        pairs
            .into_iter()
            .map(|(c, v)| (Money::from_f64(c.max(0.0)), Money::from_f64(v.max(0.0)))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src() -> impl FnMut() -> f64 {
        let mut x = 0.12345_f64;
        move || {
            x = (x * 997.0 + 0.314159).fract();
            x
        }
    }

    #[test]
    fn all_shapes_generate_requested_size() {
        let mut s = src();
        for shape in CurveShape::ALL {
            let g = generate(shape, 12, &mut s).unwrap();
            assert_eq!(g.len(), 12, "shape {shape:?}");
        }
    }

    #[test]
    fn zero_items_rejected() {
        let mut s = src();
        let err = generate(CurveShape::Uniform, 0, &mut s).unwrap_err();
        assert_eq!(err, GoodsError::Empty);
    }

    #[test]
    fn uniform_items_identical() {
        let mut s = src();
        let g = generate(CurveShape::Uniform, 8, &mut s).unwrap();
        let first = g.get(0).unwrap();
        for item in g.iter() {
            assert_eq!(item.supplier_cost(), first.supplier_cost());
            assert_eq!(item.consumer_value(), first.consumer_value());
        }
    }

    #[test]
    fn front_loaded_costs_decrease() {
        let mut s = src();
        let g = generate(CurveShape::FrontLoadedCost, 8, &mut s).unwrap();
        let costs: Vec<_> = g.iter().map(|i| i.supplier_cost()).collect();
        for w in costs.windows(2) {
            assert!(w[0] >= w[1], "costs must be non-increasing: {costs:?}");
        }
    }

    #[test]
    fn back_loaded_values_increase() {
        let mut s = src();
        let g = generate(CurveShape::BackLoadedValue, 8, &mut s).unwrap();
        let vals: Vec<_> = g.iter().map(|i| i.consumer_value()).collect();
        for w in vals.windows(2) {
            assert!(w[0] <= w[1], "values must be non-decreasing: {vals:?}");
        }
    }

    #[test]
    fn front_loaded_preserves_mean_cost() {
        let mut s = src();
        let g = generate(CurveShape::FrontLoadedCost, 10, &mut s).unwrap();
        let mean = g.total_supplier_cost().as_f64() / 10.0;
        assert!((mean - 10.0).abs() < 1e-6, "mean {mean}");
    }

    #[test]
    fn mixed_surplus_has_both_signs() {
        let mut s = src();
        let g = generate(CurveShape::MixedSurplus, 6, &mut s).unwrap();
        let pos = g.iter().filter(|i| i.surplus().is_positive()).count();
        let neg = g.iter().filter(|i| i.surplus().is_negative()).count();
        assert!(pos > 0 && neg > 0, "pos={pos} neg={neg}");
    }

    #[test]
    fn random_uses_source() {
        let mut s = src();
        let g1 = generate(CurveShape::Random, 8, &mut s).unwrap();
        let g2 = generate(CurveShape::Random, 8, &mut s).unwrap();
        assert_ne!(g1, g2, "consecutive random draws should differ");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(CurveShape::Uniform.label(), "uniform");
        assert_eq!(CurveShape::ALL.len(), 5);
    }
}
