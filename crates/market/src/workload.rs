//! Workload generators: the three application scenarios the paper's §3
//! names as hosts for trust-aware exchange.
//!
//! * [`Workload::Ebay`] — auction-style deals: a handful of items with
//!   heavy-tailed valuations (Resnick & Zeckhauser's eBay study is the
//!   paper's reference \[1\]).
//! * [`Workload::FileSharing`] — "exchanges of MP3 files for money in a
//!   P2P system": many small, near-uniform chunks.
//! * [`Workload::Teamwork`] — "trades of services in a teamwork
//!   environment": few tasks, mixed surplus (some tasks individually
//!   unprofitable but bundled).

use trustex_core::deal::Deal;
use trustex_core::goods::Goods;
use trustex_core::money::Money;
use trustex_netsim::rng::SimRng;

/// A deal generator for one application scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Auction-style: 3–8 items, heavy-tailed values.
    Ebay,
    /// P2P file trading: 10–40 cheap chunks.
    FileSharing,
    /// Service trading: 4–10 tasks, mixed surplus.
    Teamwork,
}

impl Workload {
    /// All workloads, for sweeps.
    pub const ALL: [Workload; 3] = [Workload::Ebay, Workload::FileSharing, Workload::Teamwork];

    /// Stable label for report tables.
    pub fn label(self) -> &'static str {
        match self {
            Workload::Ebay => "ebay",
            Workload::FileSharing => "file-sharing",
            Workload::Teamwork => "teamwork",
        }
    }

    /// Generates one deal. Prices split the surplus evenly (symmetric
    /// Nash bargaining), which always satisfies individual rationality.
    pub fn generate_deal(self, rng: &mut SimRng) -> Deal {
        let goods = self.generate_goods(rng);
        Deal::with_split_surplus(goods).expect("generated goods have non-negative total surplus")
    }

    /// Generates the goods set for one deal.
    pub fn generate_goods(self, rng: &mut SimRng) -> Goods {
        let pairs: Vec<(Money, Money)> = match self {
            Workload::Ebay => {
                let n = rng.range_u64(3, 9) as usize;
                (0..n)
                    .map(|_| {
                        let cost = rng.pareto(1.5, 2.0, 60.0);
                        let value = cost * rng.range_f64(1.2, 2.2);
                        (Money::from_f64(cost), Money::from_f64(value))
                    })
                    .collect()
            }
            Workload::FileSharing => {
                let n = rng.range_u64(10, 41) as usize;
                (0..n)
                    .map(|_| {
                        let cost = rng.range_f64(0.05, 0.5);
                        let value = cost * rng.range_f64(1.5, 3.0);
                        (Money::from_f64(cost), Money::from_f64(value))
                    })
                    .collect()
            }
            Workload::Teamwork => {
                let n = rng.range_u64(4, 11) as usize;
                let mut pairs: Vec<(Money, Money)> = (0..n)
                    .map(|_| {
                        let cost = rng.range_f64(3.0, 12.0);
                        // Roughly 1/3 of tasks are individually
                        // unprofitable (value < cost) but the bundle pays.
                        let factor = if rng.chance(0.33) {
                            rng.range_f64(0.4, 0.95)
                        } else {
                            rng.range_f64(1.3, 2.5)
                        };
                        (Money::from_f64(cost), Money::from_f64(cost * factor))
                    })
                    .collect();
                // Guarantee a positive total surplus by topping up the
                // last task if the draw went sour.
                let surplus: Money = pairs.iter().map(|(c, v)| *v - *c).sum();
                if !surplus.is_positive() {
                    let bump = surplus.abs() + Money::from_units(2);
                    let last = pairs.last_mut().expect("n ≥ 4");
                    last.1 += bump;
                }
                pairs
            }
        };
        Goods::new(pairs).expect("non-empty, non-negative by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trustex_core::scheduler::min_required_margin;

    #[test]
    fn all_workloads_generate_valid_deals() {
        let mut rng = SimRng::new(1);
        for w in Workload::ALL {
            for _ in 0..50 {
                let deal = w.generate_deal(&mut rng);
                assert!(deal.goods().total_surplus().is_positive(), "{w:?}");
                assert!(deal.supplier_profit() >= Money::ZERO);
                assert!(deal.consumer_surplus() >= Money::ZERO);
            }
        }
    }

    #[test]
    fn ebay_sizes() {
        let mut rng = SimRng::new(2);
        for _ in 0..30 {
            let g = Workload::Ebay.generate_goods(&mut rng);
            assert!((3..=8).contains(&g.len()), "{}", g.len());
        }
    }

    #[test]
    fn file_sharing_many_small_chunks() {
        let mut rng = SimRng::new(3);
        let g = Workload::FileSharing.generate_goods(&mut rng);
        assert!((10..=40).contains(&g.len()));
        for item in g.iter() {
            assert!(item.supplier_cost() <= Money::from_f64(0.5));
            assert!(item.surplus().is_positive(), "chunks always profitable");
        }
    }

    #[test]
    fn teamwork_has_mixed_surplus_often() {
        let mut rng = SimRng::new(4);
        let mut saw_negative = false;
        for _ in 0..40 {
            let g = Workload::Teamwork.generate_goods(&mut rng);
            if g.iter().any(|i| i.surplus().is_negative()) {
                saw_negative = true;
            }
        }
        assert!(saw_negative, "teamwork should produce unprofitable tasks");
    }

    #[test]
    fn fully_safe_rarely_possible() {
        // The core premise of the paper: real deals almost never admit a
        // fully safe sequence.
        let mut rng = SimRng::new(5);
        let mut safe = 0;
        for _ in 0..60 {
            let deal = Workload::Ebay.generate_deal(&mut rng);
            if min_required_margin(deal.goods()).is_zero() {
                safe += 1;
            }
        }
        assert_eq!(safe, 0, "positive-cost items make ε = 0 infeasible");
    }

    #[test]
    fn determinism() {
        let mut a = SimRng::new(9);
        let mut b = SimRng::new(9);
        for w in Workload::ALL {
            assert_eq!(w.generate_deal(&mut a), w.generate_deal(&mut b));
        }
    }

    #[test]
    fn labels() {
        assert_eq!(Workload::Ebay.label(), "ebay");
        assert_eq!(Workload::FileSharing.label(), "file-sharing");
        assert_eq!(Workload::Teamwork.label(), "teamwork");
    }
}
