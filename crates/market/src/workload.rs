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

use std::sync::LazyLock;
use trustex_core::deal::Deal;
use trustex_core::goods::Goods;
use trustex_core::money::Money;
use trustex_netsim::rng::{BoundedPareto, SimRng};

/// The eBay item-cost distribution: bounded Pareto with tail index 1.5
/// on `[2, 60]`, built once for every deal.
static EBAY_COST: LazyLock<BoundedPareto> = LazyLock::new(|| BoundedPareto::new(1.5, 2.0, 60.0));

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

    /// Generates the goods set for one deal. The item draws feed
    /// [`Goods::new`] directly, in item order.
    pub fn generate_goods(self, rng: &mut SimRng) -> Goods {
        let goods = match self {
            Workload::Ebay => {
                let n = rng.range_u64(3, 9) as usize;
                Goods::new((0..n).map(|_| {
                    let cost = EBAY_COST.sample(rng);
                    let value = cost * rng.range_f64(1.2, 2.2);
                    (Money::from_f64(cost), Money::from_f64(value))
                }))
            }
            Workload::FileSharing => {
                let n = rng.range_u64(10, 41) as usize;
                Goods::new((0..n).map(|_| {
                    let cost = rng.range_f64(0.05, 0.5);
                    let value = cost * rng.range_f64(1.5, 3.0);
                    (Money::from_f64(cost), Money::from_f64(value))
                }))
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
                Goods::new(pairs)
            }
        };
        goods.expect("non-empty, non-negative by construction")
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

    /// The first eight eBay deals from seed `0xEBA7`, to the micro-unit:
    /// `(price, [(cost, value); items])`. A change to the draw order, to
    /// the rounding of [`Money::from_f64`] or to the sampler by more than
    /// the rounding hides moves these; `rng.rs` pins the sampler's bits.
    #[test]
    fn ebay_known_answers() {
        #[rustfmt::skip]
        const DEALS: [(i64, &[(i64, i64)]); 8] = [
            (37_514_823, &[(2_280_877, 3_435_069), (2_182_786, 3_507_512), (8_478_727, 13_748_745), (2_513_488, 5_208_389), (2_871_177, 5_172_675), (4_304_229, 8_835_494), (4_252_981, 8_237_498)]),
            (27_327_850, &[(2_968_749, 4_160_469), (3_203_795, 5_215_589), (2_305_991, 3_776_709), (3_568_487, 4_306_152), (2_195_998, 4_286_077), (3_292_056, 4_137_736), (2_268_707, 3_088_924), (2_032_378, 3_847_884)]),
            (42_996_447, &[(2_439_138, 4_081_687), (2_375_289, 4_477_591), (14_321_895, 22_689_810), (3_401_269, 5_542_294), (10_532_725, 16_131_197)]),
            (48_746_828, &[(2_507_311, 3_395_880), (2_781_659, 3_813_951), (22_954_487, 29_780_837), (3_276_870, 5_155_492), (8_233_837, 15_593_333)]),
            (31_666_000, &[(2_343_563, 3_307_031), (4_001_025, 7_221_775), (2_327_292, 3_991_484), (2_127_722, 4_459_886), (3_326_171, 7_245_667), (2_475_037, 3_128_812), (2_714_896, 5_208_639), (3_087_128, 6_365_873)]),
            (19_877_748, &[(2_388_425, 3_253_332), (2_454_328, 3_307_505), (10_010_170, 18_341_737)]),
            (20_094_927, &[(2_114_692, 3_009_930), (11_528_931, 15_349_480), (2_558_502, 5_628_319)]),
            (53_857_270, &[(2_112_245, 3_360_152), (5_009_359, 9_490_478), (2_578_171, 4_203_375), (2_069_622, 4_050_675), (16_306_121, 27_856_508), (4_369_102, 8_395_280), (3_890_540, 5_203_517), (2_756_910, 6_062_485)]),
        ];
        let mut rng = SimRng::new(0xEBA7);
        for (i, (price, items)) in DEALS.iter().enumerate() {
            let deal = Workload::Ebay.generate_deal(&mut rng);
            let got: Vec<(i64, i64)> = deal
                .goods()
                .iter()
                .map(|item| {
                    (
                        item.supplier_cost().as_micros(),
                        item.consumer_value().as_micros(),
                    )
                })
                .collect();
            assert_eq!(got.len(), items.len(), "deal {i}: item count");
            assert_eq!(got, *items, "deal {i}: (cost, value) micros");
            assert_eq!(deal.price().as_micros(), *price, "deal {i}: price");
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
