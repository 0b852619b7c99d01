//! Property tests for the chaos plane's delivery discipline.
//!
//! The load-bearing invariant: **no fault mechanism may double-count a
//! report's feedback effects**. Bounded retransmission puts extra
//! copies of an emission on the wire, yet each emission reaches a model
//! at most once by construction, and arming the defenses on a
//! zero-fault plane is bit-identical to the default clean run, across
//! arbitrary small configurations. The per-reporter rate cap holds
//! under every fault mix as well.

use proptest::prelude::any;
use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
use trustex_agents::profile::PopulationMix;
use trustex_market::prelude::*;
use trustex_netsim::fault::PartitionSpec;
use trustex_netsim::time::SimTime;

fn base(n_agents: usize, rounds: u64, sessions: usize, seed: u64, dishonest: f64) -> MarketConfig {
    MarketConfig {
        n_agents,
        rounds,
        sessions_per_round: sessions,
        workload: Workload::FileSharing,
        mix: PopulationMix::standard(dishonest, 0.25),
        seed,
        ..MarketConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A zero-fault plane is a perfect no-op for arbitrary small
    /// configurations, defended or not: the run equals the default
    /// clean run bit-for-bit.
    #[test]
    fn zero_fault_plane_equals_no_plane(
        n_agents in 3usize..30,
        rounds in 1u64..6,
        sessions in 1usize..40,
        seed in 0u64..1_000_000,
        dishonest in 0.0f64..0.9,
        defended in any::<bool>(),
    ) {
        let clean = MarketSim::new(base(n_agents, rounds, sessions, seed, dishonest)).run();
        let chaotic = MarketSim::new(MarketConfig {
            chaos: ChaosConfig {
                defended,
                ..ChaosConfig::default()
            },
            ..base(n_agents, rounds, sessions, seed, dishonest)
        })
        .run();
        prop_assert_eq!(chaotic, clean);
    }

    /// Retransmissions never double-count: `witness_delivered` counts
    /// *unique logical emissions* accepted by a model (each emission
    /// arrives at most once), so under any mix of loss, partitions and
    /// aggressive retransmission the delivered count can never exceed
    /// the attempted count — a double-delivered retry would push it
    /// past. (Runs
    /// with retry on and off are *not* compared: delivered reports feed
    /// back into trust state and legitimately change trade volume.)
    #[test]
    fn retries_and_duplicates_never_overcount_deliveries(
        n_agents in 3usize..30,
        rounds in 2u64..6,
        sessions in 1usize..40,
        seed in 0u64..1_000_000,
        loss in 0.0f64..0.5,
        defended in any::<bool>(),
    ) {
        let report = MarketSim::new(MarketConfig {
            chaos: ChaosConfig {
                loss,
                partition: PartitionSpec::Islands {
                    islands: 3,
                    heal_at: SimTime::from_micros(rounds / 2 * ROUND_SPAN.as_micros()),
                },
                defended,
            },
            ..base(n_agents, rounds, sessions, seed, 0.3)
        })
        .run();
        prop_assert!(report.witness_delivered <= report.witness_attempted);
        let rate = report.witness_delivery_rate();
        prop_assert!((0.0..=1.0).contains(&rate));
    }

    /// The report rate cap holds under chaos: each reporter gets at most
    /// `cap` deliveries per delivery round, retransmissions included, so
    /// no mix of loss, partition and retry can push the
    /// delivered count past `rounds · n_agents · cap` — a bound of zero,
    /// so nothing at all is admitted, when the cap is zero.
    #[test]
    fn rate_cap_bounds_deliveries_under_chaos(
        n_agents in 3usize..30,
        rounds in 1u64..6,
        sessions in 1usize..40,
        seed in 0u64..1_000_000,
        cap in 0u32..4,
        loss in 0.0f64..0.3,
        partitioned in any::<bool>(),
        defended in any::<bool>(),
    ) {
        let heal_at = SimTime::from_micros(rounds / 2 * ROUND_SPAN.as_micros());
        let report = MarketSim::new(MarketConfig {
            defense: DefenseConfig {
                report_rate_cap: Some(cap),
                ..DefenseConfig::default()
            },
            chaos: ChaosConfig {
                loss,
                partition: if partitioned {
                    PartitionSpec::Bisect { heal_at }
                } else {
                    PartitionSpec::None
                },
                defended,
            },
            ..base(n_agents, rounds, sessions, seed, 0.3)
        })
        .run();
        let bound = rounds * n_agents as u64 * u64::from(cap);
        prop_assert!(
            report.witness_delivered <= bound,
            "delivered {} > bound {}", report.witness_delivered, bound
        );
    }
}
