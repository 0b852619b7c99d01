//! The chaos differential suite.
//!
//! Two contracts pin the fault plane's blast radius:
//!
//! 1. **Zero-fault transparency** — a configured-but-zero plane must be
//!    a perfect no-op: every experiment table the plane can touch (e6's
//!    P-Grid overlay, e8's marketplace, e11's adversary frontier)
//!    replays bit-for-bit against the seed's committed behaviour, and a
//!    zero-plane market run with the defenses armed equals the default
//!    clean run field-for-field.
//! 2. **Faulty determinism** — a *faulty* plane is still a pure function
//!    of `(seed, src, dst, seq)`: chaos runs and the e14 table are
//!    bit-identical for threads ∈ {1, 2, 8}.

use std::sync::Mutex;
use trustex_market::prelude::*;
use trustex_netsim::backoff::RetryPolicy;
use trustex_netsim::fault::{FaultPlane, PartitionSpec};
use trustex_netsim::net::{NetConfig, Network};
use trustex_netsim::pool::set_default_threads;
use trustex_netsim::rng::SimRng;
use trustex_netsim::time::SimTime;
use trustex_reputation::pgrid::{PGrid, PGridConfig};
use trustex_reputation::record::key_for_peer;
use trustex_trust::model::PeerId;

/// The worker-pool default is process-global: tests that vary it must
/// serialise on this lock or they race each other's thread counts.
static THREAD_DEFAULT: Mutex<()> = Mutex::new(());

fn faulty_chaos() -> ChaosConfig {
    ChaosConfig {
        loss: 0.05,
        partition: PartitionSpec::Bisect {
            heal_at: SimTime::from_millis(40),
        },
        defended: true,
    }
}

fn base_cfg(model: ModelKind, seed: u64) -> MarketConfig {
    MarketConfig {
        n_agents: 50,
        rounds: 8,
        sessions_per_round: 50,
        workload: Workload::FileSharing,
        model,
        seed,
        ..MarketConfig::default()
    }
}

/// A zero-fault plane with retry and degradation armed produces a
/// bit-identical `MarketReport` to the default clean run, for all four
/// trust models.
#[test]
fn zero_plane_market_runs_equal_plane_absent_runs() {
    for model in ModelKind::ALL {
        let clean = MarketSim::new(base_cfg(model, 0xD1FF)).run();
        let chaotic = MarketSim::new(MarketConfig {
            chaos: ChaosConfig {
                defended: true,
                ..ChaosConfig::default()
            },
            ..base_cfg(model, 0xD1FF)
        })
        .run();
        assert_eq!(chaotic, clean, "{model:?} defended zero-plane diverged");
    }
}

/// The committed experiment tables the fault plane could perturb — e6
/// (P-Grid overlay), e8 (marketplace) and e11 (adversary frontier) —
/// replay bit-for-bit at threads {1, 2, 8}. With no chaos configured
/// anywhere in those experiments, this is the differential that proves
/// the fault-plane plumbing (send_link, route_at, transmit_report)
/// changed nothing about today's tables.
#[test]
fn e6_e8_e11_tables_replay_bit_for_bit_across_thread_counts() {
    let _guard = THREAD_DEFAULT.lock().unwrap_or_else(|e| e.into_inner());
    for id in ["e6", "e8", "e11"] {
        let experiment = find_experiment(id).expect("registered");
        set_default_threads(1);
        let reference = (experiment.run)(Scale::Smoke);
        for threads in [2usize, 8] {
            set_default_threads(threads);
            assert_eq!(
                (experiment.run)(Scale::Smoke),
                reference,
                "{id} diverged at threads={threads}"
            );
        }
    }
    set_default_threads(0);
}

/// A *faulty* chaos run — loss, a live partition, retry and
/// degradation all active — is bit-identical for threads ∈ {1, 2, 8}:
/// fault fates are pure hashes, so sharding the execute phase cannot
/// shift a single delivery.
#[test]
fn faulty_market_runs_identical_across_thread_counts() {
    for model in ModelKind::ALL {
        let make = |threads: usize| {
            MarketSim::new(MarketConfig {
                chaos: faulty_chaos(),
                threads,
                ..base_cfg(model, 0xC405)
            })
            .run()
        };
        let reference = make(1);
        assert!(
            reference.witness_delivery_rate() < 1.0,
            "{model:?}: the faulty plane must actually drop something"
        );
        for threads in [2, 8] {
            assert_eq!(
                make(threads),
                reference,
                "{model:?} chaos run diverged at threads={threads}"
            );
        }
    }
}

/// The full e14 table is bit-identical for threads ∈ {1, 2, 8}.
#[test]
fn e14_table_identical_across_thread_counts() {
    let _guard = THREAD_DEFAULT.lock().unwrap_or_else(|e| e.into_inner());
    let e14 = find_experiment("e14").expect("e14 registered");
    set_default_threads(1);
    let reference = (e14.run)(Scale::Smoke);
    for threads in [2usize, 8] {
        set_default_threads(threads);
        assert_eq!(
            (e14.run)(Scale::Smoke),
            reference,
            "e14 diverged at threads={threads}"
        );
    }
    set_default_threads(0);
}

/// Overlay differential: routing queries through a differently seeded
/// zero plane with the retry machinery armed returns hop-for-hop,
/// answer-for-answer the same results as the plain query path (the
/// default `Network::new` plane, no retry), and consumes an identical
/// RNG stream.
#[test]
fn zero_plane_grid_queries_with_retry_equal_plain_queries() {
    let n = 64;
    let mut rng = SimRng::new(0x6B1D);
    let grid = PGrid::build(n, PGridConfig::for_population(n, 4), &mut rng);
    let policy = RetryPolicy::standard();

    let mut plain_rng = SimRng::new(0xABCD);
    let mut chaos_rng = SimRng::new(0xABCD);
    let mut plain_net = Network::new(NetConfig::default());
    let mut chaos_net =
        Network::with_fault_plane(NetConfig::default(), FaultPlane::transparent(0x2E80));
    for q in 0..200u64 {
        let subject = PeerId(plain_rng.index(n) as u32);
        let origin = plain_rng.index(n);
        assert_eq!(PeerId(chaos_rng.index(n) as u32), subject);
        assert_eq!(chaos_rng.index(n), origin);
        let key = key_for_peer(subject, grid.config().key_bits);
        let start = SimTime::from_micros(q * 250);
        let plain = grid.query(origin, key, None, &mut plain_net, &mut plain_rng);
        let chaotic = grid.query_at(
            origin,
            key,
            None,
            &mut chaos_net,
            &mut chaos_rng,
            start,
            Some(&policy),
        );
        assert_eq!(chaotic.hops, plain.hops, "query {q}: hop count diverged");
        assert_eq!(
            chaotic.answers, plain.answers,
            "query {q}: answers diverged"
        );
    }
    // Same messages sent, nothing dropped, and the RNG streams stayed
    // in lockstep — the plane consumed zero randomness.
    assert_eq!(chaos_net.total_sent(), plain_net.total_sent());
    assert_eq!(chaos_net.total_dropped(), 0);
    assert_eq!(chaos_rng.next_u64(), plain_rng.next_u64());
}
