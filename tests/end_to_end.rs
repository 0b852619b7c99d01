//! Cross-crate integration: the full Figure 1 loop assembled by hand
//! from the public APIs of every crate, plus determinism guarantees.

use trust_aware_cooperation::core::prelude::*;
use trust_aware_cooperation::decision::prelude::*;
use trust_aware_cooperation::market::prelude::*;
use trust_aware_cooperation::market::sim::MarketConfig;
use trust_aware_cooperation::netsim::rng::SimRng;
use trust_aware_cooperation::reputation::prelude::*;
use trust_aware_cooperation::trust::prelude::*;

/// Reputation → trust → decision → exchange → feedback, by hand.
#[test]
fn figure_one_loop_assembled_manually() {
    let mut rng = SimRng::new(99);
    let mut reputation = ReputationSystem::new(64, 99);
    let mut model = BetaTrust::new();

    let supplier = PeerId(3);
    let consumer = PeerId(8);

    // Round 1: no history — the engagement rule still permits a
    // prior-trust trade, with small margins.
    let deal = Workload::FileSharing.generate_deal(&mut rng);
    let estimate = model.predict(consumer);
    assert_eq!(estimate, TrustEstimate::UNKNOWN);

    let inputs = |est: TrustEstimate, deal: &Deal| PartyInputs {
        trust_in_opponent: est,
        exposure: ExposurePolicy::with_cap(deal.price()),
    };
    let nx = plan_exchange(
        &deal,
        inputs(estimate, &deal),
        inputs(estimate, &deal),
        PaymentPolicy::Lazy,
    )
    .expect("file-sharing deals need little collateral");

    // Execution: the consumer defects at its temptation peak.
    let mut defector = RationalDefector { stake: Money::ZERO };
    let outcome = execute(&deal, nx.plan.sequence(), &mut Honest, &mut defector);
    assert!(matches!(
        outcome.status,
        ExchangeStatus::Aborted {
            by: Role::Consumer,
            ..
        }
    ));
    // Bounded damage: the consumer's haul beyond its rightful surplus is
    // at most the margin the supplier granted.
    let excess = outcome.consumer_gain - deal.consumer_surplus();
    assert!(excess <= nx.margins.eps_supplier());

    // Feedback: direct experience + a complaint into the grid.
    model.record_direct(consumer, Conduct::Dishonest, 1);
    reputation.file_complaint(supplier, consumer, 1, None);

    // Round 2: the trust module now predicts dishonesty...
    let estimate = model.predict(consumer);
    assert!(estimate.p_honest < 0.5);
    // ...and the reputation system can corroborate it for strangers.
    let tally = reputation
        .query_tally(PeerId(40), consumer, None)
        .expect("grid resolves");
    assert_eq!(tally.received, 1);

    // The decision module now declines.
    let deal2 = Workload::FileSharing.generate_deal(&mut rng);
    let r = plan_exchange(
        &deal2,
        inputs(estimate, &deal2),
        inputs(TrustEstimate::new(0.9, 0.9), &deal2),
        PaymentPolicy::Lazy,
    );
    assert_eq!(r.unwrap_err(), PlanError::SupplierDeclined);
}

#[test]
fn whole_market_is_deterministic_across_runs() {
    let run = || {
        let cfg = MarketConfig {
            n_agents: 30,
            rounds: 5,
            sessions_per_round: 30,
            seed: 12345,
            ..MarketConfig::default()
        };
        MarketSim::new(cfg).run()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.aborted, b.aborted);
    assert_eq!(a.no_trade, b.no_trade);
    assert!((a.total_welfare - b.total_welfare).abs() < 1e-12);
    assert!((a.final_mae - b.final_mae).abs() < 1e-12);
}

#[test]
fn seeds_change_outcomes() {
    let run = |seed| {
        let cfg = MarketConfig {
            n_agents: 30,
            rounds: 5,
            sessions_per_round: 30,
            seed,
            ..MarketConfig::default()
        };
        MarketSim::new(cfg).run()
    };
    let a = run(1);
    let b = run(2);
    assert!(
        a.total_welfare != b.total_welfare || a.completed != b.completed,
        "different seeds should explore different histories"
    );
}

/// The verifier and the execution engine agree: any verified sequence
/// executed by parties whose stakes cover the margins completes.
#[test]
fn verified_sequences_complete_under_covered_stakes() {
    let mut rng = SimRng::new(5);
    for workload in Workload::ALL {
        for _ in 0..20 {
            let deal = workload.generate_deal(&mut rng);
            let margins =
                SafetyMargins::symmetric(deal.goods().total_surplus()).expect("non-negative");
            let plan =
                schedule(&deal, margins, PaymentPolicy::Balanced).expect("wide margins schedule");
            let mut s = RationalDefector {
                stake: margins.eps_consumer(),
            };
            let mut c = RationalDefector {
                stake: margins.eps_supplier(),
            };
            let out = execute(&deal, plan.sequence(), &mut s, &mut c);
            assert!(
                out.status.is_completed(),
                "{workload:?}: covered stakes must complete: {out:?}"
            );
        }
    }
}
