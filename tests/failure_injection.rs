//! Failure injection: the system under adversarial and degraded
//! conditions — churn in the storage overlay, exit-scam behaviour
//! switches, and hostile sequences fed to the execution engine. Lying
//! storage peers are swept in the reputation crate's `system` tests.

use trust_aware_cooperation::agents::prelude::*;
use trust_aware_cooperation::core::prelude::*;
use trust_aware_cooperation::netsim::churn::{ChurnModel, ChurnTimeline};
use trust_aware_cooperation::netsim::rng::SimRng;
use trust_aware_cooperation::netsim::time::SimTime;
use trust_aware_cooperation::reputation::prelude::*;
use trust_aware_cooperation::trust::prelude::*;

/// Complaints filed before churn remain mostly retrievable while peers
/// flap, thanks to replication.
#[test]
fn reputation_survives_churn_timeline() {
    let mut sys = ReputationSystem::new(128, 31);
    let offender = PeerId(5);
    for v in 50..56 {
        sys.file_complaint(PeerId(v), offender, 0, None);
    }
    let mut rng = SimRng::new(32);
    // 25% long-run downtime.
    let model = ChurnModel::new(30.0, 10.0);
    let timeline = ChurnTimeline::generate(128, SimTime::from_secs(100), model, &mut rng);

    let mut resolved = 0;
    let mut correct = 0;
    let probes = 40;
    for t in 0..probes {
        let at = SimTime::from_secs(2 * t as u64 + 1);
        let alive: Vec<bool> = (0..128).map(|i| timeline.is_up(i, at)).collect();
        // Query from a live peer.
        let Some(origin) = alive.iter().position(|up| *up) else {
            continue;
        };
        if let Some(tally) = sys.query_tally(PeerId(origin as u32), offender, Some(&alive)) {
            resolved += 1;
            if tally.received == 6 {
                correct += 1;
            }
        }
    }
    assert!(
        resolved >= probes * 6 / 10,
        "under 25% churn most queries should resolve: {resolved}/{probes}"
    );
    assert!(
        correct * 10 >= resolved * 8,
        "resolved queries should be correct: {correct}/{resolved}"
    );
}

/// An exit scammer builds a clean record, then turns; the trust model
/// catches the turn within a few observations.
#[test]
fn exit_scam_is_caught_after_the_turn() {
    let scammer = ExchangeBehavior::ExitScam { honest_rounds: 10 };
    let goods = Goods::from_f64_pairs(&[(1.0, 3.0), (2.0, 4.0)]).unwrap();
    let deal = Deal::with_split_surplus(goods).unwrap();
    let margins = SafetyMargins::symmetric(Money::from_units(2)).unwrap();
    let seq = schedule(&deal, margins, PaymentPolicy::Lazy)
        .unwrap()
        .into_sequence();

    let mut model = BetaTrust::new();
    let victim_view = PeerId(1);
    let mut completions_before_turn = 0;
    let mut completions_after_turn = 0;
    for round in 0..20u64 {
        let mut rng = SimRng::new(round);
        let mut oracle = scammer.oracle(round, &mut rng);
        let outcome = execute(&deal, &seq, &mut Honest, &mut oracle);
        let honest = outcome.status.is_completed();
        if round < 10 {
            completions_before_turn += honest as u32;
        } else {
            completions_after_turn += honest as u32;
        }
        model.record_direct(victim_view, Conduct::from_honest(honest), round);
    }
    assert_eq!(
        completions_before_turn, 10,
        "scammer farms reputation first"
    );
    assert_eq!(completions_after_turn, 0, "then defects every time");
    let estimate = model.predict(victim_view);
    assert!(
        estimate.p_honest < 0.6,
        "ten defections must drag the estimate down: {}",
        estimate.p_honest
    );
}

/// Hostile hand-built sequences: the verifier rejects them under honest
/// margins even when they "look" plausible.
#[test]
fn verifier_rejects_adversarial_schedules() {
    let goods = Goods::from_f64_pairs(&[(2.0, 6.0), (3.0, 7.0)]).unwrap();
    let deal = Deal::with_split_surplus(goods).unwrap();
    let ids: Vec<_> = deal.goods().ids().collect();
    let margins = SafetyMargins::symmetric(Money::from_units(1)).unwrap();

    // Supplier-favouring scam: full prepayment sneaked in as two chunks.
    let scam = ExchangeSequence::new(vec![
        Action::Pay(Money::from_units(5)),
        Action::Pay(deal.price() - Money::from_units(5)),
        Action::Deliver(ids[0]),
        Action::Deliver(ids[1]),
    ]);
    assert!(verify(&deal, margins, scam).is_err());

    // Consumer-favouring scam: everything delivered up front.
    let scam = ExchangeSequence::new(vec![
        Action::Deliver(ids[1]),
        Action::Deliver(ids[0]),
        Action::Pay(deal.price()),
    ]);
    assert!(verify(&deal, margins, scam).is_err());

    // The legitimate schedule for the same margins passes.
    assert!(schedule(&deal, margins, PaymentPolicy::Lazy).is_ok());
}

/// Slanderers flood the gossip channel; the beta model's witness
/// discounting keeps an innocent peer's estimate near its direct record.
#[test]
fn slander_flood_bounded_by_discounting() {
    let mut model = BetaTrust::new();
    let innocent = PeerId(1);
    // Ten clean direct interactions.
    for round in 0..10 {
        model.record_direct(innocent, Conduct::Honest, round);
    }
    let before = model.predict(innocent).p_honest;
    // Fifty slander reports from strangers.
    for s in 0..50u32 {
        model.record_witness(WitnessReport {
            witness: PeerId(100 + s),
            subject: innocent,
            conduct: Conduct::Dishonest,
            round: 10,
        });
    }
    let after = model.predict(innocent).p_honest;
    assert!(
        after > 0.5,
        "stranger flood must not flip a solid direct record: {before} -> {after}"
    );
}
