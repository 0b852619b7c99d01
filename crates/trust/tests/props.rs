//! Property tests for the trust models.

use proptest::prelude::*;
use trustex_trust::baselines::{EwmaTrust, MeanTrust};
use trustex_trust::beta::BetaTrust;
use trustex_trust::complaints::ComplaintTrust;
use trustex_trust::model::{Conduct, PeerId, TrustModel, WitnessReport};

fn conducts() -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec(any::<bool>(), 0..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// All models emit probabilities and confidences in [0, 1] whatever
    /// they are fed.
    #[test]
    fn estimates_always_in_range(history in conducts(), probe in 0u32..5) {
        let subject = PeerId(1);
        let mut models: Vec<(&str, Box<dyn TrustModel>)> = vec![
            ("beta", Box::new(BetaTrust::new())),
            ("complaints", Box::new(ComplaintTrust::new())),
            ("mean", Box::new(MeanTrust::new())),
            ("ewma", Box::new(EwmaTrust::default())),
        ];
        for (label, model) in &mut models {
            for (round, honest) in history.iter().enumerate() {
                model.record_direct(subject, Conduct::from_honest(*honest), round as u64);
            }
            let est = model.predict(PeerId(probe));
            prop_assert!((0.0..=1.0).contains(&est.p_honest), "{}", label);
            prop_assert!((0.0..=1.0).contains(&est.confidence), "{}", label);
        }
    }

    /// The beta posterior mean equals (α₀+h)/(α₀+β₀+n) exactly.
    #[test]
    fn beta_posterior_closed_form(history in conducts()) {
        let mut m = BetaTrust::new();
        let subject = PeerId(1);
        for (round, honest) in history.iter().enumerate() {
            m.record_direct(subject, Conduct::from_honest(*honest), round as u64);
        }
        let h = history.iter().filter(|x| **x).count() as f64;
        let n = history.len() as f64;
        let expected = (1.0 + h) / (2.0 + n);
        prop_assert!((m.predict(subject).p_honest - expected).abs() < 1e-12);
    }

    /// The beta model is exchangeable: permuting the
    /// observation order leaves the estimate unchanged.
    #[test]
    fn beta_exchangeability(history in conducts(), seed in any::<u64>()) {
        let subject = PeerId(1);
        let mut ordered = BetaTrust::new();
        for (round, honest) in history.iter().enumerate() {
            ordered.record_direct(subject, Conduct::from_honest(*honest), round as u64);
        }
        // Deterministic pseudo-shuffle of the history.
        let mut shuffled_history = history.clone();
        let mut state = seed;
        for i in (1..shuffled_history.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            shuffled_history.swap(i, j);
        }
        let mut shuffled = BetaTrust::new();
        for (round, honest) in shuffled_history.iter().enumerate() {
            shuffled.record_direct(subject, Conduct::from_honest(*honest), round as u64);
        }
        prop_assert_eq!(ordered.predict(subject).p_honest, shuffled.predict(subject).p_honest);
    }

    /// More honest observations never lower the beta estimate; more
    /// dishonest ones never raise it.
    #[test]
    fn beta_monotone_updates(history in conducts()) {
        let subject = PeerId(1);
        let mut m = BetaTrust::new();
        for (round, honest) in history.iter().enumerate() {
            let before = m.predict(subject).p_honest;
            m.record_direct(subject, Conduct::from_honest(*honest), round as u64);
            let after = m.predict(subject).p_honest;
            if *honest {
                prop_assert!(after >= before);
            } else {
                prop_assert!(after <= before);
            }
        }
    }

    /// Witness reports never dominate a contradicting direct history:
    /// with the default config, one stranger's slander moves the
    /// estimate by at most the discounted weight.
    #[test]
    fn stranger_slander_is_bounded(n_honest in 1u64..30) {
        let subject = PeerId(1);
        let mut m = BetaTrust::new();
        for round in 0..n_honest {
            m.record_direct(subject, Conduct::Honest, round);
        }
        let before = m.predict(subject).p_honest;
        m.record_witness(WitnessReport {
            witness: PeerId(99),
            subject,
            conduct: Conduct::Dishonest,
            round: n_honest,
        });
        let after = m.predict(subject).p_honest;
        // Weight 0.1 on a mass of ≥ 3 pseudo-counts: bounded drop.
        prop_assert!(before - after <= 0.05, "drop {}", before - after);
        prop_assert!(after < before, "slander must still register");
    }

    /// Complaint products are multiplicative in the two tallies and the
    /// assessment threshold scales with the population.
    #[test]
    fn complaint_product_formula(recv in 0u32..20, filed in 0u32..20) {
        let mut m = ComplaintTrust::new();
        let subject = PeerId(1);
        for v in 0..recv {
            m.file_complaint(PeerId(100 + v), subject, 0);
        }
        for v in 0..filed {
            m.file_complaint(subject, PeerId(200 + v), 0);
        }
        let expected = (recv as f64 + 1.0) * (filed as f64 + 1.0);
        let (received, filed) = m.tally(subject);
        let product = (received + 1.0) * (filed + 1.0);
        prop_assert!((product - expected).abs() < 1e-9);
    }

    /// EWMA stays inside the convex hull of {initial, observations}.
    #[test]
    fn ewma_convexity(history in conducts()) {
        let subject = PeerId(1);
        let mut m = EwmaTrust::new();
        for (round, honest) in history.iter().enumerate() {
            m.record_direct(subject, Conduct::from_honest(*honest), round as u64);
        }
        let p = m.predict(subject).p_honest;
        prop_assert!((0.0..=1.0).contains(&p));
        if history.iter().all(|h| *h) && !history.is_empty() {
            prop_assert!(p > 0.5, "all-honest history must trend up");
        }
        if history.iter().all(|h| !*h) && !history.is_empty() {
            prop_assert!(p < 0.5, "all-dishonest history must trend down");
        }
    }
}
