//! Differential suite for the complaint model's rank-bracketed median.
//!
//! `ComplaintTrust` locates its median off a rank bracket that every
//! tally mutation moves in O(1), and reselects only when the middle rank
//! leaves it. `seal` stores the located median; `median_product` on a
//! model mutated since its last seal locates it without storing it.
//! This suite drives random streams of direct and witness events,
//! `forget_peer` calls, population re-declarations and mid-stream clones
//! (which carry the bracket and the sealed median), and after random
//! steps compares the median's bits with a naive sort of the recorded
//! products plus the silent-peer 1.0 padding: first the stale read,
//! then the sealed read. It covers an undeclared population and one
//! equal to, below and above the id range, with scorer weighting on and
//! off.

use proptest::prelude::*;
use std::collections::BTreeSet;
use trustex_trust::complaints::ComplaintTrust;
use trustex_trust::model::{Conduct, PeerId, TrustModel, WitnessReport};

/// Ids are drawn from `0..IDS`.
const IDS: u32 = 24;

#[derive(Debug, Clone, Copy)]
enum Step {
    Direct {
        subject: u32,
        honest: bool,
    },
    Witness {
        witness: u32,
        subject: u32,
        honest: bool,
    },
    Forget(u32),
    Clone,
    Repopulate(usize),
    Read,
}

fn steps(max_len: usize) -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (0u8..16, 0u32..IDS, 0u32..IDS, any::<bool>()).prop_map(
            |(kind, a, b, honest)| match kind {
                0..=4 => Step::Direct { subject: a, honest },
                5..=9 => Step::Witness {
                    witness: a,
                    subject: b,
                    honest,
                },
                10 | 11 => Step::Forget(a),
                12 => Step::Clone,
                13 => Step::Repopulate(b as usize * 2),
                _ => Step::Read,
            },
        ),
        0..max_len,
    )
}

/// The naive median: sort the recorded peers' products plus the silent
/// 1.0s, take the middle element (1.0 when nothing is recorded).
fn naive_median(
    model: &ComplaintTrust,
    recorded: &BTreeSet<u32>,
    population: Option<usize>,
) -> f64 {
    if recorded.is_empty() {
        return 1.0;
    }
    let mut products: Vec<f64> = recorded
        .iter()
        .map(|&p| {
            let (received, filed) = model.tally(PeerId(p));
            (received + 1.0) * (filed + 1.0)
        })
        .collect();
    if let Some(n) = population {
        products.resize(n.max(recorded.len()), 1.0);
    }
    products.sort_by(f64::total_cmp);
    products[products.len() / 2]
}

/// Runs `steps`, checking the median at every `Read` step, after every
/// step when `read_each_step`, and at the end.
fn check_median(
    steps: &[Step],
    population: Option<usize>,
    scorer_weighted: bool,
    read_each_step: bool,
) -> Result<(), TestCaseError> {
    let mut model = ComplaintTrust::new().scorer_weighted(scorer_weighted);
    let mut population = population;
    if let Some(n) = population {
        model.set_population(n);
    }
    // Which peers the model holds a record for (the map keys of the
    // pre-dense storage).
    let mut recorded = BTreeSet::new();
    let check = |model: &mut ComplaintTrust, recorded: &BTreeSet<u32>, population| {
        let want = naive_median(model, recorded, population).to_bits();
        prop_assert_eq!(model.median_product().to_bits(), want);
        model.seal();
        prop_assert_eq!(model.median_product().to_bits(), want);
        Ok(())
    };
    for &step in steps {
        match step {
            Step::Direct { subject, honest } => {
                model.record_direct(PeerId(subject), Conduct::from_honest(honest), 0);
                if !honest {
                    recorded.insert(subject);
                }
            }
            Step::Witness {
                witness,
                subject,
                honest,
            } => {
                model.record_witness(WitnessReport {
                    witness: PeerId(witness),
                    subject: PeerId(subject),
                    conduct: Conduct::from_honest(honest),
                    round: 0,
                });
                if !honest {
                    recorded.insert(witness);
                    recorded.insert(subject);
                }
            }
            Step::Forget(peer) => {
                model.forget_peer(PeerId(peer));
                recorded.remove(&peer);
            }
            Step::Clone => model = model.clone(),
            Step::Repopulate(n) => {
                model.set_population(n);
                population = Some(n);
            }
            Step::Read => check(&mut model, &recorded, population)?,
        }
        if read_each_step {
            check(&mut model, &recorded, population)?;
        }
    }
    check(&mut model, &recorded, population)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The stale and the sealed median equal the naive sort, bit for
    /// bit, for every population shape and both weightings. Unweighted
    /// relays (weight ½) make many products tie (the bracket's `equal`
    /// count); scorer weighting scales each relay by a non-dyadic
    /// honesty estimate, which makes ties rare. Sparse reads let several
    /// mutations move the bracket between two reads; reading after
    /// every step checks each single move.
    #[test]
    fn bracketed_median_matches_naive_sort(
        steps in steps(240),
        shape in 0u8..4,
        scorer_weighted in any::<bool>(),
        read_each_step in any::<bool>(),
    ) {
        let population = match shape {
            0 => None,
            1 => Some(IDS as usize),
            2 => Some(IDS as usize / 2),
            _ => Some(IDS as usize * 2),
        };
        check_median(&steps, population, scorer_weighted, read_each_step)?;
    }
}

/// Whole-table forgets and re-records walk the middle rank across the
/// silent padding in both directions.
#[test]
fn median_tracks_forget_and_refill_of_every_peer() {
    for population in [None, Some(4), Some(8), Some(16)] {
        let mut model = ComplaintTrust::new();
        if let Some(n) = population {
            model.set_population(n);
        }
        let mut recorded = BTreeSet::new();
        let check = |model: &mut ComplaintTrust, recorded: &BTreeSet<u32>| {
            let want = naive_median(model, recorded, population).to_bits();
            assert_eq!(model.median_product().to_bits(), want);
            model.seal();
            assert_eq!(model.median_product().to_bits(), want);
        };
        for round in 0..3u32 {
            for p in 0..8u32 {
                for _ in 0..=(p + round) % 5 {
                    model.record_direct(PeerId(p), Conduct::Dishonest, 0);
                }
                recorded.insert(p);
                check(&mut model, &recorded);
            }
            for p in (0..8u32).rev() {
                model.forget_peer(PeerId(p));
                recorded.remove(&p);
                check(&mut model, &recorded);
            }
        }
    }
}
