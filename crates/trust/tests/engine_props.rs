//! Differential suite for the epoch-swapped trust engine.
//!
//! The engine's contract is that its read path is a pure function of the
//! *published* event prefix: after every publish, a snapshot's
//! predictions must equal a reference model that applied exactly the
//! published events directly, bit for bit — regardless of the arrival
//! order of the submissions (the publish fold is pinned by sequence
//! numbers) and regardless of how many snapshots readers are still
//! holding. These tests pin that on random write/publish interleavings
//! for all four model kinds.

use proptest::prelude::*;
use trustex_trust::baselines::{EwmaTrust, MeanTrust};
use trustex_trust::beta::BetaTrust;
use trustex_trust::complaints::ComplaintTrust;
use trustex_trust::engine::{TrustEngine, TrustEvent};
use trustex_trust::model::{Conduct, PeerId, TrustEstimate, TrustModel, WitnessReport};

const POP: u32 = 12;

/// One step of a random engine workout: a feedback event or a publish
/// boundary.
#[derive(Debug, Clone, Copy)]
enum Step {
    Direct {
        subject: u32,
        honest: bool,
        round: u64,
    },
    Witness {
        witness: u32,
        subject: u32,
        honest: bool,
        round: u64,
    },
    Publish,
}

fn steps(max_len: usize) -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (0u8..5, 0u32..POP, 0u32..POP, any::<bool>(), 0u64..20).prop_map(
            |(kind, a, b, honest, round)| match kind {
                0 => Step::Publish,
                1 | 2 => Step::Witness {
                    witness: a,
                    subject: b,
                    honest,
                    round,
                },
                _ => Step::Direct {
                    subject: a,
                    honest,
                    round,
                },
            },
        ),
        0..max_len,
    )
}

fn event_of(step: Step) -> Option<TrustEvent> {
    match step {
        Step::Publish => None,
        Step::Direct {
            subject,
            honest,
            round,
        } => Some(TrustEvent::direct(
            PeerId(subject),
            Conduct::from_honest(honest),
            round,
        )),
        Step::Witness {
            witness,
            subject,
            honest,
            round,
        } => Some(TrustEvent::Witness(WitnessReport {
            witness: PeerId(witness),
            subject: PeerId(subject),
            conduct: Conduct::from_honest(honest),
            round,
        })),
    }
}

fn assert_estimates_eq(got: &[TrustEstimate], want: &[TrustEstimate], context: &str) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            (g.p_honest, g.confidence),
            (w.p_honest, w.confidence),
            "{context}: subject {i} diverged"
        );
    }
}

/// Drives `steps` through an engine while a reference model applies the
/// same *published* prefix directly. After every publish — i.e. after
/// every prefix of the interleaving — the fresh snapshot's full row must
/// match the reference bit for bit; within a window the pending events
/// must stay invisible. Submission arrival order is scrambled (each
/// window is submitted back to front, keeping the original sequence
/// numbers) to pin the seq-ordered publish fold. Every snapshot ever
/// taken is retained and re-checked against its own epoch's reference at
/// the end, so old epochs provably never move.
fn check_engine_against_reference<M>(model: M, steps: &[Step])
where
    M: TrustModel + Clone + Send + Sync + 'static,
{
    let reference_base = model.clone();
    let engine = TrustEngine::new(model);
    let mut reference = reference_base;
    let mut row = vec![TrustEstimate::UNKNOWN; POP as usize];
    let mut want = vec![TrustEstimate::UNKNOWN; POP as usize];

    // (epoch, reference row at that epoch, snapshot taken then).
    let mut history = Vec::new();
    let mut window: Vec<(u64, TrustEvent)> = Vec::new();
    let mut seq = 0u64;
    let mut boundaries = 0usize;

    for &step in steps {
        match event_of(step) {
            Some(event) => {
                window.push((seq, event));
                seq += 1;
            }
            None => {
                boundaries += 1;
                // Pending events are invisible before the publish.
                let pre = engine.snapshot();
                pre.predict_row_into(&mut row);
                reference.predict_row_into(&mut want);
                assert_estimates_eq(&row, &want, &format!("pre-publish {boundaries}"));

                // Scrambled arrival: back to front, original seqs.
                engine.submit_batch(window.iter().rev().cloned());
                for (_, event) in window.drain(..) {
                    event.apply(&mut reference);
                }
                let epoch = engine.publish();

                let snap = engine.snapshot();
                assert_eq!(snap.epoch(), epoch);
                snap.predict_row_into(&mut row);
                reference.predict_row_into(&mut want);
                assert_estimates_eq(&row, &want, &format!("post-publish {boundaries}"));
                history.push((epoch, want.clone(), snap));
            }
        }
    }

    // No epoch ever moves: every retained snapshot still serves exactly
    // its own published prefix.
    for (epoch, want, snap) in &history {
        assert_eq!(snap.epoch(), *epoch);
        snap.predict_row_into(&mut row);
        assert_estimates_eq(&row, want, &format!("retained epoch {epoch}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn beta_engine_matches_direct_folds(steps in steps(120)) {
        check_engine_against_reference(BetaTrust::with_population(POP as usize), &steps);
    }

    #[test]
    fn complaint_engine_matches_direct_folds(steps in steps(120)) {
        check_engine_against_reference(ComplaintTrust::with_population(POP as usize), &steps);
    }

    #[test]
    fn mean_engine_matches_direct_folds(steps in steps(120)) {
        check_engine_against_reference(MeanTrust::new(), &steps);
    }

    #[test]
    fn ewma_engine_matches_direct_folds(steps in steps(120)) {
        check_engine_against_reference(EwmaTrust::new(), &steps);
    }
}
