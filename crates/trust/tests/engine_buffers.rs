//! The engine's double buffer: a publish folds into the standby (the
//! model the previous publish retired, brought level by replaying that
//! publish's delta) and clones the published model only when a reader
//! still holds the retired epoch.
//!
//! Every path must publish the same epochs bit for bit as a direct fold
//! of the published events: with snapshots held across publishes (no
//! standby to reclaim), with reader threads racing the publishes, and
//! across a snapshot/restore taken mid-window once a standby exists.

use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use trustex_persist::snapshot::{from_bytes, to_bytes};
use trustex_trust::beta::BetaTrust;
use trustex_trust::complaints::ComplaintTrust;
use trustex_trust::engine::{TrustEngine, TrustEvent};
use trustex_trust::model::{Conduct, PeerId, TrustEstimate, TrustModel, WitnessReport};

const POP: u32 = 16;

/// One step of a workout: an event, a publish, or a reader taking or
/// dropping held snapshots.
#[derive(Debug, Clone, Copy)]
enum Step {
    Event(TrustEvent),
    Publish,
    Hold,
    Release,
}

fn event(direct: bool, a: u32, b: u32, honest: bool, round: u64) -> TrustEvent {
    let conduct = Conduct::from_honest(honest);
    if direct {
        TrustEvent::direct(PeerId(a), conduct, round)
    } else {
        TrustEvent::Witness(WitnessReport {
            witness: PeerId(a),
            subject: PeerId(b),
            conduct,
            round,
        })
    }
}

fn steps(max_len: usize) -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (0u8..12, 0u32..POP, 0u32..POP, any::<bool>(), 0u64..20).prop_map(
            |(kind, a, b, honest, round)| match kind {
                0 | 1 => Step::Publish,
                2 => Step::Hold,
                3 => Step::Release,
                _ => Step::Event(event(kind < 8, a, b, honest, round)),
            },
        ),
        0..max_len,
    )
}

fn events(max_len: usize) -> impl Strategy<Value = Vec<TrustEvent>> {
    prop::collection::vec(
        (any::<bool>(), 0u32..POP, 0u32..POP, any::<bool>(), 0u64..20)
            .prop_map(|(direct, a, b, honest, round)| event(direct, a, b, honest, round)),
        0..max_len,
    )
}

/// The full prediction row as bits.
fn row_bits(read: impl FnOnce(&mut [TrustEstimate])) -> Vec<(u64, u64)> {
    let mut row = vec![TrustEstimate::UNKNOWN; POP as usize];
    read(&mut row);
    row.iter()
        .map(|e| (e.p_honest.to_bits(), e.confidence.to_bits()))
        .collect()
}

fn scorer_weighted() -> ComplaintTrust {
    let mut model = ComplaintTrust::new().scorer_weighted(true);
    model.set_population(POP as usize);
    model
}

/// Drives `steps` through an engine while held snapshots keep retired
/// epochs alive, so some publishes find no standby and clone instead.
/// After every publish the new epoch's row must equal the direct fold's,
/// and every held snapshot must still serve its own epoch.
fn check_held_snapshots<M>(model: M, steps: &[Step]) -> Result<(), TestCaseError>
where
    M: TrustModel + Clone,
{
    let engine = TrustEngine::new(model.clone());
    let mut reference = model;
    let mut held = Vec::new();
    let mut seq = 0u64;
    for &step in steps {
        match step {
            Step::Event(event) => {
                engine.submit(seq, event);
                event.apply(&mut reference);
                seq += 1;
            }
            Step::Publish => {
                let epoch = engine.publish();
                let snap = engine.snapshot();
                prop_assert_eq!(snap.epoch(), epoch);
                let want = row_bits(|row| reference.predict_row_into(row));
                prop_assert_eq!(row_bits(|row| snap.predict_row_into(row)), want);
            }
            Step::Hold => {
                let snap = engine.snapshot();
                let want = row_bits(|row| snap.predict_row_into(row));
                held.push((snap, want));
            }
            Step::Release => {
                for (snap, want) in held.drain(..) {
                    prop_assert_eq!(row_bits(|row| snap.predict_row_into(row)), want);
                }
            }
        }
    }
    Ok(())
}

/// Submits `events` to the engine from `*seq` on and applies them to the
/// reference; returns the first seq used.
fn feed<M: TrustModel + Clone>(
    engine: &TrustEngine<M>,
    reference: &mut M,
    seq: &mut u64,
    events: &[TrustEvent],
) -> u64 {
    let first = *seq;
    for &event in events {
        engine.submit(*seq, event);
        event.apply(reference);
        *seq += 1;
    }
    first
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) Snapshots held across publishes block reclaiming the retired
    /// epoch; the clone fallback and the standby path interleave and
    /// every epoch still equals the direct fold.
    #[test]
    fn held_snapshots_keep_epochs_exact(steps in steps(160)) {
        check_held_snapshots(ComplaintTrust::with_population(POP as usize), &steps)?;
        check_held_snapshots(scorer_weighted(), &steps)?;
        check_held_snapshots(BetaTrust::with_population(POP as usize), &steps)?;
    }

    /// (c) Snapshot and restore mid-window after the standby exists: the
    /// restored engine (published model, no standby) and the live one
    /// (standby plus lag) publish identical epochs and identical bytes.
    #[test]
    fn restore_mid_window_matches_live_engine(
        history in events(60),
        window in events(30),
        later in events(60),
        split in 0usize..30,
    ) {
        let engine = TrustEngine::new(scorer_weighted());
        let mut reference = scorer_weighted();
        let mut seq = 0u64;
        // Two publishes: the second leaves a standby lacking its delta.
        let (first, second) = history.split_at(history.len() / 2);
        feed(&engine, &mut reference, &mut seq, first);
        engine.publish();
        feed(&engine, &mut reference, &mut seq, second);
        engine.publish();
        let split = split.min(window.len());
        feed(&engine, &mut reference, &mut seq, &window[..split]);

        let restored: TrustEngine<ComplaintTrust> =
            from_bytes(&to_bytes(&engine)).expect("engine snapshot");
        prop_assert_eq!(restored.epoch(), engine.epoch());
        prop_assert_eq!(restored.pending_len(), engine.pending_len());

        for chunk in std::iter::once(&window[split..]).chain(later.chunks(20)) {
            let first = feed(&engine, &mut reference, &mut seq, chunk);
            restored.submit_batch((first..).zip(chunk.iter().copied()));
            prop_assert_eq!(engine.publish(), restored.publish());
            let want = row_bits(|row| reference.predict_row_into(row));
            prop_assert_eq!(row_bits(|row| engine.snapshot().predict_row_into(row)), want.clone());
            prop_assert_eq!(row_bits(|row| restored.snapshot().predict_row_into(row)), want);
            prop_assert_eq!(to_bytes(&restored), to_bytes(&engine));
        }
    }
}

/// (b) Two reader threads take and drop snapshots while the main thread
/// submits and publishes. One reader drops each snapshot at once; the
/// other keeps each odd epoch until its next read, so publishes race
/// both a reclaimable and a held retired epoch. After each publish the
/// main thread waits until both readers have read again, so the reads
/// interleave with the publishes however the threads are scheduled.
/// Every row any thread reads must equal the sequential reference for
/// that row's epoch.
#[test]
fn racing_readers_see_sequential_epochs() {
    const WINDOWS: usize = 200;
    const EVENTS: usize = 48;
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let windows: Vec<Vec<TrustEvent>> = (0..WINDOWS)
        .map(|w| {
            (0..EVENTS)
                .map(|_| {
                    let r = next();
                    event(
                        r & 1 == 0,
                        (r >> 8) as u32 % POP,
                        (r >> 16) as u32 % POP,
                        (r >> 24) % 3 != 0,
                        w as u64,
                    )
                })
                .collect()
        })
        .collect();

    // The sequential reference: rows[e] is epoch e's row.
    let mut reference = scorer_weighted();
    let mut rows = vec![row_bits(|row| reference.predict_row_into(row))];
    for window in &windows {
        for &event in window {
            event.apply(&mut reference);
        }
        rows.push(row_bits(|row| reference.predict_row_into(row)));
    }

    /// Stops the readers however the main thread leaves the scope, so a
    /// failed check cannot leave them spinning.
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }

    let engine = TrustEngine::new(scorer_weighted());
    let done = AtomicBool::new(false);
    let reads = [AtomicUsize::new(0), AtomicUsize::new(0)];
    std::thread::scope(|scope| {
        let readers = [false, true].map(|holds| {
            let (engine, done, rows) = (&engine, &done, &rows);
            let reads = &reads[usize::from(holds)];
            scope.spawn(move || {
                let mut held = None;
                while !done.load(Ordering::Acquire) {
                    let snap = engine.snapshot();
                    let got = row_bits(|row| snap.predict_row_into(row));
                    assert_eq!(got, rows[snap.epoch() as usize], "epoch {}", snap.epoch());
                    held = (holds && snap.epoch() % 2 == 1).then_some(snap);
                    reads.fetch_add(1, Ordering::Release);
                    std::hint::spin_loop();
                }
                drop(held);
            })
        });
        let _stop = StopOnDrop(&done);
        let mut seq = 0u64;
        for window in &windows {
            // Scrambled arrival, pinned by seq.
            let base = seq;
            engine.submit_batch(
                window
                    .iter()
                    .enumerate()
                    .rev()
                    .map(|(i, &event)| (base + i as u64, event)),
            );
            seq += window.len() as u64;
            let epoch = engine.publish();
            let snap = engine.snapshot();
            assert_eq!(snap.epoch(), epoch);
            let got = row_bits(|row| snap.predict_row_into(row));
            assert_eq!(got, rows[epoch as usize], "epoch {epoch}");
            // One read may have begun before the publish; the next one
            // sees this epoch. A reader that stopped (failed) is not
            // waited for.
            let floor = reads.each_ref().map(|r| r.load(Ordering::Acquire) + 2);
            while readers
                .iter()
                .zip(&reads)
                .zip(floor)
                .any(|((reader, r), floor)| {
                    !reader.is_finished() && r.load(Ordering::Acquire) < floor
                })
            {
                std::thread::yield_now();
            }
        }
    });
}
