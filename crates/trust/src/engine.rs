//! The epoch-swapped trust service engine: lock-free snapshot reads
//! against a consistent view while feedback streams into a pending
//! delta.
//!
//! The simulation harness is batch-shaped (run rounds, print a table),
//! but a production trust service answers interactive queries *while*
//! feedback arrives. This module provides that split:
//!
//! * **Read side** — [`TrustSnapshot`]: an immutable, cheaply clonable
//!   (`Arc`) view of a trust model at one published **epoch**. Readers
//!   never block writers, and the model they read is plain data:
//!   [`TrustEngine::publish`] seals it (via [`TrustModel::seal`], which
//!   settles e.g. the complaint model's population median) before the
//!   epoch goes live, so snapshot predicts are pure table reads.
//! * **Write side** — [`TrustEngine::submit`]: feedback and witness
//!   events accumulate in a pending delta, tagged with a caller-chosen
//!   sequence number. [`TrustEngine::publish`] folds the delta **in
//!   sequence order** — a pinned fold, so the published epoch is
//!   bit-identical no matter how many threads submitted or in which
//!   interleaving the events arrived — and swaps the new snapshot in
//!   atomically.
//! * **Two copies** — the engine holds the published model and a
//!   standby: the model the last publish retired, which lacks exactly
//!   that publish's delta (the lag). A publish replays the lag and then
//!   the new delta into the standby, seals and publishes it, and takes
//!   the retired model back as the next standby. A publish therefore
//!   costs its delta and the previous one, not a copy of the model.
//!   Only when a reader still holds the retired epoch, so it cannot be
//!   reclaimed, does the next publish clone the published model
//!   instead.
//!
//! The architecture mirrors an API-front/replication-back split: the
//! front serves reads from the current epoch, the back batches writes
//! and rotates epochs. Snapshots taken before a publish keep serving
//! the old epoch until dropped; there is no read-your-writes inside an
//! unpublished delta, by design.
//!
//! ```
//! use trustex_trust::engine::{TrustEngine, TrustEvent};
//! use trustex_trust::prelude::*;
//!
//! let engine = TrustEngine::new(BetaTrust::with_population(8));
//! let before = engine.snapshot();
//! engine.submit(0, TrustEvent::direct(PeerId(3), Conduct::Dishonest, 1));
//! // Unpublished events are invisible to every snapshot.
//! assert_eq!(engine.snapshot().predict(PeerId(3)), before.predict(PeerId(3)));
//! engine.publish();
//! assert!(engine.snapshot().predict(PeerId(3)).p_honest < before.predict(PeerId(3)).p_honest);
//! ```

use crate::model::{Conduct, PeerId, TrustEstimate, TrustModel, WitnessReport};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use trustex_persist::codec::{ByteReader, ByteWriter};
use trustex_persist::snapshot::Persistable;
use trustex_persist::PersistError;

/// One streamed write: everything the [`TrustModel`] write interface
/// accepts, reified so deltas can be queued, reordered and replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrustEvent {
    /// A first-hand experience (`TrustModel::record_direct`).
    Direct {
        /// Whom the experience is about.
        subject: PeerId,
        /// The observed conduct.
        conduct: Conduct,
        /// Simulation round / logical time of the interaction.
        round: u64,
    },
    /// A relayed observation (`TrustModel::record_witness`).
    Witness(WitnessReport),
}

impl TrustEvent {
    /// Shorthand for a direct-experience event.
    pub fn direct(subject: PeerId, conduct: Conduct, round: u64) -> TrustEvent {
        TrustEvent::Direct {
            subject,
            conduct,
            round,
        }
    }

    /// Applies the event to a model.
    pub fn apply<M: TrustModel>(self, model: &mut M) {
        match self {
            TrustEvent::Direct {
                subject,
                conduct,
                round,
            } => model.record_direct(subject, conduct, round),
            TrustEvent::Witness(report) => model.record_witness(report),
        }
    }

    /// Writes the event's wire frame (the payload format of the durable
    /// evidence log and the engine's pending-delta section).
    pub fn encode_into(self, w: &mut ByteWriter) {
        fn put_conduct(w: &mut ByteWriter, c: Conduct) {
            w.put_u8(!c.is_honest() as u8);
        }
        match self {
            TrustEvent::Direct {
                subject,
                conduct,
                round,
            } => {
                w.put_u8(0);
                w.put_u32(subject.0);
                put_conduct(w, conduct);
                w.put_u64(round);
            }
            TrustEvent::Witness(report) => {
                w.put_u8(1);
                w.put_u32(report.witness.0);
                w.put_u32(report.subject.0);
                put_conduct(w, report.conduct);
                w.put_u64(report.round);
            }
        }
    }

    /// Reads one event frame written by [`TrustEvent::encode_into`].
    pub fn decode_from(r: &mut ByteReader) -> Result<TrustEvent, PersistError> {
        fn take_conduct(r: &mut ByteReader) -> Result<Conduct, PersistError> {
            match r.take_u8()? {
                0 => Ok(Conduct::Honest),
                1 => Ok(Conduct::Dishonest),
                _ => Err(PersistError::Malformed {
                    context: "conduct byte out of range",
                }),
            }
        }
        match r.take_u8()? {
            0 => Ok(TrustEvent::Direct {
                subject: PeerId(r.take_u32()?),
                conduct: take_conduct(r)?,
                round: r.take_u64()?,
            }),
            1 => Ok(TrustEvent::Witness(WitnessReport {
                witness: PeerId(r.take_u32()?),
                subject: PeerId(r.take_u32()?),
                conduct: take_conduct(r)?,
                round: r.take_u64()?,
            })),
            _ => Err(PersistError::Malformed {
                context: "trust-event variant out of range",
            }),
        }
    }
}

/// An immutable view of a trust model at one published epoch.
///
/// Cloning is one `Arc` bump; predictions are plain reads of the sealed
/// model and are bit-identical to calling the model directly.
#[derive(Debug, Clone)]
pub struct TrustSnapshot<M> {
    model: Arc<M>,
    epoch: u64,
}

impl<M: TrustModel> TrustSnapshot<M> {
    /// The epoch this snapshot was published at (0 = initial state).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The sealed model behind the snapshot.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Predicts `subject`'s behaviour at this epoch.
    pub fn predict(&self, subject: PeerId) -> TrustEstimate {
        self.model.predict(subject)
    }

    /// Fills `out[i]` with the estimate for subject `PeerId(i)` in one
    /// sweep — bit-identical to per-subject [`TrustSnapshot::predict`].
    pub fn predict_row_into(&self, out: &mut [TrustEstimate]) {
        self.model.predict_row_into(out);
    }
}

/// Pending (not yet folded) events plus the standby copy the next
/// publish folds them into.
#[derive(Debug)]
struct WriteSide<M> {
    /// Events submitted since the last publish: `(seq, event)`.
    pending: Vec<(u64, TrustEvent)>,
    /// The model the last publish retired, if no reader still held it.
    /// It is the published model minus exactly `lag`.
    standby: Option<M>,
    /// The last publish's seq-sorted delta: what `standby` lacks.
    lag: Vec<(u64, TrustEvent)>,
}

/// The epoch-swapped snapshot engine around one trust model.
///
/// See the [module docs](self) for the read/write split. The
/// determinism contract: publishing folds pending events in ascending
/// `seq` order, so as long as the event stream assigns distinct
/// sequence numbers (e.g. positions in a deterministic generator
/// stream), the published model is bit-identical regardless of thread
/// count or submission interleaving.
#[derive(Debug)]
pub struct TrustEngine<M> {
    /// The current epoch's snapshot, swapped wholesale at publish. The
    /// lock guards only the pointer swap (readers clone an `Arc` out),
    /// never model data.
    current: RwLock<TrustSnapshot<M>>,
    /// Mirror of the published epoch for lock-free progress checks.
    epoch: AtomicU64,
    write: Mutex<WriteSide<M>>,
}

impl<M: TrustModel + Clone> TrustEngine<M> {
    /// Wraps a model, sealing and publishing it as epoch 0.
    pub fn new(model: M) -> TrustEngine<M> {
        TrustEngine::sealed_at(model, 0, Vec::new())
    }

    /// Seals `model` and publishes it at `epoch`, with `pending` queued
    /// for the next publish and no standby yet.
    fn sealed_at(mut model: M, epoch: u64, pending: Vec<(u64, TrustEvent)>) -> TrustEngine<M> {
        model.seal();
        TrustEngine {
            current: RwLock::new(TrustSnapshot {
                model: Arc::new(model),
                epoch,
            }),
            epoch: AtomicU64::new(epoch),
            write: Mutex::new(WriteSide {
                pending,
                standby: None,
                lag: Vec::new(),
            }),
        }
    }

    /// The last published epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Clones the current epoch's snapshot (one `Arc` bump under a
    /// momentary pointer-read lock).
    pub fn snapshot(&self) -> TrustSnapshot<M> {
        self.current
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Queues one event for the next publish. `seq` pins its position
    /// in the fold; submissions may arrive from any thread in any
    /// order.
    pub fn submit(&self, seq: u64, event: TrustEvent) {
        self.write
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pending
            .push((seq, event));
    }

    /// Queues a batch of events under one lock acquisition.
    pub fn submit_batch(&self, events: impl IntoIterator<Item = (u64, TrustEvent)>) {
        self.write
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pending
            .extend(events);
    }

    /// Number of events awaiting the next publish.
    pub fn pending_len(&self) -> usize {
        self.write
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pending
            .len()
    }

    /// Folds the pending delta in ascending `seq` order into a copy of
    /// the published model, seals the result and swaps it in as the next
    /// epoch. Returns the new epoch number. Outstanding snapshots keep
    /// serving their old epoch until dropped.
    ///
    /// The copy is the standby: the model the last publish retired,
    /// brought level by replaying that publish's delta. So a publish
    /// costs its own delta plus the previous one. Only when a reader
    /// still held the retired epoch (and so it could not be reclaimed)
    /// is the published model cloned instead.
    pub fn publish(&self) -> u64 {
        let mut write = self.write.lock().unwrap_or_else(|e| e.into_inner());
        let WriteSide {
            pending,
            standby,
            lag,
        } = &mut *write;
        // Stable on seq: ties (a caller bug — seqs should be distinct)
        // at least keep their per-thread arrival order.
        pending.sort_by_key(|(seq, _)| *seq);
        let mut model = match standby.take() {
            Some(mut model) => {
                for &(_, event) in lag.iter() {
                    event.apply(&mut model);
                }
                model
            }
            None => self.snapshot().model().clone(),
        };
        for &(_, event) in pending.iter() {
            event.apply(&mut model);
        }
        // Seal derived values (e.g. the complaint median) so snapshot
        // readers never compute them.
        model.seal();
        // This delta is what the retired model lacks.
        *lag = std::mem::take(pending);
        let epoch = self.epoch.load(Ordering::Acquire) + 1;
        let next = TrustSnapshot {
            model: Arc::new(model),
            epoch,
        };
        let retired = std::mem::replace(
            &mut *self.current.write().unwrap_or_else(|e| e.into_inner()),
            next,
        );
        self.epoch.store(epoch, Ordering::Release);
        *standby = Arc::try_unwrap(retired.model).ok();
        epoch
    }
}

/// The engine persists as its published epoch, the published model
/// (which carries every published event) and the pending seq-tagged
/// delta — the full write-side state; the standby is a reusable buffer
/// and does not travel. Restoring re-seals the model and publishes it
/// at the saved epoch, so snapshots resume exactly where the saved
/// engine's would, and a subsequent `publish` folds the restored delta
/// identically to the live engine.
///
/// Folding an event about a peer past a model's tables grows them to
/// that id: the complaint model's dense table, and the dense length of
/// a [`crate::table::PeerTable`], which the next encode walks id by id.
/// So restore bounds every id in the pending delta by the payload's
/// length in bytes, as [`ByteReader::take_len`] bounds every count it
/// reads: a snapshot can only make the next publish and the next encode
/// allocate in proportion to its own size. Every model here encodes
/// each table slot in at least 16 bytes, so an id the restored model
/// holds a slot for always passes.
impl<M: TrustModel + Clone + Persistable> Persistable for TrustEngine<M> {
    const TAG: [u8; 4] = *b"TENG";

    fn encode_state(&self, w: &mut ByteWriter) {
        // Holding the write lock keeps a publish from swapping the epoch
        // between the model and the delta.
        let write = self.write.lock().unwrap_or_else(|e| e.into_inner());
        let published = self.snapshot();
        w.put_u64(published.epoch);
        published.model.encode_state(w);
        w.put_len(write.pending.len());
        for &(seq, event) in &write.pending {
            w.put_u64(seq);
            event.encode_into(w);
        }
    }

    fn decode_state(r: &mut ByteReader) -> Result<Self, PersistError> {
        let id_bound = r.remaining();
        let epoch = r.take_u64()?;
        let model = M::decode_state(r)?;
        // Smallest pending frame: seq (8) + direct event (14).
        let n = r.take_len(22)?;
        let mut pending = Vec::with_capacity(n);
        for _ in 0..n {
            let seq = r.take_u64()?;
            let event = TrustEvent::decode_from(r)?;
            let (a, b) = match event {
                TrustEvent::Direct { subject, .. } => (subject, subject),
                TrustEvent::Witness(report) => (report.witness, report.subject),
            };
            if a.index().max(b.index()) >= id_bound {
                return Err(PersistError::Invalid {
                    context: "pending trust event names a peer id the payload cannot back",
                });
            }
            pending.push((seq, event));
        }
        Ok(TrustEngine::sealed_at(model, epoch, pending))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::EwmaTrust;
    use crate::beta::BetaTrust;
    use crate::complaints::ComplaintTrust;

    fn dishonest(subject: u32, round: u64) -> TrustEvent {
        TrustEvent::direct(PeerId(subject), Conduct::Dishonest, round)
    }

    #[test]
    fn initial_epoch_is_zero_and_matches_model() {
        let engine = TrustEngine::new(BetaTrust::with_population(4));
        let snap = engine.snapshot();
        assert_eq!(snap.epoch(), 0);
        assert_eq!(engine.epoch(), 0);
        assert_eq!(snap.predict(PeerId(1)), BetaTrust::new().predict(PeerId(1)));
    }

    #[test]
    fn unpublished_events_are_invisible() {
        let engine = TrustEngine::new(BetaTrust::with_population(4));
        let before = engine.snapshot();
        engine.submit(0, dishonest(2, 0));
        assert_eq!(engine.pending_len(), 1);
        assert_eq!(
            engine.snapshot().predict(PeerId(2)),
            before.predict(PeerId(2))
        );
        engine.publish();
        assert_eq!(engine.pending_len(), 0);
        assert!(engine.snapshot().predict(PeerId(2)).p_honest < before.predict(PeerId(2)).p_honest);
    }

    #[test]
    fn old_snapshots_survive_publishes() {
        let engine = TrustEngine::new(BetaTrust::with_population(4));
        let old = engine.snapshot();
        let p_old = old.predict(PeerId(1));
        for seq in 0..5 {
            engine.submit(seq, dishonest(1, seq));
        }
        engine.publish();
        assert_eq!(old.epoch(), 0);
        assert_eq!(old.predict(PeerId(1)), p_old, "epoch 0 view must not move");
        assert_eq!(engine.snapshot().epoch(), 1);
    }

    #[test]
    fn publish_folds_in_seq_order_not_arrival_order() {
        // The EWMA model is order-sensitive: the latest observation
        // weighs most. Submitting in scrambled arrival order must
        // reproduce the in-order fold exactly.
        let events: Vec<(u64, TrustEvent)> = (0..20)
            .map(|i| {
                (
                    i,
                    TrustEvent::direct(
                        PeerId((i % 3) as u32),
                        if i % 4 == 0 {
                            Conduct::Dishonest
                        } else {
                            Conduct::Honest
                        },
                        i,
                    ),
                )
            })
            .collect();
        let reference = TrustEngine::new(EwmaTrust::with_population(4));
        reference.submit_batch(events.clone());
        reference.publish();

        let scrambled = TrustEngine::new(EwmaTrust::with_population(4));
        let mut shuffled = events;
        shuffled.reverse();
        shuffled.swap(3, 11);
        for (seq, event) in shuffled {
            scrambled.submit(seq, event);
        }
        scrambled.publish();

        let mut a = vec![TrustEstimate::UNKNOWN; 4];
        let mut b = vec![TrustEstimate::UNKNOWN; 4];
        reference.snapshot().predict_row_into(&mut a);
        scrambled.snapshot().predict_row_into(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn epochs_count_publishes() {
        let engine = TrustEngine::new(BetaTrust::new());
        assert_eq!(engine.publish(), 1);
        assert_eq!(engine.publish(), 2);
        assert_eq!(engine.epoch(), 2);
        assert_eq!(engine.snapshot().epoch(), 2);
    }

    #[test]
    fn complaint_snapshot_is_sealed() {
        // After publish, the snapshot's median must be settled: a
        // predict must not compute it (observable only indirectly — the
        // predict equals the direct model's and the row sweep agrees
        // with per-subject predicts).
        let engine = TrustEngine::new(ComplaintTrust::with_population(8));
        for seq in 0..6 {
            engine.submit(seq, dishonest(3, seq));
        }
        engine.publish();
        let snap = engine.snapshot();
        let mut row = vec![TrustEstimate::UNKNOWN; 8];
        snap.predict_row_into(&mut row);
        for (i, est) in row.iter().enumerate() {
            assert_eq!(*est, snap.predict(PeerId(i as u32)), "subject {i}");
        }
        assert!(snap.predict(PeerId(3)).p_honest < snap.predict(PeerId(1)).p_honest);
    }

    #[test]
    fn witness_events_reach_the_model() {
        let engine = TrustEngine::new(ComplaintTrust::with_population(8));
        engine.submit(
            0,
            TrustEvent::Witness(WitnessReport {
                witness: PeerId(1),
                subject: PeerId(2),
                conduct: Conduct::Dishonest,
                round: 0,
            }),
        );
        engine.publish();
        let (received, _) = engine.snapshot().model().tally(PeerId(2));
        assert_eq!(received, 0.5, "witness complaint lands at witness weight");
    }
}
