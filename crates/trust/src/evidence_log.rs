//! The durable evidence log: an append-only sequence of checksummed
//! [`TrustEvent`] frames.
//!
//! Snapshots capture a model at one instant; the log captures the
//! *stream* — every event a trust service accepted, stamped with the
//! issuing peer and the issuer's sequence number. A crashed service
//! restores the last snapshot and replays the log tail; a service that
//! receives gossip twice (retries, overlapping relays) relies on the
//! `(issuer, seq)` dedup of [`EvidenceLog::replay`] to fold each record
//! exactly once.
//!
//! ## Format
//!
//! ```text
//! log   := magic "TXEL" version:u16 frame*
//! frame := payload_len:u32 payload[payload_len] crc32c:u32
//! payload := issuer:u32 seq:u64 event
//! ```
//!
//! Each frame carries its own CRC-32C, so a crash-truncated tail or a
//! bit-flipped frame surfaces as a typed [`PersistError`] on replay —
//! never a panic, never a silently-wrong model.
//!
//! ```
//! use trustex_trust::evidence_log::{EvidenceLog, EvidenceRecord};
//! use trustex_trust::prelude::*;
//!
//! let mut log = EvidenceLog::new();
//! let record = EvidenceRecord {
//!     issuer: PeerId(7),
//!     seq: 0,
//!     event: TrustEvent::direct(PeerId(3), Conduct::Dishonest, 1),
//! };
//! log.append(&record);
//! log.append(&record); // a gossip duplicate
//! let replay = EvidenceLog::replay(log.as_bytes()).unwrap();
//! assert_eq!(replay.records.len(), 1);
//! assert_eq!(replay.duplicates, 1);
//! ```

use crate::engine::TrustEvent;
use crate::model::PeerId;
use std::collections::HashSet;
use trustex_persist::codec::{ByteReader, ByteWriter};
use trustex_persist::{crc32c, PersistError, FORMAT_VERSION};

/// Magic identifying an evidence log.
pub const LOG_MAGIC: [u8; 4] = *b"TXEL";

/// One logged event: who issued it, the issuer's sequence number (the
/// dedup key together with the issuer) and the event itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvidenceRecord {
    /// The peer that issued (submitted) the event.
    pub issuer: PeerId,
    /// The issuer's monotone sequence number for this event.
    pub seq: u64,
    /// The event payload.
    pub event: TrustEvent,
}

/// The result of replaying a log: the surviving records in append order
/// and how many duplicate frames were folded away.
#[derive(Debug, Clone)]
pub struct LogReplay {
    /// Deduplicated records, first occurrence wins, in log order.
    pub records: Vec<EvidenceRecord>,
    /// Frames dropped because their `(issuer, seq)` was already seen.
    pub duplicates: usize,
}

/// An append-only, checksummed event log (see the module docs for the
/// wire format).
#[derive(Debug, Clone)]
pub struct EvidenceLog {
    buf: Vec<u8>,
}

impl Default for EvidenceLog {
    fn default() -> Self {
        Self::new()
    }
}

impl EvidenceLog {
    /// Starts an empty log (header only).
    pub fn new() -> EvidenceLog {
        let mut w = ByteWriter::new();
        w.put_bytes(&LOG_MAGIC);
        w.put_u16(FORMAT_VERSION);
        EvidenceLog {
            buf: w.into_bytes(),
        }
    }

    /// Appends one record as a checksummed frame.
    pub fn append(&mut self, record: &EvidenceRecord) {
        let mut payload = ByteWriter::new();
        payload.put_u32(record.issuer.0);
        payload.put_u64(record.seq);
        record.event.encode_into(&mut payload);
        let payload = payload.into_bytes();
        let mut w = ByteWriter::new();
        w.put_u32(payload.len() as u32);
        w.put_bytes(&payload);
        w.put_u32(crc32c(&payload));
        self.buf.extend_from_slice(w.as_bytes());
    }

    /// The serialized log.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the log, returning the serialized bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Verifies and replays a serialized log: every frame's CRC is
    /// checked, then records are deduplicated on `(issuer, seq)` with
    /// the first occurrence winning. Any truncation or corruption —
    /// including a partial final frame from a crash mid-append — is a
    /// typed error.
    pub fn replay(bytes: &[u8]) -> Result<LogReplay, PersistError> {
        let mut r = ByteReader::new(bytes);
        let magic = r.take_tag("log magic")?;
        if magic != LOG_MAGIC {
            return Err(PersistError::BadMagic {
                expected: LOG_MAGIC,
                found: magic,
            });
        }
        let version = r.take_u16()?;
        if version != FORMAT_VERSION {
            return Err(PersistError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let mut records = Vec::new();
        let mut seen: HashSet<(u32, u64)> = HashSet::new();
        let mut duplicates = 0usize;
        while !r.is_exhausted() {
            let len = r.take_u32()? as usize;
            if len + 4 > r.remaining() {
                return Err(PersistError::Truncated {
                    context: "evidence-log frame",
                });
            }
            let payload = r.take_bytes(len, "evidence-log payload")?;
            let stored_crc = r.take_u32()?;
            if crc32c(payload) != stored_crc {
                return Err(PersistError::CrcMismatch { section: LOG_MAGIC });
            }
            let mut pr = ByteReader::new(payload);
            let issuer = pr.take_u32()?;
            let seq = pr.take_u64()?;
            let event = TrustEvent::decode_from(&mut pr)?;
            pr.finish()?;
            if seen.insert((issuer, seq)) {
                records.push(EvidenceRecord {
                    issuer: PeerId(issuer),
                    seq,
                    event,
                });
            } else {
                duplicates += 1;
            }
        }
        Ok(LogReplay {
            records,
            duplicates,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Conduct, WitnessReport};

    fn sample_records() -> Vec<EvidenceRecord> {
        (0..10)
            .map(|i| EvidenceRecord {
                issuer: PeerId(i % 3),
                seq: (i / 3) as u64,
                event: if i % 2 == 0 {
                    TrustEvent::direct(PeerId(i + 1), Conduct::from_honest(i % 4 == 0), i as u64)
                } else {
                    TrustEvent::Witness(WitnessReport {
                        witness: PeerId(i),
                        subject: PeerId(i + 2),
                        conduct: Conduct::Dishonest,
                        round: i as u64,
                    })
                },
            })
            .collect()
    }

    #[test]
    fn append_replay_round_trip() {
        let records = sample_records();
        let mut log = EvidenceLog::new();
        for rec in &records {
            log.append(rec);
        }
        let replay = EvidenceLog::replay(log.as_bytes()).unwrap();
        assert_eq!(replay.records.len(), records.len());
        assert_eq!(replay.records, records);
        assert_eq!(replay.duplicates, 0);
    }

    #[test]
    fn duplicates_fold_first_wins() {
        let mut log = EvidenceLog::new();
        let first = EvidenceRecord {
            issuer: PeerId(1),
            seq: 5,
            event: TrustEvent::direct(PeerId(2), Conduct::Honest, 0),
        };
        // Same (issuer, seq), different payload: a retry that raced a
        // mutation. First occurrence wins.
        let retry = EvidenceRecord {
            event: TrustEvent::direct(PeerId(2), Conduct::Dishonest, 0),
            ..first
        };
        let other_issuer = EvidenceRecord {
            issuer: PeerId(2),
            ..first
        };
        log.append(&first);
        log.append(&retry);
        log.append(&other_issuer);
        let replay = EvidenceLog::replay(log.as_bytes()).unwrap();
        assert_eq!(replay.records, vec![first, other_issuer]);
        assert_eq!(replay.duplicates, 1);
    }

    #[test]
    fn truncated_tail_is_detected_at_every_cut() {
        let mut log = EvidenceLog::new();
        for rec in &sample_records() {
            log.append(rec);
        }
        let bytes = log.as_bytes();
        let header = 6; // magic + version
        for cut in header..bytes.len() {
            // A cut can land exactly on a frame boundary — then the log
            // simply has fewer complete frames and replays cleanly; any
            // other cut must be a typed error.
            match EvidenceLog::replay(&bytes[..cut]) {
                Ok(replay) => assert!(
                    replay.records.len() < 10,
                    "cut at {cut} cannot preserve all frames"
                ),
                Err(
                    PersistError::Truncated { .. }
                    | PersistError::CrcMismatch { .. }
                    | PersistError::Malformed { .. },
                ) => {}
                Err(other) => panic!("unexpected error class at cut {cut}: {other:?}"),
            }
        }
        // Cutting into the header is always an error.
        for cut in 0..header {
            assert!(EvidenceLog::replay(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn bit_flips_are_detected() {
        let mut log = EvidenceLog::new();
        for rec in &sample_records() {
            log.append(rec);
        }
        let bytes = log.as_bytes().to_vec();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x10;
            assert!(
                EvidenceLog::replay(&corrupt).is_err(),
                "flip at byte {i} must be detected"
            );
        }
    }

    #[test]
    fn wrong_magic_and_version() {
        let log = EvidenceLog::new();
        let mut bytes = log.as_bytes().to_vec();
        bytes[0] = b'X';
        assert!(matches!(
            EvidenceLog::replay(&bytes),
            Err(PersistError::BadMagic { .. })
        ));
        let mut bytes = log.as_bytes().to_vec();
        bytes[4] = bytes[4].wrapping_add(1);
        assert!(matches!(
            EvidenceLog::replay(&bytes),
            Err(PersistError::UnsupportedVersion { .. })
        ));
    }
}
