//! # trustex-persist — durable evidence for the trust service
//!
//! The paper's trust-management scheme only works if evidence survives
//! peer restarts: a trust service that loses its tables on crash
//! re-opens every whitewashing attack the reputation layer just closed.
//! This crate is the zero-dependency persistence layer of the
//! reproduction — a hand-rolled binary codec (the workspace has no
//! serialization library, and builds offline from path dependencies):
//!
//! * [`codec`] — little-endian primitive readers/writers
//!   ([`codec::ByteWriter`], [`codec::ByteReader`]) with
//!   allocation-guarded length prefixes.
//! * [`snapshot`] — the versioned container format: a 4-byte magic, a
//!   `u16` format version and tagged, length-prefixed sections each
//!   protected by a CRC-32C trailer (the [`trustex_netsim::crc`]
//!   helper). [`snapshot::Persistable`] is the hook trait the trust
//!   models, the epoch engine and the P-Grid implement.
//! * [`PersistError`] — every corruption class a crash can produce
//!   (truncated tail, bit-flipped section, wrong magic/version, crafted
//!   inconsistency) surfaces as a typed error. Decoding never panics
//!   and never yields a silently-wrong table.
//!
//! ## Format
//!
//! ```text
//! container := magic[4] version:u16 section_count:u32 section*
//! section   := tag[4] payload_len:u64 payload[payload_len] crc32c:u32
//! ```
//!
//! All integers are little-endian; floats travel as `f64::to_bits`. The
//! payload of each section is written by the owning type's
//! [`snapshot::Persistable::encode_state`] and must be consumed exactly
//! by `decode_state` — trailing bytes are an error, not slack.
//!
//! ## Versioning policy
//!
//! [`FORMAT_VERSION`] is bumped on any layout change; readers reject
//! other versions with [`PersistError::UnsupportedVersion`] rather than
//! guessing. Per-section tags let future versions add sections without
//! breaking old ones, but within a version the layout is frozen — the
//! round-trip property tests pin it.
//!
//! ```
//! use trustex_persist::codec::{ByteReader, ByteWriter};
//! use trustex_persist::snapshot::{from_bytes, to_bytes, Persistable};
//! use trustex_persist::PersistError;
//!
//! struct Counter(u64);
//! impl Persistable for Counter {
//!     const TAG: [u8; 4] = *b"CNTR";
//!     fn encode_state(&self, w: &mut ByteWriter) {
//!         w.put_u64(self.0);
//!     }
//!     fn decode_state(r: &mut ByteReader) -> Result<Self, PersistError> {
//!         Ok(Counter(r.take_u64()?))
//!     }
//! }
//!
//! let blob = to_bytes(&Counter(7));
//! assert_eq!(from_bytes::<Counter>(&blob).unwrap().0, 7);
//! let mut corrupt = blob.clone();
//! *corrupt.last_mut().unwrap() ^= 0x40; // flip a CRC bit
//! assert!(from_bytes::<Counter>(&corrupt).is_err());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod snapshot;

pub use trustex_netsim::crc::{crc32c, Crc32};

use std::fmt;

/// The current container format version; readers accept only this.
pub const FORMAT_VERSION: u16 = 1;

/// Every way a persisted blob can fail to restore. Decoding is total:
/// corruption of any class maps to one of these variants, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The input ended before the field named by `context` was complete
    /// — the signature of a crash-truncated tail.
    Truncated {
        /// Which field or structure ran out of bytes.
        context: &'static str,
    },
    /// The 4-byte magic does not match the expected container kind.
    BadMagic {
        /// The magic the reader was asked to verify.
        expected: [u8; 4],
        /// The bytes actually found.
        found: [u8; 4],
    },
    /// The format version is not the one this build reads.
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
        /// Version this reader supports ([`FORMAT_VERSION`]).
        supported: u16,
    },
    /// A section's payload does not match its CRC-32C trailer — a bit
    /// flip or partial overwrite inside the section.
    CrcMismatch {
        /// Tag of the damaged section.
        section: [u8; 4],
    },
    /// The container parsed but a required section is absent.
    MissingSection {
        /// Tag of the absent section.
        section: [u8; 4],
    },
    /// The same section tag appeared twice.
    DuplicateSection {
        /// Tag of the repeated section.
        section: [u8; 4],
    },
    /// Bytes remained after the last declared structure — a hallmark of
    /// mismatched length prefixes.
    TrailingBytes {
        /// How many bytes were left unconsumed.
        count: usize,
    },
    /// A structurally valid payload declared something impossible (a
    /// length prefix larger than the remaining input, an enum tag out of
    /// range, a non-finite float where state must be finite).
    Malformed {
        /// What was malformed.
        context: &'static str,
    },
    /// The payload decoded but failed the owning type's semantic
    /// re-validation (e.g. the P-Grid invariant re-check on restore).
    Invalid {
        /// Which invariant failed.
        context: &'static str,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn tag(t: &[u8; 4]) -> String {
            t.iter()
                .map(|&b| {
                    if b.is_ascii_graphic() {
                        (b as char).to_string()
                    } else {
                        format!("\\x{b:02x}")
                    }
                })
                .collect()
        }
        match self {
            PersistError::Truncated { context } => {
                write!(f, "input truncated while reading {context}")
            }
            PersistError::BadMagic { expected, found } => {
                write!(
                    f,
                    "bad magic: expected {}, found {}",
                    tag(expected),
                    tag(found)
                )
            }
            PersistError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported format version {found} (reader supports {supported})"
                )
            }
            PersistError::CrcMismatch { section } => {
                write!(f, "CRC mismatch in section {}", tag(section))
            }
            PersistError::MissingSection { section } => {
                write!(f, "missing section {}", tag(section))
            }
            PersistError::DuplicateSection { section } => {
                write!(f, "duplicate section {}", tag(section))
            }
            PersistError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after the last structure")
            }
            PersistError::Malformed { context } => write!(f, "malformed payload: {context}"),
            PersistError::Invalid { context } => {
                write!(f, "restored state failed validation: {context}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::codec::{ByteReader, ByteWriter};
    pub use crate::snapshot::{from_bytes, to_bytes, Persistable, SnapshotReader, SnapshotWriter};
    pub use crate::{PersistError, FORMAT_VERSION};
}
