//! The versioned snapshot container and the [`Persistable`] hook trait.
//!
//! A container is a 4-byte magic, a `u16` format version, a `u32`
//! section count, then that many tagged sections:
//!
//! ```text
//! container := magic[4] version:u16 section_count:u32 section*
//! section   := tag[4] payload_len:u64 payload[payload_len] crc32c:u32
//! ```
//!
//! [`SnapshotWriter`] builds one; [`SnapshotReader::parse`] validates the
//! whole container up front — magic, version, every section's length and
//! CRC-32C, duplicate tags, trailing bytes — before any payload is
//! decoded, so a caller that gets a reader back knows the bytes are
//! structurally sound and can then decode sections in any order.
//!
//! Single-value blobs (one type, one section) go through the [`to_bytes`]
//! / [`from_bytes`] shorthand with the generic `TXPS` magic; composite
//! snapshots (the e13 warm-start image, the evidence log) pick their own
//! magic and assemble sections explicitly.

use crate::codec::{ByteReader, ByteWriter};
use crate::{PersistError, FORMAT_VERSION};
use trustex_netsim::crc::crc32c;

/// Magic for single-value containers written by [`to_bytes`].
pub const VALUE_MAGIC: [u8; 4] = *b"TXPS";

/// A type whose state can be written to and restored from a tagged
/// snapshot section.
///
/// `decode_state` must consume the payload exactly (the framework calls
/// [`ByteReader::finish`] afterwards) and must re-validate everything a
/// hand-crafted payload could get wrong: range-check configs, reject
/// non-finite floats, re-check structural invariants. A successful decode
/// must behave identically to the encoded instance.
pub trait Persistable: Sized {
    /// The 4-byte section tag identifying this type in a container.
    const TAG: [u8; 4];

    /// Writes the complete state into `w`.
    fn encode_state(&self, w: &mut ByteWriter);

    /// Rebuilds an instance from a payload produced by `encode_state`.
    fn decode_state(r: &mut ByteReader) -> Result<Self, PersistError>;
}

/// Builds a snapshot container section by section.
#[derive(Debug, Clone)]
pub struct SnapshotWriter {
    magic: [u8; 4],
    sections: Vec<([u8; 4], Vec<u8>)>,
}

impl SnapshotWriter {
    /// Starts an empty container with the given magic.
    pub fn new(magic: [u8; 4]) -> SnapshotWriter {
        SnapshotWriter {
            magic,
            sections: Vec::new(),
        }
    }

    /// Appends a section holding `value`, tagged with its [`Persistable::TAG`].
    pub fn section<T: Persistable>(&mut self, value: &T) -> &mut Self {
        let mut w = ByteWriter::new();
        value.encode_state(&mut w);
        self.raw_section(T::TAG, w.into_bytes())
    }

    /// Appends a section with an explicit tag and pre-encoded payload.
    /// Used when one container carries several instances of the same type
    /// (e.g. the four model tables of a composite snapshot).
    pub fn raw_section(&mut self, tag: [u8; 4], payload: Vec<u8>) -> &mut Self {
        self.sections.push((tag, payload));
        self
    }

    /// Serialises the container: header, then every section with its
    /// length prefix and CRC-32C trailer.
    pub fn into_bytes(self) -> Vec<u8> {
        let body: usize = self.sections.iter().map(|(_, p)| 4 + 8 + p.len() + 4).sum();
        let mut w = ByteWriter::with_capacity(4 + 2 + 4 + body);
        w.put_bytes(&self.magic);
        w.put_u16(FORMAT_VERSION);
        w.put_u32(self.sections.len() as u32);
        for (tag, payload) in &self.sections {
            w.put_bytes(tag);
            w.put_u64(payload.len() as u64);
            w.put_bytes(payload);
            w.put_u32(crc32c(payload));
        }
        w.into_bytes()
    }
}

/// A parsed, fully validated snapshot container.
///
/// Construction via [`SnapshotReader::parse`] checks the header and every
/// section frame (length, CRC, tag uniqueness, no trailing bytes);
/// payload *content* is validated later by each type's
/// [`Persistable::decode_state`].
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    sections: Vec<([u8; 4], &'a [u8])>,
}

impl<'a> SnapshotReader<'a> {
    /// Parses and structurally validates a container with the expected magic.
    pub fn parse(bytes: &'a [u8], magic: [u8; 4]) -> Result<SnapshotReader<'a>, PersistError> {
        let mut r = ByteReader::new(bytes);
        let found = r.take_tag("magic")?;
        if found != magic {
            return Err(PersistError::BadMagic {
                expected: magic,
                found,
            });
        }
        let version = r.take_u16()?;
        if version != FORMAT_VERSION {
            return Err(PersistError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let count = r.take_u32()? as usize;
        // Each section frame is at least tag + len + crc = 16 bytes.
        if count > r.remaining() / 16 {
            return Err(PersistError::Malformed {
                context: "section count exceeds remaining input",
            });
        }
        let mut sections: Vec<([u8; 4], &'a [u8])> = Vec::with_capacity(count);
        for _ in 0..count {
            let tag = r.take_tag("section tag")?;
            let len = r.take_u64()?;
            if len > r.remaining() as u64 {
                return Err(PersistError::Truncated {
                    context: "section payload",
                });
            }
            let payload = r.take_bytes(len as usize, "section payload")?;
            let stored_crc = r.take_u32()?;
            if crc32c(payload) != stored_crc {
                return Err(PersistError::CrcMismatch { section: tag });
            }
            if sections.iter().any(|(t, _)| *t == tag) {
                return Err(PersistError::DuplicateSection { section: tag });
            }
            sections.push((tag, payload));
        }
        r.finish()?;
        Ok(SnapshotReader { sections })
    }

    /// The raw payload of a section, or [`PersistError::MissingSection`].
    pub fn raw_section(&self, tag: [u8; 4]) -> Result<&'a [u8], PersistError> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, p)| *p)
            .ok_or(PersistError::MissingSection { section: tag })
    }

    /// Decodes the section tagged [`Persistable::TAG`] as a `T`.
    pub fn decode<T: Persistable>(&self) -> Result<T, PersistError> {
        self.decode_tag(T::TAG)
    }

    /// Decodes the section with an explicit tag as a `T` (the counterpart
    /// of [`SnapshotWriter::raw_section`] for repeated types).
    pub fn decode_tag<T: Persistable>(&self, tag: [u8; 4]) -> Result<T, PersistError> {
        let payload = self.raw_section(tag)?;
        let mut r = ByteReader::new(payload);
        let value = T::decode_state(&mut r)?;
        r.finish()?;
        Ok(value)
    }
}

/// Serialises one value into a single-section `TXPS` container.
pub fn to_bytes<T: Persistable>(value: &T) -> Vec<u8> {
    let mut w = SnapshotWriter::new(VALUE_MAGIC);
    w.section(value);
    w.into_bytes()
}

/// Restores a value written by [`to_bytes`].
pub fn from_bytes<T: Persistable>(bytes: &[u8]) -> Result<T, PersistError> {
    SnapshotReader::parse(bytes, VALUE_MAGIC)?.decode::<T>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Pair {
        a: u64,
        b: f64,
    }

    impl Persistable for Pair {
        const TAG: [u8; 4] = *b"PAIR";
        fn encode_state(&self, w: &mut ByteWriter) {
            w.put_u64(self.a);
            w.put_f64(self.b);
        }
        fn decode_state(r: &mut ByteReader) -> Result<Self, PersistError> {
            Ok(Pair {
                a: r.take_u64()?,
                b: r.take_finite_f64()?,
            })
        }
    }

    fn sample() -> Pair {
        Pair { a: 42, b: -1.25 }
    }

    #[test]
    fn single_value_round_trip() {
        let blob = to_bytes(&sample());
        assert_eq!(from_bytes::<Pair>(&blob).unwrap(), sample());
    }

    #[test]
    fn multi_section_round_trip_any_order() {
        let mut w = SnapshotWriter::new(*b"TEST");
        let mut pw = ByteWriter::new();
        sample().encode_state(&mut pw);
        w.raw_section(*b"ONE\0", pw.as_bytes().to_vec());
        w.raw_section(*b"TWO\0", pw.into_bytes());
        let blob = w.into_bytes();
        let r = SnapshotReader::parse(&blob, *b"TEST").unwrap();
        // Decode in reverse container order — sections are addressable.
        assert_eq!(r.decode_tag::<Pair>(*b"TWO\0").unwrap(), sample());
        assert_eq!(r.decode_tag::<Pair>(*b"ONE\0").unwrap(), sample());
        assert_eq!(
            r.decode_tag::<Pair>(*b"NOPE"),
            Err(PersistError::MissingSection { section: *b"NOPE" })
        );
    }

    #[test]
    fn wrong_magic_is_typed() {
        let blob = to_bytes(&sample());
        assert_eq!(
            SnapshotReader::parse(&blob, *b"OTHR").unwrap_err(),
            PersistError::BadMagic {
                expected: *b"OTHR",
                found: VALUE_MAGIC,
            }
        );
    }

    #[test]
    fn future_version_is_rejected() {
        let mut blob = to_bytes(&sample());
        blob[4] = blob[4].wrapping_add(1); // version lives right after the magic
        assert_eq!(
            from_bytes::<Pair>(&blob).unwrap_err(),
            PersistError::UnsupportedVersion {
                found: FORMAT_VERSION + 1,
                supported: FORMAT_VERSION,
            }
        );
    }

    #[test]
    fn every_truncation_point_is_an_error() {
        let blob = to_bytes(&sample());
        for cut in 0..blob.len() {
            let res = from_bytes::<Pair>(&blob[..cut]);
            assert!(res.is_err(), "truncation at {cut} must fail, got {res:?}");
        }
    }

    #[test]
    fn every_single_byte_flip_is_an_error_or_detected() {
        let blob = to_bytes(&sample());
        for i in 0..blob.len() {
            for bit in 0..8 {
                let mut corrupt = blob.clone();
                corrupt[i] ^= 1 << bit;
                let res = from_bytes::<Pair>(&corrupt);
                assert!(
                    res.is_err(),
                    "flip of bit {bit} at byte {i} must be detected, got {res:?}"
                );
            }
        }
    }

    #[test]
    fn duplicate_sections_are_rejected() {
        let mut pw = ByteWriter::new();
        sample().encode_state(&mut pw);
        let payload = pw.into_bytes();
        let mut w = SnapshotWriter::new(*b"TEST");
        w.raw_section(*b"PAIR", payload.clone());
        w.raw_section(*b"PAIR", payload);
        assert_eq!(
            SnapshotReader::parse(&w.into_bytes(), *b"TEST").unwrap_err(),
            PersistError::DuplicateSection { section: *b"PAIR" }
        );
    }

    #[test]
    fn trailing_bytes_after_sections_are_rejected() {
        let mut blob = to_bytes(&sample());
        blob.push(0);
        assert_eq!(
            from_bytes::<Pair>(&blob).unwrap_err(),
            PersistError::TrailingBytes { count: 1 }
        );
    }

    #[test]
    fn payload_must_be_consumed_exactly() {
        // Hand-build a container whose PAIR payload has one extra byte
        // (with a matching CRC, so the frame itself is sound).
        let mut pw = ByteWriter::new();
        sample().encode_state(&mut pw);
        pw.put_u8(0xFF);
        let mut w = SnapshotWriter::new(VALUE_MAGIC);
        w.raw_section(Pair::TAG, pw.into_bytes());
        assert_eq!(
            from_bytes::<Pair>(&w.into_bytes()).unwrap_err(),
            PersistError::TrailingBytes { count: 1 }
        );
    }

    #[test]
    fn absurd_section_count_does_not_allocate() {
        let mut w = ByteWriter::new();
        w.put_bytes(&VALUE_MAGIC);
        w.put_u16(FORMAT_VERSION);
        w.put_u32(u32::MAX);
        assert!(matches!(
            SnapshotReader::parse(w.as_bytes(), VALUE_MAGIC),
            Err(PersistError::Malformed { .. })
        ));
    }

    #[test]
    fn empty_input_is_truncated() {
        assert!(matches!(
            from_bytes::<Pair>(&[]),
            Err(PersistError::Truncated { .. })
        ));
    }
}
