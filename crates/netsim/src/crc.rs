//! CRC-32C (Castagnoli) checksums for the durable-evidence codec.
//!
//! The persistence layer (`trustex-persist`) frames every snapshot
//! section and evidence-log record with a checksum so crash-truncated or
//! bit-flipped state surfaces as a typed decode error instead of a
//! silently-wrong trust table. The Castagnoli polynomial is the one used
//! by iSCSI/ext4 (better error-detection properties than CRC-32/ISO-HDLC
//! for short messages), computed with a table-driven slicing-by-8 loop
//! (eight bytes per step through eight lookup tables, then a byte-at-a-
//! time tail) — zero dependencies, deterministic across platforms.
//!
//! ```
//! use trustex_netsim::crc::{crc32c, Crc32};
//!
//! assert_eq!(crc32c(b"123456789"), 0xE306_9283);
//! let mut incremental = Crc32::new();
//! incremental.update(b"1234");
//! incremental.update(b"56789");
//! assert_eq!(incremental.finish(), crc32c(b"123456789"));
//! ```

/// Reflected CRC-32C polynomial (0x1EDC6F41 bit-reversed).
const POLY: u32 = 0x82F6_3B78;

/// The slicing-by-8 lookup tables, built at compile time. `TABLES[0]`
/// is the byte-at-a-time table; `TABLES[k][i]` is the CRC of byte `i`
/// followed by `k` zero bytes, so one step folds eight bytes at once.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1usize;
    while k < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Incremental CRC-32C state, for checksumming data produced in chunks.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Feeds a chunk of bytes into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
            let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        self.state = words.remainder().iter().fold(crc, |crc, &b| {
            (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize]
        });
    }

    /// The checksum of everything fed so far. Does not consume the
    /// state: more updates may follow (they continue the same stream).
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32C of a byte slice.
pub fn crc32c(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogued CRC-32C check value ("123456789" → 0xE3069283)
    /// plus a couple of edge inputs.
    #[test]
    fn known_vectors() {
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"a"), 0xC1D0_4330);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 7, 500, 999, 1000] {
            let mut crc = Crc32::new();
            crc.update(&data[..split]);
            crc.update(&data[split..]);
            assert_eq!(crc.finish(), crc32c(&data), "split at {split}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data: Vec<u8> = (0..64u8).collect();
        let reference = crc32c(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32c(&corrupted), reference, "byte {byte} bit {bit}");
            }
        }
    }

    /// The table-free, bit-at-a-time definition the slicing tables must
    /// reproduce.
    fn bitwise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(!0u32, |crc, &b| {
            let mut crc = crc ^ b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            crc
        })
    }

    /// Slicing-by-8 equals the bitwise reference at every length that
    /// exercises the 8-byte body and the tail, one-shot and across
    /// random split points.
    #[test]
    fn slicing_matches_bitwise_reference() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let data: Vec<u8> = (0..64).map(|_| next() as u8).collect();
        for len in 0..=64 {
            let bytes = &data[..len];
            let want = bitwise(bytes);
            assert_eq!(crc32c(bytes), want, "length {len}");
            for _ in 0..8 {
                let a = next() as usize % (len + 1);
                let b = a + next() as usize % (len - a + 1);
                let mut crc = Crc32::new();
                crc.update(&bytes[..a]);
                crc.update(&bytes[a..b]);
                crc.update(&bytes[b..]);
                assert_eq!(crc.finish(), want, "length {len} split at {a}, {b}");
            }
        }
    }

    #[test]
    fn finish_is_idempotent() {
        let mut crc = Crc32::new();
        crc.update(b"hello");
        let first = crc.finish();
        assert_eq!(crc.finish(), first);
        crc.update(b" world");
        assert_eq!(crc.finish(), crc32c(b"hello world"));
    }
}
