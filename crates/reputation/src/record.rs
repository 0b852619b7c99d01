//! Feedback records and the binary key space of the P-Grid.
//!
//! The CIKM 2001 system stores only *complaints*. A complaint `c(p, q)`
//! is indexed twice — under the key of the filer `p` and under the key of
//! the subject `q` — so that both "complaints about q" and "complaints
//! filed by q" can be retrieved with one key lookup each.

use std::fmt;
use trustex_trust::model::PeerId;

/// A complaint: `by` reports that `about` misbehaved at `round`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Complaint {
    /// The filing peer.
    pub by: PeerId,
    /// The accused peer.
    pub about: PeerId,
    /// Simulation round of the underlying interaction.
    pub round: u64,
}

impl fmt::Display for Complaint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "complaint({} → {} @ {})",
            self.by, self.about, self.round
        )
    }
}

/// A point in the P-Grid's binary key space.
///
/// Keys are fixed-width bit strings (width set by the grid
/// configuration, at most 32 bits); peers are responsible for all keys
/// their binary *path* is a prefix of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Key(u32);

impl Key {
    /// Creates a key from raw bits (the low `width` bits are used).
    pub const fn from_bits(bits: u32) -> Key {
        Key(bits)
    }

    /// The raw bits.
    pub const fn bits(self) -> u32 {
        self.0
    }

    /// The `i`-th bit counted from the most significant position of a
    /// `width`-bit key (bit 0 = first routing decision).
    ///
    /// # Panics
    ///
    /// Panics if `i >= width` or `width > 32`.
    pub fn bit(self, i: u8, width: u8) -> bool {
        assert!(width <= 32 && i < width, "bit index out of range");
        (self.0 >> (width - 1 - i)) & 1 == 1
    }
}

/// Hashes a peer id into the `width`-bit key space (SplitMix64 finalizer,
/// deterministic across runs and platforms).
pub fn key_for_peer(peer: PeerId, width: u8) -> Key {
    assert!(width > 0 && width <= 32, "key width must be in 1..=32");
    let mut z = (peer.0 as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    Key((z as u32) & (u32::MAX >> (32 - width)))
}

/// A peer's binary path: the trie position it is responsible for.
///
/// The empty path is responsible for the whole key space.
///
/// Paths are totally ordered lexicographically (bit by bit, a prefix
/// before its extensions), i.e. trie depth-first order — the order the
/// P-Grid leaf directory keeps its entries in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BitPath {
    bits: u32, // left-aligned within `len` lowest-significance convention below
    len: u8,
}

impl Ord for BitPath {
    fn cmp(&self, other: &BitPath) -> std::cmp::Ordering {
        self.packed().cmp(&other.packed())
    }
}

impl PartialOrd for BitPath {
    fn partial_cmp(&self, other: &BitPath) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl BitPath {
    /// The empty path (responsible for everything).
    pub const EMPTY: BitPath = BitPath { bits: 0, len: 0 };

    /// Creates a path from the low `len` bits of `bits`
    /// (most significant of those = first trie level).
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    pub fn from_bits(bits: u32, len: u8) -> BitPath {
        assert!(len <= 32);
        let mask = if len == 0 { 0 } else { u32::MAX >> (32 - len) };
        BitPath {
            bits: bits & mask,
            len,
        }
    }

    /// The path formed by the first `len` bits of a `width`-bit key —
    /// the trie node covering the key at depth `len`. This is the lookup
    /// key the P-Grid leaf directory is probed with, one per depth.
    ///
    /// # Panics
    ///
    /// Panics if `len > width` or `width > 32`.
    pub fn key_prefix(key: Key, len: u8, width: u8) -> BitPath {
        assert!(len <= width && width <= 32, "prefix longer than key");
        if len == 0 {
            return BitPath::EMPTY;
        }
        BitPath {
            bits: key.bits() >> (width - len),
            len,
        }
    }

    /// Path length (trie depth).
    pub const fn len(self) -> u8 {
        self.len
    }

    /// Whether the path is empty.
    pub const fn is_empty(self) -> bool {
        self.len == 0
    }

    /// The `i`-th bit of the path (0 = first trie level).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn bit(self, i: u8) -> bool {
        assert!(i < self.len, "path bit out of range");
        (self.bits >> (self.len - 1 - i)) & 1 == 1
    }

    /// Returns the path extended by one bit.
    ///
    /// # Panics
    ///
    /// Panics at depth 32.
    pub fn child(self, bit: bool) -> BitPath {
        assert!(self.len < 32, "path depth limit");
        BitPath {
            bits: (self.bits << 1) | bit as u32,
            len: self.len + 1,
        }
    }

    /// The first `len` bits of the path — its ancestor at that depth.
    ///
    /// # Panics
    ///
    /// Panics if `len > self.len()`.
    pub fn prefix(self, len: u8) -> BitPath {
        assert!(len <= self.len, "prefix longer than path");
        BitPath {
            bits: if len == 0 {
                0
            } else {
                self.bits >> (self.len - len)
            },
            len,
        }
    }

    /// Whether this path is a prefix of the `width`-bit `key`
    /// (equivalently: whether this peer is responsible for the key).
    ///
    /// # Panics
    ///
    /// Panics if the path is longer than the key width.
    pub fn is_prefix_of_key(self, key: Key, width: u8) -> bool {
        assert!(self.len <= width, "path longer than key");
        if self.len == 0 {
            return true;
        }
        let key_prefix = key.bits() >> (width - self.len);
        key_prefix == self.bits
    }

    /// Length of the common prefix with a `width`-bit key.
    pub fn common_prefix_with_key(self, key: Key, width: u8) -> u8 {
        if self.len == 0 || width == 0 {
            return 0;
        }
        // Align both bit strings at the top of a u64 and count matching
        // leading bits in one XOR — constant-time, the routing hot path.
        let a = (self.bits as u64) << (64 - self.len as u32);
        let b = (key.bits() as u64) << (64 - width as u32);
        let matched = (a ^ b).leading_zeros().min(32) as u8;
        matched.min(self.len).min(width)
    }

    /// The whole path bit-packed into one `u64` that sorts in trie
    /// depth-first (lexicographic) order: the bits left-aligned in the
    /// high 32 bits, the length in the low byte. Two packed values
    /// compare equal iff the paths are equal, and `a.packed() <
    /// b.packed()` iff `a` precedes `b` in DFS order (a prefix sorts
    /// before its extensions, sibling 0-subtrees before 1-subtrees).
    pub const fn packed(self) -> u64 {
        // `bits << (32 - len)` left-aligns the path inside 32 bits; the
        // shift is ≤ 32 and performed in u64, so it is always valid.
        (((self.bits as u64) << (32 - self.len as u32)) << 8) | self.len as u64
    }

    /// Inverse of [`BitPath::packed`]: rebuilds a path from its packed
    /// `u64`, or `None` if the value is not a canonical packing (length
    /// over 32, stray bits in the middle byte gap, or bits set below the
    /// left-aligned region).
    pub fn from_packed(packed: u64) -> Option<BitPath> {
        let len = (packed & 0xFF) as u8;
        if len > 32 {
            return None;
        }
        let rest = packed >> 8;
        if rest > u32::MAX as u64 {
            return None;
        }
        let aligned = rest as u32;
        if len < 32 && aligned.trailing_zeros() < (32 - len as u32) && aligned != 0 {
            return None;
        }
        let bits = if len == 0 {
            if aligned != 0 {
                return None;
            }
            0
        } else {
            aligned >> (32 - len as u32)
        };
        Some(BitPath { bits, len })
    }

    /// The path's index in a heap-layout (level-order) arena over the
    /// complete binary trie: `(1 << len) | bits`. The root (empty path)
    /// is slot 1; a trie of depth `d` fits in `1 << (d + 1)` slots; a
    /// node's children are `slot << 1` and `slot << 1 | 1`. This is the
    /// O(1) lookup key of the P-Grid's flat leaf-directory arena.
    pub const fn slot(self) -> usize {
        (1usize << self.len) | self.bits as usize
    }

    /// Length of the common prefix with another path.
    pub fn common_prefix(self, other: BitPath) -> u8 {
        if self.len == 0 || other.len == 0 {
            return 0;
        }
        let a = (self.bits as u64) << (64 - self.len as u32);
        let b = (other.bits as u64) << (64 - other.len as u32);
        let matched = (a ^ b).leading_zeros().min(32) as u8;
        matched.min(self.len).min(other.len)
    }
}

impl fmt::Display for BitPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len == 0 {
            return f.write_str("ε");
        }
        for i in 0..self.len {
            f.write_str(if self.bit(i) { "1" } else { "0" })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_bit_indexing() {
        // 4-bit key 0b1010: bits from the left are 1,0,1,0.
        let k = Key::from_bits(0b1010);
        assert!(k.bit(0, 4));
        assert!(!k.bit(1, 4));
        assert!(k.bit(2, 4));
        assert!(!k.bit(3, 4));
        assert_eq!(k.bits(), 0b1010);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn key_bit_out_of_range() {
        Key::from_bits(0).bit(4, 4);
    }

    #[test]
    fn key_for_peer_deterministic_and_spread() {
        let a = key_for_peer(PeerId(1), 16);
        let b = key_for_peer(PeerId(1), 16);
        assert_eq!(a, b);
        // Different peers land on different keys almost surely.
        let distinct: std::collections::HashSet<u32> = (0..100)
            .map(|i| key_for_peer(PeerId(i), 16).bits())
            .collect();
        assert!(distinct.len() > 95, "poor key spread: {}", distinct.len());
        // Width masking.
        assert!(key_for_peer(PeerId(7), 4).bits() < 16);
    }

    #[test]
    fn path_child_and_bits() {
        let p = BitPath::EMPTY.child(true).child(false).child(true);
        assert_eq!(p.len(), 3);
        assert!(p.bit(0));
        assert!(!p.bit(1));
        assert!(p.bit(2));
        assert_eq!(format!("{p}"), "101");
        assert_eq!(format!("{}", BitPath::EMPTY), "ε");
    }

    #[test]
    fn path_prefix_of_key() {
        let p = BitPath::from_bits(0b10, 2);
        let k_match = Key::from_bits(0b1011);
        let k_miss = Key::from_bits(0b1111);
        assert!(p.is_prefix_of_key(k_match, 4));
        assert!(!p.is_prefix_of_key(k_miss, 4));
        assert!(BitPath::EMPTY.is_prefix_of_key(k_miss, 4));
    }

    #[test]
    fn common_prefixes() {
        let p = BitPath::from_bits(0b101, 3);
        let q = BitPath::from_bits(0b100, 3);
        assert_eq!(p.common_prefix(q), 2);
        assert_eq!(p.common_prefix(p), 3);
        assert_eq!(p.common_prefix(BitPath::EMPTY), 0);
        let k = Key::from_bits(0b1000);
        assert_eq!(p.common_prefix_with_key(k, 4), 2);
        assert_eq!(q.common_prefix_with_key(k, 4), 3);
    }

    #[test]
    fn key_prefix_matches_manual_bits() {
        let key = Key::from_bits(0b1011_0010_1100_0110);
        for len in 0..=16u8 {
            let p = BitPath::key_prefix(key, len, 16);
            assert_eq!(p.len(), len);
            for i in 0..len {
                assert_eq!(p.bit(i), key.bit(i, 16), "len {len} bit {i}");
            }
            assert!(p.is_prefix_of_key(key, 16));
        }
        assert_eq!(BitPath::key_prefix(key, 0, 16), BitPath::EMPTY);
    }

    #[test]
    fn ordering_is_lexicographic_dfs() {
        let e = BitPath::EMPTY;
        let p0 = BitPath::from_bits(0b0, 1);
        let p00 = BitPath::from_bits(0b00, 2);
        let p01 = BitPath::from_bits(0b01, 2);
        let p1 = BitPath::from_bits(0b1, 1);
        let p10 = BitPath::from_bits(0b10, 2);
        // Depth-first order: a prefix sorts before its extensions, and
        // sibling subtrees sort 0-side first.
        let mut v = vec![p10, p01, p1, e, p00, p0];
        v.sort();
        assert_eq!(v, vec![e, p0, p00, p01, p1, p10]);
    }

    #[test]
    fn prefix_truncates() {
        let p = BitPath::from_bits(0b10110, 5);
        assert_eq!(p.prefix(0), BitPath::EMPTY);
        assert_eq!(p.prefix(3), BitPath::from_bits(0b101, 3));
        assert_eq!(p.prefix(5), p);
        for len in 0..=5u8 {
            assert_eq!(p.common_prefix(p.prefix(len)), len);
        }
    }

    #[test]
    #[should_panic(expected = "prefix longer than path")]
    fn prefix_past_len_panics() {
        BitPath::from_bits(0b1, 1).prefix(2);
    }

    #[test]
    fn packed_orders_like_cmp_and_slot_is_injective() {
        // Every path of depth ≤ 6: packed() must induce exactly the
        // DFS order of `Ord`, and slot() must be a bijection into
        // [1, 2^(d+1)) with the heap child structure.
        let mut all = vec![BitPath::EMPTY];
        for len in 1u8..=6 {
            for bits in 0..(1u32 << len) {
                all.push(BitPath::from_bits(bits, len));
            }
        }
        let mut slots = std::collections::HashSet::new();
        for &p in &all {
            assert!(p.slot() >= 1 && p.slot() < 1 << 7);
            assert!(slots.insert(p.slot()), "slot collision for {p}");
            if p.len() < 6 {
                assert_eq!(p.child(false).slot(), p.slot() << 1);
                assert_eq!(p.child(true).slot(), (p.slot() << 1) | 1);
            }
            for &q in &all {
                assert_eq!(p.cmp(&q), p.packed().cmp(&q.packed()), "{p} vs {q}");
            }
        }
    }

    #[test]
    fn from_packed_round_trips_and_rejects_junk() {
        let mut all = vec![BitPath::EMPTY];
        for len in 1u8..=8 {
            for bits in 0..(1u32 << len) {
                all.push(BitPath::from_bits(bits, len));
            }
        }
        for &p in &all {
            assert_eq!(BitPath::from_packed(p.packed()), Some(p), "{p}");
        }
        // Non-canonical packings must be rejected.
        assert_eq!(BitPath::from_packed(33), None); // len > 32
        assert_eq!(BitPath::from_packed(u64::MAX), None);
        // Bits set below the left-aligned region for the given length.
        let p = BitPath::from_bits(0b1, 1);
        assert_eq!(BitPath::from_packed(p.packed() | (1 << 8)), None);
        // Non-zero bits with zero length.
        assert_eq!(BitPath::from_packed(1 << 40), None);
    }

    #[test]
    fn from_bits_masks_extra() {
        let p = BitPath::from_bits(0b111111, 2);
        assert_eq!(p.len(), 2);
        assert_eq!(format!("{p}"), "11");
    }

    #[test]
    fn complaint_display() {
        let c = Complaint {
            by: PeerId(1),
            about: PeerId(2),
            round: 7,
        };
        assert_eq!(format!("{c}"), "complaint(peer#1 → peer#2 @ 7)");
    }
}
