//! Restoring a P-Grid snapshot allocates in proportion to its input.
//!
//! `from_bytes::<PGrid>` on L bytes may hold at most `64·L + 4 MiB` of
//! live heap at its peak, whether it restores a grid or fails typed.
//! The constant term covers the leaf directory and subtree arenas of
//! the deepest grid the configuration rules admit (depth 16:
//! `2^17` slots); the linear term covers the per-peer arenas, whose
//! sizes the decoder bounds by the bytes still to be read.
//!
//! Three inputs:
//!
//! 1. A crafted, CRC-valid payload declaring 256 references per bucket,
//!    depth 20 and 2000 peers with empty buckets (58 034 payload bytes),
//!    and the same at depth 16. A decoder that sizes its reference
//!    arena from the declared capacity asks for 2000 · 20 · 256 · 8
//!    bytes (82 MB) before it reaches the end of the input.
//! 2. The snapshot of a one-peer grid at depth 20, and the same grid at
//!    depth 16. A directory arena of `2^(depth+1)` slots turns about
//!    125 input bytes into 59 MB at depth 20; depth 16 is the deepest
//!    a configuration may ask for, and it fits the constant term.
//! 3. A real grid of 4096 peers at replication 4 (depth 10).
//!
//! This binary counts live heap with the shared counting allocator
//! (`tests/support/counting_alloc.rs`) and holds a single test, so no
//! other test's allocations fall into a measured window.

use trustex_netsim::rng::SimRng;
use trustex_persist::codec::ByteWriter;
use trustex_persist::snapshot::{from_bytes, to_bytes, Persistable, SnapshotWriter};
use trustex_persist::PersistError;
use trustex_reputation::pgrid::{PGrid, PGridConfig};

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

/// Live heap allowed per input byte.
const PER_BYTE: usize = 64;

/// Live heap allowed regardless of the input size.
const FIXED: usize = 4 << 20;

/// Decodes `blob`, checks the peak live heap above the starting level
/// against the bound, and returns the decode result.
fn decode_within_bound(case: &str, blob: &[u8]) -> Result<PGrid, PersistError> {
    let base = counting_alloc::reset_peak();
    let result = from_bytes::<PGrid>(blob);
    let peak = counting_alloc::peak() - base;
    let bound = PER_BYTE * blob.len() + FIXED;
    assert!(
        peak <= bound,
        "{case}: decoding {} bytes peaked at {peak} live heap bytes, over the bound of {bound}",
        blob.len()
    );
    result
}

/// Seals a PGRD payload in the value container `to_bytes` writes.
fn seal(payload: Vec<u8>) -> Vec<u8> {
    let mut w = SnapshotWriter::new(*b"TXPS");
    w.raw_section(<PGrid as Persistable>::TAG, payload);
    w.into_bytes()
}

/// The PGRD configuration slots, the clock and `n` root-path peers.
fn header(w: &mut ByteWriter, key_bits: u8, max_depth: u8, max_refs: u64, n: usize) {
    w.put_u8(key_bits);
    w.put_u8(max_depth);
    w.put_u64(max_refs);
    w.put_u64(48); // meetings_per_peer
    w.put_u64(0); // clock
    w.put_len(n);
    for _ in 0..n {
        w.put_u64(0); // the root path, packed
        w.put_bool(false); // not departed
    }
}

/// The snapshot a one-peer grid of the given key width and depth
/// encodes to: the peer sits at the root with no references and an
/// empty store.
fn single_peer_snapshot(key_bits: u8, max_depth: u8) -> Vec<u8> {
    let mut w = ByteWriter::new();
    header(&mut w, key_bits, max_depth, 4, 1);
    for _ in 0..max_depth {
        w.put_u8(0); // empty reference bucket
    }
    w.put_len(0); // empty store
    w.put_len(1); // one occupied directory bucket:
    w.put_u64(1); // the root slot,
    w.put_len(1); // holding one member,
    w.put_u32(0); // peer 0
    seal(w.into_bytes())
}

#[test]
fn pgrid_decode_allocation_is_bounded_by_its_input() {
    // 1. Declared bucket capacity 256 over 2000 peers, every bucket
    //    empty; the payload ends before the stores. At depth 16 only
    //    the capacity slot stands between the payload and the arena.
    for depth in [20u8, 16] {
        let mut w = ByteWriter::new();
        header(&mut w, 32, depth, 256, 2000);
        for _ in 0..2000 * usize::from(depth) {
            w.put_u8(0);
        }
        let case = format!("capacity 256 at depth {depth}");
        match decode_within_bound(&case, &seal(w.into_bytes())) {
            Err(PersistError::Invalid { .. }) => {}
            other => panic!("{case}: expected a refused slot, got {other:?}"),
        }
    }

    // 2. One peer at depth 20, then at depth 16. The crafted bytes are
    //    the grid's own encoding, checked at depth 16.
    let deep = single_peer_snapshot(32, 20);
    match decode_within_bound("one peer at depth 20", &deep) {
        Err(PersistError::Invalid { .. }) => {}
        other => panic!("one peer at depth 20: expected a refused depth, got {other:?}"),
    }
    let cfg = PGridConfig::for_population(1 << 16, 1);
    assert_eq!((cfg.key_bits, cfg.max_depth), (16, 16));
    let grid = PGrid::build(1, cfg, &mut SimRng::new(1));
    let blob = single_peer_snapshot(16, 16);
    assert_eq!(to_bytes(&grid), blob, "the crafted one-peer snapshot");
    let restored = decode_within_bound("one peer at depth 16", &blob).expect("restores");
    assert_eq!(restored.config(), cfg);

    // 3. A real grid.
    let n = 4096;
    let grid = PGrid::build(n, PGridConfig::for_population(n, 4), &mut SimRng::new(7));
    let blob = to_bytes(&grid);
    let restored = decode_within_bound("4096 peers", &blob).expect("restores");
    assert_eq!(to_bytes(&restored), blob);
}
