//! Differential suite for P-Grid snapshot/restore.
//!
//! The contract: a restored grid is *indistinguishable* from the live
//! one — same directory answers, same routes under identical RNG
//! streams, same stores, same bytes on re-encode — after any history of
//! joins, leaves, repairs and compactions. And decoding is total: byte
//! flips and truncations fail typed, while a tampered-but-checksummed
//! payload either fails typed or yields a grid that still passes every
//! structural invariant (never a silently-wrong arena).

use proptest::prelude::*;
use trustex_netsim::net::{NetConfig, Network};
use trustex_netsim::rng::SimRng;
use trustex_persist::codec::ByteWriter;
use trustex_persist::snapshot::{from_bytes, to_bytes, Persistable, SnapshotWriter};
use trustex_persist::PersistError;
use trustex_reputation::pgrid::{PGrid, PGridConfig};
use trustex_reputation::record::{key_for_peer, Complaint};
use trustex_trust::model::PeerId;

/// Builds a grid and drives it through a random membership / data
/// history so snapshots cover tombstones, renumbering and stores.
fn grid_with_history(
    n: usize,
    depth: u8,
    seed: u64,
    churn: &[bool],
    compact_at: Option<usize>,
) -> (PGrid, SimRng) {
    let mut rng = SimRng::new(seed);
    let cfg = PGridConfig {
        max_depth: depth,
        ..PGridConfig::default()
    };
    let mut grid = PGrid::build(n, cfg, &mut rng);
    let mut net = Network::new(NetConfig::default());
    for (step, &join) in churn.iter().enumerate() {
        if join || grid.live_len() <= 2 {
            grid.join(&mut rng);
        } else {
            let live: Vec<usize> = (0..grid.len()).filter(|&i| grid.is_live(i)).collect();
            grid.leave(live[rng.index(live.len())]);
        }
        if step % 3 == 0 {
            let subject = PeerId(step as u32 * 17 + 1);
            let key = key_for_peer(subject, grid.config().key_bits);
            let item = Complaint {
                by: PeerId(step as u32),
                about: subject,
                round: step as u64,
            };
            let origin = (0..grid.len()).find(|&i| grid.is_live(i)).expect("live");
            grid.insert(origin, key, item, None, &mut net, &mut rng);
        }
        if compact_at == Some(step) {
            grid.compact();
        }
    }
    (grid, rng)
}

/// Restored grid must be observationally identical to the live one.
fn check_grid_round_trip(grid: &PGrid, rng: &SimRng) {
    let blob = to_bytes(grid);
    let restored: PGrid = from_bytes(&blob).expect("own snapshot must restore");
    restored.check_invariants();
    assert_eq!(to_bytes(&restored), blob, "re-encode must be canonical");

    assert_eq!(restored.len(), grid.len());
    assert_eq!(restored.live_len(), grid.live_len());
    assert_eq!(restored.leaf_count(), grid.leaf_count());
    assert_eq!(restored.meetings_held(), grid.meetings_held());
    for peer in 0..grid.len() {
        assert_eq!(restored.is_live(peer), grid.is_live(peer));
        assert_eq!(restored.path(peer), grid.path(peer));
        assert!(restored.stored(peer).eq(grid.stored(peer)), "store {peer}");
    }

    // Identical directory answers and identical routes under identical
    // RNG streams, for a spread of keys.
    let mut net_a = Network::new(NetConfig::default());
    let mut net_b = Network::new(NetConfig::default());
    let mut rng_a = rng.clone();
    let mut rng_b = rng.clone();
    let origin = (0..grid.len()).find(|&i| grid.is_live(i)).expect("live");
    for k in 0..64u32 {
        let key = key_for_peer(PeerId(k * 131 + 7), grid.config().key_bits);
        assert_eq!(
            restored.responsible_peers(key),
            grid.responsible_peers(key),
            "directory diverged for key {key:?}"
        );
        let live = grid.route(origin, key, None, &mut net_a, &mut rng_a);
        let back = restored.route(origin, key, None, &mut net_b, &mut rng_b);
        assert_eq!(
            live.map(|(p, h, _)| (p, h)),
            back.map(|(p, h, _)| (p, h)),
            "route diverged for key {key:?}"
        );
    }
    assert_eq!(rng_a, rng_b, "routing consumed different randomness");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn restored_grid_is_indistinguishable(
        n in 4usize..90,
        depth in 1u8..6,
        seed in 0u64..100_000,
        churn in prop::collection::vec(any::<bool>(), 0..30),
    ) {
        let (grid, rng) = grid_with_history(n, depth, seed, &churn, None);
        check_grid_round_trip(&grid, &rng);
    }

    #[test]
    fn restored_grid_survives_compaction_history(
        n in 4usize..60,
        depth in 1u8..5,
        seed in 0u64..100_000,
        churn in prop::collection::vec(any::<bool>(), 4..24,),
        at in 0usize..20,
    ) {
        let (grid, rng) = grid_with_history(n, depth, seed, &churn, Some(at % churn.len()));
        check_grid_round_trip(&grid, &rng);
    }

    /// A restored grid is a full citizen: it keeps working (joins,
    /// leaves, repair) exactly like the live grid under the same RNG.
    #[test]
    fn restored_grid_evolves_identically(
        n in 4usize..60,
        depth in 1u8..5,
        seed in 0u64..100_000,
        churn in prop::collection::vec(any::<bool>(), 0..16),
    ) {
        let (mut live, rng) = grid_with_history(n, depth, seed, &churn, None);
        let mut restored: PGrid = from_bytes(&to_bytes(&live)).expect("restore");
        let mut rng_a = rng.clone();
        let mut rng_b = rng;
        for _ in 0..4 {
            prop_assert_eq!(live.join(&mut rng_a), restored.join(&mut rng_b));
        }
        let victim = (0..live.len()).find(|&i| live.is_live(i)).expect("live");
        live.leave(victim);
        restored.leave(victim);
        let alive: Vec<bool> = (0..live.len()).map(|i| live.is_live(i)).collect();
        live.repair(&alive, live.len(), &mut rng_a);
        restored.repair(&alive, restored.len(), &mut rng_b);
        live.check_invariants();
        restored.check_invariants();
        prop_assert_eq!(to_bytes(&live), to_bytes(&restored));
    }
}

#[test]
fn grid_corruption_matrix() {
    let churn = [true, false, true, true, false, false, true, false];
    let (grid, _) = grid_with_history(24, 4, 11, &churn, Some(5));
    let blob = to_bytes(&grid);
    for cut in 0..blob.len() {
        assert!(
            from_bytes::<PGrid>(&blob[..cut]).is_err(),
            "truncation at {cut} must fail"
        );
    }
    for i in 0..blob.len() {
        let mut corrupt = blob.clone();
        corrupt[i] ^= 0x20;
        assert!(
            from_bytes::<PGrid>(&corrupt).is_err(),
            "flip of byte {i} must fail"
        );
    }
}

/// Tampering *inside* the payload and re-sealing the checksum gets past
/// the CRC by construction — decode must still be total: every such
/// blob either fails typed or restores to a grid that keeps working
/// (a join, a leave and a route, without a panic, leaving a valid
/// arena). This is the crafted-inconsistency class the restore-time
/// `PGrid::validate` exists for.
#[test]
fn resealed_payload_tampering_never_yields_a_broken_grid() {
    let churn = [true, true, false, true];
    let (grid, _) = grid_with_history(16, 3, 7, &churn, None);
    let mut payload = ByteWriter::new();
    grid.encode_state(&mut payload);
    let payload = payload.into_bytes();
    let mut rejected = 0usize;
    for i in 0..payload.len() {
        let mut tampered = payload.clone();
        tampered[i] ^= 0x01;
        let mut w = SnapshotWriter::new(*b"TXPS");
        w.raw_section(<PGrid as Persistable>::TAG, tampered);
        match from_bytes::<PGrid>(&w.into_bytes()) {
            Ok(mut restored) => {
                let mut rng = SimRng::new(i as u64);
                let newcomer = restored.join(&mut rng);
                let veteran = (0..newcomer)
                    .find(|&p| restored.is_live(p))
                    .unwrap_or(newcomer);
                restored.leave(veteran);
                let key = key_for_peer(PeerId(i as u32), restored.config().key_bits);
                let mut net = Network::new(NetConfig::default());
                if let Some(origin) = (0..restored.len()).find(|&p| restored.is_live(p)) {
                    restored.route(origin, key, None, &mut net, &mut rng);
                }
                restored.check_invariants();
            }
            Err(
                PersistError::Invalid { .. }
                | PersistError::Malformed { .. }
                | PersistError::Truncated { .. }
                | PersistError::TrailingBytes { .. },
            ) => rejected += 1,
            Err(other) => panic!("unexpected error class at byte {i}: {other:?}"),
        }
    }
    // The re-validation must actually be doing work: a large share of
    // single-bit payload tampers (paths, directory members, reference
    // targets, length prefixes) describe an inconsistent arena. Tampers
    // of unvalidated scalars (stamps, rounds, the clock) legitimately
    // restore.
    assert!(
        rejected > payload.len() / 4,
        "only {rejected}/{} tampers rejected — is PGrid::validate wired?",
        payload.len()
    );
}
