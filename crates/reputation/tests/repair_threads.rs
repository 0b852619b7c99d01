//! Thread invariance of `PGrid::repair`.
//!
//! Clones of one churned 2¹⁴-peer grid — joins, leaves, a compaction and
//! fresh tombstones after it, repaired against a partial `alive` mask —
//! are repaired at worker-pool defaults of 1, 2 and 8 threads with the
//! same RNG seed. Their snapshot bytes must be identical: the pool may
//! change how long a repair takes, never what it leaves behind.

use std::sync::Mutex;
use trustex_netsim::pool::set_default_threads;
use trustex_netsim::rng::SimRng;
use trustex_persist::snapshot::to_bytes;
use trustex_reputation::pgrid::{PGrid, PGridConfig};

/// The worker-pool default is process-global: tests that vary it must
/// serialise on this lock or they race each other's thread counts.
static THREAD_DEFAULT: Mutex<()> = Mutex::new(());

const PEERS: usize = 1 << 14;

/// A grid with every kind of reference a repair sweep meets: live,
/// departed (tombstones), reported down by the mask, and stale slots
/// past each bucket's length left behind by a compaction.
fn churned() -> (PGrid, Vec<bool>) {
    let mut rng = SimRng::new(0x7E9A_1214);
    let mut grid = PGrid::build(PEERS, PGridConfig::for_population(PEERS, 4), &mut rng);
    let mut live: Vec<usize> = (0..PEERS).collect();
    for _ in 0..512 {
        live.push(grid.join(&mut rng));
        grid.leave(live.swap_remove(rng.index(live.len())));
    }
    grid.compact();
    for _ in 0..256 {
        let peer = rng.index(grid.len());
        if grid.is_live(peer) {
            grid.leave(peer);
        }
    }
    let alive = (0..grid.len()).map(|_| !rng.chance(0.1)).collect();
    (grid, alive)
}

#[test]
fn repair_snapshot_identical_across_thread_counts() {
    let _guard = THREAD_DEFAULT.lock().unwrap_or_else(|e| e.into_inner());
    let (grid, alive) = churned();
    let repaired = |threads: usize| {
        set_default_threads(threads);
        let mut g = grid.clone();
        g.repair(&alive, 2000, &mut SimRng::new(0x7E9A_0001));
        g.check_invariants();
        to_bytes(&g)
    };
    let reference = repaired(1);
    assert_ne!(reference, to_bytes(&grid), "the repair changed nothing");
    for threads in [2, 8] {
        assert!(
            repaired(threads) == reference,
            "repair diverged at threads={threads}"
        );
    }
    set_default_threads(0);
}
