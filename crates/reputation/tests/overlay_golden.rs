//! Cross-commit pins on the overlay's result bits.
//!
//! A 256-peer grid runs one fixed sequence of `route`, `insert_at` and
//! `query_at` calls at staggered virtual start times, in four arms: a
//! transparent plane and a lossy plane whose bisect heals mid-sequence,
//! each without retry and with [`RetryPolicy::standard`]. Every arm pins
//!
//! * a CRC-32C fold of every outcome (landing peer, hops, latency in µs,
//!   replicas reached, answering members and their item counts),
//! * the per-kind `sent` / `dropped` message counters, and
//! * the CRC-32C of the grid's snapshot bytes after the sequence,
//!
//! so a refactor of routing, replica fan-out, retry or the network's
//! loss and latency model that moves a single bit fails here. The
//! constants must never change by accident; a change that moves them on
//! purpose updates them in the same commit and says so in CHANGES.md.
//! On a mismatch the failure message prints the observed values in the
//! same layout as [`GOLDEN`].

use trustex_netsim::backoff::RetryPolicy;
use trustex_netsim::crc::{crc32c, Crc32};
use trustex_netsim::fault::{FaultConfig, FaultPlane, PartitionSpec};
use trustex_netsim::net::{NetConfig, Network};
use trustex_netsim::rng::SimRng;
use trustex_netsim::time::SimTime;
use trustex_persist::snapshot::to_bytes;
use trustex_reputation::pgrid::{PGrid, PGridConfig};
use trustex_reputation::record::{key_for_peer, Complaint};
use trustex_trust::model::PeerId;

const PEERS: usize = 256;
const STEPS: u64 = 240;
/// Virtual time between consecutive operations' start times.
const STAGGER_MS: u64 = 4;
/// The lossy arm's bisect heals halfway through the sequence.
const HEAL_MS: u64 = STEPS * STAGGER_MS / 2;
const KINDS: [&str; 3] = ["route", "replicate", "replica_query"];

/// One pinned arm's expected result bits.
struct Golden {
    name: &'static str,
    outcomes: u32,
    sent: [u64; 3],
    dropped: [u64; 3],
    grid_crc: u32,
}

fn plane(name: &str) -> FaultPlane {
    if name.starts_with("transparent") {
        FaultPlane::transparent(0x0E61)
    } else {
        FaultPlane::new(
            0x0E62,
            FaultConfig {
                loss: 0.2,
                partition: PartitionSpec::Bisect {
                    heal_at: SimTime::from_millis(HEAL_MS),
                },
                ..FaultConfig::default()
            },
        )
    }
}

/// Runs one arm and returns `(outcome fold, sent, dropped, grid CRC)`.
fn run(name: &str) -> (u32, [u64; 3], [u64; 3], u32) {
    let mut rng = SimRng::new(0x0E60_0256);
    let mut grid = PGrid::build(PEERS, PGridConfig::for_population(PEERS, 4), &mut rng);
    let mut net = Network::with_fault_plane(NetConfig::default(), plane(name));
    let standard = RetryPolicy::standard();
    let retry = name.ends_with("retry").then_some(&standard);
    let w = grid.config().key_bits;
    let mut fold = Crc32::new();
    for step in 0..STEPS {
        let origin = rng.index(grid.len());
        let subject = PeerId((step * 37 % 509) as u32);
        let key = key_for_peer(subject, w);
        let start = SimTime::from_millis(step * STAGGER_MS);
        let mut out = vec![step as u8];
        match step % 3 {
            0 => match grid.route(origin, key, None, &mut net, &mut rng) {
                Some((peer, hops, latency)) => {
                    out.extend_from_slice(&(peer as u64).to_le_bytes());
                    out.extend_from_slice(&hops.to_le_bytes());
                    out.extend_from_slice(&latency.as_micros().to_le_bytes());
                }
                None => out.push(0xFF),
            },
            1 => {
                let item = Complaint {
                    by: PeerId(step as u32),
                    about: subject,
                    round: step,
                };
                let receipt =
                    grid.insert_at(origin, key, item, None, &mut net, &mut rng, start, retry);
                out.extend_from_slice(&receipt.hops.to_le_bytes());
                out.extend_from_slice(&(receipt.replicas_reached as u64).to_le_bytes());
                out.extend_from_slice(&receipt.latency.as_micros().to_le_bytes());
            }
            _ => {
                let result = grid.query_at(origin, key, None, &mut net, &mut rng, start, retry);
                out.extend_from_slice(&result.hops.to_le_bytes());
                out.extend_from_slice(&result.latency.as_micros().to_le_bytes());
                for (member, items) in &result.answers {
                    out.extend_from_slice(&(*member as u64).to_le_bytes());
                    out.extend_from_slice(&(items.len() as u64).to_le_bytes());
                }
            }
        }
        fold.update(&out);
    }
    (
        fold.finish(),
        KINDS.map(|k| net.sent(k)),
        KINDS.map(|k| net.dropped(k)),
        crc32c(&to_bytes(&grid)),
    )
}

const GOLDEN: [Golden; 4] = [
    Golden {
        name: "transparent",
        outcomes: 0x6843a052,
        sent: [662, 240, 240],
        dropped: [0, 0, 0],
        grid_crc: 0x763dd66a,
    },
    Golden {
        name: "transparent+retry",
        outcomes: 0x6843a052,
        sent: [662, 240, 240],
        dropped: [0, 0, 0],
        grid_crc: 0x763dd66a,
    },
    Golden {
        name: "lossy-bisect",
        outcomes: 0xae000bb9,
        sent: [438, 75, 99],
        dropped: [173, 17, 27],
        grid_crc: 0x43e69935,
    },
    Golden {
        name: "lossy-bisect+retry",
        outcomes: 0xfe6d5520,
        sent: [948, 500, 522],
        dropped: [453, 303, 318],
        grid_crc: 0xc187ffe8,
    },
];

#[test]
fn overlay_bits_match_golden() {
    let mut observed = String::new();
    let mut mismatch = false;
    for g in &GOLDEN {
        let got = run(g.name);
        mismatch |= got != (g.outcomes, g.sent, g.dropped, g.grid_crc);
        observed += &format!(
            "    Golden {{\n        name: {:?},\n        outcomes: {:#010x},\n        \
             sent: {:?},\n        dropped: {:?},\n        grid_crc: {:#010x},\n    }},\n",
            g.name, got.0, got.1, got.2, got.3
        );
    }
    assert!(!mismatch, "overlay bits moved; observed:\n{observed}");
}

/// The lossy arms really exercise the fault plane: every message kind
/// loses some sends, and retry re-sends enough to lift the total.
#[test]
fn lossy_golden_arms_drop_and_retry() {
    let (_, sent, dropped, _) = run("lossy-bisect");
    let (_, sent_retry, dropped_retry, _) = run("lossy-bisect+retry");
    assert!(dropped.iter().all(|&d| d > 0), "dropped {dropped:?}");
    assert!(
        dropped_retry.iter().all(|&d| d > 0),
        "dropped {dropped_retry:?}"
    );
    assert!(
        sent_retry.iter().sum::<u64>() > sent.iter().sum::<u64>(),
        "retry sent {sent_retry:?} vs {sent:?}"
    );
}
