//! Durable evidence for the whole trust service: the composite
//! snapshot (`TXSN`) bundling the P-Grid overlay and the epoch-swapped
//! trust engine, plus the E13 warm-start / crash-recovery experiment.
//!
//! A peer that restarts without durable state re-enters the market as a
//! stranger — exactly the whitewashing loophole the reputation layer
//! exists to close. The composite snapshot captures everything a trust
//! service holds: the overlay arena (paths, references, complaint
//! stores, directory), the published trust tables and the pending
//! seq-tagged event window. Restoring it is a parse, not a rebuild —
//! E13 measures the difference.

use crate::experiments::storage::build_base;
use crate::experiments::Scale;
use crate::table::Table;
use std::time::Instant;
use trustex_netsim::rng::SimRng;
use trustex_persist::snapshot::{Persistable, SnapshotReader, SnapshotWriter};
use trustex_persist::PersistError;
use trustex_reputation::pgrid::PGrid;
use trustex_trust::beta::BetaTrust;
use trustex_trust::engine::{TrustEngine, TrustEvent};
use trustex_trust::evidence_log::{EvidenceLog, EvidenceRecord};
use trustex_trust::model::{Conduct, PeerId, TrustModel, WitnessReport};

/// Magic identifying a composite service snapshot.
pub const SERVICE_MAGIC: [u8; 4] = *b"TXSN";

/// Serializes a grid + engine pair as one `TXSN` container (one tagged,
/// CRC-protected section each).
pub fn snapshot_service<M>(grid: &PGrid, engine: &TrustEngine<M>) -> Vec<u8>
where
    M: TrustModel + Clone + Persistable,
{
    let mut w = SnapshotWriter::new(SERVICE_MAGIC);
    w.section(grid);
    w.section(engine);
    w.into_bytes()
}

/// Restores a grid + engine pair from a `TXSN` container. Typed errors
/// on any corruption; both sections re-validate their invariants.
pub fn restore_service<M>(bytes: &[u8]) -> Result<(PGrid, TrustEngine<M>), PersistError>
where
    M: TrustModel + Clone + Persistable,
{
    let reader = SnapshotReader::parse(bytes, SERVICE_MAGIC)?;
    let grid: PGrid = reader.decode()?;
    let engine: TrustEngine<M> = reader.decode()?;
    Ok((grid, engine))
}

/// Deterministic evidence stream for the warm-start engine: a mix of
/// direct experiences and witness reports over `n` peers.
fn event_stream(n: usize, events: usize, rng: &mut SimRng) -> Vec<TrustEvent> {
    (0..events)
        .map(|_| {
            let subject = PeerId(rng.index(n) as u32);
            let conduct = Conduct::from_honest(!rng.chance(0.3));
            let round = rng.index(1000) as u64;
            if rng.chance(0.4) {
                let w = rng.index_except(n.max(2), subject.index());
                TrustEvent::Witness(WitnessReport {
                    witness: PeerId(w as u32),
                    subject,
                    conduct,
                    round,
                })
            } else {
                TrustEvent::direct(subject, conduct, round)
            }
        })
        .collect()
}

/// Cold-starts the full service state: overlay bootstrap (the emergent
/// meeting protocol plus complaint seeding) and the trust engine fed
/// with the whole event stream in published windows, with a tail left
/// pending so snapshots cover the mid-window case.
fn cold_start(n: usize, events: &[TrustEvent]) -> (PGrid, TrustEngine<BetaTrust>) {
    let grid = build_base(n, 4, 0xE13);
    let engine = TrustEngine::new(BetaTrust::with_population(n));
    let window = (events.len() / 8).max(1);
    for (i, &event) in events.iter().enumerate() {
        engine.submit(i as u64, event);
        if (i + 1) % window == 0 {
            engine.publish();
        }
    }
    (grid, engine)
}

/// Milliseconds since `start`, as a float.
fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// One fault-injection arm: corrupt a snapshot and demand a typed
/// error. Returns `"detected"` only if restore refuses the blob.
fn inject(bytes: &[u8], fault: &str) -> &'static str {
    let corrupted: Vec<u8> = match fault {
        "truncated-tail" => bytes[..bytes.len() * 2 / 3].to_vec(),
        "bit-flip" => {
            let mut b = bytes.to_vec();
            let mid = b.len() / 2;
            b[mid] ^= 0x04;
            b
        }
        "wrong-version" => {
            let mut b = bytes.to_vec();
            b[4] = b[4].wrapping_add(1);
            b
        }
        "wrong-magic" => {
            let mut b = bytes.to_vec();
            b[0] ^= 0xFF;
            b
        }
        _ => unreachable!("unknown fault arm"),
    };
    match restore_service::<BetaTrust>(&corrupted) {
        Err(_) => "detected",
        Ok(_) => "MISSED",
    }
}

/// E13 — *Table R7*: durable evidence. Warm-starting a full service
/// (10⁵-peer overlay + trust engine at paper scale) from a snapshot
/// versus re-bootstrapping it, the snapshot/restore costs and sizes,
/// crash-recovery fault injection (every corruption class must surface
/// as a typed error), and the evidence-log replay with gossip-duplicate
/// dedup. The `wall_ms` / `speedup_x` columns are wall-clock and
/// machine-dependent by design (like E2 and E12); the `check` column is
/// the correctness verdict and must read `ok` / `detected` everywhere.
pub fn e13_persistence(scale: Scale) -> Table {
    let n = scale.pick(400, 100_000);
    let n_events = scale.pick(2_000, 200_000);
    let mut table = Table::new(
        "E13: durable evidence — warm start, crash recovery, log replay",
        &[
            "arm",
            "peers",
            "events",
            "bytes",
            "wall_ms",
            "speedup_x",
            "check",
        ],
    );
    let mut rng = SimRng::new(0xD13);
    let events = event_stream(n, n_events, &mut rng);

    let t0 = Instant::now();
    let (grid, engine) = cold_start(n, &events);
    let cold_ms = ms(t0);

    let t0 = Instant::now();
    let blob = snapshot_service(&grid, &engine);
    let snapshot_ms = ms(t0);

    let t0 = Instant::now();
    let restored = restore_service::<BetaTrust>(&blob);
    let restore_ms = ms(t0);
    let restore_check = match &restored {
        Ok((grid2, engine2)) => {
            grid2.check_invariants();
            if snapshot_service(grid2, engine2) == blob {
                "ok"
            } else {
                "MISMATCH"
            }
        }
        Err(_) => "MISSED",
    };

    let rows: [(&str, usize, f64, f64, &str); 3] = [
        ("cold-build", blob.len(), cold_ms, 1.0, "ok"),
        ("snapshot", blob.len(), snapshot_ms, 0.0, "ok"),
        (
            "restore",
            blob.len(),
            restore_ms,
            cold_ms / restore_ms.max(1e-9),
            restore_check,
        ),
    ];
    for (arm, bytes, wall, speedup, check) in rows {
        table.push_row(vec![
            arm.into(),
            n.into(),
            n_events.into(),
            bytes.into(),
            wall.into(),
            speedup.into(),
            check.into(),
        ]);
    }

    for fault in ["truncated-tail", "bit-flip", "wrong-version", "wrong-magic"] {
        let t0 = Instant::now();
        let check = inject(&blob, fault);
        table.push_row(vec![
            format!("fault:{fault}").into(),
            n.into(),
            n_events.into(),
            blob.len().into(),
            ms(t0).into(),
            0.0.into(),
            check.into(),
        ]);
    }

    // Evidence-log replay: every event framed and checksummed, every
    // fourth frame re-sent (a gossip retry), dedup folds them away.
    let t0 = Instant::now();
    let mut log = EvidenceLog::new();
    for (i, &event) in events.iter().enumerate() {
        let rec = EvidenceRecord {
            issuer: PeerId((i % n) as u32),
            seq: i as u64,
            event,
        };
        log.append(&rec);
        if i % 4 == 0 {
            log.append(&rec);
        }
    }
    let replay = EvidenceLog::replay(log.as_bytes());
    let log_check = match &replay {
        Ok(r) if r.records.len() == events.len() && r.duplicates == events.len().div_ceil(4) => {
            "ok"
        }
        _ => "MISMATCH",
    };
    table.push_row(vec![
        "log-replay".into(),
        n.into(),
        events.len().into(),
        log.as_bytes().len().into(),
        ms(t0).into(),
        0.0.into(),
        log_check.into(),
    ]);

    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Cell;

    fn text(cell: &Cell) -> &str {
        match cell {
            Cell::Text(s) => s,
            other => panic!("expected text, got {other:?}"),
        }
    }

    fn num(cell: &Cell) -> f64 {
        match cell {
            Cell::Num(v) => *v,
            Cell::Int(v) => *v as f64,
            Cell::Text(t) => panic!("expected number, got {t}"),
        }
    }

    #[test]
    fn e13_every_check_passes_and_restore_beats_cold_start() {
        let t = e13_persistence(Scale::Smoke);
        assert_eq!(t.rows().len(), 8, "3 timing + 4 fault + 1 log arms");
        for row in t.rows() {
            let arm = text(&row[0]);
            let check = text(&row[6]);
            if arm.starts_with("fault:") {
                assert_eq!(check, "detected", "{arm} slipped through");
            } else {
                assert_eq!(check, "ok", "{arm} failed its verdict");
            }
        }
        let restore = t
            .rows()
            .iter()
            .find(|r| text(&r[0]) == "restore")
            .expect("restore arm");
        assert!(
            num(&restore[5]) > 1.0,
            "warm start must beat re-bootstrap, got speedup {}",
            num(&restore[5])
        );
        assert!(num(&restore[3]) > 0.0, "snapshot has a size");
    }

    #[test]
    fn composite_snapshot_round_trips() {
        let mut rng = SimRng::new(7);
        let events = event_stream(50, 400, &mut rng);
        let (grid, engine) = cold_start(50, &events);
        let blob = snapshot_service(&grid, &engine);
        let (grid2, engine2) = restore_service::<BetaTrust>(&blob).expect("restore");
        assert_eq!(snapshot_service(&grid2, &engine2), blob);
        assert_eq!(grid2.live_len(), grid.live_len());
        assert_eq!(engine2.snapshot().epoch(), engine.snapshot().epoch());
    }

    #[test]
    fn composite_snapshot_rejects_swapped_sections() {
        let mut rng = SimRng::new(9);
        let events = event_stream(20, 100, &mut rng);
        let (grid, engine) = cold_start(20, &events);
        // A container missing the engine section must fail typed.
        let mut w = SnapshotWriter::new(SERVICE_MAGIC);
        w.section(&grid);
        assert!(matches!(
            restore_service::<BetaTrust>(&w.into_bytes()),
            Err(PersistError::MissingSection { .. })
        ));
        let _ = engine;
    }
}
