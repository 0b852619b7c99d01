//! The committed FORMAT_VERSION=1 fixture corpus.
//!
//! `tests/fixtures/v1/` holds tiny snapshot blobs — one per trust
//! model, one P-Grid overlay, one TXEL evidence log — written by
//! today's encoders and committed to the repository. This test decodes
//! every committed blob and re-encodes the same logical state, pinning
//! the wire format: any accidental change to the encoders, the section
//! framing or the checksums breaks this test, not a user's saved
//! snapshot. Bump `FORMAT_VERSION` and regenerate deliberately instead.
//!
//! Regenerate (after an *intentional* format change) with:
//!
//! ```sh
//! TRUSTEX_REGEN_FIXTURES=1 cargo test -p trustex-market --test format_v1_corpus
//! ```

use std::path::PathBuf;
use trustex_netsim::rng::SimRng;
use trustex_persist::snapshot::{from_bytes, to_bytes, Persistable};
use trustex_persist::FORMAT_VERSION;
use trustex_reputation::pgrid::{PGrid, PGridConfig};
use trustex_reputation::record::{key_for_peer, Complaint};
use trustex_trust::baselines::{EwmaTrust, MeanTrust};
use trustex_trust::beta::BetaTrust;
use trustex_trust::complaints::ComplaintTrust;
use trustex_trust::engine::TrustEvent;
use trustex_trust::evidence_log::{EvidenceLog, EvidenceRecord};
use trustex_trust::model::{Conduct, PeerId, TrustModel, WitnessReport};

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("v1")
}

/// Feeds a deterministic little history into any trust model.
fn feed<M: TrustModel>(mut model: M) -> M {
    for i in 0..6u64 {
        let subject = PeerId((i % 3) as u32);
        model.record_direct(subject, Conduct::from_honest(i % 4 != 0), i);
        model.record_witness(WitnessReport {
            witness: PeerId(3 + (i % 2) as u32),
            subject,
            conduct: Conduct::from_honest(i % 5 != 0),
            round: i,
        });
    }
    model
}

/// The corpus grid: 16 peers, replication 2, three seeded complaints.
fn corpus_grid() -> PGrid {
    let mut rng = SimRng::new(0xF1C5);
    let cfg = PGridConfig::for_population(16, 2);
    let mut grid = PGrid::build(16, cfg, &mut rng);
    let mut net = trustex_netsim::net::Network::new(trustex_netsim::net::NetConfig::default());
    for i in 0..3usize {
        let about = PeerId((i * 5 % 16) as u32);
        grid.insert(
            i,
            key_for_peer(about, cfg.key_bits),
            Complaint {
                by: PeerId(((i + 1) % 16) as u32),
                about,
                round: i as u64,
            },
            None,
            &mut net,
            &mut rng,
        );
    }
    grid
}

/// The corpus evidence log: four frames, one a deliberate duplicate.
fn corpus_log() -> EvidenceLog {
    let mut log = EvidenceLog::new();
    let records = [
        EvidenceRecord {
            issuer: PeerId(1),
            seq: 0,
            event: TrustEvent::direct(PeerId(2), Conduct::Honest, 0),
        },
        EvidenceRecord {
            issuer: PeerId(1),
            seq: 1,
            event: TrustEvent::Witness(WitnessReport {
                witness: PeerId(3),
                subject: PeerId(2),
                conduct: Conduct::Dishonest,
                round: 1,
            }),
        },
        EvidenceRecord {
            issuer: PeerId(2),
            seq: 0,
            event: TrustEvent::direct(PeerId(1), Conduct::Dishonest, 2),
        },
        // Replayed frame: same (issuer, seq) as the first — the replay
        // side must fold it away.
        EvidenceRecord {
            issuer: PeerId(1),
            seq: 0,
            event: TrustEvent::direct(PeerId(2), Conduct::Honest, 0),
        },
    ];
    for r in &records {
        log.append(r);
    }
    log
}

/// Checks one fixture: the committed bytes must decode, and re-encoding
/// today's state must reproduce them byte-for-byte. With
/// `TRUSTEX_REGEN_FIXTURES=1` the fixture is (re)written instead.
fn check_fixture(name: &str, current: Vec<u8>, decode_check: impl Fn(&[u8])) {
    let path = fixture_dir().join(name);
    if std::env::var_os("TRUSTEX_REGEN_FIXTURES").is_some() {
        std::fs::create_dir_all(fixture_dir()).expect("create fixture dir");
        std::fs::write(&path, &current).expect("write fixture");
        return;
    }
    let committed = std::fs::read(&path)
        .unwrap_or_else(|e| panic!("missing fixture {name} ({e}); regenerate deliberately"));
    decode_check(&committed);
    assert_eq!(
        current, committed,
        "{name}: re-encoding today's state no longer matches the committed \
         FORMAT_VERSION={FORMAT_VERSION} blob — the wire format drifted"
    );
}

/// Round-trip sanity shared by the model fixtures: decoding the
/// committed blob yields a model whose predictions match a freshly fed
/// one on every subject in the corpus history.
fn check_model_fixture<M: Persistable + TrustModel>(name: &str, fresh: impl Fn() -> M) {
    check_fixture(name, to_bytes(&feed(fresh())), |committed| {
        let decoded: M = from_bytes(committed).expect("committed blob must decode");
        let reference = feed(fresh());
        for subject in 0..6u32 {
            assert_eq!(
                decoded.predict(PeerId(subject)),
                reference.predict(PeerId(subject)),
                "{name}: decoded predictions diverged for subject {subject}"
            );
        }
    });
}

#[test]
fn beta_fixture_round_trips() {
    check_model_fixture("beta.bin", BetaTrust::new);
}

#[test]
fn complaints_fixture_round_trips() {
    check_model_fixture("complaints.bin", ComplaintTrust::new);
}

#[test]
fn mean_fixture_round_trips() {
    check_model_fixture("mean.bin", MeanTrust::new);
}

#[test]
fn ewma_fixture_round_trips() {
    check_model_fixture("ewma.bin", EwmaTrust::new);
}

#[test]
fn pgrid_fixture_round_trips() {
    check_fixture("pgrid.bin", to_bytes(&corpus_grid()), |committed| {
        let decoded: PGrid = from_bytes(committed).expect("committed grid must decode");
        let reference = corpus_grid();
        assert_eq!(decoded.len(), reference.len());
        decoded.check_invariants();
        for peer in 0..decoded.len() {
            assert_eq!(decoded.path(peer), reference.path(peer), "path of {peer}");
            assert_eq!(
                decoded.stored(peer).collect::<Vec<_>>(),
                reference.stored(peer).collect::<Vec<_>>(),
                "store of {peer}"
            );
        }
    });
}

#[test]
fn evidence_log_fixture_round_trips() {
    check_fixture("evidence.txel", corpus_log().into_bytes(), |committed| {
        let replay = EvidenceLog::replay(committed).expect("committed log must replay");
        assert_eq!(replay.records.len(), 3, "three unique records");
        assert_eq!(replay.duplicates, 1, "one folded duplicate frame");
        let fresh = EvidenceLog::replay(corpus_log().as_bytes()).expect("fresh log replays");
        assert_eq!(replay.records, fresh.records);
    });
}

/// Every fixture in the corpus directory is covered by a test above —
/// a new blob dropped into `fixtures/v1/` without a decoder test (or a
/// stale one left behind after a rename) fails here.
#[test]
fn corpus_has_no_unaccounted_fixtures() {
    if std::env::var_os("TRUSTEX_REGEN_FIXTURES").is_some() {
        // Regen mode writes the fixtures from parallel tests; listing
        // the directory mid-write is meaningless.
        return;
    }
    let known = [
        "beta.bin",
        "complaints.bin",
        "mean.bin",
        "ewma.bin",
        "pgrid.bin",
        "evidence.txel",
    ];
    let mut found: Vec<String> = std::fs::read_dir(fixture_dir())
        .expect("fixture dir exists")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    found.sort();
    let mut expected: Vec<String> = known.iter().map(|s| s.to_string()).collect();
    expected.sort();
    assert_eq!(
        found, expected,
        "fixture corpus drifted from the test suite"
    );
}
