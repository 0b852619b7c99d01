//! Property suite for the durable-evidence codec on the trust side.
//!
//! Three contracts, pinned across all four model kinds on random
//! evidence histories:
//!
//! 1. **Round-trip identity** — `decode(encode(m))` serves the exact
//!    same predictions as `m`, bit for bit, and re-encodes to the exact
//!    same bytes (the format is canonical, not merely invertible).
//! 2. **Engine capture** — persisting a [`TrustEngine`] mid-window
//!    preserves the published epoch *and* the pending seq-tagged delta:
//!    the restored engine publishes to the same row the live one does.
//! 3. **Total decoding** — every single-byte corruption and every
//!    truncation of a real snapshot is a typed error, never a panic and
//!    never an `Ok`.

use proptest::prelude::*;
use trustex_persist::snapshot::{
    from_bytes, to_bytes, Persistable, SnapshotReader, SnapshotWriter,
};
use trustex_trust::baselines::{EwmaTrust, MeanTrust};
use trustex_trust::beta::BetaTrust;
use trustex_trust::complaints::ComplaintTrust;
use trustex_trust::engine::{TrustEngine, TrustEvent};
use trustex_trust::evidence_log::{EvidenceLog, EvidenceRecord};
use trustex_trust::model::{Conduct, PeerId, TrustEstimate, TrustModel, WitnessReport};

const POP: u32 = 10;

#[derive(Debug, Clone, Copy)]
struct Obs {
    witness: u32, // == subject ⇒ direct experience
    subject: u32,
    honest: bool,
    round: u64,
}

fn observations(max_len: usize) -> impl Strategy<Value = Vec<Obs>> {
    prop::collection::vec(
        (0u32..POP, 0u32..POP, any::<bool>(), 0u64..50).prop_map(|(w, s, honest, round)| Obs {
            witness: w,
            subject: s,
            honest,
            round,
        }),
        0..max_len,
    )
}

fn apply(model: &mut dyn TrustModel, obs: &[Obs]) {
    for o in obs {
        if o.witness == o.subject {
            model.record_direct(PeerId(o.subject), Conduct::from_honest(o.honest), o.round);
        } else {
            model.record_witness(WitnessReport {
                witness: PeerId(o.witness),
                subject: PeerId(o.subject),
                conduct: Conduct::from_honest(o.honest),
                round: o.round,
            });
        }
    }
}

/// encode → decode → identical rows, identical bytes.
fn check_round_trip<M>(model: &M)
where
    M: TrustModel + Persistable,
{
    let blob = to_bytes(model);
    let restored: M = from_bytes(&blob).expect("own snapshot must restore");
    let mut live = vec![TrustEstimate::UNKNOWN; POP as usize];
    let mut back = vec![TrustEstimate::UNKNOWN; POP as usize];
    model.predict_row_into(&mut live);
    restored.predict_row_into(&mut back);
    for (i, (l, b)) in live.iter().zip(&back).enumerate() {
        assert_eq!(
            (l.p_honest, l.confidence),
            (b.p_honest, b.confidence),
            "subject {i} diverged after restore"
        );
    }
    assert_eq!(to_bytes(&restored), blob, "re-encode must be canonical");
}

/// Every prefix cut and every byte flip of a real snapshot must fail
/// typed. Run on a handful of blobs per test, not in the proptest loop —
/// the matrix is O(len · 8) decodes.
fn check_corruption_matrix(blob: &[u8], decode: &dyn Fn(&[u8]) -> bool) {
    for cut in 0..blob.len() {
        assert!(!decode(&blob[..cut]), "truncation at {cut} must fail");
    }
    for i in 0..blob.len() {
        for bit in 0..8 {
            let mut corrupt = blob.to_vec();
            corrupt[i] ^= 1 << bit;
            assert!(!decode(&corrupt), "flip of byte {i} bit {bit} must fail");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn beta_round_trips(obs in observations(120), graded in prop::collection::vec((0u32..POP, any::<bool>()), 0..10)) {
        let mut model = BetaTrust::with_population(POP as usize);
        apply(&mut model, &obs);
        for (w, ok) in graded {
            model.grade_witness(PeerId(w), ok, 7);
        }
        check_round_trip(&model);
    }

    #[test]
    fn complaint_round_trips(obs in observations(120)) {
        let mut model = ComplaintTrust::with_population(POP as usize);
        apply(&mut model, &obs);
        check_round_trip(&model);
    }

    #[test]
    fn mean_round_trips(obs in observations(120)) {
        let mut model = MeanTrust::with_population(POP as usize);
        apply(&mut model, &obs);
        check_round_trip(&model);
    }

    #[test]
    fn ewma_round_trips(obs in observations(120), rate in 0.05f64..1.0) {
        let mut model = EwmaTrust::with_population(rate, POP as usize);
        apply(&mut model, &obs);
        check_round_trip(&model);
    }

    /// Snapshot an engine mid-window: restored engine must serve the
    /// same published row now, and fold the preserved pending delta to
    /// the same row on the next publish.
    #[test]
    fn engine_round_trips_with_pending_delta(
        published in observations(60),
        pending in observations(20),
    ) {
        let engine = TrustEngine::new(BetaTrust::with_population(POP as usize));
        engine.submit_batch(published.iter().enumerate().map(|(i, o)| (i as u64, event_of(*o))));
        engine.publish();
        engine.submit_batch(
            pending
                .iter()
                .enumerate()
                .map(|(i, o)| ((published.len() + i) as u64, event_of(*o))),
        );

        let blob = to_bytes(&engine);
        let restored: TrustEngine<BetaTrust> = from_bytes(&blob).expect("engine snapshot");

        let mut live = vec![TrustEstimate::UNKNOWN; POP as usize];
        let mut back = vec![TrustEstimate::UNKNOWN; POP as usize];
        let live_snap = engine.snapshot();
        let back_snap = restored.snapshot();
        prop_assert_eq!(live_snap.epoch(), back_snap.epoch());
        live_snap.predict_row_into(&mut live);
        back_snap.predict_row_into(&mut back);
        for (l, b) in live.iter().zip(&back) {
            prop_assert_eq!((l.p_honest, l.confidence), (b.p_honest, b.confidence));
        }

        // The pending window crossed the snapshot intact.
        prop_assert_eq!(engine.publish(), restored.publish());
        engine.snapshot().predict_row_into(&mut live);
        restored.snapshot().predict_row_into(&mut back);
        for (l, b) in live.iter().zip(&back) {
            prop_assert_eq!((l.p_honest, l.confidence), (b.p_honest, b.confidence));
        }
        prop_assert_eq!(to_bytes(&restored), to_bytes(&engine));
    }

    /// Replay folds duplicates first-wins, whatever the interleaving.
    #[test]
    fn evidence_log_replay_dedups(
        obs in observations(40),
        dup_every in 1usize..5,
    ) {
        let mut log = EvidenceLog::new();
        let mut expect = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for (i, o) in obs.iter().enumerate() {
            let rec = EvidenceRecord {
                issuer: PeerId(o.witness),
                seq: (i / dup_every) as u64, // collides every `dup_every` records
                event: event_of(*o),
            };
            log.append(&rec);
            if seen.insert((rec.issuer, rec.seq)) {
                expect.push(rec);
            }
        }
        let replay = EvidenceLog::replay(log.as_bytes()).unwrap();
        prop_assert_eq!(replay.records, expect);
        prop_assert_eq!(replay.duplicates + replay_len(&log), obs.len());
    }
}

fn replay_len(log: &EvidenceLog) -> usize {
    EvidenceLog::replay(log.as_bytes()).unwrap().records.len()
}

fn event_of(o: Obs) -> TrustEvent {
    if o.witness == o.subject {
        TrustEvent::direct(PeerId(o.subject), Conduct::from_honest(o.honest), o.round)
    } else {
        TrustEvent::Witness(WitnessReport {
            witness: PeerId(o.witness),
            subject: PeerId(o.subject),
            conduct: Conduct::from_honest(o.honest),
            round: o.round,
        })
    }
}

fn workout<M: TrustModel>(mut model: M) -> M {
    let obs: Vec<Obs> = (0..60)
        .map(|i| Obs {
            witness: i % POP,
            subject: (i * 7 + 3) % POP,
            honest: i % 3 != 0,
            round: i as u64,
        })
        .collect();
    apply(&mut model, &obs);
    model
}

#[test]
fn beta_corruption_matrix() {
    let model = workout(BetaTrust::with_population(POP as usize));
    let blob = to_bytes(&model);
    check_corruption_matrix(&blob, &|b| from_bytes::<BetaTrust>(b).is_ok());
}

#[test]
fn complaint_corruption_matrix() {
    let model = workout(ComplaintTrust::with_population(POP as usize));
    let blob = to_bytes(&model);
    check_corruption_matrix(&blob, &|b| from_bytes::<ComplaintTrust>(b).is_ok());
}

#[test]
fn mean_corruption_matrix() {
    let model = workout(MeanTrust::with_population(POP as usize));
    let blob = to_bytes(&model);
    check_corruption_matrix(&blob, &|b| from_bytes::<MeanTrust>(b).is_ok());
}

#[test]
fn ewma_corruption_matrix() {
    let model = workout(EwmaTrust::with_population(0.3, POP as usize));
    let blob = to_bytes(&model);
    check_corruption_matrix(&blob, &|b| from_bytes::<EwmaTrust>(b).is_ok());
}

#[test]
fn engine_corruption_matrix() {
    let engine = TrustEngine::new(workout(BetaTrust::with_population(POP as usize)));
    engine.publish();
    engine.submit(0, TrustEvent::direct(PeerId(1), Conduct::Dishonest, 9));
    let blob = to_bytes(&engine);
    check_corruption_matrix(&blob, &|b| from_bytes::<TrustEngine<BetaTrust>>(b).is_ok());
}

/// A CRC-valid engine snapshot whose complaint population is patched to
/// 2⁴⁴ restores and serves predictions: the restore's seal counts the
/// silent peers rather than allocating one buffer slot per peer (which
/// aborted the process with a 128 TiB allocation request).
#[test]
fn crafted_complaint_population_restores_and_predicts() {
    let engine = TrustEngine::new(ComplaintTrust::with_population(POP as usize));
    engine.submit(0, TrustEvent::direct(PeerId(3), Conduct::Dishonest, 0));
    engine.publish();
    let blob = to_bytes(&engine);
    let magic: [u8; 4] = blob[..4].try_into().unwrap();
    let tag = TrustEngine::<ComplaintTrust>::TAG;
    let reader = SnapshotReader::parse(&blob, magic).unwrap();
    let mut payload = reader.raw_section(tag).unwrap().to_vec();
    // The engine's epoch (u64), then the model's outlier factor (f64),
    // witness weight (f64), scorer-weighted flag and population-present
    // flag (one byte each), then the population (u64).
    let at = 8 + 8 + 8 + 1 + 1;
    assert_eq!(payload[at..at + 8], (POP as u64).to_le_bytes());
    payload[at..at + 8].copy_from_slice(&(1u64 << 44).to_le_bytes());
    let mut crafted = SnapshotWriter::new(magic);
    crafted.raw_section(tag, payload);
    let restored = from_bytes::<TrustEngine<ComplaintTrust>>(&crafted.into_bytes())
        .expect("the crafted snapshot is well-formed");
    let snap = restored.snapshot();
    assert_eq!(snap.model().median_product(), 1.0);
    assert!(snap.predict(PeerId(3)).p_honest < snap.predict(PeerId(1)).p_honest);
}

/// A CRC-valid engine snapshot whose pending delta names peer
/// 0xFFFF_FFF0 is refused at restore. Accepting it handed back an
/// engine whose first publish grew the model's table to 2³² slots and
/// aborted the process on a 64 GiB allocation request.
#[test]
fn pending_event_about_a_huge_peer_id_is_refused() {
    use trustex_persist::PersistError;
    let engine = TrustEngine::new(MeanTrust::with_population(POP as usize));
    engine.submit(
        0,
        TrustEvent::direct(PeerId(0xFFFF_FFF0), Conduct::Dishonest, 0),
    );
    let restored = from_bytes::<TrustEngine<MeanTrust>>(&to_bytes(&engine));
    if let Ok(engine) = &restored {
        engine.publish();
    }
    assert!(
        matches!(restored, Err(PersistError::Invalid { .. })),
        "{restored:?}"
    );
    // A witness event is checked on both of its ids.
    let engine = TrustEngine::new(MeanTrust::with_population(POP as usize));
    let report = WitnessReport {
        witness: PeerId(0xFFFF_FFF0),
        subject: PeerId(1),
        conduct: Conduct::Dishonest,
        round: 0,
    };
    engine.submit(0, TrustEvent::Witness(report));
    assert!(matches!(
        from_bytes::<TrustEngine<MeanTrust>>(&to_bytes(&engine)),
        Err(PersistError::Invalid { .. })
    ));
    // A model that grows on write still restores a delta about peers
    // past its (empty) tables.
    let engine = TrustEngine::new(MeanTrust::new());
    engine.submit(0, TrustEvent::direct(PeerId(POP), Conduct::Dishonest, 0));
    let restored = from_bytes::<TrustEngine<MeanTrust>>(&to_bytes(&engine)).unwrap();
    restored.publish();
    assert!(restored.snapshot().predict(PeerId(POP)).p_honest < 0.5);
}

/// A snapshot from a hypothetical newer format version must be refused,
/// not guessed at.
#[test]
fn future_version_is_refused() {
    use trustex_persist::PersistError;
    let blob = to_bytes(&workout(MeanTrust::new()));
    let mut future = blob.clone();
    future[4] = future[4].wrapping_add(1); // version lives after the 4-byte magic
    assert!(matches!(
        from_bytes::<MeanTrust>(&future),
        Err(PersistError::UnsupportedVersion { .. })
    ));
}
