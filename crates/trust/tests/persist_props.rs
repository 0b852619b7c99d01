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
use trustex_persist::codec::ByteWriter;
use trustex_persist::snapshot::{
    from_bytes, to_bytes, Persistable, SnapshotReader, SnapshotWriter, VALUE_MAGIC,
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
    fn ewma_round_trips(obs in observations(120)) {
        let mut model = EwmaTrust::with_population(POP as usize);
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
    let model = workout(EwmaTrust::with_population(POP as usize));
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

/// Wraps a hand-written model payload in a `to_bytes` container.
fn crafted_blob<M: Persistable>(write: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
    let mut payload = ByteWriter::new();
    write(&mut payload);
    let mut blob = SnapshotWriter::new(VALUE_MAGIC);
    blob.raw_section(M::TAG, payload.into_bytes());
    blob.into_bytes()
}

/// Decodes `blob` and re-encodes it byte for byte.
fn assert_reencodes<M: Persistable>(blob: &[u8]) {
    let model: M = from_bytes(blob).expect("the crafted payload is valid");
    assert_eq!(to_bytes(&model), blob, "re-encode must be byte-identical");
}

/// Slots that look cold but are not, and cold slots amid written ones,
/// survive decode → encode byte for byte. A decoder that skips slots
/// equal to the cold value (rather than bit-identical to it) loses the
/// `-0.0` count, and one that skips by evidence alone loses the graded
/// flag or the evidence of an ungraded witness.
#[test]
fn cold_looking_slots_round_trip_byte_identical() {
    let put_evidence = |w: &mut ByteWriter, honest: f64, dishonest: f64, round: u64| {
        w.put_f64(honest);
        w.put_f64(dishonest);
        w.put_u64(round);
    };
    let beta = crafted_blob::<BetaTrust>(|w| {
        // Configuration slots: priors 1/1, forgetting 1, witness weight
        // ½, witness prior 0.6, then no scorer weighting.
        for v in [1.0, 1.0, 1.0, 0.5, 0.6] {
            w.put_f64(v);
        }
        w.put_bool(false);
        w.put_len(3);
        put_evidence(w, 2.0, 1.0, 4);
        put_evidence(w, -0.0, 0.0, 0);
        put_evidence(w, 0.0, 0.0, 0);
        w.put_len(4);
        // A graded witness with zero evidence, an ungraded one with
        // evidence, a cold slot, and a graded one with evidence.
        put_evidence(w, 0.0, 0.0, 0);
        w.put_bool(true);
        put_evidence(w, 3.0, 0.0, 2);
        w.put_bool(false);
        put_evidence(w, 0.0, 0.0, 0);
        w.put_bool(false);
        put_evidence(w, 1.0, 1.0, 1);
        w.put_bool(true);
    });
    assert_reencodes::<BetaTrust>(&beta);
    let restored: BetaTrust = from_bytes(&beta).unwrap();
    assert_eq!(
        restored.witness_reliability(PeerId(0)),
        0.5,
        "graded at 1/2"
    );
    assert_eq!(
        restored.witness_reliability(PeerId(1)),
        0.6,
        "ungraded prior"
    );

    let mean = crafted_blob::<MeanTrust>(|w| {
        w.put_bool(false);
        w.put_len(3);
        for (honest, total) in [(2u64, 3u64), (0, 0), (1, 1)] {
            w.put_u64(honest);
            w.put_u64(total);
        }
    });
    assert_reencodes::<MeanTrust>(&mean);

    let ewma = crafted_blob::<EwmaTrust>(|w| {
        w.put_f64(0.2);
        w.put_bool(false);
        w.put_len(3);
        for (score, n) in [(0.7, 2u64), (0.5, 0), (0.3, 1)] {
            w.put_f64(score);
            w.put_u64(n);
        }
    });
    assert_reencodes::<EwmaTrust>(&ewma);
}

/// A CRC-valid snapshot whose evidence counts exceed 2⁵³ is refused at
/// restore. Each event adds at most 1 to one count, so no reachable
/// state holds such a count. Accepting them handed back a model that
/// aborted on a NaN estimate: at once for complaint tallies
/// r = f = 1e200 (their product overflows) and for Beta evidence
/// honest = dishonest = 1e308 (confidence inf/inf), and for a tally
/// r = 1.7e308, f = 0 at the first complaint that peer files.
#[test]
fn huge_evidence_counts_are_refused() {
    use trustex_persist::PersistError;
    let complaints = |received: f64, filed: f64| {
        crafted_blob::<ComplaintTrust>(|w| {
            // Outlier factor, witness weight, no scorer weighting, no
            // declared population, then one seen peer's tally.
            w.put_f64(4.0);
            w.put_f64(0.5);
            w.put_bool(false);
            w.put_bool(false);
            w.put_len(1);
            w.put_f64(received);
            w.put_f64(filed);
            w.put_bool(true);
        })
    };
    let beta = |honest: f64, dishonest: f64| {
        crafted_blob::<BetaTrust>(|w| {
            for v in [1.0, 1.0, 1.0, 0.5, 0.6] {
                w.put_f64(v);
            }
            w.put_bool(false);
            w.put_len(1);
            w.put_f64(honest);
            w.put_f64(dishonest);
            w.put_u64(0);
            w.put_len(0);
        })
    };
    for (received, filed) in [(1e200, 1e200), (1.7e308, 0.0), (0.0, 2f64.powi(53) + 2.0)] {
        let restored = from_bytes::<ComplaintTrust>(&complaints(received, filed));
        assert!(
            matches!(restored, Err(PersistError::Invalid { .. })),
            "tally ({received}, {filed}): {restored:?}"
        );
    }
    for (honest, dishonest) in [(1e308, 1e308), (2f64.powi(53) + 2.0, 0.0)] {
        let restored = from_bytes::<BetaTrust>(&beta(honest, dishonest));
        assert!(
            matches!(restored, Err(PersistError::Invalid { .. })),
            "evidence ({honest}, {dishonest}): {restored:?}"
        );
    }
    // Counts at the bound restore and keep predicting, also after the
    // bounded peer files a complaint.
    let bound = 2f64.powi(53);
    let mut model: ComplaintTrust = from_bytes(&complaints(bound, bound)).unwrap();
    model.seal();
    assert!(model.predict(PeerId(0)).p_honest.is_finite());
    model.file_complaint(PeerId(0), PeerId(1), 0);
    model.seal();
    assert!(model.predict(PeerId(0)).p_honest.is_finite());
    let model: BetaTrust = from_bytes(&beta(bound, bound)).unwrap();
    assert!(model.predict(PeerId(0)).confidence > 0.99);
}

/// The models' parameters are constants: a CRC-valid snapshot whose
/// configuration slots hold any other value is refused, not run with
/// parameters the model no longer has.
#[test]
fn non_constant_configuration_is_refused() {
    use trustex_persist::PersistError;
    let beta_with = |slot: usize, value: f64| {
        crafted_blob::<BetaTrust>(|w| {
            let mut config = [1.0, 1.0, 1.0, 0.5, 0.6];
            config[slot] = value;
            for v in config {
                w.put_f64(v);
            }
            w.put_bool(false);
            w.put_len(0);
            w.put_len(0);
        })
    };
    assert!(from_bytes::<BetaTrust>(&beta_with(0, 1.0)).is_ok());
    // Each slot, the forgetting factor among them.
    for (slot, value) in [(0, 2.0), (1, 0.5), (2, 0.9), (3, 0.25), (4, 0.5)] {
        assert!(
            matches!(
                from_bytes::<BetaTrust>(&beta_with(slot, value)),
                Err(PersistError::Invalid { .. })
            ),
            "beta slot {slot} = {value}"
        );
    }
    let complaints_with = |factor: f64, weight: f64| {
        crafted_blob::<ComplaintTrust>(|w| {
            w.put_f64(factor);
            w.put_f64(weight);
            w.put_bool(false);
            w.put_bool(false);
            w.put_len(0);
        })
    };
    assert!(from_bytes::<ComplaintTrust>(&complaints_with(4.0, 0.5)).is_ok());
    for (factor, weight) in [(2.0, 0.5), (4.0, 0.0)] {
        assert!(matches!(
            from_bytes::<ComplaintTrust>(&complaints_with(factor, weight)),
            Err(PersistError::Invalid { .. })
        ));
    }
    let ewma_with = |rate: f64| {
        crafted_blob::<EwmaTrust>(|w| {
            w.put_f64(rate);
            w.put_bool(false);
            w.put_len(0);
        })
    };
    assert!(from_bytes::<EwmaTrust>(&ewma_with(0.2)).is_ok());
    assert!(matches!(
        from_bytes::<EwmaTrust>(&ewma_with(0.3)),
        Err(PersistError::Invalid { .. })
    ));
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
