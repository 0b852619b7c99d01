//! `service`: the trust engine serving reads while feedback streams in.
//! Set-up builds a `TrustEngine<ComplaintTrust>` over 10⁵ peers and
//! folds and publishes a seeded 200k-event history. A batch is one
//! 4096-event epoch window: 80 % page reads (`snapshot()` + `predict` of
//! 64 random subjects), 20 % `submit` of a direct or (one in four)
//! witness event, closed by `publish()`. Every 64th window also
//! checkpoints the engine into memory with `persist::snapshot::to_bytes`.
//! One op is one event. Pool size 1.

use crate::probe::{timed, Acc, Guard, Layers, Phase, Schedule};
use crate::{Ctx, Outcome};
use std::time::Instant;
use trustex_netsim::rng::SimRng;
use trustex_persist::snapshot::{from_bytes, to_bytes};
use trustex_trust::complaints::ComplaintTrust;
use trustex_trust::engine::{TrustEngine, TrustEvent};
use trustex_trust::model::{Conduct, PeerId, TrustEstimate, WitnessReport};

const PEERS: usize = 100_000;
const HISTORY: usize = 200_000;
const WINDOW: usize = 4096;
const PAGE: usize = 64;
const READ_SHARE: f64 = 0.8;
const WITNESS_SHARE: f64 = 0.25;
const CHECKPOINT_EVERY: u64 = 64;
/// A cycle holds one checkpoint. Set-up is ~15 ms.
const SCHEDULE: Schedule = Schedule {
    guard_batches: 128,
    cycle_batches: CHECKPOINT_EVERY as usize,
    setup_reps: 64,
};
const SALT_HISTORY: u64 = 0x4157_0000;
const SALT_OPS: u64 = 0x0F5E_0001;

type Engine = TrustEngine<ComplaintTrust>;

enum Event {
    /// A page read of the window's next `PAGE` subjects.
    Read,
    Write(TrustEvent),
}

/// One epoch window's inputs: its events in order, and the subjects of
/// its page reads, `PAGE` per read, in read order.
struct Inputs {
    events: Vec<Event>,
    subjects: Vec<u32>,
}

/// Draws one feedback event about a random subject, honest with the
/// subject's fixed honesty probability.
fn feedback(rng: &mut SimRng, honesty: &[f64], round: u64) -> TrustEvent {
    let subject = PeerId(rng.index(PEERS) as u32);
    let conduct = Conduct::from_honest(rng.chance(honesty[subject.index()]));
    if rng.chance(WITNESS_SHARE) {
        TrustEvent::Witness(WitnessReport {
            witness: PeerId(rng.index(PEERS) as u32),
            subject,
            conduct,
            round,
        })
    } else {
        TrustEvent::direct(subject, conduct, round)
    }
}

struct Service {
    engine: Engine,
    /// Seconds spent building the engine and folding the history (the
    /// rest of set-up generates the inputs).
    build_s: f64,
    honesty: Vec<f64>,
    /// Next event sequence number.
    seq: u64,
}

fn setup(seed: u64) -> Service {
    let mut rng = SimRng::new(seed ^ SALT_HISTORY);
    let honesty: Vec<f64> = (0..PEERS).map(|_| rng.f64()).collect();
    let history: Vec<(u64, TrustEvent)> = (0..HISTORY)
        .map(|i| (i as u64, feedback(&mut rng, &honesty, (i / WINDOW) as u64)))
        .collect();
    let t = Instant::now();
    let mut model = ComplaintTrust::new();
    model.set_population(PEERS);
    model.ensure_capacity(PEERS);
    let engine = TrustEngine::new(model);
    engine.submit_batch(history);
    engine.publish();
    Service {
        engine,
        build_s: t.elapsed().as_secs_f64(),
        honesty,
        seq: HISTORY as u64,
    }
}

fn gen_window(rng: &mut SimRng, honesty: &[f64], round: u64) -> Inputs {
    let mut inputs = Inputs {
        events: Vec::with_capacity(WINDOW),
        subjects: Vec::new(),
    };
    for _ in 0..WINDOW {
        if rng.chance(READ_SHARE) {
            inputs
                .subjects
                .extend((0..PAGE).map(|_| rng.index(PEERS) as u32));
            inputs.events.push(Event::Read);
        } else {
            inputs
                .events
                .push(Event::Write(feedback(rng, honesty, round)));
        }
    }
    inputs
}

fn valid(e: &TrustEstimate) -> bool {
    (0.0..=1.0).contains(&e.p_honest) && (0.0..=1.0).contains(&e.confidence)
}

/// Per-call probes of the traced run.
#[derive(Default)]
struct Probes {
    submit: Acc,
    snapshot: Acc,
    page: Acc,
    publish: Acc,
    encode: Acc,
}

/// The last in-memory checkpoint and the rows read at checkpoint time.
struct Checkpoint {
    bytes: Vec<u8>,
    epoch: u64,
    row: Vec<TrustEstimate>,
}

pub fn run(ctx: &Ctx) -> Outcome {
    trustex_netsim::pool::set_default_threads(1);
    let (service, first_setup_s) = timed(|| setup(ctx.seed));
    let Service {
        engine,
        build_s,
        honesty,
        mut seq,
    } = service;
    let mut gen = SimRng::new(ctx.seed ^ SALT_OPS);

    let mut phase = Phase::start(ctx, &SCHEDULE, first_setup_s);
    let mut guard = Guard::default();
    let mut probes = Probes::default();
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut checkpoint: Option<Checkpoint> = None;
    while phase.running() {
        phase.between_batches(|| setup(ctx.seed));
        let window = phase.batch_index();
        let inputs = gen_window(&mut gen, &honesty, window + 1);
        let mut pages = inputs.subjects.chunks_exact(PAGE);
        let in_guard = phase.in_guard();
        let (mut reads, mut writes, mut witness, mut bad) = (0u64, 0u64, 0u64, 0u64);
        let mut checksum = 0.0f64;
        let checkpointing = window % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1;
        let t = Instant::now();
        for event in &inputs.events {
            match event {
                Event::Read => {
                    let page = pages.next().expect("one page of subjects per read");
                    let snapshot = probes.snapshot.time_if(ctx.trace, || engine.snapshot());
                    let ok = probes.page.time_if(ctx.trace, || {
                        let mut ok = true;
                        for &subject in page {
                            let e = snapshot.predict(PeerId(subject));
                            ok &= valid(&e);
                            checksum += e.p_honest;
                        }
                        ok
                    });
                    reads += 1;
                    bad += u64::from(!ok);
                }
                Event::Write(e) => {
                    probes.submit.time_if(ctx.trace, || engine.submit(seq, *e));
                    seq += 1;
                    writes += 1;
                    witness += u64::from(matches!(e, TrustEvent::Witness(_)));
                }
            }
        }
        // What the engine is about to publish (one lock, ~20 ns; outside
        // the publish probe).
        let pending = engine.pending_len() as u64;
        let epoch = probes.publish.time_if(ctx.trace, || engine.publish());
        let bytes = checkpointing.then(|| probes.encode.time_if(ctx.trace, || to_bytes(&engine)));
        phase.record(t.elapsed(), WINDOW as u64);

        // Off the clock: keep the checkpoint with the rows it must restore.
        attempted += WINDOW as u64;
        if bad > 0 {
            failed += bad;
            problems.push(format!(
                "window {window}: {bad} pages with estimates outside [0, 1]"
            ));
        }
        if pending != writes {
            failed += 1;
            problems.push(format!(
                "window {window}: engine published {pending} events, {writes} were submitted"
            ));
        }
        if let Some(bytes) = bytes {
            let mut row = vec![TrustEstimate::UNKNOWN; PEERS];
            engine.snapshot().predict_row_into(&mut row);
            checkpoint = Some(Checkpoint { bytes, epoch, row });
        }
        if in_guard {
            guard.add("reads", reads);
            guard.add("submitted", writes);
            guard.add("publish_events", pending);
            guard.add("witness_events", witness);
            guard.add("publishes", 1);
            guard.add("failed", bad);
            guard.mix_f64("page_checksum", checksum);
            if let Some(c) = checkpoint.as_ref().filter(|_| checkpointing) {
                guard.add("checkpoint_bytes", c.bytes.len() as u64);
                guard.add("checkpoint_epoch", c.epoch);
            }
        }
    }
    let phase = phase.finish(|| setup(ctx.seed));

    // Verify pass: the last checkpoint restores to the same epoch and
    // reads bit-equal rows.
    let mut decode = Acc::default();
    let mut layers = Layers::default();
    match &checkpoint {
        None => {
            failed += 1;
            problems.push("no checkpoint taken".into());
        }
        Some(c) => match decode.time(1, || from_bytes::<Engine>(&c.bytes)) {
            Err(e) => {
                failed += 1;
                problems.push(format!("checkpoint does not restore: {e}"));
            }
            Ok(restored) => {
                let mut row = vec![TrustEstimate::UNKNOWN; PEERS];
                restored.snapshot().predict_row_into(&mut row);
                let same = row.iter().zip(&c.row).all(|(a, b)| {
                    a.p_honest.to_bits() == b.p_honest.to_bits()
                        && a.confidence.to_bits() == b.confidence.to_bits()
                });
                if restored.epoch() != c.epoch || !same {
                    failed += 1;
                    problems.push(format!(
                        "restored checkpoint differs (epoch {} vs {}, rows equal: {same})",
                        restored.epoch(),
                        c.epoch
                    ));
                }
                layers.set(
                    "persist.snapshot_mb",
                    c.bytes.len() as f64 / (1024.0 * 1024.0),
                );
            }
        },
    }
    layers.set(
        "trust.publish_events",
        guard.get("publish_events") as f64 / guard.get("publishes").max(1) as f64,
    );
    if ctx.trace {
        layers.set("trust.engine_build_s", build_s);
        layers.set("trust.engine_submit_ns", probes.submit.mean_s() * 1e9);
        layers.set("trust.engine_snapshot_ns", probes.snapshot.mean_s() * 1e9);
        layers.set("trust.page_predict_us", probes.page.mean_s() * 1e6);
        layers.set("trust.engine_publish_ms", probes.publish.mean_s() * 1e3);
        layers.set("persist.encode_ms", probes.encode.mean_s() * 1e3);
        layers.set("persist.decode_ms", decode.mean_s() * 1e3);
    }
    Outcome {
        phase,
        attempted,
        failed,
        guard,
        layers,
        problems,
    }
}
