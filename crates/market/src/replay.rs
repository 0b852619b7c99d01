//! The service replay driver: millions of interleaved query/feedback
//! events against the epoch-swapped trust engine, reported as
//! throughput and latency percentiles.
//!
//! The experiment suite times experiments as wall-clock totals; a
//! service cares about *per-request* latency under a live write stream.
//! This driver generates a deterministic event stream from the pinned
//! RNG (queries and feedback interleaved), plays it against a
//! [`TrustEngine`] in fixed-size windows — queries of a window fan
//! across the worker pool against the window's snapshot while feedback
//! accumulates in the pending delta, then the window boundary publishes
//! the next epoch — and reports throughput plus p50/p99/p999 query
//! latency via [`trustex_netsim::stats`].
//!
//! Determinism contract: everything *content-shaped* in the outcome
//! (event counts, epochs, the prediction checksum — [`ReplayCheck`]) is
//! a pure function of the seed, bit-identical for any thread count:
//! queries only read published epochs, the checksum folds in submission
//! order, and the publish fold is pinned by event sequence numbers.
//! The latency fields are wall-clock and machine-dependent by design.

use crate::population::ModelKind;
use std::time::Instant;
use trustex_netsim::pool::{parallel_map, resolve_threads};
use trustex_netsim::rng::SimRng;
use trustex_netsim::stats::Sample;
use trustex_trust::engine::{TrustEngine, TrustEvent};
use trustex_trust::model::{Conduct, PeerId, TrustEstimate, WitnessReport};

/// Configuration of one replay run.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Community size served by the engine (subjects per query sweep).
    pub n_peers: usize,
    /// Total interleaved events to replay.
    pub events: usize,
    /// Probability an event is a query (the rest stream feedback).
    pub query_share: f64,
    /// Events per epoch window: each window's queries read the previous
    /// publish, and its feedback is folded at the window boundary.
    pub window: usize,
    /// Trust model behind the engine.
    pub model: ModelKind,
    /// Master seed for the event stream.
    pub seed: u64,
    /// Worker threads for the query fan-out (0 = process default).
    pub threads: usize,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            n_peers: 100,
            events: 10_000,
            query_share: 0.8,
            window: 1000,
            model: ModelKind::Beta,
            seed: 17,
            threads: 0,
        }
    }
}

/// The deterministic part of a replay outcome: bit-identical for any
/// thread count (pinned by the cross-thread determinism suite).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayCheck {
    /// Events replayed (queries + feedback).
    pub events: u64,
    /// Query events served.
    pub queries: u64,
    /// Feedback events folded (direct + witness).
    pub feedbacks: u64,
    /// Epochs published (one per window).
    pub epochs: u64,
    /// Submission-order fold of every query's probed estimate plus a
    /// final-epoch row sum — any divergence in any served prediction
    /// moves it.
    pub checksum: f64,
}

/// The full replay outcome: the deterministic [`ReplayCheck`] plus
/// wall-clock throughput and latency percentiles.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// The deterministic outcome.
    pub check: ReplayCheck,
    /// Total wall-clock seconds for the replay loop.
    pub wall_s: f64,
    /// Median query latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile query latency, microseconds.
    pub p99_us: f64,
    /// 99.9th-percentile query latency, microseconds.
    pub p999_us: f64,
}

impl ReplayReport {
    /// Events per second over the whole replay loop.
    pub fn throughput(&self) -> f64 {
        if self.wall_s <= 0.0 {
            0.0
        } else {
            self.check.events as f64 / self.wall_s
        }
    }
}

/// One query: a full-row sweep (the service's "page of estimates"
/// request), with `probe`'s estimate folded into the checksum.
struct Query {
    probe: PeerId,
}

/// Replays `cfg.events` interleaved query/feedback events against a
/// fresh [`TrustEngine`] and reports throughput, latency percentiles
/// and the deterministic [`ReplayCheck`].
///
/// # Panics
///
/// Panics if `n_peers`, `events` or `window` is zero.
pub fn replay(cfg: &ReplayConfig) -> ReplayReport {
    assert!(
        cfg.n_peers > 0 && cfg.events > 0 && cfg.window > 0,
        "replay needs peers, events and a window"
    );
    let n = cfg.n_peers;
    let threads = resolve_threads(cfg.threads);
    let mut rng = SimRng::new(cfg.seed);
    // Ground-truth honesty per peer: feedback conduct is drawn from it,
    // so the engine converges on something predictable.
    let honesty: Vec<f64> = (0..n).map(|_| rng.f64()).collect();
    let engine = TrustEngine::new(cfg.model.build(n));

    let mut check = ReplayCheck {
        events: 0,
        queries: 0,
        feedbacks: 0,
        epochs: 0,
        checksum: 0.0,
    };
    let mut latency = Sample::new();
    let mut remaining = cfg.events;
    let mut seq: u64 = 0;
    let started = Instant::now();
    while remaining > 0 {
        // Draw one window of events from the master stream
        // (sequentially, so stream consumption is schedule-independent).
        let window = cfg.window.min(remaining);
        remaining -= window;
        let round = check.epochs;
        let mut queries: Vec<Query> = Vec::with_capacity(window);
        for _ in 0..window {
            seq += 1;
            if rng.chance(cfg.query_share) {
                queries.push(Query {
                    probe: PeerId(rng.index(n) as u32),
                });
            } else {
                let subject = PeerId(rng.index(n) as u32);
                let conduct = Conduct::from_honest(rng.chance(honesty[subject.index()]));
                let event = if rng.chance(0.25) {
                    TrustEvent::Witness(WitnessReport {
                        witness: PeerId(rng.index(n) as u32),
                        subject,
                        conduct,
                        round,
                    })
                } else {
                    TrustEvent::direct(subject, conduct, round)
                };
                engine.submit(seq, event);
                check.feedbacks += 1;
            }
        }
        check.queries += queries.len() as u64;

        // Fan the window's queries across the pool against the current
        // snapshot. Results come back in submission order, so the
        // checksum fold below is thread-count-independent.
        let snapshot = engine.snapshot();
        let snapshot = &snapshot;
        let chunk_len = queries.len().div_ceil(threads.max(1) * 4).max(1);
        let mut chunks: Vec<Vec<Query>> = Vec::new();
        let mut rest = queries.into_iter();
        loop {
            let chunk: Vec<Query> = rest.by_ref().take(chunk_len).collect();
            if chunk.is_empty() {
                break;
            }
            chunks.push(chunk);
        }
        let served: Vec<Vec<(f64, f64)>> = parallel_map(threads, chunks, |_, chunk| {
            let mut row = vec![TrustEstimate::UNKNOWN; n];
            chunk
                .into_iter()
                .map(|query| {
                    let t0 = Instant::now();
                    snapshot.predict_row_into(&mut row);
                    let probed = row[query.probe.index()].p_honest;
                    let us = t0.elapsed().as_nanos() as f64 / 1_000.0;
                    (std::hint::black_box(probed), us)
                })
                .collect()
        });
        for (probed, us) in served.into_iter().flatten() {
            check.checksum += probed;
            latency.push(us);
        }

        // Window boundary: fold the pending delta (pinned seq order)
        // and rotate the epoch.
        engine.publish();
        check.epochs += 1;
    }
    let wall_s = started.elapsed().as_secs_f64();

    // Fold the final epoch into the checksum so post-replay state — not
    // just served queries — is pinned too.
    let mut row = vec![TrustEstimate::UNKNOWN; n];
    engine.snapshot().predict_row_into(&mut row);
    for estimate in &row {
        check.checksum += estimate.p_honest;
    }
    check.events = check.queries + check.feedbacks;

    ReplayReport {
        p50_us: latency.quantile(0.5).unwrap_or(0.0),
        p99_us: latency.quantile(0.99).unwrap_or(0.0),
        p999_us: latency.quantile(0.999).unwrap_or(0.0),
        check,
        wall_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(model: ModelKind) -> ReplayConfig {
        ReplayConfig {
            n_peers: 30,
            events: 2000,
            window: 250,
            model,
            threads: 1,
            ..ReplayConfig::default()
        }
    }

    #[test]
    fn replay_accounts_every_event() {
        for model in ModelKind::ALL {
            let r = replay(&small(model));
            assert_eq!(r.check.events, 2000, "{model:?}");
            assert_eq!(r.check.events, r.check.queries + r.check.feedbacks);
            assert_eq!(r.check.epochs, 8, "2000 events / 250-event windows");
            assert!(r.check.queries > r.check.feedbacks, "query_share 0.8");
            assert!(r.p50_us <= r.p99_us && r.p99_us <= r.p999_us);
            assert!(r.throughput() > 0.0);
            assert!(r.check.checksum.is_finite());
        }
    }

    #[test]
    fn replay_check_is_seed_deterministic() {
        let a = replay(&small(ModelKind::Complaints));
        let b = replay(&small(ModelKind::Complaints));
        assert_eq!(a.check, b.check);
        let other = replay(&ReplayConfig {
            seed: 18,
            ..small(ModelKind::Complaints)
        });
        assert_ne!(a.check.checksum, other.check.checksum);
    }

    #[test]
    fn replay_check_is_thread_invariant() {
        let reference = replay(&small(ModelKind::Beta));
        for threads in [2, 8] {
            let r = replay(&ReplayConfig {
                threads,
                ..small(ModelKind::Beta)
            });
            assert_eq!(r.check, reference.check, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "replay needs")]
    fn zero_events_rejected() {
        replay(&ReplayConfig {
            events: 0,
            ..ReplayConfig::default()
        });
    }
}
