//! The market's trust state grows with the evidence, not as n².
//!
//! Every agent owns a trust model, and every model sees only its own
//! exchanges and the witness reports it receives. With n sessions per
//! round, each evaluator writes a bounded number of peer slots per
//! round, so the sim's live heap should grow roughly linearly in n. A
//! per-model table sized to the population (a dense index of n entries
//! per model, n models) grows it as n² instead.
//!
//! This binary counts live heap bytes with the shared counting
//! allocator (`tests/support/counting_alloc.rs`) and runs Beta, mean
//! and EWMA sims at n = 500 and at n = 2000 (4× the agents), one
//! thread, n sessions per round. Each model's peak live heap may grow
//! at most [`MAX_GROWTH`]× from the small run to the large one; n²
//! tables give about 16×.
//!
//! The complaint model is the known exception and is not run here: its
//! population median ranges over every slot, so it keeps a dense
//! per-peer tally table and still grows as n².
//!
//! The binary holds a single test, so no other test's allocations fall
//! into a measured window.

use trustex_market::prelude::*;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

/// The largest allowed ratio of peak live heap at n = 2000 to peak live
/// heap at n = 500.
const MAX_GROWTH: f64 = 6.0;

/// Peak live heap, in bytes above the live heap at the start, of
/// building and running one sim of `n` agents.
fn peak_heap(model: ModelKind, n: usize) -> usize {
    let base = counting_alloc::reset_peak();
    let report = MarketSim::new(MarketConfig {
        n_agents: n,
        rounds: 3,
        sessions_per_round: n,
        model,
        seed: 0x3E3_0011,
        threads: 1,
        ..MarketConfig::default()
    })
    .run();
    assert_eq!(
        report.sessions,
        3 * n as u64,
        "{} at n = {n}",
        model.label()
    );
    counting_alloc::peak() - base
}

#[test]
fn peak_heap_grows_with_the_evidence_not_as_n_squared() {
    for model in [ModelKind::Beta, ModelKind::Mean, ModelKind::Ewma] {
        let small = peak_heap(model, 500);
        let large = peak_heap(model, 2000);
        let growth = large as f64 / small as f64;
        assert!(
            growth <= MAX_GROWTH,
            "{}: peak live heap {small} B at n = 500 and {large} B at n = 2000, \
             {growth:.1}× for 4× the agents (at most {MAX_GROWTH}× allowed)",
            model.label()
        );
    }
}
