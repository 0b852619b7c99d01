//! E14: the message-level chaos sweep — loss, partitions, retries and
//! graceful degradation.
//!
//! Two halves share one table. The **overlay** half drives P-Grid
//! reputation lookups through a seeded [`FaultPlane`]: queries are
//! staggered on the virtual clock so a partition episode (healing at the
//! midpoint of the workload) bisects the query stream, and the per-hop
//! retry policy's backoff straddles the heal — recovering lookups the
//! first attempt could never complete, at a measured latency cost. The
//! **market** half delivers witness gossip through the same plane:
//! without defenses, lost and blocked reports silently read as absence
//! of complaints; with retry + degradation, bounded retransmission
//! replays them after the heal and evaluators fall back to
//! direct-evidence-only prediction while the witness quorum is
//! unreachable. Every row reports its distance to the clean arm.
//!
//! The overlay arms add delay jitter; the market arms set only loss and
//! a partition, the two fault knobs gossip honours (see
//! [`ChaosConfig`]): a report delivered on its first attempt lands in
//! its emission round whatever its delay.

use super::community::run_arms;
use super::storage::build_base;
use super::Scale;
use crate::population::ModelKind;
use crate::sim::{ChaosConfig, MarketConfig, MarketReport, ROUND_SPAN};
use crate::strategy::Strategy;
use crate::table::Table;
use crate::workload::Workload;
use trustex_agents::profile::PopulationMix;
use trustex_netsim::backoff::RetryPolicy;
use trustex_netsim::fault::{FaultConfig, FaultPlane, PartitionSpec};
use trustex_netsim::net::{NetConfig, Network};
use trustex_netsim::pool::parallel_map;
use trustex_netsim::rng::SimRng;
use trustex_netsim::time::SimTime;
use trustex_reputation::pgrid::PGrid;
use trustex_reputation::record::key_for_peer;
use trustex_trust::model::PeerId;

/// Virtual-clock spacing between consecutive overlay queries; the
/// partition heals at the workload midpoint, so early queries run
/// against the live episode and late ones against the healed overlay.
const QUERY_STAGGER_US: u64 = 500;

/// The loss axis of the sweep.
const LOSS: [f64; 4] = [0.0, 0.01, 0.05, 0.20];

/// Outcome of one overlay arm.
struct OverlayArm {
    success: f64,
    mean_hops: f64,
    latency_ms: f64,
}

/// Builds the partition episode for a given label, healing at `heal_at`.
fn partition(kind: &str, heal_at: SimTime) -> PartitionSpec {
    match kind {
        "none" => PartitionSpec::None,
        "bisect" => PartitionSpec::Bisect { heal_at },
        "islands" => PartitionSpec::Islands {
            islands: 4,
            heal_at,
        },
        other => panic!("unknown partition kind {other}"),
    }
}

/// Replays the staggered query workload over the shared base grid
/// through a faulty network, with or without per-hop retry.
fn overlay_arm(base: &PGrid, fault: FaultConfig, retry: bool, queries: usize) -> OverlayArm {
    let mut net = Network::with_fault_plane(
        NetConfig::default(),
        FaultPlane::new(0xE14_0E14_0E14, fault),
    );
    let mut rng = SimRng::new(0xE14);
    let policy = RetryPolicy::standard();
    let retry = retry.then_some(&policy);
    let n = base.len();
    let w = base.config().key_bits;
    let mut success = 0usize;
    let mut hops = 0u64;
    let mut lat_us = 0u64;
    for q in 0..queries {
        let subject = PeerId(rng.index(n) as u32);
        let key = key_for_peer(subject, w);
        let origin = rng.index(n);
        let start = SimTime::from_micros(q as u64 * QUERY_STAGGER_US);
        let result = base.query_at(origin, key, None, &mut net, &mut rng, start, retry);
        if result.is_resolved() {
            success += 1;
            hops += u64::from(result.hops);
            lat_us += result.latency.as_micros();
        }
    }
    OverlayArm {
        success: success as f64 / queries as f64,
        mean_hops: hops as f64 / success.max(1) as f64,
        latency_ms: lat_us as f64 / success.max(1) as f64 / 1000.0,
    }
}

/// The market half's shared configuration: a 30%-dishonest community
/// whose accuracy depends on the witness channel the plane disrupts.
fn market_cfg(scale: Scale, model: ModelKind, chaos: ChaosConfig) -> MarketConfig {
    MarketConfig {
        n_agents: scale.pick(40, 150),
        rounds: scale.pick(10, 40),
        sessions_per_round: scale.pick(40, 150),
        mix: PopulationMix::standard(0.3, 0.25),
        model,
        strategy: Strategy::TrustAware,
        workload: Workload::FileSharing,
        seed: 0xE14,
        chaos,
        ..MarketConfig::default()
    }
}

/// The market half's chaos arms: the clean reference plus the two
/// hardest fault regimes, each with defenses off and on. (`defended`
/// arms bounded retransmission *and* quorum-gated degradation together,
/// mirroring the e14 acceptance contract.)
fn market_arms(heal_at: SimTime) -> Vec<(f64, &'static str, bool, ChaosConfig)> {
    let mut arms = vec![(0.0, "none", false, ChaosConfig::default())];
    for (loss, kind) in [(0.05, "bisect"), (0.20, "islands")] {
        for defended in [false, true] {
            arms.push((
                loss,
                kind,
                defended,
                ChaosConfig {
                    loss,
                    partition: partition(kind, heal_at),
                    defended,
                },
            ));
        }
    }
    arms
}

/// E14 — *Table R8*: the robustness frontier of the messaging substrate.
/// Loss {0, 1, 5, 20}% × partition {none, bisect, islands} × retry
/// {off, on} for the P-Grid overlay, and the defended/undefended fault
/// regimes across all four trust models for the marketplace — with every
/// row's distance to its clean arm.
pub fn e14_chaos(scale: Scale) -> Table {
    let mut table = Table::new(
        "E14: chaos sweep (loss × partition × retry; defenses = retry + degradation)",
        &[
            "half",
            "model",
            "loss",
            "partition",
            "retry",
            "qry_success",
            "mean_hops",
            "latency_ms",
            "deliver_rate",
            "rank_acc",
            "decision_acc",
            "d_success",
            "d_rank",
            "d_decision",
        ],
    );
    let na = || "-";

    // ---- Overlay half -------------------------------------------------
    let n = scale.pick(64, 1024);
    let queries = scale.pick(120, 400);
    let heal_at = SimTime::from_micros(queries as u64 / 2 * QUERY_STAGGER_US);
    let base = build_base(n, 4, 0xE14B);
    let arms: Vec<(f64, &'static str, bool)> = LOSS
        .iter()
        .flat_map(|&loss| {
            ["none", "bisect", "islands"]
                .into_iter()
                .flat_map(move |p| [(loss, p, false), (loss, p, true)])
        })
        .collect();
    let results = parallel_map(0, arms.clone(), |_, (loss, kind, retry)| {
        let fault = FaultConfig {
            loss,
            extra_delay_max_us: 1_000,
            partition: partition(kind, heal_at),
        };
        overlay_arm(&base, fault, retry, queries)
    });
    let clean_success = results[0].success; // (0, none, off) is arm 0
    for ((loss, kind, retry), arm) in arms.into_iter().zip(&results) {
        table.push_row(vec![
            "overlay".into(),
            "pgrid".into(),
            loss.into(),
            kind.into(),
            if retry { "on" } else { "off" }.into(),
            arm.success.into(),
            arm.mean_hops.into(),
            arm.latency_ms.into(),
            na().into(),
            na().into(),
            na().into(),
            (arm.success - clean_success).into(),
            na().into(),
            na().into(),
        ]);
    }

    // ---- Market half --------------------------------------------------
    let rounds = scale.pick(10u64, 40);
    let heal_at = SimTime::from_micros(rounds / 2 * ROUND_SPAN.as_micros());
    let combos = market_arms(heal_at);
    let mut labels = Vec::new();
    let mut arms = Vec::new();
    for model in ModelKind::ALL {
        for &(loss, kind, defended, chaos) in &combos {
            labels.push((model, loss, kind, defended));
            arms.push(market_cfg(scale, model, chaos));
        }
    }
    let reports: Vec<MarketReport> = run_arms(arms);
    let mut clean = (0.0, 0.0);
    for ((model, loss, kind, defended), r) in labels.into_iter().zip(&reports) {
        if kind == "none" {
            clean = (r.final_rank_accuracy, r.final_decision_accuracy);
        }
        table.push_row(vec![
            "market".into(),
            model.label().into(),
            loss.into(),
            kind.into(),
            if defended { "on" } else { "off" }.into(),
            na().into(),
            na().into(),
            na().into(),
            r.witness_delivery_rate().into(),
            r.final_rank_accuracy.into(),
            r.final_decision_accuracy.into(),
            na().into(),
            (r.final_rank_accuracy - clean.0).into(),
            (r.final_decision_accuracy - clean.1).into(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Cell;

    fn num(cell: &Cell) -> f64 {
        match cell {
            Cell::Num(v) => *v,
            Cell::Int(v) => *v as f64,
            Cell::Text(t) => panic!("expected number, got {t}"),
        }
    }

    fn text(cell: &Cell) -> &str {
        match cell {
            Cell::Text(t) => t,
            other => panic!("expected text, got {other:?}"),
        }
    }

    /// Finds one row by (half, model, loss, partition, retry).
    fn row<'t>(
        t: &'t Table,
        half: &str,
        model: &str,
        loss: f64,
        part: &str,
        retry: &str,
    ) -> &'t [Cell] {
        t.rows()
            .iter()
            .find(|r| {
                text(&r[0]) == half
                    && text(&r[1]) == model
                    && (num(&r[2]) - loss).abs() < 1e-12
                    && text(&r[3]) == part
                    && text(&r[4]) == retry
            })
            .unwrap_or_else(|| panic!("missing row {half}/{model}/{loss}/{part}/{retry}"))
    }

    #[test]
    fn e14_has_the_full_sweep() {
        let t = e14_chaos(Scale::Smoke);
        // Overlay: 4 loss × 3 partitions × 2 retry; market: 4 models ×
        // (1 clean + 2 regimes × 2 defense settings).
        assert_eq!(t.rows().len(), 4 * 3 * 2 + 4 * 5);
    }

    /// The e14 acceptance criterion, overlay side: at the 5%-loss/bisect
    /// arm, per-hop retry with backoff recovers at least half of the
    /// query-success lost to the faults.
    #[test]
    fn e14_retry_recovers_at_least_half_the_overlay_success_loss() {
        let t = e14_chaos(Scale::Smoke);
        let clean = num(&row(&t, "overlay", "pgrid", 0.0, "none", "off")[5]);
        let off = num(&row(&t, "overlay", "pgrid", 0.05, "bisect", "off")[5]);
        let on = num(&row(&t, "overlay", "pgrid", 0.05, "bisect", "on")[5]);
        assert!(clean > 0.9, "clean arm must mostly succeed: {clean}");
        assert!(off < clean, "faults must cost something: {off} vs {clean}");
        assert!(
            on - off >= 0.5 * (clean - off),
            "retry recovered too little: clean {clean}, off {off}, on {on}"
        );
    }

    /// The e14 acceptance criterion, market side: at the 5%-loss/bisect
    /// arm, retry + degradation recover at least half of the rank- and
    /// decision-accuracy lost to the faults (averaged over the four
    /// trust models; individual models may sit on either side).
    #[test]
    fn e14_defenses_recover_at_least_half_the_accuracy_loss() {
        let t = e14_chaos(Scale::Smoke);
        let mut lost = (0.0, 0.0);
        let mut recovered = (0.0, 0.0);
        for model in ModelKind::ALL {
            let clean = row(&t, "market", model.label(), 0.0, "none", "off");
            let off = row(&t, "market", model.label(), 0.05, "bisect", "off");
            let on = row(&t, "market", model.label(), 0.05, "bisect", "on");
            lost.0 += num(&clean[9]) - num(&off[9]);
            lost.1 += num(&clean[10]) - num(&off[10]);
            recovered.0 += num(&on[9]) - num(&off[9]);
            recovered.1 += num(&on[10]) - num(&off[10]);
        }
        assert!(
            lost.0 > 0.0 && lost.1 > 0.0,
            "the faults must cost accuracy: lost {lost:?}"
        );
        assert!(
            recovered.0 >= 0.5 * lost.0 - 0.005,
            "rank recovery too small: lost {} recovered {}",
            lost.0,
            recovered.0
        );
        assert!(
            recovered.1 >= 0.5 * lost.1 - 0.005,
            "decision recovery too small: lost {} recovered {}",
            lost.1,
            recovered.1
        );
    }

    /// Retransmission and at-most-once delivery keep the delivery-rate
    /// column sane: within [0, 1], and the defended arm delivers
    /// strictly more witness reports than the undefended one under the
    /// same faults.
    #[test]
    fn e14_defended_arms_deliver_more_witness_reports() {
        let t = e14_chaos(Scale::Smoke);
        for model in ModelKind::ALL {
            let clean = row(&t, "market", model.label(), 0.0, "none", "off");
            assert!(num(&clean[8]) > 0.99, "clean must deliver ~everything");
            for (loss, kind) in [(0.05, "bisect"), (0.20, "islands")] {
                let off = num(&row(&t, "market", model.label(), loss, kind, "off")[8]);
                let on = num(&row(&t, "market", model.label(), loss, kind, "on")[8]);
                assert!((0.0..=1.0).contains(&off) && (0.0..=1.0).contains(&on));
                assert!(
                    on > off,
                    "{}: defended delivery {on} ≤ undefended {off}",
                    model.label()
                );
            }
        }
    }
}
