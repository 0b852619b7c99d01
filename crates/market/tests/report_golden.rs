//! Cross-commit pins on `MarketReport` bits.
//!
//! The determinism suite proves a report is identical across thread
//! counts *within* one build. This file pins the exact `f64::to_bits`
//! of the three final trust-accuracy metrics, plus the witness-delivery
//! count, for five small configurations, so a refactor of the metrics
//! kernel, the gossip sampler or the fault plane that moves a single
//! bit fails here instead of slipping through a by-hand table diff.
//!
//! The constants were recorded before the fused metrics row kernel
//! replaced the per-metric helpers, and must never change by accident.
//! A change that moves them on purpose updates them in the same commit
//! and says so in CHANGES.md. On a mismatch the failure message prints
//! the observed values in the same layout as [`GOLDEN`].

use trustex_agents::adversary::zoo_mix;
use trustex_market::prelude::*;
use trustex_netsim::fault::PartitionSpec;
use trustex_netsim::time::SimTime;

/// One pinned configuration's expected report bits.
struct Golden {
    name: &'static str,
    mae: u64,
    rank_accuracy: u64,
    decision_accuracy: u64,
    witness_delivered: u64,
}

fn base(model: ModelKind, seed: u64) -> MarketConfig {
    MarketConfig {
        n_agents: 300,
        rounds: 6,
        sessions_per_round: 300,
        model,
        seed,
        ..MarketConfig::default()
    }
}

fn config(name: &str) -> MarketConfig {
    match name {
        "beta" => base(ModelKind::Beta, 0x601D_0001),
        "complaints" => base(ModelKind::Complaints, 0x601D_0002),
        "zoo" => MarketConfig {
            mix: zoo_mix(0.3, 1.0),
            ..base(ModelKind::Mean, 0x601D_0003)
        },
        // Loss on top of a bisect that outlasts the run keeps every
        // round below the witness quorum, so the final predictions run
        // degraded (direct evidence only).
        "chaos" => MarketConfig {
            chaos: ChaosConfig {
                loss: 0.3,
                partition: PartitionSpec::Bisect {
                    heal_at: SimTime::from_millis(3_600_000),
                },
                defended: true,
            },
            ..base(ModelKind::Ewma, 0x601D_0004)
        },
        // Every community write path at once: scorer-weighted complaint
        // writes read the evaluator's own model mid-merge, the rate cap
        // drops deliveries, whitewashers (every 2 rounds at full
        // coordination) rewrite every model, and per-round tracking
        // seals the community each round.
        "defended" => MarketConfig {
            mix: zoo_mix(0.3, 1.0),
            defense: DefenseConfig {
                scorer_weighted: true,
                report_rate_cap: Some(2),
            },
            track_trust_per_round: true,
            ..base(ModelKind::Complaints, 0x601D_0005)
        },
        other => unreachable!("no golden config {other}"),
    }
}

const GOLDEN: [Golden; 5] = [
    Golden {
        name: "beta",
        mae: 0x3fdfbfabdb0d8d12,
        rank_accuracy: 0x3fe1a430de99ff29,
        decision_accuracy: 0x3fe6d8d510a7dbbe,
        witness_delivered: 5442,
    },
    Golden {
        name: "complaints",
        mae: 0x3fd4a424f09df30b,
        rank_accuracy: 0x3fe0eb9bbd837d80,
        decision_accuracy: 0x3fe6667dc7953d39,
        witness_delivered: 5568,
    },
    Golden {
        name: "zoo",
        mae: 0x3fdc8398bc249def,
        rank_accuracy: 0x3fe13a859caae314,
        decision_accuracy: 0x3fe6ab88c5e7a37c,
        witness_delivered: 8431,
    },
    Golden {
        name: "chaos",
        mae: 0x3fdfd13191f7a069,
        rank_accuracy: 0x3fe11918a08b4b41,
        decision_accuracy: 0x3fe6b666f2ad7f6f,
        witness_delivered: 2593,
    },
    Golden {
        name: "defended",
        mae: 0x3fd2c03a7cc2ef8b,
        rank_accuracy: 0x3fe06b305d1ddf9d,
        decision_accuracy: 0x3fe665da1f4d5d76,
        witness_delivered: 2414,
    },
];

fn check(threads: usize) {
    let mut observed = String::new();
    let mut mismatch = false;
    for g in &GOLDEN {
        let report = MarketSim::new(MarketConfig {
            threads,
            ..config(g.name)
        })
        .run();
        let got = (
            report.final_mae.to_bits(),
            report.final_rank_accuracy.to_bits(),
            report.final_decision_accuracy.to_bits(),
            report.witness_delivered,
        );
        mismatch |= got
            != (
                g.mae,
                g.rank_accuracy,
                g.decision_accuracy,
                g.witness_delivered,
            );
        observed += &format!(
            "    Golden {{\n        name: {:?},\n        mae: {:#018x},\n        \
             rank_accuracy: {:#018x},\n        decision_accuracy: {:#018x},\n        \
             witness_delivered: {},\n    }},\n",
            g.name, got.0, got.1, got.2, got.3
        );
    }
    assert!(
        !mismatch,
        "report bits moved at threads={threads}; observed:\n{observed}"
    );
}

#[test]
fn report_bits_match_golden_single_thread() {
    check(1);
}

#[test]
fn report_bits_match_golden_two_threads() {
    check(2);
}

/// The chaos arm really exercises the degraded path: fewer than half
/// of the witness emissions arrive over the run.
#[test]
fn chaos_golden_arm_runs_below_the_witness_quorum() {
    let report = MarketSim::new(config("chaos")).run();
    assert!(
        2 * report.witness_delivered < report.witness_attempted,
        "delivered {} of {}",
        report.witness_delivered,
        report.witness_attempted
    );
}

/// The defended arm really exercises the rate cap: some witness
/// emissions reach a capped reporter and are dropped, on a plane that
/// loses nothing.
#[test]
fn defended_golden_arm_drops_capped_deliveries() {
    let report = MarketSim::new(config("defended")).run();
    assert!(
        report.witness_delivered < report.witness_attempted,
        "delivered {} of {}",
        report.witness_delivered,
        report.witness_attempted
    );
}
