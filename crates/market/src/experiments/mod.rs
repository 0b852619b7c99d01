//! The experiment suite: every table and figure listed in the README's
//! Experiments table.
//!
//! The paper itself publishes **no** tables or experimental figures (it
//! is a 2-page paper whose only figure is the architecture diagram), so
//! this suite operationalises its *claims*; the README's Experiments
//! table names the claim each experiment validates. Every experiment is
//! a deterministic function of [`Scale`] and returns a renderable
//! [`Table`].

use crate::table::Table;

mod adversary;
mod chaos;
mod community;
mod exchange;
mod pipeline;
mod service;
pub(crate) mod storage;

pub use adversary::e11_adversaries;
pub use chaos::e14_chaos;
pub use community::{e4_strategies, e5_trust_accuracy, e8_marketplace, e9_convergence};
pub use exchange::{e1_existence, e2_scaling, e3_relaxation, e7_exposure};
pub use pipeline::e0_pipeline;
pub use service::e12_service;
pub use storage::{e10_ablations, e6_pgrid};

pub use crate::persistence::e13_persistence;

/// How big to run an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Seconds-scale sizes for tests and CI.
    Smoke,
    /// The sizes the committed baselines and the README report.
    Paper,
}

impl Scale {
    /// Picks the smoke or paper value.
    pub fn pick<T>(self, smoke: T, paper: T) -> T {
        match self {
            Scale::Smoke => smoke,
            Scale::Paper => paper,
        }
    }
}

/// An experiment id, name and runner — the registry the `repro` binary
/// iterates.
pub struct Experiment {
    /// Short id, e.g. `"e1"`.
    pub id: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// The runner.
    pub run: fn(Scale) -> Table,
}

/// All experiments in presentation order.
pub const ALL: [Experiment; 15] = [
    Experiment {
        id: "e0",
        title: "Figure R1: reference-model pipeline end-to-end",
        run: e0_pipeline,
    },
    Experiment {
        id: "e1",
        title: "Table R1: safe-sequence existence and required margins",
        run: e1_existence,
    },
    Experiment {
        id: "e2",
        title: "Figure R2: scheduler runtime scaling",
        run: e2_scaling,
    },
    Experiment {
        id: "e3",
        title: "Figure R3: trust-aware relaxation enables trades",
        run: e3_relaxation,
    },
    Experiment {
        id: "e4",
        title: "Figure R4: strategy welfare vs dishonest fraction",
        run: e4_strategies,
    },
    Experiment {
        id: "e5",
        title: "Table R2: trust model accuracy under lying witnesses",
        run: e5_trust_accuracy,
    },
    Experiment {
        id: "e6",
        title: "Figure R5: P-Grid routing cost and churn resilience",
        run: e6_pgrid,
    },
    Experiment {
        id: "e7",
        title: "Figure R6: exposure bounds vs trust and risk attitude",
        run: e7_exposure,
    },
    Experiment {
        id: "e8",
        title: "Table R3: end-to-end marketplace comparison",
        run: e8_marketplace,
    },
    Experiment {
        id: "e9",
        title: "Figure R7: trust convergence over rounds",
        run: e9_convergence,
    },
    Experiment {
        id: "e10",
        title: "Table R4: ablations (policy, gossip, replication, risk)",
        run: e10_ablations,
    },
    Experiment {
        id: "e11",
        title: "Table R6: adversary-zoo robustness frontier",
        run: e11_adversaries,
    },
    Experiment {
        id: "e12",
        title: "Table R5: trust service replay (throughput + latency percentiles)",
        run: e12_service,
    },
    Experiment {
        id: "e13",
        title: "Table R7: durable evidence (warm start, crash recovery, log replay)",
        run: e13_persistence,
    },
    Experiment {
        id: "e14",
        title: "Table R8: message-level chaos (loss/partition × retry + degradation)",
        run: e14_chaos,
    },
];

/// Looks an experiment up by id.
pub fn find(id: &str) -> Option<&'static Experiment> {
    ALL.iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_unique() {
        assert_eq!(ALL.len(), 15);
        let mut ids: Vec<&str> = ALL.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 15);
    }

    #[test]
    fn find_works() {
        assert!(find("e1").is_some());
        assert!(
            find("e11").is_some(),
            "the adversary frontier is registered"
        );
        assert!(find("e12").is_some());
        assert!(find("e13").is_some(), "durable evidence is registered");
        assert!(find("e14").is_some(), "the chaos sweep is registered");
        assert_eq!(find("e0").unwrap().id, "e0");
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Smoke.pick(1, 2), 1);
        assert_eq!(Scale::Paper.pick(1, 2), 2);
    }

    /// Every experiment runs at smoke scale and yields a non-empty table.
    /// (The heavyweight content is exercised per-experiment in the
    /// sibling modules; this is the registry-level smoke check.)
    #[test]
    fn all_experiments_smoke() {
        for e in &ALL {
            let t = (e.run)(Scale::Smoke);
            assert!(!t.rows().is_empty(), "{} produced no rows", e.id);
            assert!(!t.columns().is_empty(), "{} has no columns", e.id);
        }
    }
}
