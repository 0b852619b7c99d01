//! The reputation-management facade: Figure 1's left-hand module.
//!
//! [`ReputationSystem`] wires the P-Grid storage, the network model and
//! the replica-resolution logic into the interface the market simulation
//! consumes: *file a complaint*, *fetch a peer's complaint tally*. Each
//! storage peer shapes its answers through a [`StorageBehavior`]; the
//! system starts every peer faithful, and its tests turn a fraction of
//! them into liars. Availability can be driven by a churn timeline.

use crate::pgrid::{PGrid, PGridConfig};
use crate::record::{key_for_peer, Complaint};
use crate::resolve::{majority_vote, StorageBehavior};
use trustex_netsim::net::{NetConfig, Network};
use trustex_netsim::rng::SimRng;
use trustex_trust::model::PeerId;

/// A resolved complaint tally for one subject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TallyReport {
    /// Accepted complaints *about* the subject.
    pub received: u64,
    /// Accepted complaints *filed by* the subject.
    pub filed: u64,
    /// Replicas that answered the query.
    pub replicas: usize,
    /// Routing hops of the query.
    pub hops: u32,
}

/// Decentralised complaint storage over P-Grid.
#[derive(Debug, Clone)]
pub struct ReputationSystem {
    grid: PGrid,
    net: Network,
    rng: SimRng,
    behavior: Vec<StorageBehavior>,
}

impl ReputationSystem {
    /// Builds the system for `n_peers` storage peers over a grid of the
    /// default configuration ([`PGridConfig::default`]).
    pub fn new(n_peers: usize, seed: u64) -> ReputationSystem {
        let mut rng = SimRng::new(seed);
        let grid = PGrid::build(n_peers, PGridConfig::default(), &mut rng);
        ReputationSystem {
            grid,
            net: Network::new(NetConfig::default()),
            rng,
            behavior: vec![StorageBehavior::Faithful; n_peers],
        }
    }

    /// The underlying grid (read access for diagnostics).
    pub fn grid(&self) -> &PGrid {
        &self.grid
    }

    /// The network's message counters.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Files complaint `by → about`; stores it under both peers' keys
    /// (so both `cr` and `cf` queries find it). Returns how many replica
    /// stores accepted it in total.
    pub fn file_complaint(
        &mut self,
        by: PeerId,
        about: PeerId,
        round: u64,
        alive: Option<&[bool]>,
    ) -> usize {
        let w = self.grid.config().key_bits;
        let item = Complaint { by, about, round };
        let origin = (by.index()) % self.grid.len();
        let mut reached = 0;
        for key in [key_for_peer(about, w), key_for_peer(by, w)] {
            let receipt = self
                .grid
                .insert(origin, key, item, alive, &mut self.net, &mut self.rng);
            reached += receipt.replicas_reached;
        }
        reached
    }

    /// Queries the complaint tally of `subject` on behalf of `querier`,
    /// resolving replica answers by majority vote. `None` when routing
    /// failed entirely.
    pub fn query_tally(
        &mut self,
        querier: PeerId,
        subject: PeerId,
        alive: Option<&[bool]>,
    ) -> Option<TallyReport> {
        let w = self.grid.config().key_bits;
        let key = key_for_peer(subject, w);
        let origin = querier.index() % self.grid.len();
        let result = self
            .grid
            .query(origin, key, alive, &mut self.net, &mut self.rng);
        if !result.is_resolved() {
            return None;
        }
        // Shape each replica's answer in place by its storage behaviour.
        let shaped: Vec<Vec<Complaint>> = result
            .answers
            .into_iter()
            .map(|(member, mut answer)| {
                match self.behavior[member] {
                    StorageBehavior::Faithful => {}
                    StorageBehavior::Suppressor => answer.clear(),
                    // Collusive fabrication: every fabricator invents the
                    // *same* fake complaints about the subject, so the
                    // fakes can reach quorum when liars dominate — the
                    // strongest attack majority voting must face.
                    StorageBehavior::Fabricator(k) => answer.extend((0..k).map(|j| Complaint {
                        by: PeerId(3_000_000_000 + j as u32),
                        about: subject,
                        round: 0,
                    })),
                }
                answer
            })
            .collect();
        let accepted = majority_vote(&shaped);
        let received = accepted.iter().filter(|c| c.about == subject).count() as u64;
        let filed = accepted.iter().filter(|c| c.by == subject).count() as u64;
        Some(TallyReport {
            received,
            filed,
            replicas: shaped.len(),
            hops: result.hops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Makes a random `fraction` of storage peers liars (half
    /// suppressors, half fabricators).
    fn corrupt_fraction(sys: &mut ReputationSystem, fraction: f64) {
        let n = sys.grid.len();
        let k = ((n as f64) * fraction.clamp(0.0, 1.0)).round() as usize;
        let chosen = sys.rng.sample_indices(n, k);
        for (j, i) in chosen.into_iter().enumerate() {
            sys.behavior[i] = if j % 2 == 0 {
                StorageBehavior::Suppressor
            } else {
                StorageBehavior::Fabricator(2)
            };
        }
    }

    #[test]
    fn file_and_query_roundtrip() {
        let mut sys = ReputationSystem::new(256, 1);
        let subject = PeerId(7);
        for v in 20..26 {
            let reached = sys.file_complaint(PeerId(v), subject, 0, None);
            assert!(reached >= 1, "complaint must reach storage");
        }
        let tally = sys.query_tally(PeerId(3), subject, None).expect("resolves");
        assert_eq!(tally.received, 6);
        assert_eq!(tally.filed, 0);
        assert!(tally.replicas >= 1);
    }

    #[test]
    fn filed_complaints_visible_under_filer_key() {
        let mut sys = ReputationSystem::new(256, 2);
        let liar = PeerId(9);
        for v in 30..35 {
            sys.file_complaint(liar, PeerId(v), 0, None);
        }
        let tally = sys.query_tally(PeerId(1), liar, None).expect("resolves");
        assert_eq!(tally.filed, 5);
        assert_eq!(tally.received, 0);
    }

    #[test]
    fn minority_liars_filtered_by_majority() {
        let mut sys = ReputationSystem::new(384, 3);
        let subject = PeerId(11);
        for v in 40..44 {
            sys.file_complaint(PeerId(v), subject, 0, None);
        }
        // Corrupt 20% of storage peers: answers still resolve correctly.
        corrupt_fraction(&mut sys, 0.20);
        let mut exact = 0;
        for q in 0..10u32 {
            if let Some(t) = sys.query_tally(PeerId(50 + q), subject, None) {
                if t.received == 4 && t.filed == 0 {
                    exact += 1;
                }
            }
        }
        assert!(
            exact >= 7,
            "majority voting should survive 20% liars: {exact}/10"
        );
    }

    #[test]
    fn heavy_corruption_breaks_tallies() {
        let mut sys = ReputationSystem::new(384, 4);
        let subject = PeerId(11);
        for v in 40..44 {
            sys.file_complaint(PeerId(v), subject, 0, None);
        }
        corrupt_fraction(&mut sys, 1.0);
        // With every storage peer lying, no query returns the true tally.
        let mut exact = 0;
        for q in 0..10u32 {
            if let Some(t) = sys.query_tally(PeerId(50 + q), subject, None) {
                if t.received == 4 {
                    exact += 1;
                }
            }
        }
        assert_eq!(exact, 0, "fully corrupted storage cannot answer correctly");
    }

    #[test]
    fn query_counts_messages() {
        let mut sys = ReputationSystem::new(256, 5);
        sys.file_complaint(PeerId(1), PeerId(2), 0, None);
        let before = sys.network().total_sent();
        sys.query_tally(PeerId(3), PeerId(2), None);
        assert!(sys.network().total_sent() >= before, "queries are counted");
    }

    #[test]
    fn availability_mask_respected() {
        let mut sys = ReputationSystem::new(256, 6);
        let subject = PeerId(5);
        sys.file_complaint(PeerId(1), subject, 0, None);
        let alive = vec![false; 256];
        // Everyone down: no origin can route.
        assert!(sys.query_tally(PeerId(2), subject, Some(&alive)).is_none());
    }

    /// Sweep storage corruption: tallies stay exact through minority
    /// corruption and only break down when liars dominate replica groups.
    #[test]
    fn corruption_sweep_degrades_gracefully() {
        let mut exact_by_level = Vec::new();
        for (i, fraction) in [0.0, 0.2, 0.8].into_iter().enumerate() {
            let mut sys = ReputationSystem::new(96, 77 + i as u64);
            let subject = PeerId(11);
            for v in 40..45 {
                sys.file_complaint(PeerId(v), subject, 0, None);
            }
            corrupt_fraction(&mut sys, fraction);
            let mut exact = 0;
            for q in 0..20u32 {
                if let Some(t) = sys.query_tally(PeerId(60 + q), subject, None) {
                    if t.received == 5 && t.filed == 0 {
                        exact += 1;
                    }
                }
            }
            exact_by_level.push(exact);
        }
        assert_eq!(exact_by_level[0], 20, "clean storage must be exact");
        assert!(
            exact_by_level[1] >= 14,
            "20% corruption should be mostly voted out: {exact_by_level:?}"
        );
        assert!(
            exact_by_level[2] <= exact_by_level[1],
            "heavy corruption cannot beat light: {exact_by_level:?}"
        );
    }
}
