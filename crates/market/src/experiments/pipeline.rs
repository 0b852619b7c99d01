//! E0 — the Figure 1 reference model, end to end, with the *real*
//! decentralised substrate: complaints live in P-Grid (not in local
//! gossip), trust is computed from queried tallies with the CIKM-style
//! complaint metric, decisions run the §3 pipeline, and outcomes feed
//! complaints back into the grid.

use super::Scale;
use crate::strategy::{plan, Strategy};
use crate::table::Table;
use crate::workload::Workload;
use trustex_agents::profile::PopulationMix;
use trustex_core::execute::{execute, ExchangeStatus};
use trustex_core::policy::PaymentPolicy;
use trustex_core::state::Role;
use trustex_netsim::rng::SimRng;
use trustex_reputation::system::ReputationSystem;
use trustex_trust::complaints::{complaint_estimate, OUTLIER_FACTOR};
use trustex_trust::model::{PeerId, TrustEstimate};

/// Maps a queried complaint tally to a trust estimate with the complaint
/// model's rule, against a median taken over the last phase's queried
/// products.
fn tally_to_estimate(received: u64, filed: u64, median_product: f64) -> TrustEstimate {
    let threshold = OUTLIER_FACTOR * median_product.max(1.0);
    complaint_estimate(received as f64, filed as f64, threshold)
}

/// E0 — *Figure R1*: the complete feedback loop of the paper's reference
/// model on the decentralised substrate. Reported per phase of the run:
/// completion rate, honest losses and P-Grid messages per session.
pub fn e0_pipeline(scale: Scale) -> Table {
    let n = scale.pick(48, 150);
    let rounds: usize = scale.pick(6, 30);
    let sessions_per_round = scale.pick(30, 100);

    let mut rng = SimRng::new(0xE0);
    let mix = PopulationMix::standard(0.3, 0.0);
    let profiles = mix.sample(n, &mut rng);
    let mut reputation = ReputationSystem::new(n, 0xE0D);

    let mut table = Table::new(
        "E0: reference-model pipeline (complaints in P-Grid, 30% dishonest)",
        &[
            "phase",
            "completion",
            "honest_losses/sess",
            "declines",
            "grid_msgs/sess",
        ],
    );

    let phase_len = rounds.div_ceil(3);
    let mut median_product = 1.0f64;
    for phase in 0..3 {
        let mut completed = 0usize;
        let mut declined = 0usize;
        let mut sessions = 0usize;
        let mut honest_losses = 0.0;
        let msgs_before = reputation.network().total_sent();
        let mut products_seen: Vec<f64> = Vec::new();

        for round_in_phase in 0..phase_len {
            let round = (phase * phase_len + round_in_phase) as u64;
            for _ in 0..sessions_per_round {
                sessions += 1;
                let supplier = PeerId(rng.index(n) as u32);
                let consumer = loop {
                    let c = PeerId(rng.index(n) as u32);
                    if c != supplier {
                        break c;
                    }
                };
                // Reputation management: query both parties' tallies.
                let consumer_tally = reputation.query_tally(supplier, consumer, None);
                let supplier_tally = reputation.query_tally(consumer, supplier, None);
                let s_trust = match consumer_tally {
                    Some(t) => {
                        let est = tally_to_estimate(t.received, t.filed, median_product);
                        products_seen.push((t.received as f64 + 1.0) * (t.filed as f64 + 1.0));
                        est
                    }
                    None => TrustEstimate::UNKNOWN,
                };
                let c_trust = match supplier_tally {
                    Some(t) => {
                        let est = tally_to_estimate(t.received, t.filed, median_product);
                        products_seen.push((t.received as f64 + 1.0) * (t.filed as f64 + 1.0));
                        est
                    }
                    None => TrustEstimate::UNKNOWN,
                };

                // Decision making + scheduling.
                let deal = Workload::FileSharing.generate_deal(&mut rng);
                let sequence = match plan(
                    Strategy::TrustAware,
                    &deal,
                    s_trust,
                    c_trust,
                    PaymentPolicy::Lazy,
                ) {
                    Ok(seq) => seq,
                    Err(_) => {
                        declined += 1;
                        continue;
                    }
                };

                // Exchange execution against true behaviours.
                let mut rng_s = rng.fork(1);
                let mut rng_c = rng.fork(2);
                let s_behavior = profiles[supplier.index()].exchange;
                let c_behavior = profiles[consumer.index()].exchange;
                let outcome = {
                    let mut so = s_behavior.oracle(round, &mut rng_s);
                    let mut co = c_behavior.oracle(round, &mut rng_c);
                    execute(&deal, &sequence, &mut so, &mut co)
                };
                for (agent, gain) in [
                    (supplier, outcome.supplier_gain.as_f64()),
                    (consumer, outcome.consumer_gain.as_f64()),
                ] {
                    if profiles[agent.index()].exchange.is_fundamentally_honest() && gain < 0.0 {
                        honest_losses += -gain;
                    }
                }

                // Feedback: wronged parties file complaints into the grid.
                match outcome.status {
                    ExchangeStatus::Completed => completed += 1,
                    ExchangeStatus::Aborted { by, .. } => {
                        let (victim, offender) = match by {
                            Role::Supplier => (consumer, supplier),
                            Role::Consumer => (supplier, consumer),
                        };
                        reputation.file_complaint(victim, offender, round, None);
                    }
                }
            }
        }
        // Update the population median product from this phase's queries.
        if !products_seen.is_empty() {
            let mid = products_seen.len() / 2;
            let (_, median, _) = products_seen.select_nth_unstable_by(mid, f64::total_cmp);
            median_product = *median;
        }
        let msgs = reputation.network().total_sent() - msgs_before;
        table.push_row(vec![
            format!("phase-{}", phase + 1).into(),
            (completed as f64 / sessions as f64).into(),
            (honest_losses / sessions as f64).into(),
            declined.into(),
            (msgs as f64 / sessions as f64).into(),
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

    #[test]
    fn pipeline_learns_across_phases() {
        let t = e0_pipeline(Scale::Smoke);
        assert_eq!(t.rows().len(), 3);
        let first = &t.rows()[0];
        let last = &t.rows()[2];
        // Honest losses per session fall as complaints accumulate.
        assert!(
            num(&last[2]) <= num(&first[2]) + 1e-9,
            "losses must not grow: {} -> {}",
            num(&first[2]),
            num(&last[2])
        );
        // The pipeline keeps trading.
        assert!(num(&last[1]) > 0.2, "completion collapsed: {last:?}");
    }

    #[test]
    fn pipeline_uses_the_grid() {
        let t = e0_pipeline(Scale::Smoke);
        for row in t.rows() {
            assert!(num(&row[4]) > 0.0, "grid messages must flow: {row:?}");
        }
    }

    #[test]
    fn tally_estimate_properties() {
        let clean = tally_to_estimate(0, 0, 1.0);
        let dirty = tally_to_estimate(10, 0, 1.0);
        assert!(clean.p_honest > dirty.p_honest);
        assert!(
            clean.confidence < dirty.confidence,
            "complaints are evidence"
        );
        let liar = tally_to_estimate(0, 10, 1.0);
        assert!(liar.p_honest < clean.p_honest);
    }
}
