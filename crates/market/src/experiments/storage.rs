//! Storage-substrate experiments: P-Grid routing/churn (E6) and the
//! ablation matrix (E10).

use super::community::run_arms;
use super::Scale;
use crate::population::ModelKind;
use crate::sim::MarketConfig;
use crate::strategy::Strategy;
use crate::table::Table;
use crate::workload::Workload;
use trustex_agents::profile::PopulationMix;
use trustex_core::policy::PaymentPolicy;
use trustex_netsim::churn::{ChurnModel, ChurnTimeline};
use trustex_netsim::net::{NetConfig, Network};
use trustex_netsim::pool::parallel_map;
use trustex_netsim::rng::SimRng;
use trustex_netsim::time::SimTime;
use trustex_reputation::lifecycle::Lifecycle;
use trustex_reputation::pgrid::{PGrid, PGridConfig};
use trustex_reputation::record::key_for_peer;
use trustex_trust::model::PeerId;

/// Outcome of one measurement arm over a shared base grid.
struct GridArm {
    mean_hops: f64,
    msgs_per_query: f64,
    success: f64,
    /// Success rate after [`PGrid::repair`], over the *identical* query
    /// sequence — `None` unless the arm asked for the repair pass.
    success_repaired: Option<f64>,
    /// Fraction of peers admitted during a join/leave arm whose path
    /// reached the configured depth — `None` outside churn arms.
    join_maturity: Option<f64>,
}

impl GridArm {
    /// The all-failed arm (nobody alive to originate queries).
    fn dead(measure_repair: bool) -> GridArm {
        GridArm {
            mean_hops: 0.0,
            msgs_per_query: 0.0,
            success: 0.0,
            success_repaired: measure_repair.then_some(0.0),
            join_maturity: None,
        }
    }
}

/// Builds one base grid and seeds it with complaints — the expensive,
/// availability-independent part of an E6 rung, shared by every arm at
/// that population (the old layout rebuilt the same grid once per arm,
/// tripling the dominant cost of the experiment).
pub(crate) fn build_base(n: usize, replication: usize, seed: u64) -> PGrid {
    let mut rng = SimRng::new(seed);
    let cfg = PGridConfig::for_population(n, replication);
    let mut grid = PGrid::build(n, cfg, &mut rng);
    let mut net = Network::new(NetConfig::default());
    // Seed some complaints so queries return data.
    for i in 0..(n / 2) {
        let about = PeerId((i % n) as u32);
        let key = key_for_peer(about, cfg.key_bits);
        let item = trustex_reputation::record::Complaint {
            by: PeerId(((i + 1) % n) as u32),
            about,
            round: 0,
        };
        grid.insert(i % n, key, item, None, &mut net, &mut rng);
    }
    grid
}

/// Replays `queries` lookups (subjects and origins drawn from `qrng`)
/// and tallies (successes, total hops); message counts accrue in `net`.
fn run_queries(
    grid: &PGrid,
    alive: Option<&[bool]>,
    live_origins: &[usize],
    queries: usize,
    qrng: &mut SimRng,
    net: &mut Network,
) -> (usize, u64) {
    let n = grid.len();
    let cfg = grid.config();
    let mut success = 0usize;
    let mut hops_sum = 0u64;
    for _ in 0..queries {
        let subject = PeerId(qrng.index(n) as u32);
        let key = key_for_peer(subject, cfg.key_bits);
        let origin = live_origins[qrng.index(live_origins.len())];
        let result = grid.query(origin, key, alive, net, qrng);
        if result.is_resolved() {
            success += 1;
            hops_sum += result.hops as u64;
        }
    }
    (success, hops_sum)
}

/// One availability arm over a shared base grid: snapshot a churn mask,
/// replay the query workload (read-only on the base — no rebuild, no
/// clone), and optionally repair a cloned grid against the mask and
/// replay the *same* sequence — so the repaired column differs from the
/// plain one only by the repair, not by the scenario.
fn availability_arm(
    base: &PGrid,
    down_fraction: f64,
    measure_repair: bool,
    queries: usize,
    seed: u64,
) -> GridArm {
    let mut rng = SimRng::new(seed);
    let n = base.len();

    // Availability mask via a churn timeline snapshot. The means are
    // floored so `down_fraction` 0.0 and 1.0 stay valid models.
    let alive: Option<Vec<bool>> = if down_fraction > 0.0 {
        let model = ChurnModel::new((1.0 - down_fraction).max(1e-6), down_fraction.max(1e-6));
        let tl = ChurnTimeline::generate(n, SimTime::from_secs(10), model, &mut rng);
        Some((0..n).map(|i| tl.is_up(i, SimTime::from_secs(5))).collect())
    } else {
        None
    };

    // Query origins are drawn from the live peers, enumerated once —
    // the old rejection-sampling loop spun forever when (nearly) every
    // peer was down. With nobody up, the whole query set fails.
    let live_origins: Vec<usize> = match alive.as_deref() {
        Some(mask) => (0..n).filter(|&i| mask[i]).collect(),
        None => (0..n).collect(),
    };
    if live_origins.is_empty() {
        return GridArm::dead(measure_repair);
    }

    // The query workload runs off a fork so the post-repair pass can
    // replay the identical sequence.
    let qrng = rng.fork(0xE6);
    let mut net = Network::new(NetConfig::default());
    let (success, hops_sum) = run_queries(
        base,
        alive.as_deref(),
        &live_origins,
        queries,
        &mut qrng.clone(),
        &mut net,
    );
    let msgs_per_query = net.total_sent() as f64 / queries as f64;
    let mean_hops = hops_sum as f64 / success.max(1) as f64;

    let success_repaired = measure_repair.then(|| {
        let mut grid = base.clone();
        if let Some(mask) = alive.as_deref() {
            grid.repair(mask, 4 * n, &mut rng);
        }
        let (repaired, _) = run_queries(
            &grid,
            alive.as_deref(),
            &live_origins,
            queries,
            &mut qrng.clone(),
            &mut net,
        );
        repaired as f64 / queries as f64
    });

    GridArm {
        mean_hops,
        msgs_per_query,
        success: success as f64 / queries as f64,
        success_repaired,
        join_maturity: None,
    }
}

/// The join/leave arm: true membership churn, not an availability mask.
/// ~5 % of the population requests admission (paced by the lifecycle
/// layer's bounded admission rate and backoff) while another ~5 % goes
/// silent and is evicted as stale; the query workload then runs over
/// the post-churn overlay. Success counts only live-origin lookups, and
/// `join_maturity` reports how completely the newcomers descended to
/// the configured depth.
fn join_leave_arm(base: &PGrid, queries: usize, seed: u64) -> GridArm {
    let mut rng = SimRng::new(seed);
    let mut grid = base.clone();
    let n = grid.len();
    let wave = (n / 20).max(2); // ~5% joins, ~5% leaves
    let per_tick = wave.div_ceil(8).max(1);
    let mut lc = Lifecycle::new(per_tick, n);
    for _ in 0..wave {
        lc.request_join();
    }
    // The leave side: a random ~5% of the bootstrap population goes
    // silent (never touched), crossing the staleness horizon at tick 3.
    let mut silent = vec![false; n];
    for i in rng.sample_indices(n, wave) {
        silent[i] = true;
    }
    for _ in 0..12 {
        for p in 0..grid.len() {
            if grid.is_live(p) && silent.get(p) != Some(&true) {
                lc.touch(p);
            }
        }
        lc.step(&mut grid, &mut rng);
    }

    let admitted = grid.len() - n;
    let mature = (n..grid.len())
        .filter(|&i| grid.is_live(i) && grid.path(i).len() == grid.config().max_depth)
        .count();
    let live_origins: Vec<usize> = (0..grid.len()).filter(|&i| grid.is_live(i)).collect();
    if live_origins.is_empty() {
        return GridArm::dead(false);
    }
    let mut net = Network::new(NetConfig::default());
    let mut qrng = rng.fork(0xE6);
    let (success, hops_sum) = run_queries(&grid, None, &live_origins, queries, &mut qrng, &mut net);
    GridArm {
        mean_hops: hops_sum as f64 / success.max(1) as f64,
        msgs_per_query: net.total_sent() as f64 / queries as f64,
        success: success as f64 / queries as f64,
        success_repaired: None,
        join_maturity: Some(mature as f64 / admitted.max(1) as f64),
    }
}

/// Compatibility shape of the old all-in-one measurement (used by the
/// E10 replication ablation): build a private base and run a single
/// availability arm over it.
fn measure_grid(
    n: usize,
    replication: usize,
    down_fraction: f64,
    measure_repair: bool,
    queries: usize,
    seed: u64,
) -> GridArm {
    let base = build_base(n, replication, seed);
    availability_arm(&base, down_fraction, measure_repair, queries, seed ^ 0x51E6)
}

/// E6 — *Figure R5*: reputation lookups cost `O(log N)` messages and
/// survive churn thanks to replication — the property the paper's
/// reference \[2\] rests on. Paper scale runs the ladder to 2¹⁸ peers.
///
/// Two pool fans with pinned merge order: first one base grid per
/// population rung (build + complaint seeding, the dominant cost, done
/// once instead of once per arm), then every `(rung, arm)` measurement —
/// three availability arms plus a join/leave churn arm — as pure
/// functions of the shared base and a pinned seed. `parallel_map`
/// returns results in submission order, so the table is bit-identical
/// for any thread count.
pub fn e6_pgrid(scale: Scale) -> Table {
    let sizes: &[usize] = scale.pick(
        &[32, 128][..],
        &[16, 64, 256, 1024, 4096, 16384, 65536, 262144][..],
    );
    let queries = scale.pick(100, 400);
    let mut table = Table::new(
        "E6: P-Grid lookup cost, availability and membership churn (replication 4)",
        &[
            "n_peers",
            "mean_hops",
            "msgs/query",
            "success@0%down",
            "success@10%down",
            "success@30%down",
            "success@30%down+repair",
            "success@join/leave",
            "join_maturity",
        ],
    );
    let bases = parallel_map(0, sizes.iter().enumerate().collect(), |_, (i, &n)| {
        build_base(n, 4, 0xE6B0 + i as u64)
    });

    // Three availability arms per size (the 30%-down arm also measures
    // the repaired-table success over its own query sequence), plus the
    // join/leave churn arm.
    const DOWN: [f64; 3] = [0.0, 0.10, 0.30];
    const ARMS_PER_RUNG: usize = DOWN.len() + 1;
    let arms: Vec<(usize, Option<f64>, u64)> = (0..sizes.len())
        .flat_map(|i| {
            DOWN.iter()
                .enumerate()
                .map(move |(j, &down)| (i, Some(down), 0xE600 + 16 * i as u64 + j as u64))
                .chain([(i, None, 0xE600 + 16 * i as u64 + DOWN.len() as u64)])
        })
        .collect();
    let results = parallel_map(0, arms, |_, (rung, down, seed)| match down {
        Some(down) => availability_arm(&bases[rung], down, down == 0.30, queries, seed),
        None => join_leave_arm(&bases[rung], queries, seed),
    });
    for (i, &n) in sizes.iter().enumerate() {
        let clean = &results[ARMS_PER_RUNG * i];
        let churn10 = &results[ARMS_PER_RUNG * i + 1];
        let churn30 = &results[ARMS_PER_RUNG * i + 2];
        let joinleave = &results[ARMS_PER_RUNG * i + 3];
        table.push_row(vec![
            n.into(),
            clean.mean_hops.into(),
            clean.msgs_per_query.into(),
            clean.success.into(),
            churn10.success.into(),
            churn30.success.into(),
            churn30.success_repaired.expect("repair pass ran").into(),
            joinleave.success.into(),
            joinleave.join_maturity.expect("churn arm ran").into(),
        ]);
    }
    table
}

/// E10 — *Table R4*: ablations of four design choices: payment policy,
/// gossip fan-out, storage replication and risk attitude.
///
/// The market arms of all three simulation groups fan out across the
/// worker pool in one batch (each arm pins its own seed); rows are
/// emitted in declaration order afterwards, so the table is identical
/// for every thread count.
pub fn e10_ablations(scale: Scale) -> Table {
    let mut table = Table::new(
        "E10: ablations (metric depends on row group)",
        &["group", "variant", "metric", "value"],
    );
    let sim_cfg = |scale: Scale| MarketConfig {
        n_agents: scale.pick(40, 120),
        rounds: scale.pick(6, 25),
        sessions_per_round: scale.pick(40, 120),
        ..MarketConfig::default()
    };

    // (a) Payment policy: realized honest losses per session in a 30%
    // dishonest market (exposure splits differently).
    let mut labels: Vec<(&str, String, &str)> = Vec::new();
    let mut arms: Vec<MarketConfig> = Vec::new();
    for policy in PaymentPolicy::ALL {
        labels.push((
            "payment-policy",
            policy.label().to_owned(),
            "honest_losses/sess",
        ));
        arms.push(MarketConfig {
            payment_policy: policy,
            strategy: Strategy::TrustAware,
            workload: Workload::FileSharing,
            seed: 0xA0,
            ..sim_cfg(scale)
        });
    }

    // (b) Gossip fan-out: final MAE with 0 / 3 / 10 witnesses.
    for gossip in [0usize, 3, 10] {
        labels.push(("gossip", format!("k={gossip}"), "final_mae"));
        arms.push(MarketConfig {
            gossip_witnesses: gossip,
            model: ModelKind::Mean,
            mix: PopulationMix::standard(0.3, 0.0),
            strategy: Strategy::UnsafeDeliverFirst,
            seed: 0xA1,
            ..sim_cfg(scale)
        });
    }

    // (d) Trust model under heavy lying (50% of dishonest agents lie).
    for model in [ModelKind::Beta, ModelKind::Mean] {
        labels.push(("witness-discounting", model.label().to_owned(), "final_mae"));
        arms.push(MarketConfig {
            model,
            mix: PopulationMix::standard(0.3, 0.5),
            strategy: Strategy::UnsafeDeliverFirst,
            seed: 0xA3,
            ..sim_cfg(scale)
        });
    }

    let reports = run_arms(arms);
    let mut rows = labels.iter().zip(&reports);
    let mut take_rows = |count: usize, table: &mut Table| {
        for _ in 0..count {
            let ((group, variant, metric), r) = rows.next().expect("arm per label");
            let value = match *metric {
                "honest_losses/sess" => r.honest_losses / r.sessions.max(1) as f64,
                _ => r.final_mae,
            };
            table.push_row(vec![
                (*group).into(),
                variant.clone().into(),
                (*metric).into(),
                value.into(),
            ]);
        }
    };
    take_rows(PaymentPolicy::ALL.len(), &mut table);
    take_rows(3, &mut table);

    // (c) Replication factor: query success under 30% down peers — also
    // independent arms, fanned out over the pool.
    let repls = [1usize, 2, 4, 8];
    let successes = parallel_map(0, repls.to_vec(), |_, repl| {
        let n = scale.pick(64, 512);
        measure_grid(n, repl, 0.30, false, scale.pick(100, 300), 0xA2).success
    });
    for (repl, success) in repls.into_iter().zip(successes) {
        table.push_row(vec![
            "replication".into(),
            format!("r={repl}").into(),
            "success@30%down".into(),
            success.into(),
        ]);
    }

    take_rows(2, &mut table);

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
    fn e6_hops_scale_logarithmically() {
        let t = e6_pgrid(Scale::Smoke);
        let rows = t.rows();
        // Mean hops should be ≈ trie depth: ~log2(n/4), certainly < 10.
        for row in rows {
            assert!(num(&row[1]) < 10.0, "{row:?}");
            assert!(num(&row[3]) > 0.9, "no-churn success: {row:?}");
        }
        // Hops grow sub-linearly: quadrupling n adds ≲ 2.5 hops.
        if rows.len() >= 2 {
            let delta = num(&rows[rows.len() - 1][1]) - num(&rows[0][1]);
            assert!(delta <= 2.5, "hops growth {delta}");
        }
    }

    #[test]
    fn e6_churn_degrades_gracefully() {
        let t = e6_pgrid(Scale::Smoke);
        for row in t.rows() {
            assert!(num(&row[4]) >= num(&row[5]) - 0.05, "{row:?}");
            assert!(num(&row[5]) > 0.5, "30% churn should retain >50%: {row:?}");
        }
    }

    #[test]
    fn e6_repair_recovers_churn_losses() {
        let t = e6_pgrid(Scale::Smoke);
        for row in t.rows() {
            // The repair arm replays the 30%-down arm's exact scenario
            // (same grid, mask, queries): repairing the reference tables
            // must not lose availability — dead replica groups are the
            // only remaining failure mode — and should approach the
            // no-churn ceiling.
            assert!(num(&row[6]) >= num(&row[5]) - 0.02, "{row:?}");
            assert!(
                num(&row[6]) > 0.85,
                "repair should restore routing: {row:?}"
            );
        }
    }

    #[test]
    fn e6_membership_churn_keeps_lookups_alive() {
        let t = e6_pgrid(Scale::Smoke);
        for row in t.rows() {
            // ~5% real joins + ~5% real leaves: the overlay absorbs the
            // wave — lookups stay close to the no-churn column, and the
            // admitted peers integrate to full depth.
            assert!(
                num(&row[7]) >= num(&row[3]) - 0.15,
                "join/leave success collapsed: {row:?}"
            );
            assert!(
                num(&row[8]) > 0.9,
                "admitted peers failed to descend: {row:?}"
            );
        }
    }

    #[test]
    fn measure_grid_survives_total_blackout() {
        // Regression: the origin sampler used to rejection-sample forever
        // when every peer was down. A full blackout must terminate and
        // report a failed query set.
        let arm = measure_grid(64, 4, 1.0, true, 50, 0xB1AC0);
        assert_eq!(arm.success, 0.0, "no live peers: every query fails");
        assert_eq!(arm.mean_hops, 0.0);
        assert_eq!(arm.msgs_per_query, 0.0);
        assert_eq!(arm.success_repaired, Some(0.0), "repair cannot help nobody");
        // A near-blackout (a handful of survivors) must also terminate,
        // with or without the repair pass.
        let arm = measure_grid(64, 4, 0.999, true, 50, 0xB1AC);
        assert!(arm.success <= 0.1, "near-blackout cannot succeed");
        assert!(arm.success_repaired.expect("repair pass ran") <= 0.1);
    }

    #[test]
    fn e10_replication_improves_availability() {
        let t = e10_ablations(Scale::Smoke);
        let repl: Vec<f64> = t
            .rows()
            .iter()
            .filter(|r| matches!(&r[0], Cell::Text(s) if s == "replication"))
            .map(|r| num(&r[3]))
            .collect();
        assert_eq!(repl.len(), 4);
        assert!(repl[3] > repl[0], "r=8 must beat r=1 under churn: {repl:?}");
    }

    #[test]
    fn e10_has_all_groups() {
        let t = e10_ablations(Scale::Smoke);
        for group in [
            "payment-policy",
            "gossip",
            "replication",
            "witness-discounting",
        ] {
            assert!(
                t.rows()
                    .iter()
                    .any(|r| matches!(&r[0], Cell::Text(s) if s == group)),
                "missing group {group}"
            );
        }
    }
}
