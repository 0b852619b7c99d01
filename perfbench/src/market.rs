//! `market`: the paper's Figure-1 loop. One batch is one complete
//! simulation (`MarketSim::new` + `run`) of 1000 agents × 1000 sessions
//! per round × 10 rounds, seeded from the workload seed and the batch
//! index. One op is one attempted session. Pool size 1.
//!
//! The sim hides its internals behind `run`, so the traced run re-drives
//! each public layer call the sim makes (deal generation, snapshot
//! predict, `strategy::plan`, `execute`, `record_direct`,
//! `deliver_witness_report`, `accuracy_metrics`) on the batch's own
//! generated inputs, and weighs the per-call times with the exact call
//! counts of the batch's `MarketReport`.

use crate::probe::{quantile, timed, Acc, Guard, Layers, Phase, Schedule};
use crate::{Ctx, Outcome};
use std::hint::black_box;
use std::time::Instant;
use trustex_agents::profile::PopulationMix;
use trustex_core::execute::{execute, ExchangeStatus};
use trustex_core::state::Role;
use trustex_market::metrics::{accuracy_metrics, cooperation_truth};
use trustex_market::population::{Community, ModelKind};
use trustex_market::sim::{MarketConfig, MarketReport, MarketSim};
use trustex_market::strategy::{plan, Strategy};
use trustex_market::workload::Workload;
use trustex_netsim::backoff::splitmix64;
use trustex_netsim::rng::SimRng;
use trustex_trust::model::{Conduct, PeerId, WitnessReport};

const AGENTS: usize = 1000;
const ROUNDS: u64 = 10;
const SESSIONS_PER_ROUND: usize = 1000;
const WITNESSES: usize = 3;
/// A batch is a whole sim, so a cycle is one batch. Set-up is one
/// warm-up sim, ~0.1 s.
const SCHEDULE: Schedule = Schedule {
    guard_batches: 16,
    cycle_batches: 1,
    setup_reps: 32,
};
/// Salt separating the set-up warm-up sim's seed from batch seeds.
const WARMUP_SALT: u64 = 0x3A7E_0F0F_1234_5678;

fn config(seed: u64) -> MarketConfig {
    MarketConfig {
        n_agents: AGENTS,
        rounds: ROUNDS,
        sessions_per_round: SESSIONS_PER_ROUND,
        mix: PopulationMix::standard(0.3, 0.25),
        model: ModelKind::Beta,
        strategy: Strategy::TrustAware,
        workload: Workload::Ebay,
        gossip_witnesses: WITNESSES,
        seed,
        threads: 1,
        ..MarketConfig::default()
    }
}

fn batch_seed(seed: u64, batch: u64) -> u64 {
    splitmix64(seed ^ splitmix64(batch.wrapping_add(1)))
}

/// The report invariants every batch must satisfy.
fn check(report: &MarketReport) -> Result<(), String> {
    let sessions = ROUNDS * SESSIONS_PER_ROUND as u64;
    if report.sessions != sessions {
        return Err(format!("{} sessions, expected {sessions}", report.sessions));
    }
    if report.sessions != report.completed + report.aborted + report.no_trade {
        return Err("sessions != completed + aborted + no_trade".into());
    }
    if report.witness_delivered > report.witness_attempted {
        return Err("more witness reports delivered than attempted".into());
    }
    for (name, v) in [
        ("mae", report.final_mae),
        ("rank accuracy", report.final_rank_accuracy),
        ("decision accuracy", report.final_decision_accuracy),
    ] {
        if !(v.is_finite() && (0.0..=1.0).contains(&v)) {
            return Err(format!("{name} {v} outside [0, 1]"));
        }
    }
    Ok(())
}

/// Per-call probe times of one re-driven simulation.
#[derive(Default)]
struct Probe {
    deal: Acc,
    predict: Acc,
    plan: Acc,
    execute: Acc,
    record_direct: Acc,
    deliver: Acc,
    accuracy: Acc,
}

impl Probe {
    fn merge(&mut self, other: Probe) {
        self.deal.merge(other.deal);
        self.predict.merge(other.predict);
        self.plan.merge(other.plan);
        self.execute.merge(other.execute);
        self.record_direct.merge(other.record_direct);
        self.deliver.merge(other.deliver);
        self.accuracy.merge(other.accuracy);
    }
}

/// One traded session awaiting feedback in the re-drive.
struct Traded {
    supplier: PeerId,
    consumer: PeerId,
    supplier_conduct: Conduct,
    consumer_conduct: Conduct,
    feedback: SimRng,
}

/// Re-drives the simulation's public layer calls on the batch's inputs:
/// the same community sample, session draws and RNG forks as the sim,
/// with every call of one kind in a round timed as one block. Returns
/// the probe times and the re-drive's (traded sessions, witness
/// deliveries), which must equal the sim's report when the re-drive
/// still follows the sim.
fn redrive(cfg: &MarketConfig) -> (Probe, u64, u64) {
    let mut p = Probe::default();
    let (mut traded_total, mut delivered_total) = (0u64, 0u64);
    let mut rng = SimRng::new(cfg.seed);
    let mut community = Community::new(cfg.n_agents, &cfg.mix, cfg.model, &mut rng);
    let n = community.len();
    let k = cfg.gossip_witnesses.min(n - 2);
    for round in 0..cfg.rounds {
        let count = cfg.sessions_per_round;
        let mut deal_rng = rng.clone();
        p.deal.time(count as u64, || {
            for _ in 0..count {
                black_box(cfg.workload.generate_deal(&mut deal_rng));
            }
        });
        let mut draws = Vec::with_capacity(count);
        for _ in 0..count {
            let supplier = PeerId(rng.index(n) as u32);
            let consumer = loop {
                let c = PeerId(rng.index(n) as u32);
                if c != supplier {
                    break c;
                }
            };
            let deal = cfg.workload.generate_deal(&mut rng);
            let forks = [rng.fork(0xD1CE), rng.fork(0xFACE), rng.fork(0xF00D)];
            draws.push((supplier, consumer, deal, forks));
        }
        let snapshot = community.snapshot();
        let trusts: Vec<_> = p.predict.time(2 * count as u64, || {
            draws
                .iter()
                .map(|(s, c, _, _)| (snapshot.predict(*s, *c), snapshot.predict(*c, *s)))
                .collect()
        });
        drop(snapshot);
        let plans: Vec<_> = p.plan.time(count as u64, || {
            draws
                .iter()
                .zip(&trusts)
                .map(|((_, _, deal, _), &(st, ct))| {
                    plan(cfg.strategy, deal, st, ct, cfg.payment_policy).ok()
                })
                .collect()
        });
        let t = Instant::now();
        let mut traded = Vec::new();
        for ((supplier, consumer, deal, forks), sequence) in draws.into_iter().zip(plans) {
            let Some(sequence) = sequence else { continue };
            let [mut rng_s, mut rng_c, feedback] = forks;
            let s_behavior = community.profile(supplier).exchange;
            let c_behavior = community.profile(consumer).exchange;
            let mut s_oracle = s_behavior.oracle(round, &mut rng_s);
            let mut c_oracle = c_behavior.oracle(round, &mut rng_c);
            let outcome = execute(&deal, &sequence, &mut s_oracle, &mut c_oracle);
            let defected =
                |role| matches!(outcome.status, ExchangeStatus::Aborted { by, .. } if by == role);
            traded.push(Traded {
                supplier,
                consumer,
                supplier_conduct: Conduct::from_honest(!defected(Role::Supplier)),
                consumer_conduct: Conduct::from_honest(!defected(Role::Consumer)),
                feedback,
            });
        }
        p.execute.add(t.elapsed(), traded.len() as u64);
        p.record_direct.time(2 * traded.len() as u64, || {
            for s in &traded {
                community.record_direct(s.supplier, s.consumer, s.consumer_conduct, round);
                community.record_direct(s.consumer, s.supplier, s.supplier_conduct, round);
            }
        });
        // Witness gossip as the sim draws it: shaped by the observer's
        // reporting behaviour, to k distinct agents other than the pair.
        let mut deliveries = Vec::new();
        for s in &mut traded {
            for (witness, subject, truth) in [
                (s.supplier, s.consumer, s.consumer_conduct),
                (s.consumer, s.supplier, s.supplier_conduct),
            ] {
                let profile = community.profile(witness);
                let faction = community.profile(subject).faction;
                let Some(conduct) = profile
                    .reporting
                    .report_about(truth, profile.faction, faction)
                else {
                    continue;
                };
                let mut excluded = [witness.index(), subject.index()];
                excluded.sort_unstable();
                for raw in s.feedback.sample_indices(n - 2, k) {
                    let t = raw + usize::from(raw >= excluded[0]);
                    let t = t + usize::from(t >= excluded[1]);
                    deliveries.push((
                        PeerId(t as u32),
                        WitnessReport {
                            witness,
                            subject,
                            conduct,
                            round,
                        },
                    ));
                }
            }
        }
        traded_total += traded.len() as u64;
        delivered_total += p.deliver.time(deliveries.len() as u64, || {
            deliveries
                .into_iter()
                .filter(|&(target, report)| community.deliver_witness_report(target, report))
                .count() as u64
        });
    }
    let truth = cooperation_truth(&community);
    p.accuracy
        .time(1, || black_box(accuracy_metrics(&community, &truth, 1)));
    (p, traded_total, delivered_total)
}

pub fn run(ctx: &Ctx) -> Outcome {
    trustex_netsim::pool::set_default_threads(1);
    // Set-up: a warm-up simulation (allocator, page and cache warm-up).
    let warm_up = || black_box(MarketSim::new(config(ctx.seed ^ WARMUP_SALT)).run());
    let (_, first_setup_s) = timed(warm_up);

    let mut phase = Phase::start(ctx, &SCHEDULE, first_setup_s);
    let mut guard = Guard::default();
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut probes = Probe::default();
    let (mut new_ms, mut run_ms, mut unattributed) = (Vec::new(), Vec::new(), Vec::new());
    while phase.running() {
        phase.between_batches(warm_up);
        let batch = phase.batch_index();
        let cfg = config(batch_seed(ctx.seed, batch));
        let t = Instant::now();
        let sim = MarketSim::new(cfg.clone());
        let built = t.elapsed();
        let report = sim.run();
        let elapsed = t.elapsed();
        let sessions = report.sessions;
        attempted += sessions;
        let checked = check(&report);
        if let Err(e) = &checked {
            failed += sessions;
            problems.push(format!("batch {batch}: {e}"));
        }
        let traded = report.completed + report.aborted;
        if phase.in_guard() {
            guard.add("sessions", sessions);
            guard.add("completed", report.completed);
            guard.add("aborted", report.aborted);
            guard.add("no_trade", report.no_trade);
            guard.add("witness_attempted", report.witness_attempted);
            guard.add("witness_delivered", report.witness_delivered);
            guard.mix_f64("accuracy_bits", report.final_mae);
            guard.mix_f64("accuracy_bits", report.final_rank_accuracy);
            guard.mix_f64("accuracy_bits", report.final_decision_accuracy);
            guard.add("failed", u64::from(checked.is_err()));
        }
        phase.record(elapsed, sessions);
        if ctx.trace {
            let sim_run = (elapsed - built).as_secs_f64();
            new_ms.push(built.as_secs_f64() * 1e3);
            run_ms.push(sim_run * 1e3);
            let (p, redrive_traded, redrive_delivered) = redrive(&cfg);
            if (redrive_traded, redrive_delivered) != (traded, report.witness_delivered) {
                // The probes no longer time the sim's workload; their
                // figures and the unattributed share would be wrong.
                eprintln!(
                    "perfbench: market re-drive of batch {batch} diverged from the sim: \
                     {redrive_traded} traded / {redrive_delivered} witness deliveries, \
                     report has {traded} / {}",
                    report.witness_delivered
                );
                std::process::exit(1);
            }
            // Exact call counts from the report; the accuracy pass runs
            // once per sim.
            let attributed = p.deal.mean_s() * sessions as f64
                + p.predict.mean_s() * 2.0 * sessions as f64
                + p.plan.mean_s() * sessions as f64
                + p.execute.mean_s() * traded as f64
                + p.record_direct.mean_s() * 2.0 * traded as f64
                + p.deliver.mean_s() * report.witness_delivered as f64
                + p.accuracy.mean_s();
            unattributed.push(1.0 - attributed / sim_run);
            probes.merge(p);
        }
    }
    let phase = phase.finish(warm_up);

    let mut layers = Layers::default();
    let sessions = guard.get("sessions") as f64;
    let traded = (guard.get("completed") + guard.get("aborted")) as f64;
    layers.set("market.traded_ratio", traded / sessions);
    layers.set(
        "market.completion_ratio",
        guard.get("completed") as f64 / sessions,
    );
    layers.set(
        "market.witness_attempted",
        guard.get("witness_attempted") as f64,
    );
    layers.set(
        "market.witness_delivery_ratio",
        guard.get("witness_delivered") as f64 / guard.get("witness_attempted").max(1) as f64,
    );
    if ctx.trace {
        layers.set("market.sim_new_ms", quantile(&new_ms, 0.5));
        layers.set("market.sim_run_ms", quantile(&run_ms, 0.5));
        layers.set("market.accuracy_ms", probes.accuracy.mean_s() * 1e3);
        layers.set("market.deal_ns", probes.deal.mean_s() * 1e9);
        layers.set("trust.predict_ns", probes.predict.mean_s() * 1e9);
        layers.set("decision.plan_us", probes.plan.mean_s() * 1e6);
        layers.set("core.execute_us", probes.execute.mean_s() * 1e6);
        layers.set(
            "trust.record_direct_ns",
            probes.record_direct.mean_s() * 1e9,
        );
        layers.set("trust.deliver_witness_ns", probes.deliver.mean_s() * 1e9);
        layers.set("market.unattributed_share", quantile(&unattributed, 0.5));
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
