//! The end-to-end marketplace simulation: Figure 1 as a running loop.
//!
//! Every round, random pairs strike deals from a [`Workload`], schedule
//! them with a [`Strategy`], execute against the agents' true behaviours,
//! and feed the observed conduct back into trust models and gossip — the
//! full reputation → trust → decision → exchange → feedback cycle of the
//! paper's reference model.
//!
//! # Parallel execution model
//!
//! Rounds run in three phases so session execution can be sharded across
//! worker threads without giving up bit-for-bit reproducibility:
//!
//! 1. **Draw** (sequential): every session's participants, deal and
//!    per-party RNG forks are drawn from the master stream up front, so
//!    master-stream consumption never depends on trust state or timing.
//! 2. **Execute** (parallel): sessions are planned against the trust
//!    state at round start and executed concurrently via
//!    [`trustex_netsim::pool::parallel_map`]; each session reads the
//!    community through one borrowed, sealed [`CommunitySnapshot`] and
//!    owns its pre-forked streams.
//! 3. **Merge** (sequential): outcomes are folded in session order —
//!    accounting, direct-experience feedback, witness gossip and slander
//!    all replay deterministically from each session's feedback fork.
//!    The snapshot is gone by now, so the merge writes the community's
//!    models in place.
//!
//! The thread count therefore changes wall-clock time, never the
//! [`MarketReport`]: `threads ∈ {1, 2, 8}` produce identical output for
//! the same seed (enforced by the cross-thread determinism tests).

use crate::metrics::{accuracy_metrics, cooperation_truth};
use crate::population::{Community, CommunitySnapshot, DefenseConfig, ModelKind};
use crate::strategy::{plan, Strategy};
use crate::workload::Workload;
use trustex_agents::adversary::Faction;
use trustex_agents::profile::PopulationMix;
use trustex_agents::reporting::Campaign;
use trustex_core::deal::Deal;
use trustex_core::execute::{execute, ExchangeOutcome, ExchangeStatus};
use trustex_core::policy::PaymentPolicy;
use trustex_core::state::Role;
use trustex_netsim::backoff::RetryPolicy;
use trustex_netsim::event::EventQueue;
use trustex_netsim::fault::{FaultConfig, FaultFate, FaultPlane};
use trustex_netsim::pool::{parallel_map, resolve_threads};
use trustex_netsim::rng::SimRng;
use trustex_netsim::time::SimTime;
use trustex_trust::model::{Conduct, PeerId, WitnessReport};

/// Virtual wall-clock span of one market round — the time base the
/// fault plane's partition episodes and the retransmission backoff are
/// scheduled against.
pub const ROUND_SPAN: SimTime = SimTime::from_millis(10);

/// Witness-delivery fraction below which evaluators degrade to
/// direct-evidence-only prediction (when the chaos config opts in).
const WITNESS_QUORUM: f64 = 0.5;

/// Bounded retransmission budget for lost witness reports: doubling
/// from 2 ms to a 64 ms ceiling across up to 10 attempts spans several
/// rounds, enough to straddle the partition heals e14 schedules.
const RETX_POLICY: RetryPolicy = RetryPolicy {
    max_attempts: 10,
    base_us: 2_000,
    cap_us: 64_000,
};

/// Retransmission queue bound; entries past it are dropped (counted).
/// Sized for paper scale: a 150-agent run under a 20-round bisect holds
/// every cross-partition emission on backoff at once, which overflows a
/// 4 096-entry queue and silently halves the defended delivery rate.
const RETX_QUEUE_CAP: usize = 65_536;

/// Chaos knobs for a market run: witness gossip is delivered through a
/// seeded fault plane, with optional bounded retransmission of lost
/// reports and optional quorum-gated graceful degradation. The default
/// is a zero-fault plane with both defenses off, which delivers every
/// report exactly once.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChaosConfig {
    /// The fault plane's knobs (loss, duplication, delay, partitions);
    /// the plane itself is seeded from the market seed. Gossip reads
    /// only a fate's kind (delivered, lost or blocked) and its
    /// duplicates: `extra_delay_max_us` has no effect here, and a
    /// report delivered on its first attempt lands in the round it was
    /// emitted in whatever delay is configured.
    pub fault: FaultConfig,
    /// Retransmit lost/blocked reports on a bounded backoff schedule.
    pub retry: bool,
    /// Fall back to direct-evidence-only prediction while the witness
    /// quorum is unreachable, instead of treating silence as absence.
    pub degrade: bool,
}

/// Configuration of one market simulation.
#[derive(Debug, Clone)]
pub struct MarketConfig {
    /// Community size.
    pub n_agents: usize,
    /// Number of rounds.
    pub rounds: u64,
    /// Exchange sessions attempted per round.
    pub sessions_per_round: usize,
    /// Population composition.
    pub mix: PopulationMix,
    /// Trust model run by every agent.
    pub model: ModelKind,
    /// Scheduling strategy.
    pub strategy: Strategy,
    /// Deal generator.
    pub workload: Workload,
    /// Payment interleaving policy.
    pub payment_policy: PaymentPolicy,
    /// Witnesses each party gossips its observation to after a session.
    pub gossip_witnesses: usize,
    /// Master seed; equal seeds reproduce runs exactly.
    pub seed: u64,
    /// Community-level defenses against coordinated reporting attacks
    /// (both off by default).
    pub defense: DefenseConfig,
    /// Record O(n²) trust metrics every round (else only at the end).
    pub track_trust_per_round: bool,
    /// Message-level chaos: the fault plane witness gossip crosses.
    /// The default plane is transparent: every report arrives once.
    pub chaos: ChaosConfig,
    /// Worker threads for the sharded session executor (0 = auto via
    /// [`trustex_netsim::pool::default_threads`]). Any value yields the
    /// same report; only wall-clock time changes.
    pub threads: usize,
}

impl Default for MarketConfig {
    fn default() -> Self {
        MarketConfig {
            n_agents: 100,
            rounds: 30,
            sessions_per_round: 100,
            mix: PopulationMix::standard(0.3, 0.25),
            model: ModelKind::Beta,
            strategy: Strategy::TrustAware,
            workload: Workload::Ebay,
            payment_policy: PaymentPolicy::Lazy,
            gossip_witnesses: 3,
            seed: 42,
            defense: DefenseConfig::default(),
            track_trust_per_round: false,
            chaos: ChaosConfig::default(),
            threads: 0,
        }
    }
}

impl MarketConfig {
    /// The configuration's rules: at least two agents (a session needs
    /// two distinct parties, and the distinct-consumer rejection loop in
    /// the session draw would otherwise never terminate), and a valid
    /// chaos fault plane (see [`FaultConfig::validate`]). Returns the
    /// first rule violated.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.n_agents < 2 {
            return Err(
                "MarketConfig::n_agents must be ≥ 2 (a session needs two distinct parties)",
            );
        }
        self.chaos.fault.validate()
    }
}

/// Per-round aggregates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundStats {
    /// Round index.
    pub round: u64,
    /// Sessions attempted.
    pub sessions: u64,
    /// Sessions that ran to completion.
    pub completed: u64,
    /// Sessions aborted by a defection.
    pub aborted: u64,
    /// Sessions never scheduled (declined or infeasible).
    pub no_trade: u64,
    /// Realized welfare (sum of both parties' gains), major units.
    pub welfare: f64,
    /// Losses (negative gains) suffered by fundamentally honest agents.
    pub honest_losses: f64,
    /// Trust MAE at the end of the round, when tracked.
    pub trust_mae: Option<f64>,
}

/// Whole-run aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct MarketReport {
    /// Per-round statistics.
    pub per_round: Vec<RoundStats>,
    /// Total sessions attempted.
    pub sessions: u64,
    /// Total completed.
    pub completed: u64,
    /// Total aborted by defection.
    pub aborted: u64,
    /// Total unscheduled (declined / infeasible).
    pub no_trade: u64,
    /// Total realized welfare, major units.
    pub total_welfare: f64,
    /// Total gains of fundamentally honest agents.
    pub honest_gain: f64,
    /// Total gains of dishonest agents.
    pub dishonest_gain: f64,
    /// Total losses suffered by honest agents.
    pub honest_losses: f64,
    /// Final trust MAE over all pairs.
    pub final_mae: f64,
    /// Final ranking accuracy (AUC analogue).
    pub final_rank_accuracy: f64,
    /// Final decision accuracy (threshold 0.5).
    pub final_decision_accuracy: f64,
    /// Witness-report emissions attempted (one per logical report and
    /// target, retransmissions excluded).
    pub witness_attempted: u64,
    /// Witness-report emissions that reached the target's model (first
    /// copy only; rate-capped and faulted deliveries excluded).
    pub witness_delivered: u64,
    /// Lost reports whose retransmission was dropped because the
    /// retransmission queue was full.
    pub retx_queue_full: u64,
    /// Lost reports abandoned after the retry policy's last attempt.
    pub retx_exhausted: u64,
}

impl MarketReport {
    /// Completed / attempted (0 when nothing attempted).
    pub fn completion_rate(&self) -> f64 {
        if self.sessions == 0 {
            0.0
        } else {
            self.completed as f64 / self.sessions as f64
        }
    }

    /// Fraction of sessions that were never scheduled.
    pub fn no_trade_rate(&self) -> f64 {
        if self.sessions == 0 {
            0.0
        } else {
            self.no_trade as f64 / self.sessions as f64
        }
    }

    /// Mean welfare per attempted session.
    pub fn welfare_per_session(&self) -> f64 {
        if self.sessions == 0 {
            0.0
        } else {
            self.total_welfare / self.sessions as f64
        }
    }

    /// Delivered / attempted witness emissions (1.0 when none attempted).
    pub fn witness_delivery_rate(&self) -> f64 {
        if self.witness_attempted == 0 {
            1.0
        } else {
            self.witness_delivered as f64 / self.witness_attempted as f64
        }
    }
}

/// Everything one session needs before execution, pre-drawn from the
/// master stream so execution order cannot perturb determinism.
struct SessionDraw {
    supplier: PeerId,
    consumer: PeerId,
    deal: Deal,
    rng_supplier: SimRng,
    rng_consumer: SimRng,
}

/// The sequential remainder of a session: who traded, plus the fork that
/// replays feedback-side randomness (slander targets, gossip witnesses).
struct SessionPost {
    supplier: PeerId,
    consumer: PeerId,
    rng_feedback: SimRng,
}

/// What the parallel executor hands back to the merge phase.
enum SessionOutcome {
    /// The strategy declined or found no feasible sequence.
    NoTrade,
    /// The exchange ran (to completion or first defection).
    Traded(ExchangeOutcome),
}

/// Faction rosters scanned once from the sampled profiles: the shared
/// coordination state the campaign dispatch resolves targets against.
/// All pools are in ascending id order (construction scans ids in
/// order), which `pick_other`'s exclusion shift relies on.
#[derive(Debug, Default)]
struct Coordination {
    /// Agents marked as targets of slander campaigns.
    victims: Vec<PeerId>,
    /// Collusion-ring membership, indexed by ring id.
    rings: Vec<Vec<PeerId>>,
    /// Sybil-cell membership, indexed by cell id.
    cells: Vec<Vec<PeerId>>,
    /// `(agent, period)` identity churners; whitewash fires at the end
    /// of every `period`-th round.
    whitewashers: Vec<(PeerId, u64)>,
}

impl Coordination {
    fn scan(community: &Community) -> Coordination {
        let mut coordination = Coordination::default();
        for agent in community.agent_ids() {
            match community.profile(agent).faction {
                Faction::None | Faction::SlanderCell => {}
                Faction::Victim => coordination.victims.push(agent),
                Faction::Ring(ring) => {
                    let ring = ring as usize;
                    if coordination.rings.len() <= ring {
                        coordination.rings.resize_with(ring + 1, Vec::new);
                    }
                    coordination.rings[ring].push(agent);
                }
                Faction::Sybil { cell, .. } => {
                    let cell = cell as usize;
                    if coordination.cells.len() <= cell {
                        coordination.cells.resize_with(cell + 1, Vec::new);
                    }
                    coordination.cells[cell].push(agent);
                }
                Faction::Whitewash { period } => {
                    coordination.whitewashers.push((agent, period.max(1)));
                }
            }
        }
        coordination
    }
}

/// Uniformly picks a member of the sorted `pool` other than `exclude`.
/// Draws from the RNG only when a choice exists; `None` when the pool is
/// empty or holds only `exclude`.
fn pick_other(pool: &[PeerId], exclude: PeerId, rng: &mut SimRng) -> Option<PeerId> {
    match pool.binary_search(&exclude) {
        Ok(at) => {
            if pool.len() <= 1 {
                None
            } else {
                Some(pool[rng.index_except(pool.len(), at)])
            }
        }
        Err(_) => {
            if pool.is_empty() {
                None
            } else {
                Some(pool[rng.index(pool.len())])
            }
        }
    }
}

/// One lost witness report awaiting retransmission.
#[derive(Debug, Clone, Copy)]
struct RetxEntry {
    /// The original emission's sequence number, which keys the
    /// backoff jitter of every retransmission.
    emission: u64,
    target: PeerId,
    report: WitnessReport,
    /// Failed wire attempts so far (0 before the first send).
    attempts: u32,
}

/// The simulation driver.
#[derive(Debug)]
pub struct MarketSim {
    cfg: MarketConfig,
    community: Community,
    /// Faction rosters for the coordinated-attack campaign dispatch.
    coordination: Coordination,
    rng: SimRng,
    honest_gain: f64,
    dishonest_gain: f64,
    /// Ground-truth cooperation probabilities, fixed at construction and
    /// reused by every per-round MAE evaluation.
    truth: Vec<f64>,
    /// The witness-gossip fault plane (transparent without chaos).
    plane: FaultPlane,
    /// Monotone per-wire-attempt sequence keying every fault decision.
    gossip_seq: u64,
    /// Bounded retransmission queue for lost/blocked reports, drained
    /// on the virtual clock at each round boundary.
    retx: EventQueue<RetxEntry>,
    /// Retransmissions dropped because the queue was full.
    retx_queue_full: u64,
    /// Lost reports given up after the policy's last attempt.
    retx_exhausted: u64,
    /// Reused per-call buffer of [`MarketSim::gossip`]'s targets.
    gossip_targets: Vec<PeerId>,
    witness_attempted: u64,
    witness_delivered: u64,
    /// Current-round emission/delivery counts driving the quorum gate.
    round_attempted: u64,
    round_delivered: u64,
}

impl MarketSim {
    /// Builds the simulation (samples the population).
    ///
    /// # Panics
    ///
    /// Panics with the violated rule if `cfg` is invalid (see
    /// [`MarketConfig::validate`]).
    pub fn new(cfg: MarketConfig) -> MarketSim {
        if let Err(rule) = cfg.validate() {
            panic!("{rule}");
        }
        let mut rng = SimRng::new(cfg.seed);
        let mut community =
            Community::with_defense(cfg.n_agents, &cfg.mix, cfg.model, cfg.defense, &mut rng);
        // The plane seed derives from the run seed through a fixed salt
        // (a pure hash, no draw), so chaos runs replay bit-for-bit and
        // chaos-free runs consume an unchanged RNG stream.
        let plane = FaultPlane::new(
            trustex_netsim::backoff::splitmix64(cfg.seed ^ 0xC4A0_5C4A_05C4_A05C),
            cfg.chaos.fault,
        );
        if cfg.chaos.degrade {
            community.enable_direct_ledger();
        }
        let coordination = Coordination::scan(&community);
        let truth = cooperation_truth(&community);
        MarketSim {
            cfg,
            community,
            coordination,
            rng,
            honest_gain: 0.0,
            dishonest_gain: 0.0,
            truth,
            plane,
            gossip_seq: 0,
            retx: EventQueue::new(),
            retx_queue_full: 0,
            retx_exhausted: 0,
            gossip_targets: Vec::new(),
            witness_attempted: 0,
            witness_delivered: 0,
            round_attempted: 0,
            round_delivered: 0,
        }
    }

    /// Read access to the community (e.g. for custom metrics).
    pub fn community(&self) -> &Community {
        &self.community
    }

    /// Runs all rounds and produces the report.
    pub fn run(mut self) -> MarketReport {
        let threads = resolve_threads(self.cfg.threads);
        let mut per_round = Vec::with_capacity(self.cfg.rounds as usize);
        let mut report = MarketReport {
            per_round: Vec::new(),
            sessions: 0,
            completed: 0,
            aborted: 0,
            no_trade: 0,
            total_welfare: 0.0,
            honest_gain: 0.0,
            dishonest_gain: 0.0,
            honest_losses: 0.0,
            final_mae: 0.0,
            final_rank_accuracy: 0.0,
            final_decision_accuracy: 0.0,
            witness_attempted: 0,
            witness_delivered: 0,
            retx_queue_full: 0,
            retx_exhausted: 0,
        };
        for round in 0..self.cfg.rounds {
            let stats = self.run_round(round, threads);
            report.sessions += stats.sessions;
            report.completed += stats.completed;
            report.aborted += stats.aborted;
            report.no_trade += stats.no_trade;
            report.total_welfare += stats.welfare;
            report.honest_losses += stats.honest_losses;
            per_round.push(stats);
        }
        // Gains per class are accumulated inside run_round via fields on
        // self; fold them here.
        report.honest_gain = self.honest_gain;
        report.dishonest_gain = self.dishonest_gain;
        // One batched row pass yields all three final metrics; each
        // (evaluator, subject) pair is predicted exactly once, from a
        // sealed model.
        self.community.seal();
        let accuracy = accuracy_metrics(&self.community, &self.truth, threads);
        report.final_mae = accuracy.mae;
        report.final_rank_accuracy = accuracy.rank_accuracy;
        report.final_decision_accuracy = accuracy.decision_accuracy;
        report.witness_attempted = self.witness_attempted;
        report.witness_delivered = self.witness_delivered;
        report.retx_queue_full = self.retx_queue_full;
        report.retx_exhausted = self.retx_exhausted;
        report.per_round = per_round;
        report
    }

    /// Phase 1: draws every session of a round from the master stream.
    fn draw_sessions(&mut self) -> (Vec<SessionDraw>, Vec<SessionPost>) {
        let n = self.community.len();
        let count = self.cfg.sessions_per_round;
        let mut draws = Vec::with_capacity(count);
        let mut posts = Vec::with_capacity(count);
        for _ in 0..count {
            let supplier = PeerId(self.rng.index(n) as u32);
            let consumer = loop {
                let c = PeerId(self.rng.index(n) as u32);
                if c != supplier {
                    break c;
                }
            };
            let deal = self.cfg.workload.generate_deal(&mut self.rng);
            let rng_supplier = self.rng.fork(0xD1CE);
            let rng_consumer = self.rng.fork(0xFACE);
            let rng_feedback = self.rng.fork(0xF00D);
            draws.push(SessionDraw {
                supplier,
                consumer,
                deal,
                rng_supplier,
                rng_consumer,
            });
            posts.push(SessionPost {
                supplier,
                consumer,
                rng_feedback,
            });
        }
        (draws, posts)
    }

    /// Phase 2 worker: plans and executes one session against the
    /// round-start trust state. Trust and behaviour profiles are read
    /// through the borrowed [`CommunitySnapshot`], so any number of
    /// sessions can run concurrently and none can write.
    fn run_session(
        cfg: &MarketConfig,
        snapshot: &CommunitySnapshot<'_>,
        round: u64,
        draw: SessionDraw,
    ) -> SessionOutcome {
        let s_trust = snapshot.predict(draw.supplier, draw.consumer);
        let c_trust = snapshot.predict(draw.consumer, draw.supplier);
        let sequence = match plan(
            cfg.strategy,
            &draw.deal,
            s_trust,
            c_trust,
            cfg.payment_policy,
        ) {
            Ok(seq) => seq,
            Err(_) => return SessionOutcome::NoTrade,
        };
        let mut rng_s = draw.rng_supplier;
        let mut rng_c = draw.rng_consumer;
        let s_behavior = snapshot.profile(draw.supplier).exchange;
        let c_behavior = snapshot.profile(draw.consumer).exchange;
        let outcome = {
            let mut s_oracle = s_behavior.oracle(round, &mut rng_s);
            let mut c_oracle = c_behavior.oracle(round, &mut rng_c);
            execute(&draw.deal, &sequence, &mut s_oracle, &mut c_oracle)
        };
        SessionOutcome::Traded(outcome)
    }

    /// Virtual time of a round's start on the fault-plane clock.
    fn round_time(round: u64) -> SimTime {
        SimTime::from_micros(round * ROUND_SPAN.as_micros())
    }

    fn run_round(&mut self, round: u64, threads: usize) -> RoundStats {
        // Retransmissions scheduled by earlier rounds whose backoff has
        // elapsed go out before this round's sessions read trust state.
        // They count against this round's rate-cap budget.
        self.community.begin_round();
        self.pump_retx(round);
        let n = self.community.len();
        let mut stats = RoundStats {
            round,
            sessions: 0,
            completed: 0,
            aborted: 0,
            no_trade: 0,
            welfare: 0.0,
            honest_losses: 0.0,
            trust_mae: None,
        };

        // Phase 1: pre-draw; phase 2: execute in parallel shards. Shards
        // are chunks of consecutive sessions (~4 per worker) so queue
        // traffic amortises over many ~µs sessions; chunk boundaries
        // cannot affect results because execution is pure per session.
        // Sessions predict against the round-start state: a snapshot
        // taken here and dropped before the merge phase writes.
        let (draws, posts) = self.draw_sessions();
        let outcomes: Vec<SessionOutcome> = {
            let snapshot = &self.community.snapshot();
            let cfg = &self.cfg;
            let chunk_len = draws.len().div_ceil(threads.max(1) * 4).max(1);
            let mut chunks: Vec<Vec<SessionDraw>> = Vec::new();
            let mut rest = draws.into_iter();
            loop {
                let chunk: Vec<SessionDraw> = rest.by_ref().take(chunk_len).collect();
                if chunk.is_empty() {
                    break;
                }
                chunks.push(chunk);
            }
            parallel_map(threads, chunks, |_, chunk| {
                chunk
                    .into_iter()
                    .map(|draw| Self::run_session(cfg, snapshot, round, draw))
                    .collect::<Vec<SessionOutcome>>()
            })
            .into_iter()
            .flatten()
            .collect()
        };

        // Phase 3: deterministic merge in session order.
        for (post, outcome) in posts.into_iter().zip(outcomes) {
            stats.sessions += 1;
            let SessionPost {
                supplier,
                consumer,
                mut rng_feedback,
            } = post;
            let outcome = match outcome {
                SessionOutcome::NoTrade => {
                    stats.no_trade += 1;
                    continue;
                }
                SessionOutcome::Traded(outcome) => outcome,
            };

            // Accounting.
            stats.welfare += outcome.welfare().as_f64();
            let s_gain = outcome.supplier_gain.as_f64();
            let c_gain = outcome.consumer_gain.as_f64();
            for (agent, gain) in [(supplier, s_gain), (consumer, c_gain)] {
                if self.community.is_honest(agent) {
                    self.honest_gain += gain;
                    if gain < 0.0 {
                        stats.honest_losses += -gain;
                    }
                } else {
                    self.dishonest_gain += gain;
                }
            }
            match outcome.status {
                ExchangeStatus::Completed => stats.completed += 1,
                ExchangeStatus::Aborted { .. } => stats.aborted += 1,
            }

            // Feedback: both parties observed whether the other defected.
            let s_defected = matches!(
                outcome.status,
                ExchangeStatus::Aborted {
                    by: Role::Supplier,
                    ..
                }
            );
            let c_defected = matches!(
                outcome.status,
                ExchangeStatus::Aborted {
                    by: Role::Consumer,
                    ..
                }
            );
            self.feedback(
                supplier,
                consumer,
                Conduct::from_honest(!c_defected),
                round,
                &mut rng_feedback,
            );
            self.feedback(
                consumer,
                supplier,
                Conduct::from_honest(!s_defected),
                round,
                &mut rng_feedback,
            );

            // Unprovoked campaign reports: random slander, targeted
            // smears and collusion-ring vouches.
            for observer in [supplier, consumer] {
                let profile = self.community.profile(observer);
                match profile.reporting.campaigns_now(&mut rng_feedback) {
                    Some(Campaign::RandomSlander) => {
                        // Exclusion-shift over n − 1: the observer can
                        // never draw itself, so every triggered slander
                        // is delivered. (A previous implementation drew
                        // from the full range and dropped observer
                        // collisions, silently losing 1/n of the
                        // configured slander volume.)
                        let victim = PeerId(rng_feedback.index_except(n, observer.index()) as u32);
                        self.gossip(
                            observer,
                            victim,
                            Conduct::Dishonest,
                            round,
                            &mut rng_feedback,
                        );
                    }
                    Some(Campaign::TargetedSlander) => {
                        if let Some(victim) =
                            pick_other(&self.coordination.victims, observer, &mut rng_feedback)
                        {
                            self.gossip(
                                observer,
                                victim,
                                Conduct::Dishonest,
                                round,
                                &mut rng_feedback,
                            );
                        }
                    }
                    Some(Campaign::Vouch) => {
                        if let Faction::Ring(ring) = profile.faction {
                            if let Some(member) = pick_other(
                                &self.coordination.rings[ring as usize],
                                observer,
                                &mut rng_feedback,
                            ) {
                                self.gossip(
                                    observer,
                                    member,
                                    Conduct::Honest,
                                    round,
                                    &mut rng_feedback,
                                );
                            }
                        }
                    }
                    None => {}
                }
            }
        }
        // Identity churn: each whitewasher sheds its identity at the end
        // of every `period`-th round — everyone else forgets it.
        for &(agent, period) in &self.coordination.whitewashers {
            if (round + 1).is_multiple_of(period) {
                self.community.whitewash(agent);
            }
        }
        // Graceful degradation: when this round's witness gossip fell
        // below the delivery quorum, the *next* round's predictions use
        // direct evidence only — silence must not read as absence.
        if self.cfg.chaos.degrade {
            let degraded = self.round_attempted > 0
                && (self.round_delivered as f64) < WITNESS_QUORUM * self.round_attempted as f64;
            self.community.set_degraded(degraded);
            self.round_attempted = 0;
            self.round_delivered = 0;
        }
        if self.cfg.track_trust_per_round {
            self.community.seal();
            stats.trust_mae = Some(accuracy_metrics(&self.community, &self.truth, threads).mae);
        }
        stats
    }

    /// Records `observer`'s direct experience and gossips the (possibly
    /// distorted) report to random witnesses.
    fn feedback(
        &mut self,
        observer: PeerId,
        subject: PeerId,
        truth: Conduct,
        round: u64,
        rng: &mut SimRng,
    ) {
        self.community
            .record_direct(observer, subject, truth, round);
        let profile = self.community.profile(observer);
        let shaped = profile.reporting.report_about(
            truth,
            profile.faction,
            self.community.profile(subject).faction,
        );
        if let Some(shaped) = shaped {
            self.gossip(observer, subject, shaped, round, rng);
        }
    }

    /// Delivers a witness report about `subject` to exactly
    /// `min(gossip_witnesses, n − 2)` *distinct* random agents, never the
    /// witness or the subject themselves. Returns the delivery targets,
    /// drawn into a buffer the simulation reuses across calls.
    ///
    /// (A previous implementation drew targets with replacement and
    /// skipped collisions, silently under-delivering — increasingly often
    /// in small communities.)
    fn gossip(
        &mut self,
        witness: PeerId,
        subject: PeerId,
        conduct: Conduct,
        round: u64,
        rng: &mut SimRng,
    ) -> &[PeerId] {
        // The exclusion shift below assumes two distinct excluded ids;
        // with witness == subject it would skip an innocent agent.
        debug_assert_ne!(witness, subject, "gossip requires witness != subject");
        let n = self.community.len();
        let k = self.cfg.gossip_witnesses.min(n.saturating_sub(2));
        if k == 0 {
            return &[];
        }
        // Sample from the n−2 eligible agents, then shift the raw draws
        // past the two excluded ids (in ascending order) to map them back
        // onto the full id range.
        let mut excluded = [witness.index(), subject.index()];
        excluded.sort_unstable();
        let mut targets = std::mem::take(&mut self.gossip_targets);
        targets.clear();
        rng.sample_indices_with(n - 2, k, |raw| {
            let mut t = raw;
            if t >= excluded[0] {
                t += 1;
            }
            if t >= excluded[1] {
                t += 1;
            }
            targets.push(PeerId(t as u32));
        });
        for &target in &targets {
            self.transmit_report(
                target,
                WitnessReport {
                    witness,
                    subject,
                    conduct,
                    round,
                },
            );
        }
        // Sybil amplification: up to `fanout` clones from the witness's
        // cell echo the report under their own identities to the same
        // targets. No RNG is drawn, so populations without Sybils replay
        // bit-identical streams. (Each echo is its own emission on the
        // wire — the fault plane treats it like any other message.)
        if let Faction::Sybil { cell, fanout } = self.community.profile(witness).faction {
            let mut echoes = 0usize;
            let mut cursor = 0usize;
            while let Some(&clone) = self.coordination.cells[cell as usize].get(cursor) {
                cursor += 1;
                if echoes >= fanout as usize {
                    break;
                }
                if clone == witness || clone == subject {
                    continue;
                }
                echoes += 1;
                for &target in &targets {
                    if target == clone {
                        continue;
                    }
                    self.transmit_report(
                        target,
                        WitnessReport {
                            witness: clone,
                            subject,
                            conduct,
                            round,
                        },
                    );
                }
            }
        }
        self.gossip_targets = targets;
        &self.gossip_targets
    }

    /// Sends one witness-report emission over the fault plane, which is
    /// transparent (every emission arrives) when no chaos is configured.
    ///
    /// Each emission reaches its target at most once by construction:
    /// wire duplicates of a `Deliver` fate collapse into one delivery,
    /// a lost or blocked emission sits in the retransmission queue at
    /// most once, and a delivered retransmission is never re-queued.
    fn transmit_report(&mut self, target: PeerId, report: WitnessReport) {
        self.witness_attempted += 1;
        self.round_attempted += 1;
        let first = RetxEntry {
            emission: self.gossip_seq,
            target,
            report,
            attempts: 0,
        };
        self.attempt(first, Self::round_time(report.round));
    }

    /// One wire attempt of `entry` at virtual time `at`, keyed by the
    /// next gossip sequence number. An arrived report goes to its
    /// target's model; a lost or blocked one is queued for another
    /// attempt (with retry on) until the policy's budget runs out.
    fn attempt(&mut self, mut entry: RetxEntry, at: SimTime) {
        let wire_seq = self.gossip_seq;
        self.gossip_seq += 1;
        match self
            .plane
            .decide(entry.report.witness.0, entry.target.0, wire_seq, at)
        {
            FaultFate::Deliver { .. } => {
                if self
                    .community
                    .deliver_witness_report(entry.target, entry.report)
                {
                    self.witness_delivered += 1;
                    self.round_delivered += 1;
                }
            }
            FaultFate::Lost | FaultFate::Blocked if self.cfg.chaos.retry => {
                entry.attempts += 1;
                if RETX_POLICY.allows(entry.attempts) {
                    self.schedule_retx(entry, at);
                } else {
                    self.retx_exhausted += 1;
                }
            }
            FaultFate::Lost | FaultFate::Blocked => {}
        }
    }

    /// Queues a retransmission after the emission's backoff delay
    /// (deterministic jitter keyed on the emission sequence), bounded
    /// by the queue capacity.
    fn schedule_retx(&mut self, entry: RetxEntry, now: SimTime) {
        if self.retx.len() >= RETX_QUEUE_CAP {
            self.retx_queue_full += 1;
            return;
        }
        let wait = RETX_POLICY.timeout(entry.attempts, entry.emission);
        self.retx.push(now + wait, entry);
    }

    /// Drains every retransmission due by the start of `round`: each
    /// gets a fresh wire attempt through the plane.
    fn pump_retx(&mut self, round: u64) {
        let now = Self::round_time(round);
        while self.retx.peek_time().is_some_and(|t| t <= now) {
            let (due, entry) = self.retx.pop().expect("peeked entry");
            self.attempt(entry, due);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cfg(strategy: Strategy) -> MarketConfig {
        MarketConfig {
            n_agents: 40,
            rounds: 8,
            sessions_per_round: 40,
            strategy,
            workload: Workload::FileSharing,
            ..MarketConfig::default()
        }
    }

    /// The distinct-consumer rejection loop in `draw_sessions` can only
    /// terminate with at least two agents; the constructor must reject
    /// degenerate communities up front instead of hanging.
    #[test]
    #[should_panic(expected = "n_agents must be ≥ 2")]
    fn single_agent_community_rejected() {
        MarketSim::new(MarketConfig {
            n_agents: 1,
            ..MarketConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "n_agents must be ≥ 2")]
    fn empty_community_rejected() {
        MarketSim::new(MarketConfig {
            n_agents: 0,
            ..MarketConfig::default()
        });
    }

    #[test]
    fn validate_forwards_the_fault_plane_rules() {
        assert_eq!(MarketConfig::default().validate(), Ok(()));
        let lossy = |loss| MarketConfig {
            chaos: ChaosConfig {
                fault: FaultConfig {
                    loss,
                    ..FaultConfig::default()
                },
                ..ChaosConfig::default()
            },
            ..MarketConfig::default()
        };
        assert_eq!(lossy(1.0).validate(), Ok(()));
        assert_eq!(
            lossy(f64::NAN).validate(),
            Err("fault loss must be in [0, 1]")
        );
        // The agent-count rule is checked first.
        let both = MarketConfig {
            n_agents: 1,
            ..lossy(2.0)
        };
        assert!(both
            .validate()
            .unwrap_err()
            .contains("n_agents must be ≥ 2"));
    }

    #[test]
    #[should_panic(expected = "fault duplicate must be in [0, 1]")]
    fn invalid_fault_plane_rejected() {
        MarketSim::new(MarketConfig {
            chaos: ChaosConfig {
                fault: FaultConfig {
                    duplicate: 1.5,
                    ..FaultConfig::default()
                },
                ..ChaosConfig::default()
            },
            ..MarketConfig::default()
        });
    }

    #[test]
    fn deterministic_runs() {
        let a = MarketSim::new(smoke_cfg(Strategy::TrustAware)).run();
        let b = MarketSim::new(smoke_cfg(Strategy::TrustAware)).run();
        assert_eq!(a, b, "same seed must reproduce the full report");
    }

    #[test]
    fn thread_count_never_changes_the_report() {
        let reference = MarketSim::new(MarketConfig {
            threads: 1,
            ..smoke_cfg(Strategy::TrustAware)
        })
        .run();
        for threads in [2, 3, 8] {
            let cfg = MarketConfig {
                threads,
                ..smoke_cfg(Strategy::TrustAware)
            };
            let report = MarketSim::new(cfg).run();
            assert_eq!(report, reference, "threads={threads} diverged");
        }
    }

    #[test]
    fn safe_only_never_trades_positive_cost_workloads() {
        let report = MarketSim::new(smoke_cfg(Strategy::SafeOnly)).run();
        assert_eq!(report.completed, 0);
        assert_eq!(report.no_trade, report.sessions);
        assert_eq!(report.total_welfare, 0.0);
    }

    #[test]
    fn trust_aware_trades_and_learns() {
        let report = MarketSim::new(smoke_cfg(Strategy::TrustAware)).run();
        assert!(report.completed > 0, "trust-aware must enable trades");
        assert!(
            report.final_rank_accuracy > 0.6,
            "models should separate honest from dishonest: {}",
            report.final_rank_accuracy
        );
        // Honest agents end up net positive in aggregate.
        assert!(report.honest_gain > 0.0);
    }

    #[test]
    fn deliver_first_bleeds_welfare_to_defectors() {
        let naive = MarketSim::new(smoke_cfg(Strategy::UnsafeDeliverFirst)).run();
        let aware = MarketSim::new(smoke_cfg(Strategy::TrustAware)).run();
        // The naive strategy completes trades with everyone, so dishonest
        // agents capture gains; honest losses exceed the trust-aware ones.
        assert!(naive.honest_losses > aware.honest_losses);
        assert!(naive.aborted > 0);
    }

    #[test]
    fn report_rates_consistent() {
        let r = MarketSim::new(smoke_cfg(Strategy::TrustAware)).run();
        assert_eq!(r.sessions, r.completed + r.aborted + r.no_trade);
        assert!((0.0..=1.0).contains(&r.completion_rate()));
        assert!((0.0..=1.0).contains(&r.no_trade_rate()));
        assert_eq!(r.per_round.len(), 8);
        let sum: u64 = r.per_round.iter().map(|s| s.sessions).sum();
        assert_eq!(sum, r.sessions);
    }

    #[test]
    fn per_round_trust_tracking() {
        let cfg = MarketConfig {
            track_trust_per_round: true,
            ..smoke_cfg(Strategy::TrustAware)
        };
        let r = MarketSim::new(cfg).run();
        assert!(r.per_round.iter().all(|s| s.trust_mae.is_some()));
        let first = r.per_round.first().unwrap().trust_mae.unwrap();
        let last = r.per_round.last().unwrap().trust_mae.unwrap();
        assert!(
            last <= first,
            "trust error should not grow: {first} -> {last}"
        );
    }

    /// Regression test for the witness under-delivery bug: every gossip
    /// call must reach exactly `min(gossip_witnesses, n − 2)` *distinct*
    /// agents, none of them the witness or the subject. (The old
    /// implementation drew with replacement and dropped collisions, so
    /// small communities received fewer reports than configured.)
    #[test]
    fn gossip_delivers_exactly_min_distinct_witnesses() {
        for (n, k) in [(3, 1), (4, 3), (5, 10), (10, 8), (40, 3), (2, 5)] {
            let cfg = MarketConfig {
                n_agents: n,
                gossip_witnesses: k,
                ..MarketConfig::default()
            };
            let mut sim = MarketSim::new(cfg);
            let witness = PeerId(0);
            let subject = PeerId(1);
            let mut rng = SimRng::new(0x90551);
            let expected = k.min(n.saturating_sub(2));
            // Repeat: every single call must deliver the full quota.
            for round in 0..20 {
                let targets = sim.gossip(witness, subject, Conduct::Dishonest, round, &mut rng);
                assert_eq!(
                    targets.len(),
                    expected,
                    "n={n} k={k}: delivered {} of {expected}",
                    targets.len()
                );
                let mut uniq: Vec<u32> = targets.iter().map(|t| t.0).collect();
                uniq.sort_unstable();
                uniq.dedup();
                assert_eq!(uniq.len(), expected, "n={n} k={k}: duplicate witnesses");
                assert!(
                    !targets.contains(&witness) && !targets.contains(&subject),
                    "n={n} k={k}: report delivered to a party"
                );
                assert!(targets.iter().all(|t| t.index() < n));
            }
            // The community actually received every report.
            assert_eq!(sim.community.pending_report_count(), expected * 20);
        }
    }

    /// Deliveries land in the community state (not just in the returned
    /// target list), and each distinct target queues one report per call.
    #[test]
    fn gossip_deliveries_reach_the_models() {
        let cfg = MarketConfig {
            n_agents: 6,
            gossip_witnesses: 4,
            ..MarketConfig::default()
        };
        let mut sim = MarketSim::new(cfg);
        let mut rng = SimRng::new(1);
        assert_eq!(sim.community.pending_report_count(), 0);
        let targets = sim.gossip(PeerId(2), PeerId(5), Conduct::Honest, 3, &mut rng);
        assert_eq!(targets.len(), 4);
        assert_eq!(sim.community.pending_report_count(), 4);
    }

    use trustex_agents::adversary::Adversary;
    use trustex_agents::behavior::ExchangeBehavior;
    use trustex_agents::profile::AgentProfile;
    use trustex_agents::reporting::ReportingBehavior;
    use trustex_trust::model::TrustEstimate;

    /// Total observations (direct + witness, any conduct) recorded by
    /// `evaluator`'s mean model, and the dishonest subset — the
    /// delivery-counting probes the campaign tests rely on (the mean
    /// model ingests everything at full weight).
    fn mean_observations(sim: &MarketSim) -> (u64, u64) {
        let n = sim.community.len();
        let mut total = 0;
        let mut dishonest = 0;
        for evaluator in sim.community.agent_ids() {
            if let crate::population::AnyModel::Mean(m) = sim.community.model(evaluator) {
                for subject in 0..n as u32 {
                    let (h, t) = m.counts(PeerId(subject));
                    total += t;
                    dishonest += t - h;
                }
            } else {
                panic!("expected mean model");
            }
        }
        (total, dishonest)
    }

    /// Regression test for the slander under-delivery bug: with
    /// `slander_prob = 1` every traded session must land exactly two
    /// slander campaigns of full gossip fan-out — the old implementation
    /// drew the victim from the full id range and silently dropped the
    /// `victim == observer` collisions (1/n of all slanders; 25% in this
    /// 4-agent community).
    #[test]
    fn triggered_slander_is_always_delivered() {
        let slanderer = AgentProfile {
            exchange: ExchangeBehavior::Honest,
            reporting: ReportingBehavior::Slanderer { slander_prob: 1.0 },
            faction: Faction::None,
        };
        let cfg = MarketConfig {
            n_agents: 4,
            rounds: 4,
            sessions_per_round: 25,
            mix: PopulationMix::new(vec![(1.0, slanderer)]),
            model: ModelKind::Mean,
            workload: Workload::FileSharing,
            gossip_witnesses: 3,
            ..MarketConfig::default()
        };
        let k = 2; // min(3, n − 2)
        let mut sim = MarketSim::new(cfg);
        let threads = resolve_threads(1);
        let mut traded = 0;
        for round in 0..4 {
            let stats = sim.run_round(round, threads);
            traded += stats.completed + stats.aborted;
        }
        assert!(traded > 0, "the slander flood must not stop all trade");
        let (total, dishonest) = mean_observations(&sim);
        // All agents behave honestly in exchanges, so the only dishonest
        // observations are the slander deliveries: 2 campaigns × k
        // targets per traded session, none lost.
        assert_eq!(dishonest, traded * 2 * k, "slanders lost");
        // Direct (2) + truthful feedback gossip (2k) + slander (2k).
        assert_eq!(total, traded * (2 + 4 * k));
    }

    /// Colluder vouch campaigns fire every session and deliver full
    /// fan-out `Honest` reports for fellow ring members.
    #[test]
    fn colluder_vouches_are_delivered_at_full_fanout() {
        let colluder = AgentProfile {
            exchange: ExchangeBehavior::Honest,
            reporting: ReportingBehavior::Colluder { vouch_prob: 1.0 },
            faction: Faction::Ring(0),
        };
        let cfg = MarketConfig {
            n_agents: 6,
            rounds: 3,
            sessions_per_round: 20,
            mix: PopulationMix::new(vec![(1.0, colluder)]),
            model: ModelKind::Mean,
            workload: Workload::FileSharing,
            gossip_witnesses: 2,
            ..MarketConfig::default()
        };
        let mut sim = MarketSim::new(cfg);
        let threads = resolve_threads(1);
        let mut traded = 0;
        for round in 0..3 {
            let stats = sim.run_round(round, threads);
            traded += stats.completed + stats.aborted;
        }
        let (total, dishonest) = mean_observations(&sim);
        assert_eq!(dishonest, 0, "an all-honest ring files no complaints");
        // Direct (2) + truthful cover gossip (2k) + vouch (2k).
        let k = 2;
        assert_eq!(total, traded * (2 + 4 * k));
    }

    /// Sybil clones echo each report under their own identities: the
    /// pending count grows by one report per (echo clone, target) pair,
    /// excluding targets that are the clone itself.
    #[test]
    fn sybil_cell_amplifies_gossip() {
        let sybil = AgentProfile {
            exchange: ExchangeBehavior::Honest,
            reporting: ReportingBehavior::Truthful,
            faction: Faction::Sybil { cell: 0, fanout: 2 },
        };
        let cfg = MarketConfig {
            n_agents: 6,
            gossip_witnesses: 3,
            mix: PopulationMix::new(vec![(1.0, sybil)]),
            ..MarketConfig::default()
        };
        let mut sim = MarketSim::new(cfg);
        let mut rng = SimRng::new(5);
        let witness = PeerId(2);
        let subject = PeerId(5);
        let targets = sim
            .gossip(witness, subject, Conduct::Dishonest, 0, &mut rng)
            .to_vec();
        assert_eq!(targets.len(), 3);
        // Echo clones are the first two cell members ≠ witness/subject:
        // PeerId(0) and PeerId(1). Each re-delivers to every target
        // except itself.
        let clones = [PeerId(0), PeerId(1)];
        let expected_echoes: usize = clones
            .iter()
            .map(|c| targets.iter().filter(|t| *t != c).count())
            .sum();
        assert_eq!(
            sim.community.pending_report_count(),
            targets.len() + expected_echoes
        );
    }

    /// A whitewasher with period 1 sheds its identity at the end of every
    /// round: after the run, every honest agent's estimate of it is back
    /// at cold start despite rounds of defection.
    #[test]
    fn whitewashers_end_the_run_with_cold_reputations() {
        let whitewasher = AgentProfile {
            exchange: ExchangeBehavior::Rational { stake_micros: 0 },
            reporting: ReportingBehavior::Truthful,
            faction: Faction::Whitewash { period: 1 },
        };
        let cfg = MarketConfig {
            n_agents: 20,
            rounds: 6,
            sessions_per_round: 40,
            mix: PopulationMix::new(vec![(0.5, AgentProfile::honest()), (0.5, whitewasher)]),
            model: ModelKind::Beta,
            workload: Workload::FileSharing,
            ..MarketConfig::default()
        };
        let mut sim = MarketSim::new(cfg);
        let threads = resolve_threads(1);
        for round in 0..6 {
            sim.run_round(round, threads);
        }
        let churners: Vec<PeerId> = sim
            .community
            .agent_ids()
            .filter(|a| sim.community.profile(*a).faction != Faction::None)
            .collect();
        assert!(!churners.is_empty());
        for evaluator in sim.community.agent_ids() {
            if sim.community.profile(evaluator).faction != Faction::None {
                continue;
            }
            for &churner in &churners {
                assert_eq!(
                    sim.community.predict(evaluator, churner),
                    TrustEstimate::new(0.5, 0.0),
                    "whitewashed identity must read cold"
                );
            }
        }
    }

    /// `report_rate_cap: Some(0)` silences the witness channel entirely:
    /// only direct experiences reach the models.
    #[test]
    fn rate_cap_zero_blocks_all_witness_reports() {
        let cfg = MarketConfig {
            n_agents: 10,
            rounds: 3,
            sessions_per_round: 20,
            mix: PopulationMix::new(vec![(1.0, AgentProfile::honest())]),
            model: ModelKind::Mean,
            workload: Workload::FileSharing,
            defense: DefenseConfig {
                report_rate_cap: Some(0),
                ..DefenseConfig::default()
            },
            ..MarketConfig::default()
        };
        let mut sim = MarketSim::new(cfg);
        let threads = resolve_threads(1);
        let mut traded = 0;
        for round in 0..3 {
            let stats = sim.run_round(round, threads);
            traded += stats.completed + stats.aborted;
        }
        assert!(traded > 0);
        assert_eq!(sim.community.pending_report_count(), 0);
        let (total, _) = mean_observations(&sim);
        assert_eq!(total, traded * 2, "only direct experience may land");
    }

    /// The zoo mix at coordination zero is bit-identical to the manually
    /// assembled independent baseline: the coordination hooks (campaign
    /// dispatch, sybil echo, whitewash sweep, faction-aware shaping)
    /// consume no RNG and touch no state when every faction is `None`.
    #[test]
    fn zoo_at_zero_coordination_replays_the_independent_baseline() {
        let zoo = MarketSim::new(MarketConfig {
            mix: trustex_agents::adversary::zoo_mix(0.3, 0.0),
            ..smoke_cfg(Strategy::TrustAware)
        })
        .run();
        let baseline = MarketSim::new(MarketConfig {
            mix: independent_equivalent(0.3),
            ..smoke_cfg(Strategy::TrustAware)
        })
        .run();
        assert_eq!(zoo, baseline);
    }

    /// Arming the defenses on a zero-fault plane must be a perfect
    /// no-op: the report — counters, welfare, accuracy, every per-round
    /// row — is bit-equal to the default (clean) run, with either
    /// defense or both armed.
    #[test]
    fn zero_fault_plane_is_bit_identical_to_no_plane() {
        let clean = MarketSim::new(smoke_cfg(Strategy::TrustAware)).run();
        for (retry, degrade) in [(true, false), (false, true), (true, true)] {
            let chaotic = MarketSim::new(MarketConfig {
                chaos: ChaosConfig {
                    fault: FaultConfig::default(),
                    retry,
                    degrade,
                },
                ..smoke_cfg(Strategy::TrustAware)
            })
            .run();
            assert_eq!(
                chaotic, clean,
                "zero-fault plane (retry={retry}, degrade={degrade}) diverged"
            );
        }
    }

    /// A report blocked by a live partition is retransmitted on the
    /// backoff schedule and lands exactly once after the heal — never
    /// zero times (the retry straddles the heal) and never twice (a
    /// delivered retransmission is not re-queued).
    #[test]
    fn retransmission_straddles_a_partition_heal_and_delivers_once() {
        let heal_at = SimTime::from_millis(5);
        let cfg = MarketConfig {
            n_agents: 8,
            chaos: ChaosConfig {
                fault: FaultConfig {
                    partition: trustex_netsim::fault::PartitionSpec::Bisect { heal_at },
                    ..FaultConfig::default()
                },
                retry: true,
                degrade: false,
            },
            ..MarketConfig::default()
        };
        let mut sim = MarketSim::new(cfg);
        // Find a cross-partition pair: blocked now, open after the heal.
        let (witness, target) = (0..8u32)
            .flat_map(|a| (0..8u32).map(move |b| (a, b)))
            .find(|&(a, b)| a != b && sim.plane.blocked(a, b, SimTime::ZERO))
            .expect("a bisection always splits 8 peers");
        let report = WitnessReport {
            witness: PeerId(witness),
            subject: PeerId((witness + 1) % 8),
            conduct: Conduct::Dishonest,
            round: 0,
        };
        sim.transmit_report(PeerId(target), report);
        assert_eq!(sim.witness_attempted, 1);
        assert_eq!(sim.witness_delivered, 0, "blocked by the live partition");
        assert_eq!(sim.retx.len(), 1, "the lost emission must be queued");
        // Round 1 starts at 10 ms — past the heal; the pump drains the
        // backoff chain (retries before 5 ms stay blocked) to delivery.
        sim.pump_retx(1);
        assert_eq!(sim.witness_delivered, 1, "the retry must land post-heal");
        assert_eq!(sim.community.pending_report_count(), 1);
        assert_eq!(sim.retx.len(), 0);
        // Idempotent: nothing left to pump, nothing double-delivered.
        sim.pump_retx(2);
        assert_eq!(sim.witness_delivered, 1);
        assert_eq!(sim.community.pending_report_count(), 1);
    }

    /// Wire duplication puts extra copies of an emission on the wire;
    /// they collapse at the fate, so exactly one reaches the model.
    #[test]
    fn duplicated_wire_copies_are_suppressed_by_dedup() {
        let cfg = MarketConfig {
            n_agents: 6,
            chaos: ChaosConfig {
                fault: FaultConfig {
                    duplicate: 1.0,
                    ..FaultConfig::default()
                },
                ..ChaosConfig::default()
            },
            ..MarketConfig::default()
        };
        let mut sim = MarketSim::new(cfg);
        for round in 0..5 {
            let report = WitnessReport {
                witness: PeerId(0),
                subject: PeerId(1),
                conduct: Conduct::Honest,
                round,
            };
            sim.transmit_report(PeerId(2), report);
        }
        assert_eq!(sim.witness_attempted, 5);
        assert_eq!(sim.witness_delivered, 5, "first copies all arrive");
        assert_eq!(
            sim.community.pending_report_count(),
            5,
            "duplicate wire copies must not double-deliver"
        );
    }

    /// A full retransmission queue drops the next entry and counts it
    /// as a queue-full drop, not as an exhausted attempt budget.
    #[test]
    fn full_retx_queue_counts_queue_full_drops() {
        let mut sim = MarketSim::new(MarketConfig {
            n_agents: 4,
            ..MarketConfig::default()
        });
        let entry = RetxEntry {
            emission: 0,
            target: PeerId(2),
            report: WitnessReport {
                witness: PeerId(0),
                subject: PeerId(1),
                conduct: Conduct::Honest,
                round: 0,
            },
            attempts: 1,
        };
        for _ in 0..RETX_QUEUE_CAP {
            sim.schedule_retx(entry, SimTime::ZERO);
        }
        assert_eq!(sim.retx.len(), RETX_QUEUE_CAP);
        assert_eq!(sim.retx_queue_full, 0);
        sim.schedule_retx(entry, SimTime::ZERO);
        assert_eq!(sim.retx.len(), RETX_QUEUE_CAP);
        assert_eq!((sim.retx_queue_full, sim.retx_exhausted), (1, 0));
    }

    /// Under total loss with retry, every emission burns its whole
    /// attempt budget: each is counted once as exhausted, and none as a
    /// queue-full drop — also in the report of a whole run.
    #[test]
    fn total_loss_with_retry_counts_exhausted_budgets() {
        let cfg = MarketConfig {
            n_agents: 12,
            rounds: 40,
            sessions_per_round: 12,
            chaos: ChaosConfig {
                fault: FaultConfig {
                    loss: 1.0,
                    ..FaultConfig::default()
                },
                retry: true,
                degrade: false,
            },
            ..MarketConfig::default()
        };
        let mut sim = MarketSim::new(cfg.clone());
        for round in 0..5 {
            let report = WitnessReport {
                witness: PeerId(0),
                subject: PeerId(1),
                conduct: Conduct::Honest,
                round,
            };
            sim.transmit_report(PeerId(2), report);
        }
        sim.pump_retx(1_000);
        assert_eq!(sim.retx.len(), 0, "every budget ran out");
        assert_eq!((sim.retx_exhausted, sim.retx_queue_full), (5, 0));
        assert_eq!(sim.witness_delivered, 0);

        let report = MarketSim::new(cfg).run();
        assert_eq!(report.witness_delivered, 0);
        assert_eq!(report.retx_queue_full, 0);
        assert!(report.retx_exhausted > 0, "no budget ran out in the run");
        assert!(report.retx_exhausted <= report.witness_attempted);
    }

    /// The hand-built independent mix `zoo_mix(f, 0)` must degrade to:
    /// the same entries `Adversary::profile(0.0)` produces, in zoo order.
    fn independent_equivalent(f: f64) -> PopulationMix {
        let honest = 1.0 - f;
        let mut entries = vec![
            (honest * 0.9, AgentProfile::honest()),
            (honest * 0.1, AgentProfile::honest()),
        ];
        for archetype in Adversary::ALL {
            entries.push((f / 5.0, archetype.profile(0.0)));
        }
        PopulationMix::new(entries)
    }
}
