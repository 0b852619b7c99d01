//! `overlay`: P-Grid complaint storage under loss and churn. Set-up
//! builds 2¹⁶ peers with `PGridConfig::for_population(n, 4)` and stores
//! one complaint per subject. A batch is 1000 shuffled ops: 700
//! `query_at`, 200 `insert_at`, 50 `join` and 50 `leave` of a random live
//! peer (so the live count returns to 2¹⁶ after every batch), all over a
//! `Network` whose fault plane loses 2 % of messages, with
//! `RetryPolicy::standard()` on every call. Every 16th batch ends with a
//! `repair` pass, which also compacts the arena once departed peers'
//! tombstones reach an eighth of the population. Pool size 2.

use crate::probe::{timed, Acc, Guard, Layers, Phase, Schedule};
use crate::{Ctx, Outcome};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use trustex_netsim::backoff::{splitmix64, RetryPolicy};
use trustex_netsim::fault::{FaultConfig, FaultPlane};
use trustex_netsim::net::{NetConfig, Network};
use trustex_netsim::rng::SimRng;
use trustex_netsim::time::SimTime;
use trustex_reputation::pgrid::{PGrid, PGridConfig};
use trustex_reputation::record::{key_for_peer, Complaint, Key};
use trustex_trust::model::PeerId;

const PEERS: usize = 1 << 16;
const REPLICATION: usize = 4;
const LOSS: f64 = 0.02;
const QUERIES: usize = 700;
const INSERTS: usize = 200;
const JOINS: usize = 50;
const OPS: usize = QUERIES + INSERTS + 2 * JOINS;
/// A repair pass ends every `REPAIR_EVERY`-th batch.
const REPAIR_EVERY: u64 = 16;
/// Random meetings per repair pass.
const REPAIR_MEETINGS: usize = 2000;
/// Virtual-clock spacing between consecutive ops.
const OP_STAGGER_US: u64 = 500;
/// A cycle holds one repair pass. Set-up is ~1.2 s.
const SCHEDULE: Schedule = Schedule {
    guard_batches: 200,
    cycle_batches: REPAIR_EVERY as usize,
    setup_reps: 12,
};
const SALT_BUILD: u64 = 0xB111_D000;
const SALT_PLANE: u64 = 0x9A1E_0000;
const SALT_OPS: u64 = 0x0F5E_0000;
const SALT_PROGRAM: u64 = 0x9E0C_0000;

#[derive(Clone, Copy)]
enum Op {
    Query { origin: u64, subject: u32 },
    Insert { origin: u64, about: u32, round: u64 },
    Join,
    Leave { pick: u64 },
}

/// The complaint stored about `about`: one fixed filer per subject, so
/// inserts during the run refresh the set-up's entries instead of
/// growing the stores.
fn complaint(about: u32, round: u64) -> Complaint {
    let by = (splitmix64(u64::from(about)) % PEERS as u64) as u32;
    Complaint {
        by: PeerId(by),
        about: PeerId(about),
        round,
    }
}

struct Overlay {
    grid: PGrid,
    /// Seconds `PGrid::build` took (the rest of set-up stores the
    /// complaints).
    build_s: f64,
    /// Live peers' dense indices (order is arbitrary but deterministic).
    live: Vec<usize>,
}

fn setup(seed: u64) -> Overlay {
    let mut rng = SimRng::new(seed ^ SALT_BUILD);
    let t = Instant::now();
    let mut grid = PGrid::build(
        PEERS,
        PGridConfig::for_population(PEERS, REPLICATION),
        &mut rng,
    );
    let build_s = t.elapsed().as_secs_f64();
    let w = grid.config().key_bits;
    let mut net = Network::new(NetConfig::default());
    for about in 0..PEERS as u32 {
        let origin = rng.index(PEERS);
        let key = key_for_peer(PeerId(about), w);
        grid.insert(origin, key, complaint(about, 0), None, &mut net, &mut rng);
    }
    Overlay {
        grid,
        build_s,
        live: (0..PEERS).collect(),
    }
}

fn gen_batch(rng: &mut SimRng, batch: u64) -> Vec<Op> {
    let mut ops = Vec::with_capacity(OPS);
    for _ in 0..QUERIES {
        ops.push(Op::Query {
            origin: rng.next_u64(),
            subject: rng.index(PEERS) as u32,
        });
    }
    for _ in 0..INSERTS {
        ops.push(Op::Insert {
            origin: rng.next_u64(),
            about: rng.index(PEERS) as u32,
            round: batch + 1,
        });
    }
    for _ in 0..JOINS {
        ops.push(Op::Join);
        ops.push(Op::Leave {
            pick: rng.next_u64(),
        });
    }
    rng.shuffle(&mut ops);
    ops
}

/// Per-call probes of the traced run.
#[derive(Default)]
struct Probes {
    query: Acc,
    insert: Acc,
    join: Acc,
    leave: Acc,
    repair: Acc,
    decide: Acc,
}

/// The network's cumulative message counters, named as in the guard.
fn net_counts(net: &Network) -> [(&'static str, u64); 5] {
    [
        ("msgs", net.total_sent()),
        ("dropped", net.total_dropped()),
        ("route_msgs", net.sent("route")),
        ("replicate_msgs", net.sent("replicate")),
        ("replica_query_msgs", net.sent("replica_query")),
    ]
}

/// Whether `peer` is live and responsible for `key` (its path is a
/// prefix of the key, as `PGrid::responsible_peers` defines it).
fn responsible(grid: &PGrid, peer: usize, key: Key) -> bool {
    peer < grid.len()
        && grid.is_live(peer)
        && grid
            .path(peer)
            .is_prefix_of_key(key, grid.config().key_bits)
}

pub fn run(ctx: &Ctx) -> Outcome {
    trustex_netsim::pool::set_default_threads(2);
    let (overlay, first_setup_s) = timed(|| setup(ctx.seed));
    let Overlay {
        mut grid,
        build_s,
        mut live,
    } = overlay;
    let w = grid.config().key_bits;
    let plane = FaultPlane::new(
        splitmix64(ctx.seed ^ SALT_PLANE),
        FaultConfig {
            loss: LOSS,
            ..FaultConfig::default()
        },
    );
    let mut net = Network::with_fault_plane(NetConfig::default(), plane);
    let policy = RetryPolicy::standard();
    let retry = Some(&policy);
    let mut gen = SimRng::new(ctx.seed ^ SALT_OPS);
    let mut rng = SimRng::new(ctx.seed ^ SALT_PROGRAM);
    let mut op_seq = 0u64;

    let mut phase = Phase::start(ctx, &SCHEDULE, first_setup_s);
    let mut guard = Guard::default();
    let mut probes = Probes::default();
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut links: Vec<(u32, u32)> = Vec::new();
    while phase.running() {
        phase.between_batches(|| setup(ctx.seed));
        let batch = phase.batch_index();
        let ops = gen_batch(&mut gen, batch);
        let in_guard = phase.in_guard();
        let sent_before = net_counts(&net);
        let (mut queries, mut resolved, mut hops, mut replicas, mut bad) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        let mut stored = 0u64;
        links.clear();
        let t = Instant::now();
        for op in ops {
            let start = SimTime::from_micros(op_seq * OP_STAGGER_US);
            op_seq += 1;
            match op {
                Op::Query { origin, subject } => {
                    let origin = live[(origin % live.len() as u64) as usize];
                    let key = key_for_peer(PeerId(subject), w);
                    let result = probes.query.time_if(ctx.trace, || {
                        grid.query_at(origin, key, None, &mut net, &mut rng, start, retry)
                    });
                    queries += 1;
                    resolved += u64::from(result.is_resolved());
                    hops += u64::from(result.hops);
                    replicas += result.answers.len() as u64;
                    let members = result.answers.iter().map(|(m, _)| *m);
                    bad += u64::from(!members.clone().all(|m| responsible(&grid, m, key)));
                    if ctx.trace {
                        links.extend(members.map(|m| (origin as u32, m as u32)));
                    }
                }
                Op::Insert {
                    origin,
                    about,
                    round,
                } => {
                    let origin = live[(origin % live.len() as u64) as usize];
                    let key = key_for_peer(PeerId(about), w);
                    let item = complaint(about, round);
                    let receipt = probes.insert.time_if(ctx.trace, || {
                        grid.insert_at(origin, key, item, None, &mut net, &mut rng, start, retry)
                    });
                    stored += receipt.replicas_reached as u64;
                }
                Op::Join => {
                    let peer = probes.join.time_if(ctx.trace, || grid.join(&mut rng));
                    live.push(peer);
                }
                Op::Leave { pick } => {
                    let peer = live.swap_remove((pick % live.len() as u64) as usize);
                    probes.leave.time_if(ctx.trace, || grid.leave(peer));
                }
            }
        }
        let repaired = batch % REPAIR_EVERY == REPAIR_EVERY - 1;
        if repaired {
            let t_repair = Instant::now();
            let alive = vec![true; grid.len()];
            grid.repair(&alive, REPAIR_MEETINGS, &mut rng);
            if grid.len() - grid.live_len() >= PEERS / 8 {
                let mapping = grid.compact();
                for peer in &mut live {
                    *peer = mapping[*peer].expect("live peers survive compaction") as usize;
                }
            }
            if ctx.trace {
                probes.repair.add(t_repair.elapsed(), 1);
            }
        }
        let elapsed = t.elapsed();
        phase.record(elapsed, OPS as u64);

        // Off the clock: invariants after repair, fault-plane probe.
        attempted += OPS as u64;
        if bad > 0 {
            failed += bad;
            problems.push(format!(
                "batch {batch}: {bad} queries answered by non-responsible or departed replicas"
            ));
        }
        if repaired && catch_unwind(AssertUnwindSafe(|| grid.check_invariants())).is_err() {
            failed += 1;
            problems.push(format!(
                "batch {batch}: P-Grid invariants broken after repair"
            ));
        }
        if ctx.trace {
            let at = SimTime::from_micros(op_seq * OP_STAGGER_US);
            probes.decide.time(links.len() as u64, || {
                for (i, &(src, dst)) in links.iter().enumerate() {
                    std::hint::black_box(plane.decide(src, dst, i as u64, at));
                }
            });
        }
        if in_guard {
            for ((name, after), (_, before)) in net_counts(&net).into_iter().zip(sent_before) {
                guard.add(name, after - before);
            }
            guard.add("ops", OPS as u64);
            guard.add("queries", queries);
            guard.add("resolved", resolved);
            guard.add("hops", hops);
            guard.add("replicas", replicas);
            guard.add("insert_replicas", stored);
            guard.add("failed", bad);
            if batch + 1 == SCHEDULE.guard_batches as u64 {
                guard.add("arena_len", grid.len() as u64);
                guard.add("live_len", grid.live_len() as u64);
                guard.add("meetings", grid.meetings_held());
            }
        }
    }
    let phase = phase.finish(|| setup(ctx.seed));

    let mut layers = Layers::default();
    let g = |name| guard.get(name) as f64;
    layers.set(
        "reputation.hops_per_query",
        g("hops") / g("resolved").max(1.0),
    );
    layers.set(
        "reputation.replicas_per_query",
        g("replicas") / g("queries"),
    );
    layers.set("reputation.resolve_ratio", g("resolved") / g("queries"));
    layers.set("reputation.arena_len", g("arena_len"));
    layers.set("netsim.msgs_per_op", g("msgs") / g("ops"));
    layers.set("netsim.drop_ratio", g("dropped") / g("msgs"));
    layers.set("netsim.route_msgs_per_op", g("route_msgs") / g("ops"));
    layers.set(
        "netsim.replicate_msgs_per_op",
        g("replicate_msgs") / g("ops"),
    );
    layers.set(
        "netsim.replica_query_msgs_per_op",
        g("replica_query_msgs") / g("ops"),
    );
    if ctx.trace {
        layers.set("reputation.build_s", build_s);
        layers.set("reputation.query_us", probes.query.mean_s() * 1e6);
        layers.set("reputation.insert_us", probes.insert.mean_s() * 1e6);
        layers.set("reputation.join_us", probes.join.mean_s() * 1e6);
        layers.set("reputation.leave_us", probes.leave.mean_s() * 1e6);
        layers.set("reputation.repair_ms", probes.repair.mean_s() * 1e3);
        layers.set("netsim.fault_decide_ns", probes.decide.mean_s() * 1e9);
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
