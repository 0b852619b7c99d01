//! Membership lifecycle: paced admissions and stale-peer eviction.
//!
//! [`PGrid::join`] and [`PGrid::leave`] are mechanism; this module is
//! policy. A real overlay cannot admit an unbounded burst of newcomers
//! in one step (every join costs `O(depth)` meetings of existing
//! members' time) and must shed peers that silently vanish rather than
//! announce their departure. Following the bounded, reputation-aware
//! peer-list shape of the governor pattern (ADR-0008 in SNIPPETS.md),
//! [`Lifecycle`] keeps a FIFO of join tickets with exponential backoff,
//! admits at most a configured number per tick, and evicts, at most as
//! many per tick, live peers whose last activity is older than a
//! staleness horizon of two ticks.
//!
//! The layer is deterministic: given the same grid, RNG and call
//! sequence it produces the same admissions and evictions, so e6 tables
//! built through it stay bit-identical across thread counts.

use crate::pgrid::PGrid;
use std::collections::VecDeque;
use trustex_netsim::rng::SimRng;

/// Backoff after a deferred admission attempt, in ticks: the ticket
/// waits `min(BACKOFF_CAP, BACKOFF_BASE << (attempts - 1))` ticks
/// before becoming eligible again.
const BACKOFF_BASE: u64 = 1;
/// Upper bound on the per-attempt backoff delay, in ticks.
const BACKOFF_CAP: u64 = 16;

/// A live peer not [`Lifecycle::touch`]ed for more than this many ticks
/// is evicted.
const STALE_AFTER: u64 = 2;

/// The delay before a ticket's next admission attempt: exponential in
/// the attempt count, saturating into `BACKOFF_CAP` rather than
/// wrapping, and never less than one tick. The saturation arithmetic
/// (`2u64 << 63 == 0` would collapse late attempts to the minimum
/// delay) lives in the shared `trustex_netsim::backoff` helper, which
/// the fault-plane retry paths reuse.
fn backoff_delay(attempts: u32) -> u64 {
    trustex_netsim::backoff::backoff_delay(BACKOFF_BASE, BACKOFF_CAP, attempts)
}

/// A queued join request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct JoinTicket {
    id: u64,
    attempts: u32,
    ready_at: u64,
}

/// What one [`Lifecycle::step`] did.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TickReport {
    /// The tick that just ran (1-based).
    pub tick: u64,
    /// Dense indices the grid assigned to this tick's admissions, in
    /// admission order.
    pub admitted: Vec<usize>,
    /// Tickets that were eligible but pushed past the admission budget
    /// into backoff.
    pub deferred: usize,
    /// Dense indices of live peers evicted as stale.
    pub evicted: Vec<usize>,
}

/// The admission/eviction state machine over a [`PGrid`].
///
/// It tracks the grid's dense peer indices and does not follow a
/// [`PGrid::compact`] renumbering, so a grid must not be compacted
/// while a `Lifecycle` runs over it.
#[derive(Debug, Clone)]
pub struct Lifecycle {
    /// Admissions, and stale evictions, per tick at most.
    per_tick: usize,
    tick: u64,
    pending: VecDeque<JoinTicket>,
    next_ticket: u64,
    /// `last_seen[i]` = tick of peer `i`'s last activity (admission
    /// counts). Indexed like the grid's dense indices; peers that
    /// predate the lifecycle start at tick 0.
    last_seen: Vec<u64>,
}

impl Lifecycle {
    /// A lifecycle layer over a grid with `initial_peers` already
    /// admitted (use `grid.len()`) that admits at most `per_tick`
    /// newcomers and evicts at most `per_tick` stale peers per tick.
    /// Deferred tickets back off exponentially, 1 tick doubling to at
    /// most 16.
    pub fn new(per_tick: usize, initial_peers: usize) -> Lifecycle {
        Lifecycle {
            per_tick,
            tick: 0,
            pending: VecDeque::new(),
            next_ticket: 0,
            last_seen: vec![0; initial_peers],
        }
    }

    /// Enqueues a join request; returns its ticket id. The newcomer is
    /// admitted by a later [`Lifecycle::step`], budget permitting.
    pub fn request_join(&mut self) -> u64 {
        let id = self.next_ticket;
        self.next_ticket += 1;
        self.pending.push_back(JoinTicket {
            id,
            attempts: 0,
            ready_at: self.tick,
        });
        id
    }

    /// The current tick (number of completed [`Lifecycle::step`]s).
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Records activity for a live peer, resetting its staleness clock.
    ///
    /// # Panics
    ///
    /// Panics if `peer` is not an index this lifecycle has seen.
    pub fn touch(&mut self, peer: usize) {
        self.last_seen[peer] = self.tick;
    }

    /// Runs one tick: admits eligible tickets up to the budget (backing
    /// off the rest), then evicts stale live peers up to the eviction
    /// budget. Eviction never drops the overlay below two live peers.
    pub fn step(&mut self, grid: &mut PGrid, rng: &mut SimRng) -> TickReport {
        self.tick += 1;
        let mut report = TickReport {
            tick: self.tick,
            ..TickReport::default()
        };

        // Admissions: sweep the FIFO once; eligible tickets within the
        // budget join, eligible tickets past it back off exponentially,
        // not-yet-ready tickets just rotate through.
        for _ in 0..self.pending.len() {
            let mut ticket = self.pending.pop_front().expect("queue non-empty");
            if ticket.ready_at > self.tick {
                self.pending.push_back(ticket);
                continue;
            }
            if report.admitted.len() < self.per_tick {
                let idx = grid.join(rng);
                debug_assert_eq!(idx, self.last_seen.len(), "grid and lifecycle out of step");
                self.last_seen.push(self.tick);
                report.admitted.push(idx);
            } else {
                ticket.attempts += 1;
                let delay = backoff_delay(ticket.attempts);
                ticket.ready_at = self.tick.saturating_add(delay);
                report.deferred += 1;
                self.pending.push_back(ticket);
            }
        }

        // Stale eviction: oldest indices first, bounded per tick, never
        // below a routable population.
        for peer in 0..self.last_seen.len() {
            if report.evicted.len() >= self.per_tick || grid.live_len() <= 2 {
                break;
            }
            if grid.is_live(peer) && self.tick.saturating_sub(self.last_seen[peer]) > STALE_AFTER {
                grid.leave(peer);
                report.evicted.push(peer);
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pgrid::PGridConfig;

    fn grid(n: usize, seed: u64) -> (PGrid, SimRng) {
        let mut rng = SimRng::new(seed);
        let cfg = PGridConfig {
            max_depth: 3,
            ..PGridConfig::default()
        };
        (PGrid::build(n, cfg, &mut rng), rng)
    }

    /// One step with every live peer touched first, so no peer goes
    /// stale and only admissions change the overlay.
    fn step_fresh(lc: &mut Lifecycle, g: &mut PGrid, rng: &mut SimRng) -> TickReport {
        for p in (0..g.len()).filter(|&p| g.is_live(p)) {
            lc.touch(p);
        }
        lc.step(g, rng)
    }

    #[test]
    fn admission_rate_is_bounded() {
        let (mut g, mut rng) = grid(32, 1);
        let mut lc = Lifecycle::new(3, g.len());
        for _ in 0..10 {
            lc.request_join();
        }
        let r1 = step_fresh(&mut lc, &mut g, &mut rng);
        assert_eq!(r1.admitted.len(), 3);
        assert_eq!(r1.deferred, 7);
        // Deferred tickets backed off by one tick: round 2 admits the
        // next three.
        let r2 = step_fresh(&mut lc, &mut g, &mut rng);
        assert_eq!(r2.admitted.len(), 3);
        // Drain the rest.
        let mut total = r1.admitted.len() + r2.admitted.len();
        for _ in 0..20 {
            let r = step_fresh(&mut lc, &mut g, &mut rng);
            assert!(r.evicted.is_empty(), "touched peers never go stale");
            total += r.admitted.len();
        }
        assert_eq!(total, 10);
        assert_eq!(g.live_len(), 42);
        g.check_invariants();
    }

    #[test]
    fn backoff_schedule_is_exponential_and_capped() {
        let (mut g, mut rng) = grid(8, 2);
        // Everything defers forever, and nothing is evicted.
        let mut lc = Lifecycle::new(0, g.len());
        lc.request_join();
        // attempts=1 → delay 1, doubling to 16 at attempts=5,
        // attempts=6 → capped at 16.
        let mut deferred_at = Vec::new();
        for _ in 0..60 {
            let r = lc.step(&mut g, &mut rng);
            if r.deferred > 0 {
                deferred_at.push(r.tick);
            }
        }
        assert_eq!(deferred_at[0], 1);
        let gaps: Vec<u64> = deferred_at.windows(2).map(|w| w[1] - w[0]).collect();
        assert_eq!(&gaps[..6], &[1, 2, 4, 8, 16, 16], "backoff gaps: {gaps:?}");
        assert_eq!(g.live_len(), 8, "nothing admitted at zero budget");
    }

    #[test]
    fn backoff_saturates_at_the_cap_past_the_shift_width() {
        assert_eq!(backoff_delay(0), 1, "never less than one tick");
        for (attempts, delay) in [(1, 1), (2, 2), (3, 4), (4, 8), (5, 16)] {
            assert_eq!(backoff_delay(attempts), delay, "attempts={attempts}");
        }
        // `1u64 << 64` is out of range: a plain shift would wrap or
        // collapse the delay at attempt 65 and beyond; the saturating
        // shift must hold the cap instead.
        for attempts in [6u32, 63, 64, 65, 66, 200, u32::MAX] {
            assert_eq!(backoff_delay(attempts), 16, "attempts={attempts}");
        }
    }

    /// Identity churn on the overlay: a peer leaves and files a fresh
    /// join request; the rejoin is admitted under a new dense index
    /// while the old one stays dead.
    #[test]
    fn whitewash_churns_identity_through_leave_and_rejoin() {
        let (mut g, mut rng) = grid(16, 5);
        let mut lc = Lifecycle::new(8, g.len());
        g.leave(3);
        lc.request_join();
        assert!(!g.is_live(3), "the old identity is gone");
        assert_eq!(g.live_len(), 15);
        let r = lc.step(&mut g, &mut rng);
        assert_eq!(r.admitted.len(), 1);
        let fresh = r.admitted[0];
        assert_ne!(fresh, 3, "rejoin gets a fresh dense identity");
        assert!(g.is_live(fresh) && !g.is_live(3));
        assert_eq!(g.live_len(), 16);
        g.check_invariants();
    }

    #[test]
    fn stale_peers_are_evicted_but_touched_peers_survive() {
        let (mut g, mut rng) = grid(16, 3);
        let mut lc = Lifecycle::new(2, g.len());
        // Keep peers 10..16 fresh; 0..10 go stale after tick 2.
        for t in 0..6 {
            for p in 10..16 {
                lc.touch(p);
            }
            let r = lc.step(&mut g, &mut rng);
            if t < 2 {
                assert!(
                    r.evicted.is_empty(),
                    "too early to evict at tick {}",
                    r.tick
                );
            } else {
                assert_eq!(r.evicted.len(), 2, "bounded eviction per tick");
                assert!(r.evicted.iter().all(|&p| p < 10), "fresh peers survive");
            }
        }
        assert_eq!(g.live_len(), 16 - 4 * 2);
        assert!((10..16).all(|p| g.is_live(p)));
        g.check_invariants();
    }

    #[test]
    fn eviction_never_empties_the_overlay() {
        let (mut g, mut rng) = grid(4, 4);
        let mut lc = Lifecycle::new(8, g.len());
        for _ in 0..10 {
            lc.step(&mut g, &mut rng);
        }
        assert_eq!(g.live_len(), 2, "floor of two live peers");
    }

    #[test]
    fn determinism_same_inputs_same_history() {
        let run = || {
            let (mut g, mut rng) = grid(24, 7);
            let mut lc = Lifecycle::new(2, g.len());
            let mut history = Vec::new();
            for t in 0..12u64 {
                if t % 2 == 0 {
                    lc.request_join();
                }
                for p in 0..8 {
                    lc.touch(p);
                }
                history.push(lc.step(&mut g, &mut rng));
            }
            (history, g.live_len())
        };
        assert_eq!(run(), run());
    }
}
