//! Message-level network model: link latency, fault-plane fates and
//! per-kind message accounting.
//!
//! The P-Grid reputation storage (crate `trustex-reputation`) routes
//! queries through this model so that the experiment suite can report the
//! *message cost* of reputation lookups — the metric the underlying
//! CIKM 2001 system was evaluated on — without opening real sockets.

use crate::fault::{FaultFate, FaultPlane};
use crate::rng::SimRng;
use crate::time::SimTime;
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a simulated node.
///
/// A plain newtype over `u32`; the reputation layer maps its own peer
/// identifiers onto these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// One-way message latency: uniform in `[lo, hi)` microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Inclusive lower bound in microseconds.
    pub lo: u64,
    /// Exclusive upper bound in microseconds.
    pub hi: u64,
}

impl Default for Latency {
    /// A LAN-ish default: uniform 200µs–2ms.
    fn default() -> Self {
        Latency { lo: 200, hi: 2_000 }
    }
}

impl Latency {
    /// Samples a one-way delay; a degenerate band (`lo + 1 >= hi`)
    /// returns `lo` without drawing.
    pub fn sample(&self, rng: &mut SimRng) -> SimTime {
        let us = if self.lo + 1 >= self.hi {
            self.lo
        } else {
            rng.range_u64(self.lo, self.hi)
        };
        SimTime::from_micros(us)
    }
}

/// Static configuration of a [`Network`]. Message loss is not configured
/// here: it is the fault plane's ([`crate::fault::FaultConfig::loss`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NetConfig {
    /// One-way latency band.
    pub latency: Latency,
}

/// Outcome of attempting to send one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Message arrives after the contained one-way delay.
    Delivered(SimTime),
    /// Message was lost.
    Dropped,
}

/// A message-accounting network model.
///
/// `Network` does not own an event queue; callers sample deliveries and
/// schedule them however they like (the P-Grid layer routes recursively
/// and simply sums delays and hops). What `Network` *does* own is the
/// bookkeeping: messages sent / dropped per kind, so experiments can
/// report exact message complexities.
///
/// # Examples
///
/// ```
/// use trustex_netsim::net::{Delivery, Latency, NetConfig, Network, NodeId};
/// use trustex_netsim::rng::SimRng;
/// use trustex_netsim::time::SimTime;
///
/// let mut rng = SimRng::new(1);
/// let mut net = Network::new(NetConfig { latency: Latency { lo: 500, hi: 500 } });
/// match net.send_link("query", NodeId(0), NodeId(1), SimTime::ZERO, &mut rng) {
///     Delivery::Delivered(d) => assert_eq!(d.as_micros(), 500),
///     Delivery::Dropped => unreachable!(),
/// }
/// assert_eq!(net.sent("query"), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Network {
    cfg: NetConfig,
    plane: FaultPlane,
    /// Monotone per-network message sequence; together with the link
    /// endpoints it keys every fault-plane decision.
    next_seq: u64,
    sent: BTreeMap<&'static str, u64>,
    dropped: BTreeMap<&'static str, u64>,
}

impl Network {
    /// Creates a network with the given configuration and a transparent
    /// fault plane (every message is delivered after its latency sample).
    pub fn new(cfg: NetConfig) -> Self {
        Network::with_fault_plane(cfg, FaultPlane::transparent(0))
    }

    /// Creates a network whose sends pass through a fault plane.
    pub fn with_fault_plane(cfg: NetConfig, plane: FaultPlane) -> Self {
        Network {
            cfg,
            plane,
            next_seq: 0,
            sent: BTreeMap::new(),
            dropped: BTreeMap::new(),
        }
    }

    /// The installed fault plane.
    pub fn fault_plane(&self) -> &FaultPlane {
        &self.plane
    }

    /// Messages assigned a fault-plane sequence number so far.
    pub fn link_messages(&self) -> u64 {
        self.next_seq
    }

    /// Attempts to send a message of `kind` on the link `src → dst` at
    /// virtual time `at`, returning its fate.
    ///
    /// Every call counts as one sent message of `kind`, consumes one
    /// monotone sequence number and samples its latency from `rng`.
    /// The fault plane's pure `(seed, src, dst, seq)` decision is layered
    /// on top and draws nothing, so a transparent plane delivers every
    /// message after its latency sample:
    ///
    /// * `Lost`/`Blocked` count as a drop of `kind`;
    /// * injected duplicates count as extra sent messages of `kind`
    ///   (they are real copies on the wire);
    /// * injected extra delay is added to the sampled base latency.
    pub fn send_link(
        &mut self,
        kind: &'static str,
        src: NodeId,
        dst: NodeId,
        at: SimTime,
        rng: &mut SimRng,
    ) -> Delivery {
        let seq = self.next_seq;
        self.next_seq += 1;
        *self.sent.entry(kind).or_insert(0) += 1;
        let base = self.cfg.latency.sample(rng);
        match self.plane.decide(src.0, dst.0, seq, at) {
            FaultFate::Lost | FaultFate::Blocked => {
                *self.dropped.entry(kind).or_insert(0) += 1;
                Delivery::Dropped
            }
            FaultFate::Deliver {
                extra_delay,
                duplicates,
            } => {
                if duplicates > 0 {
                    *self.sent.entry(kind).or_insert(0) += u64::from(duplicates);
                }
                Delivery::Delivered(base + extra_delay)
            }
        }
    }

    /// Messages sent of a given kind (including later-dropped ones).
    pub fn sent(&self, kind: &str) -> u64 {
        self.sent.get(kind).copied().unwrap_or(0)
    }

    /// Messages dropped of a given kind.
    pub fn dropped(&self, kind: &str) -> u64 {
        self.dropped.get(kind).copied().unwrap_or(0)
    }

    /// Total messages sent across all kinds.
    pub fn total_sent(&self) -> u64 {
        self.sent.values().sum()
    }

    /// Total messages dropped across all kinds.
    pub fn total_dropped(&self) -> u64 {
        self.dropped.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_latency_in_bounds() {
        let mut rng = SimRng::new(2);
        let lat = Latency { lo: 100, hi: 200 };
        for _ in 0..1000 {
            let d = lat.sample(&mut rng).as_micros();
            assert!((100..200).contains(&d), "{d}");
        }
    }

    #[test]
    fn uniform_degenerate_band() {
        let mut rng = SimRng::new(3);
        let lat = Latency { lo: 100, hi: 100 };
        assert_eq!(lat.sample(&mut rng).as_micros(), 100);
    }

    #[test]
    fn send_counts_and_drops() {
        use crate::fault::FaultConfig;
        let mut rng = SimRng::new(5);
        let plane = FaultPlane::new(
            5,
            FaultConfig {
                loss: 0.5,
                ..FaultConfig::default()
            },
        );
        let mut net = Network::with_fault_plane(NetConfig::default(), plane);
        let mut delivered = 0;
        for _ in 0..1000 {
            if let Delivery::Delivered(_) =
                net.send_link("q", NodeId(0), NodeId(1), SimTime::ZERO, &mut rng)
            {
                delivered += 1;
            }
        }
        assert_eq!(net.sent("q"), 1000);
        assert_eq!(net.dropped("q") + delivered, 1000);
        let frac = net.dropped("q") as f64 / 1000.0;
        assert!((frac - 0.5).abs() < 0.06, "drop fraction {frac}");
    }

    #[test]
    fn kinds_are_separate() {
        let mut rng = SimRng::new(6);
        let mut net = Network::new(NetConfig::default());
        net.send_link("a", NodeId(0), NodeId(1), SimTime::ZERO, &mut rng);
        net.send_link("a", NodeId(0), NodeId(1), SimTime::ZERO, &mut rng);
        net.send_link("b", NodeId(0), NodeId(1), SimTime::ZERO, &mut rng);
        assert_eq!(net.sent("a"), 2);
        assert_eq!(net.sent("b"), 1);
        assert_eq!(net.sent("c"), 0);
        assert_eq!(net.total_sent(), 3);
        assert_eq!(net.total_dropped(), 0);
    }

    /// With no plane given, `Network::new` installs a transparent one, so
    /// a link send must follow the latency band alone: replayed here
    /// independently as one latency sample per message, with the
    /// sent/dropped counters and sequence numbers to match.
    #[test]
    fn send_link_without_plane_matches_send_exactly() {
        let cfg = NetConfig {
            latency: Latency { lo: 100, hi: 900 },
        };
        let mut net = Network::new(cfg);
        let mut rng = SimRng::new(42);
        let mut replay = SimRng::new(42);
        for i in 0..500u32 {
            let got = net.send_link("q", NodeId(i), NodeId(i + 1), SimTime::ZERO, &mut rng);
            let want = Delivery::Delivered(cfg.latency.sample(&mut replay));
            assert_eq!(got, want, "message {i}");
        }
        assert_eq!(rng.next_u64(), replay.next_u64(), "RNG streams diverged");
        assert_eq!(net.sent("q"), 500);
        assert_eq!(net.dropped("q"), 0);
        assert_eq!(net.link_messages(), 500);
        assert_eq!(*net.fault_plane(), FaultPlane::transparent(0));
    }

    /// A transparent plane under any seed draws no RNG and changes no
    /// fate: a link send through it must equal a `Network::new` send
    /// draw for draw, with the same counters and RNG stream afterwards.
    #[test]
    fn zero_plane_send_link_matches_send_exactly() {
        let cfg = NetConfig {
            latency: Latency { lo: 100, hi: 900 },
        };
        let mut plain = Network::new(cfg);
        let mut chaos = Network::with_fault_plane(cfg, FaultPlane::transparent(7));
        let mut rng_a = SimRng::new(9);
        let mut rng_b = SimRng::new(9);
        for i in 0..500u32 {
            let da = plain.send_link("q", NodeId(i), NodeId(0), SimTime::ZERO, &mut rng_a);
            let db = chaos.send_link("q", NodeId(i), NodeId(0), SimTime::ZERO, &mut rng_b);
            assert_eq!(da, db, "message {i}");
        }
        assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "RNG streams diverged");
        assert_eq!(plain.sent("q"), chaos.sent("q"));
        assert_eq!(plain.dropped("q"), chaos.dropped("q"));
        assert_eq!(plain.link_messages(), chaos.link_messages());
    }

    /// Satellite check: with a faulty plane installed, the per-kind
    /// sent/dropped counters must equal the arithmetic of the injected
    /// faults exactly — replayed here by re-deciding every message fate
    /// independently of the `Network` under test.
    #[test]
    fn per_kind_accounting_equals_injected_fault_arithmetic() {
        use crate::fault::FaultConfig;
        let plane = FaultPlane::new(
            0xACC7,
            FaultConfig {
                loss: 0.3,
                duplicate: 0.25,
                extra_delay_max_us: 400,
                ..FaultConfig::default()
            },
        );
        let cfg = NetConfig {
            latency: Latency {
                lo: 1_000,
                hi: 1_000,
            },
        };
        let mut net = Network::with_fault_plane(cfg, plane);
        let mut rng = SimRng::new(31);
        let kinds = ["route", "replica_query"];
        let mut expected_sent = [0u64; 2];
        let mut expected_dropped = [0u64; 2];
        for i in 0..2000u64 {
            let k = (i % 2) as usize;
            let (src, dst) = (NodeId((i % 17) as u32), NodeId((i % 23) as u32));
            // Independent replay of the plane's pure decision for the
            // sequence number the network is about to assign.
            match plane.decide(src.0, dst.0, i, SimTime::ZERO) {
                FaultFate::Lost | FaultFate::Blocked => {
                    expected_sent[k] += 1;
                    expected_dropped[k] += 1;
                }
                FaultFate::Deliver {
                    extra_delay,
                    duplicates,
                } => {
                    expected_sent[k] += 1 + u64::from(duplicates);
                    let got = net.send_link(kinds[k], src, dst, SimTime::ZERO, &mut rng);
                    assert_eq!(
                        got,
                        Delivery::Delivered(SimTime::from_micros(1_000) + extra_delay)
                    );
                    continue;
                }
            }
            assert_eq!(
                net.send_link(kinds[k], src, dst, SimTime::ZERO, &mut rng),
                Delivery::Dropped
            );
        }
        assert_eq!(net.link_messages(), 2000);
        for (k, kind) in kinds.iter().enumerate() {
            assert_eq!(net.sent(kind), expected_sent[k], "sent[{kind}]");
            assert_eq!(net.dropped(kind), expected_dropped[k], "dropped[{kind}]");
        }
        assert_eq!(net.total_sent(), expected_sent.iter().sum::<u64>());
        assert_eq!(net.total_dropped(), expected_dropped.iter().sum::<u64>());
    }

    #[test]
    fn node_id_display_and_from() {
        let n: NodeId = 7u32.into();
        assert_eq!(format!("{n}"), "n7");
        assert_eq!(n, NodeId(7));
    }
}
