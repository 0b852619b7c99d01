//! Deterministic message-level fault plane: loss, delay jitter and
//! partition episodes.
//!
//! A [`FaultPlane`] decides the fate of every message on a link purely
//! from `(seed, src, dst, msg_seq)` — no draw from any shared RNG
//! stream. That purity is the load-bearing property: a zero-fault plane
//! consumes exactly zero randomness, so routing a path through it is
//! bit-identical to not having a plane at all, and any faulty run
//! replays identically at every thread count.
//!
//! Partitions are *episodes*, not samples: a [`PartitionSpec`] names a
//! deterministic grouping of peers (a bisection or `k` islands, both
//! assigned by hashing the peer id with the plane seed) and a scheduled
//! heal time. Cross-group messages are [`FaultFate::Blocked`] while the
//! episode is live and flow normally once the virtual clock passes
//! `heal_at` — which is what lets bounded retries with backoff straddle
//! a partition and deliver after the heal.

use crate::backoff::splitmix64;
use crate::time::SimTime;

const SALT_LOSS: u64 = 0x4C4F_5353_4C4F_5353; // "LOSSLOSS"
const SALT_DELAY: u64 = 0x4445_4C41_5944_4C59; // "DELAYDLY"
const SALT_GROUP: u64 = 0x4752_4F55_5047_5250; // "GROUPGRP"

/// A named partition episode with a scheduled heal time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionSpec {
    /// No partition; every link is up.
    #[default]
    None,
    /// The population splits into two halves (peer-hash parity); all
    /// cross-half traffic is blocked until `heal_at`.
    Bisect {
        /// Virtual time at which the partition heals.
        heal_at: SimTime,
    },
    /// The population shatters into `islands` hash-assigned groups;
    /// inter-island traffic is blocked until `heal_at`.
    Islands {
        /// Number of islands (clamped to at least 1).
        islands: u32,
        /// Virtual time at which the partition heals.
        heal_at: SimTime,
    },
}

impl PartitionSpec {
    /// A short stable label for tables ("none", "bisect", "islands").
    pub fn label(&self) -> &'static str {
        match self {
            PartitionSpec::None => "none",
            PartitionSpec::Bisect { .. } => "bisect",
            PartitionSpec::Islands { .. } => "islands",
        }
    }
}

/// Knobs of a [`FaultPlane`]. The default is the zero plane: no loss,
/// no extra delay, no partition.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultConfig {
    /// Independent per-message loss probability in `[0, 1]`.
    pub loss: f64,
    /// Maximum extra delay jitter in microseconds; each delivered
    /// message gains a hash-uniform extra delay in `[0, max]`.
    pub extra_delay_max_us: u64,
    /// Partition episode, if any.
    pub partition: PartitionSpec,
}

impl FaultConfig {
    /// The configuration's rule: `loss` is a probability in `[0, 1]`
    /// (NaN violates it). Every `extra_delay_max_us` and every partition
    /// is valid.
    pub fn validate(&self) -> Result<(), &'static str> {
        if !(0.0..=1.0).contains(&self.loss) {
            return Err("fault loss must be in [0, 1]");
        }
        Ok(())
    }
}

/// The fate of one message, decided by [`FaultPlane::decide`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultFate {
    /// The message arrives, possibly late.
    Deliver {
        /// Extra delay injected on top of the link's base latency.
        extra_delay: SimTime,
    },
    /// The message is silently lost.
    Lost,
    /// A live partition episode separates `src` and `dst`.
    Blocked,
}

/// A seeded, pure per-link fault injector.
///
/// # Examples
///
/// ```
/// use trustex_netsim::fault::{FaultConfig, FaultFate, FaultPlane};
/// use trustex_netsim::time::SimTime;
///
/// let plane = FaultPlane::new(7, FaultConfig { loss: 0.5, ..FaultConfig::default() });
/// let fate = plane.decide(1, 2, 0, SimTime::ZERO);
/// // Pure function: the same (src, dst, seq) always gets the same fate.
/// assert_eq!(fate, plane.decide(1, 2, 0, SimTime::ZERO));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlane {
    seed: u64,
    cfg: FaultConfig,
}

impl FaultPlane {
    /// A plane with the given seed and knobs.
    ///
    /// # Panics
    ///
    /// Panics with the violated rule if `cfg` is invalid (see
    /// [`FaultConfig::validate`]).
    pub fn new(seed: u64, cfg: FaultConfig) -> FaultPlane {
        if let Err(rule) = cfg.validate() {
            panic!("{rule}");
        }
        FaultPlane { seed, cfg }
    }

    /// The zero plane: delivers everything, on time.
    pub fn transparent(seed: u64) -> FaultPlane {
        FaultPlane::new(seed, FaultConfig::default())
    }

    fn mix(&self, salt: u64, src: u32, dst: u32, seq: u64) -> u64 {
        let link = (u64::from(src) << 32) | u64::from(dst);
        splitmix64(
            splitmix64(self.seed ^ salt)
                .wrapping_add(splitmix64(link))
                .wrapping_add(seq),
        )
    }

    /// Hash word → uniform in `[0, 1)` (same 53-bit construction as
    /// `SimRng::f64`, but from a pure hash).
    fn unit(h: u64) -> f64 {
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// The partition group a peer belongs to under the active episode
    /// (always 0 when no partition is configured).
    pub fn group_of(&self, peer: u32) -> u32 {
        let h = splitmix64(self.seed ^ SALT_GROUP ^ u64::from(peer));
        match self.cfg.partition {
            PartitionSpec::None => 0,
            PartitionSpec::Bisect { .. } => (h & 1) as u32,
            PartitionSpec::Islands { islands, .. } => (h % u64::from(islands.max(1))) as u32,
        }
    }

    /// Whether a live partition episode separates `src` and `dst` at
    /// virtual time `at`.
    pub fn blocked(&self, src: u32, dst: u32, at: SimTime) -> bool {
        let heal_at = match self.cfg.partition {
            PartitionSpec::None => return false,
            PartitionSpec::Bisect { heal_at } => heal_at,
            PartitionSpec::Islands { heal_at, .. } => heal_at,
        };
        at < heal_at && self.group_of(src) != self.group_of(dst)
    }

    /// Decides the fate of message `seq` from `src` to `dst` sent at
    /// virtual time `at`. Pure: no shared state, no RNG.
    pub fn decide(&self, src: u32, dst: u32, seq: u64, at: SimTime) -> FaultFate {
        if self.blocked(src, dst, at) {
            return FaultFate::Blocked;
        }
        if self.cfg.loss > 0.0 && Self::unit(self.mix(SALT_LOSS, src, dst, seq)) < self.cfg.loss {
            return FaultFate::Lost;
        }
        let extra_delay = if self.cfg.extra_delay_max_us > 0 {
            let h = self.mix(SALT_DELAY, src, dst, seq);
            // `[0, u64::MAX]` is every hash word: no modulus to take.
            SimTime::from_micros(match self.cfg.extra_delay_max_us.checked_add(1) {
                Some(span) => h % span,
                None => h,
            })
        } else {
            SimTime::ZERO
        };
        FaultFate::Deliver { extra_delay }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy(loss: f64) -> FaultPlane {
        FaultPlane::new(
            0xFA17,
            FaultConfig {
                loss,
                ..FaultConfig::default()
            },
        )
    }

    #[test]
    fn zero_plane_is_always_clean() {
        let plane = FaultPlane::transparent(99);
        for seq in 0..500 {
            assert_eq!(
                plane.decide(3, 8, seq, SimTime::ZERO),
                FaultFate::Deliver {
                    extra_delay: SimTime::ZERO
                }
            );
        }
    }

    #[test]
    fn fate_is_pure_in_all_inputs() {
        let plane = FaultPlane::new(
            1,
            FaultConfig {
                loss: 0.3,
                extra_delay_max_us: 500,
                partition: PartitionSpec::Bisect {
                    heal_at: SimTime::from_millis(10),
                },
            },
        );
        for seq in 0..200 {
            let a = plane.decide(4, 9, seq, SimTime::from_millis(seq % 20));
            let b = plane.decide(4, 9, seq, SimTime::from_millis(seq % 20));
            assert_eq!(a, b);
        }
        // Distinct seqs decorrelate (sampled past the heal so the
        // partition cannot flatten every fate to Blocked).
        let healed = SimTime::from_millis(10);
        let fates: Vec<_> = (0..64).map(|s| plane.decide(1, 2, s, healed)).collect();
        assert!(fates.iter().any(|f| *f != fates[0]));
    }

    #[test]
    fn loss_rate_tracks_probability() {
        let plane = lossy(0.25);
        let lost = (0..4000)
            .filter(|&seq| plane.decide(0, 1, seq, SimTime::ZERO) == FaultFate::Lost)
            .count();
        let frac = lost as f64 / 4000.0;
        assert!((frac - 0.25).abs() < 0.03, "loss fraction {frac}");
    }

    #[test]
    fn extra_delay_is_bounded() {
        let plane = FaultPlane::new(
            3,
            FaultConfig {
                extra_delay_max_us: 250,
                ..FaultConfig::default()
            },
        );
        let mut max_seen = 0;
        for seq in 0..2000 {
            match plane.decide(5, 6, seq, SimTime::ZERO) {
                FaultFate::Deliver { extra_delay } => {
                    assert!(extra_delay.as_micros() <= 250);
                    max_seen = max_seen.max(extra_delay.as_micros());
                }
                other => panic!("unexpected fate {other:?}"),
            }
        }
        assert!(max_seen > 0, "jitter never fired");
    }

    /// Regression: a maximal jitter bound used to wrap the modulus to
    /// `% 0` and panic on the first decision.
    #[test]
    fn maximal_extra_delay_is_accepted() {
        let plane = FaultPlane::new(
            3,
            FaultConfig {
                extra_delay_max_us: u64::MAX,
                ..FaultConfig::default()
            },
        );
        let delays: Vec<_> = (0..64)
            .map(|seq| match plane.decide(5, 6, seq, SimTime::ZERO) {
                FaultFate::Deliver { extra_delay } => extra_delay,
                other => panic!("unexpected fate {other:?}"),
            })
            .collect();
        assert!(
            delays.iter().any(|d| *d != delays[0]),
            "jitter never varied"
        );
    }

    #[test]
    fn validate_accepts_the_probability_bounds() {
        for p in [0.0, 0.5, 1.0] {
            let cfg = FaultConfig {
                loss: p,
                extra_delay_max_us: u64::MAX,
                partition: PartitionSpec::Islands {
                    islands: 0,
                    heal_at: SimTime::ZERO,
                },
            };
            assert_eq!(cfg.validate(), Ok(()), "p={p}");
        }
    }

    #[test]
    fn validate_rejects_loss_outside_the_unit_interval() {
        for loss in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let cfg = FaultConfig {
                loss,
                ..FaultConfig::default()
            };
            assert_eq!(
                cfg.validate(),
                Err("fault loss must be in [0, 1]"),
                "{loss}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "fault loss must be in [0, 1]")]
    fn invalid_loss_panics() {
        lossy(f64::NAN);
    }

    #[test]
    fn bisect_blocks_cross_group_until_heal() {
        let heal_at = SimTime::from_millis(50);
        let plane = FaultPlane::new(
            11,
            FaultConfig {
                partition: PartitionSpec::Bisect { heal_at },
                ..FaultConfig::default()
            },
        );
        // Find one cross-group and one same-group pair.
        let g0 = plane.group_of(0);
        let cross = (1..64)
            .find(|&p| plane.group_of(p) != g0)
            .expect("cross peer");
        let same = (1..64)
            .find(|&p| plane.group_of(p) == g0)
            .expect("same peer");
        let during = SimTime::from_millis(10);
        assert_eq!(plane.decide(0, cross, 0, during), FaultFate::Blocked);
        let delivered = |fate| matches!(fate, FaultFate::Deliver { .. });
        assert!(delivered(plane.decide(0, same, 0, during)));
        // Heal boundary: at `heal_at` traffic flows again.
        assert!(delivered(plane.decide(0, cross, 0, heal_at)));
        assert!(delivered(plane.decide(
            0,
            cross,
            0,
            SimTime::from_millis(60)
        )));
    }

    #[test]
    fn islands_assign_every_group_and_heal() {
        let heal_at = SimTime::from_millis(20);
        let plane = FaultPlane::new(
            13,
            FaultConfig {
                partition: PartitionSpec::Islands {
                    islands: 4,
                    heal_at,
                },
                ..FaultConfig::default()
            },
        );
        let mut seen = [false; 4];
        for p in 0..256 {
            let g = plane.group_of(p);
            assert!(g < 4);
            seen[g as usize] = true;
        }
        assert_eq!(seen, [true; 4], "some island never assigned");
        // Pick two peers on different islands: blocked, then healed.
        let g0 = plane.group_of(0);
        let other = (1..256).find(|&p| plane.group_of(p) != g0).unwrap();
        assert_eq!(plane.decide(0, other, 0, SimTime::ZERO), FaultFate::Blocked);
        assert!(matches!(
            plane.decide(0, other, 0, heal_at),
            FaultFate::Deliver { .. }
        ));
    }

    #[test]
    fn partition_labels_are_stable() {
        assert_eq!(PartitionSpec::None.label(), "none");
        assert_eq!(
            PartitionSpec::Bisect {
                heal_at: SimTime::ZERO
            }
            .label(),
            "bisect"
        );
        assert_eq!(
            PartitionSpec::Islands {
                islands: 3,
                heal_at: SimTime::ZERO
            }
            .label(),
            "islands"
        );
    }
}
