//! Node availability (churn) timelines.
//!
//! Peer-to-peer reputation storage must tolerate peers joining and
//! leaving. [`ChurnModel`] describes alternating exponential up/down
//! periods; [`ChurnTimeline`] materialises one deterministic timeline per
//! node over a finite horizon and answers point queries.

use crate::rng::SimRng;
use crate::time::SimTime;

/// Alternating-renewal churn model: nodes are up for an exponential
/// duration with mean `mean_up`, then down with mean `mean_down`
/// (both in simulated seconds).
///
/// `initial_up_prob` gives the probability that a node starts in the up
/// state; the stationary choice is `mean_up / (mean_up + mean_down)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnModel {
    /// Mean duration of an up period, in seconds.
    pub mean_up: f64,
    /// Mean duration of a down period, in seconds.
    pub mean_down: f64,
    /// Probability a node starts up.
    pub initial_up_prob: f64,
}

impl ChurnModel {
    /// Creates a churn model with the stationary initial-state probability.
    ///
    /// # Panics
    ///
    /// Panics if either mean is not positive.
    pub fn new(mean_up: f64, mean_down: f64) -> Self {
        assert!(mean_up > 0.0 && mean_down > 0.0);
        let p = if mean_up.is_infinite() {
            1.0
        } else {
            mean_up / (mean_up + mean_down)
        };
        ChurnModel {
            mean_up,
            mean_down,
            initial_up_prob: p,
        }
    }
}

/// A materialised availability timeline for a set of nodes.
///
/// For each node the timeline stores the sorted instants at which the node
/// flips state; queries binary-search those instants.
///
/// # Examples
///
/// ```
/// use trustex_netsim::churn::{ChurnModel, ChurnTimeline};
/// use trustex_netsim::rng::SimRng;
/// use trustex_netsim::time::SimTime;
///
/// // Up for 30 s, then down for 10 s, on average: 75 % availability.
/// let model = ChurnModel::new(30.0, 10.0);
/// let horizon = SimTime::from_secs(100);
/// let a = ChurnTimeline::generate(8, horizon, model, &mut SimRng::new(3));
/// let b = ChurnTimeline::generate(8, horizon, model, &mut SimRng::new(3));
/// // The same seed materialises the same timeline.
/// let t = SimTime::from_secs(50);
/// assert!((0..a.len()).all(|i| a.is_up(i, t) == b.is_up(i, t)));
/// ```
#[derive(Debug, Clone)]
pub struct ChurnTimeline {
    initial_up: Vec<bool>,
    // Flip instants per node, strictly increasing.
    flips: Vec<Vec<SimTime>>,
}

impl ChurnTimeline {
    /// Generates a deterministic timeline for `n` nodes over `[0, horizon]`;
    /// queries beyond `horizon` extrapolate each node's last state.
    pub fn generate(n: usize, horizon: SimTime, model: ChurnModel, rng: &mut SimRng) -> Self {
        let mut initial_up = Vec::with_capacity(n);
        let mut flips = Vec::with_capacity(n);
        for _ in 0..n {
            let mut up = rng.chance(model.initial_up_prob);
            initial_up.push(up);
            let mut node_flips = Vec::new();
            let mut t = 0.0f64;
            let horizon_s = horizon.as_secs_f64();
            loop {
                let mean = if up { model.mean_up } else { model.mean_down };
                if mean.is_infinite() {
                    break;
                }
                // Exponential holding time with the current state's mean.
                t += rng.exponential(1.0 / mean);
                if t >= horizon_s {
                    break;
                }
                // Truncating to whole microseconds can land two close
                // flips on the same instant, where `is_up`'s partition
                // point would swallow both toggles; bump to keep the
                // flip list strictly increasing.
                let mut instant = SimTime::from_micros((t * 1e6) as u64);
                if let Some(&last) = node_flips.last() {
                    if instant <= last {
                        instant = SimTime::from_micros(last.as_micros() + 1);
                    }
                }
                node_flips.push(instant);
                up = !up;
            }
            flips.push(node_flips);
        }
        ChurnTimeline { initial_up, flips }
    }

    /// Number of nodes covered by the timeline.
    pub fn len(&self) -> usize {
        self.initial_up.len()
    }

    /// Whether the timeline covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.initial_up.is_empty()
    }

    /// Whether `node` is up at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn is_up(&self, node: usize, t: SimTime) -> bool {
        let n_flips = self.flips[node].partition_point(|ft| *ft <= t);
        // Each flip toggles the state; even count = initial state.
        self.initial_up[node] ^ (n_flips % 2 == 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Indices of all nodes up at time `t`.
    fn up_nodes(tl: &ChurnTimeline, t: SimTime) -> Vec<usize> {
        (0..tl.len()).filter(|&i| tl.is_up(i, t)).collect()
    }

    #[test]
    fn always_up_never_flips() {
        let mut rng = SimRng::new(1);
        let model = ChurnModel::new(f64::INFINITY, 1.0);
        assert_eq!(model.initial_up_prob, 1.0);
        let tl = ChurnTimeline::generate(10, SimTime::from_secs(1_000), model, &mut rng);
        for i in 0..10 {
            assert!(tl.flips[i].is_empty());
            assert!(tl.is_up(i, SimTime::ZERO));
            assert!(tl.is_up(i, SimTime::from_secs(999)));
        }
    }

    #[test]
    fn stationary_availability_close_to_model() {
        let mut rng = SimRng::new(2);
        let model = ChurnModel::new(30.0, 10.0); // availability 0.75
        let tl = ChurnTimeline::generate(2_000, SimTime::from_secs(500), model, &mut rng);
        let a = up_nodes(&tl, SimTime::from_secs(250)).len() as f64 / tl.len() as f64;
        assert!((a - 0.75).abs() < 0.05, "availability {a}");
    }

    #[test]
    fn flips_toggle_state() {
        let mut rng = SimRng::new(3);
        let model = ChurnModel::new(1.0, 1.0);
        let tl = ChurnTimeline::generate(50, SimTime::from_secs(100), model, &mut rng);
        // Walk one node through its flip list and confirm is_up alternates.
        let node = 0;
        let mut expect = tl.initial_up[node];
        assert_eq!(tl.is_up(node, SimTime::ZERO), expect);
        for &ft in &tl.flips[node] {
            expect = !expect;
            assert_eq!(tl.is_up(node, ft), expect, "state after flip at {ft}");
        }
    }

    #[test]
    fn model_constructor_stationary_prob() {
        let m = ChurnModel::new(20.0, 5.0);
        assert!((m.initial_up_prob - 0.8).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn invalid_model_panics() {
        ChurnModel::new(0.0, 1.0);
    }

    #[test]
    fn determinism() {
        let mk = || {
            let mut rng = SimRng::new(77);
            ChurnTimeline::generate(
                20,
                SimTime::from_secs(100),
                ChurnModel::new(5.0, 5.0),
                &mut rng,
            )
        };
        let a = mk();
        let b = mk();
        for t in [0u64, 10, 50, 99] {
            let t = SimTime::from_secs(t);
            assert_eq!(up_nodes(&a, t), up_nodes(&b, t));
        }
    }

    /// Regression: sub-microsecond holding times used to truncate onto
    /// the same `SimTime`, breaking the documented strictly-increasing
    /// invariant and making `is_up` swallow both toggles at that instant.
    #[test]
    fn flips_stay_strictly_increasing_under_submicrosecond_holding_times() {
        let mut rng = SimRng::new(11);
        // Mean down-time of 1 ns: consecutive down→up flips land well
        // inside the same microsecond before truncation.
        let model = ChurnModel::new(2.0, 1e-9);
        let tl = ChurnTimeline::generate(64, SimTime::from_secs(50), model, &mut rng);
        let mut collisions_possible = 0usize;
        for node in 0..tl.len() {
            let flips = &tl.flips[node];
            for pair in flips.windows(2) {
                assert!(
                    pair[0] < pair[1],
                    "node {node}: flips must be strictly increasing, got {:?}",
                    pair
                );
                if pair[1].as_micros() - pair[0].as_micros() == 1 {
                    collisions_possible += 1;
                }
            }
            // Every flip must be observable: the state at flip k differs
            // from the state just before it.
            let mut expect = tl.initial_up[node];
            for &ft in flips {
                expect = !expect;
                assert_eq!(tl.is_up(node, ft), expect, "node {node} flip at {ft}");
            }
        }
        assert!(
            collisions_possible > 0,
            "the scenario must actually exercise the collision path"
        );
    }

    #[test]
    fn empty_timeline() {
        let mut rng = SimRng::new(4);
        let tl = ChurnTimeline::generate(
            0,
            SimTime::from_secs(1),
            ChurnModel::new(1.0, 1.0),
            &mut rng,
        );
        assert!(tl.is_empty());
        assert_eq!(tl.len(), 0);
        assert_eq!(rng, SimRng::new(4), "no node, no draw");
    }
}
