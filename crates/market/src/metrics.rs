//! Accuracy and welfare metrics for the experiment suite.
//!
//! # Batched evaluation
//!
//! All three accuracy metrics walk every ordered (evaluator, subject)
//! pair, and all of them run through one private row kernel. It fans
//! chunks of consecutive evaluators across [`parallel_fold`]; each
//! chunk asks every evaluator's model for its whole prediction row at
//! once
//! ([`TrustModel::predict_row_into`][trustex_trust::model::TrustModel::predict_row_into]
//! — a single dense-table sweep that hoists per-call work, notably the
//! complaint model's population median, out of the loop) and reduces
//! the row:
//!
//! - `|p − truth|` goes into the chunk's error buffer, in pair order;
//! - two subject-id lists built once per call, one per class, gather
//!   the row's predictions into an honest and a dishonest key buffer
//!   (an order-preserving integer key of `p`) and tally the thresholded
//!   predictions each class gets right.
//!
//! Sorting both key buffers and merging them once counts the row's
//! Mann–Whitney wins and ties. Every buffer is reused across the
//! chunk's rows, so the kernel allocates nothing per row.
//!
//! Chunks are sized to about 64 KiB of errors (8 rows at n = 10³), so
//! a chunk's error buffer stays cache-resident and nothing of size n²
//! is ever allocated. The caller folds each chunk
//! into one running MAE accumulator as soon as that chunk's turn comes,
//! in evaluator order, replaying the float association of the naive
//! pair walk exactly; rank and decision accuracy fold exact integer
//! tallies. Every metric is therefore bit-identical to the unbatched
//! sequential walk for any thread count.

use crate::population::Community;
use trustex_netsim::pool::{parallel_fold, resolve_threads};
use trustex_trust::model::{PeerId, TrustEstimate};

/// The ground-truth cooperation probability of every agent, in id order.
///
/// The truth vector is static over a simulation run, so per-round metric
/// tracking computes it once and reuses the buffer via
/// [`accuracy_metrics`] instead of re-deriving it every round.
pub fn cooperation_truth(community: &Community) -> Vec<f64> {
    community
        .agent_ids()
        .map(|a| community.true_cooperation_prob(a))
        .collect()
}

/// All three trust-accuracy metrics, computed from one shared batch of
/// evaluator prediction rows by [`accuracy_metrics`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyMetrics {
    /// Mean absolute error against ground truth ([`trust_mae`]).
    pub mae: f64,
    /// Mann–Whitney ranking accuracy ([`rank_accuracy`]).
    pub rank_accuracy: f64,
    /// Thresholded classification accuracy ([`decision_accuracy`]).
    pub decision_accuracy: f64,
}

/// The target size of one chunk's error buffer (see the module docs).
const CHUNK_ERROR_BYTES: usize = 64 * 1024;

/// One chunk of evaluator rows, reduced.
struct ChunkTally {
    /// `|p − truth|` for every pair of the chunk, in pair order.
    abs_err: Vec<f64>,
    /// Mann–Whitney U in half-units (a win is 2, a tie 1).
    rank_half_units: u64,
    /// (honest, dishonest) subject pairs ranked.
    rank_pairs: u64,
    /// Pairs classified correctly by thresholding at 0.5.
    correct: u64,
}

/// The subject ids of each ground-truth class, ascending.
struct Classes {
    honest: Vec<usize>,
    dishonest: Vec<usize>,
}

/// A `u64` whose unsigned order is [`f64::total_cmp`]'s order: the
/// same bit flip `total_cmp` applies, then the sign bit flipped so the
/// signed order becomes the unsigned one.
fn total_order_key(p: f64) -> u64 {
    let bits = p.to_bits() as i64;
    let signed = bits ^ (((bits >> 63) as u64 >> 1) as i64);
    (signed as u64) ^ (1 << 63)
}

/// Mann–Whitney U of one row in half-units: for every dishonest key,
/// 2 per honest key above it and 1 per honest key equal to it. Both
/// slices must be sorted ascending.
fn mann_whitney_half_units(honest: &[u64], dishonest: &[u64]) -> u64 {
    let (mut below, mut below_or_tied) = (0, 0);
    let mut total = 0;
    for &d in dishonest {
        while below < honest.len() && honest[below] < d {
            below += 1;
        }
        below_or_tied = below_or_tied.max(below);
        while below_or_tied < honest.len() && honest[below_or_tied] == d {
            below_or_tied += 1;
        }
        total += 2 * (honest.len() - below_or_tied) as u64 + (below_or_tied - below) as u64;
    }
    total
}

/// The row kernel behind every accuracy metric (see the module docs):
/// reduces the evaluator rows `start..end` with one row buffer and two
/// key buffers reused across rows, and one pre-sized error buffer.
fn chunk_tally(
    community: &Community,
    truth: &[f64],
    classes: &Classes,
    (start, end): (usize, usize),
) -> ChunkTally {
    let n = community.len();
    let mut row = vec![TrustEstimate::UNKNOWN; n];
    let mut honest_keys = Vec::with_capacity(classes.honest.len());
    let mut dishonest_keys = Vec::with_capacity(classes.dishonest.len());
    let mut tally = ChunkTally {
        abs_err: Vec::with_capacity((end - start) * n.saturating_sub(1)),
        rank_half_units: 0,
        rank_pairs: 0,
        correct: 0,
    };
    for evaluator in start..end {
        community.predict_row_into(PeerId(evaluator as u32), &mut row);
        for half in [0..evaluator, evaluator + 1..n] {
            let errors = row[half.clone()].iter().zip(&truth[half]);
            tally
                .abs_err
                .extend(errors.map(|(est, &t)| (est.p_honest - t).abs()));
        }
        honest_keys.clear();
        dishonest_keys.clear();
        for &s in classes.honest.iter().filter(|&&s| s != evaluator) {
            let p = row[s].p_honest;
            tally.correct += u64::from(p >= 0.5);
            honest_keys.push(total_order_key(p));
        }
        for &s in classes.dishonest.iter().filter(|&&s| s != evaluator) {
            let p = row[s].p_honest;
            // A NaN prediction is not `>= 0.5`: it reads as dishonest.
            tally.correct += u64::from(p < 0.5 || p.is_nan());
            dishonest_keys.push(total_order_key(p));
        }
        if !honest_keys.is_empty() && !dishonest_keys.is_empty() {
            honest_keys.sort_unstable();
            dishonest_keys.sort_unstable();
            tally.rank_half_units += mann_whitney_half_units(&honest_keys, &dishonest_keys);
            tally.rank_pairs += (honest_keys.len() * dishonest_keys.len()) as u64;
        }
    }
    tally
}

/// Computes MAE, ranking accuracy and decision accuracy from **one**
/// batch of evaluator prediction rows — each (evaluator, subject) pair
/// is predicted exactly once.
///
/// `threads` resolves as in
/// [`resolve_threads`] (0 = the
/// process default); the result is bit-identical for every value.
///
/// # Panics
///
/// Panics if `truth.len()` differs from the community size.
pub fn accuracy_metrics(community: &Community, truth: &[f64], threads: usize) -> AccuracyMetrics {
    assert_eq!(truth.len(), community.len(), "truth buffer size mismatch");
    let n = community.len();
    let (honest, dishonest) = (0..n).partition(|&a| community.is_honest(PeerId(a as u32)));
    let classes = Classes { honest, dishonest };
    let workers = resolve_threads(threads);
    // About CHUNK_ERROR_BYTES of errors per chunk, and at least ~4
    // chunks per worker so uneven row costs balance.
    let row_bytes = std::mem::size_of::<f64>() * n.saturating_sub(1).max(1);
    let chunk_len = (CHUNK_ERROR_BYTES / row_bytes)
        .min(n.div_ceil(workers.max(1) * 4))
        .max(1);
    let chunks: Vec<(usize, usize)> = (0..n)
        .step_by(chunk_len)
        .map(|start| (start, (start + chunk_len).min(n)))
        .collect();
    let (total, half_units, rank_pairs, correct) = parallel_fold(
        workers,
        chunks,
        |_, rows| chunk_tally(community, truth, &classes, rows),
        (0.0, 0u64, 0u64, 0u64),
        |(mut total, half_units, rank_pairs, correct), tally| {
            for err in &tally.abs_err {
                total += err;
            }
            (
                total,
                half_units + tally.rank_half_units,
                rank_pairs + tally.rank_pairs,
                correct + tally.correct,
            )
        },
    );
    let pairs = (n * n.saturating_sub(1)) as u64;
    AccuracyMetrics {
        mae: if pairs == 0 {
            0.0
        } else {
            total / pairs as f64
        },
        rank_accuracy: if rank_pairs == 0 {
            0.5
        } else {
            half_units as f64 / (2 * rank_pairs) as f64
        },
        decision_accuracy: if pairs == 0 {
            1.0
        } else {
            correct as f64 / pairs as f64
        },
    }
}

/// Mean absolute error of trust estimates against ground truth, averaged
/// over all ordered evaluator→subject pairs (`evaluator ≠ subject`).
pub fn trust_mae(community: &Community) -> f64 {
    trust_mae_with_truth(community, &cooperation_truth(community))
}

/// [`trust_mae`] against a precomputed [`cooperation_truth`] buffer.
///
/// # Panics
///
/// Panics if `truth.len()` differs from the community size.
pub fn trust_mae_with_truth(community: &Community, truth: &[f64]) -> f64 {
    accuracy_metrics(community, truth, 0).mae
}

/// Probability that a uniformly chosen (honest, dishonest) subject pair
/// is ranked correctly by a uniformly chosen evaluator (ties count ½) —
/// an AUC analogue. Returns 0.5 when either class is empty.
pub fn rank_accuracy(community: &Community) -> f64 {
    accuracy_metrics(community, &cooperation_truth(community), 0).rank_accuracy
}

/// Fraction of evaluator→subject pairs classified correctly by
/// thresholding `p_honest` at 0.5 against the binary ground truth.
pub fn decision_accuracy(community: &Community) -> f64 {
    accuracy_metrics(community, &cooperation_truth(community), 0).decision_accuracy
}

/// The unbatched per-pair metric walks the row kernel replaced, kept
/// as differential-test oracles: the batched parallel versions must
/// agree **bit-for-bit** for any community and thread count.
#[cfg(test)]
mod naive {
    use super::*;

    /// Pair-by-pair MAE with a single running accumulator.
    pub fn trust_mae_with_truth(community: &Community, truth: &[f64]) -> f64 {
        assert_eq!(truth.len(), community.len(), "truth buffer size mismatch");
        let mut total = 0.0;
        let mut count = 0usize;
        for e in community.agent_ids() {
            for s in community.agent_ids() {
                if e == s {
                    continue;
                }
                let est = community.predict(e, s).p_honest;
                total += (est - truth[s.index()]).abs();
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }

    /// Per-evaluator sorted Mann–Whitney U count, one `predict` call per
    /// cell (the pre-batching implementation).
    pub fn rank_accuracy(community: &Community) -> f64 {
        let ids: Vec<PeerId> = community.agent_ids().collect();
        let honest: Vec<PeerId> = ids
            .iter()
            .copied()
            .filter(|a| community.is_honest(*a))
            .collect();
        let dishonest: Vec<PeerId> = ids
            .iter()
            .copied()
            .filter(|a| !community.is_honest(*a))
            .collect();
        if honest.is_empty() || dishonest.is_empty() {
            return 0.5;
        }
        let mut half_units: u64 = 0;
        let mut count: u64 = 0;
        let mut honest_scores: Vec<f64> = Vec::with_capacity(honest.len());
        for &e in &ids {
            honest_scores.clear();
            honest_scores.extend(
                honest
                    .iter()
                    .filter(|&&h| h != e)
                    .map(|&h| community.predict(e, h).p_honest),
            );
            if honest_scores.is_empty() {
                continue;
            }
            honest_scores.sort_unstable_by(f64::total_cmp);
            for &d in &dishonest {
                if d == e {
                    continue;
                }
                let pd = community.predict(e, d).p_honest;
                let below = honest_scores.partition_point(|&ph| ph.total_cmp(&pd).is_lt());
                let below_or_tied = honest_scores.partition_point(|&ph| ph.total_cmp(&pd).is_le());
                let wins = (honest_scores.len() - below_or_tied) as u64;
                let ties = (below_or_tied - below) as u64;
                half_units += 2 * wins + ties;
                count += honest_scores.len() as u64;
            }
        }
        if count == 0 {
            0.5
        } else {
            half_units as f64 / (2 * count) as f64
        }
    }

    /// Pair-by-pair thresholded classification walk.
    pub fn decision_accuracy(community: &Community) -> f64 {
        let ids: Vec<PeerId> = community.agent_ids().collect();
        let mut correct = 0usize;
        let mut count = 0usize;
        for &e in &ids {
            for &s in &ids {
                if e == s {
                    continue;
                }
                let predicted_honest = community.predict(e, s).p_honest >= 0.5;
                if predicted_honest == community.is_honest(s) {
                    correct += 1;
                }
                count += 1;
            }
        }
        if count == 0 {
            1.0
        } else {
            correct as f64 / count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::ModelKind;
    use trustex_agents::profile::PopulationMix;
    use trustex_netsim::rng::SimRng;
    use trustex_trust::model::Conduct;

    fn community(dishonest: f64) -> Community {
        community_with(dishonest, ModelKind::Beta, 10)
    }

    fn community_with(dishonest: f64, kind: ModelKind, n: usize) -> Community {
        let mut rng = SimRng::new(1);
        Community::new(n, &PopulationMix::standard(dishonest, 0.0), kind, &mut rng)
    }

    /// Feed every evaluator perfect direct experience about everyone.
    fn educate(c: &mut Community, reps: u64) {
        let ids: Vec<PeerId> = c.agent_ids().collect();
        for &e in &ids {
            for &s in &ids {
                if e == s {
                    continue;
                }
                let conduct = Conduct::from_honest(c.is_honest(s));
                for r in 0..reps {
                    c.record_direct(e, s, conduct, r);
                }
            }
        }
    }

    #[test]
    fn mae_decreases_with_evidence() {
        let mut c = community(0.5);
        let cold = trust_mae(&c);
        assert!((cold - 0.5).abs() < 1e-9, "uninformed prior is 0.5 off");
        educate(&mut c, 10);
        let warm = trust_mae(&c);
        assert!(warm < 0.2, "educated community MAE: {warm}");
    }

    #[test]
    fn rank_accuracy_perfect_after_education() {
        let mut c = community(0.5);
        assert!(
            (rank_accuracy(&c) - 0.5).abs() < 1e-9,
            "cold start is a coin flip"
        );
        educate(&mut c, 5);
        assert_eq!(rank_accuracy(&c), 1.0);
    }

    #[test]
    fn decision_accuracy_after_education() {
        let mut c = community(0.3);
        educate(&mut c, 10);
        assert!(decision_accuracy(&c) > 0.95);
    }

    /// The naive O(n³) pair walk — one step below even [`naive`]'s
    /// sorted formulation — as the ground-truth rank oracle.
    fn rank_accuracy_pair_walk(community: &Community) -> f64 {
        let ids: Vec<PeerId> = community.agent_ids().collect();
        let honest: Vec<PeerId> = ids
            .iter()
            .copied()
            .filter(|a| community.is_honest(*a))
            .collect();
        let dishonest: Vec<PeerId> = ids
            .iter()
            .copied()
            .filter(|a| !community.is_honest(*a))
            .collect();
        if honest.is_empty() || dishonest.is_empty() {
            return 0.5;
        }
        let mut score = 0.0;
        let mut count = 0usize;
        for &e in &ids {
            for &h in &honest {
                if h == e {
                    continue;
                }
                for &d in &dishonest {
                    if d == e {
                        continue;
                    }
                    let ph = community.predict(e, h).p_honest;
                    let pd = community.predict(e, d).p_honest;
                    score += if ph > pd {
                        1.0
                    } else if ph == pd {
                        0.5
                    } else {
                        0.0
                    };
                    count += 1;
                }
            }
        }
        if count == 0 {
            0.5
        } else {
            score / count as f64
        }
    }

    /// Batched metrics must agree bit-for-bit with the retained naive
    /// walks (and rank with the O(n³) pair walk) on cold, partially
    /// educated, noisily educated, fully educated, whitewashed and
    /// degraded communities, for every model kind, for sizes that cut
    /// the evaluator chunks unevenly, and for several thread counts.
    #[test]
    fn batched_metrics_match_naive_reference() {
        for kind in ModelKind::ALL {
            for n in [2, 3, 12, 37, 130] {
                for dishonest_frac in [0.3, 0.5, 0.7] {
                    let mut c = community_with(dishonest_frac, kind, n);
                    c.enable_direct_ledger();
                    let stages: [&dyn Fn(&mut Community); 6] = [
                        &|_| {},
                        &|c| {
                            // Partial education: some evaluators learn,
                            // leaving a mix of informative and cold rows.
                            let ids: Vec<PeerId> = c.agent_ids().collect();
                            for &e in ids.iter().take(4) {
                                for &s in &ids {
                                    if e != s {
                                        let conduct = Conduct::from_honest(c.is_honest(s));
                                        c.record_direct(e, s, conduct, 0);
                                    }
                                }
                            }
                        },
                        &|c| {
                            // Noisy education: uneven evidence volumes
                            // and some flipped outcomes, so the classes'
                            // scores overlap with wins, ties and losses.
                            let ids: Vec<PeerId> = c.agent_ids().collect();
                            for &e in &ids {
                                for &s in &ids {
                                    if e == s {
                                        continue;
                                    }
                                    let flip = (e.0 + s.0) % 4 == 0;
                                    let conduct = Conduct::from_honest(c.is_honest(s) != flip);
                                    for r in 0..=u64::from((e.0 * 7 + s.0 * 3) % 5) {
                                        c.record_direct(e, s, conduct, r);
                                    }
                                }
                            }
                        },
                        &|c| educate(c, 7),
                        &|c| c.whitewash(PeerId(1)),
                        &|c| c.set_degraded(true),
                    ];
                    for stage in stages {
                        stage(&mut c);
                        let truth = cooperation_truth(&c);
                        let expected_mae = naive::trust_mae_with_truth(&c, &truth);
                        let expected_rank = naive::rank_accuracy(&c);
                        let expected_decision = naive::decision_accuracy(&c);
                        let at = format!("{kind:?} n={n} frac={dishonest_frac}");
                        if n <= 37 {
                            assert_eq!(expected_rank, rank_accuracy_pair_walk(&c), "{at}");
                        }
                        assert_eq!(trust_mae_with_truth(&c, &truth), expected_mae, "{at}");
                        assert_eq!(rank_accuracy(&c), expected_rank, "{at}");
                        assert_eq!(decision_accuracy(&c), expected_decision, "{at}");
                        for threads in [1usize, 2, 3, 8] {
                            let m = accuracy_metrics(&c, &truth, threads);
                            assert_eq!(m.mae, expected_mae, "{at} t={threads}");
                            assert_eq!(m.rank_accuracy, expected_rank, "{at} t={threads}");
                            assert_eq!(m.decision_accuracy, expected_decision, "{at} t={threads}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn total_order_key_sorts_like_total_cmp() {
        let values = [
            f64::NEG_INFINITY,
            -1.0,
            -0.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            0.25,
            0.5,
            0.5000000000000001,
            1.0,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for a in values {
            for b in values {
                assert_eq!(
                    total_order_key(a).cmp(&total_order_key(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn trust_mae_with_truth_matches_allocating_path() {
        let mut c = community(0.4);
        educate(&mut c, 3);
        let truth = cooperation_truth(&c);
        assert_eq!(trust_mae(&c), trust_mae_with_truth(&c, &truth));
    }

    #[test]
    #[should_panic(expected = "truth buffer size mismatch")]
    fn trust_mae_with_wrong_buffer_panics() {
        let c = community(0.4);
        trust_mae_with_truth(&c, &[0.5; 3]);
    }

    #[test]
    #[should_panic(expected = "truth buffer size mismatch")]
    fn accuracy_metrics_with_wrong_buffer_panics() {
        let c = community(0.4);
        accuracy_metrics(&c, &[0.5; 3], 1);
    }

    #[test]
    fn degenerate_populations() {
        let c = community(0.0);
        assert_eq!(rank_accuracy(&c), 0.5, "no dishonest class");
        // Decision accuracy with the cold prior (0.5 ≥ 0.5 ⇒ honest)
        // is exactly the honest fraction.
        assert!((decision_accuracy(&c) - 1.0).abs() < 1e-9);
        let truth = cooperation_truth(&c);
        let m = accuracy_metrics(&c, &truth, 2);
        assert_eq!(m.rank_accuracy, 0.5);
        assert_eq!(m.mae, trust_mae(&c));
        assert_eq!(m.decision_accuracy, decision_accuracy(&c));
    }
}
