//! Accuracy and welfare metrics for the experiment suite.
//!
//! # The sparse row kernel
//!
//! All three accuracy metrics score every ordered (evaluator, subject)
//! pair, and all of them run through one private row kernel. It fans
//! chunks of consecutive evaluators across [`parallel_fold`]. Each
//! chunk reads every evaluator's row sparsely
//! (`Community::predict_row_sparse`, built on
//! [`TrustModel::predict_row_sparse`][trustex_trust::model::TrustModel::predict_row_sparse]):
//! the few subjects with written evidence are listed, and every other
//! subject gets one *cold* estimate. At n = 10³ an evaluator has
//! written about 41 of its subjects by the end of a 10-round market,
//! so the kernel reduces each row in three ways:
//!
//! - **Decision accuracy** scores the listed subjects one by one and
//!   counts each class's cold subjects by subtraction from the class
//!   size, so the cold estimate is thresholded once per row.
//! - **Rank accuracy** sorts only the listed predictions of each class
//!   (an order-preserving integer key of `p`), and one merge walk
//!   counts their Mann–Whitney wins and ties. The cold subjects of each
//!   class enter as one weighted key, compared with every listed key
//!   and with the other class's cold subjects, so a listed prediction
//!   equal to the cold one ties with them.
//! - **MAE** stays dense. Its sum is kept in pair order, because
//!   regrouping the float additions would change its bits. The chunk's
//!   error buffer gets `|cold − truth[s]|` for every subject (copied
//!   from one row of cold errors, computed once per distinct cold
//!   estimate), and the listed subjects' errors are then written over
//!   theirs, so no row of estimates is built.
//!
//! Every buffer is reused across the chunk's rows, so the kernel
//! allocates nothing per row. Chunks are sized to about 64 KiB of
//! errors (8 rows at n = 10³), so a chunk's error buffer stays
//! cache-resident and nothing of size n² is ever allocated. The caller
//! folds each chunk into one running MAE accumulator as soon as that
//! chunk's turn comes, in evaluator order, replaying the float
//! association of the naive pair walk exactly; rank and decision
//! accuracy fold exact integer tallies. Every metric is therefore
//! bit-identical to the unbatched sequential walk for any thread
//! count. That serial sum, n² additions, is the kernel's floor.

use crate::population::Community;
use std::cmp::Ordering;
use trustex_netsim::pool::{parallel_fold, resolve_threads};
use trustex_trust::model::PeerId;

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
    /// Mean absolute error of the estimates against ground truth,
    /// averaged over all ordered evaluator→subject pairs
    /// (`evaluator ≠ subject`).
    pub mae: f64,
    /// Probability that a uniformly chosen (honest, dishonest) subject
    /// pair is ranked correctly by a uniformly chosen evaluator (ties
    /// count ½) — an AUC analogue. 0.5 when either class is empty.
    pub rank_accuracy: f64,
    /// Fraction of evaluator→subject pairs classified correctly by
    /// thresholding `p_honest` at 0.5 against the binary ground truth.
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

/// The ground-truth class of every subject, and each class's size.
struct Classes {
    is_honest: Vec<bool>,
    honest: u64,
    dishonest: u64,
}

/// A `u64` whose unsigned order is [`f64::total_cmp`]'s order: the
/// same bit flip `total_cmp` applies, then the sign bit flipped so the
/// signed order becomes the unsigned one.
fn total_order_key(p: f64) -> u64 {
    let bits = p.to_bits() as i64;
    let signed = bits ^ (((bits >> 63) as u64 >> 1) as i64);
    (signed as u64) ^ (1 << 63)
}

/// Mann–Whitney U of one row in half-units: for every dishonest
/// subject, 2 per honest subject keyed above it and 1 per honest
/// subject keyed equal to it. The listed subjects' keys of each class
/// come sorted ascending; the cold subjects of the row, `cold.1` honest
/// and `cold.2` dishonest, share the key `cold.0`, so a listed key
/// equal to it ties with them.
fn mann_whitney_half_units(honest: &[u64], dishonest: &[u64], cold: (u64, u64, u64)) -> u64 {
    let (cold_key, cold_honest, cold_dishonest) = cold;
    // The half-units of one dishonest key `d`, given the listed honest
    // keys below it (`below`) and at most it (`upto`).
    let half_units = |d: u64, below: usize, upto: usize| {
        let (cold_above, cold_tied) = match cold_key.cmp(&d) {
            Ordering::Greater => (cold_honest, 0),
            Ordering::Equal => (0, cold_honest),
            Ordering::Less => (0, 0),
        };
        2 * ((honest.len() - upto) as u64 + cold_above) + (upto - below) as u64 + cold_tied
    };
    let (mut below, mut upto) = (0, 0);
    let mut total = 0;
    for &d in dishonest {
        while below < honest.len() && honest[below] < d {
            below += 1;
        }
        upto = upto.max(below);
        while upto < honest.len() && honest[upto] == d {
            upto += 1;
        }
        total += half_units(d, below, upto);
    }
    let below = honest.partition_point(|&h| h < cold_key);
    let upto = honest.partition_point(|&h| h <= cold_key);
    total + cold_dishonest * half_units(cold_key, below, upto)
}

/// The row kernel behind every accuracy metric (see the module docs):
/// reduces the evaluator rows `start..end` with buffers reused across
/// rows (the listed subjects, each class's keys, the cold errors) and
/// one pre-sized error buffer.
fn chunk_tally(
    community: &Community,
    truth: &[f64],
    classes: &Classes,
    (start, end): (usize, usize),
) -> ChunkTally {
    let n = community.len();
    let mut listed = Vec::new();
    let mut honest_keys = Vec::new();
    let mut dishonest_keys = Vec::new();
    // `|cold − truth[s]|` for every subject, and the bits of the cold
    // estimate it was computed for: rows almost always share one.
    let mut cold_errors = Vec::with_capacity(n);
    let mut cold_errors_of = None;
    let mut tally = ChunkTally {
        abs_err: Vec::with_capacity((end - start) * n.saturating_sub(1)),
        rank_half_units: 0,
        rank_pairs: 0,
        correct: 0,
    };
    for evaluator in start..end {
        let cold = community.predict_row_sparse(PeerId(evaluator as u32), &mut listed);
        // Only subjects of the population other than the evaluator are
        // scored.
        listed.retain(|&(s, _)| s.index() < n && s.index() != evaluator);

        if cold_errors_of != Some(cold.p_honest.to_bits()) {
            cold_errors.clear();
            cold_errors.extend(truth.iter().map(|&t| (cold.p_honest - t).abs()));
            cold_errors_of = Some(cold.p_honest.to_bits());
        }
        let row = tally.abs_err.len();
        tally.abs_err.extend_from_slice(&cold_errors[..evaluator]);
        tally
            .abs_err
            .extend_from_slice(&cold_errors[evaluator + 1..]);
        for &(s, estimate) in &listed {
            let s = s.index();
            let pair = row + s - usize::from(s > evaluator);
            tally.abs_err[pair] = (estimate.p_honest - truth[s]).abs();
        }

        let evaluator_honest = classes.is_honest[evaluator];
        let honest = classes.honest - u64::from(evaluator_honest);
        let dishonest = classes.dishonest - u64::from(!evaluator_honest);
        let (mut cold_honest, mut cold_dishonest) = (honest, dishonest);
        honest_keys.clear();
        dishonest_keys.clear();
        for &(s, estimate) in &listed {
            let p = estimate.p_honest;
            // A NaN prediction is not `>= 0.5`: it reads as dishonest.
            let is_honest = classes.is_honest[s.index()];
            tally.correct += u64::from((p >= 0.5) == is_honest);
            if is_honest {
                cold_honest -= 1;
                honest_keys.push(total_order_key(p));
            } else {
                cold_dishonest -= 1;
                dishonest_keys.push(total_order_key(p));
            }
        }
        tally.correct += if cold.p_honest >= 0.5 {
            cold_honest
        } else {
            cold_dishonest
        };
        if honest > 0 && dishonest > 0 {
            honest_keys.sort_unstable();
            dishonest_keys.sort_unstable();
            let cold = (total_order_key(cold.p_honest), cold_honest, cold_dishonest);
            tally.rank_half_units += mann_whitney_half_units(&honest_keys, &dishonest_keys, cold);
            tally.rank_pairs += honest * dishonest;
        }
    }
    tally
}

/// Computes MAE, ranking accuracy and decision accuracy from **one**
/// sparse read of each evaluator's row (see the module docs).
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
    let is_honest: Vec<bool> = community
        .agent_ids()
        .map(|a| community.is_honest(a))
        .collect();
    let honest = is_honest.iter().filter(|&&h| h).count() as u64;
    let classes = Classes {
        dishonest: n as u64 - honest,
        honest,
        is_honest,
    };
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
    use crate::population::{DefenseConfig, ModelKind};
    use trustex_agents::profile::PopulationMix;
    use trustex_netsim::rng::SimRng;
    use trustex_trust::model::{Conduct, WitnessReport};

    fn community(dishonest: f64) -> Community {
        let mut rng = SimRng::new(1);
        let mix = PopulationMix::standard(dishonest, 0.0);
        Community::new(10, &mix, ModelKind::Beta, &mut rng)
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

    /// All three metrics at the process-default thread count.
    fn metrics(c: &Community) -> AccuracyMetrics {
        accuracy_metrics(c, &cooperation_truth(c), 0)
    }

    #[test]
    fn mae_decreases_with_evidence() {
        let mut c = community(0.5);
        let cold = metrics(&c).mae;
        assert!((cold - 0.5).abs() < 1e-9, "uninformed prior is 0.5 off");
        educate(&mut c, 10);
        let warm = metrics(&c).mae;
        assert!(warm < 0.2, "educated community MAE: {warm}");
    }

    #[test]
    fn rank_accuracy_perfect_after_education() {
        let mut c = community(0.5);
        assert!(
            (metrics(&c).rank_accuracy - 0.5).abs() < 1e-9,
            "cold start is a coin flip"
        );
        educate(&mut c, 5);
        assert_eq!(metrics(&c).rank_accuracy, 1.0);
    }

    #[test]
    fn decision_accuracy_after_education() {
        let mut c = community(0.3);
        educate(&mut c, 10);
        assert!(metrics(&c).decision_accuracy > 0.95);
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
    /// educated, cold-tied, noisily educated, gossiped, fully educated,
    /// whitewashed and degraded communities, for every model kind, for
    /// sizes that cut the evaluator chunks unevenly, and for several
    /// thread counts. The communities weigh witness reports by the
    /// reporter's standing, which only the gossip stage exercises.
    #[test]
    fn batched_metrics_match_naive_reference() {
        for kind in ModelKind::ALL {
            for n in [2, 3, 12, 37, 130] {
                for dishonest_frac in [0.3, 0.5, 0.7] {
                    let mut rng = SimRng::new(1);
                    let mix = PopulationMix::standard(dishonest_frac, 0.0);
                    let defense = DefenseConfig {
                        scorer_weighted: true,
                        report_rate_cap: None,
                    };
                    let mut c = Community::with_defense(n, &mix, kind, defense, &mut rng);
                    c.enable_direct_ledger();
                    let stages: [&dyn Fn(&mut Community); 8] = [
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
                            // Cold ties: one honest and one dishonest
                            // experience with two subjects give Beta
                            // and mean an estimate of exactly 0.5, the
                            // cold one, on a written slot.
                            let n = c.len() as u32;
                            for e in c.agent_ids() {
                                for s in [(e.0 + 1) % n, (e.0 + 2) % n].map(PeerId) {
                                    if s != e {
                                        c.record_direct(e, s, Conduct::Honest, 1);
                                        c.record_direct(e, s, Conduct::Dishonest, 1);
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
                        &|c| {
                            // Gossip: reports weighted by the receiver's
                            // view of each reporter give fractional
                            // evidence and many distinct values per row.
                            let n = c.len() as u32;
                            for e in c.agent_ids() {
                                for k in 0..6 {
                                    let subject = PeerId((e.0 * 5 + k * 7) % n);
                                    let witness = PeerId((e.0 + k * 3 + 1) % n);
                                    let lie = (e.0 + k) % 3 == 0;
                                    let honest = c.is_honest(subject) != lie;
                                    let report = WitnessReport {
                                        witness,
                                        subject,
                                        conduct: Conduct::from_honest(honest),
                                        round: u64::from(k),
                                    };
                                    c.deliver_witness_report(e, report);
                                }
                            }
                        },
                        &|c| educate(c, 7),
                        &|c| c.whitewash(PeerId(1)),
                        &|c| c.set_degraded(true),
                    ];
                    for (step, stage) in stages.into_iter().enumerate() {
                        stage(&mut c);
                        // The naive walks read pair by pair: sealing
                        // settles each complaint median once for them.
                        c.seal();
                        let truth = cooperation_truth(&c);
                        let expected_mae = naive::trust_mae_with_truth(&c, &truth);
                        let expected_rank = naive::rank_accuracy(&c);
                        let expected_decision = naive::decision_accuracy(&c);
                        let at = format!("{kind:?} n={n} frac={dishonest_frac} stage {step}");
                        if n <= 37 {
                            assert_eq!(expected_rank, rank_accuracy_pair_walk(&c), "{at}");
                        }
                        for threads in [0usize, 1, 2, 3, 8] {
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

    /// The per-round MAE reuses one truth buffer across rounds; it must
    /// equal a freshly derived buffer's.
    #[test]
    fn trust_mae_with_truth_matches_allocating_path() {
        let mut c = community(0.4);
        let truth = cooperation_truth(&c);
        educate(&mut c, 3);
        assert_eq!(accuracy_metrics(&c, &truth, 1).mae, metrics(&c).mae);
    }

    #[test]
    #[should_panic(expected = "truth buffer size mismatch")]
    fn trust_mae_with_wrong_buffer_panics() {
        let c = community(0.4);
        accuracy_metrics(&c, &[0.5; 3], 0);
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
        let m = accuracy_metrics(&c, &cooperation_truth(&c), 2);
        assert_eq!(m.rank_accuracy, 0.5, "no dishonest class");
        // Decision accuracy with the cold prior (0.5 ≥ 0.5 ⇒ honest)
        // is exactly the honest fraction.
        assert!((m.decision_accuracy - 1.0).abs() < 1e-9);
        assert_eq!(m, metrics(&c));
    }
}
