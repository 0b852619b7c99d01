//! Deterministic pseudo-random number generation for simulations.
//!
//! [`SimRng`] implements xoshiro256\*\* (Blackman & Vigna) seeded through
//! SplitMix64. It is deliberately *not* a `rand` adapter: the experiment
//! suite of the paper reproduction promises bit-for-bit reproducibility
//! across platforms and crate upgrades, so the generator lives in-tree and
//! its algorithm is frozen.
//!
//! The generator is cheap to fork ([`SimRng::fork`]), which the simulation
//! harness uses to give every peer, every round and every experiment arm
//! an independent but fully determined random stream.

use std::collections::HashMap;
use std::fmt;

const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256\*\* random number generator.
///
/// Two generators created with the same seed produce identical streams.
///
/// # Examples
///
/// ```
/// use trustex_netsim::rng::SimRng;
/// let mut a = SimRng::new(7);
/// let mut b = SimRng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl fmt::Debug for SimRng {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The internal state is an implementation detail; show a fingerprint.
        write!(
            f,
            "SimRng({:#018x})",
            self.s[0] ^ self.s[1] ^ self.s[2] ^ self.s[3]
        )
    }
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The seed is expanded through SplitMix64 so that similar seeds
    /// (e.g. `0` and `1`) still yield unrelated streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derives an independent generator for a named sub-stream.
    ///
    /// Forking advances `self` by one draw; the fork's stream is a pure
    /// function of `(parent state, stream)`, so re-running a simulation
    /// reproduces every sub-stream.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        let base = self.next_u64();
        SimRng::new(base ^ stream.wrapping_mul(GOLDEN_GAMMA))
    }

    /// Returns the next raw 64-bit output (xoshiro256\*\*).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fills `out` with uniform `f64`s in `[0, 1)`, one per slot.
    ///
    /// Exactly equivalent to calling [`SimRng::f64`] `out.len()` times —
    /// same draws, same stream position afterwards — but in one pass, so
    /// bulk generators (e.g. the E2 instance builder) can batch their
    /// draws without touching the pinned stream.
    #[inline]
    pub fn fill_f64(&mut self, out: &mut [f64]) {
        for slot in out {
            *slot = self.f64();
        }
    }

    /// Returns a uniform integer in `[0, n)` without modulo bias.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "SimRng::below requires n > 0");
        // Rejection sampling: accept draws below the largest multiple of n.
        let threshold = u64::MAX - u64::MAX % n;
        loop {
            let v = self.next_u64();
            if v < threshold {
                return v % n;
            }
        }
    }

    /// Returns a uniform `usize` index in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Returns a uniform index in `[0, n)` other than `skip` (which
    /// must lie in `[0, n)`): one [`SimRng::index`] draw over the `n − 1`
    /// eligible values, shifted up by one at and past `skip`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[inline]
    pub fn index_except(&mut self, n: usize, skip: usize) -> usize {
        assert!(n >= 2, "SimRng::index_except requires n >= 2");
        let raw = self.index(n - 1);
        raw + usize::from(raw >= skip)
    }

    /// Returns a uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "SimRng::range_u64 requires lo < hi");
        lo + self.below(hi - lo)
    }

    /// Returns a uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi);
        lo + self.f64() * (hi - lo)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        self.f64() < p
    }

    /// Draws from a normal distribution via the Box–Muller transform.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        // Avoid ln(0) by mapping the first draw into (0, 1].
        let u1 = 1.0 - self.f64();
        let u2 = self.f64();
        let mag = (-2.0 * u1.ln()).sqrt();
        mean + std_dev * mag * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Draws from an exponential distribution with the given rate (λ).
    ///
    /// # Panics
    ///
    /// Panics if `rate <= 0`.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        let u = 1.0 - self.f64(); // in (0, 1]
        -u.ln() / rate
    }

    /// Draws from a bounded Pareto-like heavy-tailed distribution.
    ///
    /// Used by workload generators for item valuations; `alpha` controls
    /// tail weight (smaller = heavier), output lies in `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha <= 0` or `lo <= 0` or `lo >= hi`.
    pub fn pareto(&mut self, alpha: f64, lo: f64, hi: f64) -> f64 {
        assert!(alpha > 0.0 && lo > 0.0 && lo < hi);
        let u = self.f64();
        let la = lo.powf(alpha);
        let ha = hi.powf(alpha);
        // Inverse CDF of the bounded Pareto distribution.
        let x = (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha);
        x.clamp(lo, hi)
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Picks a uniformly random element, or `None` if the slice is empty.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            Some(&xs[self.index(xs.len())])
        }
    }

    /// Samples `k` distinct indices from `[0, n)` (partial Fisher–Yates).
    ///
    /// Returns fewer than `k` indices when `k > n`. See
    /// [`SimRng::sample_indices_with`] for the strategies; this collects
    /// its output.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(k.min(n));
        self.sample_indices_with(n, k, |i| out.push(i));
        out
    }

    /// [`SimRng::sample_indices`] without the output `Vec`: calls `emit`
    /// with each sampled index, in sample order.
    ///
    /// Dense requests (`k ≳ n/4`) materialise the `0..n` array and swap
    /// in place. Sparse requests (the common `k ≪ n` gossip/witness case
    /// at 10⁴–10⁵ peer scale) simulate the same swaps by remembering only
    /// the displaced positions, in `O(k)` memory: a fixed stack array for
    /// `k ≤ 16`, which allocates nothing, and a hash map above that. All
    /// paths consume the identical RNG stream and yield the identical
    /// sample.
    pub fn sample_indices_with(&mut self, n: usize, k: usize, mut emit: impl FnMut(usize)) {
        /// Largest `k` whose displaced positions live on the stack.
        const STACK_K: usize = 16;
        let k = k.min(n);
        if k.saturating_mul(4) >= n {
            let mut idx: Vec<usize> = (0..n).collect();
            for i in 0..k {
                let j = i + self.index(n - i);
                idx.swap(i, j);
                emit(idx[i]);
            }
        } else if k <= STACK_K {
            // Sparse: a displaced position `p` holds the value a full
            // array would have at `p` after the swaps so far. Positions
            // `< i` are never drawn again, so only displaced positions
            // `>= i` ever need to be remembered. One `(position, value)`
            // entry per swap; the newest entry for a position wins.
            let mut displaced = [(0usize, 0usize); STACK_K];
            let value_at = |swaps: &[(usize, usize)], p: usize| {
                swaps
                    .iter()
                    .rev()
                    .find(|&&(q, _)| q == p)
                    .map_or(p, |&(_, v)| v)
            };
            for i in 0..k {
                let j = i + self.index(n - i);
                let value_at_j = value_at(&displaced[..i], j);
                let value_at_i = value_at(&displaced[..i], i);
                emit(value_at_j);
                displaced[i] = (j, value_at_i);
            }
        } else {
            // The same sparse swaps, remembered in a map.
            let mut displaced: HashMap<usize, usize> = HashMap::new();
            for i in 0..k {
                let j = i + self.index(n - i);
                let value_at_j = displaced.get(&j).copied().unwrap_or(j);
                let value_at_i = displaced.get(&i).copied().unwrap_or(i);
                emit(value_at_j);
                displaced.insert(j, value_at_i);
            }
        }
    }

    /// Picks an index in `[0, weights.len())` with probability proportional
    /// to each non-negative weight. Returns `None` when all weights are
    /// zero or the slice is empty.
    pub fn weighted_index(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().copied().filter(|w| *w > 0.0).sum();
        if total <= 0.0 || !total.is_finite() {
            return None;
        }
        let mut target = self.f64() * total;
        for (i, w) in weights.iter().enumerate() {
            if *w > 0.0 {
                if target < *w {
                    return Some(i);
                }
                target -= *w;
            }
        }
        // Floating-point edge: return the last positive-weight index.
        weights.iter().rposition(|w| *w > 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `index_except` is the written-out exclusion shift: the same draw
    /// as `index(n − 1)`, bumped past `skip`, never equal to `skip`.
    #[test]
    fn index_except_is_the_written_out_shift() {
        let n = 7;
        for skip in [0, n / 2, n - 1] {
            let mut rng = SimRng::new(0x5EED ^ skip as u64);
            let mut oracle = rng.clone();
            for _ in 0..500 {
                let got = rng.index_except(n, skip);
                let mut want = oracle.index(n - 1);
                if want >= skip {
                    want += 1;
                }
                assert_eq!(got, want, "skip {skip}");
                assert!(got < n && got != skip);
            }
            assert_eq!(rng, oracle, "the same stream is consumed");
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(123);
        let mut b = SimRng::new(123);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::new(9);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x), "{x} out of range");
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut rng = SimRng::new(77);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    /// `fill_f64` must be stream-identical to repeated `f64()` calls:
    /// same values, same generator state afterwards.
    #[test]
    fn fill_f64_matches_repeated_draws() {
        let mut batched = SimRng::new(0xF111);
        let mut scalar = batched.clone();
        let mut buf = [0.0f64; 257];
        batched.fill_f64(&mut buf);
        for (i, v) in buf.iter().enumerate() {
            assert_eq!(*v, scalar.f64(), "draw {i} diverged");
        }
        assert_eq!(batched, scalar, "stream positions diverged");
        batched.fill_f64(&mut []);
        assert_eq!(batched, scalar, "empty fill must not consume draws");
    }

    #[test]
    fn below_is_bounded_and_covers() {
        let mut rng = SimRng::new(5);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let v = rng.below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    #[should_panic(expected = "n > 0")]
    fn below_zero_panics() {
        SimRng::new(0).below(0);
    }

    #[test]
    fn range_u64_bounds() {
        let mut rng = SimRng::new(11);
        for _ in 0..1000 {
            let v = rng.range_u64(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(3);
        assert!(rng.chance(1.0));
        assert!(rng.chance(2.0));
        assert!(!rng.chance(0.0));
        assert!(!rng.chance(-1.0));
    }

    #[test]
    fn chance_frequency() {
        let mut rng = SimRng::new(8);
        let hits = (0..100_000).filter(|_| rng.chance(0.3)).count();
        let freq = hits as f64 / 100_000.0;
        assert!((freq - 0.3).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::new(21);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.normal(5.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = SimRng::new(31);
        let n = 200_000;
        let mean = (0..n).map(|_| rng.exponential(0.5)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn pareto_bounded() {
        let mut rng = SimRng::new(41);
        for _ in 0..10_000 {
            let x = rng.pareto(1.2, 1.0, 100.0);
            assert!((1.0..=100.0).contains(&x));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::new(13);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_moves_elements() {
        let mut rng = SimRng::new(17);
        let orig: Vec<u32> = (0..100).collect();
        let mut xs = orig.clone();
        rng.shuffle(&mut xs);
        assert_ne!(xs, orig, "a 100-element shuffle should not be identity");
    }

    #[test]
    fn sample_indices_distinct() {
        let mut rng = SimRng::new(19);
        let s = rng.sample_indices(100, 30);
        assert_eq!(s.len(), 30);
        let mut t = s.clone();
        t.sort_unstable();
        t.dedup();
        assert_eq!(t.len(), 30);
        assert!(t.iter().all(|i| *i < 100));
    }

    #[test]
    fn sample_indices_saturates() {
        let mut rng = SimRng::new(23);
        let s = rng.sample_indices(4, 10);
        assert_eq!(s.len(), 4);
    }

    /// Reference partial Fisher–Yates over the full `0..n` array.
    fn sample_indices_dense_reference(rng: &mut SimRng, n: usize, k: usize) -> Vec<usize> {
        let k = k.min(n);
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + rng.index(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// The sparse (hash-map) path must return exactly what the dense
    /// full-array swap would, consuming the identical stream — so the
    /// k ≪ n fast path cannot silently change pinned experiment streams.
    #[test]
    fn sample_indices_sparse_matches_dense_reference() {
        for (n, k) in [
            (100, 3),
            (1000, 1),
            (1000, 10),
            (50_000, 40),
            (17, 4),
            (64, 15),
            // The stack/map boundary, each at the smallest sparse n.
            (1000, 16),
            (1000, 17),
            (65, 16),
            (69, 17),
        ] {
            // Many seeds, so that draws repeatedly hit displaced
            // positions, also ones displaced more than once.
            for seed in 0..256 {
                let mut fast = SimRng::new(0xC0FFEE + n as u64 + k as u64 + (seed << 32));
                let mut slow = fast.clone();
                let got = fast.sample_indices(n, k);
                let expected = sample_indices_dense_reference(&mut slow, n, k);
                assert_eq!(got, expected, "n={n} k={k} seed={seed}");
                assert_eq!(fast, slow, "stream consumption differs for n={n} k={k}");
            }
        }
    }

    #[test]
    fn sample_indices_sparse_distinct_at_scale() {
        let mut rng = SimRng::new(0xBEEF);
        let s = rng.sample_indices(100_000, 64);
        assert_eq!(s.len(), 64);
        let mut t = s.clone();
        t.sort_unstable();
        t.dedup();
        assert_eq!(t.len(), 64, "sparse sample repeated an index");
        assert!(t.iter().all(|i| *i < 100_000));
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = SimRng::new(29);
        let w = [0.0, 1.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[rng.weighted_index(&w).unwrap()] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[2] as f64 / counts[1] as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn weighted_index_all_zero() {
        let mut rng = SimRng::new(1);
        assert_eq!(rng.weighted_index(&[0.0, 0.0]), None);
        assert_eq!(rng.weighted_index(&[]), None);
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let mut a = SimRng::new(99);
        let mut b = SimRng::new(99);
        let mut fa = a.fork(1);
        let mut fb = b.fork(1);
        assert_eq!(fa.next_u64(), fb.next_u64());
        let mut c = SimRng::new(99);
        let mut f2 = c.fork(2);
        assert_ne!(SimRng::new(99).fork(1).next_u64(), f2.next_u64());
    }

    #[test]
    fn pick_empty_is_none() {
        let mut rng = SimRng::new(2);
        let empty: [u8; 0] = [];
        assert_eq!(rng.pick(&empty), None);
        assert_eq!(rng.pick(&[42]), Some(&42));
    }

    #[test]
    fn debug_shows_fingerprint() {
        let rng = SimRng::new(4);
        let s = format!("{rng:?}");
        assert!(s.starts_with("SimRng(0x"), "{s}");
    }
}
