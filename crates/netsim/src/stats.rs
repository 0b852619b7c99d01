//! Small statistics helpers used throughout the experiment harness.
//!
//! * [`OnlineStats`] — streaming mean/variance/min/max (Welford).
//! * [`Sample`] — stored samples with exact quantiles.
//! * [`Histogram`] — fixed-width bucket counts for report rendering.
//! * [`Counters`] — named event counters.

use std::collections::BTreeMap;
use std::fmt;

/// Streaming mean and variance via Welford's algorithm.
///
/// # Examples
///
/// ```
/// use trustex_netsim::stats::OnlineStats;
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when empty).
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance with Bessel's correction (0 when fewer than 2 obs).
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl fmt::Display for OnlineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
            self.count,
            self.mean(),
            self.std_dev(),
            if self.count == 0 { 0.0 } else { self.min },
            if self.count == 0 { 0.0 } else { self.max },
        )
    }
}

/// A stored sample supporting exact quantiles.
///
/// Keeps all values; intended for experiment-scale data (≤ millions).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sample {
    values: Vec<f64>,
    sorted: bool,
}

impl Sample {
    /// Creates an empty sample.
    pub fn new() -> Self {
        Sample {
            values: Vec::new(),
            sorted: true,
        }
    }

    /// Adds an observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN — quantiles over NaN are meaningless.
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "Sample does not accept NaN");
        self.values.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).expect("no NaN by construction"));
            self.sorted = true;
        }
    }

    /// Exact quantile by the nearest-rank method; `None` when empty.
    ///
    /// `q` is clamped to `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let q = q.clamp(0.0, 1.0);
        let idx = ((q * self.values.len() as f64).ceil() as usize).saturating_sub(1);
        Some(self.values[idx.min(self.values.len() - 1)])
    }

    /// Median; `None` when empty.
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Read-only access to the raw values (insertion order not guaranteed
    /// after a quantile query).
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

impl FromIterator<f64> for Sample {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Sample::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

impl Extend<f64> for Sample {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

/// Fixed-width histogram over `[lo, hi)` with out-of-range clamping.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram with `n_buckets` equal buckets spanning `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `n_buckets == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, n_buckets: usize) -> Self {
        assert!(n_buckets > 0 && lo < hi);
        Histogram {
            lo,
            hi,
            buckets: vec![0; n_buckets],
        }
    }

    /// Records an observation; values outside `[lo, hi)` land in the
    /// nearest edge bucket.
    ///
    /// # Panics
    ///
    /// Panics on NaN (matching [`Sample::push`]) — `NaN as usize` is 0,
    /// so it would otherwise be silently filed into bucket 0.
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "Histogram does not accept NaN");
        let n = self.buckets.len();
        let idx = if x < self.lo {
            0
        } else if x >= self.hi {
            n - 1
        } else {
            (((x - self.lo) / (self.hi - self.lo)) * n as f64) as usize
        };
        self.buckets[idx.min(n - 1)] += 1;
    }

    /// Bucket counts.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Total recorded observations.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// `(bucket_lower_bound, count)` pairs for rendering.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let width = (self.hi - self.lo) / self.buckets.len() as f64;
        self.buckets
            .iter()
            .enumerate()
            .map(move |(i, c)| (self.lo + width * i as f64, *c))
    }
}

/// Named monotonic counters, ordered by name for stable reporting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    map: BTreeMap<String, u64>,
}

impl Counters {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Adds `n` to the named counter.
    pub fn add(&mut self, name: &str, n: u64) {
        *self.map.entry(name.to_owned()).or_insert(0) += n;
    }

    /// Increments the named counter by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of the named counter (0 if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.map.get(name).copied().unwrap_or(0)
    }

    /// Iterates `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.map.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &Counters) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_known_values() {
        let mut s = OnlineStats::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.population_variance() - 1.25).abs() < 1e-12);
        assert!((s.sample_variance() - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn online_stats_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.population_variance() - whole.population_variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_sides() {
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        b.push(3.0);
        a.merge(&b);
        assert_eq!(a.count(), 1);
        let empty = OnlineStats::new();
        a.merge(&empty);
        assert_eq!(a.count(), 1);
    }

    #[test]
    fn sample_quantiles() {
        let mut s: Sample = (1..=100).map(|i| i as f64).collect();
        assert_eq!(s.quantile(0.5), Some(50.0));
        assert_eq!(s.quantile(0.99), Some(99.0));
        assert_eq!(s.quantile(1.0), Some(100.0));
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.median(), Some(50.0));
    }

    #[test]
    fn sample_empty_quantile() {
        let mut s = Sample::new();
        assert_eq!(s.quantile(0.5), None);
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn sample_rejects_nan() {
        Sample::new().push(f64::NAN);
    }

    #[test]
    fn sample_mean_and_extend() {
        let mut s = Sample::new();
        s.extend([1.0, 2.0, 3.0]);
        assert_eq!(s.len(), 3);
        assert!((s.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.record(i as f64 + 0.5);
        }
        assert!(h.buckets().iter().all(|&c| c == 1));
        assert_eq!(h.total(), 10);
    }

    #[test]
    fn histogram_clamps_edges() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(-5.0);
        h.record(99.0);
        h.record(1.0); // hi is exclusive -> last bucket
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[3], 2);
    }

    /// Regression: NaN fails both range guards and `NaN as usize == 0`,
    /// so it used to be filed silently into bucket 0 while the sibling
    /// `Sample::push` panics. The two must be consistent.
    #[test]
    #[should_panic(expected = "Histogram does not accept NaN")]
    fn histogram_rejects_nan_like_sample() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(f64::NAN);
    }

    #[test]
    fn histogram_iter_bounds() {
        let h = Histogram::new(0.0, 4.0, 4);
        let lows: Vec<f64> = h.iter().map(|(lo, _)| lo).collect();
        assert_eq!(lows, vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn counters_basic() {
        let mut c = Counters::new();
        c.incr("a");
        c.add("a", 2);
        c.incr("b");
        assert_eq!(c.get("a"), 3);
        assert_eq!(c.get("b"), 1);
        assert_eq!(c.get("missing"), 0);
        let items: Vec<_> = c.iter().collect();
        assert_eq!(items, vec![("a", 3), ("b", 1)]);
    }

    #[test]
    fn counters_merge() {
        let mut a = Counters::new();
        a.add("x", 1);
        let mut b = Counters::new();
        b.add("x", 2);
        b.add("y", 5);
        a.merge(&b);
        assert_eq!(a.get("x"), 3);
        assert_eq!(a.get("y"), 5);
    }

    #[test]
    fn online_stats_display() {
        let mut s = OnlineStats::new();
        s.push(1.0);
        let txt = format!("{s}");
        assert!(txt.contains("n=1"), "{txt}");
    }
}
