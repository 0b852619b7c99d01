//! Small statistics helpers used throughout the experiment harness:
//! [`Sample`] stores samples and answers exact quantiles.

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
