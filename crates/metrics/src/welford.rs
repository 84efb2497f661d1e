//! Welford's online algorithm for mean and variance.
//!
//! Numerically stable one-pass moments.

/// Streaming mean/variance accumulator.
///
/// ```
/// use domus_metrics::Welford;
/// let mut w = Welford::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     w.push(x);
/// }
/// assert_eq!(w.mean(), 5.0);
/// assert_eq!(w.variance_population(), 4.0);
/// assert_eq!(w.std_dev_population(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations so far.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` if no observations have been pushed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean (0.0 when empty).
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Population variance `Σ(x−μ)²/n` (0.0 when empty).
    ///
    /// The paper measures the dispersion of *the complete set* of vnode
    /// quotas at an instant — a population, not a sample — so population
    /// variance is the default throughout the workspace.
    #[inline]
    pub fn variance_population(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance `Σ(x−μ)²/(n−1)` (0.0 when fewer than 2 observations).
    pub fn variance_sample(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population standard deviation.
    #[inline]
    pub fn std_dev_population(&self) -> f64 {
        self.variance_population().sqrt()
    }

    /// Sample standard deviation.
    pub fn std_dev_sample(&self) -> f64 {
        self.variance_sample().sqrt()
    }
}

impl FromIterator<f64> for Welford {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut w = Welford::new();
        for x in iter {
            w.push(x);
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_moments(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn matches_naive_two_pass() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64 * 0.25).collect();
        let w: Welford = xs.iter().copied().collect();
        let (mean, var) = naive_moments(&xs);
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance_population() - var).abs() < 1e-9);
    }

    #[test]
    fn empty_accumulator_is_benign() {
        let w = Welford::new();
        assert_eq!(w.count(), 0);
        assert!(w.is_empty());
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance_population(), 0.0);
        assert_eq!(w.variance_sample(), 0.0);
    }

    #[test]
    fn single_observation() {
        let mut w = Welford::new();
        w.push(5.0);
        assert_eq!(w.mean(), 5.0);
        assert_eq!(w.variance_population(), 0.0);
        assert_eq!(w.variance_sample(), 0.0);
        assert_eq!(w.min(), 5.0);
        assert_eq!(w.max(), 5.0);
    }

    #[test]
    fn numerically_stable_for_large_offsets() {
        // Classic catastrophic-cancellation case for naive sum-of-squares.
        let offset = 1e9;
        let xs: Vec<f64> = [4.0, 7.0, 13.0, 16.0].iter().map(|x| x + offset).collect();
        let w: Welford = xs.iter().copied().collect();
        assert!((w.variance_population() - 22.5).abs() < 1e-6, "var={}", w.variance_population());
    }

    #[test]
    fn sample_variance_uses_n_minus_1() {
        let w: Welford = [1.0, 2.0, 3.0].into_iter().collect();
        assert!((w.variance_sample() - 1.0).abs() < 1e-12);
        assert!((w.variance_population() - 2.0 / 3.0).abs() < 1e-12);
    }
}
