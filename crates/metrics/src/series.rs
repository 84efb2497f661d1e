//! Experiment series: (x, y) curves and multi-run aggregation.
//!
//! Every figure in the paper is a family of curves "metric vs number of
//! vnodes/nodes", each curve the average of 100 seeded runs. [`Series`] is
//! one finished curve; [`MultiRunSeries`] accumulates per-x observations
//! across runs and yields the mean curve (plus dispersion, which the paper
//! doesn't plot but EXPERIMENTS.md records).

use crate::welford::Welford;

/// A named, finished (x, y) curve.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label (e.g. `"(Pmin,Vmin)=(32,32)"`).
    pub name: String,
    /// X coordinates (e.g. overall number of vnodes).
    pub x: Vec<f64>,
    /// Y coordinates (e.g. σ̄(Qv) in percent).
    pub y: Vec<f64>,
}

impl Series {
    /// Creates a series from parallel x/y vectors.
    ///
    /// # Panics
    /// Panics if the vectors differ in length.
    pub fn new(name: impl Into<String>, x: Vec<f64>, y: Vec<f64>) -> Self {
        assert_eq!(x.len(), y.len(), "series x/y length mismatch");
        Self { name: name.into(), x, y }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// `true` when the series has no points.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Y value at the largest x (the "end state" — used by figure 5's θ).
    pub fn last_y(&self) -> Option<f64> {
        self.y.last().copied()
    }

    /// Mean of y over the x range `[from_x, to_x]` inclusive.
    pub fn mean_y_in(&self, from_x: f64, to_x: f64) -> f64 {
        let mut w = Welford::new();
        for (&x, &y) in self.x.iter().zip(&self.y) {
            if x >= from_x && x <= to_x {
                w.push(y);
            }
        }
        w.mean()
    }

    /// Largest y value (and its x) — used to locate figure 8's spikes.
    pub fn max_point(&self) -> Option<(f64, f64)> {
        self.x
            .iter()
            .zip(&self.y)
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("NaN in series"))
            .map(|(&x, &y)| (x, y))
    }
}

/// Accumulates one y observation per (run, x-index) and produces the
/// run-averaged curve, exactly like the paper's "averages of 100 runs".
#[derive(Debug, Clone)]
pub struct MultiRunSeries {
    name: String,
    x: Vec<f64>,
    acc: Vec<Welford>,
}

impl MultiRunSeries {
    /// A new accumulator over the fixed x grid `x`.
    pub fn new(name: impl Into<String>, x: Vec<f64>) -> Self {
        let acc = vec![Welford::new(); x.len()];
        Self { name: name.into(), x, acc }
    }

    /// Convenience: x grid `1..=n` (the paper's "after the creation of each
    /// vnode" sampling).
    pub fn over_counts(name: impl Into<String>, n: usize) -> Self {
        Self::new(name, (1..=n).map(|i| i as f64).collect())
    }

    /// Records one run's y value at x index `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range of the x grid.
    #[inline]
    pub fn record(&mut self, i: usize, y: f64) {
        self.acc[i].push(y);
    }

    /// Records a whole run (one y per x point, in order).
    ///
    /// # Panics
    /// Panics if `ys` length differs from the x grid.
    pub fn record_run(&mut self, ys: &[f64]) {
        assert_eq!(ys.len(), self.x.len(), "run length != x grid");
        for (i, &y) in ys.iter().enumerate() {
            self.acc[i].push(y);
        }
    }

    /// Merges another accumulator over the same grid (for worker threads).
    ///
    /// # Panics
    /// Panics if the x grids differ.
    pub fn merge(&mut self, other: &MultiRunSeries) {
        assert_eq!(self.x, other.x, "cannot merge MultiRunSeries over different grids");
        for (a, b) in self.acc.iter_mut().zip(&other.acc) {
            a.merge(b);
        }
    }

    /// Number of runs recorded so far (at the first grid point).
    pub fn runs(&self) -> u64 {
        self.acc.first().map_or(0, Welford::count)
    }

    /// The run-averaged curve.
    pub fn mean_series(&self) -> Series {
        Series::new(self.name.clone(), self.x.clone(), self.acc.iter().map(Welford::mean).collect())
    }

    /// Legend label.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The x grid.
    pub fn x(&self) -> &[f64] {
        &self.x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_series_averages_runs() {
        let mut m = MultiRunSeries::over_counts("t", 3);
        m.record_run(&[1.0, 2.0, 3.0]);
        m.record_run(&[3.0, 4.0, 5.0]);
        let s = m.mean_series();
        assert_eq!(s.x, vec![1.0, 2.0, 3.0]);
        assert_eq!(s.y, vec![2.0, 3.0, 4.0]);
        assert_eq!(m.runs(), 2);
    }

    #[test]
    fn merge_equals_sequential_recording() {
        let mut a = MultiRunSeries::over_counts("t", 4);
        let mut b = MultiRunSeries::over_counts("t", 4);
        a.record_run(&[1.0, 1.0, 2.0, 8.0]);
        b.record_run(&[3.0, 5.0, 4.0, 0.0]);
        b.record_run(&[5.0, 3.0, 0.0, 4.0]);
        let mut merged = a.clone();
        merged.merge(&b);
        let mut seq = MultiRunSeries::over_counts("t", 4);
        seq.record_run(&[1.0, 1.0, 2.0, 8.0]);
        seq.record_run(&[3.0, 5.0, 4.0, 0.0]);
        seq.record_run(&[5.0, 3.0, 0.0, 4.0]);
        assert_eq!(merged.mean_series(), seq.mean_series());
        assert_eq!(merged.runs(), 3);
    }

    #[test]
    fn last_y_and_mean_window() {
        let s = Series::new("s", vec![1.0, 2.0, 3.0, 4.0], vec![10.0, 20.0, 30.0, 40.0]);
        assert_eq!(s.last_y(), Some(40.0));
        assert_eq!(s.mean_y_in(2.0, 3.0), 25.0);
        assert_eq!(s.mean_y_in(5.0, 9.0), 0.0, "empty window yields 0 mean");
    }

    #[test]
    fn max_point_finds_spike() {
        let s = Series::new("s", vec![1.0, 2.0, 3.0], vec![5.0, 50.0, 12.0]);
        assert_eq!(s.max_point(), Some((2.0, 50.0)));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = Series::new("bad", vec![1.0], vec![]);
    }

    #[test]
    #[should_panic(expected = "different grids")]
    fn merge_different_grids_panics() {
        let mut a = MultiRunSeries::over_counts("a", 2);
        let b = MultiRunSeries::over_counts("b", 3);
        a.merge(&b);
    }
}
