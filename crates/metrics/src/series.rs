//! Experiment series: (x, y) curves.
//!
//! Every figure in the paper is a family of curves "metric vs number of
//! vnodes/nodes", each curve the average of 100 seeded runs. [`Series`] is
//! one finished curve.

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
