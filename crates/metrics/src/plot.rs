//! Dependency-free ASCII line plots.
//!
//! Each figure reproduction prints an ASCII rendition next to its CSV so
//! the curve *shapes* (the reproduction criterion: the figures of §4 are
//! matched by shape, not by pixel) can be checked straight from a
//! terminal, without a plotting toolchain.

use crate::series::Series;
use std::fmt::Write as _;

/// Glyphs assigned to successive series in a plot.
const GLYPHS: &[char] = &['*', 'o', '+', 'x', '#', '@', '%', '&', '~', '='];

/// Configuration for an ASCII plot.
#[derive(Debug, Clone)]
pub struct PlotConfig {
    /// Plot-area width in columns (excluding the y-axis gutter).
    pub width: usize,
    /// Plot-area height in rows.
    pub height: usize,
    /// Optional fixed y range; autoscaled when `None`.
    pub y_range: Option<(f64, f64)>,
    /// Axis titles.
    pub x_label: String,
    /// Y-axis label printed above the plot.
    pub y_label: String,
}

impl Default for PlotConfig {
    fn default() -> Self {
        Self {
            width: 72,
            height: 20,
            y_range: None,
            x_label: String::new(),
            y_label: String::new(),
        }
    }
}

/// Renders `series` as a multi-curve ASCII plot.
///
/// Points are binned into character cells; later series overwrite earlier
/// ones on collisions (legend order = paper legend order, so the primary
/// curve should be listed last if overlap matters).
pub fn ascii_plot(series: &[Series], cfg: &PlotConfig) -> String {
    let mut out = String::new();
    if series.iter().all(Series::is_empty) {
        return "(no data)\n".to_string();
    }
    let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y_min, mut y_max) = (f64::INFINITY, f64::NEG_INFINITY);
    for s in series {
        for &x in &s.x {
            x_min = x_min.min(x);
            x_max = x_max.max(x);
        }
        for &y in &s.y {
            y_min = y_min.min(y);
            y_max = y_max.max(y);
        }
    }
    if let Some((lo, hi)) = cfg.y_range {
        y_min = lo;
        y_max = hi;
    }
    if (y_max - y_min).abs() < f64::EPSILON {
        y_max = y_min + 1.0;
    }
    if (x_max - x_min).abs() < f64::EPSILON {
        x_max = x_min + 1.0;
    }

    let mut grid = vec![vec![' '; cfg.width]; cfg.height];
    for (si, s) in series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        for (&x, &y) in s.x.iter().zip(&s.y) {
            let cx = ((x - x_min) / (x_max - x_min) * (cfg.width - 1) as f64).round() as usize;
            let fy = (y - y_min) / (y_max - y_min);
            if !(0.0..=1.0).contains(&fy) {
                continue; // outside a fixed y range
            }
            let cy = ((1.0 - fy) * (cfg.height - 1) as f64).round() as usize;
            grid[cy.min(cfg.height - 1)][cx.min(cfg.width - 1)] = glyph;
        }
    }

    if !cfg.y_label.is_empty() {
        let _ = writeln!(out, "{}", cfg.y_label);
    }
    let gutter = 9;
    for (ri, row) in grid.iter().enumerate() {
        let y_here = y_max - (y_max - y_min) * ri as f64 / (cfg.height - 1) as f64;
        let label = if ri == 0 || ri == cfg.height - 1 || ri == (cfg.height - 1) / 2 {
            format!("{y_here:>8.2}")
        } else {
            " ".repeat(8)
        };
        let _ = writeln!(out, "{label}|{}", row.iter().collect::<String>());
    }
    let _ = writeln!(out, "{}+{}", " ".repeat(gutter - 1), "-".repeat(cfg.width));
    let x_axis = format!(
        "{}{:<width$.0}{:>width2$.0}",
        " ".repeat(gutter),
        x_min,
        x_max,
        width = cfg.width / 2,
        width2 = cfg.width - cfg.width / 2
    );
    let _ = writeln!(out, "{x_axis}");
    if !cfg.x_label.is_empty() {
        let pad = gutter + cfg.width.saturating_sub(cfg.x_label.chars().count()) / 2;
        let _ = writeln!(out, "{}{}", " ".repeat(pad), cfg.x_label);
    }
    let _ = writeln!(out);
    for (si, s) in series.iter().enumerate() {
        let _ = writeln!(out, "  {} {}", GLYPHS[si % GLYPHS.len()], s.name);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_series() -> Series {
        let x: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|x| x.sqrt()).collect();
        Series::new("sqrt", x, y)
    }

    #[test]
    fn plot_contains_legend_and_axis() {
        let s = demo_series();
        let cfg =
            PlotConfig { x_label: "n".into(), y_label: "sqrt(n)".into(), ..Default::default() };
        let p = ascii_plot(&[s], &cfg);
        assert!(p.contains("sqrt"));
        assert!(p.contains('*'));
        assert!(p.contains('+'), "axis rule");
    }

    #[test]
    fn empty_series_is_handled() {
        let s = Series::new("empty", vec![], vec![]);
        let p = ascii_plot(&[s], &PlotConfig::default());
        assert_eq!(p, "(no data)\n");
    }

    #[test]
    fn fixed_y_range_clips_out_of_range_points() {
        let s = Series::new("s", vec![1.0, 2.0], vec![0.5, 100.0]);
        let cfg = PlotConfig { y_range: Some((0.0, 1.0)), ..Default::default() };
        let p = ascii_plot(&[s], &cfg);
        // The 100.0 point is outside the fixed range and must be dropped,
        // not wrapped somewhere bogus.
        assert!(p.lines().count() > 5);
    }

    #[test]
    fn multiple_series_get_distinct_glyphs() {
        let a = Series::new("a", vec![1.0, 2.0], vec![1.0, 2.0]);
        let b = Series::new("b", vec![1.0, 2.0], vec![2.0, 1.0]);
        let p = ascii_plot(&[a, b], &PlotConfig::default());
        assert!(p.contains("* a"));
        assert!(p.contains("o b"));
    }

    #[test]
    fn constant_series_does_not_divide_by_zero() {
        let s = Series::new("c", vec![1.0, 2.0, 3.0], vec![5.0, 5.0, 5.0]);
        let p = ascii_plot(&[s], &PlotConfig::default());
        assert!(!p.contains("NaN"));
    }
}
