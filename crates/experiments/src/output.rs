//! Output plumbing: CSV files, ASCII plots, tables.

use crate::Ctx;
use domus_metrics::csv::write_series_columns;
use domus_metrics::plot::{ascii_plot, PlotConfig};
use domus_metrics::series::Series;
use std::fs;
use std::io::BufWriter;
use std::path::PathBuf;

/// Creates `results/<name>.csv` (and the directory) for writing.
pub(crate) fn create_csv(ctx: &Ctx, name: &str) -> (PathBuf, BufWriter<fs::File>) {
    fs::create_dir_all(&ctx.out_dir).expect("create results dir");
    let path = ctx.out_dir.join(format!("{name}.csv"));
    let file = fs::File::create(&path).unwrap_or_else(|e| panic!("create {path:?}: {e}"));
    (path, BufWriter::new(file))
}

/// Writes the series family as `results/<name>.csv` (shared x grid).
pub fn write_csv(ctx: &Ctx, name: &str, x_name: &str, series: &[Series]) -> PathBuf {
    let (path, file) = create_csv(ctx, name);
    write_series_columns(file, x_name, series).expect("write csv");
    path
}

/// Prints a titled ASCII plot of the series family.
pub fn print_plot(
    title: &str,
    series: &[Series],
    y_label: &str,
    x_label: &str,
    y_max: Option<f64>,
) {
    println!("\n── {title} {}", "─".repeat(60usize.saturating_sub(title.chars().count())));
    let cfg = PlotConfig {
        width: 76,
        height: 22,
        y_range: y_max.map(|m| (0.0, m)),
        x_label: x_label.to_string(),
        y_label: y_label.to_string(),
    };
    print!("{}", ascii_plot(series, &cfg));
}

/// Down-samples a series at the given x values (plus the last point) for
/// compact tables.
pub fn sample_points(s: &Series, at: &[f64]) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    for &x in at {
        if let Some(i) = s.x.iter().position(|&v| v == x) {
            out.push((x, s.y[i]));
        }
    }
    if let (Some(&lx), Some(&ly)) = (s.x.last(), s.y.last()) {
        if out.last().map(|&(x, _)| x != lx).unwrap_or(true) {
            out.push((lx, ly));
        }
    }
    out
}

/// The canonical x sample grid used by tables: powers of two plus the
/// mid-zone points the paper's figures make visually salient.
pub fn canonical_samples(n: usize) -> Vec<f64> {
    let mut v: Vec<f64> = [16u64, 32, 64, 96, 128, 192, 256, 384, 512, 640, 768, 896, 1024]
        .iter()
        .filter(|&&x| x <= n as u64)
        .map(|&x| x as f64)
        .collect();
    if v.is_empty() {
        v.push(n as f64);
    }
    v
}
