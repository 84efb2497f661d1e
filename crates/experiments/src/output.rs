//! Output plumbing: CSV files, ASCII plots, and the one figure emitter.

use crate::{Ctx, ExpReport};
use domus_metrics::csv::write_series_columns;
use domus_metrics::plot::{ascii_plot, PlotConfig};
use domus_metrics::series::Series;
use domus_metrics::table::{num, Table};
use std::fs;
use std::io::BufWriter;

/// Creates `results/<name>.csv` (and the directory) for writing.
pub(crate) fn create_csv(ctx: &Ctx, name: &str) -> BufWriter<fs::File> {
    fs::create_dir_all(&ctx.out_dir).expect("create results dir");
    let path = ctx.out_dir.join(format!("{name}.csv"));
    let file = fs::File::create(&path).unwrap_or_else(|e| panic!("create {path:?}: {e}"));
    BufWriter::new(file)
}

/// Writes the series family as `results/<name>.csv` (shared x grid) and
/// notes its path, relative to `--out`, in `rep`.
pub fn write_csv(ctx: &Ctx, rep: &mut ExpReport, name: &str, x_name: &str, series: &[Series]) {
    write_series_columns(create_csv(ctx, name), x_name, series).expect("write csv");
    rep.note(format!("csv: {name}.csv"));
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

/// A growth figure: a curve family over `1..=n` created vnodes (or
/// nodes), drawn the same way by FIG4, FIG6, FIG7, FIG8 and FIG9.
#[derive(Debug, Clone, Copy)]
pub struct Figure<'a> {
    /// CSV stem under `--out`.
    pub csv: &'a str,
    /// The CSV's x column (`vnodes`, `nodes`); its initial heads the
    /// table's first column.
    pub x: &'a str,
    /// Plot title.
    pub title: &'a str,
    /// Plot y-axis label.
    pub y_label: &'a str,
    /// Plot x-axis label.
    pub x_label: &'a str,
    /// Plot y ceiling (auto-scaled when `None`).
    pub y_max: Option<f64>,
}

impl Figure<'_> {
    /// Writes the CSV and its `csv:` note, draws the plot, and prints the
    /// canonical-sample table: one column per curve, headed by `columns`
    /// as `(header, decimals)`, or by each curve's name at two decimals.
    pub fn emit(
        &self,
        ctx: &Ctx,
        rep: &mut ExpReport,
        curves: &[Series],
        columns: Option<&[(&str, usize)]>,
    ) {
        write_csv(ctx, rep, self.csv, self.x, curves);
        print_plot(self.title, curves, self.y_label, self.x_label, self.y_max);

        let named: Vec<(&str, usize)> = curves.iter().map(|c| (c.name.as_str(), 2)).collect();
        let columns = columns.unwrap_or(&named);
        let x = self.x[..1].to_uppercase();
        let headers: Vec<&str> =
            std::iter::once(x.as_str()).chain(columns.iter().map(|c| c.0)).collect();
        let mut t = Table::new(&headers);
        for x in canonical_samples(ctx.n) {
            let at = |c: &Series| c.x.iter().position(|&v| v == x).map_or(f64::NAN, |i| c.y[i]);
            let cells = curves.iter().zip(columns).map(|(c, &(_, decimals))| num(at(c), decimals));
            t.row(&std::iter::once(format!("{x:.0}")).chain(cells).collect::<Vec<_>>());
        }
        println!("{}", t.render());
    }
}

/// The canonical x sample grid used by tables: powers of two plus the
/// mid-zone points the paper's figures make visually salient.
fn canonical_samples(n: usize) -> Vec<f64> {
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
