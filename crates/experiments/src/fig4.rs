//! **FIG4** — Figure 4 of the paper: `σ̄(Qv)` vs overall number of vnodes
//! for `(Pmin, Vmin) ∈ {(8,8), (16,16), (32,32), (64,64), (128,128)}`,
//! averaged over 100 runs.
//!
//! Expected shape (paper §4.1/§4.1.1): two zones per curve — zone 1
//! (`V ≤ Vmax`) identical to the global approach; zone 2 a sudden increase
//! to a stable plateau once groups multiply; larger `Pmin = Vmin` →
//! uniformly lower plateau, ordering 8 > 16 > 32 > 64 > 128.

use crate::output::{canonical_samples, print_plot, sample_points, write_csv};
use crate::runner::{average_runs, local_growth};
use crate::{Ctx, ExpReport};
use domus_core::DhtConfig;
use domus_hashspace::HashSpace;
use domus_metrics::series::Series;
use domus_metrics::table::{num, Table};

/// Result bundle: one averaged curve per diagonal `(Pmin, Vmin)` value.
#[derive(Debug, Clone)]
pub struct Fig4Data {
    /// The diagonal values actually swept.
    pub values: Vec<u64>,
    /// One run-averaged `σ̄(Qv)` curve per value, same order.
    pub curves: Vec<Series>,
}

impl Fig4Data {
    /// Each curve's zone-2 plateau: its mean over `4·Vmin < V ≤ n`.
    pub(crate) fn plateaus(&self, n: usize) -> Vec<f64> {
        let plateau = |(v, c): (&u64, &Series)| c.mean_y_in((4 * v + 1) as f64, n as f64);
        self.values.iter().zip(&self.curves).map(plateau).collect()
    }
}

/// The sweep's curves, computed on first use and then shared through
/// `ctx` with FIG5 and CLAIM-30.
pub fn compute(ctx: &Ctx) -> &Fig4Data {
    ctx.fig4.get_or_init(|| sweep(ctx))
}

fn sweep(ctx: &Ctx) -> Fig4Data {
    let values = ctx.diagonal_values();
    let space = HashSpace::full();
    let curves = values
        .iter()
        .map(|&pv| {
            let cfg = DhtConfig::new(space, pv, pv).expect("powers of two");
            let label = format!("fig4-{pv}");
            average_runs(
                &format!("(Pmin,Vmin)=({pv},{pv})"),
                &label,
                &ctx.seeds,
                ctx.runs,
                ctx.n,
                move |seed| local_growth(cfg, ctx.n, seed).iter().map(|g| g.vnode_relstd).collect(),
            )
            .mean_series()
        })
        .collect();
    Fig4Data { values, curves }
}

/// Full experiment: compute, emit CSV + plot + table, summarise.
pub fn run(ctx: &Ctx) -> ExpReport {
    let mut rep = ExpReport::new("FIG4");
    let data = compute(ctx);
    let path = write_csv(ctx, "fig4_sigma_qv_diagonal", "vnodes", &data.curves);
    rep.note(format!("csv: {}", path.display()));

    print_plot(
        "Figure 4 — σ̄(Qv) when Pmin = Vmin",
        &data.curves,
        "quality of the balancement (%)",
        "overall number of vnodes",
        Some(25.0),
    );

    let samples = canonical_samples(ctx.n);
    let mut t = Table::new(
        &std::iter::once("V".to_string())
            .chain(data.values.iter().map(|v| format!("({v},{v})")))
            .collect::<Vec<_>>()
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>(),
    );
    for &x in &samples {
        let mut row = vec![format!("{x:.0}")];
        for c in &data.curves {
            let pt = sample_points(c, &[x]);
            row.push(num(pt.first().map(|&(_, y)| y).unwrap_or(f64::NAN), 2));
        }
        t.row(&row);
    }
    println!("{}", t.render());

    for ((v, c), plateau) in data.values.iter().zip(&data.curves).zip(data.plateaus(ctx.n)) {
        let end = c.last_y().unwrap_or(f64::NAN);
        rep.note(format!(
            "(Pmin,Vmin)=({v},{v}): plateau mean {:.2}% | value at V={} : {:.2}%",
            plateau, ctx.n, end
        ));
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plateau_ordering_matches_paper() {
        // Smoke scale: bigger (Pmin,Vmin) → lower plateau.
        let ctx =
            Ctx { runs: 6, n: 160, ..Ctx::quick(std::env::temp_dir().join("domus-fig4-test")) };
        let data = compute(&ctx);
        assert!(data.values.len() >= 2);
        let plateaus = data.plateaus(ctx.n);
        for w in plateaus.windows(2) {
            assert!(w[0] > w[1], "plateaus must decrease with (Pmin,Vmin): {plateaus:?}");
        }
    }
}
