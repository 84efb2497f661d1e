//! **FIG7** — Figure 7 of the paper: evolution of the real (`G_real`) vs
//! ideal (`G_ideal`) number of groups, `Pmin = Vmin = 32`.
//!
//! Ideally the group count doubles each time `V` crosses a power-of-two
//! multiple of `Vmax`; in reality splits are premature and late, and the
//! divergence widens with `V` (§4.2.1). The harness emits the run-averaged
//! `G_real`, one representative single-seed trace (run 0; the staircase is
//! sharper per run), and `G_ideal`.

use crate::compare::params;
use crate::output::Figure;
use crate::runner::{Growth, Model, Runs};
use crate::{Ctx, ExpReport};
use domus_core::{ideal_group_count, DhtConfig};
use domus_hashspace::HashSpace;
use domus_metrics::series::Series;

/// The runs FIG7 and FIG8 both read: `Pmin = Vmin` at the reference
/// parameters, under the seed label `"fig7"`.
pub fn growth(ctx: &Ctx) -> Growth {
    let (pmin, vmin) = params(ctx);
    let cfg = DhtConfig::new(HashSpace::full(), pmin, vmin).expect("powers of two");
    ctx.growth(&Runs::of(ctx, "fig7", Model::local(cfg)))
}

/// Runs the experiment.
pub fn run(ctx: &Ctx) -> ExpReport {
    let mut rep = ExpReport::new("FIG7");
    let (_, vmin) = params(ctx);
    let growth = growth(ctx);
    let avg = growth.curve("G_real (mean of runs)", |s| s.groups);
    let ideal = Series::new(
        "G_ideal",
        avg.x.clone(),
        (1..=ctx.n).map(|v| ideal_group_count(v as u64, 2 * vmin) as f64).collect(),
    );
    let curves = [avg, growth.trace("G_real (single run)", |s| s.groups), ideal];

    let figure = Figure {
        csv: "fig7_groups",
        x: "vnodes",
        title: "Figure 7 — evolution of the number of groups",
        y_label: "overall number of groups",
        x_label: "overall number of vnodes",
        y_max: None,
    };
    let columns = [("G_real (mean)", 2), ("G_real (single)", 0), ("G_ideal", 0)];
    figure.emit(ctx, &mut rep, &curves, Some(&columns));
    rep.note(format!("parameters: Pmin = Vmin = {vmin}"));

    // Divergence diagnostics: premature and late splits.
    let [avg, _, ideal] = &curves;
    let max_over: f64 = avg.y.iter().zip(&ideal.y).map(|(r, i)| r - i).fold(f64::MIN, f64::max);
    let max_under: f64 = avg.y.iter().zip(&ideal.y).map(|(r, i)| i - r).fold(f64::MIN, f64::max);
    rep.note(format!(
        "max premature surplus (G_real − G_ideal): {max_over:.2} groups; max late deficit: {max_under:.2}"
    ));
    rep.note(format!(
        "G_real at V={}: {:.2} (ideal {:.0})",
        ctx.n,
        avg.last_y().unwrap_or(f64::NAN),
        ideal.last_y().unwrap_or(f64::NAN)
    ));
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_groups_straddle_the_ideal() {
        // At quick scale there must be both premature and late splits.
        let ctx =
            Ctx { runs: 6, n: 160, ..Ctx::quick(std::env::temp_dir().join("domus-fig7-test")) };
        let (pmin, vmin) = params(&ctx);
        let cfg = DhtConfig::new(HashSpace::full(), pmin, vmin).unwrap();
        let run: Vec<f64> = Model::local(cfg).run(ctx.n, 3).iter().map(|g| g.groups).collect();
        let mut premature = false;
        let mut late = false;
        for (i, &g) in run.iter().enumerate() {
            let ideal = ideal_group_count((i + 1) as u64, 2 * vmin) as f64;
            if g > ideal {
                premature = true;
            }
            if g < ideal {
                late = true;
            }
        }
        assert!(premature || late, "real trace should diverge from ideal somewhere");
        // The group count is monotone non-decreasing under pure growth.
        for w in run.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }
}
