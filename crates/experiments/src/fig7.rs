//! **FIG7** — Figure 7 of the paper: evolution of the real (`G_real`) vs
//! ideal (`G_ideal`) number of groups, `Pmin = Vmin = 32`.
//!
//! Ideally the group count doubles each time `V` crosses a power-of-two
//! multiple of `Vmax`; in reality splits are premature and late, and the
//! divergence widens with `V` (§4.2.1). The harness emits the run-averaged
//! `G_real`, one representative single-seed trace (the staircase is sharper
//! per run), and `G_ideal`.

use crate::compare::params;
use crate::output::{canonical_samples, print_plot, sample_points, write_csv};
use crate::runner::{average_runs, derive_seed, local_growth};
use crate::{Ctx, ExpReport};
use domus_core::{ideal_group_count, DhtConfig};
use domus_hashspace::HashSpace;
use domus_metrics::series::Series;
use domus_metrics::table::{num, Table};

/// Runs the experiment.
pub fn run(ctx: &Ctx) -> ExpReport {
    let mut rep = ExpReport::new("FIG7");
    let (pmin, vmin) = params(ctx);
    let cfg = DhtConfig::new(HashSpace::full(), pmin, vmin).expect("powers of two");

    let avg =
        average_runs("G_real (mean of runs)", "fig7", &ctx.seeds, ctx.runs, ctx.n, move |seed| {
            local_growth(cfg, ctx.n, seed).iter().map(|g| g.groups).collect()
        })
        .mean_series();

    let single_seed = derive_seed(&ctx.seeds, "fig7", 0);
    let single = Series::new(
        "G_real (single run)",
        (1..=ctx.n).map(|i| i as f64).collect(),
        local_growth(cfg, ctx.n, single_seed).iter().map(|g| g.groups).collect(),
    );

    let ideal = Series::new(
        "G_ideal",
        (1..=ctx.n).map(|i| i as f64).collect(),
        (1..=ctx.n).map(|v| ideal_group_count(v as u64, 2 * vmin) as f64).collect(),
    );

    let curves = vec![avg.clone(), single, ideal.clone()];
    let path = write_csv(ctx, "fig7_groups", "vnodes", &curves);
    rep.note(format!("csv: {}", path.display()));
    rep.note(format!("parameters: Pmin = Vmin = {vmin}"));

    print_plot(
        "Figure 7 — evolution of the number of groups",
        &curves,
        "overall number of groups",
        "overall number of vnodes",
        None,
    );

    let samples = canonical_samples(ctx.n);
    let mut t = Table::new(&["V", "G_real (mean)", "G_real (single)", "G_ideal"]);
    for &x in &samples {
        t.row(&[
            format!("{x:.0}"),
            num(sample_points(&curves[0], &[x])[0].1, 2),
            num(sample_points(&curves[1], &[x])[0].1, 0),
            num(sample_points(&curves[2], &[x])[0].1, 0),
        ]);
    }
    println!("{}", t.render());

    // Divergence diagnostics: premature and late splits.
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
        let run: Vec<f64> = local_growth(cfg, ctx.n, 3).iter().map(|g| g.groups).collect();
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
