//! **FIG8** — Figure 8 of the paper: evolution of `σ̄(Qg, Q̄g)`, the quality
//! of balancement *between groups*, during the same `Pmin = Vmin = 32`
//! growth as figure 7.
//!
//! `σ̄(Qg)` is measured against the ideal average quota `Q̄g = 1/G`; its
//! spikes correlate with the divergence between `G_real` and `G_ideal`
//! (§4.2.1): whenever real and ideal group counts drift apart, groups with
//! very different quotas coexist.

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
    let mut rep = ExpReport::new("FIG8");
    let (pmin, vmin) = params(ctx);
    let cfg = DhtConfig::new(HashSpace::full(), pmin, vmin).expect("powers of two");

    let avg =
        average_runs("σ̄(Qg) (mean of runs)", "fig7", &ctx.seeds, ctx.runs, ctx.n, move |seed| {
            local_growth(cfg, ctx.n, seed).iter().map(|g| g.group_relstd).collect()
        })
        .mean_series();
    let single_seed = derive_seed(&ctx.seeds, "fig7", 0);
    let single_run = local_growth(cfg, ctx.n, single_seed);
    let single = Series::new(
        "σ̄(Qg) (single run)",
        (1..=ctx.n).map(|i| i as f64).collect(),
        single_run.iter().map(|g| g.group_relstd).collect(),
    );

    let curves = vec![avg.clone(), single.clone()];
    let path = write_csv(ctx, "fig8_sigma_qg", "vnodes", &curves);
    rep.note(format!("csv: {}", path.display()));
    rep.note(format!("parameters: Pmin = Vmin = {vmin} (same runs as FIG7)"));

    print_plot(
        "Figure 8 — evolution of σ̄(Qg) between groups",
        &curves,
        "quality of the balancement between groups (%)",
        "overall number of vnodes",
        Some(40.0),
    );

    let samples = canonical_samples(ctx.n);
    let mut t = Table::new(&["V", "σ̄(Qg) mean %", "σ̄(Qg) single %"]);
    for &x in &samples {
        t.row(&[
            format!("{x:.0}"),
            num(sample_points(&curves[0], &[x])[0].1, 2),
            num(sample_points(&curves[1], &[x])[0].1, 2),
        ]);
    }
    println!("{}", t.render());

    let (peak_x, peak_y) = avg.max_point().unwrap_or((0.0, 0.0));
    rep.note(format!("peak run-averaged σ̄(Qg): {peak_y:.2}% at V = {peak_x:.0}"));

    // Spike ↔ divergence correlation (§4.2.1): compare σ̄(Qg) where
    // G_real = G_ideal against where they differ, within the single run.
    let mut aligned = Vec::new();
    let mut diverged = Vec::new();
    for (i, g) in single_run.iter().enumerate() {
        let ideal = ideal_group_count((i + 1) as u64, 2 * vmin) as f64;
        if (g.groups - ideal).abs() < 0.5 {
            aligned.push(g.group_relstd);
        } else {
            diverged.push(g.group_relstd);
        }
    }
    let mean =
        |v: &[f64]| if v.is_empty() { f64::NAN } else { v.iter().sum::<f64>() / v.len() as f64 };
    rep.note(format!(
        "single run: mean σ̄(Qg) while G_real = G_ideal: {:.2}% | while diverged: {:.2}% (spikes follow divergence)",
        mean(&aligned),
        mean(&diverged)
    ));
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_imbalance_spikes_after_first_split() {
        let cfg = DhtConfig::new(HashSpace::full(), 8, 8).unwrap();
        let run = local_growth(cfg, 100, 7);
        // While one group exists, σ̄(Qg) = 0 (a single quota of 1).
        for g in &run[..16] {
            assert_eq!(g.group_relstd, 0.0);
        }
        // After groups multiply there must be nonzero imbalance somewhere.
        assert!(run[17..].iter().any(|g| g.group_relstd > 0.0));
    }

    #[test]
    fn divergence_correlates_with_spikes() {
        let cfg = DhtConfig::new(HashSpace::full(), 8, 8).unwrap();
        let run = local_growth(cfg, 200, 11);
        let mut aligned = Vec::new();
        let mut diverged = Vec::new();
        for (i, g) in run.iter().enumerate() {
            let ideal = ideal_group_count((i + 1) as u64, 16) as f64;
            if (g.groups - ideal).abs() < 0.5 {
                aligned.push(g.group_relstd);
            } else {
                diverged.push(g.group_relstd);
            }
        }
        if !aligned.is_empty() && !diverged.is_empty() {
            let ma = aligned.iter().sum::<f64>() / aligned.len() as f64;
            let md = diverged.iter().sum::<f64>() / diverged.len() as f64;
            assert!(md > ma, "diverged σ̄(Qg) ({md:.2}) must exceed aligned ({ma:.2})");
        }
    }
}
