//! **FIG8** — Figure 8 of the paper: evolution of `σ̄(Qg, Q̄g)`, the quality
//! of balancement *between groups*, during the same `Pmin = Vmin = 32`
//! growth as figure 7 — FIG7's runs, read from the context's cache.
//!
//! `σ̄(Qg)` is measured against the ideal average quota `Q̄g = 1/G`; its
//! spikes correlate with the divergence between `G_real` and `G_ideal`
//! (§4.2.1): whenever real and ideal group counts drift apart, groups with
//! very different quotas coexist.

use crate::compare::params;
use crate::output::Figure;
use crate::runner::GrowthSample;
use crate::{fig7, Ctx, ExpReport};
use domus_core::ideal_group_count;

/// Mean `σ̄(Qg)` of one run's samples while `G_real = G_ideal`, and while
/// they differ (NaN when a side is empty).
fn aligned_vs_diverged(run: &[GrowthSample], vmax: u64) -> (f64, f64) {
    let (mut aligned, mut diverged) = (Vec::new(), Vec::new());
    for (i, g) in run.iter().enumerate() {
        let ideal = ideal_group_count((i + 1) as u64, vmax) as f64;
        let side = if (g.groups - ideal).abs() < 0.5 { &mut aligned } else { &mut diverged };
        side.push(g.group_relstd);
    }
    let mean =
        |v: &[f64]| if v.is_empty() { f64::NAN } else { v.iter().sum::<f64>() / v.len() as f64 };
    (mean(&aligned), mean(&diverged))
}

/// Runs the experiment.
pub fn run(ctx: &Ctx) -> ExpReport {
    let mut rep = ExpReport::new("FIG8");
    let (_, vmin) = params(ctx);
    let growth = fig7::growth(ctx);
    let curves = [
        growth.curve("σ̄(Qg) (mean of runs)", |s| s.group_relstd),
        growth.trace("σ̄(Qg) (single run)", |s| s.group_relstd),
    ];

    let figure = Figure {
        csv: "fig8_sigma_qg",
        x: "vnodes",
        title: "Figure 8 — evolution of σ̄(Qg) between groups",
        y_label: "quality of the balancement between groups (%)",
        x_label: "overall number of vnodes",
        y_max: Some(40.0),
    };
    let columns = [("σ̄(Qg) mean %", 2), ("σ̄(Qg) single %", 2)];
    figure.emit(ctx, &mut rep, &curves, Some(&columns));
    rep.note(format!("parameters: Pmin = Vmin = {vmin} (same runs as FIG7)"));

    let (peak_x, peak_y) = curves[0].max_point().unwrap_or((0.0, 0.0));
    rep.note(format!("peak run-averaged σ̄(Qg): {peak_y:.2}% at V = {peak_x:.0}"));

    // Spike ↔ divergence correlation (§4.2.1): compare σ̄(Qg) where
    // G_real = G_ideal against where they differ, within the single run.
    let (aligned, diverged) = aligned_vs_diverged(&growth.first, 2 * vmin);
    rep.note(format!(
        "single run: mean σ̄(Qg) while G_real = G_ideal: {aligned:.2}% | while diverged: {diverged:.2}% (spikes follow divergence)"
    ));
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Model;
    use domus_core::DhtConfig;
    use domus_hashspace::HashSpace;

    #[test]
    fn group_imbalance_spikes_after_first_split() {
        let cfg = DhtConfig::new(HashSpace::full(), 8, 8).unwrap();
        let run = Model::local(cfg).run(100, 7);
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
        let (aligned, diverged) = aligned_vs_diverged(&Model::local(cfg).run(200, 11), 16);
        if !aligned.is_nan() && !diverged.is_nan() {
            assert!(
                diverged > aligned,
                "diverged σ̄(Qg) ({diverged:.2}) must exceed aligned ({aligned:.2})"
            );
        }
    }
}
