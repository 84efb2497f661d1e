//! **FIG5** — Figure 5 of the paper: the parameter-choice functional
//! `θ = α·[Vmin/max(Vmin)] + β·[σ̄(Qv)/max(σ̄(Qv))]` with `α = β = 0.5`,
//! plotted for `Vmin ∈ {8, 16, 32, 64, 128}` (Pmin = Vmin).
//!
//! The paper does not state at which V the `σ̄` term is sampled; we use the
//! end state (V = 1024) and also report θ built from the zone-2 plateau
//! mean as a robustness check. The paper's
//! observation — θ minimises at `Vmin = 32` — must hold for both.

use crate::fig4;
use crate::output::{print_plot, write_csv};
use crate::{Ctx, ExpReport};
use domus_metrics::series::Series;
use domus_metrics::table::{num, Table};

/// θ for the weights `alpha`/`beta` from raw `(Vmin, σ̄)` pairs.
pub fn theta(values: &[u64], sigmas: &[f64], alpha: f64, beta: f64) -> Vec<f64> {
    assert_eq!(values.len(), sigmas.len());
    let vmax = *values.iter().max().expect("non-empty sweep") as f64;
    let smax = sigmas.iter().cloned().fold(f64::MIN, f64::max);
    values
        .iter()
        .zip(sigmas)
        .map(|(&v, &s)| alpha * (v as f64 / vmax) + beta * (s / smax))
        .collect()
}

/// Runs FIG5 on the FIG4 sweep.
pub fn run(ctx: &Ctx) -> ExpReport {
    let mut rep = ExpReport::new("FIG5");
    let data = fig4::compute(ctx);

    let end_sigma: Vec<f64> =
        data.curves.iter().map(|c| c.last_y().expect("non-empty curve")).collect();
    let plateau_sigma = data.plateaus(ctx.n);

    let theta_end = theta(&data.values, &end_sigma, 0.5, 0.5);
    let theta_plateau = theta(&data.values, &plateau_sigma, 0.5, 0.5);

    let x: Vec<f64> = data.values.iter().map(|&v| v as f64).collect();
    let s_end = Series::new("θ (σ̄ at end state)", x.clone(), theta_end.clone());
    let s_plat = Series::new("θ (σ̄ = zone-2 plateau mean)", x, theta_plateau.clone());
    let path = write_csv(ctx, "fig5_theta", "vmin", &[s_end.clone(), s_plat.clone()]);
    rep.note(format!("csv: {}", path.display()));

    print_plot(
        "Figure 5 — θ for Vmin sweep (α = β = 0.5)",
        &[s_end, s_plat],
        "θ",
        "Vmin",
        Some(1.0),
    );

    let mut t = Table::new(&["Vmin", "σ̄ end %", "θ(end)", "σ̄ plateau %", "θ(plateau)"]);
    for i in 0..data.values.len() {
        t.row(&[
            data.values[i].to_string(),
            num(end_sigma[i], 2),
            num(theta_end[i], 3),
            num(plateau_sigma[i], 2),
            num(theta_plateau[i], 3),
        ]);
    }
    println!("{}", t.render());

    let argmin = |th: &[f64]| {
        data.values[th
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .expect("non-empty")
            .0]
    };
    let m_end = argmin(&theta_end);
    let m_plat = argmin(&theta_plateau);
    rep.note(format!("θ minimised at Vmin = {m_end} (end-state σ̄); paper: 32"));
    rep.note(format!("θ minimised at Vmin = {m_plat} (plateau σ̄); paper: 32"));
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theta_formula_matches_hand_computation() {
        // values {8,...,128}, σ̄ like the paper's figure-4 plateaus.
        let values = [8u64, 16, 32, 64, 128];
        let sigmas = [22.0, 15.4, 10.8, 7.5, 5.3];
        let th = theta(&values, &sigmas, 0.5, 0.5);
        // Hand check for Vmin = 32: 0.5·(32/128) + 0.5·(10.8/22).
        let expect = 0.5 * (32.0 / 128.0) + 0.5 * (10.8 / 22.0);
        assert!((th[2] - expect).abs() < 1e-12);
        // And the minimum falls at index 2 (Vmin = 32), as in the paper.
        let (argmin, _) =
            th.iter().enumerate().min_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap();
        assert_eq!(values[argmin], 32);
    }

    #[test]
    fn equal_sigmas_make_theta_monotone_in_vmin() {
        let values = [8u64, 16, 32];
        let th = theta(&values, &[5.0, 5.0, 5.0], 0.5, 0.5);
        assert!(th[0] < th[1] && th[1] < th[2]);
    }
}
