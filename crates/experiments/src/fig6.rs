//! **FIG6** — Figure 6 of the paper: degradation of `σ̄(Qv)` as `Vmin`
//! shrinks, at fixed `Pmin = 32`, for `Vmin ∈ {8, 16, 32, 64, 128, 256,
//! 512}`.
//!
//! Expected shape: monotone degradation with smaller `Vmin`; the
//! `Vmin = 512` curve coincides with the global approach because `Vmax =
//! 1024` means one group for the whole run (§4.2) — the harness overlays
//! the actual global-approach curve to make the coincidence visible.

use crate::output::Figure;
use crate::runner::{Model, Runs};
use crate::{Ctx, ExpReport};
use domus_core::DhtConfig;
use domus_hashspace::HashSpace;

/// The fixed fine-grain parameter of figure 6.
pub const PMIN: u64 = 32;

/// Runs the `Vmin` sweep plus the global-approach reference.
pub fn run(ctx: &Ctx) -> ExpReport {
    let mut rep = ExpReport::new("FIG6");
    let space = HashSpace::full();
    let vmins: Vec<u64> =
        [8u64, 16, 32, 64, 128, 256, 512].into_iter().filter(|&v| v * 2 <= ctx.n as u64).collect();

    let mut curves: Vec<_> = vmins
        .iter()
        .map(|&vmin| {
            let cfg = DhtConfig::new(space, PMIN, vmin).expect("powers of two");
            ctx.growth(&Runs::of(ctx, format!("fig6-{vmin}"), Model::local(cfg)))
                .curve(&format!("Vmin={vmin}"), |s| s.vnode_relstd)
        })
        .collect();
    // Global-approach overlay (same Pmin). Deterministic given counts, so a
    // few runs suffice, but averaging keeps the pipeline uniform.
    let gcfg = DhtConfig::new(space, PMIN, 1).expect("powers of two");
    let global =
        Runs { runs: ctx.runs.min(4), ..Runs::of(ctx, "fig6-global", Model::Global(gcfg)) };
    curves.push(ctx.growth(&global).curve("global approach", |s| s.vnode_relstd));

    let figure = Figure {
        csv: "fig6_sigma_qv_vmin_sweep",
        x: "vnodes",
        title: "Figure 6 — σ̄(Qv) when Pmin = 32, Vmin sweep",
        y_label: "quality of the balancement (%)",
        x_label: "overall number of vnodes",
        y_max: Some(25.0),
    };
    figure.emit(ctx, &mut rep, &curves, None);

    // Degradation summary + the Vmin=512 ≡ global coincidence.
    for (vmin, c) in vmins.iter().zip(&curves) {
        rep.note(format!(
            "Vmin={vmin}: σ̄ at V={} is {:.2}%",
            ctx.n,
            c.last_y().unwrap_or(f64::NAN)
        ));
    }
    if vmins.contains(&(ctx.n as u64 / 2)) {
        let (big, global) = (&curves[vmins.len() - 1], &curves[vmins.len()]);
        let max_gap =
            big.y.iter().zip(&global.y).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
        rep.note(format!(
            "largest |Vmin={} − global| gap over the whole run: {:.3} pp (paper: curves coincide)",
            ctx.n / 2,
            max_gap
        ));
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_group_vmin_matches_global_exactly() {
        // At quick scale: Vmin = n/2 keeps one group; the σ̄ series must be
        // identical to the global approach step for step.
        let space = HashSpace::full();
        let n = 96;
        let local = Model::local(DhtConfig::new(space, PMIN, 64).unwrap()).run(n, 5);
        let global = Model::Global(DhtConfig::new(space, PMIN, 1).unwrap()).run(n, 99);
        for (i, (x, y)) in local.iter().zip(&global).enumerate() {
            let (x, y) = (x.vnode_relstd, y.vnode_relstd);
            assert!((x - y).abs() < 1e-9, "V={}: local {x} global {y}", i + 1);
        }
    }

    #[test]
    fn smaller_vmin_degrades_quality() {
        let ctx =
            Ctx { runs: 6, n: 128, ..Ctx::quick(std::env::temp_dir().join("domus-fig6-test")) };
        let end = |vmin: u64| {
            let cfg = DhtConfig::new(HashSpace::full(), PMIN, vmin).unwrap();
            let growth = ctx.growth(&Runs::of(&ctx, format!("t{vmin}"), Model::local(cfg)));
            growth.mean.last().unwrap().vnode_relstd
        };
        let coarse = end(8);
        let fine = end(32);
        assert!(coarse > fine, "Vmin=8 ({coarse:.2}) must be worse than Vmin=32 ({fine:.2})");
    }
}
