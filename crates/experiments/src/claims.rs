//! In-text claims of §4.1/§4.1.1/§4.2, each reproduced as its own
//! experiment (registry ids CLAIM-PV, CLAIM-30, CLAIM-8K, CLAIM-Z1,
//! CLAIM-G512).

use crate::compare::params;
use crate::fig4;
use crate::output::write_csv;
use crate::runner::{derive_seed, Model, Runs};
use crate::{Ctx, ExpReport};
use domus_core::DhtConfig;
use domus_hashspace::HashSpace;
use domus_metrics::series::Series;
use domus_metrics::table::{num, Table};

/// `σ̄(Qv)` of one run of `model`, seeded from `(label, run)`.
fn relstd_run(ctx: &Ctx, model: Model, n: usize, label: &str, run: u64) -> Vec<f64> {
    let seed = derive_seed(&ctx.seeds, label, run);
    model.run(n, seed).iter().map(|g| g.vnode_relstd).collect()
}

/// **CLAIM-PV** — §4.1(b): "increasing Pmin beyond the same value of Vmin
/// decreases σ̄(Qv) by a very marginal amount". Full `Pmin × Vmin` grid,
/// reporting end-state σ̄.
pub fn claim_pv(ctx: &Ctx) -> ExpReport {
    let mut rep = ExpReport::new("CLAIM-PV");
    let values: Vec<u64> = ctx.diagonal_values();
    let end = |pmin: u64, vmin: u64| {
        let cfg = DhtConfig::new(HashSpace::full(), pmin, vmin).expect("powers of two");
        let label = format!("claim-pv-{pmin}-{vmin}");
        let cell = Runs { runs: (ctx.runs / 2).max(3), ..Runs::of(ctx, label, Model::local(cfg)) };
        ctx.growth(&cell).mean.last().expect("non-empty").vnode_relstd
    };
    let grid: Vec<Vec<f64>> =
        values.iter().map(|&pmin| values.iter().map(|&vmin| end(pmin, vmin)).collect()).collect();

    let headers: Vec<String> = std::iter::once("Pmin \\ Vmin".to_string())
        .chain(values.iter().map(u64::to_string))
        .collect();
    let mut t = Table::new(&headers.iter().map(String::as_str).collect::<Vec<_>>());
    for (i, &pmin) in values.iter().enumerate() {
        let mut row = vec![pmin.to_string()];
        row.extend(grid[i].iter().map(|&x| num(x, 2)));
        t.row(&row);
    }
    println!("\n── CLAIM-PV — σ̄(Qv) at V={} over the Pmin × Vmin grid ──", ctx.n);
    println!("{}", t.render());

    // Quantify the claim: for each Vmin column, how much does raising Pmin
    // above the diagonal help, relative to the gain from raising Vmin?
    let mut max_pmin_gain = 0.0f64;
    for (j, &vmin) in values.iter().enumerate() {
        let diag_i = values.iter().position(|&p| p == vmin).expect("diagonal");
        let diag = grid[diag_i][j];
        for row in grid.iter().skip(diag_i + 1) {
            max_pmin_gain = max_pmin_gain.max(diag - row[j]);
        }
    }
    let diag_first = grid[0][0];
    let diag_last = grid[values.len() - 1][values.len() - 1];
    rep.note(format!(
        "max gain from Pmin > Vmin: {max_pmin_gain:.2} pp — vs {:.2} pp from walking the diagonal ({} → {})",
        diag_first - diag_last,
        values[0],
        values[values.len() - 1]
    ));

    let x: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    let rows: Vec<Series> = values
        .iter()
        .zip(grid)
        .map(|(&p, row)| Series::new(format!("Pmin={p}"), x.clone(), row))
        .collect();
    write_csv(ctx, &mut rep, "claim_pv_grid", "vmin", &rows);
    rep
}

/// The percent drop of each consecutive plateau from the one before it.
fn doubling_drops(plateaus: &[f64]) -> Vec<f64> {
    plateaus.windows(2).map(|w| 100.0 * (1.0 - w[1] / w[0])).collect()
}

/// **CLAIM-30** — §4.1.1: "each time Pmin and Vmin double, σ̄(Qv)
/// decreases by nearly 30%." Ratios of consecutive zone-2 plateaus from
/// the FIG4 sweep.
pub fn claim_30(ctx: &Ctx) -> ExpReport {
    let mut rep = ExpReport::new("CLAIM-30");
    let data = fig4::compute(ctx);
    let plateaus = data.plateaus(ctx.n);
    let drops = doubling_drops(&plateaus);

    let mut t = Table::new(&["doubling", "plateau before %", "plateau after %", "ratio", "drop %"]);
    for (i, drop) in drops.iter().enumerate() {
        t.row(&[
            format!("({0},{0}) → ({1},{1})", data.values[i], data.values[i + 1]),
            num(plateaus[i], 2),
            num(plateaus[i + 1], 2),
            num(plateaus[i + 1] / plateaus[i], 3),
            num(*drop, 1),
        ]);
    }
    println!("\n── CLAIM-30 — σ̄ drop per (Pmin,Vmin) doubling ──");
    println!("{}", t.render());
    let mean_drop = drops.iter().sum::<f64>() / drops.len().max(1) as f64;
    rep.note(format!("mean drop per doubling: {mean_drop:.1}% (paper: \"nearly 30%\")"));
    rep
}

/// **CLAIM-8K** — §4.1.1: "after a sudden increase, σ̄(Qv) remains
/// relatively stable (this observation was confirmed by additional tests
/// made with 8192 vnodes)."
pub fn claim_8k(ctx: &Ctx) -> ExpReport {
    let mut rep = ExpReport::new("CLAIM-8K");
    let n = if ctx.n >= 1024 { 8192 } else { ctx.n * 4 };
    let (pmin, vmin) = params(ctx);
    let cfg = DhtConfig::new(HashSpace::full(), pmin, vmin).expect("powers of two");
    let runs =
        Runs { runs: (ctx.runs / 5).max(2), n, ..Runs::of(ctx, "claim-8k", Model::local(cfg)) };
    let curve = ctx.growth(&runs).curve("σ̄(Qv)", |s| s.vnode_relstd);
    write_csv(ctx, &mut rep, "claim_8k_stability", "vnodes", std::slice::from_ref(&curve));

    let mut t = Table::new(&["V", "σ̄(Qv) %"]);
    let mut v = 4 * vmin as usize * 2;
    while v <= n {
        if let Some(i) = curve.x.iter().position(|&x| x == v as f64) {
            t.row(&[v.to_string(), num(curve.y[i], 2)]);
        }
        v *= 2;
    }
    println!("\n── CLAIM-8K — σ̄(Qv) stability out to {n} vnodes (Pmin=Vmin={vmin}) ──");
    println!("{}", t.render());

    // Stability: over the second half of the run, the curve must stay
    // within a narrow band.
    let tail_lo = curve.mean_y_in(n as f64 / 2.0, n as f64 * 0.75);
    let tail_hi = curve.mean_y_in(n as f64 * 0.75, n as f64);
    rep.note(format!(
        "second-zone tail means: [{tail_lo:.2}%, {tail_hi:.2}%] — drift {:.2} pp over the last half",
        (tail_hi - tail_lo).abs()
    ));
    rep
}

/// **CLAIM-Z1** — §4.1.1: in zone 1 (`1 ≤ V ≤ Vmax`) the local curve
/// "matches the one under the global approach, for the same value of
/// Pmin" — exactly, since a single group runs the identical algorithm.
pub fn claim_zone1(ctx: &Ctx) -> ExpReport {
    let mut rep = ExpReport::new("CLAIM-Z1");
    let (pmin, vmin) = if ctx.n >= 128 { (32u64, 32u64) } else { (8, 8) };
    let n = (2 * vmin) as usize; // zone 1 exactly
    let local = Model::local(DhtConfig::new(HashSpace::full(), pmin, vmin).expect("powers of two"));
    let global = Model::Global(DhtConfig::new(HashSpace::full(), pmin, 1).expect("powers of two"));

    let mut max_gap = 0.0f64;
    for run in 0..ctx.runs.min(20) {
        let l = relstd_run(ctx, local, n, "claim-z1-l", run);
        let g = relstd_run(ctx, global, n, "claim-z1-g", run);
        for (a, b) in l.iter().zip(&g) {
            max_gap = max_gap.max((a - b).abs());
        }
    }
    println!("\n── CLAIM-Z1 — zone 1 equivalence (V ≤ Vmax = {}) ──", 2 * vmin);
    println!(
        "max |local − global| over {} runs × {n} creations: {max_gap:.3e} pp",
        ctx.runs.min(20)
    );
    rep.note(format!(
        "zone-1 max deviation local vs global (independent seeds): {max_gap:.3e} pp — identical, as §4.1.1 predicts"
    ));
    rep
}

/// **CLAIM-G512** — §4.2: "when Vmin = 512, there will be only one group
/// (once Vmax = 1024), and so the values of σ̄(Qv) match those of the
/// global approach" — over the full run.
pub fn claim_g512(ctx: &Ctx) -> ExpReport {
    let mut rep = ExpReport::new("CLAIM-G512");
    let n = ctx.n;
    // One group for the whole run needs Vmax = 2·Vmin ≥ n; Vmin must be a
    // power of two (1024 → the paper's 512; `--quick`'s 192 → 128).
    let vmin = (n as u64).div_ceil(2).next_power_of_two();
    let pmin = 32u64.min(vmin);
    let local_cfg = DhtConfig::new(HashSpace::full(), pmin, vmin).expect("powers of two");
    let global_cfg = DhtConfig::new(HashSpace::full(), pmin, 1).expect("powers of two");

    let seed = derive_seed(&ctx.seeds, "claim-g512", 0);
    let l = Model::local(local_cfg).run(n, seed);
    let g = Model::Global(global_cfg).run(n, seed ^ 0x5555);
    let max_gap =
        l.iter().zip(&g).map(|(a, b)| (a.vnode_relstd - b.vnode_relstd).abs()).fold(0.0, f64::max);
    println!("\n── CLAIM-G512 — Vmin = {vmin} single-group equivalence over V = 1..{n} ──");
    println!("max |local − global| : {max_gap:.3e} pp");
    rep.note(format!(
        "Vmin={vmin}: max deviation from the global approach over the full run: {max_gap:.3e} pp (paper: curves match)"
    ));
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn g512_runs_at_quick_scale() {
        // n = 192: Vmin = n/2 = 96 is no power of two and used to panic.
        let rep = claim_g512(&Ctx::quick(std::env::temp_dir().join("domus-claims-test")));
        assert!(rep.summary[0].starts_with("Vmin=128: max deviation"), "{:?}", rep.summary);
    }

    #[test]
    fn zone1_gap_is_zero() {
        let ctx = Ctx::quick(std::env::temp_dir().join("domus-claims-test"));
        let rep = claim_zone1(&ctx);
        // The note embeds the measured gap; the property itself is asserted
        // here directly.
        let l_cfg = DhtConfig::new(HashSpace::full(), 8, 8).unwrap();
        let g_cfg = DhtConfig::new(HashSpace::full(), 8, 1).unwrap();
        let l = Model::local(l_cfg).run(16, 1);
        let g = Model::Global(g_cfg).run(16, 2);
        for (a, b) in l.iter().zip(&g) {
            assert!((a.vnode_relstd - b.vnode_relstd).abs() < 1e-9);
        }
        assert!(!rep.summary.is_empty());
    }

    #[test]
    fn every_plateau_window_is_non_empty() {
        // n = 128 = 4·32: the (32,32) plateau window 4·v < V ≤ n would be
        // empty, its mean 0, and its CLAIM-30 drop 100%.
        let ctx =
            Ctx { runs: 2, n: 128, ..Ctx::quick(std::env::temp_dir().join("domus-claims-test")) };
        let plateaus = fig4::compute(&ctx).plateaus(ctx.n);
        assert!(plateaus.iter().all(|&p| p > 0.0), "{plateaus:?}");
        let drops = doubling_drops(&plateaus);
        assert!(drops.iter().all(|d| d.is_finite() && *d < 100.0), "{drops:?}");
    }
}
