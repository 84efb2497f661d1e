//! **FIG9** — Figure 9 of the paper: comparison with Consistent Hashing.
//!
//! Homogeneous physical nodes join one at a time (1 → 1024); the metric is
//! `σ̄(Qn)` over node quotas. For the local approach there is one vnode per
//! snode, so `σ̄(Qn) = σ̄(Qv)`. CH is run with 32 and 64 virtual servers per
//! node (the model's `Pv` fluctuates in `[32, 64]`, so both ends are
//! shown); the local approach with `Pmin = 32` sweeps
//! `Vmin ∈ {32, 64, 128, 256, 512}`.
//!
//! Expected shape: CH sits near `100/√k`% (≈17.7% for k = 32, ≈12.5% for
//! k = 64); the local approach beats both for every swept `Vmin`, more so
//! for larger `Vmin` — while small `Vmin` narrows the margin, which is the
//! paper's "choose Vmin carefully" conclusion.

use crate::output::Figure;
use crate::runner::{Model, Runs};
use crate::{Ctx, ExpReport};
use domus_core::DhtConfig;
use domus_hashspace::HashSpace;

/// Fixed fine-grain parameter for the local curves.
pub const PMIN: u64 = 32;

/// Runs the comparison.
pub fn run(ctx: &Ctx) -> ExpReport {
    let mut rep = ExpReport::new("FIG9");
    let vmins: Vec<u64> =
        [32u64, 64, 128, 256, 512].into_iter().filter(|&v| v * 2 <= ctx.n as u64).collect();
    let curve = |label: String, model, name: String| {
        ctx.growth(&Runs::of(ctx, label, model)).curve(&name, |s| s.vnode_relstd)
    };
    let mut curves: Vec<_> = [32u32, 64]
        .into_iter()
        .map(|k| curve(format!("fig9-ch-{k}"), Model::Ch(k), format!("CH, {k} partitions/node")))
        .collect();
    // One vnode per snode: each growth step IS a node join.
    curves.extend(vmins.iter().map(|&vmin| {
        let cfg = DhtConfig::new(HashSpace::full(), PMIN, vmin).expect("powers of two");
        curve(
            format!("fig9-local-{vmin}"),
            Model::local(cfg),
            format!("local approach, Vmin={vmin}"),
        )
    }));

    let figure = Figure {
        csv: "fig9_ch_comparison",
        x: "nodes",
        title: "Figure 9 — σ̄(Qn): local approach vs Consistent Hashing",
        y_label: "quality of the balancement (%)",
        x_label: "overall number of cluster nodes",
        y_max: Some(20.0),
    };
    figure.emit(ctx, &mut rep, &curves, None);

    // Who wins at the end state?
    let ch32 = curves[0].last_y().unwrap_or(f64::NAN);
    let ch64 = curves[1].last_y().unwrap_or(f64::NAN);
    rep.note(format!(
        "CH end-state σ̄(Qn): k=32 → {ch32:.2}% (theory 100/√32 = 17.68), k=64 → {ch64:.2}% (theory 12.50)"
    ));
    for (i, &vmin) in vmins.iter().enumerate() {
        let local = curves[2 + i].last_y().unwrap_or(f64::NAN);
        let verdict = if local < ch64 {
            "beats both CH curves"
        } else if local < ch32 {
            "beats CH-32 only"
        } else {
            "loses to CH"
        };
        rep.note(format!("local Vmin={vmin}: {local:.2}% — {verdict}"));
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::average;

    #[test]
    fn local_with_large_vmin_beats_ch_at_smoke_scale() {
        let seeds = domus_util::SeedSequence::new(5);
        let end = |label: &str, model| {
            let growth = average(&seeds, &Runs { label: label.into(), model, runs: 8, n: 128 });
            growth.mean.last().unwrap().vnode_relstd
        };
        let ch_end = end("t-ch", Model::Ch(32));
        let local_end =
            end("t-local", Model::local(DhtConfig::new(HashSpace::full(), 32, 64).unwrap()));
        assert!(local_end < ch_end, "local (Vmin=64) {local_end:.2}% must beat CH-32 {ch_end:.2}%");
    }
}
