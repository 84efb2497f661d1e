//! Ablations over the policy choices the paper leaves open: ABL-VICTIM
//! (the donor's victim partition, §2.5 step 4a), ABL-CONTAINER and
//! ABL-SPLITSEL (the container half and the split membership, §3.7).

use crate::compare::params;
use crate::output::write_csv;
use crate::runner::{derive_seed, grow, Model, Runs};
use crate::{Ctx, ExpReport};
use domus_core::{
    ContainerChoice, DhtConfig, DhtEngine, LocalDht, SplitSelection, VictimPartitionPolicy,
};
use domus_hashspace::HashSpace;
use domus_metrics::table::{num, Table};

/// The ablations' budget: half the context's runs (at least 4) of `ctx.n`
/// creations.
fn halved(ctx: &Ctx, label: String, model: Model) -> Runs {
    Runs { runs: (ctx.runs / 2).max(4), ..Runs::of(ctx, label, model) }
}

/// **ABL-VICTIM** — the donor-partition choice (First/Last/Random). Within
/// one balancement event the choice cannot change quotas (all partitions of
/// a group share one size), so while a single group exists the σ̄(Qv)
/// traces are bit-identical across policies. Once groups multiply, *which*
/// partition moved feeds back through the random-point victim lookup, so
/// full trajectories diverge stochastically — but the distribution quality
/// is statistically indistinguishable.
pub fn abl_victim(ctx: &Ctx) -> ExpReport {
    let mut rep = ExpReport::new("ABL-VICTIM");
    let (pmin, vmin) = params(ctx);
    let base = DhtConfig::new(HashSpace::full(), pmin, vmin).expect("powers of two");

    let policies = [
        ("Random (paper-spirit)", VictimPartitionPolicy::Random),
        ("Last", VictimPartitionPolicy::Last),
        ("First", VictimPartitionPolicy::First),
    ];

    // Exact part: identical traces while one group exists (V ≤ Vmax).
    let seed = derive_seed(&ctx.seeds, "abl-victim", 0);
    let horizon = (2 * vmin) as usize;
    let exact: Vec<Vec<f64>> = policies
        .iter()
        .map(|&(_, p)| {
            let run = Model::local(base.with_victim_partition(p)).run(horizon, seed);
            run.iter().map(|s| s.vnode_relstd).collect()
        })
        .collect();
    let single_group_identical = exact.iter().all(|t| *t == exact[0]);

    // Statistical part: run-averaged end-state σ̄ per policy, and the
    // transfers of a shorter growth under common seeds.
    println!("\n── ABL-VICTIM — donor-partition policy ──");
    let mut t = Table::new(&["policy", "mean σ̄(Qv) at end %", "mean transfers/run"]);
    let mut ends = Vec::new();
    for &(name, p) in &policies {
        let model = Model::local(base.with_victim_partition(p));
        let end = ctx.growth(&halved(ctx, format!("abl-victim-{name}"), model)).mean;
        let end = end.last().map_or(f64::NAN, |s| s.vnode_relstd);
        let short = Runs { n: ctx.n.min(256), ..halved(ctx, "abl-victim-tr".into(), model) };
        let transfers = ctx.growth(&short).mean.last().map_or(f64::NAN, |s| s.transfers);
        t.row(&[name.to_string(), num(end, 2), num(transfers, 0)]);
        ends.push(end);
    }
    println!("{}", t.render());
    rep.note(format!(
        "single-group traces bit-identical across policies: {single_group_identical} (quotas are count-determined per event)"
    ));
    let spread = ends.iter().cloned().fold(f64::MIN, f64::max)
        - ends.iter().cloned().fold(f64::MAX, f64::min);
    rep.note(format!(
        "run-averaged end σ̄ spread across policies: {spread:.2} pp (statistical noise)"
    ));
    rep
}

/// **ABL-CONTAINER** — §3.7 picks the container of the new vnode uniformly
/// from the two halves of a split; the alternative (the half that kept the
/// victim vnode) biases growth toward regions that attract lookups.
pub fn abl_container(ctx: &Ctx) -> ExpReport {
    let mut rep = ExpReport::new("ABL-CONTAINER");
    let (pmin, vmin) = params(ctx);
    let base = DhtConfig::new(HashSpace::full(), pmin, vmin).expect("powers of two");

    let curves: Vec<_> = [
        ("RandomHalf (paper)", ContainerChoice::RandomHalf),
        ("OwningHalf", ContainerChoice::OwningHalf),
    ]
    .into_iter()
    .map(|(name, choice)| {
        let model = Model::local(base.with_container_choice(choice));
        ctx.growth(&halved(ctx, format!("abl-container-{name}"), model))
            .curve(name, |s| s.vnode_relstd)
    })
    .collect();
    let ends: Vec<f64> = curves.iter().map(|c| c.last_y().unwrap_or(f64::NAN)).collect();
    write_csv(ctx, &mut rep, "abl_container", "vnodes", &curves);
    println!("\n── ABL-CONTAINER — container-group choice after a split ──");
    let mut t = Table::new(&["policy", "σ̄(Qv) at end %"]);
    t.row(&["RandomHalf (paper)".into(), num(ends[0], 2)]);
    t.row(&["OwningHalf".into(), num(ends[1], 2)]);
    println!("{}", t.render());
    rep.note(format!("end-state σ̄(Qv): RandomHalf {:.2}% vs OwningHalf {:.2}%", ends[0], ends[1]));
    rep
}

/// **ABL-SPLITSEL** — random halves (paper) vs admission-order halves at
/// group splits: distribution quality and the per-snode LPDR burden.
pub fn abl_splitsel(ctx: &Ctx) -> ExpReport {
    let mut rep = ExpReport::new("ABL-SPLITSEL");
    let (pmin, vmin) = params(ctx);
    let base = DhtConfig::new(HashSpace::full(), pmin, vmin).expect("powers of two");
    // Model a cluster of `s` snodes hosting the vnodes round-robin, then
    // count how many distinct groups each snode participates in (≈ LPDR
    // replicas it must hold).
    let snodes = 16u32;

    println!("\n── ABL-SPLITSEL — group-split membership selection ──");
    let mut t = Table::new(&["policy", "σ̄(Qv) at end %", "mean LPDRs/snode", "max LPDRs/snode"]);
    for (name, sel) in [
        ("RandomHalves (paper)", SplitSelection::RandomHalves),
        ("AdmissionOrder", SplitSelection::AdmissionOrder),
    ] {
        let cfg = base.with_split_selection(sel);
        let model = Model::Local { cfg, snodes };
        let end = ctx.growth(&halved(ctx, format!("abl-splitsel-{name}"), model)).mean;
        let end = end.last().map_or(f64::NAN, |s| s.vnode_relstd);

        // LPDR burden measured on one representative run.
        let mut dht = LocalDht::with_seed(cfg, derive_seed(&ctx.seeds, "abl-splitsel-burden", 1));
        grow(&mut dht, ctx.n, snodes);
        let mut per_snode: std::collections::BTreeMap<u32, std::collections::BTreeSet<String>> =
            Default::default();
        for v in dht.vnodes() {
            let s = dht.snode_of(v).expect("alive").0;
            let g = dht.group_of(v).expect("alive").to_string();
            per_snode.entry(s).or_default().insert(g);
        }
        let counts: Vec<usize> = per_snode.values().map(|s| s.len()).collect();
        let mean = counts.iter().sum::<usize>() as f64 / counts.len().max(1) as f64;
        let max = counts.iter().max().copied().unwrap_or(0);
        t.row(&[name.to_string(), num(end, 2), num(mean, 1), max.to_string()]);
        rep.note(format!("{name}: end σ̄ {end:.2}%, mean LPDRs/snode {mean:.1}, max {max}"));
    }
    println!("{}", t.render());
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use domus_core::{NullSink, SnodeId};

    #[test]
    fn victim_policies_agree_exactly_while_one_group_exists() {
        // Up to V = Vmax there is a single group: the victim lookup cannot
        // influence anything, so quota traces are identical per event.
        let cfg = DhtConfig::new(HashSpace::full(), 8, 8).unwrap();
        let n = 16; // Vmax
        let run = |p| Model::local(cfg.with_victim_partition(p)).run(n, 7);
        let a = run(VictimPartitionPolicy::Last);
        assert_eq!(a, run(VictimPartitionPolicy::First), "quota traces are count-determined");
        assert_eq!(a, run(VictimPartitionPolicy::Random));
    }

    #[test]
    fn container_policies_both_preserve_invariants() {
        for choice in [ContainerChoice::RandomHalf, ContainerChoice::OwningHalf] {
            let cfg =
                DhtConfig::new(HashSpace::full(), 4, 4).unwrap().with_container_choice(choice);
            let mut dht = LocalDht::with_seed(cfg, 3);
            for i in 0..60u32 {
                dht.create_vnode_with(SnodeId(i), &mut NullSink).unwrap();
            }
            dht.check_invariants().unwrap();
        }
    }

    #[test]
    fn splitsel_policies_both_preserve_invariants() {
        for sel in [SplitSelection::RandomHalves, SplitSelection::AdmissionOrder] {
            let cfg = DhtConfig::new(HashSpace::full(), 4, 4).unwrap().with_split_selection(sel);
            let mut dht = LocalDht::with_seed(cfg, 3);
            for i in 0..60u32 {
                dht.create_vnode_with(SnodeId(i % 8), &mut NullSink).unwrap();
            }
            dht.check_invariants().unwrap();
        }
    }
}
