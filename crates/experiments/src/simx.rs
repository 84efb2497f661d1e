//! Substrate experiments quantifying §1/§3's motivation (registry ids
//! SIM-MAKESPAN, SIM-MSGS, SIM-MEM): the local approach buys parallelism,
//! bounded synchronisation and smaller records at a small balancement
//! price — the other half of the paper's trade-off, which its evaluation
//! discusses only qualitatively.

use crate::runner::derive_seed;
use crate::{Ctx, ExpReport};
use domus_core::{DhtConfig, DhtEngine, GlobalDht, LocalDht, NullSink, SnodeId};
use domus_hashspace::HashSpace;
use domus_metrics::table::{num, Table};
use domus_sim::{global_footprint, local_footprint, SimDriver};

const SNODES: u32 = 64;

fn scale(ctx: &Ctx) -> usize {
    ctx.n.min(512)
}

/// **SIM-MAKESPAN** — makespan and achieved concurrency of `n`
/// back-to-back creations under the one-hop network model.
pub fn sim_makespan(ctx: &Ctx) -> ExpReport {
    let mut rep = ExpReport::new("SIM-MAKESPAN");
    let n = scale(ctx);
    let space = HashSpace::full();
    let seed = derive_seed(&ctx.seeds, "sim-makespan", 0);

    println!("\n── SIM-MAKESPAN — {n} creations over {SNODES} snodes ──");
    let mut t = Table::new(&[
        "engine",
        "makespan",
        "Σ service",
        "parallelism",
        "msgs",
        "MB",
        "mean participants",
    ]);

    let mut add_row = |name: &str, trace: &domus_sim::SimTrace| {
        t.row(&[
            name.to_string(),
            trace.makespan().to_string(),
            trace.total_service().to_string(),
            num(trace.parallelism(), 2),
            trace.messages().to_string(),
            num(trace.bytes() as f64 / 1e6, 2),
            num(trace.mean_participants(), 1),
        ]);
    };

    let gcfg = DhtConfig::new(space, 32, 1).expect("powers of two");
    let mut gsim = SimDriver::new(GlobalDht::with_seed(gcfg, seed));
    gsim.grow(n, SNODES).expect("growth");
    add_row("global", gsim.trace());
    let g_makespan = gsim.trace().makespan();
    rep.note(format!(
        "global: makespan {}, parallelism {:.2} (fully serial by construction)",
        g_makespan,
        gsim.trace().parallelism()
    ));

    for vmin in [8u64, 32, 128] {
        let cfg = DhtConfig::new(space, 32, vmin).expect("powers of two");
        let mut sim = SimDriver::new(LocalDht::with_seed(cfg, seed));
        sim.grow(n, SNODES).expect("growth");
        add_row(&format!("local Vmin={vmin}"), sim.trace());
        rep.note(format!(
            "local Vmin={vmin}: makespan {} ({:.1}× faster than global), parallelism {:.2}",
            sim.trace().makespan(),
            g_makespan.nanos() as f64 / sim.trace().makespan().nanos().max(1) as f64,
            sim.trace().parallelism()
        ));
    }

    // The CH reference through the same generic driver: one ring-wide
    // record, so (like the global approach) every join serialises on it.
    let mut csim = SimDriver::new(crate::compare::ch_engine(32, seed));
    csim.grow(n, SNODES).expect("growth");
    add_row("CH k=32", csim.trace());
    rep.note(format!(
        "CH k=32: makespan {}, parallelism {:.2} (serial, like the global approach)",
        csim.trace().makespan(),
        csim.trace().parallelism()
    ));
    println!("{}", t.render());
    rep
}

/// **SIM-MSGS** — per-creation synchronisation cost as the DHT grows: the
/// GPDR round involves every snode and a `V`-entry record; the LPDR round
/// is bounded by the group.
pub fn sim_msgs(ctx: &Ctx) -> ExpReport {
    let mut rep = ExpReport::new("SIM-MSGS");
    let n = scale(ctx);
    let space = HashSpace::full();
    let seed = derive_seed(&ctx.seeds, "sim-msgs", 0);

    let gcfg = DhtConfig::new(space, 32, 1).expect("powers of two");
    let mut gsim = SimDriver::new(GlobalDht::with_seed(gcfg, seed));
    gsim.grow(n, SNODES).expect("growth");
    let lcfg = DhtConfig::new(space, 32, 32).expect("powers of two");
    let mut lsim = SimDriver::new(LocalDht::with_seed(lcfg, seed));
    lsim.grow(n, SNODES).expect("growth");

    println!("\n── SIM-MSGS — per-creation cost while growing to {n} vnodes ──");
    let mut t = Table::new(&["V", "global msgs", "global KB", "local msgs", "local KB"]);
    for &v in &[n / 8, n / 4, n / 2, n - 1] {
        let ge = &gsim.trace().events[v];
        let le = &lsim.trace().events[v];
        t.row(&[
            (v + 1).to_string(),
            ge.cost.messages.to_string(),
            num(ge.cost.bytes as f64 / 1e3, 2),
            le.cost.messages.to_string(),
            num(le.cost.bytes as f64 / 1e3, 2),
        ]);
    }
    println!("{}", t.render());

    let glast = &gsim.trace().events[n - 1].cost;
    let llast = &lsim.trace().events[n - 1].cost;
    rep.note(format!(
        "creation #{n}: global {} msgs / {:.1} KB vs local {} msgs / {:.1} KB",
        glast.messages,
        glast.bytes as f64 / 1e3,
        llast.messages,
        llast.bytes as f64 / 1e3
    ));
    rep.note(format!(
        "totals over the run: global {} msgs / {:.2} MB, local {} msgs / {:.2} MB",
        gsim.trace().messages(),
        gsim.trace().bytes() as f64 / 1e6,
        lsim.trace().messages(),
        lsim.trace().bytes() as f64 / 1e6
    ));
    rep
}

/// **SIM-MEM** — record replication footprint at the end state.
pub fn sim_mem(ctx: &Ctx) -> ExpReport {
    let mut rep = ExpReport::new("SIM-MEM");
    let n = ctx.n.min(1024);
    let space = HashSpace::full();
    let seed = derive_seed(&ctx.seeds, "sim-mem", 0);

    println!("\n── SIM-MEM — record entries replicated at {n} vnodes / {SNODES} snodes ──");
    let mut t =
        Table::new(&["engine", "total entries", "mean/snode", "max/snode", "records/snode (max)"]);

    let gcfg = DhtConfig::new(space, 32, 1).expect("powers of two");
    let mut g = GlobalDht::with_seed(gcfg, seed);
    for i in 0..n {
        g.create_vnode_with(SnodeId(i as u32 % SNODES), &mut NullSink).expect("growth");
    }
    let gfp = global_footprint(&g);
    t.row(&[
        "global (GPDR)".into(),
        gfp.total_entries().to_string(),
        num(gfp.mean_entries(), 0),
        gfp.max_entries().to_string(),
        "1".into(),
    ]);

    for vmin in [8u64, 32, 128] {
        let cfg = DhtConfig::new(space, 32, vmin).expect("powers of two");
        let mut dht = LocalDht::with_seed(cfg, seed);
        for i in 0..n {
            dht.create_vnode_with(SnodeId(i as u32 % SNODES), &mut NullSink).expect("growth");
        }
        let fp = local_footprint(&dht);
        t.row(&[
            format!("local Vmin={vmin} (LPDRs)"),
            fp.total_entries().to_string(),
            num(fp.mean_entries(), 0),
            fp.max_entries().to_string(),
            fp.per_snode_records.values().max().copied().unwrap_or(0).to_string(),
        ]);
        rep.note(format!(
            "local Vmin={vmin}: {} entries total vs global {} ({}× smaller)",
            fp.total_entries(),
            gfp.total_entries(),
            gfp.total_entries() / fp.total_entries().max(1)
        ));
    }
    println!("{}", t.render());
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn makespan_experiment_shows_local_speedup() {
        let ctx = Ctx::quick(std::env::temp_dir().join("domus-simx-test"));
        let rep = sim_makespan(&ctx);
        assert!(rep.summary.iter().any(|l| l.contains("faster than global")));
    }

    #[test]
    fn memory_experiment_shows_reduction() {
        let ctx = Ctx::quick(std::env::temp_dir().join("domus-simx-test"));
        let rep = sim_mem(&ctx);
        assert!(rep.summary.iter().any(|l| l.contains("smaller")));
    }
}
