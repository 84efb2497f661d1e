//! **CHURN** — dynamic balancement under sustained, interleaved churn.
//!
//! The paper grows (and our deletion extension shrinks) the DHT
//! monotonically; the churn literature instead benchmarks balancers under
//! interleaved join/leave storms. This experiment compiles one mixed
//! scenario — heterogeneous base fleet, heavy-tailed Poisson churn, a
//! diurnal wave, a flash crowd, a correlated failure — into a single
//! seeded event stream and replays it through all three backends with
//! the KV overlay threaded in. Per backend it writes
//! `results/churn_<backend>.csv` with one row per observation window:
//! balance factor, transfer volume, priced protocol cost, and data-plane
//! availability.
//!
//! This module is a declaration over [`crate::compare`], which owns the
//! replay protocol (one fingerprint-checked stream, three engines): the
//! scenario, the seed label, the entry count and the driver
//! ([`ChurnDriver::with_kv`] + readers), plus the table and the
//! contract asserts. Determinism is part of the contract: the same seed
//! produces byte-identical CSVs (pinned by digest in a unit test below),
//! so cross-backend differences are attributable to the engines alone.

use crate::compare::{self, per_backend, scaled, Backend, Comparison, OnEngine, Run, Spec};
use crate::{Ctx, ExpReport};
use domus_churn::{ChurnDriver, ChurnOutcome, Scenario};
use domus_core::DhtEngine;
use domus_metrics::table::num;

/// A replay through the KV overlay with `readers` serving-plane threads.
struct KvReplay {
    readers: usize,
    run: Run,
}

impl OnEngine for KvReplay {
    type Out = ChurnOutcome;
    fn on<E: DhtEngine + Send + Sync>(self, engine: E) -> ChurnOutcome {
        let Run { cfg, entries, stream, .. } = self.run;
        ChurnDriver::with_kv(engine, cfg, entries, 16).with_readers(self.readers).run(&stream)
    }
}

/// Replays the mixed scenario into all three backends, with `readers`
/// serving-plane threads hammering snapshot reads during each replay
/// (0 = the deterministic single-threaded path; read metrics are
/// wall-clock figures, so reader runs trade the byte-identical-CSV
/// contract for them).
pub fn compute(ctx: &Ctx, events: Option<usize>, readers: usize) -> Comparison {
    let spec = Spec {
        scenario: Scenario::mixed(scaled(ctx, 1.0, 0.5)),
        seed_label: "churn",
        entries: scaled(ctx, 20_000, 4_000),
        factors: &[1],
        events,
    };
    compare::replay(ctx, &spec, |run| KvReplay { readers, run })
}

/// Runs the CHURN experiment: replay, CSVs, table, summary. With
/// `readers > 0` the serving plane runs concurrently and the read-plane
/// columns (reads/sec, latency quantiles, stale-route rate) are live.
pub fn run(ctx: &Ctx, events: Option<usize>, readers: usize) -> ExpReport {
    let mut rep = ExpReport::new("CHURN");
    let cmp = compute(ctx, events, readers);

    cmp.write_csvs(ctx, "churn", 1);

    println!("\n── CHURN — {} events, stream fingerprint {:016x} ──", cmp.events, cmp.fingerprint);
    cmp.print_table(&[
        ("end σ̄(Qv) %", |_, c| num(c.outcome.final_balance.vnode_relstd_pct, 2)),
        ("end σ̄(Qn) %", |_, c| num(c.outcome.final_balance.snode_relstd_pct, 2)),
        ("peak/ideal", |_, c| num(c.outcome.final_balance.max_quota_over_ideal, 2)),
        ("transfers", |_, c| c.outcome.totals.transfers.to_string()),
        ("messages", |_, c| c.outcome.totals.messages.to_string()),
        ("wire MB", |_, c| num(c.outcome.totals.bytes as f64 / 1e6, 2)),
        ("service ms", |_, c| num(c.outcome.totals.service.as_millis_f64(), 1)),
        ("entries moved", |_, c| c.outcome.totals.entries_migrated.to_string()),
        ("mean avail", |_, c| num(c.outcome.totals.mean_availability, 4)),
        ("lost", |_, c| c.outcome.totals.lost_lookups.to_string()),
    ]);

    for cell in &cmp.cells {
        let (name, o) = (cell.backend.name(), &cell.outcome);
        assert_eq!(o.totals.lost_lookups, 0, "{name}: churn lost data");
        if readers > 0 {
            assert_eq!(o.totals.read_errors, 0, "{name}: serving plane failed a read");
            // A retry is counted only when the route actually moved, so
            // the rate is a route-movement figure and holds a fixed
            // ceiling (observed: under 0.005 on every backend).
            assert!(
                o.totals.stale_rate <= 0.25,
                "{name}: stale-retry rate {:.4} blew the 0.25 ceiling",
                o.totals.stale_rate
            );
        }
    }
    let [local, global, ch] = Backend::ALL.map(|b| cmp.at(b, 1));
    rep.note(format!(
        "identical stream: {} events (fingerprint {:016x}) replayed into all three backends; zero lost lookups",
        cmp.events, cmp.fingerprint
    ));
    rep.note(format!(
        "end balance under churn: local σ̄(Qv) {:.2}% / global {:.2}% vs CH {:.2}%",
        local.final_balance.vnode_relstd_pct,
        global.final_balance.vnode_relstd_pct,
        ch.final_balance.vnode_relstd_pct
    ));
    let totals = |b| &cmp.at(b, 1).totals;
    rep.note(format!(
        "availability (mean owner-stability per window): {}",
        per_backend(" / ", |b| format!("{:.4}", totals(b).mean_availability))
    ));
    rep.note(format!(
        "priced cost: {}",
        per_backend(", ", |b| {
            format!("{} msgs / {:.2} MB", totals(b).messages, totals(b).bytes as f64 / 1e6)
        })
    ));
    if readers > 0 {
        rep.note(format!(
            "serving plane ({readers} readers): {}; zero read errors",
            per_backend(" / ", |b| {
                let t = totals(b);
                format!(
                    "{:.0}/s p99 {}ns stale {:.4}",
                    t.reads_per_sec, t.read_p99_ns, t.stale_rate
                )
            })
        ));
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_is_byte_identical() {
        // The determinism contract: the same seed reproduces the stream
        // and every per-window CSV byte for byte. The digests were
        // captured from the per-experiment replay loops this crate had
        // before `compare.rs` replaced them.
        let cmp = compute(&Ctx::quick(std::env::temp_dir().join("domus-churnx-det")), Some(150), 0);
        assert_eq!(cmp.fingerprint, 0x5f9944bf0703195c);
        let digests: Vec<u64> = cmp.cells.iter().map(|c| c.outcome.csv_digest()).collect();
        assert_eq!(digests, [0xe826d18870a8fa7d, 0x5ec0fb4181340566, 0xb6557db91750c9ba]);
    }

    #[test]
    fn churn_runs_all_backends_on_one_stream() {
        let ctx = Ctx::quick(std::env::temp_dir().join("domus-churnx-smoke"));
        let rep = run(&ctx, Some(200), 0);
        assert_eq!(rep.id, "CHURN");
        assert!(rep.summary.iter().any(|l| l.contains("identical stream")));
        for name in Backend::ALL.map(Backend::name) {
            let csv = std::fs::read_to_string(ctx.out_dir.join(format!("churn_{name}.csv")))
                .expect("per-backend CSV written");
            assert!(csv.starts_with("window,t_ms,"));
            assert!(csv.lines().count() > 2, "{name}: windows sampled");
        }
    }

    #[test]
    fn backends_see_the_same_membership_trajectory() {
        let ctx = Ctx::quick(std::env::temp_dir().join("domus-churnx-parallel"));
        let cmp = compute(&ctx, Some(250), 0);
        let joins: Vec<u64> = cmp.cells.iter().map(|c| c.outcome.totals.joins).collect();
        let leaves: Vec<u64> = cmp.cells.iter().map(|c| c.outcome.totals.leaves).collect();
        assert!(joins.windows(2).all(|w| w[0] == w[1]), "joins diverged: {joins:?}");
        assert!(leaves.windows(2).all(|w| w[0] == w[1]), "leaves diverged: {leaves:?}");
    }
}
