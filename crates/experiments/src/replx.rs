//! **CHURN-REPL** — durability and quorum availability under crash
//! failures, with cluster-aware replication.
//!
//! The CHURN experiment measures balancement under *graceful* churn: a
//! leave migrates its data out, so "availability" is owner stability,
//! never durability. This experiment turns the failures ungraceful: one
//! seeded scenario mixes sustained Poisson churn with memoryless
//! single-node crashes and a correlated crash storm, and the identical
//! stream replays through all three backends (the protocol is
//! [`crate::compare`]'s; this module declares the scenarios, the entry
//! count and the [`ChurnDriver::with_replication`] driver) with the
//! [`domus_kv::ReplicatedStore`] overlay at R = 1, 2 and 3. Per
//! backend it writes `results/churn_repl_<backend>.csv` (the R = 2 run)
//! with per-window durability (`keys_lost` / `keys_total`), quorum-read
//! availability, and anti-entropy repair volume; the summary table sweeps
//! the replication factor.
//!
//! Exact loss accounting is part of the contract: for every backend and
//! every R, the surviving keys plus the accounted crash losses must cover
//! the loaded population — a key may die, but never silently.
//!
//! With `--rejoin` the experiment runs the **durability drill** instead:
//! the crash-then-rejoin scenario ([`Scenario::durability`]) replays at
//! R = 2, every crashed snode comes back by replaying its segmented
//! write-ahead log, and the contract hardens — zero WAL-durable keys
//! may be missing once the last rejoin has replayed, and digest-driven
//! anti-entropy must ship strictly fewer bytes than a digest-less full
//! rebuild of the same ranges.

use crate::compare::{self, per_backend, scaled, Backend, Comparison, OnEngine, Run, Spec};
use crate::{Ctx, ExpReport};
use domus_churn::{ChurnDriver, ChurnOutcome, Scenario};
use domus_core::DhtEngine;
use domus_metrics::table::num;

/// The replication factors the sweep runs.
pub const FACTORS: [usize; 3] = [1, 2, 3];

/// A replay through the replicated overlay at the run's factor.
struct ReplReplay(Run);

impl OnEngine for ReplReplay {
    type Out = ChurnOutcome;
    fn on<E: DhtEngine + Send + Sync>(self, engine: E) -> ChurnOutcome {
        let Run { cfg, entries, r, stream } = self.0;
        ChurnDriver::with_replication(engine, cfg, entries, 16, r).run(&stream)
    }
}

/// Replays the crash scenario per backend × R.
pub fn compute(ctx: &Ctx, events: Option<usize>) -> Comparison {
    let spec = Spec {
        scenario: Scenario::crashy(scaled(ctx, 1.0, 0.5)),
        seed_label: "churn-repl",
        entries: scaled(ctx, 10_000, 2_000),
        factors: &FACTORS,
        events,
    };
    compare::replay(ctx, &spec, ReplReplay)
}

/// Replays the crash-then-rejoin durability drill per backend at R = 2.
pub fn compute_rejoin(ctx: &Ctx, events: Option<usize>) -> Comparison {
    let spec = Spec {
        scenario: Scenario::durability(scaled(ctx, 1.0, 0.5)),
        seed_label: "churn-repl-rejoin",
        entries: scaled(ctx, 10_000, 2_000),
        factors: &[2],
        events,
    };
    compare::replay(ctx, &spec, ReplReplay)
}

/// Fraction of a digest-less full rebuild that digest repair saved.
fn repair_savings(o: &ChurnOutcome) -> f64 {
    if o.totals.repair_bytes_full > 0 {
        1.0 - o.totals.repair_bytes as f64 / o.totals.repair_bytes_full as f64
    } else {
        0.0
    }
}

/// Runs the `--rejoin` durability drill: per-backend CSVs, table, and
/// the WAL-durability contract.
pub fn run_rejoin(ctx: &Ctx, events: Option<usize>) -> ExpReport {
    report_rejoin(ctx, &compute_rejoin(ctx, events))
}

/// Reports one durability drill: CSVs, table, contract.
fn report_rejoin(ctx: &Ctx, cmp: &Comparison) -> ExpReport {
    let mut rep = ExpReport::new("CHURN-REPL-REJOIN");
    cmp.write_csvs(ctx, "churn_repl_rejoin", 2);

    println!(
        "\n── CHURN-REPL --rejoin — {} events ({} crashes, {} rejoins), stream fingerprint {:016x} ──",
        cmp.events, cmp.crashes, cmp.rejoins, cmp.fingerprint
    );
    cmp.print_table(&[
        ("crashes", |_, c| c.outcome.totals.crashes.to_string()),
        ("rejoins", |_, c| c.outcome.totals.rejoins.to_string()),
        ("wal replay ms", |_, c| num(c.outcome.totals.wal_replay_ms, 3)),
        ("repair bytes", |_, c| c.outcome.totals.repair_bytes.to_string()),
        ("full-rebuild bytes", |_, c| c.outcome.totals.repair_bytes_full.to_string()),
        ("savings", |_, c| format!("{:.1}%", repair_savings(&c.outcome) * 100.0)),
        ("quorum gap (windows)", |_, c| c.outcome.totals.time_to_full_quorum_windows.to_string()),
        ("keys missing", |cmp, c| cmp.entries.saturating_sub(c.final_keys()).to_string()),
    ]);

    // The WAL-durability contract. Every crash the stream pairs with a
    // rejoin replays its log; when all of them are paired the store must
    // end complete — zero acknowledged keys missing, on every backend.
    let fully_paired = cmp.crashes == cmp.rejoins;
    for cell in &cmp.cells {
        let (name, o) = (cell.backend.name(), &cell.outcome);
        if cmp.rejoins > 0 {
            assert!(o.totals.rejoins >= 1, "{name}: the stream carries rejoins but none executed");
        }
        if fully_paired {
            assert_eq!(
                cell.final_keys(),
                cmp.entries,
                "{name}: WAL-durable keys missing after the last rejoin"
            );
        }
        assert_eq!(o.totals.lost_lookups, 0, "{name}: unaccounted probe loss");
        if o.totals.repair_bytes_full > 0 {
            assert!(
                o.totals.repair_bytes < o.totals.repair_bytes_full,
                "{name}: digest repair must undercut the full-rebuild baseline ({} vs {})",
                o.totals.repair_bytes,
                o.totals.repair_bytes_full
            );
        }
    }

    rep.note(format!(
        "durability drill: {} events ({} crash/rejoin pairs, fingerprint {:016x}) × 3 backends at R=2; zero WAL-durable keys missing",
        cmp.events, cmp.rejoins, cmp.fingerprint
    ));
    for cell in &cmp.cells {
        let o = &cell.outcome;
        rep.note(format!(
            "{}: {} rejoins replayed in {:.3} ms total; digest repair shipped {} of {} full-rebuild bytes ({:.1}% saved); quorum gap {} window(s)",
            cell.backend.name(),
            o.totals.rejoins,
            o.totals.wal_replay_ms,
            o.totals.repair_bytes,
            o.totals.repair_bytes_full,
            repair_savings(o) * 100.0,
            o.totals.time_to_full_quorum_windows
        ));
    }
    rep
}

/// Runs the CHURN-REPL experiment: sweep, CSVs, table, summary.
pub fn run(ctx: &Ctx, events: Option<usize>) -> ExpReport {
    let mut rep = ExpReport::new("CHURN-REPL");
    let cmp = compute(ctx, events);

    cmp.write_csvs(ctx, "churn_repl", 2);

    println!(
        "\n── CHURN-REPL — {} events, stream fingerprint {:016x} ──",
        cmp.events, cmp.fingerprint
    );
    cmp.print_table(&[
        ("R", |_, c| c.r.to_string()),
        ("crashes", |_, c| c.outcome.totals.crashes.to_string()),
        ("keys", |_, c| c.final_keys().to_string()),
        ("lost", |_, c| c.outcome.totals.keys_lost.to_string()),
        ("durability", |cmp, c| num(c.final_keys() as f64 / cmp.entries as f64, 4)),
        ("mean quorum avail", |_, c| num(c.outcome.totals.mean_quorum_availability, 4)),
        ("repaired copies", |_, c| c.outcome.totals.repaired.to_string()),
        ("copies moved", |_, c| c.outcome.totals.entries_migrated.to_string()),
    ]);

    // Contract: losses are exactly accounted on every backend at every R
    // (a key may die with its replicas, but never silently), and nothing
    // readable ever went missing outside that accounting.
    for cell in &cmp.cells {
        let (name, r, o) = (cell.backend.name(), cell.r, &cell.outcome);
        assert_eq!(
            cell.final_keys() + o.totals.keys_lost,
            cmp.entries,
            "{name} R={r}: loss accounting must be exact"
        );
        assert_eq!(o.totals.lost_lookups, 0, "{name} R={r}: unaccounted probe loss");
    }

    let [lost1, lost2, lost3] = FACTORS.map(|r| cmp.at(Backend::Local, r).totals.keys_lost);
    rep.note(format!(
        "identical crash stream: {} events (fingerprint {:016x}) × 3 backends × R∈{{1,2,3}}; loss accounting exact everywhere",
        cmp.events, cmp.fingerprint
    ));
    rep.note(format!(
        "keys lost (local approach): R=1 {} / R=2 {} / R=3 {} of {} keys",
        lost1, lost2, lost3, cmp.entries
    ));
    rep.note(format!(
        "mean quorum availability at R=2: {}",
        per_backend(" / ", |b| format!("{:.4}", cmp.at(b, 2).totals.mean_quorum_availability))
    ));
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The quick durability drill, replayed once for every test that
    /// reads it.
    fn drill() -> &'static Comparison {
        static CMP: OnceLock<Comparison> = OnceLock::new();
        CMP.get_or_init(|| {
            compute_rejoin(&Ctx::quick(std::env::temp_dir().join("domus-replx")), None)
        })
    }

    #[test]
    fn churn_repl_runs_and_accounts_losses() {
        let ctx = Ctx::quick(std::env::temp_dir().join("domus-replx-smoke"));
        let rep = run(&ctx, Some(150));
        assert_eq!(rep.id, "CHURN-REPL");
        assert!(rep.summary.iter().any(|l| l.contains("loss accounting exact")));
        for name in Backend::ALL.map(Backend::name) {
            let csv = std::fs::read_to_string(ctx.out_dir.join(format!("churn_repl_{name}.csv")))
                .expect("per-backend CSV written");
            assert!(csv.starts_with("window,t_ms,"));
            assert!(csv.lines().next().unwrap().contains("quorum_availability"));
        }
    }

    #[test]
    fn rejoin_drill_recovers_every_wal_durable_key() {
        let ctx = Ctx::quick(std::env::temp_dir().join("domus-replx-rejoin"));
        let rep = report_rejoin(&ctx, drill());
        assert_eq!(rep.id, "CHURN-REPL-REJOIN");
        assert!(rep.summary.iter().any(|l| l.contains("zero WAL-durable keys missing")));
        for name in Backend::ALL.map(Backend::name) {
            let csv =
                std::fs::read_to_string(ctx.out_dir.join(format!("churn_repl_rejoin_{name}.csv")))
                    .expect("per-backend rejoin CSV written");
            assert!(csv.starts_with("window,t_ms,"));
            let header = csv.lines().next().unwrap();
            assert!(header.contains("wal_replay_ms"));
            assert!(header.contains("repair_bytes"));
            assert!(header.contains("quorum_gap_windows"));
        }
    }

    #[test]
    fn sweep_is_deterministic_per_seed() {
        // Pinned from the pre-`compare.rs` replay loops (see `churnx`),
        // backend-major × R ∈ {1, 2, 3}; the drill below likewise. The
        // local sweep cells and the local drill migrate vnodes (3 times
        // each, 12 times): they were re-captured once a group migration
        // came to keep the vnode's handle.
        let ctx = Ctx::quick(std::env::temp_dir().join("domus-replx-det"));
        let digests = |c: &Comparison| -> Vec<u64> {
            c.cells.iter().map(|c| c.outcome.csv_digest()).collect()
        };
        let sweep = compute(&ctx, Some(120));
        assert_eq!(sweep.fingerprint, 0x3f674641967cd617);
        assert_eq!(
            digests(&sweep),
            [
                0xf1f02207283aee9b,
                0x3660033321a70513,
                0xf280d0644bf66469,
                0xa0f86bb6b189ff12,
                0x7559791a760c857f,
                0xbebcc1d468b018fb,
                0x1bab4e466bf42fda,
                0x02362f91c37ef015,
                0xfd4546d7291ff8d1
            ]
        );
        assert_eq!(drill().fingerprint, 0xd5b21537f3a92d53);
        assert_eq!(digests(drill()), [0x783da49fc1d5a6af, 0x9dcc3f3535cacd03, 0x015fc311e81224b0]);
    }
}
