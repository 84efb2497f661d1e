//! **CHURN-ROUTE** — the routing & failover control plane under a hot
//! spot and a silent stall.
//!
//! The CHURN-REPL experiment proves durability when failures are
//! *announced*: a crash event reaches the driver, which repairs from the
//! surviving replicas. This experiment removes the announcement. One
//! seeded [`Scenario::hotspot_failover`] stream — a fixed-capacity fleet,
//! one node degrading to a quarter of its declared capacity, one node
//! going **silent** with no crash notification ever delivered — replays
//! through all three backends (the protocol is [`crate::compare`]'s; this
//! module declares the scenario and the driver) with the replicated
//! overlay at R = 2 and the `domus-route` control plane riding the run.
//!
//! Per backend it writes `results/churn_route_<backend>.csv` with the
//! per-window route columns: route-table version churn, the deterministic
//! cache probe's hit/stale rates, live and expired leases, failovers and
//! hot-spot migrations. The contract asserted on every backend: the
//! degraded node is detected and rebalanced within bounded windows, the
//! stalled node fails over via lease expiry alone (`crashes == 0` — no
//! crash path was ever taken) with **zero** key loss at R = 2, the
//! lease-safety invariant never breaks, and every cache repair takes at
//! most one retry round.

use crate::compare::{self, scaled, Comparison, OnEngine, Run, Spec};
use crate::{Ctx, ExpReport};
use domus_churn::{ChurnDriver, ChurnOutcome, Scenario};
use domus_core::DhtEngine;
use domus_metrics::table::num;
use domus_route::RouterConfig;
use domus_sim::SimTime;

/// A replay through the replicated overlay with the router riding it.
struct RoutedReplay(Run);

impl OnEngine for RoutedReplay {
    type Out = ChurnOutcome;
    fn on<E: DhtEngine + Send + Sync>(self, engine: E) -> ChurnOutcome {
        let Run { cfg, entries, r, stream } = self.0;
        // The lease TTL spans 2.5 control-plane ticks, the same ratio the
        // default 75 s TTL holds against the default 30 s window: a
        // stalled node's leases lapse two windows after its last renewal,
        // well before the horizon.
        let router_cfg = RouterConfig {
            lease_ttl: SimTime(cfg.window.nanos() * 5 / 2),
            ..RouterConfig::default()
        };
        ChurnDriver::with_replication(engine, cfg, entries, 16, r)
            .with_router(router_cfg)
            .run(&stream)
    }
}

/// Replays the hot-spot/stall scenario per backend with the router
/// attached (R = 2).
pub fn compute(ctx: &Ctx, events: Option<usize>) -> Comparison {
    let spec = Spec {
        scenario: Scenario::hotspot_failover(),
        seed_label: "churn-route",
        entries: scaled(ctx, 10_000, 2_000),
        factors: &[2],
        events,
    };
    compare::replay(ctx, &spec, RoutedReplay)
}

/// Runs the CHURN-ROUTE experiment: replays, CSVs, table, contract.
pub fn run(ctx: &Ctx, events: Option<usize>) -> ExpReport {
    report(ctx, &compute(ctx, events))
}

/// Reports one routed comparison: CSVs, table, contract.
fn report(ctx: &Ctx, cmp: &Comparison) -> ExpReport {
    let mut rep = ExpReport::new("CHURN-ROUTE");
    cmp.write_csvs(ctx, "churn_route", 2);

    println!(
        "\n── CHURN-ROUTE — {} events, stream fingerprint {:016x} ──",
        cmp.events, cmp.fingerprint
    );
    cmp.print_table(&[
        ("failovers", |_, c| c.outcome.totals.failovers.to_string()),
        ("leases expired", |_, c| c.outcome.totals.leases_expired.to_string()),
        ("hot windows", |_, c| c.outcome.totals.hot_windows.to_string()),
        ("moves", |_, c| c.outcome.totals.route_moves.to_string()),
        ("converged in", |_, c| match c.outcome.totals.route_converged {
            true => format!("{} windows", c.outcome.totals.route_convergence),
            false => "UNCONVERGED".into(),
        }),
        ("cache hit rate", |_, c| num(c.outcome.totals.cache_hit_rate, 4)),
        ("keys lost", |_, c| c.outcome.totals.keys_lost.to_string()),
    ]);

    // The contract, per backend. Unconditional: lease safety never
    // breaks, every cache repair is one round, no key is ever lost at
    // R = 2, and no read ever misses. Conditional on the stream still
    // carrying the seeded faults: the stall fails over through lease
    // expiry alone and the hot spot is shed within bounded windows.
    for cell in &cmp.cells {
        let o = &cell.outcome.totals;
        let name = cell.backend.name();
        assert_eq!(o.lease_violations, 0, "{name}: lease safety must never break");
        assert_eq!(o.keys_lost, 0, "{name}: R=2 failover must lose nothing");
        assert_eq!(o.lost_lookups, 0, "{name}: no probe may go unanswered");
        assert!(
            cell.outcome.samples.iter().all(|s| s.cache_stale <= 1),
            "{name}: a stale cache must repair within one retry round per probe window"
        );
        if cmp.stalls > 0 {
            assert!(o.leases_expired >= 1, "{name}: the silent stall must lapse its leases");
            assert!(o.failovers >= 1, "{name}: lease expiry must drive a failover");
            assert_eq!(o.crashes, 0, "{name}: no crash notification was ever delivered");
        }
        if cmp.degrades > 0 {
            assert!(o.hot_windows >= 1, "{name}: the degraded node must trip the detector");
            assert!(o.route_moves >= 1, "{name}: the hot spot must shed vnodes");
            assert!(o.route_converged, "{name}: rebalancing must converge before the horizon");
            assert!(
                o.route_convergence <= 6,
                "{name}: convergence must be bounded ({} windows)",
                o.route_convergence
            );
        }
    }

    rep.note(format!(
        "identical fault stream: {} events (fingerprint {:016x}) × 3 backends, R=2 + router; lease safety and ≤1-round cache repair hold everywhere",
        cmp.events, cmp.fingerprint
    ));
    for cell in &cmp.cells {
        let o = &cell.outcome.totals;
        rep.note(format!(
            "{}: {} failover(s) via lease expiry ({} expired), hot spot shed in {} move(s) over {} hot window(s), converged in {} window(s), cache hit rate {:.4}, {} keys lost",
            cell.backend.label(),
            o.failovers,
            o.leases_expired,
            o.route_moves,
            o.hot_windows,
            o.route_convergence,
            o.cache_hit_rate,
            o.keys_lost
        ));
    }
    if cmp.stalls > 0 {
        rep.note("silent stall failed over on every backend with zero key loss at R=2");
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::Backend;
    use std::sync::OnceLock;

    /// The quick routed comparison, replayed once for every test that
    /// reads it.
    fn quick() -> &'static Comparison {
        static CMP: OnceLock<Comparison> = OnceLock::new();
        CMP.get_or_init(|| compute(&Ctx::quick(std::env::temp_dir().join("domus-routex")), None))
    }

    #[test]
    fn churn_route_runs_the_full_contract_on_all_backends() {
        let ctx = Ctx::quick(std::env::temp_dir().join("domus-routex-smoke"));
        let rep = report(&ctx, quick());
        assert_eq!(rep.id, "CHURN-ROUTE");
        assert!(rep.summary.iter().any(|l| l.contains("zero key loss")));
        for name in Backend::ALL.map(Backend::name) {
            let csv = std::fs::read_to_string(ctx.out_dir.join(format!("churn_route_{name}.csv")))
                .expect("per-backend CSV written");
            let header = csv.lines().next().unwrap();
            assert!(header.contains("route_version"));
            assert!(header.contains("cache_hit_rate"));
            assert!(header.contains("leases_expired"));
        }
    }

    #[test]
    fn truncated_streams_skip_the_fault_contract() {
        // Cutting the stream before the stall/degrade events must not
        // trip the conditional asserts — the counts go to zero.
        let ctx = Ctx::quick(std::env::temp_dir().join("domus-routex-trunc"));
        let cmp = compute(&ctx, Some(5));
        assert_eq!((cmp.stalls, cmp.degrades), (0, 0));
        let rep = run(&ctx, Some(5));
        assert!(!rep.summary.iter().any(|l| l.contains("zero key loss")));
    }

    #[test]
    fn routed_comparison_is_deterministic_per_seed() {
        // Pinned from the pre-`compare.rs` replay loop (see `churnx`).
        let cmp = quick();
        assert_eq!(cmp.fingerprint, 0x8c5d1b2eb995cc88);
        let digests: Vec<u64> = cmp.cells.iter().map(|c| c.outcome.csv_digest()).collect();
        assert_eq!(digests, [0x9f75837e3e4082e2, 0x73de63a0d244557e, 0x61c61b6644cf0901]);
    }
}
