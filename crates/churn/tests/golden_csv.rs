//! Golden CSVs: the per-window output of every plant on every backend,
//! pinned by digest.
//!
//! The twelve digests below were captured from the monolithic
//! `driver.rs` (one file forking every operation over plant × serve
//! mode) immediately before it was split into `driver/{plant, roster,
//! sample, readers, route}`. Replaying the same seeded stream must
//! reproduce them bit for bit — a column dropped, reordered or
//! reformatted, a roster rule changed, or a publish moved shows up here
//! before it shows up in `results/*.csv`.
//!
//! The first three local digests were re-captured once a group migration
//! came to keep the vnode's handle: those runs migrate (14, 14 and 13
//! times); no other run here does.

use domus_ch::ChEngine;
use domus_churn::{Capacity, ChurnDriver, DriverConfig, Lifetime, Process, Scenario};
use domus_core::{DhtConfig, DhtEngine, GlobalDht, LocalDht};
use domus_hashspace::HashSpace;
use domus_route::RouterConfig;
use domus_sim::SimTime;

const SEED: u64 = 2004;

/// A compact storm that reaches every graceful and ungraceful roster
/// rule: tagged leaves, a wrap-around `FailSlice`, rank crashes (which
/// the plain KV plant degrades to removals) and crash-then-rejoin pairs.
fn storm() -> Scenario {
    Scenario::new(SimTime::millis(120_000))
        .with(Process::InitialFleet { nodes: 8, capacity: Capacity::Uniform { lo: 1, hi: 2 } })
        .with(Process::Poisson {
            rate_per_s: 1.0,
            lifetime: Lifetime::Exponential { mean: SimTime::millis(20_000) },
            capacity: Capacity::Uniform { lo: 1, hi: 2 },
        })
        .with(Process::RandomCrashes { rate_per_s: 0.05 })
        .with(Process::CrashRejoin {
            at: SimTime::millis(40_000),
            cycles: 2,
            spread: SimTime::millis(10_000),
            downtime: SimTime::millis(15_000),
        })
        .with(Process::GroupFailure { at: SimTime::millis(80_000), fraction: 0.25 })
}

/// The four plants, each on the scenario that exercises it.
fn plants<E: DhtEngine + Send + Sync>(engine: impl Fn() -> E) -> [u64; 4] {
    let cfg = DriverConfig::default();
    let fine = DriverConfig { window: SimTime::millis(10_000), ..cfg };
    let storm = storm().build(SEED);
    let durability = Scenario::durability(1.0).build(SEED);
    let hotspot = Scenario::hotspot_failover().build(SEED);
    [
        ChurnDriver::new(engine(), fine).run(&storm).csv_digest(),
        ChurnDriver::with_kv(engine(), fine, 500, 16).run(&storm).csv_digest(),
        ChurnDriver::with_replication(engine(), cfg, 500, 16, 2).run(&durability).csv_digest(),
        ChurnDriver::with_replication(engine(), cfg, 500, 16, 2)
            .with_router(RouterConfig::default())
            .run(&hotspot)
            .csv_digest(),
    ]
}

fn cfg(vmin: u64) -> DhtConfig {
    DhtConfig::new(HashSpace::full(), 8, vmin).expect("powers of two")
}

#[test]
fn local_csvs_match_the_golden_digests() {
    assert_eq!(
        plants(|| LocalDht::with_seed(cfg(8), SEED)),
        [0x20221db3821b7bb6, 0x10cffdf131a90fca, 0xea1bcd8615f8c8aa, 0x945ac29a785c7ee1]
    );
}

#[test]
fn global_csvs_match_the_golden_digests() {
    assert_eq!(
        plants(|| GlobalDht::with_seed(cfg(1), SEED)),
        [0x561c43b01f40f21a, 0xab7a11f4ef3a5d64, 0x907db163bf910ffe, 0xd81312f98b92f0fd]
    );
}

#[test]
fn ch_csvs_match_the_golden_digests() {
    assert_eq!(
        plants(|| ChEngine::with_seed(cfg(1), 32, SEED ^ 0xCC)),
        [0x635ef507296d1ad1, 0xa864ba9e5cdc59f6, 0x7ef1df1201ce54d8, 0xe8bac89a2de6bbbe]
    );
}
