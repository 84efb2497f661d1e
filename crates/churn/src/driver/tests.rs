//! Whole-replay tests of the driver: every plant, the serving plane and
//! the control plane, each through a seeded scenario.

use super::*;
use crate::process::{Capacity, Lifetime, Process};
use crate::scenario::Scenario;
use domus_core::{DhtConfig, GlobalDht, LocalDht};
use domus_hashspace::HashSpace;
use domus_route::RouterConfig;

fn local() -> LocalDht {
    LocalDht::with_seed(DhtConfig::new(HashSpace::full(), 8, 4).unwrap(), 0xC0)
}

fn small_scenario() -> Scenario {
    Scenario::new(SimTime::millis(120_000))
        .with(Process::InitialFleet { nodes: 8, capacity: Capacity::Fixed(1) })
        .with(Process::Poisson {
            rate_per_s: 1.0,
            lifetime: Lifetime::Exponential { mean: SimTime::millis(20_000) },
            capacity: Capacity::Uniform { lo: 1, hi: 2 },
        })
        .with(Process::GroupFailure { at: SimTime::millis(80_000), fraction: 0.25 })
}

#[test]
fn bare_replay_tracks_engine_population() {
    let stream = small_scenario().build(1);
    let driver = ChurnDriver::new(local(), DriverConfig::default());
    let outcome = driver.run(&stream);
    assert_eq!(outcome.totals.events, stream.len() as u64);
    assert!(outcome.totals.joins > 0 && outcome.totals.leaves > 0);
    // Roster bookkeeping matches the engine's own census.
    assert_eq!(outcome.final_balance.vnodes as u64, outcome.totals.joins - outcome.totals.leaves);
    // Windows tile the horizon exactly: 120 s / 30 s = 4 windows.
    assert_eq!(outcome.samples.len(), 4);
    assert!(outcome.totals.messages > 0 && outcome.totals.service > SimTime::ZERO);
}

#[test]
fn replay_leaves_invariants_intact() {
    let stream = small_scenario().build(3);
    let mut driver = ChurnDriver::new(local(), DriverConfig::default());
    for e in stream.events() {
        driver.step(e);
    }
    driver.with_engine(|e| e.check_invariants().expect("invariants after churn"));
    let outcome = driver.finish(stream.horizon());
    assert!(outcome.final_balance.vnodes >= 1);
}

#[test]
fn kv_overlay_measures_data_plane_and_loses_nothing() {
    let stream = small_scenario().build(2);
    let driver = ChurnDriver::with_kv(local(), DriverConfig::default(), 2_000, 16);
    let outcome = driver.run(&stream);
    assert_eq!(outcome.totals.lost_lookups, 0, "churn must never lose a key");
    assert!(outcome.totals.entries_migrated > 0, "churn must move data");
    assert!(outcome.totals.mean_availability > 0.0);
    assert!(
        outcome.samples.iter().any(|s| s.availability < 1.0),
        "a failure event must disturb some owners"
    );
}

#[test]
fn outcome_csv_is_deterministic() {
    let stream = small_scenario().build(5);
    let a = ChurnDriver::with_kv(local(), DriverConfig::default(), 1_000, 8).run(&stream);
    let b = ChurnDriver::with_kv(local(), DriverConfig::default(), 1_000, 8).run(&stream);
    assert_eq!(a, b);
    assert_eq!(a.csv_string(), b.csv_string());
    assert!(a.csv_string().starts_with("window,t_ms,"));
}

#[test]
fn identical_stream_replays_into_every_engine() {
    let scenario = small_scenario();
    let s1 = scenario.build(9);
    let s2 = scenario.build(9);
    assert_eq!(s1.fingerprint(), s2.fingerprint());
    let l = ChurnDriver::new(local(), DriverConfig::default()).run(&s1);
    let g = ChurnDriver::new(
        GlobalDht::with_seed(DhtConfig::new(HashSpace::full(), 8, 1).unwrap(), 0xC1),
        DriverConfig::default(),
    )
    .run(&s2);
    // Same membership trajectory on both engines...
    assert_eq!(l.totals.joins, g.totals.joins);
    assert_eq!(l.totals.leaves, g.totals.leaves);
    assert_eq!(l.final_balance.vnodes, g.final_balance.vnodes);
    // ...while the engines differ where they should (group structure).
    assert_eq!(g.final_balance.groups, 1);
    assert!(l.final_balance.groups > 1);
}

#[test]
fn boundary_exact_events_never_duplicate_window_timestamps() {
    // A truncated stream's horizon equals its last event time; when
    // that lands exactly on a window boundary (here 30 s, the default
    // window), the run must still emit unique, gap-free timestamps.
    let join = |at_ms: u64, tag: u32| crate::event::ChurnEvent {
        at: SimTime::millis(at_ms),
        kind: EventKind::Join { node: NodeTag(tag), vnodes: 1 },
    };
    let stream = EventStream::new(
        vec![join(10_000, 0), join(20_000, 1), join(30_000, 2)],
        SimTime::millis(30_000),
    );
    let outcome = ChurnDriver::new(local(), DriverConfig::default()).run(&stream);
    assert_eq!(outcome.samples.len(), 1, "one window, no zero-width duplicate");
    assert_eq!(outcome.samples[0].end, SimTime::millis(30_000));
    assert_eq!(outcome.samples[0].events, 3, "the boundary event belongs to the window");
    // And with a gap past the boundary, windows stay unique too.
    let stream = EventStream::new(
        vec![join(10_000, 0), join(30_000, 1), join(45_000, 2)],
        SimTime::millis(60_000),
    );
    let outcome = ChurnDriver::new(local(), DriverConfig::default()).run(&stream);
    let ends: Vec<SimTime> = outcome.samples.iter().map(|s| s.end).collect();
    assert_eq!(ends, vec![SimTime::millis(30_000), SimTime::millis(60_000)]);
    assert_eq!(outcome.samples[0].events, 2);
    assert_eq!(outcome.samples[1].events, 1);
}

fn crashy_scenario() -> Scenario {
    Scenario::new(SimTime::millis(120_000))
        .with(Process::InitialFleet { nodes: 10, capacity: Capacity::Fixed(1) })
        .with(Process::Poisson {
            rate_per_s: 0.5,
            lifetime: Lifetime::Exponential { mean: SimTime::millis(40_000) },
            capacity: Capacity::Fixed(1),
        })
        .with(Process::RandomCrashes { rate_per_s: 0.08 })
}

#[test]
fn replicated_overlay_survives_crashes_at_r2() {
    // One crash per 30 s window: the end-of-window repair always runs
    // between failures, so R=2 provably loses nothing (a single crash
    // destroys at most one of two distinct-snode copies).
    let stream = Scenario::new(SimTime::millis(120_000))
        .with(Process::InitialFleet { nodes: 10, capacity: Capacity::Fixed(1) })
        .with(Process::Poisson {
            rate_per_s: 0.3,
            lifetime: Lifetime::Forever,
            capacity: Capacity::Fixed(1),
        })
        .with(Process::CrashStorm {
            at: SimTime::millis(20_000),
            crashes: 1,
            spread: SimTime::ZERO,
        })
        .with(Process::CrashStorm {
            at: SimTime::millis(50_000),
            crashes: 1,
            spread: SimTime::ZERO,
        })
        .with(Process::CrashStorm {
            at: SimTime::millis(80_000),
            crashes: 1,
            spread: SimTime::ZERO,
        })
        .build(6);
    let driver = ChurnDriver::with_replication(local(), DriverConfig::default(), 1_500, 16, 2);
    let outcome = driver.run(&stream);
    assert!(outcome.totals.crashes > 0, "the scenario must crash nodes");
    assert_eq!(outcome.totals.keys_lost, 0, "R=2 with per-window repair loses nothing");
    assert_eq!(outcome.totals.lost_lookups, 0);
    assert!(outcome.totals.repaired > 0, "crashes must leave work for repair");
    assert!(
        outcome.samples.iter().any(|s| s.quorum_availability < 1.0),
        "a crash window must dent quorum availability before repair"
    );
    assert_eq!(outcome.samples.last().unwrap().keys_total, 1_500);
}

#[test]
fn unreplicated_crashes_lose_exactly_what_accounting_says() {
    let stream = crashy_scenario().build(11);
    let driver = ChurnDriver::with_replication(local(), DriverConfig::default(), 1_500, 16, 1);
    let outcome = driver.run(&stream);
    assert!(outcome.totals.crashes > 0);
    assert!(outcome.totals.keys_lost > 0, "R=1 crashes must lose keys");
    // Exact accounting: the survivors plus the accounted losses cover
    // the whole population.
    let final_keys = outcome.samples.last().unwrap().keys_total;
    assert_eq!(final_keys + outcome.totals.keys_lost, 1_500);
    assert_eq!(outcome.totals.lost_lookups, 0, "losses are accounted, never silent");
}

#[test]
fn replicated_replay_is_deterministic_and_parallel_across_backends() {
    let scenario = crashy_scenario();
    let (s1, s2) = (scenario.build(9), scenario.build(9));
    let a = ChurnDriver::with_replication(local(), DriverConfig::default(), 800, 8, 3).run(&s1);
    let b = ChurnDriver::with_replication(local(), DriverConfig::default(), 800, 8, 3).run(&s2);
    assert_eq!(a, b, "same seed ⇒ identical replicated outcome");
    assert!(a.csv_string().contains("quorum_availability"));
    let g = ChurnDriver::with_replication(
        GlobalDht::with_seed(DhtConfig::new(HashSpace::full(), 8, 1).unwrap(), 0xD1),
        DriverConfig::default(),
        800,
        8,
        3,
    )
    .run(&scenario.build(9));
    assert_eq!(a.totals.joins, g.totals.joins, "identical membership trajectory");
    assert_eq!(a.totals.crashes, g.totals.crashes);
}

#[test]
fn readers_hammer_the_kv_serving_plane_without_errors() {
    let stream = small_scenario().build(7);
    let driver = ChurnDriver::with_kv(local(), DriverConfig::default(), 1_000, 8).with_readers(2);
    let outcome = driver.run(&stream);
    assert!(outcome.totals.reads > 0, "readers must complete reads during replay");
    assert_eq!(outcome.totals.read_errors, 0, "graceful churn must never fail a read");
    assert_eq!(outcome.totals.lost_lookups, 0);
    assert!(outcome.totals.reads_per_sec > 0.0);
    assert!(outcome.totals.read_p99_ns >= outcome.totals.read_p50_ns);
    assert!(
        outcome.samples.iter().map(|s| s.reads).sum::<u64>() <= outcome.totals.reads,
        "window reads are a subset of the run total"
    );
    let csv = outcome.csv_string();
    assert!(csv.contains("reads_per_sec") && csv.contains("read_p99_ns"));
}

#[test]
fn readers_survive_crashes_on_the_replicated_plane_at_r2() {
    let stream = Scenario::new(SimTime::millis(120_000))
        .with(Process::InitialFleet { nodes: 10, capacity: Capacity::Fixed(1) })
        // One crash per window: repair runs between failures, so R=2
        // provably loses nothing and every read must succeed.
        .with(Process::CrashStorm {
            at: SimTime::millis(40_000),
            crashes: 1,
            spread: SimTime::ZERO,
        })
        .with(Process::CrashStorm {
            at: SimTime::millis(80_000),
            crashes: 1,
            spread: SimTime::ZERO,
        })
        .build(13);
    let driver =
        ChurnDriver::with_replication(local(), DriverConfig::default(), 800, 8, 2).with_readers(2);
    let outcome = driver.run(&stream);
    assert!(outcome.totals.crashes > 0);
    assert_eq!(outcome.totals.keys_lost, 0);
    assert!(outcome.totals.reads > 0);
    assert_eq!(outcome.totals.read_errors, 0, "R=2 must serve every quorum read through crashes");
}

#[test]
fn readers_route_on_the_bare_plane() {
    let stream = small_scenario().build(21);
    let driver = ChurnDriver::new(local(), DriverConfig::default()).with_readers(2);
    let outcome = driver.run(&stream);
    assert!(outcome.totals.reads > 0);
    assert_eq!(outcome.totals.read_errors, 0, "a published epoch always routes every point");
}

#[test]
fn reader_columns_are_deterministic_zeros_without_readers() {
    let stream = small_scenario().build(5);
    let outcome = ChurnDriver::with_kv(local(), DriverConfig::default(), 500, 8).run(&stream);
    assert_eq!(outcome.totals.reads, 0);
    assert_eq!(outcome.totals.read_errors, 0);
    assert!(outcome.samples.iter().all(|s| s.reads == 0 && s.stale_rate == 0.0));
    // Without readers *and* without a router, both column groups
    // stay all-zero and the CSV is byte-deterministic.
    assert_eq!(outcome.totals.failovers, 0);
    assert_eq!(outcome.totals.route_moves, 0);
    assert!(outcome.samples.iter().all(|s| s.leases_live == 0 && s.route_version == 0));
    for line in outcome.csv_string().lines().skip(1) {
        assert!(
            line.ends_with(",0,0.0,0,0,0.0000,0,0,0.0000,0,0,0,0,0,0,0.000,0,0"),
            "read, route and durability columns stay zero: {line}"
        );
    }
}

#[test]
fn a_silent_stall_fails_over_via_lease_expiry_with_zero_loss_at_r2() {
    let stream = Scenario::hotspot_failover().build(17);
    let driver = ChurnDriver::with_replication(local(), DriverConfig::default(), 1_200, 16, 2)
        .with_router(RouterConfig::default());
    let outcome = driver.run(&stream);
    assert!(outcome.totals.leases_expired >= 1, "the stall must lapse leases");
    assert!(outcome.totals.failovers >= 1, "a lapsed lease must fail over");
    assert_eq!(outcome.totals.crashes, 0, "no crash notification was ever delivered");
    assert_eq!(outcome.totals.keys_lost, 0, "R=2: failover + repair lose nothing");
    assert_eq!(outcome.totals.lost_lookups, 0);
    assert_eq!(outcome.totals.lease_violations, 0, "lease safety holds every window");
    assert!(outcome.samples.iter().any(|s| s.failovers > 0));
    // The route probe sees live epochs: versions advance, and the
    // cache repairs staleness in at most one round per window.
    assert!(outcome.samples.last().unwrap().route_version > 0);
    assert!(outcome.samples.iter().any(|s| s.cache_stale > 0));
    assert!(outcome.samples.iter().all(|s| s.cache_stale <= 1));
}

#[test]
fn crashed_snodes_rejoin_by_replaying_their_wal() {
    let stream = Scenario::durability(1.0).build(9);
    let driver = ChurnDriver::with_replication(local(), DriverConfig::default(), 1_500, 16, 2);
    let outcome = driver.run(&stream);
    assert!(outcome.totals.crashes >= 1, "{} crashes", outcome.totals.crashes);
    assert!(
        outcome.totals.rejoins >= 1,
        "crashed snodes must come back: {} rejoins",
        outcome.totals.rejoins
    );
    assert!(outcome.samples.iter().any(|s| s.rejoins > 0));
    // Anti-entropy ships digest-selected bytes while the fleet is
    // degraded, and the quorum gap closes again after each rejoin.
    assert!(outcome.totals.repair_bytes > 0, "digest repair must ship bytes");
    assert!(
        outcome.totals.repair_bytes < outcome.totals.repair_bytes_full,
        "digest-driven repair must ship less than a full rebuild: {} vs {}",
        outcome.totals.repair_bytes,
        outcome.totals.repair_bytes_full
    );
    assert!(
        outcome.totals.time_to_full_quorum_windows >= 1,
        "a 1.5-window downtime must register a quorum gap"
    );
    assert_eq!(outcome.totals.lost_lookups, 0, "surviving probes always read back");
}

#[test]
fn bare_plant_rejoins_are_plain_reenrollments() {
    // The bare plant has no WAL: a rejoin re-enrolls the crashed tag
    // at its crash-time capacity, and the durability columns stay
    // deterministic zeros.
    let stream = Scenario::new(SimTime::millis(120_000))
        .with(Process::InitialFleet { nodes: 6, capacity: Capacity::Fixed(1) })
        .with(Process::CrashRejoin {
            at: SimTime::millis(30_000),
            cycles: 2,
            spread: SimTime::millis(10_000),
            downtime: SimTime::millis(10_000),
        })
        .build(13);
    let rejoins =
        stream.events().iter().filter(|e| matches!(e.kind, EventKind::RejoinRank { .. })).count()
            as u64;
    assert!(rejoins >= 1);
    let outcome = ChurnDriver::new(local(), DriverConfig::default()).run(&stream);
    assert_eq!(outcome.totals.rejoins, rejoins, "every paired rejoin executes");
    assert_eq!(outcome.totals.repair_bytes, 0, "no overlay, no repair traffic");
    assert_eq!(outcome.totals.wal_replay_ms, 0.0, "no WAL on the bare plant");
}

#[test]
fn rejoin_events_are_skipped_while_nothing_is_crashed() {
    let events =
        vec![ChurnEvent { at: SimTime::millis(10_000), kind: EventKind::RejoinRank { draw: 7 } }];
    let stream = EventStream::new(events, SimTime::millis(20_000));
    let mut driver = ChurnDriver::new(local(), DriverConfig::default());
    driver.step(&ChurnEvent {
        at: SimTime::millis(1),
        kind: EventKind::Join { node: NodeTag(0), vnodes: 2 },
    });
    for e in stream.events() {
        driver.step(e);
    }
    let outcome = driver.finish(stream.horizon());
    assert_eq!(outcome.totals.rejoins, 0);
    assert_eq!(outcome.totals.skipped, 1, "a rejoin with no crashed roster skips");
}

#[test]
fn a_degraded_snode_is_detected_and_rebalanced_within_bounded_windows() {
    let stream = Scenario::hotspot_failover().build(17);
    let driver = ChurnDriver::with_kv(local(), DriverConfig::default(), 1_000, 8)
        .with_router(RouterConfig::default());
    let outcome = driver.run(&stream);
    assert!(outcome.totals.hot_windows >= 1, "the degrade must trip the detector");
    assert!(outcome.totals.route_moves >= 1, "a hot snode must shed");
    assert!(outcome.totals.route_converged, "the imbalance must be rebalanced away");
    assert!(
        outcome.totals.route_convergence <= 3,
        "convergence must be bounded: {} windows",
        outcome.totals.route_convergence
    );
    assert_eq!(outcome.totals.lost_lookups, 0, "moves migrate data, never lose it");
    assert_eq!(outcome.totals.lease_violations, 0);
}

#[test]
fn routed_replay_is_deterministic() {
    let scenario = Scenario::hotspot_failover();
    let run = || {
        ChurnDriver::with_replication(local(), DriverConfig::default(), 800, 8, 2)
            .with_router(RouterConfig::default())
            .run(&scenario.build(3))
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "the control plane runs on simulated time — byte-deterministic");
    assert_eq!(a.csv_string(), b.csv_string());
    assert!(a.csv_string().starts_with("window,t_ms,"));
    assert!(a.csv_string().contains("route_version"));
}

#[test]
fn stall_and_degrade_events_are_skipped_without_a_router() {
    let stream = Scenario::hotspot_failover().build(5);
    let outcome = ChurnDriver::new(local(), DriverConfig::default()).run(&stream);
    assert_eq!(outcome.totals.failovers, 0);
    assert_eq!(outcome.totals.route_moves, 0);
    assert_eq!(
        outcome.totals.skipped, 2,
        "one stall + one degrade are unobservable without a control plane"
    );
}

#[test]
fn availability_series_extraction() {
    let stream = small_scenario().build(4);
    let outcome = ChurnDriver::with_kv(local(), DriverConfig::default(), 500, 8).run(&stream);
    let s = outcome.series("availability", |w| w.availability);
    assert_eq!(s.len(), outcome.samples.len());
    assert!(s.y.iter().all(|&y| (0.0..=1.0).contains(&y)));
}
