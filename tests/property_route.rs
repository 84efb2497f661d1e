//! Property-based tests over the routing control plane: lease safety
//! under arbitrary membership interleavings, bounded failover after a
//! silent stall, and cache-routed lookups that equal the live engine
//! after at most one repair round — on all three backends.

use domus::prelude::*;
use domus_core::SnapshotBuilder;
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------
// 1. Lease uniqueness + roster safety under random control-plane ops.
// ---------------------------------------------------------------------

/// The per-snode loads of a model roster, sorted by snode — what the
/// driver reads off a published snapshot (quotas are irrelevant here).
fn roster_loads(roster: &[(VnodeId, SnodeId)]) -> Vec<SnodeLoad> {
    let mut loads: Vec<SnodeLoad> = Vec::new();
    let mut snodes: Vec<SnodeId> = roster.iter().map(|&(_, s)| s).collect();
    snodes.sort();
    for s in snodes {
        match loads.last_mut() {
            Some(l) if l.snode == s => l.vnodes += 1,
            _ => loads.push(SnodeLoad { snode: s, vnodes: 1, quota: 0.0 }),
        }
    }
    loads
}

/// Vnodes `s` hosts in a model roster.
fn hosted(roster: &[(VnodeId, SnodeId)], s: SnodeId) -> usize {
    roster.iter().filter(|&&(_, h)| h == s).count()
}

/// Checks the router's leases against a model roster, as the driver
/// checks them against the engine's per-snode index.
fn verify(router: &Router, roster: &[(VnodeId, SnodeId)]) -> Result<(), TestCaseError> {
    let snodes = roster_loads(roster).len();
    router.verify(snodes, |s| hosted(roster, s)).map_err(TestCaseError::fail)
}

#[derive(Debug, Clone)]
enum LeaseOp {
    /// Join a vnode on a (bounded) snode.
    Join(u8),
    /// Remove the i-th live vnode, if any.
    Remove(u8),
    /// Crash the holder of the i-th live vnode.
    Fail(u8),
    /// Silently stall the holder of the i-th live vnode.
    Stall(u8),
    /// Advance the clock one window and tick.
    Tick,
}

fn lease_ops(max: usize) -> impl Strategy<Value = Vec<LeaseOp>> {
    prop::collection::vec(
        prop_oneof![
            4 => any::<u8>().prop_map(LeaseOp::Join),
            2 => any::<u8>().prop_map(LeaseOp::Remove),
            1 => any::<u8>().prop_map(LeaseOp::Fail),
            1 => any::<u8>().prop_map(LeaseOp::Stall),
            3 => Just(LeaseOp::Tick),
        ],
        1..max,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// After *any* interleaving of joins, removals, crashes,
    /// stalls and clock ticks — with every emitted failover executed —
    /// the lease table covers exactly the live roster: one lease per
    /// hosting snode, and no lease on a snode with no live vnode.
    /// Uniqueness per snode is structural (the table is keyed by snode);
    /// this drives the *roster* half of the invariant.
    #[test]
    fn leases_always_cover_exactly_the_live_roster(script in lease_ops(80)) {
        let window = SimTime::millis(30_000);
        let mut router = Router::new(RouterConfig::default());
        // The model roster the router must stay in lock-step with.
        let mut roster: Vec<(VnodeId, SnodeId)> = Vec::new();
        // The snodes stalled and not yet forgotten.
        let mut stalled: Vec<SnodeId> = Vec::new();
        let mut next_vnode = 0u32;
        let mut now = SimTime::ZERO;

        for op in &script {
            match *op {
                LeaseOp::Join(s) => {
                    let v = VnodeId(next_vnode);
                    next_vnode += 1;
                    let snode = SnodeId(u32::from(s) % 8);
                    roster.push((v, snode));
                    router.note_join(v, snode, now);
                }
                LeaseOp::Remove(i) => {
                    if !roster.is_empty() {
                        let (_, s) = roster.remove(usize::from(i) % roster.len());
                        let remaining = hosted(&roster, s);
                        if remaining == 0 {
                            stalled.retain(|&h| h != s);
                        }
                        router.note_remove(s, remaining);
                    }
                }
                LeaseOp::Fail(i) => {
                    if !roster.is_empty() {
                        let victim = roster[usize::from(i) % roster.len()].1;
                        roster.retain(|&(_, s)| s != victim);
                        stalled.retain(|&s| s != victim);
                        router.note_fail(victim);
                    }
                }
                LeaseOp::Stall(i) => {
                    if !roster.is_empty() {
                        let victim = roster[usize::from(i) % roster.len()].1;
                        stalled.push(victim);
                        router.inject_stall(victim);
                    }
                }
                LeaseOp::Tick => {
                    now += window;
                    let before = router.totals();
                    let loads = roster_loads(&roster);
                    let report = router.tick(now, &loads);
                    // Per-window reconciliation: the tick's report and
                    // the monotone totals must agree exactly — renewals,
                    // expiries, and each action kind counted separately.
                    let after = router.totals();
                    prop_assert_eq!(after.ticks, before.ticks + 1);
                    prop_assert_eq!(after.leases_renewed - before.leases_renewed, report.renewed);
                    prop_assert_eq!(after.leases_expired - before.leases_expired, report.expired);
                    let failovers = report
                        .actions
                        .iter()
                        .filter(|a| matches!(a, RouteAction::Failover { .. }))
                        .count() as u64;
                    let moves = report
                        .actions
                        .iter()
                        .filter(|a| matches!(a, RouteAction::MoveVnode { .. }))
                        .count() as u64;
                    prop_assert_eq!(after.failovers - before.failovers, failovers);
                    prop_assert_eq!(after.moves - before.moves, moves);
                    // Every expired vnode is hosted by exactly one failed
                    // over snode, and every renewed one by a snode that
                    // is not stalled.
                    let failover_vnodes: u64 = report
                        .actions
                        .iter()
                        .map(|a| match *a {
                            RouteAction::Failover { snode } => hosted(&roster, snode) as u64,
                            _ => 0,
                        })
                        .sum();
                    prop_assert_eq!(failover_vnodes, report.expired);
                    let healthy = roster.iter().filter(|(_, s)| !stalled.contains(s)).count();
                    prop_assert_eq!(report.renewed, healthy as u64);
                    // Execute every failover the tick ordered: the
                    // stalled holder's vnodes die and the router hears
                    // the confirmation, exactly like the driver.
                    for action in report.actions {
                        if let RouteAction::Failover { snode } = action {
                            roster.retain(|&(_, s)| s != snode);
                            stalled.retain(|&s| s != snode);
                            router.note_fail(snode);
                        }
                    }
                }
            }
            verify(&router, &roster)?;
            prop_assert_eq!(
                router.leases().len(),
                roster_loads(&roster).len(),
                "lease count must equal the hosting snode count"
            );
        }
    }

    /// A silently stalled holder is failed over within a bounded number
    /// of windows: its leases lapse once the TTL passes without renewal,
    /// the tick emits the failover, and after execution the table is
    /// clean again — never more than ⌈ttl/window⌉ + 1 ticks after the
    /// stall, for any TTL/window ratio and fleet size.
    #[test]
    fn a_stalled_holder_fails_over_within_ttl_over_window_plus_one_ticks(
        fleet in 2u32..12,
        ttl_windows in 1u64..6,
        victim in any::<u8>(),
        warmup in 0u64..4,
    ) {
        let window = SimTime::millis(10_000);
        let ttl = SimTime(window.nanos() * ttl_windows);
        let mut router = Router::new(RouterConfig { lease_ttl: ttl, ..RouterConfig::default() });
        let mut roster: Vec<(VnodeId, SnodeId)> = Vec::new();
        for s in 0..fleet {
            roster.push((VnodeId(s), SnodeId(s)));
            router.note_join(VnodeId(s), SnodeId(s), SimTime::ZERO);
        }
        let mut now = SimTime::ZERO;
        // Healthy warm-up ticks: everyone renews, nothing fails over.
        for _ in 0..warmup {
            now += window;
            let report = router.tick(now, &roster_loads(&roster));
            prop_assert!(report.actions.is_empty(), "healthy fleet must not fail over");
            prop_assert_eq!(report.renewed, u64::from(fleet));
        }

        let stalled = SnodeId(u32::from(victim) % fleet);
        router.inject_stall(stalled);
        // The lease was last renewed no earlier than `now`; it expires
        // at renewal + ttl, so the tick at most ⌈ttl/window⌉ + 1 windows
        // later must surface it.
        let bound = ttl_windows + 1;
        let mut failed_at: Option<u64> = None;
        for k in 1..=bound {
            now += window;
            let report = router.tick(now, &roster_loads(&roster));
            // Everyone but the stalled holder renews; its one vnode
            // counts as expired on the tick it lapses.
            prop_assert_eq!(report.renewed, u64::from(fleet - 1));
            let lapsed = !report.actions.is_empty();
            prop_assert_eq!(report.expired, u64::from(lapsed));
            let mut hit = false;
            for action in report.actions {
                if let RouteAction::Failover { snode } = action {
                    prop_assert_eq!(snode, stalled, "only the stalled holder may lapse");
                    roster.retain(|&(_, s)| s != snode);
                    router.note_fail(snode);
                    hit = true;
                }
            }
            if hit {
                failed_at = Some(k);
                break;
            }
        }
        prop_assert!(
            failed_at.is_some(),
            "stall must fail over within {} windows (ttl {} windows)",
            bound,
            ttl_windows
        );
        verify(&router, &roster)?;
        prop_assert!(
            router.leases().iter().all(|(s, _)| s != stalled),
            "no lease may survive the failover"
        );
    }
}

// ---------------------------------------------------------------------
// 2. Cache-routed lookups ≡ live-engine lookups after ≤1 retry.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum ChurnOp {
    Create(u8),
    Remove(u8),
}

fn churn_ops(max: usize) -> impl Strategy<Value = Vec<ChurnOp>> {
    prop::collection::vec(
        prop_oneof![
            3 => any::<u8>().prop_map(ChurnOp::Create),
            1 => any::<u8>().prop_map(ChurnOp::Remove),
        ],
        1..max,
    )
}

fn run_cache_parity<E: DhtEngine>(
    label: &str,
    mut dht: E,
    script: &[ChurnOp],
) -> Result<(), TestCaseError> {
    // Seed two snodes so the table is never empty mid-script.
    let mut builder = SnapshotBuilder::from_engine(&dht);
    for s in 0..2u32 {
        let out = dht
            .create_vnode_with(SnodeId(s), &mut builder)
            .map_err(|e| TestCaseError::fail(format!("{label}: seed join: {e}")))?;
        builder.note_create(out.vnode, SnodeId(s));
    }
    let cell = Arc::new(SnapshotCell::new(builder.snapshot()));
    let mut cache = RouteCache::new(Arc::clone(&cell));
    let grid: Vec<u64> = {
        let space = dht.config().hash_space();
        (0..48u64).map(|i| space.fold(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))).collect()
    };

    let mut next_snode = 2u32;
    for op in script {
        match *op {
            ChurnOp::Create(s) => {
                let snode = SnodeId(next_snode + u32::from(s) % 3);
                next_snode += 3;
                let out = dht
                    .create_vnode_with(snode, &mut builder)
                    .map_err(|e| TestCaseError::fail(format!("{label}: create: {e}")))?;
                builder.note_create(out.vnode, snode);
            }
            ChurnOp::Remove(pos) => {
                let vnodes = dht.vnodes();
                if vnodes.len() <= 3 {
                    continue; // keep at least two snodes' worth live
                }
                let v = vnodes[usize::from(pos) % vnodes.len()];
                // The builder is the sink, so it hears any internal
                // migration events itself; only the removal is noted.
                dht.remove_vnode_with(v, &mut builder)
                    .map_err(|e| TestCaseError::fail(format!("{label}: remove: {e}")))?;
                builder.note_remove(v);
            }
        }
        builder.publish(&cell);

        // One sweep over the probe grid: the cache may refresh at most
        // once (one publish happened since the last sweep), and every
        // repaired route must agree with the live engine.
        let before = cache.stats().counters();
        for &p in &grid {
            let cached = cache.lookup(p);
            let live = dht.lookup(p).map(|(_, owner)| owner);
            prop_assert_eq!(
                cached.map(|(v, _)| v),
                live,
                "{}: cached route must equal the live engine after repair",
                label
            );
            if let Some((v, s)) = cached {
                let hosted = dht
                    .snode_of(v)
                    .map_err(|e| TestCaseError::fail(format!("{label}: snode_of: {e}")))?;
                prop_assert_eq!(s, hosted, "{}: cached snode must host the vnode", label);
            }
        }
        let delta = cache.stats().counters().since(before);
        prop_assert_eq!(delta.reads, grid.len() as u64);
        prop_assert!(
            delta.stale_reads <= 1,
            "{}: one publish may cost at most one refresh, saw {}",
            label,
            delta.stale_reads
        );
        prop_assert_eq!(delta.misses, 0, "{}: a non-empty table never misses", label);
        prop_assert_eq!(
            cache.version(),
            RouteVersion(cell.epoch()),
            "{}: after a sweep the pin is current",
            label
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Under arbitrary create/remove churn with a publish per op, a
    /// cache-routed lookup equals the live engine's lookup after at most
    /// one refresh round per publish — on all three backends.
    #[test]
    fn cached_routes_equal_live_routes_after_one_repair(
        seed in any::<u64>(),
        script in churn_ops(24),
    ) {
        let cfg = DhtConfig::new(HashSpace::new(32), 4, 2).unwrap();
        run_cache_parity("local", LocalDht::with_seed(cfg, seed), &script)?;
        let flat = DhtConfig::new(HashSpace::new(32), 4, 1).unwrap();
        run_cache_parity("global", GlobalDht::with_seed(flat, seed), &script)?;
        run_cache_parity("ch", ChEngine::with_seed(flat, 8, seed), &script)?;
    }
}
