//! The serving plane's consistency contract, asserted end to end.
//!
//! An [`EngineSnapshot`] is built *incrementally* — the
//! [`SnapshotBuilder`] taps the rebalance event stream instead of
//! re-reading the engine — so the thing that must never happen is a
//! *torn* view: a snapshot whose routing disagrees with the engine state
//! it claims to capture. The harness here drives every backend through a
//! grow/shrink storm and, at **every** published epoch, replays a dense
//! probe grid through both the pinned view and the live engine's
//! [`DhtEngine::lookup`]; any divergence at any epoch on any backend is
//! a failure. A property test then asserts the retry contract the
//! serving plane's readers rely on: a pin left one epoch behind always
//! converges in at most one re-pin.

use domus::prelude::*;
use proptest::prelude::*;

/// Probe points: a dense even grid plus the span edges' neighbours.
fn probe_points(space: HashSpace) -> Vec<u64> {
    let step = (space.size() / 512).max(1);
    let mut pts: Vec<u64> = (0..512u128).map(|i| (i * step) as u64).collect();
    pts.push(space.max_point());
    pts
}

/// One epoch's parity check: the pinned snapshot and the live engine
/// must route every probe point to the same vnode, and the snapshot's
/// snode must be the vnode's actual host.
fn assert_parity<E: DhtEngine + ?Sized>(engine: &E, snap: &EngineSnapshot, ctx: &str) {
    for p in probe_points(snap.space()) {
        let live = engine.lookup(p).map(|(_, v)| v);
        let served = snap.lookup(p);
        assert_eq!(
            served.map(|(v, _)| v),
            live,
            "{ctx}: epoch {} tore at point {p:#x}",
            snap.epoch()
        );
        if let Some((v, s)) = served {
            assert_eq!(
                engine.snode_of(v).ok(),
                Some(s),
                "{ctx}: epoch {} serves {v} from the wrong snode",
                snap.epoch()
            );
        }
    }
}

/// Drives one engine through a grow/shrink storm, checking parity at
/// every published epoch.
fn storm<E: DhtEngine>(mut engine: E, seed: u64, ctx: &str) {
    let mut builder = SnapshotBuilder::from_engine(&engine);
    let cell = SnapshotCell::new(builder.snapshot());
    assert_parity(&engine, &cell.load(), ctx);

    let mut rng = SplitMix64::new(seed);
    let mut next_snode = 0u32;
    for round in 0..40u32 {
        // Weighted coin: grow twice as often as we shrink, so the
        // population climbs while both paths stay exercised.
        let vnodes = engine.vnodes();
        let shrink = vnodes.len() > 2 && rng.next_u64() % 3 == 0;
        if shrink {
            let v = vnodes[(rng.next_u64() as usize) % vnodes.len()];
            if engine.remove_vnode_with(v, &mut builder).is_ok() {
                builder.note_remove(v);
            }
        } else {
            let snode = SnodeId(next_snode);
            next_snode += 1;
            let out = engine
                .create_vnode_with(snode, &mut builder)
                .unwrap_or_else(|e| panic!("{ctx}: round {round} create failed: {e:?}"));
            builder.note_create(out.vnode, snode);
        }
        let epoch = builder.publish(&cell);
        let snap = cell.load();
        assert_eq!(snap.epoch(), epoch, "{ctx}: the cell serves the published epoch");
        assert_parity(&engine, &snap, ctx);
    }
}

#[test]
fn every_epoch_routes_like_the_live_engine() {
    let space = HashSpace::full();
    for seed in [3u64, 77, 20_04] {
        storm(
            LocalDht::with_seed(DhtConfig::new(space, 8, 4).unwrap(), seed),
            seed,
            &format!("local seed {seed}"),
        );
        storm(
            GlobalDht::with_seed(DhtConfig::new(space, 8, 1).unwrap(), seed),
            seed,
            &format!("global seed {seed}"),
        );
        storm(
            ChEngine::with_seed(DhtConfig::new(space, 8, 1).unwrap(), 16, seed),
            seed,
            &format!("ch seed {seed}"),
        );
    }
}

#[test]
fn snapshots_stay_immutable_once_pinned() {
    // A pinned epoch is a value: later publishes must never reach back
    // into an Arc a reader already holds.
    let mut engine = LocalDht::with_seed(DhtConfig::new(HashSpace::full(), 8, 4).unwrap(), 9);
    let mut builder = SnapshotBuilder::from_engine(&engine);
    let cell = SnapshotCell::new(builder.snapshot());
    let out = engine.create_vnode_with(SnodeId(0), &mut builder).unwrap();
    builder.note_create(out.vnode, SnodeId(0));
    builder.publish(&cell);

    let pinned = cell.load();
    let before: Vec<_> = probe_points(pinned.space()).iter().map(|&p| pinned.lookup(p)).collect();
    for s in 1..6u32 {
        let out = engine.create_vnode_with(SnodeId(s), &mut builder).unwrap();
        builder.note_create(out.vnode, SnodeId(s));
        builder.publish(&cell);
    }
    let after: Vec<_> = probe_points(pinned.space()).iter().map(|&p| pinned.lookup(p)).collect();
    assert_eq!(before, after, "a pinned snapshot changed under its reader");
    assert!(cell.is_stale(&pinned), "five publishes later the pin must read as stale");
    assert!(
        RouteVersion(cell.load().epoch()) > RouteVersion(pinned.epoch()),
        "a re-pin supersedes the stale version"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The reader retry contract: a pin left exactly one epoch behind
    /// converges for every key in at most one re-pin — `get_routed`
    /// never loops and never misses a present key.
    #[test]
    fn stale_route_retry_converges_within_one_epoch(
        seed in any::<u64>(),
        keys in 1u32..400,
        joiner in any::<u8>(),
    ) {
        let cfg = DhtConfig::new(HashSpace::full(), 8, 4).unwrap();
        let mut store = KvStore::new(LocalDht::with_seed(cfg, seed));
        store.join(SnodeId(u32::from(joiner))).unwrap();
        let svc = KvService::new(store);
        for i in 0..keys {
            svc.put(format!("k{i}"), format!("v{i}"));
        }
        let mut pin = svc.snapshot();
        let pinned_epoch = pin.epoch();
        svc.join(SnodeId(u32::from(joiner) + 1)).unwrap();
        for i in 0..keys {
            let got = svc.get_routed(&mut pin, format!("k{i}").as_bytes());
            prop_assert!(got.value.is_some(), "k{i} lost behind a stale pin");
            prop_assert!(got.retries <= 1, "k{i} needed {} retries", got.retries);
        }
        prop_assert!(pin.epoch() <= pinned_epoch + 1, "the pin settles on the next epoch");
        // A key that never existed settles as a genuine miss, still
        // within the same epoch.
        let miss = svc.get_routed(&mut pin, b"never-put");
        prop_assert!(miss.value.is_none());
        prop_assert!(miss.retries <= 1);
    }
}
