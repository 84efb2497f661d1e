//! Compile-time thread-safety audit of the whole stack.
//!
//! The concurrent serving plane hands engines, stores and snapshots
//! across threads, so every type on that path must be `Send + Sync` —
//! and must *stay* that way. A stray `Rc`, `RefCell` or raw pointer
//! added deep inside an engine would only surface as a confusing
//! coherence error at some distant spawn site; these assertions turn it
//! into an immediate, named failure at the type that regressed. Nothing
//! here runs: if this file compiles, the property holds.

use domus::prelude::*;

fn assert_send_sync<T: Send + Sync>() {}
fn assert_send<T: Send>() {}

#[test]
fn every_layer_is_send_and_sync() {
    // Engines — the mutation plane.
    assert_send_sync::<GlobalDht>();
    assert_send_sync::<LocalDht>();
    assert_send_sync::<ChEngine>();
    // Engines remain thread-safe behind the dyn-compatible trait too:
    // a boxed engine can move to a worker and be shared from there.
    assert_send_sync::<Box<dyn DhtEngine + Send + Sync>>();

    // The serving plane — immutable snapshots and the publish cell.
    assert_send_sync::<EngineSnapshot>();
    assert_send_sync::<std::sync::Arc<EngineSnapshot>>();
    assert_send_sync::<SnapshotCell>();
    assert_send_sync::<SnapshotBuilder>();
    assert_send_sync::<OwnerSpan>();
    assert_send_sync::<SnodeLoad>();

    // The KV overlay and its thread-safe facades.
    assert_send_sync::<KvStore<LocalDht>>();
    assert_send_sync::<KvService<LocalDht>>();
    assert_send_sync::<KvService<GlobalDht>>();
    assert_send_sync::<ReplicatedStore<LocalDht>>();
    assert_send_sync::<RoutedGet>();
    assert_send_sync::<QuorumRead>();

    // The event stream and its sinks.
    assert_send_sync::<RebalanceEvent>();
    assert_send_sync::<NullSink>();
    assert_send_sync::<CountOnly>();
    assert_send_sync::<CollectReport>();
    assert_send_sync::<Tee<NullSink, CountOnly>>();
    assert_send_sync::<EventStream>();
    assert_send_sync::<Scenario>();

    // The churn driver itself crosses the spawn boundary whole.
    assert_send::<ChurnDriver<LocalDht>>();
    assert_send::<ChurnDriver<GlobalDht>>();
    assert_send::<ChurnDriver<ChEngine>>();
}

#[test]
fn boxed_engine_crosses_threads() {
    // The dynamic form of the audit: drive a boxed engine from another
    // thread, then share the resulting snapshot back.
    let cfg = DhtConfig::new(HashSpace::new(32), 4, 2).expect("valid config");
    let mut engine: Box<dyn DhtEngine + Send + Sync> = Box::new(LocalDht::with_seed(cfg, 3));
    let snap = std::thread::spawn(move || {
        engine.create_vnode_with(SnodeId(0), &mut NullSink).expect("create");
        engine.create_vnode_with(SnodeId(1), &mut NullSink).expect("create");
        EngineSnapshot::from_engine(&*engine, 1)
    })
    .join()
    .expect("worker");
    assert_eq!(snap.vnode_count(), 2);
    assert!(snap.lookup(0).is_some(), "the snapshot routes on this thread too");
}
