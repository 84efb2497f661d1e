//! A thread-safe service façade over the store, with a concurrent
//! serving plane.
//!
//! The data plane of a cluster DHT is read-dominated: lookups proceed
//! concurrently while maintenance (join/leave and the implied migration)
//! is an exclusive event — precisely a reader/writer discipline.
//! [`KvService`] wraps [`KvStore`] in a `parking_lot::RwLock`, giving the
//! downstream user a `Clone + Send + Sync` handle.
//!
//! On top of that lock the service maintains the **serving plane**: a
//! [`SnapshotBuilder`] taps every maintenance operation's rebalance
//! events and publishes an epoch-numbered [`EngineSnapshot`] into a
//! [`SnapshotCell`] *before the write lock is released* — so from any
//! reader's point of view, "store contents" and "published routing
//! epoch" advance together. Readers pin an epoch once and route any
//! number of [`KvService::get_at`] reads lock-free against it; a miss is
//! disambiguated by [`KvService::get_routed`], which re-pins and retries
//! exactly when the cell's epoch moved past the pinned one (stale-route
//! detection). Because publishes are lock-coupled to mutations, a miss
//! at the *current* epoch is a genuine absence — never a torn route.

use crate::store::{KvStore, MigrationReport};
use bytes::Bytes;
use domus_core::{
    CreateOutcome, DhtEngine, DhtError, EngineSnapshot, NullSink, RebalanceSink, RemoveOutcome,
    RouteStats, SnapshotBuilder, SnapshotCell, SnodeId, Tee, VnodeId,
};
use parking_lot::RwLock;
use std::sync::Arc;

/// The store plus its incrementally-maintained routing view — mutated
/// together under the service's write lock.
struct Served<E: DhtEngine> {
    store: KvStore<E>,
    builder: SnapshotBuilder,
}

/// A snapshot-routed read: the value (if the key exists at the epoch the
/// read settled on) plus how many stale-route retries it took to settle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutedGet {
    /// The value, `None` when the key is absent at the settled epoch.
    pub value: Option<Bytes>,
    /// Stale-route retries performed (0 = the pinned epoch was current
    /// or the first probe hit).
    pub retries: u32,
}

/// A shareable, thread-safe KV service.
pub struct KvService<E: DhtEngine> {
    inner: Arc<RwLock<Served<E>>>,
    serve: Arc<SnapshotCell>,
    stats: Arc<RouteStats>,
}

impl<E: DhtEngine> Clone for KvService<E> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
            serve: Arc::clone(&self.serve),
            stats: Arc::clone(&self.stats),
        }
    }
}

impl<E: DhtEngine> KvService<E> {
    /// Wraps a store (which may already contain vnodes — the serving
    /// plane is seeded from the engine's current state at epoch 0).
    pub fn new(store: KvStore<E>) -> Self {
        let builder = SnapshotBuilder::from_engine(store.engine());
        let serve = Arc::new(SnapshotCell::new(builder.snapshot()));
        Self {
            inner: Arc::new(RwLock::new(Served { store, builder })),
            serve,
            stats: Arc::new(RouteStats::new()),
        }
    }

    /// The service's routed-read statistics: every
    /// [`KvService::get_routed`] records its retry count here, so
    /// stale-route rates are observable without threading a counter
    /// through every call site. Share the same `Arc` with a
    /// `domus-route` cache to tally cache and service reads in one
    /// place.
    pub fn read_stats(&self) -> &Arc<RouteStats> {
        &self.stats
    }

    /// Concurrent read through the live engine (takes the read lock for
    /// the whole route+probe; see [`KvService::get_routed`] for the
    /// serving-plane path).
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        self.inner.read().store.get(key)
    }

    /// The serving-plane cell: pin epochs from it with
    /// [`SnapshotCell::load`], check staleness with one atomic load.
    pub fn serve(&self) -> &Arc<SnapshotCell> {
        &self.serve
    }

    /// Pins the current routing snapshot (brief read lock, then every
    /// lookup against the returned value is lock-free).
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        self.serve.load()
    }

    /// One snapshot-routed read attempt against a pinned epoch. The
    /// bucket probe holds the store read lock; the routing itself never
    /// touches the engine. A `None` may mean "absent" *or* "stale
    /// route" — [`KvService::get_routed`] disambiguates.
    pub fn get_at(&self, snap: &EngineSnapshot, key: &[u8]) -> Option<Bytes> {
        self.inner.read().store.get_at(snap, key)
    }

    /// Snapshot-routed read with stale-route repair
    /// ([`SnapshotCell::read_settled`] over the key's owner): under
    /// steady churn a miss costs a single retry on the next epoch — the
    /// property the `snapshot_consistency` suite asserts. `snap` is left
    /// pinned to the epoch the read settled on, so a read loop amortises
    /// one pin across many keys.
    pub fn get_routed(&self, snap: &mut Arc<EngineSnapshot>, key: &[u8]) -> RoutedGet {
        let (value, retries) = self.serve.read_settled(
            snap,
            &self.stats,
            |at| self.get_at(at, key),
            Option::is_some,
            |at| self.inner.read().store.route_at(at, key),
        );
        RoutedGet { value, retries }
    }

    /// Exclusive write.
    pub fn put(&self, key: impl Into<Bytes>, value: impl Into<Bytes>) -> Option<Bytes> {
        self.inner.write().store.put(key, value)
    }

    /// Exclusive removal.
    pub fn remove(&self, key: &[u8]) -> Option<Bytes> {
        self.inner.write().store.remove(key)
    }

    /// Entry count.
    pub fn len(&self) -> u64 {
        self.inner.read().store.len()
    }

    /// `true` when empty (one read-lock acquisition, no key walk).
    pub fn is_empty(&self) -> bool {
        self.inner.read().store.is_empty()
    }

    /// A consistent snapshot of every stored key, in deterministic (owner,
    /// hash point) order.
    ///
    /// Routed through [`KvService::with_read`], so the whole walk holds
    /// **one** read-lock acquisition for its entire duration: an in-flight
    /// migration (`join_with`/`leave_with` hold the write lock across the
    /// engine operation *and* the data moves) can never tear the view —
    /// the snapshot sees the store strictly before or strictly after any
    /// maintenance event, with every key present exactly once.
    pub fn snapshot_keys(&self) -> Vec<Bytes> {
        self.with_read(KvStore::snapshot_keys)
    }

    /// Maintenance: a new vnode joins (exclusive).
    pub fn join(&self, snode: SnodeId) -> Result<(VnodeId, MigrationReport), DhtError> {
        self.join_with(snode, &mut NullSink).map(|(out, mig)| (out.vnode, mig))
    }

    /// [`KvService::join`], streaming every rebalance event into `sink`
    /// while the store migrates data in-line (exclusive). The next
    /// routing epoch is published before the write lock is released.
    pub fn join_with(
        &self,
        snode: SnodeId,
        sink: &mut dyn RebalanceSink,
    ) -> Result<(CreateOutcome, MigrationReport), DhtError> {
        let mut g = self.inner.write();
        let Served { store, builder } = &mut *g;
        let res = store.join_with(snode, &mut Tee(&mut *builder, sink));
        if let Ok((out, _)) = &res {
            builder.note_create(out.vnode, snode);
            builder.publish(&self.serve);
        }
        res
    }

    /// Maintenance: a vnode leaves (exclusive).
    pub fn leave(&self, v: VnodeId) -> Result<MigrationReport, DhtError> {
        self.leave_with(v, &mut NullSink).map(|(_, mig)| mig)
    }

    /// [`KvService::leave`], streaming every rebalance event into `sink`
    /// while the store migrates data in-line (exclusive). The next
    /// routing epoch is published before the write lock is released.
    pub fn leave_with(
        &self,
        v: VnodeId,
        sink: &mut dyn RebalanceSink,
    ) -> Result<(RemoveOutcome, MigrationReport), DhtError> {
        let mut g = self.inner.write();
        let Served { store, builder } = &mut *g;
        let res = store.leave_with(v, &mut Tee(&mut *builder, sink));
        if res.is_ok() {
            builder.note_remove(v);
            builder.publish(&self.serve);
        }
        res
    }

    /// Runs `f` under the read lock (bulk inspection).
    pub fn with_read<T>(&self, f: impl FnOnce(&KvStore<E>) -> T) -> T {
        f(&self.inner.read().store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domus_core::{CountOnly, DhtConfig, LocalDht};
    use domus_hashspace::HashSpace;

    fn service() -> KvService<LocalDht> {
        let cfg = DhtConfig::new(HashSpace::new(32), 4, 2).unwrap();
        let mut store = KvStore::new(LocalDht::with_seed(cfg, 5));
        store.join(SnodeId(0)).unwrap();
        KvService::new(store)
    }

    #[test]
    fn concurrent_readers_with_maintenance() {
        let svc = service();
        for i in 0..400u32 {
            svc.put(format!("k{i}"), format!("v{i}"));
        }
        let readers: Vec<_> = (0..4)
            .map(|t| {
                let svc = svc.clone();
                std::thread::spawn(move || {
                    let mut hits = 0u32;
                    for round in 0..200u32 {
                        let i = (t * 37 + round * 13) % 400;
                        if svc.get(format!("k{i}").as_bytes()).is_some() {
                            hits += 1;
                        }
                    }
                    hits
                })
            })
            .collect();
        // Maintenance interleaves with the readers.
        for s in 1..6u32 {
            svc.join(SnodeId(s)).unwrap();
        }
        for r in readers {
            // Every key stays readable throughout migration.
            assert_eq!(r.join().unwrap(), 200);
        }
        svc.with_read(|s| s.verify_placement()).unwrap();
        assert_eq!(svc.len(), 400);
    }

    #[test]
    fn snapshot_keys_is_consistent_and_ordered() {
        let svc = service();
        for i in 0..50u32 {
            svc.put(format!("k{i}"), "v");
        }
        let snap = svc.snapshot_keys();
        assert_eq!(snap.len(), 50);
        // Every stored key appears exactly once.
        let mut sorted: Vec<_> = snap.iter().map(|k| k.to_vec()).collect();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 50);
        // The order is deterministic: a second snapshot is identical.
        assert_eq!(snap, svc.snapshot_keys());
        // And survives maintenance as a set (order may change with owners).
        svc.join(SnodeId(9)).unwrap();
        let mut after: Vec<_> = svc.snapshot_keys().iter().map(|k| k.to_vec()).collect();
        after.sort();
        assert_eq!(after, sorted);
    }

    #[test]
    fn snapshots_mid_join_are_complete() {
        // The read-consistency guard: snapshots racing a stream of
        // `join_with` migrations must always see the complete key set —
        // never a torn view with a key absent (mid-move) or doubled
        // (copied but not yet removed from the donor).
        let svc = service();
        const KEYS: usize = 300;
        for i in 0..KEYS as u32 {
            svc.put(format!("k{i}"), format!("v{i}"));
        }
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let snappers: Vec<_> = (0..3)
            .map(|_| {
                let svc = svc.clone();
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut snaps = 0u32;
                    loop {
                        let snap = svc.snapshot_keys();
                        assert_eq!(snap.len(), KEYS, "torn snapshot mid-join");
                        let mut set: Vec<_> = snap.iter().map(|k| k.to_vec()).collect();
                        set.sort();
                        set.dedup();
                        assert_eq!(set.len(), KEYS, "snapshot double-counted a key");
                        snaps += 1;
                        if stop.load(std::sync::atomic::Ordering::Relaxed) {
                            break;
                        }
                    }
                    snaps
                })
            })
            .collect();
        // Maintenance storm: every join (and the odd leave) migrates data
        // while snapshots run; the caller's sink sees every transfer the
        // data plane applied.
        for s in 10..26u32 {
            let mut counts = CountOnly::default();
            let (out, mig) = svc.join_with(SnodeId(s), &mut counts).unwrap();
            assert_eq!(counts.transfers, mig.transfers);
            if s % 4 == 0 {
                let mut counts = CountOnly::default();
                let (_, mig) = svc.leave_with(out.vnode, &mut counts).unwrap();
                assert_eq!(counts.transfers, mig.transfers);
            }
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for s in snappers {
            assert!(s.join().unwrap() > 0, "snapshots must actually race the joins");
        }
        assert_eq!(svc.len(), KEYS as u64);
    }

    #[test]
    fn clone_shares_state() {
        let a = service();
        let b = a.clone();
        a.put("shared", "yes");
        assert_eq!(b.get(b"shared").unwrap().as_ref(), b"yes");
        assert!(!b.is_empty());
        b.remove(b"shared");
        assert_eq!(a.get(b"shared"), None);
        // The serving plane is shared too: a join through either handle
        // publishes an epoch both observe.
        let before = a.serve().epoch();
        b.join(SnodeId(3)).unwrap();
        assert_eq!(a.serve().epoch(), before + 1);
    }

    #[test]
    fn epochs_advance_once_per_maintenance_op() {
        let svc = service();
        assert_eq!(svc.serve().epoch(), 0, "seeded state is epoch 0");
        let (v, _) = svc.join(SnodeId(1)).unwrap();
        assert_eq!(svc.serve().epoch(), 1);
        svc.put("a", "1"); // data writes do not move routing epochs
        assert_eq!(svc.serve().epoch(), 1);
        svc.leave(v).unwrap();
        assert_eq!(svc.serve().epoch(), 2);
    }

    #[test]
    fn snapshot_routed_reads_match_live_reads() {
        let svc = service();
        for i in 0..300u32 {
            svc.put(format!("k{i}"), format!("v{i}"));
        }
        for s in 1..5u32 {
            svc.join(SnodeId(s)).unwrap();
        }
        let snap = svc.snapshot();
        for i in 0..300u32 {
            let key = format!("k{i}");
            assert_eq!(svc.get_at(&snap, key.as_bytes()), svc.get(key.as_bytes()));
        }
        assert_eq!(svc.get_at(&snap, b"missing"), None);
    }

    #[test]
    fn stale_pin_retries_to_the_next_epoch() {
        let svc = service();
        for i in 0..300u32 {
            svc.put(format!("k{i}"), format!("v{i}"));
        }
        // Pin, then rebalance: the pin is now one epoch stale.
        let mut pin = svc.snapshot();
        let pinned_epoch = pin.epoch();
        svc.join(SnodeId(8)).unwrap();
        let mut retried = 0u32;
        for i in 0..300u32 {
            let got = svc.get_routed(&mut pin, format!("k{i}").as_bytes());
            assert!(got.value.is_some(), "stale-route retry must converge on k{i}");
            assert!(got.retries <= 1, "one epoch of churn needs at most one retry");
            retried += got.retries;
        }
        assert!(retried > 0, "the join must have moved at least one probe key");
        assert_eq!(pin.epoch(), pinned_epoch + 1, "the pin settles on the next epoch");
        // Absent keys settle without looping.
        assert_eq!(svc.get_routed(&mut pin, b"missing").value, None);
    }

    #[test]
    fn routed_reads_tally_into_the_shared_stat_block() {
        let svc = service();
        for i in 0..200u32 {
            svc.put(format!("k{i}"), format!("v{i}"));
        }
        let mut pin = svc.snapshot();
        svc.join(SnodeId(8)).unwrap(); // the pin is now one epoch stale
        let mut expect_stale = 0u64;
        for i in 0..200u32 {
            expect_stale += u64::from(svc.get_routed(&mut pin, format!("k{i}").as_bytes()).retries);
        }
        let c = svc.read_stats().counters();
        assert_eq!(c.reads, 200);
        assert_eq!(c.stale_retries, expect_stale);
        assert_eq!(c.stale_reads, expect_stale, "one epoch of churn ⇒ ≤1 retry per read");
        assert_eq!(c.misses, 0);
        assert!(expect_stale > 0, "the join must have re-routed at least one probe");
        assert!(c.hit_rate() < 1.0);
        // Window diffing: a second tally since the first is all zeros.
        assert_eq!(svc.read_stats().counters().since(c), Default::default());
    }
}
