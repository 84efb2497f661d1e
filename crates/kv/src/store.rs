//! The key-value store over a DHT engine.
//!
//! Entries live at the vnode owning the key's hash point. Rebalancement
//! operations (vnode creation/removal, group splits/merges) stream
//! partition [`Transfer`] events; the store applies each one as data
//! migration *while the operation runs* (a `RebalanceSink` wired between
//! the engine and the caller's sink), so the routing invariant — *a key
//! is always stored exactly where `lookup` points* — survives arbitrary
//! elasticity with no materialised transfer list. Migration volume is
//! surfaced per operation (the KV-MIGRATE experiment prices it).

use crate::bucket::{
    bucket_bytes, bucket_get, bucket_take, bucket_upsert, detach_span, slot_of, Bucket,
};
use bytes::Bytes;
use domus_core::{
    CreateOutcome, DhtEngine, DhtError, EngineSnapshot, NullSink, RebalanceEvent, RebalanceSink,
    RemoveOutcome, SnodeId, Tee, Transfer, VnodeId,
};
use domus_hashspace::hasher::Fnv1aHasher;
use domus_hashspace::{HashSpace, KeyHasher};
use std::collections::BTreeMap;

/// What a rebalancement event moved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationReport {
    /// Entries moved between vnodes.
    pub entries: u64,
    /// Payload bytes moved (keys + values).
    pub bytes: u64,
    /// Partition transfers that carried them.
    pub transfers: u64,
}

/// The in-line migration tap: applies every streamed [`Transfer`] to the
/// entry maps *while the engine operation runs* and accumulates the
/// [`MigrationReport`].
struct MigrationSink<'a> {
    space: HashSpace,
    data: &'a mut Vec<BTreeMap<u64, Bucket>>,
    moved: MigrationReport,
}

impl MigrationSink<'_> {
    /// Applies one partition transfer: every entry whose point falls in
    /// the partition moves from `t.from` to `t.to`.
    fn apply_transfer(&mut self, t: &Transfer) {
        let start = t.partition.start(self.space);
        let end = t.partition.end(self.space); // u128: may be 2^Bh
        let moved = detach_span(slot_of(self.data, t.from), start, end);
        self.moved.transfers += 1;
        for bucket in moved.values() {
            self.moved.entries += bucket.len() as u64;
            self.moved.bytes += bucket_bytes(bucket);
        }
        slot_of(self.data, t.to).extend(moved);
    }
}

impl RebalanceSink for MigrationSink<'_> {
    fn event(&mut self, e: RebalanceEvent) {
        if let RebalanceEvent::Transfer(t) = e {
            self.apply_transfer(&t);
        }
    }
}

/// A replicated-nothing, in-memory KV store routed by a DHT engine.
///
/// ```
/// use domus_core::{DhtConfig, LocalDht, SnodeId};
/// use domus_hashspace::HashSpace;
/// use domus_kv::KvStore;
///
/// let cfg = DhtConfig::new(HashSpace::new(32), 4, 4).unwrap();
/// let mut kv = KvStore::new(LocalDht::with_seed(cfg, 1));
/// kv.join(SnodeId(0)).unwrap();
/// kv.put("user:42", "alice");
/// assert_eq!(kv.get(b"user:42").unwrap().as_ref(), b"alice");
/// ```
#[derive(Debug, Clone)]
pub struct KvStore<E: DhtEngine> {
    engine: E,
    /// Entry maps indexed by vnode arena slot (grown on demand).
    data: Vec<BTreeMap<u64, Bucket>>,
    entries: u64,
}

impl<E: DhtEngine> KvStore<E> {
    /// Wraps an engine (which may already contain vnodes — empty stores
    /// are attached to them).
    pub fn new(engine: E) -> Self {
        Self { engine, data: Vec::new(), entries: 0 }
    }

    /// The underlying engine.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Number of stored entries.
    pub fn len(&self) -> u64 {
        self.entries
    }

    /// `true` when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// The vnode responsible for a key.
    pub fn route(&self, key: &[u8]) -> Option<VnodeId> {
        let point = Fnv1aHasher.point(key, self.engine.config().hash_space());
        self.engine.lookup(point).map(|(_, v)| v)
    }

    /// Inserts or replaces an entry. Returns the previous value.
    ///
    /// # Panics
    /// Panics if the DHT has no vnodes yet (nothing can own the key).
    pub fn put(&mut self, key: impl Into<Bytes>, value: impl Into<Bytes>) -> Option<Bytes> {
        let key = key.into();
        let value = value.into();
        let point = Fnv1aHasher.point(&key, self.engine.config().hash_space());
        let (_, v) = self.engine.lookup(point).expect("put on an empty DHT");
        let prev = bucket_upsert(slot_of(&mut self.data, v).entry(point).or_default(), key, value);
        self.entries += u64::from(prev.is_none());
        prev
    }

    /// Looks a key up.
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        let point = Fnv1aHasher.point(key, self.engine.config().hash_space());
        let (_, v) = self.engine.lookup(point)?;
        bucket_get(self.data.get(v.index())?.get(&point)?, key).cloned()
    }

    /// The vnode responsible for a key per a pinned routing snapshot
    /// (serving-plane route — never consults the live engine).
    pub fn route_at(&self, snap: &EngineSnapshot, key: &[u8]) -> Option<VnodeId> {
        snap.owner_of(Fnv1aHasher.point(key, snap.space()))
    }

    /// Looks a key up through a pinned routing snapshot: the bucket the
    /// *snapshot* routes to. A miss can mean the key is absent **or**
    /// that the pinned epoch is stale (the key migrated since); callers
    /// holding a [`domus_core::SnapshotCell`] disambiguate by re-pinning
    /// when the cell's epoch moved (see `KvService::get_routed`).
    pub fn get_at(&self, snap: &EngineSnapshot, key: &[u8]) -> Option<Bytes> {
        let point = Fnv1aHasher.point(key, snap.space());
        let v = snap.owner_of(point)?;
        bucket_get(self.data.get(v.index())?.get(&point)?, key).cloned()
    }

    /// Removes a key, returning its value.
    pub fn remove(&mut self, key: &[u8]) -> Option<Bytes> {
        let point = Fnv1aHasher.point(key, self.engine.config().hash_space());
        let (_, v) = self.engine.lookup(point)?;
        let map = self.data.get_mut(v.index())?;
        let bucket = map.get_mut(&point)?;
        let value = bucket_take(bucket, key)?;
        if bucket.is_empty() {
            map.remove(&point);
        }
        self.entries -= 1;
        Some(value)
    }

    /// Creates a vnode on `snode` and migrates the data its arrival pulls
    /// in.
    pub fn join(&mut self, snode: SnodeId) -> Result<(VnodeId, MigrationReport), DhtError> {
        let (out, mig) = self.join_with(snode, &mut NullSink)?;
        Ok((out.vnode, mig))
    }

    /// Creates a vnode, applying each streamed [`Transfer`] to the stored
    /// data *as it happens* and forwarding every event to `sink` — the
    /// allocation-free surface replay layers (the churn driver) price
    /// events through.
    pub fn join_with(
        &mut self,
        snode: SnodeId,
        sink: &mut dyn RebalanceSink,
    ) -> Result<(CreateOutcome, MigrationReport), DhtError> {
        self.migrating(sink, |e, tap| e.create_vnode_with(snode, tap))
    }

    /// Removes a vnode and migrates its data out.
    pub fn leave(&mut self, v: VnodeId) -> Result<MigrationReport, DhtError> {
        self.leave_with(v, &mut NullSink).map(|(_, mig)| mig)
    }

    /// Removes a vnode, applying each streamed [`Transfer`] to the stored
    /// data as it happens and forwarding every event to `sink`.
    pub fn leave_with(
        &mut self,
        v: VnodeId,
        sink: &mut dyn RebalanceSink,
    ) -> Result<(RemoveOutcome, MigrationReport), DhtError> {
        let moved = self.migrating(sink, |e, tap| e.remove_vnode_with(v, tap))?;
        debug_assert!(
            self.data.get(v.index()).map(BTreeMap::is_empty).unwrap_or(true),
            "transfers must drain the departing vnode"
        );
        Ok(moved)
    }

    /// Runs one engine membership operation with the in-line migration
    /// tap tee'd before `sink`.
    fn migrating<T>(
        &mut self,
        sink: &mut dyn RebalanceSink,
        op: impl FnOnce(&mut E, &mut dyn RebalanceSink) -> Result<T, DhtError>,
    ) -> Result<(T, MigrationReport), DhtError> {
        let space = self.engine.config().hash_space();
        let moved = MigrationReport::default();
        let mut migrate = MigrationSink { space, data: &mut self.data, moved };
        let outcome = op(&mut self.engine, &mut Tee(&mut migrate, sink))?;
        Ok((outcome, migrate.moved))
    }

    /// Every stored key, in deterministic (owner slot, hash point, chain)
    /// order — the iteration order is stable across runs with the same
    /// history, so snapshots are directly comparable.
    pub fn snapshot_keys(&self) -> Vec<Bytes> {
        self.data.iter().flat_map(BTreeMap::values).flatten().map(|(k, _)| k.clone()).collect()
    }

    /// Verifies that every stored entry sits exactly where routing points
    /// (test/debug oracle, O(entries)).
    pub fn verify_placement(&self) -> Result<(), String> {
        let space = self.engine.config().hash_space();
        let mut count = 0u64;
        for (slot, map) in self.data.iter().enumerate() {
            for (&point, bucket) in map {
                for (key, _) in bucket {
                    count += 1;
                    if Fnv1aHasher.point(key, space) != point {
                        return Err(format!("key stored under wrong point {point}"));
                    }
                    match self.engine.lookup(point) {
                        Some((_, v)) if v.index() == slot => {}
                        other => {
                            return Err(format!(
                                "entry at slot {slot} point {point} routed to {other:?}"
                            ));
                        }
                    }
                }
            }
        }
        if count != self.entries {
            return Err(format!("entry counter {} != stored {count}", self.entries));
        }
        Ok(())
    }

    /// Entries per vnode, in creation order (storage-balance view).
    pub fn entries_per_vnode(&self) -> Vec<(VnodeId, u64)> {
        let mut out = Vec::with_capacity(self.engine.vnode_count());
        self.engine.for_each_vnode(&mut |v| {
            let held = self.data.get(v.index());
            let n = held.map_or(0, |m| m.values().map(|b| b.len() as u64).sum());
            out.push((v, n));
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domus_core::{DhtConfig, LocalDht};
    use domus_hashspace::HashSpace;

    fn store() -> KvStore<LocalDht> {
        let cfg = DhtConfig::new(HashSpace::new(32), 4, 2).unwrap();
        let mut kv = KvStore::new(LocalDht::with_seed(cfg, 3));
        kv.join(SnodeId(0)).unwrap();
        kv
    }

    #[test]
    fn put_get_remove_roundtrip() {
        let mut kv = store();
        assert_eq!(kv.put("k1", "v1"), None);
        assert_eq!(kv.put("k2", "v2"), None);
        assert_eq!(kv.get(b"k1").unwrap().as_ref(), b"v1");
        assert_eq!(kv.put("k1", "v1b").unwrap().as_ref(), b"v1");
        assert_eq!(kv.get(b"k1").unwrap().as_ref(), b"v1b");
        assert_eq!(kv.len(), 2);
        assert_eq!(kv.remove(b"k1").unwrap().as_ref(), b"v1b");
        assert_eq!(kv.get(b"k1"), None);
        assert_eq!(kv.len(), 1);
        assert_eq!(kv.remove(b"missing"), None);
        kv.verify_placement().unwrap();
    }

    #[test]
    fn data_follows_rebalancing_on_join() {
        let mut kv = store();
        for i in 0..500u32 {
            kv.put(format!("key:{i}"), format!("value-{i}"));
        }
        let mut migrated_total = 0;
        for s in 1..12u32 {
            let (_, rep) = kv.join(SnodeId(s)).unwrap();
            migrated_total += rep.entries;
            kv.verify_placement().unwrap_or_else(|e| panic!("after join {s}: {e}"));
        }
        assert!(migrated_total > 0, "joins must pull data over");
        assert_eq!(kv.len(), 500);
        for i in 0..500u32 {
            assert_eq!(
                kv.get(format!("key:{i}").as_bytes()).unwrap().as_ref(),
                format!("value-{i}").as_bytes()
            );
        }
    }

    #[test]
    fn data_survives_leaves() {
        let mut kv = store();
        for s in 1..10u32 {
            kv.join(SnodeId(s)).unwrap();
        }
        for i in 0..300u32 {
            kv.put(format!("key:{i}"), format!("value-{i}"));
        }
        // Remove half the vnodes.
        let vnodes = kv.engine().vnodes();
        for v in vnodes.into_iter().take(5) {
            kv.leave(v).unwrap();
            kv.verify_placement().unwrap_or_else(|e| panic!("after leaving {v}: {e}"));
        }
        assert_eq!(kv.len(), 300);
        for i in 0..300u32 {
            assert!(kv.get(format!("key:{i}").as_bytes()).is_some(), "key:{i} lost");
        }
    }

    #[test]
    fn storage_roughly_tracks_quota() {
        let mut kv = store();
        for s in 1..8u32 {
            kv.join(SnodeId(s)).unwrap();
        }
        for i in 0..4000u32 {
            kv.put(format!("key:{i}"), "x");
        }
        // Each vnode's entry share should be within a loose band of its
        // quota (hashing noise at 4000 keys is a few percent).
        let total = kv.len() as f64;
        for (v, n) in kv.entries_per_vnode() {
            let quota = kv.engine().quota_of(v).unwrap();
            let share = n as f64 / total;
            assert!((share - quota).abs() < 0.05, "{v}: share {share:.3} vs quota {quota:.3}");
        }
    }

    #[test]
    fn empty_dht_routes_nothing() {
        let cfg = DhtConfig::new(HashSpace::new(32), 4, 2).unwrap();
        let kv = KvStore::new(LocalDht::with_seed(cfg, 3));
        assert_eq!(kv.get(b"nope"), None);
        assert!(kv.is_empty());
        assert_eq!(kv.route(b"nope"), None);
    }

    #[test]
    fn churn_preserves_every_entry() {
        let mut kv = store();
        let mut next_snode = 1u32;
        for i in 0..200u32 {
            kv.put(format!("k{i}"), format!("v{i}"));
        }
        for round in 0..6 {
            for _ in 0..3 {
                kv.join(SnodeId(next_snode)).unwrap();
                next_snode += 1;
            }
            let vnodes = kv.engine().vnodes();
            kv.leave(vnodes[round % vnodes.len()]).unwrap();
            kv.verify_placement().unwrap_or_else(|e| panic!("round {round}: {e}"));
        }
        for i in 0..200u32 {
            assert_eq!(
                kv.get(format!("k{i}").as_bytes()).unwrap().as_ref(),
                format!("v{i}").as_bytes()
            );
        }
    }
}
