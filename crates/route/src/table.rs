//! Route versions and the client-side [`RouteCache`].
//!
//! The control plane's *unit of distribution* is the serving plane's own
//! [`EngineSnapshot`]: one immutable view of "which vnode (and so which
//! snode) serves each hash-space span", whose epoch **is** its
//! [`RouteVersion`] — monotone across publishes and comparable across
//! clients.
//!
//! A `RouteCache` is what a client actually holds: the last snapshot it
//! pinned and the cell it pins from. Every resolution repairs staleness
//! in **at most one round**: if the cell's epoch moved past the pinned
//! version, the cache re-pins once and resolves on the fresh snapshot —
//! the generalization of the per-read retry in `KvService::get_routed`
//! to any routing consumer.

use bytes::Bytes;
use domus_core::{DhtEngine, EngineSnapshot, RouteStats, SnapshotCell, SnodeId, VnodeId};
use domus_kv::KvService;
use std::sync::Arc;

/// A monotone shard-map version — the serving-plane epoch of a pinned
/// snapshot (`RouteVersion(snap.epoch())`). Orders naturally: a larger
/// version supersedes a smaller one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RouteVersion(pub u64);

impl std::fmt::Display for RouteVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A client-side route cache with ≤1-round stale-route repair.
///
/// Holds the last snapshot pinned from a [`SnapshotCell`].
/// [`RouteCache::lookup`] resolves against the pinned snapshot after at
/// most one refresh: the pin is replaced exactly when the cell published
/// a newer version. Every resolution lands in a shared
/// [`RouteStats`] block — pass the service's own block to
/// [`RouteCache::with_stats`] to tally cache and service reads together.
#[derive(Debug)]
pub struct RouteCache {
    cell: Arc<SnapshotCell>,
    pinned: Arc<EngineSnapshot>,
    stats: Arc<RouteStats>,
}

impl RouteCache {
    /// A cache pinned to `cell`'s current version, with its own stats.
    pub fn new(cell: Arc<SnapshotCell>) -> Self {
        Self::with_stats(cell, Arc::new(RouteStats::new()))
    }

    /// A cache recording into a caller-shared stat block.
    pub fn with_stats(cell: Arc<SnapshotCell>, stats: Arc<RouteStats>) -> Self {
        let pinned = cell.load();
        Self { cell, pinned, stats }
    }

    /// The version currently pinned.
    pub fn version(&self) -> RouteVersion {
        RouteVersion(self.pinned.epoch())
    }

    /// The stat block resolutions are tallied into.
    pub fn stats(&self) -> &Arc<RouteStats> {
        &self.stats
    }

    /// Re-pins if (and only if) the cell moved on. Returns `true` when a
    /// refresh happened — the "stale" half of the hit/stale ratio.
    pub fn refresh(&mut self) -> bool {
        if self.cell.is_stale(&self.pinned) {
            self.pinned = self.cell.load();
            true
        } else {
            false
        }
    }

    /// Routes a hash point through the cache: at most one refresh, then
    /// a lookup on the pinned snapshot. Records one read (stale iff a
    /// refresh happened) into the stat block.
    pub fn lookup(&mut self, point: u64) -> Option<(VnodeId, SnodeId)> {
        let refreshed = self.refresh();
        let hit = self.pinned.lookup(point);
        self.stats.record(u32::from(refreshed), hit.is_none());
        hit
    }

    /// A cache-routed KV read: delegates to [`KvService::get_routed`]
    /// with the cache's pin (the service records the read into *its*
    /// stat block — share one block via [`RouteCache::with_stats`] for a
    /// combined tally). The pin is left on the epoch the read settled
    /// on, so a read loop amortises one refresh across many keys.
    pub fn get<E: DhtEngine>(&mut self, svc: &KvService<E>, key: &[u8]) -> Option<Bytes> {
        svc.get_routed(&mut self.pinned, key).value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domus_core::{DhtConfig, EngineSnapshot, LocalDht, NullSink};
    use domus_hashspace::HashSpace;
    use domus_kv::KvStore;

    fn space() -> HashSpace {
        HashSpace::new(32)
    }

    fn grown(snodes: u32) -> (LocalDht, SnapshotCell) {
        let cfg = DhtConfig::new(space(), 4, 2).unwrap();
        let mut dht = LocalDht::with_seed(cfg, 2004);
        for s in 0..snodes {
            dht.create_vnode_with(SnodeId(s), &mut NullSink).unwrap();
        }
        let cell = SnapshotCell::new(EngineSnapshot::from_engine(&dht, 0));
        (dht, cell)
    }

    #[test]
    fn versions_are_monotone_across_publishes() {
        let (mut dht, cell) = grown(4);
        let cell = Arc::new(cell);
        let mut cache = RouteCache::new(Arc::clone(&cell));
        let mut last = cache.version();
        for s in 4..10u32 {
            dht.create_vnode_with(SnodeId(s), &mut NullSink).unwrap();
            cell.publish_next(&dht);
            assert!(cache.refresh(), "a publish must stale the pin");
            let v = cache.version();
            assert!(v > last, "versions must be monotone: {v} after {last}");
            assert_eq!(v, RouteVersion(cell.epoch()));
            last = v;
        }
    }

    #[test]
    fn cache_repairs_staleness_in_one_round() {
        let (mut dht, cell) = grown(4);
        let cell = Arc::new(cell);
        let mut cache = RouteCache::new(Arc::clone(&cell));
        let grid: Vec<u64> = (0..64u64).map(|i| i << 26).collect();
        for &p in &grid {
            cache.lookup(p);
        }
        let before = cache.stats().counters();
        assert_eq!(before.reads, 64);
        assert_eq!(before.stale_reads, 0, "a fresh pin never refreshes");
        // One membership change → exactly one refresh over the next sweep.
        dht.create_vnode_with(SnodeId(9), &mut NullSink).unwrap();
        cell.publish_next(&dht);
        for &p in &grid {
            let cached = cache.lookup(p);
            let (_, owner) = dht.lookup(p).unwrap();
            assert_eq!(cached.map(|(v, _)| v), Some(owner), "repaired route must be live");
        }
        let delta = cache.stats().counters().since(before);
        assert_eq!(delta.reads, 64);
        assert_eq!(delta.stale_reads, 1, "≤1-round repair: one refresh per epoch, not per read");
        assert_eq!(cache.version(), RouteVersion(cell.epoch()));
    }

    #[test]
    fn cache_routed_kv_reads_share_the_service_stat_block() {
        let cfg = DhtConfig::new(space(), 4, 2).unwrap();
        let mut store = KvStore::new(LocalDht::with_seed(cfg, 5));
        store.join(SnodeId(0)).unwrap();
        let svc = KvService::new(store);
        for i in 0..200u32 {
            svc.put(format!("k{i}"), format!("v{i}"));
        }
        let mut cache =
            RouteCache::with_stats(Arc::clone(svc.serve()), Arc::clone(svc.read_stats()));
        svc.join(SnodeId(1)).unwrap(); // stale the pin
        for i in 0..200u32 {
            assert!(cache.get(&svc, format!("k{i}").as_bytes()).is_some());
        }
        let c = svc.read_stats().counters();
        assert_eq!(c.reads, 200, "service and cache tally into one block");
        assert_eq!(c.misses, 0);
    }
}
