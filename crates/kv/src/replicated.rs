//! Cluster-aware replication over any [`DhtEngine`].
//!
//! The plain [`crate::KvStore`] holds every entry exactly once: a
//! graceful leave migrates data out in-line, but an **ungraceful** crash
//! destroys whatever the failed snode held. [`ReplicatedStore`] closes
//! that gap with the replica policy the cluster-replication literature
//! (Ayyasamy & Sivanandam; Leslie et al.) layers on structured overlays,
//! one concern per submodule:
//!
//! * **Placement** (`placement`) — each entry lives on `R` vnodes hosted
//!   by *distinct* snodes: the point's owner, then the first vnode of
//!   each previously unseen snode along the successor walk
//!   ([`DhtEngine::for_each_successor`]), so one snode crash destroys at
//!   most one copy of any entry. Membership operations stream
//!   [`domus_core::RebalanceEvent`]s; the store collects each transfer's
//!   partition, extends it *backwards* across up to `R` distinct
//!   predecessor snodes and rebuilds placement for exactly those ranges
//!   — never a full keyspace rescan.
//! * **Reads** (`read`) — [`ReplicatedStore::get`] returns the first copy
//!   along the chain; [`ReplicatedStore::get_quorum`] also counts live
//!   copies against the majority quorum `⌊R/2⌋+1`, the availability
//!   figure the churn harness samples.
//! * **Crash and recovery** (`recovery`) —
//!   [`ReplicatedStore::fail_snode_with`] destroys the victim's slots,
//!   relocates surviving copies without minting new ones and leaves the
//!   touched ranges **pending**; every write is appended to its holders'
//!   per-snode [`SegmentedWal`] as it is applied, the victim's log
//!   survives the crash, and [`ReplicatedStore::rejoin_snode`] replays it.
//! * **Anti-entropy** (`repair`) — [`ReplicatedStore::repair`] restores
//!   pending ranges to full strength by Merkle-comparing per-bucket
//!   digests, shipping only what diverges
//!   ([`RepairReport::bytes_shipped`] vs [`RepairReport::bytes_full`]).
//! * **The copy arena** (`slots`) — the one type that touches a copy or
//!   its digest.
//!
//! This file keeps the struct, the write path and the invariant oracle.

mod placement;
mod read;
mod recovery;
mod repair;
mod slots;
#[cfg(test)]
mod tests;

pub use read::{QuorumRead, RoutedQuorum};
pub use recovery::{CrashReport, RejoinReport};
pub use repair::RepairReport;

use bytes::Bytes;
use domus_core::{DhtEngine, RouteStats, SnodeId};
use domus_hashspace::hasher::Fnv1aHasher;
use domus_hashspace::{HashSpace, KeyHasher};
use domus_wal::{SegmentedWal, WalRecord};
use placement::{replicas_for, Range};
use slots::Slots;
use std::collections::BTreeMap;
use std::sync::Arc;

/// An in-memory KV store placing every entry on `R` distinct snodes.
///
/// ```
/// use domus_core::{DhtConfig, DhtEngine, LocalDht, SnodeId};
/// use domus_hashspace::HashSpace;
/// use domus_kv::ReplicatedStore;
///
/// let cfg = DhtConfig::new(HashSpace::new(32), 4, 2).unwrap();
/// let mut kv = ReplicatedStore::new(LocalDht::with_seed(cfg, 1), 2);
/// for s in 0..4u32 {
///     kv.join(SnodeId(s)).unwrap();
/// }
/// kv.put("user:42", "alice");
/// // The crash of any single snode cannot lose the entry at R = 2 —
/// // not even the primary's.
/// let primary = kv.route(b"user:42").unwrap();
/// let victim = kv.engine().snode_of(primary).unwrap();
/// let report = kv.fail_snode(victim).unwrap();
/// assert_eq!(report.keys_lost, 0);
/// assert_eq!(kv.get(b"user:42").unwrap().as_ref(), b"alice");
/// kv.repair();
/// assert!(kv.get_quorum(b"user:42").available());
/// ```
#[derive(Debug, Clone)]
pub struct ReplicatedStore<E: DhtEngine> {
    engine: E,
    /// Replication factor `R ≥ 1` (effective factor is capped by the
    /// number of distinct live snodes).
    r: usize,
    /// Routed-read statistics ([`ReplicatedStore::get_quorum_routed`]).
    stats: Arc<RouteStats>,
    /// Every replica copy and its bucket digest.
    slots: Slots,
    /// Per-snode write-ahead logs. A crash leaves the victim's log in
    /// place (the disk survives); only the in-memory slots die.
    wals: BTreeMap<SnodeId, SegmentedWal>,
    /// Snodes crashed and not yet rejoined, with the vnode count each
    /// hosted at crash time (the size [`ReplicatedStore::rejoin_snode`]
    /// re-enrols).
    crashed: BTreeMap<SnodeId, usize>,
    /// Distinct live keys (≥ one surviving copy).
    keys: u64,
    /// Under-replicated ranges awaiting [`ReplicatedStore::repair`]
    /// (recorded by crashes; graceful changes repair in-line).
    pending: Vec<Range>,
}

impl<E: DhtEngine> ReplicatedStore<E> {
    /// Wraps an engine (which may already contain vnodes) with replication
    /// factor `r`.
    ///
    /// # Panics
    /// Panics when `r == 0`.
    pub fn new(engine: E, r: usize) -> Self {
        assert!(r >= 1, "replication factor must be at least 1");
        Self {
            engine,
            r,
            stats: Arc::new(RouteStats::new()),
            slots: Slots::default(),
            wals: BTreeMap::new(),
            crashed: BTreeMap::new(),
            keys: 0,
            pending: Vec::new(),
        }
    }

    /// The write-ahead log of one snode, if it ever received a record.
    pub fn wal_of(&self, s: SnodeId) -> Option<&SegmentedWal> {
        self.wals.get(&s)
    }

    /// Snodes crashed and awaiting [`ReplicatedStore::rejoin_snode`],
    /// with the vnode count each hosted at crash time.
    pub fn crashed_snodes(&self) -> Vec<(SnodeId, usize)> {
        self.crashed.iter().map(|(&s, &n)| (s, n)).collect()
    }

    /// The store's routed-read statistics: every
    /// [`ReplicatedStore::get_quorum_routed`] records its retry count
    /// here. Clones share the block; a `domus-route` cache can share the
    /// same `Arc` to tally cache and store reads in one place.
    pub fn read_stats(&self) -> &Arc<RouteStats> {
        &self.stats
    }

    /// The underlying engine.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// The majority quorum `⌊R/2⌋+1`.
    pub fn quorum(&self) -> u32 {
        (self.r / 2 + 1) as u32
    }

    /// Number of distinct live keys.
    pub fn len(&self) -> u64 {
        self.keys
    }

    /// `true` when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.keys == 0
    }

    /// Total replica copies currently stored (`R × len` at full strength).
    pub fn copies(&self) -> u64 {
        self.slots.copies()
    }

    /// `true` while crash-touched ranges await [`ReplicatedStore::repair`].
    pub fn has_pending_repair(&self) -> bool {
        !self.pending.is_empty()
    }

    fn space(&self) -> HashSpace {
        self.engine.config().hash_space()
    }

    fn point_of(&self, key: &[u8]) -> u64 {
        Fnv1aHasher.point(key, self.space())
    }

    /// Inserts or replaces an entry on every replica. Returns the previous
    /// value and restores full replication for this key even when its
    /// range is pending repair. Each holder logs the write to its WAL
    /// before the in-memory copy mutates — the write-ahead discipline
    /// [`ReplicatedStore::rejoin_snode`] replays after a crash.
    ///
    /// # Panics
    /// Panics if the DHT has no vnodes yet.
    pub fn put(&mut self, key: impl Into<Bytes>, value: impl Into<Bytes>) -> Option<Bytes> {
        let key = key.into();
        let value = value.into();
        let point = self.point_of(&key);
        let replicas = replicas_for(&self.engine, self.r, point);
        assert!(!replicas.is_empty(), "put on an empty DHT");
        let record = WalRecord::Put { key: key.clone(), value: value.clone() };
        let mut prev = None;
        for (i, &(v, s)) in replicas.iter().enumerate() {
            self.wals.entry(s).or_default().append(&record);
            let old = self.slots.upsert(v, point, &key, &value);
            if i == 0 {
                prev = old;
            }
        }
        self.keys += u64::from(prev.is_none());
        prev
    }

    /// Removes a key from every replica, returning its value. The
    /// removal is tombstoned into every snode's WAL — any log may still
    /// carry an old `Put` for the key — so replay after a
    /// crash-then-rejoin never resurrects a deleted key.
    pub fn remove(&mut self, key: &[u8]) -> Option<Bytes> {
        let point = self.point_of(key);
        let record = WalRecord::Remove { key: Bytes::copy_from_slice(key) };
        let mut removed = None;
        for (v, _) in replicas_for(&self.engine, self.r, point) {
            if let Some(value) = self.slots.take(v, point, key) {
                removed.get_or_insert(value);
            }
        }
        // Tombstone the removal into *every* log, not just the current
        // holders': migration re-logs copies on their new homes, so any
        // snode that ever held this key — live ex-holders and crashed
        // snodes alike — may still carry an old `Put` for it, and replay
        // on rejoin would resurrect it unless the same log records the
        // later removal (the fold is in sequence order, so the tombstone
        // wins). Crashed snodes always have a log entry in `wals`, so
        // iterating the map covers them too. Unconditional on purpose: a
        // key whose copies were all crash-destroyed reads back `None`
        // here, yet a crashed holder's log still carries its `Put` — the
        // removal must outrank that record when the holder rejoins.
        for wal in self.wals.values_mut() {
            wal.append(&record);
        }
        self.keys -= u64::from(removed.is_some());
        removed
    }

    /// Every live key, in deterministic (hash point, key) order, read off
    /// the primary copies.
    pub fn snapshot_keys(&self) -> Vec<Bytes> {
        let is_primary =
            |slot, point| self.engine.lookup(point).map(|(_, v)| v.index()) == Some(slot);
        let mut points: Vec<_> =
            self.slots.buckets().filter(|&(slot, point, _)| is_primary(slot, point)).collect();
        points.sort_unstable_by_key(|&(_, point, _)| point);
        points
            .into_iter()
            .flat_map(|(_, _, bucket)| bucket.iter().map(|(k, _)| k.clone()))
            .collect()
    }

    /// Verifies the replication invariants — the test/debug oracle,
    /// `O(copies · R)`:
    ///
    /// 1. every copy sits on a replica of its point's current chain;
    /// 2. copies form a placement-order **prefix** of the chain (so the
    ///    primary always holds every live key and fallback reads hit on
    ///    the first probe), with byte-identical values;
    /// 3. the key counter matches the number of primary copies;
    /// 4. with no repair pending, every key is fully replicated
    ///    (`min(R, distinct snodes)` copies);
    /// 5. every bucket digest equals a fresh recomputation from its
    ///    entries.
    pub fn verify_replication(&self) -> Result<(), String> {
        let mut primaries = 0u64;
        for (slot, point, bucket) in self.slots.buckets() {
            for (key, value) in bucket {
                if self.point_of(key) != point {
                    return Err(format!("key stored under wrong point {point}"));
                }
                let replicas = replicas_for(&self.engine, self.r, point);
                let pos =
                    replicas.iter().position(|(v, _)| v.index() == slot).ok_or_else(|| {
                        format!("copy at point {point} on slot {slot}, not a replica")
                    })?;
                let mut copies = 0usize;
                for (i, &(rv, _)) in replicas.iter().enumerate() {
                    match self.slots.probe(rv, point, key) {
                        Some(v) if v == value => copies += 1,
                        Some(_) => return Err(format!("replica divergence at point {point}")),
                        None if i < pos => {
                            return Err(format!(
                                "copies at point {point} are not a placement prefix"
                            ));
                        }
                        None => {}
                    }
                }
                if self.pending.is_empty() && copies != replicas.len() {
                    return Err(format!(
                        "point {point}: {copies} copies, expected {}",
                        replicas.len()
                    ));
                }
                if pos == 0 {
                    primaries += 1;
                }
            }
        }
        if primaries != self.keys {
            return Err(format!("key counter {} but {primaries} primary copies", self.keys));
        }
        self.slots.verify()
    }
}
