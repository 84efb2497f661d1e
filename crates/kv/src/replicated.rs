//! Cluster-aware replication over any [`DhtEngine`].
//!
//! The plain [`crate::KvStore`] holds every entry exactly once: a
//! graceful leave migrates data out in-line, but an **ungraceful** crash
//! destroys whatever the failed snode held. [`ReplicatedStore`] closes
//! that gap with the replica policy the cluster-replication literature
//! (Ayyasamy & Sivanandam; Leslie et al.) layers on structured overlays:
//!
//! * **Placement** — each entry lives on `R` vnodes hosted by *distinct*
//!   snodes: the primary is the point's owner, the followers are found by
//!   walking successor partitions ([`DhtEngine::for_each_successor`]) and
//!   taking the first vnode of each previously unseen snode. Replicas are
//!   therefore never co-located on one snode, so a single snode crash can
//!   destroy at most one copy of any entry.
//! * **Reads** — [`ReplicatedStore::get`] probes the replica chain in
//!   placement order and returns the first copy found (fallback read);
//!   [`ReplicatedStore::get_quorum`] additionally counts the live copies
//!   against the majority quorum `⌊R/2⌋+1`, the availability figure the
//!   churn harness samples.
//! * **Repair from events** — membership operations stream
//!   [`RebalanceEvent`]s; the store collects each
//!   [`domus_core::Transfer`]'s partition (plus every `VnodeMigrated`
//!   fallout, which also arrives as transfers), extends each touched
//!   range *backwards* across up to `R`
//!   distinct predecessor snodes (a change at partition `Q` can only
//!   shift the follower sets of ranges whose successor walk reaches `Q`),
//!   and rebuilds replica placement for exactly those ranges — incremental
//!   re-replication, never a full keyspace rescan.
//! * **Crash** — [`ReplicatedStore::fail_snode_with`] destroys the failed
//!   snode's slots *before* driving [`DhtEngine::fail_snode`], then
//!   relocates the surviving copies onto the new replica chains without
//!   minting new ones (placement heals, redundancy does not), records the
//!   touched ranges as **pending**, and accounts exactly which keys had
//!   their last copy on the failed snode. A later
//!   [`ReplicatedStore::repair`] re-replicates the pending ranges back to
//!   full strength — the window between the two is where quorum
//!   availability measurably dips.
//! * **Durability** — every put/remove is appended to the per-snode
//!   [`SegmentedWal`] of each replica holder *as it is applied*, and
//!   every placement decision of a rebuild is logged too. A crash leaves
//!   the victim's log intact (it models the surviving disk), so
//!   [`ReplicatedStore::rejoin_snode`] can re-enrol the snode and
//!   **replay** its log — restoring keys whose last in-memory copy died
//!   with the crash (the `R = 1` loss class) — instead of rebuilding the
//!   snode wholesale from replicas. Replay re-homes every still-live key
//!   onto its current primary's log and then checkpoints the rejoined
//!   log, which is what lets segments truncate.
//! * **Anti-entropy** — each vnode slot carries an incrementally
//!   maintained bucket-digest map (XOR of [`entry_hash`] per bucket),
//!   updated by the same code paths that move data. Repair builds a
//!   per-partition [`DigestTree`] over the primary's and each follower's
//!   span from those digests and walks the Merkle diff, so only the
//!   buckets that actually diverge are shipped — the full-rebuild byte
//!   cost is reported alongside for comparison
//!   ([`RepairReport::bytes_shipped`] vs [`RepairReport::bytes_full`]).

use crate::store::{bucket_search, slot_of, Bucket};
use bytes::Bytes;
use domus_core::{
    CreateOutcome, DhtEngine, DhtError, EngineSnapshot, NullSink, RebalanceEvent, RebalanceSink,
    RemoveOutcome, RouteStats, SnapshotCell, SnodeId, VnodeId,
};
use domus_hashspace::hasher::Fnv1aHasher;
use domus_hashspace::{HashSpace, KeyHasher, Partition};
use domus_wal::{entry_hash, DigestTree, SegmentedWal, WalRecord};
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

/// A half-open hash-space range `[start, end)` (`end` is `u128` because
/// the full space's top is `2^Bh`).
type Range = (u64, u128);

/// Forwards every event to the caller's sink while collecting the
/// hash-space ranges the operation touched (one per streamed transfer).
struct RangeTap<'a> {
    space: HashSpace,
    out: &'a mut dyn RebalanceSink,
    touched: Vec<Range>,
}

impl<'a> RangeTap<'a> {
    fn new(space: HashSpace, out: &'a mut dyn RebalanceSink) -> Self {
        Self { space, out, touched: Vec::new() }
    }
}

impl RebalanceSink for RangeTap<'_> {
    fn event(&mut self, e: RebalanceEvent) {
        if let RebalanceEvent::Transfer(t) = e {
            self.touched.push((t.partition.start(self.space), t.partition.end(self.space)));
        }
        self.out.event(e);
    }
}

/// What one [`ReplicatedStore::fail_snode_with`] crash did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrashReport {
    /// Vnodes of the failed snode torn down.
    pub vnodes_failed: usize,
    /// Handle renames group-merge migrations applied to *survivors* while
    /// the crash was absorbed (`(old, new)`), for roster bookkeeping.
    pub renames: Vec<(VnodeId, VnodeId)>,
    /// Replica copies destroyed with the snode.
    pub copies_destroyed: u64,
    /// Keys whose **last** copy was destroyed — unrecoverable. Zero
    /// whenever `R ≥ 2` copies existed and at most this one snode was
    /// lost since the last repair.
    pub keys_lost: u64,
    /// Surviving copies relocated onto their new replica chains.
    pub copies_relocated: u64,
}

/// What one repair pass ([`ReplicatedStore::repair`] or the in-line
/// repair of a graceful membership change) did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Disjoint hash-space ranges rebuilt.
    pub ranges: usize,
    /// Replica copies placed (moves + newly minted replicas).
    pub copies_placed: u64,
    /// Entry bytes actually shipped between replicas (digest-driven
    /// repair ships only divergent buckets; in-line rebuilds of graceful
    /// changes count everything they re-place).
    pub bytes_shipped: u64,
    /// Entry bytes a digest-less full rebuild of the same ranges would
    /// have shipped (every entry to every chain slot) — the baseline
    /// [`RepairReport::bytes_shipped`] is measured against.
    pub bytes_full: u64,
}

/// What one [`ReplicatedStore::rejoin_snode`] crash-recovery did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RejoinReport {
    /// Fresh vnodes the snode was re-enrolled with (its count at crash
    /// time).
    pub vnodes: usize,
    /// The re-enrolled vnodes' fresh handles, in creation order.
    pub handles: Vec<VnodeId>,
    /// WAL records scanned during replay (puts, removes, placements).
    pub wal_records: u64,
    /// Framed WAL bytes scanned during replay.
    pub wal_bytes: u64,
    /// Keys restored by replay: present in the log's final state but
    /// absent from every live replica — the copies a digest-less rebuild
    /// could never get back.
    pub recovered: u64,
    /// Records unreadable due to a framing error (torn frame stops the
    /// replay; always 0 for the in-process log).
    pub torn: u64,
    /// The in-line rebuild of the ranges the re-enrolment touched.
    pub repair: RepairReport,
}

/// One quorum read ([`ReplicatedStore::get_quorum`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuorumRead {
    /// The value, from the first replica holding a copy (`None` when no
    /// copy survives anywhere on the chain).
    pub value: Option<Bytes>,
    /// Replicas currently holding a copy.
    pub hits: u32,
    /// The majority quorum `⌊R/2⌋+1` the read is judged against.
    pub needed: u32,
}

impl QuorumRead {
    /// `true` when the read meets its quorum.
    pub fn available(&self) -> bool {
        self.value.is_some() && self.hits >= self.needed
    }
}

/// A snapshot-routed quorum read
/// ([`ReplicatedStore::get_quorum_routed`]): the quorum verdict plus how
/// many stale-route retries it took to settle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutedQuorum {
    /// The settled quorum read.
    pub read: QuorumRead,
    /// Stale-route retries performed (0 = the pinned epoch was current
    /// or the first chain probe hit).
    pub retries: u32,
}

/// The replica chain of `point`: the owner, then the first vnode of each
/// subsequent distinct snode along the successor walk, up to `r` entries.
fn replicas_for<E: DhtEngine>(engine: &E, r: usize, point: u64) -> Vec<VnodeId> {
    let mut out: Vec<VnodeId> = Vec::with_capacity(r);
    let mut snodes: Vec<SnodeId> = Vec::with_capacity(r);
    engine.for_each_successor(point, &mut |v| {
        // A vnode the walk visits mid-teardown may briefly have no
        // hosting snode; skip it rather than panic — on a thin cluster
        // (fewer than R distinct snodes) the walk simply ends with a
        // shorter chain, which every caller treats as the effective
        // replication factor.
        if let Ok(s) = engine.snode_of(v) {
            if !snodes.contains(&s) {
                snodes.push(s);
                out.push(v);
            }
        }
        out.len() < r
    });
    out
}

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
    hasher: Fnv1aHasher,
    /// Replication factor `R ≥ 1` (effective factor is capped by the
    /// number of distinct live snodes).
    r: usize,
    /// Routed-read statistics ([`ReplicatedStore::get_quorum_routed`]).
    stats: Arc<RouteStats>,
    /// Copy maps indexed by vnode arena slot; a point may appear in up to
    /// `R` slots (one copy per replica).
    data: Vec<BTreeMap<u64, Bucket>>,
    /// Per-slot bucket digests, maintained in lock-step with `data`:
    /// `digests[slot][point]` is the XOR of [`entry_hash`] over the
    /// bucket's entries — the leaf inputs of the repair-time Merkle
    /// comparison. A slot holds each entry at most once, so XOR is an
    /// exact toggle.
    digests: Vec<BTreeMap<u64, u64>>,
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
        let mut slots = 0;
        engine.for_each_vnode(&mut |v| slots = slots.max(v.index() + 1));
        Self {
            engine,
            hasher: Fnv1aHasher,
            r,
            stats: Arc::new(RouteStats::new()),
            data: vec![BTreeMap::new(); slots],
            digests: vec![BTreeMap::new(); slots],
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

    /// Live (non-truncated) WAL bytes across every snode's log.
    pub fn wal_bytes(&self) -> u64 {
        self.wals.values().map(|w| w.bytes() as u64).sum()
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

    /// The replication factor `R`.
    pub fn replication(&self) -> usize {
        self.r
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
        self.data.iter().flat_map(|m| m.values()).map(|b| b.len() as u64).sum()
    }

    /// `true` while crash-touched ranges await [`ReplicatedStore::repair`].
    pub fn has_pending_repair(&self) -> bool {
        !self.pending.is_empty()
    }

    fn space(&self) -> HashSpace {
        self.engine.config().hash_space()
    }

    fn point_of(&self, key: &[u8]) -> u64 {
        self.hasher.point(key, self.engine.config().hash_space())
    }

    /// The replica chain of a key's point (primary first).
    pub fn replicas_of(&self, key: &[u8]) -> Vec<VnodeId> {
        replicas_for(&self.engine, self.r, self.point_of(key))
    }

    /// The primary vnode responsible for a key.
    pub fn route(&self, key: &[u8]) -> Option<VnodeId> {
        self.engine.lookup(self.point_of(key)).map(|(_, v)| v)
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
        let new_hash = entry_hash(&key, &value);
        let mut prev = None;
        for (i, &v) in replicas.iter().enumerate() {
            if let Ok(s) = self.engine.snode_of(v) {
                self.wals.entry(s).or_default().append(&record);
            }
            let bucket = slot_of(&mut self.data, v).entry(point).or_default();
            let toggle = match bucket_search(bucket, &key) {
                Ok(at) => {
                    let old = std::mem::replace(&mut bucket[at].1, value.clone());
                    let t = entry_hash(&key, &old) ^ new_hash;
                    if i == 0 {
                        prev = Some(old);
                    }
                    t
                }
                Err(at) => {
                    bucket.insert(at, (key.clone(), value.clone()));
                    new_hash
                }
            };
            *digest_slot(&mut self.digests, v).entry(point).or_insert(0) ^= toggle;
        }
        if prev.is_none() {
            self.keys += 1;
        }
        prev
    }

    /// Fallback read: probes the replica chain in placement order and
    /// returns the first copy found.
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        let point = self.point_of(key);
        for v in replicas_for(&self.engine, self.r, point) {
            if let Some(bucket) = self.data.get(v.index()).and_then(|m| m.get(&point)) {
                if let Ok(i) = bucket_search(bucket, key) {
                    return Some(bucket[i].1.clone());
                }
            }
        }
        None
    }

    /// Quorum read: the value (with fallback) plus how many replicas hold
    /// a copy, judged against the majority quorum.
    pub fn get_quorum(&self, key: &[u8]) -> QuorumRead {
        let point = self.point_of(key);
        self.quorum_over(key, point, replicas_for(&self.engine, self.r, point))
    }

    /// The primary vnode of a key per a pinned routing snapshot
    /// (serving-plane route — never consults the live engine).
    pub fn route_at(&self, snap: &EngineSnapshot, key: &[u8]) -> Option<VnodeId> {
        snap.owner_of(self.hasher.point(key, snap.space()))
    }

    /// Fallback read through a pinned snapshot: probes the pinned epoch's
    /// replica chain in placement order. A miss can mean "absent" or
    /// "stale route" — callers holding a [`domus_core::SnapshotCell`]
    /// disambiguate by re-pinning when the cell's epoch moved.
    pub fn get_at(&self, snap: &EngineSnapshot, key: &[u8]) -> Option<Bytes> {
        self.get_quorum_at(snap, key).value
    }

    /// Quorum read against a pinned epoch: the replica chain comes from
    /// the snapshot, the copy probes read the live buckets. Readers pin
    /// once and issue any number of these without touching the engine.
    pub fn get_quorum_at(&self, snap: &EngineSnapshot, key: &[u8]) -> QuorumRead {
        let point = self.hasher.point(key, snap.space());
        self.quorum_over(key, point, snap.replicas(point, self.r))
    }

    /// Quorum read with stale-route repair: probes the replica chain at
    /// the pinned epoch and, on a total miss, re-pins from `cell` and
    /// retries once per epoch the cell advanced past the pin — the
    /// replicated twin of `KvService::get_routed`. `snap` is left pinned
    /// to the epoch the read settled on, and the retry count lands in
    /// [`ReplicatedStore::read_stats`].
    pub fn get_quorum_routed(
        &self,
        cell: &SnapshotCell,
        snap: &mut Arc<EngineSnapshot>,
        key: &[u8],
    ) -> RoutedQuorum {
        let mut retries = 0u32;
        loop {
            let read = self.get_quorum_at(snap, key);
            if read.value.is_some() || !cell.is_stale(snap) {
                self.stats.record(retries, read.value.is_none());
                return RoutedQuorum { read, retries };
            }
            // The pin is behind, but a retry is only a *stale-route*
            // retry when the key's replica chain actually moved between
            // the pinned and current epochs — a miss on a key whose
            // route is identical at both epochs is an absent key caught
            // mid-publish, not stale routing, and counting it would
            // double-book every concurrent-epoch miss as stale.
            let fresh = cell.load();
            let point = self.hasher.point(key, snap.space());
            let moved = fresh.replicas(point, self.r) != snap.replicas(point, self.r);
            *snap = fresh;
            if moved {
                retries += 1;
            }
        }
    }

    /// Counts live copies of `key` over a replica chain.
    fn quorum_over(&self, key: &[u8], point: u64, replicas: Vec<VnodeId>) -> QuorumRead {
        let mut value = None;
        let mut hits = 0u32;
        for v in replicas {
            if let Some(bucket) = self.data.get(v.index()).and_then(|m| m.get(&point)) {
                if let Ok(i) = bucket_search(bucket, key) {
                    hits += 1;
                    if value.is_none() {
                        value = Some(bucket[i].1.clone());
                    }
                }
            }
        }
        QuorumRead { value, hits, needed: self.quorum() }
    }

    /// Removes a key from every replica, returning its value. The
    /// removal is tombstoned into every snode's WAL — any log may still
    /// carry an old `Put` for the key — so replay after a
    /// crash-then-rejoin never resurrects a deleted key.
    pub fn remove(&mut self, key: &[u8]) -> Option<Bytes> {
        let point = self.point_of(key);
        let replicas = replicas_for(&self.engine, self.r, point);
        let record = WalRecord::Remove { key: Bytes::copy_from_slice(key) };
        let mut removed = None;
        for &v in &replicas {
            let Some(map) = self.data.get_mut(v.index()) else { continue };
            let Some(bucket) = map.get_mut(&point) else { continue };
            if let Ok(i) = bucket_search(bucket, key) {
                let (_, value) = bucket.remove(i);
                let emptied = bucket.is_empty();
                if emptied {
                    map.remove(&point);
                }
                if let Some(dmap) = self.digests.get_mut(v.index()) {
                    if emptied {
                        dmap.remove(&point);
                    } else if let Some(d) = dmap.get_mut(&point) {
                        *d ^= entry_hash(key, &value);
                    }
                }
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
        if removed.is_some() {
            self.keys -= 1;
        }
        removed
    }

    /// Creates a vnode on `snode`, then re-replicates exactly the ranges
    /// the streamed transfers touched (plus their backward horizons).
    pub fn join(&mut self, snode: SnodeId) -> Result<(VnodeId, RepairReport), DhtError> {
        let (out, rep) = self.join_with(snode, &mut NullSink)?;
        Ok((out.vnode, rep))
    }

    /// [`ReplicatedStore::join`], forwarding every rebalance event to
    /// `sink` while the touched ranges are collected for repair.
    pub fn join_with(
        &mut self,
        snode: SnodeId,
        sink: &mut dyn RebalanceSink,
    ) -> Result<(CreateOutcome, RepairReport), DhtError> {
        let space = self.space();
        let mut tap = RangeTap::new(space, sink);
        let outcome = self.engine.create_vnode_with(snode, &mut tap)?;
        let ranges = self.extend_and_merge(tap.touched);
        let (copies_placed, bytes) = self.rebuild_ranges(&ranges, true);
        Ok((
            outcome,
            RepairReport {
                ranges: ranges.len(),
                copies_placed,
                bytes_shipped: bytes,
                bytes_full: bytes,
            },
        ))
    }

    /// Gracefully removes a vnode: its data (primary *and* follower
    /// copies) is re-placed on the surviving replica chains in the same
    /// pass that repairs the touched ranges — nothing is lost.
    pub fn leave(&mut self, v: VnodeId) -> Result<RepairReport, DhtError> {
        self.leave_with(v, &mut NullSink).map(|(_, rep)| rep)
    }

    /// [`ReplicatedStore::leave`], forwarding every rebalance event to
    /// `sink`.
    pub fn leave_with(
        &mut self,
        v: VnodeId,
        sink: &mut dyn RebalanceSink,
    ) -> Result<(RemoveOutcome, RepairReport), DhtError> {
        let space = self.space();
        let mut tap = RangeTap::new(space, sink);
        let outcome = self.engine.remove_vnode_with(v, &mut tap)?;
        let ranges = self.extend_and_merge(tap.touched);
        let (copies_placed, bytes) = self.rebuild_ranges(&ranges, true);
        debug_assert!(
            self.data.get(v.index()).map(BTreeMap::is_empty).unwrap_or(true),
            "a graceful leave must drain every copy off the departing vnode"
        );
        Ok((
            outcome,
            RepairReport {
                ranges: ranges.len(),
                copies_placed,
                bytes_shipped: bytes,
                bytes_full: bytes,
            },
        ))
    }

    /// Crashes a snode: its slots are destroyed (not migrated), the
    /// engine absorbs the membership change, and surviving copies are
    /// relocated onto the new replica chains *without re-replicating* —
    /// the touched ranges stay pending until [`ReplicatedStore::repair`].
    pub fn fail_snode(&mut self, s: SnodeId) -> Result<CrashReport, DhtError> {
        self.fail_snode_with(s, &mut NullSink)
    }

    /// [`ReplicatedStore::fail_snode`], forwarding every rebalance event
    /// to `sink`.
    pub fn fail_snode_with(
        &mut self,
        s: SnodeId,
        sink: &mut dyn RebalanceSink,
    ) -> Result<CrashReport, DhtError> {
        let victims = self.engine.vnodes_of_snode(s);
        // Mirror the engine's own preconditions *before* destroying data.
        if victims.is_empty() {
            return Err(DhtError::EmptySnode(s));
        }
        if victims.len() == self.engine.vnode_count() {
            return Err(DhtError::LastVnode);
        }

        // Absorb the membership change first: the engine call is the only
        // remaining fallible step, and the store holds no in-line
        // migration (the tap just collects ranges), so an engine error
        // here leaves the data untouched.
        let space = self.space();
        let mut tap = RangeTap::new(space, sink);
        let outcome = self.engine.fail_snode(s, &mut tap)?;

        // The crash proper: every in-memory copy the snode held is gone
        // (and so are its bucket digests) — but its WAL survives: the
        // log models the disk, which is exactly what a later
        // `rejoin_snode` replays. Remember the vnode count so the
        // rejoin re-enrols at the same size.
        self.crashed.insert(s, victims.len());
        let mut doomed: Vec<(u64, Bytes)> = Vec::new();
        for &v in &victims {
            if let Some(map) = self.data.get_mut(v.index()) {
                for (point, bucket) in std::mem::take(map) {
                    doomed.extend(bucket.into_iter().map(|(k, _)| (point, k)));
                }
            }
            if let Some(dmap) = self.digests.get_mut(v.index()) {
                dmap.clear();
            }
        }

        let mut touched = tap.touched;
        // Every doomed copy marks a range that lost redundancy — including
        // ranges where the snode was only a follower, which no transfer
        // touches (their primaries survived). One range per *partition*
        // holding doomed copies (points cluster, so memoize the lookup),
        // not one per copy — the backward horizon walk runs per range.
        let mut doomed_points: Vec<u64> = doomed.iter().map(|&(point, _)| point).collect();
        doomed_points.sort_unstable();
        doomed_points.dedup();
        let mut memo: Option<Partition> = None;
        for point in doomed_points {
            if !matches!(&memo, Some(p) if p.contains(point, space)) {
                let (p, _) = self.engine.lookup(point).expect("routing is total");
                memo = Some(p);
                touched.push((p.start(space), p.end(space)));
            }
        }

        let ranges = self.extend_and_merge(touched);
        let (copies_relocated, _) = self.rebuild_ranges(&ranges, false);

        // Exact loss accounting: a doomed key is lost iff no copy survived
        // anywhere. Relocation already re-placed every survivor on a
        // placement-order prefix of its chain, so the primary alone
        // decides — one memoized lookup per partition, no successor walks.
        let mut keys_lost = 0u64;
        let mut primary: Option<(Partition, usize)> = None;
        for (point, key) in &doomed {
            if !matches!(&primary, Some((p, _)) if p.contains(*point, space)) {
                let (p, v) = self.engine.lookup(*point).expect("routing is total");
                primary = Some((p, v.index()));
            }
            let slot = primary.as_ref().expect("memoized above").1;
            let alive = self
                .data
                .get(slot)
                .and_then(|m| m.get(point))
                .is_some_and(|b| bucket_search(b, key).is_ok());
            if !alive {
                keys_lost += 1;
            }
        }
        self.keys -= keys_lost;
        self.pending.extend(ranges.iter().copied());

        Ok(CrashReport {
            vnodes_failed: outcome.vnodes.len(),
            renames: outcome.renames,
            copies_destroyed: doomed.len() as u64,
            keys_lost,
            copies_relocated,
        })
    }

    /// Re-replicates every pending (crash-touched) range back to full
    /// strength, **digest-driven**: per partition, a Merkle
    /// [`DigestTree`] is built over the primary's and each follower's
    /// incrementally maintained bucket digests, and only the buckets in
    /// divergent leaves are shipped. A follower already in sync costs
    /// hash comparisons, never data movement — the full-rebuild byte
    /// cost the old eager walk would have paid is reported alongside in
    /// [`RepairReport::bytes_full`]. Idempotent; a no-op when nothing is
    /// pending.
    pub fn repair(&mut self) -> RepairReport {
        let pending = std::mem::take(&mut self.pending);
        if pending.is_empty() {
            return RepairReport::default();
        }
        let ranges = merge_ranges(pending);
        let mut report = RepairReport { ranges: ranges.len(), ..RepairReport::default() };
        let space = self.space();
        for &(start, end) in &ranges {
            let mut cursor = start as u128;
            while cursor < end {
                let Some((p, _)) = self.engine.lookup(cursor as u64) else { break };
                let pe = p.end(space);
                self.repair_partition(cursor as u64, pe.min(end), &mut report);
                if pe <= cursor {
                    break; // no forward progress: malformed routing
                }
                cursor = pe;
            }
        }
        report
    }

    /// Anti-entropy over one partition-aligned span `[start, end)`:
    /// Merkle-compare each follower of the span's replica chain against
    /// the primary and ship only divergent buckets (plus drop follower
    /// buckets the primary does not hold). Accounts shipped bytes and
    /// the full-rebuild baseline into `report`.
    fn repair_partition(&mut self, start: u64, end: u128, report: &mut RepairReport) {
        let chain = replicas_for(&self.engine, self.r, start);
        if chain.is_empty() {
            return;
        }
        let primary = chain[0].index();
        let bucket_bytes =
            |b: &Bucket| -> u64 { b.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum() };
        let span_bytes: u64 = self
            .data
            .get(primary)
            .map(|m| span_range(m, start, end).map(|(_, b)| bucket_bytes(b)).sum())
            .unwrap_or(0);
        // The eager rebuild gathered every copy and re-placed every entry
        // onto every chain slot — that is the baseline being beaten.
        report.bytes_full += span_bytes * chain.len() as u64;
        if chain.len() < 2 {
            return; // a thin cluster has nobody to anti-entropy against
        }

        // Normalize span positions onto the digest tree's 64-bit domain
        // (monotone, collision-free for partition-aligned spans).
        let span = end - start as u128;
        let bits = 128 - (span.saturating_sub(1)).leading_zeros();
        let shift = 64u32.saturating_sub(bits.min(64));
        let norm = |p: u64| -> u64 { (p - start) << shift };

        let empty: BTreeMap<u64, u64> = BTreeMap::new();
        let pdig = self.digests.get(primary).unwrap_or(&empty);
        let pbuckets: Vec<(u64, u64)> =
            span_range(pdig, start, end).map(|(&p, &d)| (p, d)).collect();
        let mut ptree = DigestTree::new(4);
        for &(p, d) in &pbuckets {
            ptree.toggle(norm(p), d);
        }

        // Plan each follower's divergence while the digests are borrowed,
        // then apply the shipments.
        type ShipPlan = (usize, u8, Vec<(u64, u64)>, Vec<u64>);
        let mut plans: Vec<ShipPlan> = Vec::new();
        for (rank, &fv) in chain.iter().enumerate().skip(1) {
            let fslot = fv.index();
            let fdig = self.digests.get(fslot).unwrap_or(&empty);
            let fbuckets: Vec<(u64, u64)> =
                span_range(fdig, start, end).map(|(&p, &d)| (p, d)).collect();
            let mut ftree = DigestTree::new(4);
            for &(p, d) in &fbuckets {
                ftree.toggle(norm(p), d);
            }
            let divergent = ptree.diff(&ftree);
            if divergent.is_empty() {
                continue; // in sync: the Merkle root match cost zero bytes
            }
            let in_leaf = |p: u64, leaf: usize, tree: &DigestTree| -> bool {
                let (lo, hi) = tree.leaf_range(leaf);
                let np = norm(p);
                np >= lo && hi.map_or(true, |h| np < h)
            };
            let mut ship: Vec<(u64, u64)> = Vec::new();
            let mut drop: Vec<u64> = Vec::new();
            for leaf in divergent {
                for &(p, d) in &pbuckets {
                    if in_leaf(p, leaf, &ptree) && fbuckets.binary_search(&(p, d)).is_err() {
                        ship.push((p, d));
                    }
                }
                for &(p, _) in &fbuckets {
                    if in_leaf(p, leaf, &ptree)
                        && pbuckets.binary_search_by_key(&p, |&(bp, _)| bp).is_err()
                    {
                        drop.push(p);
                    }
                }
            }
            if !ship.is_empty() || !drop.is_empty() {
                plans.push((fslot, rank.min(u8::MAX as usize) as u8, ship, drop));
            }
        }

        for (fslot, rank, ship, drop) in plans {
            let home = if ship.is_empty() {
                None
            } else {
                // One placement record per repaired follower span: the
                // chain decision is durable on the receiving snode.
                let home = self.engine.snode_of(chain[usize::from(rank)]).ok();
                if let Some(s) = home {
                    self.wals.entry(s).or_default().append(&WalRecord::Placement {
                        partition: start,
                        snode: s,
                        rank,
                    });
                }
                home
            };
            for (point, digest) in ship {
                let bucket =
                    self.data.get(primary).and_then(|m| m.get(&point)).cloned().unwrap_or_default();
                report.bytes_shipped += bucket_bytes(&bucket);
                report.copies_placed += bucket.len() as u64;
                // Re-log each shipped copy on the receiving snode: the
                // repaired follower must be able to replay what it holds.
                if let Some(s) = home {
                    let wal = self.wals.entry(s).or_default();
                    for (k, v) in &bucket {
                        wal.append(&WalRecord::Put { key: k.clone(), value: v.clone() });
                    }
                }
                if self.data.len() <= fslot {
                    self.data.resize_with(fslot + 1, BTreeMap::new);
                }
                self.data[fslot].insert(point, bucket);
                if self.digests.len() <= fslot {
                    self.digests.resize_with(fslot + 1, BTreeMap::new);
                }
                self.digests[fslot].insert(point, digest);
            }
            for point in drop {
                if let Some(m) = self.data.get_mut(fslot) {
                    m.remove(&point);
                }
                if let Some(m) = self.digests.get_mut(fslot) {
                    m.remove(&point);
                }
            }
        }
    }

    /// Re-enrols a crashed snode and **replays its write-ahead log**:
    /// the control plane gets `vnodes` fresh vnodes (the count at crash
    /// time) via [`DhtEngine::rejoin_snode`], the ranges that touched
    /// are rebuilt in-line, and the log's final state is folded back in
    /// — a key absent from every live replica is restored (the `R = 1`
    /// crash-loss class), a key still live is *re-homed* onto its
    /// current primary's log so the rejoined log can checkpoint and
    /// truncate without weakening durability.
    ///
    /// Fails with [`DhtError::EmptySnode`] when `s` was never crashed
    /// (or already rejoined) — there is nothing to replay.
    pub fn rejoin_snode(&mut self, s: SnodeId) -> Result<RejoinReport, DhtError> {
        self.rejoin_snode_with(s, &mut NullSink)
    }

    /// [`ReplicatedStore::rejoin_snode`], forwarding every rebalance
    /// event to `sink`.
    pub fn rejoin_snode_with(
        &mut self,
        s: SnodeId,
        sink: &mut dyn RebalanceSink,
    ) -> Result<RejoinReport, DhtError> {
        let Some(&vnodes) = self.crashed.get(&s) else {
            return Err(DhtError::EmptySnode(s));
        };
        // Control plane first: re-enrol, and rebuild the touched ranges
        // in-line exactly like a join (these are fresh vnodes pulling
        // partitions — full re-replication of what they now own).
        let space = self.space();
        let mut tap = RangeTap::new(space, sink);
        let outcome = self.engine.rejoin_snode(s, vnodes, &mut tap)?;
        self.crashed.remove(&s);
        let ranges = self.extend_and_merge(tap.touched);
        let (copies_placed, bytes) = self.rebuild_ranges(&ranges, true);
        let repair = RepairReport {
            ranges: ranges.len(),
            copies_placed,
            bytes_shipped: bytes,
            bytes_full: bytes,
        };

        // Replay: fold the log into its final per-key state.
        let mut report = RejoinReport {
            vnodes: outcome.vnodes.len(),
            handles: outcome.vnodes,
            repair,
            ..RejoinReport::default()
        };
        let mut state: BTreeMap<Bytes, Option<Bytes>> = BTreeMap::new();
        let pre_seq = {
            let wal = self.wals.entry(s).or_default();
            report.wal_bytes = wal.bytes() as u64;
            for item in wal.replay() {
                match item {
                    Ok((_, record)) => {
                        report.wal_records += 1;
                        match record {
                            WalRecord::Put { key, value } => {
                                state.insert(key, Some(value));
                            }
                            WalRecord::Remove { key } => {
                                state.insert(key, None);
                            }
                            WalRecord::Placement { .. } => {}
                        }
                    }
                    Err(_) => {
                        report.torn += 1;
                        break;
                    }
                }
            }
            wal.next_seq()
        };
        for (key, value) in state {
            let Some(value) = value else { continue };
            match self.get(&key) {
                // Absent everywhere: the crash destroyed the last
                // in-memory copy — only the log still has it. Restore.
                None => {
                    self.put(key, value);
                    report.recovered += 1;
                }
                // Still live: make the current primary's log the durable
                // home (current value, not the possibly stale replayed
                // one) so truncating the rejoined log loses nothing.
                // When the primary is `s` itself the append lands at a
                // sequence number past `pre_seq`, so it survives the
                // checkpoint below.
                Some(current) => {
                    if let Some(v) = self.route(&key) {
                        if let Ok(home) = self.engine.snode_of(v) {
                            self.wals
                                .entry(home)
                                .or_default()
                                .append(&WalRecord::Put { key, value: current });
                        }
                    }
                }
            }
        }
        // Everything below `pre_seq` is now either restored into live
        // (and re-logged) state or re-homed: checkpoint, letting whole
        // segments truncate.
        if let Some(wal) = self.wals.get_mut(&s) {
            wal.checkpoint(pre_seq);
        }
        Ok(report)
    }

    /// Extends every touched range backwards across up to `R` distinct
    /// predecessor snodes and merges the result into disjoint ranges.
    ///
    /// Why backwards: the follower set of a range `X` is determined by the
    /// successor walk starting at `X`; a placement change at partition `Q`
    /// can only affect `X` if the walk from `X` reaches `Q` before
    /// collecting `R` distinct snodes. Walking back from `Q` until `R`
    /// distinct snodes have been seen therefore over-approximates every
    /// affected range — conservative and cheap (`O(R log P)` per range).
    fn extend_and_merge(&self, touched: Vec<Range>) -> Vec<Range> {
        let space = self.space();
        // Coalesce first: transfers overlap heavily (cascades re-touch the
        // same partitions), and every surviving range costs one backward
        // walk of engine lookups.
        let touched = merge_ranges(touched);
        if touched.is_empty() {
            return touched;
        }
        // Thin cluster (< R distinct snodes): asking the backward walk for
        // R distinct snodes would visit every partition of the space *per
        // range* without ever finding them (the pathological walk), and a
        // shorter walk can miss ranges holding follower copies placed
        // under an earlier, wider membership. Cover the whole space in one
        // range instead — the honest repair scope at this size, and O(1)
        // to decide.
        let live = {
            let mut live: Vec<SnodeId> = Vec::new();
            self.engine.for_each_vnode(&mut |v| {
                if let Ok(s) = self.engine.snode_of(v) {
                    if !live.contains(&s) {
                        live.push(s);
                    }
                }
            });
            live.len()
        };
        if live < self.r {
            return vec![(0, space.size())];
        }
        let want = self.r;
        let mut out: Vec<Range> = Vec::with_capacity(touched.len() + 2);
        for (start, end) in touched {
            let mut snodes: Vec<SnodeId> = Vec::with_capacity(self.r);
            let mut cur = start;
            let mut wrapped = false;
            let mut walked = end - start as u128;
            while snodes.len() < want && walked < space.size() {
                let prev_point = if cur == 0 {
                    wrapped = true;
                    space.max_point()
                } else {
                    cur - 1
                };
                let Some((p, v)) = self.engine.lookup(prev_point) else { break };
                let s = self.engine.snode_of(v).expect("routed vnode is live");
                if !snodes.contains(&s) {
                    snodes.push(s);
                }
                walked += p.size(space);
                cur = p.start(space);
                if wrapped && cur == 0 {
                    break; // walked the whole top segment
                }
            }
            if walked >= space.size() {
                out.push((0, space.size()));
            } else if wrapped {
                out.push((0, end));
                out.push((cur, space.size()));
            } else {
                out.push((cur, end));
            }
        }
        merge_ranges(out)
    }

    /// Rebuilds replica placement for `ranges` (disjoint, ascending):
    /// gathers every copy stored anywhere in each range, dedups per key,
    /// and re-places each key on a placement-order prefix of its current
    /// replica chain — the full chain when `full`, else as many replicas
    /// as copies survived (relocation without re-replication). Bucket
    /// digests are maintained in the same pass, and each partition's
    /// chain decision is logged to the holders' WALs as a placement
    /// record. Returns `(copies placed, entry bytes shipped)`.
    fn rebuild_ranges(&mut self, ranges: &[Range], full: bool) -> (u64, u64) {
        let space = self.space();
        let mut placed = 0u64;
        let mut bytes = 0u64;
        for &(start, end) in ranges {
            // Gather: detach [start, end) from every slot, merging copies
            // per (point, key) with a survivor count.
            let mut union: BTreeMap<u64, Vec<(Bytes, Bytes, usize)>> = BTreeMap::new();
            for map in &mut self.data {
                if map.is_empty() {
                    continue;
                }
                let mut mid = map.split_off(&start);
                if end <= u64::MAX as u128 {
                    let mut keep = mid.split_off(&(end as u64));
                    map.append(&mut keep);
                }
                for (point, bucket) in mid {
                    let merged = union.entry(point).or_default();
                    for (k, v) in bucket {
                        match merged.binary_search_by(|(mk, _, _)| mk.as_ref().cmp(k.as_ref())) {
                            Ok(i) => {
                                debug_assert_eq!(merged[i].1, v, "replica copies diverged");
                                merged[i].2 += 1;
                            }
                            Err(i) => merged.insert(i, (k, v, 1)),
                        }
                    }
                }
            }
            // The detached digests go with the data; placement rebuilds
            // both sides in lock-step.
            for dmap in &mut self.digests {
                if dmap.is_empty() {
                    continue;
                }
                let mut mid = dmap.split_off(&start);
                if end <= u64::MAX as u128 {
                    let mut keep = mid.split_off(&(end as u64));
                    dmap.append(&mut keep);
                }
            }
            // Re-place, memoizing the replica chain per partition (every
            // point of one partition shares it).
            let (engine, data, digests, wals, r) =
                (&self.engine, &mut self.data, &mut self.digests, &mut self.wals, self.r);
            let mut memo: Option<(Partition, Vec<VnodeId>, Vec<Option<SnodeId>>)> = None;
            for (point, bucket) in union {
                let stale = !matches!(&memo, Some((p, _, _)) if p.contains(point, space));
                if stale {
                    let (p, _) = engine.lookup(point).expect("routing is total");
                    let replicas = replicas_for(engine, r, point);
                    // Durable placement note on every holder's log: this
                    // partition's copies now live on this chain.
                    let homes: Vec<Option<SnodeId>> =
                        replicas.iter().map(|&rv| engine.snode_of(rv).ok()).collect();
                    for (rank, s) in homes.iter().enumerate() {
                        if let Some(s) = *s {
                            wals.entry(s).or_default().append(&WalRecord::Placement {
                                partition: p.start(space),
                                snode: s,
                                rank: rank.min(u8::MAX as usize) as u8,
                            });
                        }
                    }
                    memo = Some((p, replicas, homes));
                }
                let (_, replicas, homes) = memo.as_ref().expect("memoized above");
                for (k, v, survivors) in bucket {
                    let n = if full { replicas.len() } else { survivors.min(replicas.len()) };
                    placed += n as u64;
                    bytes += (k.len() + v.len()) as u64 * n as u64;
                    let h = entry_hash(&k, &v);
                    // Every migrated copy is re-logged on its new home as
                    // it is applied: the write-ahead discipline must follow
                    // the data, or a key whose copies all moved since their
                    // original `put` would have no replayable record on any
                    // of the snodes that actually hold it when they crash.
                    let record = WalRecord::Put { key: k.clone(), value: v.clone() };
                    for (&rv, home) in replicas.iter().zip(homes).take(n) {
                        if let Some(s) = *home {
                            wals.entry(s).or_default().append(&record);
                        }
                        let slot = slot_of(data, rv).entry(point).or_default();
                        let toggle = match bucket_search(slot, &k) {
                            Ok(at) => {
                                let old = std::mem::replace(&mut slot[at].1, v.clone());
                                entry_hash(&k, &old) ^ h
                            }
                            Err(at) => {
                                slot.insert(at, (k.clone(), v.clone()));
                                h
                            }
                        };
                        *digest_slot(digests, rv).entry(point).or_insert(0) ^= toggle;
                    }
                }
            }
        }
        (placed, bytes)
    }

    /// Every live key, in deterministic (hash point, key) order, read off
    /// the primary copies.
    pub fn snapshot_keys(&self) -> Vec<Bytes> {
        let mut out = Vec::with_capacity(self.keys as usize);
        let mut points: Vec<(u64, &Bucket)> = Vec::new();
        for (slot, map) in self.data.iter().enumerate() {
            for (&point, bucket) in map {
                let primary = self.engine.lookup(point).map(|(_, v)| v.index());
                if primary == Some(slot) {
                    points.push((point, bucket));
                }
            }
        }
        points.sort_unstable_by_key(|&(point, _)| point);
        for (_, bucket) in points {
            out.extend(bucket.iter().map(|(k, _)| k.clone()));
        }
        out
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
    ///    (`min(R, distinct snodes)` copies).
    pub fn verify_replication(&self) -> Result<(), String> {
        let mut primaries = 0u64;
        for (slot, map) in self.data.iter().enumerate() {
            for (&point, bucket) in map {
                for (key, value) in bucket {
                    if self.point_of(key) != point {
                        return Err(format!("key stored under wrong point {point}"));
                    }
                    let replicas = replicas_for(&self.engine, self.r, point);
                    let pos = replicas.iter().position(|v| v.index() == slot).ok_or_else(|| {
                        format!("copy at point {point} on slot {slot}, not a replica")
                    })?;
                    let mut copies = 0usize;
                    for (i, &rv) in replicas.iter().enumerate() {
                        let held = self
                            .data
                            .get(rv.index())
                            .and_then(|m| m.get(&point))
                            .and_then(|b| bucket_search(b, key).ok().map(|at| &b[at].1));
                        match held {
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
        }
        if primaries != self.keys {
            return Err(format!("key counter {} but {primaries} primary copies", self.keys));
        }
        // 5. the incrementally maintained bucket digests equal a fresh
        //    recomputation from the data — the anti-entropy comparison is
        //    only as sound as its inputs.
        for (slot, map) in self.data.iter().enumerate() {
            for (&point, bucket) in map {
                let want = bucket.iter().fold(0u64, |acc, (k, v)| acc ^ entry_hash(k, v));
                let got = self.digests.get(slot).and_then(|m| m.get(&point)).copied();
                if got != Some(want) {
                    return Err(format!(
                        "slot {slot} point {point}: digest {got:?} != recomputed {want:#x}"
                    ));
                }
            }
        }
        for (slot, dmap) in self.digests.iter().enumerate() {
            for &point in dmap.keys() {
                let populated =
                    self.data.get(slot).and_then(|m| m.get(&point)).is_some_and(|b| !b.is_empty());
                if !populated {
                    return Err(format!("slot {slot} point {point}: digest for an empty bucket"));
                }
            }
        }
        Ok(())
    }
}

/// The digest map of a vnode's slot, growing the arena like
/// [`slot_of`] does for the data maps.
fn digest_slot(digests: &mut Vec<BTreeMap<u64, u64>>, v: VnodeId) -> &mut BTreeMap<u64, u64> {
    if digests.len() <= v.index() {
        digests.resize_with(v.index() + 1, BTreeMap::new);
    }
    &mut digests[v.index()]
}

/// Iterates a point-keyed map over the half-open span `[start, end)`
/// (`end` may be the full space's top, which exceeds `u64`).
fn span_range<V>(
    map: &BTreeMap<u64, V>,
    start: u64,
    end: u128,
) -> std::collections::btree_map::Range<'_, u64, V> {
    let upper = if end > u64::MAX as u128 { Bound::Unbounded } else { Bound::Excluded(end as u64) };
    map.range((Bound::Included(start), upper))
}

/// Sorts and coalesces overlapping/adjacent ranges.
fn merge_ranges(mut ranges: Vec<Range>) -> Vec<Range> {
    ranges.sort_unstable();
    let mut out: Vec<Range> = Vec::with_capacity(ranges.len());
    for (start, end) in ranges {
        match out.last_mut() {
            Some((_, prev_end)) if (start as u128) <= *prev_end => {
                *prev_end = (*prev_end).max(end);
            }
            _ => out.push((start, end)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use domus_core::{DhtConfig, LocalDht};
    use domus_hashspace::HashSpace;

    fn store(r: usize, snodes: u32) -> ReplicatedStore<LocalDht> {
        let cfg = DhtConfig::new(HashSpace::new(32), 4, 2).unwrap();
        let mut kv = ReplicatedStore::new(LocalDht::with_seed(cfg, 7), r);
        for s in 0..snodes {
            kv.join(SnodeId(s)).unwrap();
        }
        kv
    }

    #[test]
    fn put_get_remove_roundtrip_with_full_replication() {
        let mut kv = store(3, 5);
        assert_eq!(kv.put("k1", "v1"), None);
        assert_eq!(kv.put("k1", "v1b").unwrap().as_ref(), b"v1");
        assert_eq!(kv.get(b"k1").unwrap().as_ref(), b"v1b");
        let q = kv.get_quorum(b"k1");
        assert_eq!(q.hits, 3);
        assert_eq!(q.needed, 2);
        assert!(q.available());
        assert_eq!(kv.len(), 1);
        assert_eq!(kv.copies(), 3);
        kv.verify_replication().unwrap();
        assert_eq!(kv.remove(b"k1").unwrap().as_ref(), b"v1b");
        assert_eq!(kv.get(b"k1"), None);
        assert!(kv.is_empty());
        assert_eq!(kv.copies(), 0);
    }

    #[test]
    fn replicas_live_on_distinct_snodes() {
        let kv = store(3, 6);
        for i in 0..200u32 {
            let key = format!("key:{i}");
            let replicas = kv.replicas_of(key.as_bytes());
            assert_eq!(replicas.len(), 3);
            let mut snodes: Vec<SnodeId> =
                replicas.iter().map(|&v| kv.engine().snode_of(v).unwrap()).collect();
            snodes.sort_unstable();
            snodes.dedup();
            assert_eq!(snodes.len(), 3, "{key}: replicas co-located");
            assert_eq!(replicas[0], kv.route(key.as_bytes()).unwrap(), "primary is the owner");
        }
    }

    #[test]
    fn effective_factor_is_capped_by_the_cluster_size() {
        let mut kv = store(3, 2); // only two distinct snodes
        kv.put("a", "1");
        assert_eq!(kv.replicas_of(b"a").len(), 2);
        assert_eq!(kv.get_quorum(b"a").hits, 2);
        kv.verify_replication().unwrap();
        // A third snode arrives: the in-line repair mints the third copy
        // for ranges it touched; a full repair isn't needed for puts.
        kv.join(SnodeId(9)).unwrap();
        kv.put("b", "2");
        assert_eq!(kv.replicas_of(b"b").len(), 3);
    }

    #[test]
    fn graceful_membership_keeps_everything_fully_replicated() {
        let mut kv = store(2, 4);
        for i in 0..300u32 {
            kv.put(format!("key:{i}"), format!("value-{i}"));
        }
        for s in 4..9u32 {
            kv.join(SnodeId(s)).unwrap();
            kv.verify_replication().unwrap_or_else(|e| panic!("after join {s}: {e}"));
        }
        let vnodes = kv.engine().vnodes();
        for v in vnodes.into_iter().take(4) {
            kv.leave(v).unwrap();
            kv.verify_replication().unwrap_or_else(|e| panic!("after leave {v}: {e}"));
        }
        assert_eq!(kv.len(), 300);
        for i in 0..300u32 {
            let q = kv.get_quorum(format!("key:{i}").as_bytes());
            assert!(q.available(), "key:{i} lost quorum after graceful churn");
        }
    }

    #[test]
    fn crash_loses_nothing_at_r2_and_repair_restores_quorum() {
        let mut kv = store(2, 5);
        for i in 0..400u32 {
            kv.put(format!("key:{i}"), format!("value-{i}"));
        }
        let report = kv.fail_snode(SnodeId(2)).unwrap();
        assert!(report.vnodes_failed > 0);
        assert!(report.copies_destroyed > 0, "the snode held copies");
        assert_eq!(report.keys_lost, 0, "R=2 survives one crash");
        assert!(kv.has_pending_repair());
        // Every key still readable via fallback; quorum may be degraded.
        let mut degraded = 0;
        for i in 0..400u32 {
            let key = format!("key:{i}");
            assert!(kv.get(key.as_bytes()).is_some(), "{key} unreadable after crash");
            if !kv.get_quorum(key.as_bytes()).available() {
                degraded += 1;
            }
        }
        assert!(degraded > 0, "a crash must dent quorum availability before repair");
        let rep = kv.repair();
        assert!(rep.copies_placed > 0);
        assert!(!kv.has_pending_repair());
        kv.verify_replication().unwrap();
        for i in 0..400u32 {
            assert!(kv.get_quorum(format!("key:{i}").as_bytes()).available(), "key:{i}");
        }
    }

    #[test]
    fn crash_at_r1_loses_exactly_the_failed_snodes_keys() {
        let mut kv = store(1, 5);
        for i in 0..500u32 {
            kv.put(format!("key:{i}"), "x");
        }
        // Predict the loss: keys whose primary snode is the victim.
        let victim = SnodeId(3);
        let expected: u64 = (0..500u32)
            .filter(|i| {
                let key = format!("key:{i}");
                let owner = kv.route(key.as_bytes()).unwrap();
                kv.engine().snode_of(owner).unwrap() == victim
            })
            .count() as u64;
        assert!(expected > 0, "the victim must own something");
        let report = kv.fail_snode(victim).unwrap();
        assert_eq!(report.keys_lost, expected, "exact loss accounting");
        assert_eq!(kv.len(), 500 - expected);
        let alive = (0..500u32).filter(|i| kv.get(format!("key:{i}").as_bytes()).is_some()).count();
        assert_eq!(alive as u64, 500 - expected);
        kv.repair();
        kv.verify_replication().unwrap();
    }

    #[test]
    fn crash_preconditions_destroy_nothing() {
        let mut kv = store(2, 3);
        kv.put("a", "1");
        assert_eq!(kv.fail_snode(SnodeId(99)), Err(DhtError::EmptySnode(SnodeId(99))));
        // Crashing every snode one by one (with repair in between, so the
        // lone copy always re-replicates before the next hit) stops at the
        // last snode, which is refused before anything is destroyed.
        kv.fail_snode(SnodeId(0)).unwrap();
        kv.repair();
        kv.fail_snode(SnodeId(1)).unwrap();
        kv.repair();
        assert_eq!(kv.fail_snode(SnodeId(2)), Err(DhtError::LastVnode));
        assert_eq!(kv.get(b"a").unwrap().as_ref(), b"1", "refused crash must not touch data");
    }

    #[test]
    fn repeated_crash_repair_cycles_preserve_all_keys_at_r2() {
        let mut kv = store(2, 8);
        for i in 0..300u32 {
            kv.put(format!("key:{i}"), format!("value-{i}"));
        }
        for victim in 0..5u32 {
            let report = kv.fail_snode(SnodeId(victim)).unwrap();
            assert_eq!(report.keys_lost, 0, "crash of s{victim} lost keys");
            kv.repair();
            kv.verify_replication().unwrap_or_else(|e| panic!("after s{victim}: {e}"));
        }
        assert_eq!(kv.len(), 300);
        for i in 0..300u32 {
            assert_eq!(
                kv.get(format!("key:{i}").as_bytes()).unwrap().as_ref(),
                format!("value-{i}").as_bytes()
            );
        }
    }

    #[test]
    fn merge_ranges_coalesces() {
        assert_eq!(merge_ranges(vec![(10, 20), (15, 30), (40, 50), (30, 40)]), vec![(10, 50)]);
        assert_eq!(merge_ranges(vec![(5, 6)]), vec![(5, 6)]);
        assert!(merge_ranges(Vec::new()).is_empty());
    }

    #[test]
    fn crash_then_rejoin_replays_the_wal_at_r1() {
        let mut kv = store(1, 5);
        for i in 0..400u32 {
            kv.put(format!("key:{i}"), format!("value-{i}"));
        }
        let victim = SnodeId(2);
        let report = kv.fail_snode(victim).unwrap();
        assert!(report.keys_lost > 0, "R=1 must lose the victim's primaries");
        let lost = report.keys_lost;
        assert_eq!(kv.crashed_snodes(), vec![(victim, report.vnodes_failed)]);

        let rejoin = kv.rejoin_snode(victim).unwrap();
        assert_eq!(rejoin.vnodes, report.vnodes_failed, "re-enrolled at crash-time size");
        assert!(rejoin.wal_records > 0, "the log held the victim's writes");
        assert_eq!(rejoin.torn, 0);
        assert_eq!(rejoin.recovered, lost, "replay restores exactly the lost keys");
        assert!(kv.crashed_snodes().is_empty());
        assert_eq!(kv.len(), 400, "nothing stays lost after replay");
        for i in 0..400u32 {
            assert_eq!(
                kv.get(format!("key:{i}").as_bytes()).unwrap().as_ref(),
                format!("value-{i}").as_bytes(),
                "key:{i} after rejoin"
            );
        }
        kv.repair();
        kv.verify_replication().unwrap();
    }

    #[test]
    fn rejoin_checkpoint_truncates_the_replayed_log() {
        let mut kv = store(2, 5);
        // Values big enough that the victim's share of the log spans
        // several 64 KiB segments, so the checkpoint can retire whole ones.
        let blob = "v".repeat(1024);
        for i in 0..400u32 {
            kv.put(format!("key:{i}"), blob.clone());
        }
        let victim = SnodeId(1);
        let before = kv.wal_of(victim).expect("the victim logged writes").pending();
        assert!(before > 0);
        kv.fail_snode(victim).unwrap();
        let rejoin = kv.rejoin_snode(victim).unwrap();
        // The rebuild that precedes replay logs fresh `Placement` records,
        // so the scan covers at least the pre-crash backlog.
        assert!(rejoin.wal_records >= before, "replay scans the whole un-checkpointed log");
        let wal = kv.wal_of(victim).unwrap();
        assert!(
            wal.pending() < before,
            "the checkpoint must retire the replayed records ({} -> {})",
            before,
            wal.pending()
        );
        assert!(wal.stats().truncated_segments > 0, "whole segments must truncate");
        kv.repair();
        kv.verify_replication().unwrap();
    }

    #[test]
    fn replay_never_resurrects_a_removed_key() {
        let mut kv = store(1, 4);
        for i in 0..200u32 {
            kv.put(format!("key:{i}"), "x");
        }
        // Remove half, then crash + rejoin every snode's primary range
        // would be overkill — one victim suffices: its log holds both the
        // puts and the removes.
        for i in 0..200u32 {
            if i % 2 == 0 {
                kv.remove(format!("key:{i}").as_bytes());
            }
        }
        let victim = SnodeId(0);
        kv.fail_snode(victim).unwrap();
        kv.rejoin_snode(victim).unwrap();
        for i in (0..200u32).step_by(2) {
            assert_eq!(kv.get(format!("key:{i}").as_bytes()), None, "key:{i} resurrected");
        }
        kv.repair();
        kv.verify_replication().unwrap();
    }

    #[test]
    fn migrated_copies_stay_replayable_after_their_new_holders_crash() {
        // Regression: copies shipped by rebalance used to land with only a
        // `Placement` note in the recipient's log. A key whose copies all
        // migrated away from their original put-time holders then had no
        // replayable `Put` on any snode that actually held it — crash the
        // new holder and the key was gone for good, because the snodes
        // whose logs *did* hold it stayed alive and never replayed.
        let mut kv = store(1, 3);
        for i in 0..200u32 {
            kv.put(format!("key:{i}"), format!("value-{i}"));
        }
        // Joins pull ranges onto snodes that never saw the original puts.
        for s in 3..7u32 {
            kv.join(SnodeId(s)).unwrap();
        }
        let victim = SnodeId(5);
        let report = kv.fail_snode(victim).unwrap();
        assert!(report.keys_lost > 0, "R=1 must lose the victim's migrated primaries");
        let rejoin = kv.rejoin_snode(victim).unwrap();
        assert_eq!(rejoin.recovered, report.keys_lost, "replay restores the migrated keys");
        assert_eq!(kv.len(), 200, "no key stays lost after the holder rejoins");
        for i in 0..200u32 {
            assert_eq!(
                kv.get(format!("key:{i}").as_bytes()).unwrap().as_ref(),
                format!("value-{i}").as_bytes(),
                "key:{i} after migrate-crash-rejoin"
            );
        }
        kv.repair();
        kv.verify_replication().unwrap();
    }

    #[test]
    fn removing_a_crash_destroyed_key_outranks_its_crashed_log() {
        // Regression: removing a key whose copies were all crash-destroyed
        // returns `None`, and the tombstone used to be skipped — yet the
        // crashed holder's log still carried the key's `Put`, so the
        // rejoin replay resurrected a key the caller had deleted.
        let mut kv = store(1, 4);
        for i in 0..200u32 {
            kv.put(format!("key:{i}"), "x");
        }
        let victim = SnodeId(1);
        let report = kv.fail_snode(victim).unwrap();
        assert!(report.keys_lost > 0);
        let dead: Vec<String> = (0..200u32)
            .map(|i| format!("key:{i}"))
            .filter(|k| kv.get(k.as_bytes()).is_none())
            .collect();
        assert!(!dead.is_empty());
        for k in &dead {
            assert_eq!(kv.remove(k.as_bytes()), None, "{k} is crash-destroyed, nothing to remove");
        }
        kv.rejoin_snode(victim).unwrap();
        for k in &dead {
            assert_eq!(kv.get(k.as_bytes()), None, "{k} resurrected past its removal");
        }
        kv.repair();
        kv.verify_replication().unwrap();
    }

    #[test]
    fn removal_while_crashed_is_not_resurrected_by_replay() {
        let mut kv = store(2, 4);
        for i in 0..200u32 {
            kv.put(format!("key:{i}"), "x");
        }
        let victim = SnodeId(2);
        kv.fail_snode(victim).unwrap();
        kv.repair();
        // Remove every key *while the victim is down*: its WAL still
        // carries the pre-crash puts, so replay must see the tombstones.
        for i in 0..200u32 {
            assert!(kv.remove(format!("key:{i}").as_bytes()).is_some(), "R=2 shields key:{i}");
        }
        kv.rejoin_snode(victim).unwrap();
        assert_eq!(kv.len(), 0);
        for i in 0..200u32 {
            assert_eq!(kv.get(format!("key:{i}").as_bytes()), None, "key:{i} resurrected");
        }
        kv.repair();
        kv.verify_replication().unwrap();
    }

    #[test]
    fn rejoin_of_a_never_crashed_snode_is_refused() {
        let mut kv = store(2, 3);
        kv.put("a", "1");
        assert_eq!(kv.rejoin_snode(SnodeId(0)), Err(DhtError::EmptySnode(SnodeId(0))));
        assert_eq!(kv.rejoin_snode(SnodeId(99)), Err(DhtError::EmptySnode(SnodeId(99))));
        assert_eq!(kv.get(b"a").unwrap().as_ref(), b"1");
    }

    #[test]
    fn digest_repair_ships_strictly_less_than_a_full_rebuild() {
        let mut kv = store(2, 6);
        for i in 0..500u32 {
            kv.put(format!("key:{i}"), format!("value-{i}"));
        }
        let report = kv.fail_snode(SnodeId(3)).unwrap();
        assert_eq!(report.keys_lost, 0);
        let rep = kv.repair();
        assert!(rep.copies_placed > 0, "the crash left under-replicated buckets");
        assert!(rep.bytes_shipped > 0);
        assert!(
            rep.bytes_shipped < rep.bytes_full,
            "digest repair must beat the full rebuild: shipped {} vs full {}",
            rep.bytes_shipped,
            rep.bytes_full
        );
        kv.verify_replication().unwrap();
        for i in 0..500u32 {
            assert!(kv.get_quorum(format!("key:{i}").as_bytes()).available(), "key:{i}");
        }
    }

    #[test]
    fn thin_cluster_crash_and_repair_stay_clean() {
        // R = 3 on two snodes: the effective factor is 2; one crash
        // leaves a single-snode cluster, where the repair successor walk
        // and the backward horizon walk must terminate without panicking
        // and leave a clean partial-replication state.
        let mut kv = store(3, 2);
        for i in 0..150u32 {
            kv.put(format!("key:{i}"), format!("value-{i}"));
        }
        let report = kv.fail_snode(SnodeId(0)).unwrap();
        assert_eq!(report.keys_lost, 0, "the second copy survives");
        let rep = kv.repair();
        assert_eq!(rep.bytes_shipped, 0, "one snode left: nobody to ship to");
        kv.verify_replication().unwrap();
        assert_eq!(kv.len(), 150);
        for i in 0..150u32 {
            let key = format!("key:{i}");
            assert!(kv.get(key.as_bytes()).is_some(), "{key} lost on the thin cluster");
            assert_eq!(kv.replicas_of(key.as_bytes()).len(), 1, "single-snode chain");
        }
        // The cluster thickens again: in-line join repair re-replicates.
        kv.join(SnodeId(7)).unwrap();
        kv.join(SnodeId(8)).unwrap();
        kv.verify_replication().unwrap();
        for i in 0..150u32 {
            assert_eq!(kv.replicas_of(format!("key:{i}").as_bytes()).len(), 3);
        }
    }

    #[test]
    fn routed_quorum_reads_settle_and_tally() {
        use domus_core::{SnapshotBuilder, SnapshotCell};
        // R = 1 so a moved key genuinely misses on the stale chain (at
        // R ≥ 2 a surviving replica answers even through a stale route —
        // the whole point of replication).
        let mut kv = store(1, 6);
        for i in 0..200u32 {
            kv.put(format!("k{i}"), format!("v{i}"));
        }
        let mut builder = SnapshotBuilder::from_engine(kv.engine());
        let cell = SnapshotCell::new(builder.snapshot());
        let mut pin = cell.load();
        // Rebalance past the pin: a join tee'd into the builder, published.
        let (out, _) = kv.join_with(SnodeId(9), &mut builder).unwrap();
        builder.note_create(out.vnode, SnodeId(9));
        builder.publish(&cell);
        let mut retried = 0u32;
        for i in 0..200u32 {
            let got = kv.get_quorum_routed(&cell, &mut pin, format!("k{i}").as_bytes());
            assert!(got.read.value.is_some(), "routed quorum read must converge on k{i}");
            assert!(got.retries <= 1, "one epoch of churn needs at most one retry");
            retried += got.retries;
        }
        assert!(retried > 0, "the join must have re-routed at least one probe key");
        assert_eq!(pin.epoch(), cell.epoch(), "the pin settles on the published epoch");
        // At the settled (current) epoch every read meets its quorum.
        for i in 0..200u32 {
            assert!(kv.get_quorum_at(&pin, format!("k{i}").as_bytes()).available());
        }
        let c = kv.read_stats().counters();
        assert_eq!(c.reads, 200);
        assert_eq!(c.stale_retries, u64::from(retried));
        assert_eq!(c.misses, 0);
    }
}
