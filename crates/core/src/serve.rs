//! The concurrent serving plane: epoch-numbered routing snapshots.
//!
//! Every mutation in this crate runs behind `&mut self` — the paper's
//! rebalancement algorithms are serial by construction. What a cluster
//! serving millions of lookups needs is for *reads* not to queue behind
//! that serialization. This module splits the two planes:
//!
//! * the **mutation plane** stays serialized: after each membership
//!   operation the writer reads the engine's own routing map through its
//!   one routing walk ([`DhtEngine::for_each_span`]) into the next
//!   snapshot ([`SnapshotCell::publish_next`]) — the engine is the one
//!   authority on who owns what, and nothing keeps a second copy;
//! * the **serving plane** is an immutable [`EngineSnapshot`] — a flat,
//!   binary-searchable array of owner spans plus the vnode→snode map and
//!   a per-snode quota summary — published into a [`SnapshotCell`].
//!
//! Readers pin the current snapshot once (one brief read-lock to clone
//! the `Arc` — the safe-Rust stand-in for an arc-swap cell; `unsafe` is
//! forbidden workspace-wide) and then resolve any number of lookups
//! against that consistent epoch with **zero** locking and zero
//! allocation: the snapshot is immutable, so a pinned view can never be
//! torn by a concurrent rebalance. When the writer publishes epoch
//! `N+1`, readers detect staleness with one atomic load and re-pin.
//!
//! ```
//! use domus_core::{DhtConfig, DhtEngine, EngineSnapshot, GlobalDht, NullSink, SnodeId};
//! use domus_core::serve::SnapshotCell;
//! use domus_hashspace::HashSpace;
//!
//! let cfg = DhtConfig::new(HashSpace::new(32), 4, 1).unwrap();
//! let mut dht = GlobalDht::with_seed(cfg, 7);
//! let cell = SnapshotCell::new(EngineSnapshot::from_engine(&dht, 0));
//!
//! // The mutation plane applies churn and publishes each epoch...
//! for s in 0..4 {
//!     dht.create_vnode_with(SnodeId(s), &mut NullSink).unwrap();
//!     cell.publish_next(&dht);
//! }
//! // ...while readers pin an epoch and resolve lookups lock-free.
//! let snap = cell.load();
//! let (v, s) = snap.lookup(0xDEAD_BEEF).unwrap();
//! assert_eq!(dht.lookup(0xDEAD_BEEF).unwrap().1, v);
//! assert_eq!(dht.snode_of(v).unwrap(), s);
//! assert_eq!(snap.epoch(), 4);
//! ```

use crate::engine::DhtEngine;
use crate::ids::{SnodeId, VnodeId};
use crate::sink::{RebalanceEvent, RebalanceSink};
use domus_hashspace::HashSpace;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One maximal run of hash space `[start, end)` served by a single vnode.
///
/// Spans are the snapshot's routing unit: adjacent partitions with the
/// same owner are coalesced, so a snapshot usually holds fewer spans than
/// the engine holds partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OwnerSpan {
    /// First point of the span.
    pub start: u64,
    /// One past the last point (`u128`: the top span ends at `2^Bh`).
    pub end: u128,
    /// Owning vnode.
    pub vnode: VnodeId,
    /// Snode hosting the owning vnode.
    pub snode: SnodeId,
}

/// Per-snode serving summary: how many vnodes it hosts and the exact
/// fraction of the hash space it answers for at this epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnodeLoad {
    /// The snode.
    pub snode: SnodeId,
    /// Vnodes hosted.
    pub vnodes: u32,
    /// Fraction of the hash space served (Σ over snodes = 1).
    pub quota: f64,
}

/// An immutable, epoch-numbered view of the routing state.
///
/// Read off the engine in one pass by [`EngineSnapshot::from_engine`].
/// All methods take `&self` and touch only immutable data — a pinned
/// snapshot is safe to share across any number of threads ([`Send`] +
/// [`Sync`]) and every lookup is lock-free.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSnapshot {
    epoch: u64,
    space: HashSpace,
    /// Sorted by `start`; tiles `[0, 2^Bh)` exactly when non-empty.
    spans: Vec<OwnerSpan>,
    /// Sorted by snode.
    loads: Vec<SnodeLoad>,
    vnodes: usize,
}

impl EngineSnapshot {
    /// An empty snapshot (no vnodes — every lookup misses).
    pub fn empty(space: HashSpace) -> Self {
        Self { epoch: 0, space, spans: Vec::new(), loads: Vec::new(), vnodes: 0 }
    }

    /// Captures the engine's current routing state: one
    /// [`DhtEngine::for_each_span`] walk from point 0, whose runs arrive
    /// in hash order, coalesced into spans (`O(runs)` plus one host
    /// lookup per run).
    pub fn from_engine<E: DhtEngine + ?Sized>(engine: &E, epoch: u64) -> Self {
        let space = engine.config().hash_space();
        let mut raw: Vec<OwnerSpan> = Vec::new();
        engine.for_each_span(0, &mut |start, end, vnode| {
            let snode = engine.snode_of(vnode).expect("a routing owner is live");
            raw.push(OwnerSpan { start, end, vnode, snode });
            true
        });
        let spans = coalesce(raw);
        let mut hosts: Vec<(VnodeId, SnodeId)> = Vec::with_capacity(engine.vnode_count());
        engine.for_each_vnode(&mut |v| {
            hosts.push((v, engine.snode_of(v).expect("listed vnode is live")))
        });
        let loads = loads_of(&spans, hosts.iter().copied(), space);
        Self { epoch, space, spans, loads, vnodes: hosts.len() }
    }

    /// The epoch this view was published at (strictly increasing per
    /// membership operation under [`SnapshotCell::publish_next`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The hash space this snapshot routes.
    pub fn space(&self) -> HashSpace {
        self.space
    }

    /// `true` when the DHT had no vnodes at capture time.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Live vnodes at capture time.
    pub fn vnode_count(&self) -> usize {
        self.vnodes
    }

    /// Distinct snodes at capture time.
    pub fn snode_count(&self) -> usize {
        self.loads.len()
    }

    /// Coalesced owner spans, in hash-space order.
    pub fn spans(&self) -> &[OwnerSpan] {
        &self.spans
    }

    /// Per-snode load summary, sorted by snode.
    pub fn loads(&self) -> &[SnodeLoad] {
        &self.loads
    }

    /// Fraction of the space served by `snode` (`None` when it hosts no
    /// vnodes at this epoch).
    pub fn quota_of(&self, snode: SnodeId) -> Option<f64> {
        self.loads.binary_search_by_key(&snode, |l| l.snode).ok().map(|i| self.loads[i].quota)
    }

    /// Index of the span containing `point`.
    fn span_index(&self, point: u64) -> Option<usize> {
        if self.spans.is_empty() || !self.space.contains(point) {
            return None;
        }
        // Last span with start <= point; spans tile the space from 0.
        Some(self.spans.partition_point(|s| s.start <= point) - 1)
    }

    /// Routes a point to its owning `(vnode, snode)` — the serving-plane
    /// mirror of [`DhtEngine::lookup`]. Lock-free, `O(log spans)`.
    pub fn lookup(&self, point: u64) -> Option<(VnodeId, SnodeId)> {
        self.span_index(point).map(|i| (self.spans[i].vnode, self.spans[i].snode))
    }

    /// The owning vnode of a point.
    pub fn owner_of(&self, point: u64) -> Option<VnodeId> {
        self.lookup(point).map(|(v, _)| v)
    }

    /// Visits span owners in hash-space order starting at the span
    /// containing `point`, wrapping past the top of the space, until `f`
    /// returns `false` or every span was visited once. Its distinct owners,
    /// in first-visit order, are those of [`DhtEngine::for_each_successor`]
    /// — the walk's whole contract; the same vnode recurs further on, so
    /// callers dedup. The first visit is the primary.
    pub fn for_each_successor(&self, point: u64, f: &mut dyn FnMut(VnodeId, SnodeId) -> bool) {
        let Some(first) = self.span_index(point) else { return };
        for off in 0..self.spans.len() {
            let s = &self.spans[(first + off) % self.spans.len()];
            if !f(s.vnode, s.snode) {
                return;
            }
        }
    }

    /// The replica chain of `point`: the owner, then the first vnode of
    /// each subsequent distinct snode along the successor walk, up to `r`
    /// entries — byte-for-byte the chain the replicated KV overlay places
    /// copies on, resolved against this pinned epoch.
    pub fn replicas(&self, point: u64, r: usize) -> Vec<VnodeId> {
        let mut out: Vec<VnodeId> = Vec::with_capacity(r);
        let mut snodes: Vec<SnodeId> = Vec::with_capacity(r);
        self.for_each_successor(point, &mut |v, s| {
            if !snodes.contains(&s) {
                snodes.push(s);
                out.push(v);
            }
            out.len() < r
        });
        out
    }
}

/// Merges adjacent same-vnode spans of a start-sorted list.
fn coalesce(raw: Vec<OwnerSpan>) -> Vec<OwnerSpan> {
    let mut out: Vec<OwnerSpan> = Vec::with_capacity(raw.len());
    for s in raw {
        match out.last_mut() {
            Some(prev) if prev.vnode == s.vnode && prev.end == s.start as u128 => {
                prev.end = s.end;
            }
            _ => out.push(s),
        }
    }
    out
}

/// Builds the per-snode summary from coalesced spans and the host map.
fn loads_of(
    spans: &[OwnerSpan],
    hosts: impl Iterator<Item = (VnodeId, SnodeId)>,
    space: HashSpace,
) -> Vec<SnodeLoad> {
    let mut by_snode: BTreeMap<SnodeId, SnodeLoad> = BTreeMap::new();
    for (_, snode) in hosts {
        by_snode.entry(snode).or_insert(SnodeLoad { snode, vnodes: 0, quota: 0.0 }).vnodes += 1;
    }
    let size = space.size() as f64;
    for s in spans {
        let load =
            by_snode.entry(s.snode).or_insert(SnodeLoad { snode: s.snode, vnodes: 0, quota: 0.0 });
        load.quota += (s.end - s.start as u128) as f64 / size;
    }
    by_snode.into_values().collect()
}

/// The published-snapshot cell readers pin epochs from.
///
/// `publish` swaps the current `Arc` under a write lock and bumps the
/// epoch counter; `load` clones the `Arc` under a read lock held for a
/// few instructions. [`SnapshotCell::epoch`] is a single atomic load, so
/// a reader's staleness check between lookups costs no lock at all.
/// (With `unsafe` forbidden workspace-wide this is the closest safe
/// analogue of an arc-swap cell; the pinned snapshot itself is immutable,
/// so everything after the pin is genuinely lock-free.)
#[derive(Debug)]
pub struct SnapshotCell {
    epoch: AtomicU64,
    cur: RwLock<Arc<EngineSnapshot>>,
}

impl SnapshotCell {
    /// A cell primed with `snap`.
    pub fn new(snap: EngineSnapshot) -> Self {
        Self { epoch: AtomicU64::new(snap.epoch()), cur: RwLock::new(Arc::new(snap)) }
    }

    /// Pins the current snapshot (cheap: one `Arc` clone under a brief
    /// read lock). Everything resolved against the returned value stays
    /// consistent to its epoch regardless of concurrent publishes.
    pub fn load(&self) -> Arc<EngineSnapshot> {
        Arc::clone(&self.cur.read())
    }

    /// The epoch of the latest published snapshot (one atomic load).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// `true` when `snap` is older than the latest published epoch — the
    /// reader-side stale-route check.
    pub fn is_stale(&self, snap: &EngineSnapshot) -> bool {
        snap.epoch() < self.epoch()
    }

    /// Publishes a new snapshot. Writers call this at the end of a
    /// membership operation, before releasing whatever lock serializes
    /// their data plane, so "store state" and "published epoch" advance
    /// atomically from any reader's point of view.
    pub fn publish(&self, snap: EngineSnapshot) {
        let epoch = snap.epoch();
        let mut cur = self.cur.write();
        *cur = Arc::new(snap);
        self.epoch.store(epoch, Ordering::Release);
    }

    /// Publishes `engine`'s current routing as the next epoch. Writers
    /// call this at the end of each membership operation, under the lock
    /// that serialises their mutations, so epochs count operations.
    pub fn publish_next<E: DhtEngine + ?Sized>(&self, engine: &E) {
        self.publish(EngineSnapshot::from_engine(engine, self.epoch() + 1));
    }

    /// A routed read with stale-route repair: `probe` reads through the
    /// pinned epoch and, while `hit` says it missed, the pin is replaced
    /// and the probe retried once per epoch the cell advanced past it.
    /// `route` names the key's route at an epoch (owner or replica
    /// chain). `snap` is left pinned to the epoch the read settled on;
    /// the stale-route retries are recorded into `stats` and returned.
    pub fn read_settled<T, K: PartialEq>(
        &self,
        snap: &mut Arc<EngineSnapshot>,
        stats: &RouteStats,
        probe: impl Fn(&EngineSnapshot) -> T,
        hit: impl Fn(&T) -> bool,
        route: impl Fn(&EngineSnapshot) -> K,
    ) -> (T, u32) {
        let mut retries = 0u32;
        loop {
            let read = probe(snap);
            let found = hit(&read);
            if found || !self.is_stale(snap) {
                stats.record(retries, !found);
                return (read, retries);
            }
            // The pin is behind, but a retry is only a *stale-route*
            // retry when the key's route actually moved between the
            // pinned and current epochs — a miss on a key whose route is
            // identical at both epochs is an absent key caught
            // mid-publish, not stale routing, and counting it would
            // double-book every concurrent-epoch miss as stale.
            let fresh = self.load();
            if route(&fresh) != route(snap) {
                retries += 1;
            }
            *snap = fresh;
        }
    }
}

/// Shared routing-read statistics: reads, stale refreshes, misses.
///
/// One struct serves every consumer of the serving plane — a
/// `KvService` counts its `get_routed` retries here, a `ReplicatedStore`
/// its quorum-read retries, and a route cache its stale re-pins — so a
/// client that layers a cache over a service can hand the *same*
/// `Arc<RouteStats>` to both and read one coherent tally. All counters
/// are relaxed atomics; snapshot them with [`RouteStats::counters`] and
/// diff windows with [`RouteCounters::since`].
#[derive(Debug, Default)]
pub struct RouteStats {
    reads: AtomicU64,
    stale_reads: AtomicU64,
    stale_retries: AtomicU64,
    misses: AtomicU64,
}

impl RouteStats {
    /// A zeroed stat block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one routed read that needed `retries` stale-route
    /// refreshes and did (`miss == true`) or did not find its key.
    pub fn record(&self, retries: u32, miss: bool) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        if retries > 0 {
            self.stale_reads.fetch_add(1, Ordering::Relaxed);
            self.stale_retries.fetch_add(u64::from(retries), Ordering::Relaxed);
        }
        if miss {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of the counters.
    pub fn counters(&self) -> RouteCounters {
        RouteCounters {
            reads: self.reads.load(Ordering::Relaxed),
            stale_reads: self.stale_reads.load(Ordering::Relaxed),
            stale_retries: self.stale_retries.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// A plain copy of [`RouteStats`] counters, diffable across windows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteCounters {
    /// Routed reads issued.
    pub reads: u64,
    /// Reads that needed at least one stale-route refresh.
    pub stale_reads: u64,
    /// Total stale-route refreshes (≥ `stale_reads`).
    pub stale_retries: u64,
    /// Reads that found no value.
    pub misses: u64,
}

impl RouteCounters {
    /// The delta accumulated since `prev` (a strictly earlier snapshot of
    /// the same stat block).
    pub fn since(&self, prev: RouteCounters) -> RouteCounters {
        RouteCounters {
            reads: self.reads - prev.reads,
            stale_reads: self.stale_reads - prev.stale_reads,
            stale_retries: self.stale_retries - prev.stale_retries,
            misses: self.misses - prev.misses,
        }
    }

    /// Fraction of reads answered without a stale refresh (1.0 when no
    /// reads happened — an idle cache is not a cold cache).
    pub fn hit_rate(&self) -> f64 {
        if self.reads == 0 {
            1.0
        } else {
            1.0 - self.stale_reads as f64 / self.reads as f64
        }
    }
}

/// Incrementally maintains the routing view from the event stream.
///
/// **Bench surface only.** No program code calls it: every serving plane
/// publishes with [`SnapshotCell::publish_next`], read off the engine.
/// The benchmark package still drives it, and it is deleted with the
/// bench half of ROADMAP item 7. Until then the tests use it as an
/// independent reference for [`EngineSnapshot::from_engine`].
///
/// Feed it as (or tee'd into) the [`RebalanceSink`] of every membership
/// operation; each [`Transfer`] is `O(log spans)` interval surgery on a
/// boundary map, and everything else leaves ownership untouched. After the operation, record the outcome
/// ([`SnapshotBuilder::note_create`] / [`SnapshotBuilder::note_remove`])
/// and [`SnapshotBuilder::publish`] the next epoch.
///
/// [`Transfer`]: crate::Transfer
#[derive(Debug, Clone)]
pub struct SnapshotBuilder {
    space: HashSpace,
    /// Boundary map: the entry at key `k` owns `[k, next key)`; the last
    /// entry owns through `2^Bh`. Empty iff no vnodes exist. The lowest
    /// boundary is always 0 once seeded.
    owners: BTreeMap<u64, VnodeId>,
    hosts: BTreeMap<VnodeId, SnodeId>,
    epoch: u64,
}

impl SnapshotBuilder {
    /// A builder for an empty DHT on `space`.
    pub fn new(space: HashSpace) -> Self {
        Self { space, owners: BTreeMap::new(), hosts: BTreeMap::new(), epoch: 0 }
    }

    /// Seeds a builder from an engine's current state (epoch 0) — attach
    /// point for engines that already contain vnodes.
    pub fn from_engine<E: DhtEngine + ?Sized>(engine: &E) -> Self {
        let space = engine.config().hash_space();
        let mut b = Self::new(space);
        engine.for_each_vnode(&mut |v| {
            let snode = engine.snode_of(v).expect("listed vnode is live");
            b.hosts.insert(v, snode);
            for p in engine.partitions_of(v).expect("listed vnode has partitions") {
                b.owners.insert(p.start(space), v);
            }
        });
        b.normalize();
        b
    }

    /// Drops redundant boundaries (same owner as the preceding span).
    fn normalize(&mut self) {
        let mut last: Option<VnodeId> = None;
        self.owners.retain(|_, v| {
            let keep = last != Some(*v);
            last = Some(*v);
            keep
        });
    }

    /// The epoch the *next* [`SnapshotBuilder::publish`] will stamp minus
    /// one — i.e. the epoch of the state already published.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The owner in effect at `point` (pre-surgery helper).
    fn owner_at(&self, point: u64) -> Option<VnodeId> {
        self.owners.range(..=point).next_back().map(|(_, &v)| v)
    }

    /// Reassigns `[start, end)` to `to` — the effect of one transfer.
    fn assign(&mut self, start: u64, end: u128, to: VnodeId) {
        debug_assert!(end > start as u128 && end <= self.space.size());
        // Preserve the successor's ownership past `end` by pinning a
        // boundary there before the range is cleared.
        if end < self.space.size() {
            let e = end as u64;
            if let Some(owner) = self.owner_at(e) {
                self.owners.entry(e).or_insert(owner);
            }
            let doomed: Vec<u64> = self.owners.range(start..e).map(|(&k, _)| k).collect();
            for k in doomed {
                self.owners.remove(&k);
            }
        } else {
            let doomed: Vec<u64> = self.owners.range(start..).map(|(&k, _)| k).collect();
            for k in doomed {
                self.owners.remove(&k);
            }
        }
        self.owners.insert(start, to);
    }

    /// Records a creation outcome: the new vnode's host. The first vnode
    /// of an empty DHT receives the whole space (its creation streams no
    /// transfers — there was nothing to hand over).
    pub fn note_create(&mut self, v: VnodeId, snode: SnodeId) {
        self.hosts.insert(v, snode);
        if self.owners.is_empty() {
            self.owners.insert(0, v);
        }
    }

    /// Records a removal outcome: the vnode's coverage was already drained
    /// by the operation's transfers; this drops its host entry.
    pub fn note_remove(&mut self, v: VnodeId) {
        self.hosts.remove(&v);
        debug_assert!(
            !self.owners.values().any(|&o| o == v),
            "removed vnode must have been drained by transfers"
        );
    }

    /// Records a crash outcome: every vnode `snode` hosted is gone. The
    /// failure operation already streamed the transfers that drained their
    /// coverage, so this only drops the dead host entries.
    pub fn note_fail(&mut self, snode: SnodeId) {
        self.hosts.retain(|_, s| *s != snode);
        debug_assert!(
            self.owners.values().all(|v| self.hosts.contains_key(v)),
            "crashed snode's coverage must have been drained by transfers"
        );
    }

    /// Builds the immutable snapshot of the current state at the current
    /// epoch (`O(spans)`).
    pub fn snapshot(&self) -> EngineSnapshot {
        let mut raw: Vec<OwnerSpan> = Vec::with_capacity(self.owners.len());
        let mut iter = self.owners.iter().peekable();
        while let Some((&start, &vnode)) = iter.next() {
            let end = iter.peek().map(|(&k, _)| k as u128).unwrap_or_else(|| self.space.size());
            let snode = *self.hosts.get(&vnode).expect("owning vnode has a host");
            raw.push(OwnerSpan { start, end, vnode, snode });
        }
        let spans = coalesce(raw);
        let loads = loads_of(&spans, self.hosts.iter().map(|(&v, &s)| (v, s)), self.space);
        EngineSnapshot {
            epoch: self.epoch,
            space: self.space,
            spans,
            loads,
            vnodes: self.hosts.len(),
        }
    }

    /// Advances the epoch and publishes the current state into `cell`.
    /// Returns the published epoch.
    pub fn publish(&mut self, cell: &SnapshotCell) -> u64 {
        self.epoch += 1;
        cell.publish(self.snapshot());
        self.epoch
    }
}

impl RebalanceSink for SnapshotBuilder {
    fn event(&mut self, e: RebalanceEvent) {
        // Splits/merges subdivide or fuse partitions under the same owner;
        // group events and migrations alter structure, not ownership.
        if let RebalanceEvent::Transfer(t) = e {
            let (start, end) = (t.partition.start(self.space), t.partition.end(self.space));
            self.assign(start, end, t.to);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DhtConfig;
    use crate::global::GlobalDht;
    use crate::local::LocalDht;

    fn probe_points(space: HashSpace) -> Vec<u64> {
        let mut pts: Vec<u64> =
            (0..257u64).map(|i| ((space.size() - 1) as u64 / 256).saturating_mul(i)).collect();
        pts.push(space.max_point());
        pts
    }

    fn assert_parity<E: DhtEngine>(engine: &E, snap: &EngineSnapshot) {
        let space = engine.config().hash_space();
        for p in probe_points(space) {
            let want = engine.lookup(p).map(|(_, v)| v);
            assert_eq!(snap.owner_of(p), want, "owner parity at point {p}");
            if let Some(v) = want {
                assert_eq!(
                    snap.lookup(p).unwrap().1,
                    engine.snode_of(v).unwrap(),
                    "snode parity at point {p}"
                );
            }
        }
        // Span boundaries are the adversarial points.
        for s in snap.spans() {
            assert_eq!(engine.lookup(s.start).unwrap().1, s.vnode);
        }
        // The incremental build must equal the one-pass build exactly.
        let full = EngineSnapshot::from_engine(engine, snap.epoch());
        assert_eq!(snap.spans(), full.spans());
        assert_eq!(snap.loads(), full.loads());
        // Quotas sum to 1 over a non-empty snapshot.
        if !snap.is_empty() {
            let total: f64 = snap.loads().iter().map(|l| l.quota).sum();
            assert!((total - 1.0).abs() < 1e-9, "quota sum {total}");
        }
    }

    fn churn_engine<E: DhtEngine>(mut engine: E, seed: u64) {
        let mut b = SnapshotBuilder::new(engine.config().hash_space());
        let cell = SnapshotCell::new(b.snapshot());
        let mut x = seed | 1;
        let mut rnd = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for round in 0..120u32 {
            // The builder's host map is the live roster, so victims are
            // drawn from it directly.
            let live: Vec<VnodeId> = b.hosts.keys().copied().collect();
            if live.len() < 4 || rnd() % 3 != 0 {
                let snode = SnodeId(rnd() as u32 % 10);
                let out = engine.create_vnode_with(snode, &mut b).unwrap();
                b.note_create(out.vnode, snode);
            } else {
                let victim = live[rnd() as usize % live.len()];
                engine.remove_vnode_with(victim, &mut b).unwrap();
                b.note_remove(victim);
            }
            let epoch = b.publish(&cell);
            assert_eq!(epoch, round as u64 + 1);
            assert_parity(&engine, &cell.load());
        }
        engine.check_invariants().unwrap();
    }

    #[test]
    fn builder_tracks_global_engine_through_churn() {
        for seed in [3u64, 77, 2024] {
            let cfg = DhtConfig::new(HashSpace::new(32), 4, 1).unwrap();
            churn_engine(GlobalDht::with_seed(cfg, seed), seed);
        }
    }

    #[test]
    fn builder_tracks_local_engine_through_churn() {
        for seed in [5u64, 91, 4096] {
            let cfg = DhtConfig::new(HashSpace::new(32), 4, 2).unwrap();
            churn_engine(LocalDht::with_seed(cfg, seed), seed);
        }
    }

    #[test]
    fn builder_tracks_snode_failures() {
        let cfg = DhtConfig::new(HashSpace::new(32), 4, 2).unwrap();
        let mut dht = LocalDht::with_seed(cfg, 9);
        let mut b = SnapshotBuilder::new(HashSpace::new(32));
        for i in 0..12u32 {
            let snode = SnodeId(i % 4);
            let out = dht.create_vnode_with(snode, &mut b).unwrap();
            b.note_create(out.vnode, snode);
        }
        assert_parity(&dht, &b.snapshot());
        let out = dht.fail_snode(SnodeId(1), &mut b).unwrap();
        assert!(!out.vnodes.is_empty());
        b.note_fail(SnodeId(1));
        assert_parity(&dht, &b.snapshot());
        assert!(b.snapshot().quota_of(SnodeId(1)).is_none(), "failed snode serves nothing");
    }

    #[test]
    fn cell_publish_and_staleness() {
        let space = HashSpace::new(16);
        let mut b = SnapshotBuilder::new(space);
        let cell = SnapshotCell::new(b.snapshot());
        let pinned = cell.load();
        assert_eq!(pinned.epoch(), 0);
        assert!(!cell.is_stale(&pinned));
        b.note_create(VnodeId(0), SnodeId(0));
        b.publish(&cell);
        assert!(cell.is_stale(&pinned), "old pin must read stale");
        assert_eq!(cell.epoch(), 1);
        let fresh = cell.load();
        assert_eq!(fresh.lookup(7), Some((VnodeId(0), SnodeId(0))));
        assert_eq!(fresh.quota_of(SnodeId(0)), Some(1.0));
    }

    #[test]
    fn successor_walk_matches_engine() {
        let cfg = DhtConfig::new(HashSpace::new(32), 4, 1).unwrap();
        let mut dht = GlobalDht::with_seed(cfg, 42);
        let mut b = SnapshotBuilder::new(HashSpace::new(32));
        for s in 0..6u32 {
            let out = dht.create_vnode_with(SnodeId(s % 3), &mut b).unwrap();
            b.note_create(out.vnode, SnodeId(s % 3));
        }
        let snap = b.snapshot();
        for point in probe_points(HashSpace::new(32)) {
            // Replica chains (dedup by snode) must agree walk-for-walk.
            let mut want: Vec<VnodeId> = Vec::new();
            let mut seen: Vec<SnodeId> = Vec::new();
            dht.for_each_successor(point, &mut |v| {
                let s = dht.snode_of(v).unwrap();
                if !seen.contains(&s) {
                    seen.push(s);
                    want.push(v);
                }
                want.len() < 3
            });
            assert_eq!(snap.replicas(point, 3), want, "replica chain at {point}");
        }
    }

    #[test]
    fn empty_snapshot_misses_everything() {
        let snap = EngineSnapshot::empty(HashSpace::new(8));
        assert!(snap.is_empty());
        assert_eq!(snap.lookup(0), None);
        assert_eq!(snap.replicas(17, 2), Vec::<VnodeId>::new());
        assert_eq!(snap.quota_of(SnodeId(0)), None);
    }
}
