//! The read path: fallback, quorum and snapshot-routed reads.

use super::placement::replicas_for;
use super::ReplicatedStore;
use bytes::Bytes;
use domus_core::{DhtEngine, EngineSnapshot, SnapshotCell, VnodeId};
use domus_hashspace::hasher::Fnv1aHasher;
use domus_hashspace::KeyHasher;
use std::sync::Arc;

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

impl<E: DhtEngine> ReplicatedStore<E> {
    /// The replica chain of a key's point (primary first).
    pub fn replicas_of(&self, key: &[u8]) -> Vec<VnodeId> {
        self.chain_of(self.point_of(key)).collect()
    }

    /// The primary vnode responsible for a key.
    pub fn route(&self, key: &[u8]) -> Option<VnodeId> {
        self.engine.lookup(self.point_of(key)).map(|(_, v)| v)
    }

    /// The primary vnode of a key per a pinned routing snapshot
    /// (serving-plane route — never consults the live engine).
    pub fn route_at(&self, snap: &EngineSnapshot, key: &[u8]) -> Option<VnodeId> {
        snap.owner_of(Fnv1aHasher.point(key, snap.space()))
    }

    /// Fallback read: probes the replica chain in placement order and
    /// returns the first copy found.
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        let point = self.point_of(key);
        self.chain_of(point).find_map(|v| self.slots.probe(v, point, key)).cloned()
    }

    /// Quorum read: the value (with fallback) plus how many replicas hold
    /// a copy, judged against the majority quorum.
    pub fn get_quorum(&self, key: &[u8]) -> QuorumRead {
        let point = self.point_of(key);
        self.quorum_over(key, point, self.chain_of(point))
    }

    /// Quorum read against a pinned epoch: the replica chain comes from
    /// the snapshot, the copy probes read the live buckets. Readers pin
    /// once and issue any number of these without touching the engine. A
    /// total miss can mean "absent" or "stale route" —
    /// [`ReplicatedStore::get_quorum_routed`] disambiguates.
    pub fn get_quorum_at(&self, snap: &EngineSnapshot, key: &[u8]) -> QuorumRead {
        let point = Fnv1aHasher.point(key, snap.space());
        self.quorum_over(key, point, snap.replicas(point, self.r))
    }

    /// Quorum read with stale-route repair ([`SnapshotCell::read_settled`]
    /// over the key's replica chain) — the replicated twin of
    /// `KvService::get_routed`. `snap` is left pinned to the epoch the
    /// read settled on, and the retry count lands in
    /// [`ReplicatedStore::read_stats`].
    pub fn get_quorum_routed(
        &self,
        cell: &SnapshotCell,
        snap: &mut Arc<EngineSnapshot>,
        key: &[u8],
    ) -> RoutedQuorum {
        let point = Fnv1aHasher.point(key, snap.space());
        let (read, retries) = cell.read_settled(
            snap,
            &self.stats,
            |at| self.quorum_over(key, point, at.replicas(point, self.r)),
            |read| read.value.is_some(),
            |at| at.replicas(point, self.r),
        );
        RoutedQuorum { read, retries }
    }

    /// The live replica chain of `point`, vnodes only.
    fn chain_of(&self, point: u64) -> impl Iterator<Item = VnodeId> {
        replicas_for(&self.engine, self.r, point).into_iter().map(|(v, _)| v)
    }

    /// Counts live copies of `key` over a replica chain.
    fn quorum_over(
        &self,
        key: &[u8],
        point: u64,
        chain: impl IntoIterator<Item = VnodeId>,
    ) -> QuorumRead {
        let mut copies = chain.into_iter().filter_map(|v| self.slots.probe(v, point, key));
        let value = copies.next().cloned();
        let hits = u32::from(value.is_some()) + copies.count() as u32;
        QuorumRead { value, hits, needed: self.quorum() }
    }
}
