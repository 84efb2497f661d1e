//! The engine abstraction shared by the global and local approaches, plus
//! the operation surface consumed by the simulator and the KV layer.
//!
//! Each membership operation has exactly one call:
//! [`DhtEngine::create_vnode_with`] / [`DhtEngine::remove_vnode_with`]
//! stream typed [`RebalanceEvent`](crate::RebalanceEvent)s into a caller-supplied
//! [`RebalanceSink`] while they run. Callers pick the sink —
//! [`crate::NullSink`] when only the outcome matters, [`crate::CountOnly`]
//! for tallies, [`crate::CollectReport`] to materialise a
//! [`CreateReport`] / [`RemoveReport`].
//! The trait is dyn-compatible: `&mut dyn DhtEngine` drives any backend.

use crate::config::DhtConfig;
use crate::errors::DhtError;
use crate::group_id::GroupId;
use crate::ids::{CanonicalName, SnodeId, VnodeId};
use crate::invariants::InvariantViolation;
use crate::record::Pdr;
use crate::sink::RebalanceSink;
use crate::stats::BalanceSnapshot;
use domus_hashspace::Partition;
use std::collections::BTreeSet;

/// One partition changing hands during a rebalancement event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// The partition moved (at the region's splitlevel at transfer time).
    pub partition: Partition,
    /// Donor vnode.
    pub from: VnodeId,
    /// Receiving vnode.
    pub to: VnodeId,
}

/// A group split performed during a creation (§3.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupSplit {
    /// The full group that split.
    pub parent: GroupId,
    /// The 0-prefixed child.
    pub child0: GroupId,
    /// The 1-prefixed child.
    pub child1: GroupId,
}

/// The scalar outcome of one vnode creation — everything that is a fact
/// about the *result* rather than a step of the rebalancement (those
/// stream through the sink).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CreateOutcome {
    /// The created vnode's handle.
    pub vnode: VnodeId,
    /// The group that received the vnode (root id for the global
    /// approach and CH).
    pub group: Option<GroupId>,
    /// Member count of the container group after the creation.
    pub group_size_after: usize,
}

/// The scalar outcome of one vnode removal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoveOutcome {
    /// Group the vnode was removed from.
    pub group: Option<GroupId>,
}

/// The scalar outcome of one snode crash ([`DhtEngine::fail_snode`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailOutcome {
    /// The failed snode's vnodes, in the order they were torn down (their
    /// creation order).
    pub vnodes: Vec<VnodeId>,
    /// Always empty: a migration keeps the vnode's handle. Kept until the
    /// benchmark stops reading it.
    pub renames: Vec<(VnodeId, VnodeId)>,
}

/// The scalar outcome of one snode rejoin ([`DhtEngine::rejoin_snode`]) —
/// the control-plane counterpart of [`FailOutcome`]: the handles the
/// returning snode was re-enrolled under. What the rejoining snode does
/// with its recovered durable state (WAL replay, digest repair) is the
/// data plane's business, layered above (see `domus-kv`'s
/// `ReplicatedStore::rejoin_snode`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RejoinOutcome {
    /// The re-enrolled vnodes' handles, in creation order. Fresh handles:
    /// a rejoin never resurrects the crashed incarnation's ids.
    pub vnodes: Vec<VnodeId>,
}

/// Everything that happened while creating one vnode.
///
/// Materialised view: [`DhtEngine::create_vnode_with`] emits the same
/// facts as [`RebalanceEvent`](crate::RebalanceEvent)s without allocating; a
/// [`crate::CollectReport`] sink assembles them into this struct for
/// consumers that want the event list as data.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CreateReport {
    /// The group that received the vnode (root id for the global approach).
    pub group: Option<GroupId>,
    /// The random point `r ∈ R_h` drawn for victim selection (local only).
    pub lookup_point: Option<u64>,
    /// The victim vnode owning `r` (local only).
    pub victim: Option<VnodeId>,
    /// A group split, if the victim group was full.
    pub group_split: Option<GroupSplit>,
    /// Number of partitions binary-split by the split cascade (pre-split
    /// count; 0 when no cascade ran).
    pub partition_splits: u64,
    /// The partition transfers of the greedy reassignment, in order.
    pub transfers: Vec<Transfer>,
    /// Member count of the container group after the creation.
    pub group_size_after: usize,
}

/// Everything that happened while removing one vnode (deletion extension).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RemoveReport {
    /// Group the vnode was removed from.
    pub group: Option<GroupId>,
    /// Partition transfers (redistribution + any merge co-location moves).
    pub transfers: Vec<Transfer>,
    /// Number of partition pairs binary-merged (0 when no merge cascade).
    pub partition_merges: u64,
    /// A group merge `(a, b) → parent`, if one was required.
    pub group_merge: Option<(GroupId, GroupId, GroupId)>,
    /// A vnode internally migrated between groups to make the removal
    /// legal, if any. It keeps its handle.
    pub migrated: Option<VnodeId>,
}

/// Common interface of [`crate::GlobalDht`], [`crate::LocalDht`] and the
/// `domus-ch` Consistent-Hashing adapter.
///
/// The two model engines are one, [`crate::local::BalancedDht`], over a
/// region policy: `GlobalDht` keeps one region and draws no victim probe.
///
/// Downstream layers (simulator, KV store, churn replay, experiments)
/// are generic over this trait — or hold a `&mut dyn DhtEngine` — so
/// every experiment runs against any backend.
pub trait DhtEngine {
    /// The immutable configuration.
    fn config(&self) -> &DhtConfig;

    /// Number of live vnodes `V`.
    fn vnode_count(&self) -> usize;

    /// Number of live groups `G` (always 1 for the global approach; an
    /// empty DHT has one empty root group).
    fn group_count(&self) -> usize;

    /// Creates a vnode hosted by `snode` and rebalances per the model,
    /// streaming every rebalancement step into `sink` as it happens.
    ///
    /// ```
    /// use domus_core::{CountOnly, DhtConfig, DhtEngine, GlobalDht, SnodeId};
    /// use domus_hashspace::HashSpace;
    ///
    /// let cfg = DhtConfig::new(HashSpace::new(32), 4, 1).unwrap();
    /// let mut dht = GlobalDht::with_seed(cfg, 1);
    /// let mut counts = CountOnly::default();
    /// let first = dht.create_vnode_with(SnodeId(0), &mut counts).unwrap();
    /// assert_eq!(counts.transfers, 0, "nobody to take from");
    /// dht.create_vnode_with(SnodeId(1), &mut counts).unwrap();
    /// assert!(counts.transfers > 0, "the second vnode pulls partitions");
    /// # assert_eq!(first.group_size_after, 1);
    /// ```
    fn create_vnode_with(
        &mut self,
        snode: SnodeId,
        sink: &mut dyn RebalanceSink,
    ) -> Result<CreateOutcome, DhtError>;

    /// Removes a vnode and rebalances, streaming every rebalancement step
    /// into `sink` as it happens. The paper's model admits deletion (§1,
    /// §2.1.3) but details only creation; removal is this crate's
    /// extension, the inverse of the §2.5 creation algorithm.
    fn remove_vnode_with(
        &mut self,
        v: VnodeId,
        sink: &mut dyn RebalanceSink,
    ) -> Result<RemoveOutcome, DhtError>;

    /// The vnode responsible for `point`, with the containing partition.
    fn lookup(&self, point: u64) -> Option<(Partition, VnodeId)>;

    /// Visits owners in hash-space order, starting at the owner of `point`
    /// and wrapping past the top of the space, until `f` returns `false` or
    /// the walk is back where it started — the successor walk a
    /// cluster-aware replica placer probes for followers. The first visit
    /// is always the point's owner (the primary).
    ///
    /// The contract is the sequence of *distinct* owners, in first-visit
    /// order: the one a walk over every partition gives. A backend may
    /// visit a run of one owner's partitions once or once per partition
    /// (the model engines visit each routing entry once), and the same
    /// vnode recurs further on, so callers dedup by vnode or snode.
    ///
    /// The default walks partition by partition through [`DhtEngine::lookup`]
    /// (`O(log P)` per step on any backend); the model engines override it
    /// with a direct scan of their routing map.
    fn for_each_successor(&self, point: u64, f: &mut dyn FnMut(VnodeId) -> bool) {
        let Some((first, v)) = self.lookup(point) else { return };
        if !f(v) {
            return;
        }
        let space = self.config().hash_space();
        let start = first.start(space);
        let mut cursor = first.end(space);
        loop {
            let next = if cursor >= space.size() { 0 } else { cursor as u64 };
            if next == start {
                return; // wrapped all the way around
            }
            let Some((p, v)) = self.lookup(next) else { return };
            if !f(v) {
                return;
            }
            cursor = p.end(space);
        }
    }

    /// The live vnodes hosted by `s`, in creation order (empty when it
    /// hosts none) — O(1), off the engine's per-snode index.
    fn vnodes_of_snode(&self, s: SnodeId) -> &[VnodeId];

    /// Number of snodes hosting at least one live vnode — O(1).
    fn snode_count(&self) -> usize;

    /// Crashes a snode: every vnode it hosts is removed **ungracefully**,
    /// streaming the resulting rebalancement into `sink`.
    ///
    /// Control-plane-wise this is a sequence of removals (routing must
    /// stay total, so the failed vnodes' partitions transfer to
    /// survivors); the crash semantics live in the *data plane* — a
    /// replicated store layered on the engine treats the streamed
    /// transfers out of a failed vnode as **lost** rather than migrated
    /// (see `domus-kv`'s `ReplicatedStore::fail_snode_with`), which is
    /// exactly what distinguishes this path from per-vnode
    /// [`DhtEngine::remove_vnode_with`] driven by a graceful leave.
    ///
    /// Fails with [`DhtError::EmptySnode`] when `s` hosts nothing and
    /// [`DhtError::LastVnode`] when the crash would empty the DHT; both
    /// are checked before anything mutates.
    fn fail_snode(
        &mut self,
        s: SnodeId,
        sink: &mut dyn RebalanceSink,
    ) -> Result<FailOutcome, DhtError> {
        let victims = self.vnodes_of_snode(s).to_vec();
        if victims.is_empty() {
            return Err(DhtError::EmptySnode(s));
        }
        if victims.len() == self.vnode_count() {
            return Err(DhtError::LastVnode);
        }
        for &v in &victims {
            self.remove_vnode_with(v, sink)?;
        }
        Ok(FailOutcome { vnodes: victims, renames: Vec::new() })
    }

    /// Re-enrols a previously crashed snode with `vnodes` fresh vnodes,
    /// streaming the rebalancement of each enrolment into `sink` — the
    /// inverse of [`DhtEngine::fail_snode`], sized by the vnode count
    /// recorded at crash time.
    ///
    /// Control-plane-wise this is a sequence of creations under fresh
    /// handles (crashed incarnations are never resurrected — their
    /// partitions were redistributed at crash time and routing moved
    /// on). The *data* plane decides what the returning snode recovers:
    /// a WAL-backed store replays its durable log into the re-enrolled
    /// placement instead of being rebuilt wholesale from replicas.
    ///
    /// Fails with [`DhtError::EmptySnode`] when `vnodes` is zero —
    /// mirroring [`DhtEngine::fail_snode`]'s refusal to crash a snode
    /// that hosts nothing. A mid-sequence creation error propagates;
    /// vnodes already enrolled stay live (the caller sees them in the
    /// engine).
    fn rejoin_snode(
        &mut self,
        s: SnodeId,
        vnodes: usize,
        sink: &mut dyn RebalanceSink,
    ) -> Result<RejoinOutcome, DhtError> {
        if vnodes == 0 {
            return Err(DhtError::EmptySnode(s));
        }
        let mut outcome = RejoinOutcome::default();
        for _ in 0..vnodes {
            let created = self.create_vnode_with(s, sink)?;
            outcome.vnodes.push(created.vnode);
        }
        Ok(outcome)
    }

    /// Visits every live vnode handle, in creation order (a vnode keeps
    /// its handle and its place through a group migration) — the
    /// allocation-free primitive behind [`DhtEngine::vnodes`].
    fn for_each_vnode(&self, f: &mut dyn FnMut(VnodeId));

    /// Live vnode handles in creation order (owned snapshot; hot loops
    /// should prefer [`DhtEngine::for_each_vnode`]).
    fn vnodes(&self) -> Vec<VnodeId> {
        let mut out = Vec::with_capacity(self.vnode_count());
        self.for_each_vnode(&mut |v| out.push(v));
        out
    }

    /// Canonical name of a vnode.
    fn name_of(&self, v: VnodeId) -> Result<CanonicalName, DhtError>;

    /// Hosting snode of a vnode.
    fn snode_of(&self, v: VnodeId) -> Result<SnodeId, DhtError>;

    /// The partitions currently bound to a vnode (owned snapshot: engines
    /// whose internal representation is not a flat list — e.g. the
    /// consistent-hashing adapter's interval maps — materialise it).
    fn partitions_of(&self, v: VnodeId) -> Result<Vec<Partition>, DhtError>;

    /// The partition count `Pv` of one vnode. Engines override this to
    /// avoid materialising the partition list when only the count is
    /// needed (the per-creation record loops).
    fn partition_count(&self, v: VnodeId) -> Result<u64, DhtError> {
        Ok(self.partitions_of(v)?.len() as u64)
    }

    /// The quota `Qv` of one vnode (exact partition-count over size form).
    fn quota_of(&self, v: VnodeId) -> Result<f64, DhtError>;

    /// Visits every vnode quota, in creation order — the allocation-free
    /// primitive behind [`DhtEngine::quotas`]. Engines override it to
    /// skip the per-vnode liveness re-check of the generic path.
    fn for_each_quota(&self, f: &mut dyn FnMut(f64)) {
        let mut err = None;
        self.for_each_vnode(&mut |v| match self.quota_of(v) {
            Ok(q) => f(q),
            Err(e) => err = Some(e),
        });
        debug_assert!(err.is_none(), "a listed vnode has a quota");
    }

    /// All vnode quotas, in creation order (Σ = 1; owned snapshot — hot
    /// loops should prefer [`DhtEngine::for_each_quota`]).
    fn quotas(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.vnode_count());
        self.for_each_quota(&mut |q| out.push(q));
        out
    }

    /// The paper's quality metric `σ̄(Qv, Q̄v)` in percent (§2.3/§3.5).
    fn vnode_quota_relstd_pct(&self) -> f64;

    /// The partition-distribution record visible to a lookup of `v`'s
    /// region: the GPDR for the global approach, the LPDR of `v`'s group
    /// for the local approach.
    fn pdr_of(&self, v: VnodeId) -> Result<Pdr, DhtError>;

    /// The *shape* of the record governing `v`'s region: `(entries,
    /// distinct participant snodes)` — all that event pricing needs from
    /// [`DhtEngine::pdr_of`]. The default materialises the record
    /// (O(record)); engines override it with incrementally-maintained
    /// counts so replay loops never rebuild a PDR per event.
    fn record_shape_of(&self, v: VnodeId) -> Result<(u64, u64), DhtError> {
        let pdr = self.pdr_of(v)?;
        let snodes: BTreeSet<SnodeId> = pdr.entries().iter().map(|e| e.vnode.snode).collect();
        Ok((pdr.len() as u64, snodes.len() as u64))
    }

    /// A point-in-time [`BalanceSnapshot`]. The default is the generic
    /// one-pass capture (O(V)); engines override it to sample from their
    /// incremental accumulators (O(S + G) for the model engines) so
    /// high-cadence observation windows never rescan the vnode map.
    fn balance_snapshot(&self) -> BalanceSnapshot {
        BalanceSnapshot::capture(self)
    }

    /// Verifies every model invariant; `Ok` on a healthy structure.
    fn check_invariants(&self) -> Result<(), InvariantViolation>;
}
