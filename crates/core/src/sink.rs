//! The streaming rebalance-event surface.
//!
//! The engines used to narrate each membership operation *after the
//! fact*, heap-allocating a [`CreateReport`]/[`RemoveReport`] per event
//! that every consumer (simulator pricing, churn replay, KV migration)
//! then re-walked. This module inverts that: operations emit typed
//! [`RebalanceEvent`]s into a caller-supplied [`RebalanceSink`] *while
//! they run*, so consumers react in-line and the hot path allocates
//! nothing per event.
//!
//! * [`NullSink`] — discard everything (pure throughput).
//! * [`CountOnly`] — tally events per kind, no payloads retained.
//! * [`CollectReport`] — reconstitute the [`CreateReport`] /
//!   [`RemoveReport`] structs for callers that read report fields; the
//!   `sink_parity` golden test asserts the reconstruction is
//!   field-identical to the pre-redesign inline reports.
//! * [`Tee`] — fan one event stream out to two sinks.
//!
//! ```
//! use domus_core::{CountOnly, DhtConfig, DhtEngine, GlobalDht, SnodeId};
//! use domus_hashspace::HashSpace;
//!
//! let cfg = DhtConfig::new(HashSpace::new(32), 4, 1).unwrap();
//! let mut dht = GlobalDht::with_seed(cfg, 7);
//! let mut counts = CountOnly::default();
//! for s in 0..8 {
//!     dht.create_vnode_with(SnodeId(s), &mut counts).unwrap();
//! }
//! // 8 creations moved partitions and split through two power-of-two
//! // boundaries — all observed live, nothing was materialised.
//! assert!(counts.transfers > 0 && counts.partition_splits > 0);
//! ```

use crate::engine::{CreateOutcome, CreateReport, GroupSplit, RemoveOutcome, RemoveReport};
use crate::group_id::GroupId;
use crate::ids::{SnodeId, VnodeId};
use crate::ledger::SnodeLedger;
use crate::Transfer;
use domus_hashspace::Quota;

/// One rebalancement step, emitted while a membership operation runs.
///
/// The variants cover everything the report structs record — plus the
/// level-harmonisation splits of group merges, which [`RemoveReport`]
/// does not record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RebalanceEvent {
    /// One partition changed hands (greedy handover, drain, co-location).
    Transfer(Transfer),
    /// A split cascade binary-split `count` partitions (§2.5).
    PartitionSplit {
        /// Partitions split (pre-split count).
        count: u64,
    },
    /// A merge cascade binary-merged `pairs` sibling pairs (deletion
    /// extension; the inverse of the split cascade).
    PartitionMerge {
        /// Sibling pairs merged.
        pairs: u64,
    },
    /// A full group split into two `Vmin`-member halves (§3.7).
    GroupSplit(GroupSplit),
    /// Two sibling groups re-fused into their parent identifier
    /// (deletion extension).
    GroupMerge {
        /// The 0-prefixed child that merged.
        left: GroupId,
        /// The 1-prefixed child that merged.
        right: GroupId,
        /// The parent identifier the pair fused into.
        parent: GroupId,
    },
    /// A vnode was internally migrated between groups to make a removal
    /// legal. It keeps its handle, so `old == new` always; the pair stays
    /// until the benchmark stops reading it.
    VnodeMigrated {
        /// The migrated vnode.
        old: VnodeId,
        /// The migrated vnode again (`== old`).
        new: VnodeId,
    },
    /// The victim-selection lookup of the local approach (§3.6): a random
    /// point routed to the vnode whose group contains the creation.
    LookupProbe {
        /// The random point `r ∈ R_h`.
        point: u64,
        /// The vnode owning the partition containing `r`.
        victim: VnodeId,
    },
}

/// A consumer of [`RebalanceEvent`]s.
///
/// Engines call [`RebalanceSink::event`] once per rebalancement step, in
/// the exact order the steps happen. Implementations must not call back
/// into the engine (it is mutably borrowed for the whole operation).
pub trait RebalanceSink {
    /// Observes one event.
    fn event(&mut self, e: RebalanceEvent);
}

impl<S: RebalanceSink + ?Sized> RebalanceSink for &mut S {
    fn event(&mut self, e: RebalanceEvent) {
        (**self).event(e);
    }
}

/// Discards every event — the allocation-free hot path for replay loops
/// that only need the operation's outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl RebalanceSink for NullSink {
    fn event(&mut self, _: RebalanceEvent) {}
}

/// Tallies events per kind without retaining payloads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountOnly {
    /// `Transfer` events seen.
    pub transfers: u64,
    /// Partitions split (sum of `PartitionSplit::count`).
    pub partition_splits: u64,
    /// Sibling pairs merged (sum of `PartitionMerge::pairs`).
    pub partition_merges: u64,
    /// `GroupSplit` events seen.
    pub group_splits: u64,
    /// `GroupMerge` events seen.
    pub group_merges: u64,
    /// `VnodeMigrated` events seen.
    pub migrations: u64,
    /// `LookupProbe` events seen.
    pub probes: u64,
}

impl CountOnly {
    /// Sum of every counter — a cheap "how much rebalancement happened"
    /// scalar (cascade counters contribute their partition counts).
    pub fn total(&self) -> u64 {
        self.transfers
            + self.partition_splits
            + self.partition_merges
            + self.group_splits
            + self.group_merges
            + self.migrations
            + self.probes
    }
}

impl RebalanceSink for CountOnly {
    fn event(&mut self, e: RebalanceEvent) {
        match e {
            RebalanceEvent::Transfer(_) => self.transfers += 1,
            RebalanceEvent::PartitionSplit { count } => self.partition_splits += count,
            RebalanceEvent::PartitionMerge { pairs } => self.partition_merges += pairs,
            RebalanceEvent::GroupSplit(_) => self.group_splits += 1,
            RebalanceEvent::GroupMerge { .. } => self.group_merges += 1,
            RebalanceEvent::VnodeMigrated { .. } => self.migrations += 1,
            RebalanceEvent::LookupProbe { .. } => self.probes += 1,
        }
    }
}

/// Forwards every event to both sinks, in order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tee<A, B>(pub A, pub B);

impl<A: RebalanceSink, B: RebalanceSink> RebalanceSink for Tee<A, B> {
    fn event(&mut self, e: RebalanceEvent) {
        self.0.event(e);
        self.1.event(e);
    }
}

/// Reconstitutes the report structs from the event stream.
///
/// Pass one as the sink of [`crate::DhtEngine::create_vnode_with`] /
/// [`crate::DhtEngine::remove_vnode_with`], then assemble the report with
/// [`CollectReport::into_create_report`] /
/// [`CollectReport::into_remove_report`]; call [`CollectReport::clear`]
/// between operations to reuse the transfer buffer's capacity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CollectReport {
    lookup_point: Option<u64>,
    victim: Option<VnodeId>,
    group_split: Option<GroupSplit>,
    partition_splits: u64,
    partition_merges: u64,
    group_merge: Option<(GroupId, GroupId, GroupId)>,
    migrated: Option<VnodeId>,
    transfers: Vec<Transfer>,
}

impl CollectReport {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The transfers observed so far, in emission order.
    pub fn transfers(&self) -> &[Transfer] {
        &self.transfers
    }

    /// Resets for the next operation, keeping the transfer buffer's
    /// capacity.
    pub fn clear(&mut self) {
        self.lookup_point = None;
        self.victim = None;
        self.group_split = None;
        self.partition_splits = 0;
        self.partition_merges = 0;
        self.group_merge = None;
        self.migrated = None;
        self.transfers.clear();
    }

    /// Assembles the [`CreateReport`] for a finished creation.
    pub fn into_create_report(self, outcome: &CreateOutcome) -> CreateReport {
        CreateReport {
            group: outcome.group,
            lookup_point: self.lookup_point,
            victim: self.victim,
            group_split: self.group_split,
            partition_splits: self.partition_splits,
            transfers: self.transfers,
            group_size_after: outcome.group_size_after,
        }
    }

    /// Assembles the [`RemoveReport`] for a finished removal.
    ///
    /// Level-harmonisation `PartitionSplit`s (emitted by group merges)
    /// are dropped, exactly as the pre-redesign inline report dropped them.
    pub fn into_remove_report(self, outcome: &RemoveOutcome) -> RemoveReport {
        RemoveReport {
            group: outcome.group,
            transfers: self.transfers,
            partition_merges: self.partition_merges,
            group_merge: self.group_merge,
            migrated: self.migrated,
        }
    }
}

impl RebalanceSink for CollectReport {
    fn event(&mut self, e: RebalanceEvent) {
        match e {
            RebalanceEvent::Transfer(t) => self.transfers.push(t),
            RebalanceEvent::PartitionSplit { count } => self.partition_splits += count,
            RebalanceEvent::PartitionMerge { pairs } => self.partition_merges += pairs,
            RebalanceEvent::GroupSplit(s) => self.group_split = Some(s),
            RebalanceEvent::GroupMerge { left, right, parent } => {
                self.group_merge = Some((left, right, parent));
            }
            RebalanceEvent::VnodeMigrated { old, .. } => self.migrated = Some(old),
            RebalanceEvent::LookupProbe { point, victim } => {
                self.lookup_point = Some(point);
                self.victim = Some(victim);
            }
        }
    }
}

/// Backend-implementation helper: forwards events to a caller sink while
/// streaming the engine's [`SnodeLedger`] update for every transfer.
///
/// Consecutive transfers between the same snode pair are coalesced into
/// one exact [`Quota`] move (the run structure drains, cascades and CH
/// claims naturally produce), so the ledger is touched once per run —
/// the same cost profile the materialised-list replay had before the
/// streaming redesign. The pending run is flushed on drop.
pub struct LedgeredSink<'a> {
    out: &'a mut dyn RebalanceSink,
    ledger: &'a mut SnodeLedger,
    run: Option<(SnodeId, SnodeId, Quota)>,
}

impl<'a> LedgeredSink<'a> {
    /// Wraps a caller sink and the ledger to stream into.
    pub fn new(out: &'a mut dyn RebalanceSink, ledger: &'a mut SnodeLedger) -> Self {
        Self { out, ledger, run: None }
    }

    /// Emits one transfer, moving its quota from the donor's hosting
    /// snode to the receiver's.
    pub fn transfer(&mut self, t: Transfer, from_snode: SnodeId, to_snode: SnodeId) {
        match &mut self.run {
            Some((f, s, q)) if *f == from_snode && *s == to_snode => {
                *q = *q + t.partition.quota();
            }
            run => {
                if let Some((f, s, q)) = run.take() {
                    self.ledger.move_quota(f, s, q);
                }
                *run = Some((from_snode, to_snode, t.partition.quota()));
            }
        }
        self.out.event(RebalanceEvent::Transfer(t));
    }

    /// Applies the pending coalesced run to the ledger. Called
    /// automatically on drop; call explicitly before reading the ledger
    /// mid-operation.
    pub fn flush(&mut self) {
        if let Some((f, s, q)) = self.run.take() {
            self.ledger.move_quota(f, s, q);
        }
    }
}

impl Drop for LedgeredSink<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domus_hashspace::Partition;

    fn t(level: u32, index: u64, from: u32, to: u32) -> Transfer {
        Transfer { partition: Partition::new(level, index), from: VnodeId(from), to: VnodeId(to) }
    }

    #[test]
    fn tee_forwards_to_both_in_order() {
        let mut tee = Tee(CountOnly::default(), CollectReport::new());
        tee.event(RebalanceEvent::Transfer(t(3, 0, 0, 1)));
        tee.event(RebalanceEvent::PartitionSplit { count: 4 });
        tee.event(RebalanceEvent::Transfer(t(3, 1, 0, 1)));
        assert_eq!(tee.0.transfers, 2);
        assert_eq!(tee.0.partition_splits, 4);
        assert_eq!(tee.1.transfers(), &[t(3, 0, 0, 1), t(3, 1, 0, 1)]);
    }

    #[test]
    fn collect_report_roundtrips_every_field() {
        let mut c = CollectReport::new();
        c.event(RebalanceEvent::LookupProbe { point: 99, victim: VnodeId(4) });
        c.event(RebalanceEvent::GroupSplit(GroupSplit {
            parent: GroupId::FIRST,
            child0: GroupId::FIRST.split().0,
            child1: GroupId::FIRST.split().1,
        }));
        c.event(RebalanceEvent::PartitionSplit { count: 8 });
        c.event(RebalanceEvent::Transfer(t(4, 2, 1, 7)));
        let rep = c.into_create_report(&CreateOutcome {
            vnode: VnodeId(7),
            group: Some(GroupId::FIRST.split().0),
            group_size_after: 3,
        });
        assert_eq!(rep.lookup_point, Some(99));
        assert_eq!(rep.victim, Some(VnodeId(4)));
        assert_eq!(rep.partition_splits, 8);
        assert_eq!(rep.transfers, vec![t(4, 2, 1, 7)]);
        assert_eq!(rep.group_size_after, 3);
        assert!(rep.group_split.is_some());
    }

    #[test]
    fn clear_keeps_capacity_and_resets_fields() {
        let mut c = CollectReport::new();
        for i in 0..64 {
            c.event(RebalanceEvent::Transfer(t(8, i, 0, 1)));
        }
        c.event(RebalanceEvent::PartitionMerge { pairs: 2 });
        let cap = c.transfers.capacity();
        c.clear();
        assert_eq!(c, CollectReport::new());
        assert_eq!(c.transfers.capacity(), cap, "clear must keep the buffer");
    }

    #[test]
    fn null_sink_ignores_everything() {
        let mut n = NullSink;
        n.event(RebalanceEvent::PartitionMerge { pairs: 5 });
        n.event(RebalanceEvent::VnodeMigrated { old: VnodeId(0), new: VnodeId(0) });
        assert_eq!(n, NullSink);
    }
}
