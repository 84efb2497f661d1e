//! Maintenance-protocol pricing and per-group concurrency scheduling.
//!
//! This is the substrate that turns the paper's *qualitative* argument —
//! "consecutive creations of vnodes are executed serially [in the global
//! approach], thus limiting the parallelism and reducing the scalability
//! of the DHT" (§3) — into numbers.
//!
//! For every creation performed by a real engine, [`SimDriver`] prices the
//! event from the operation's event stream and the engine's own records:
//!
//! 1. **Victim lookup** (local approach only): one request to the snode
//!    owning the random point, answered with the victim group's LPDR.
//! 2. **Synchronisation round**: the initiator fans the creation request
//!    out to every *participant* snode — the snodes hosting vnodes of the
//!    record governing the event (all snodes for a GPDR, the group's
//!    snodes for an LPDR); each applies the deterministic algorithm and
//!    acknowledges with the updated record.
//! 3. **Partition transfers**: donors stream the moved partitions
//!    (metadata plus any configured payload) in parallel across donor
//!    snodes, each donor serialising its own sends.
//! 4. **CPU**: the record sort (`V log V`, §4.1.2 prices exactly this) and
//!    a per-split/per-transfer bookkeeping charge.
//!
//! Concurrency is then a resource-scheduling overlay: each event occupies
//! its governing record exclusively — the single GPDR for the global
//! approach, the container group's LPDR for the local one (the parent
//! group when the event split it). Events on disjoint groups overlap;
//! the schedule replays the engine's creation order, every event released
//! at time 0, under "start when the resource is free".

use crate::net::ClusterNet;
use crate::time::SimTime;
use domus_core::{DhtEngine, GroupId, GroupSplit, RebalanceEvent, RebalanceSink, SnodeId, VnodeId};
use std::collections::BTreeMap;

/// CPU cost parameters (2004-era cluster node).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Per record-entry sort work (the paper: "the time consumed to sort a
    /// LPDR table will also grow with its number of records").
    pub sort_per_entry: SimTime,
    /// Per binary partition split/merge bookkeeping.
    pub per_split: SimTime,
    /// Per transfer scheduling/bookkeeping.
    pub per_transfer: SimTime,
    /// Stored payload bytes shipped per transferred partition (0 prices a
    /// metadata-only DHT; the KV experiments measure real payloads
    /// separately).
    pub payload_per_partition: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            sort_per_entry: SimTime(500),
            per_split: SimTime(200),
            per_transfer: SimTime(1_000),
            payload_per_partition: 0,
        }
    }
}

/// Wire size of one PDR row (snode id + local id + count).
const PDR_ENTRY_BYTES: u64 = 12;
/// Wire size of a creation request / transfer header.
const HEADER_BYTES: u64 = 24;

impl CostModel {
    /// Sort/recompute time on a record of `record_len` entries (`V log V`,
    /// paper §4.1.2).
    fn sort_cost(&self, record_len: u64) -> SimTime {
        let v = record_len;
        let logv = if v <= 1 { 1 } else { 64 - (v - 1).leading_zeros() as u64 };
        SimTime(self.sort_per_entry.nanos() * v * logv)
    }

    /// Synchronisation round with every other participant: request out
    /// (fan-out serialised at the initiator), deterministic local
    /// recompute, record-sized acks back.
    fn sync_round(&self, net: &ClusterNet, record_len: u64, participants: u64) -> EventCost {
        let record_bytes = record_len * PDR_ENTRY_BYTES;
        let mut messages = 0u64;
        let mut bytes = 0u64;
        let mut duration = SimTime::ZERO;
        let others = participants.saturating_sub(1);
        if others > 0 {
            messages += 2 * others;
            bytes += others * (HEADER_BYTES + record_bytes);
            duration += net.fan_out(others, HEADER_BYTES);
            duration += net.one_way(record_bytes); // last ack home
        }
        duration += self.sort_cost(record_len);
        EventCost { messages, bytes, duration, participants }
    }

    /// Prices one membership event from its accumulated parts — the
    /// kernel [`EventPricer::finish_create`] and
    /// [`EventPricer::finish_remove`] resolve to:
    ///
    /// * the sync round on the governing record, whose `shape` is
    ///   `(entries, participant snodes)`;
    /// * one extra round trip carrying the record when `extra_round_trip`
    ///   (a creation's victim lookup, a removal's internal vnode migration);
    /// * `per_split` per partition of the `cascade` (merges are binary
    ///   splits run in reverse, so they share the charge);
    /// * the transfers: donors send in parallel, each serialising its own
    ///   sends (`worst_donor` is the busiest donor's count).
    fn price_parts(
        &self,
        net: &ClusterNet,
        (record_len, participants): (u64, u64),
        extra_round_trip: bool,
        cascade: u64,
        transfers: u64,
        worst_donor: u64,
    ) -> EventCost {
        let record_bytes = record_len * PDR_ENTRY_BYTES;
        let mut cost = self.sync_round(net, record_len, participants);
        if extra_round_trip {
            cost.messages += 2;
            cost.bytes += HEADER_BYTES + record_bytes;
            cost.duration += net.round_trip(HEADER_BYTES, record_bytes);
        }
        cost.duration += SimTime(self.per_split.nanos() * cascade);
        if transfers > 0 {
            let payload = HEADER_BYTES + self.payload_per_partition;
            cost.messages += transfers;
            cost.bytes += transfers * payload;
            cost.duration += net.fan_out(worst_donor, payload);
            cost.duration += SimTime(self.per_transfer.nanos() * transfers);
        }
        cost
    }
}

/// A [`RebalanceSink`] that prices a membership event *while it runs* —
/// no report is ever materialised.
///
/// Per event: call [`EventPricer::begin`], run the engine operation with
/// the pricer as its sink, then [`EventPricer::finish_create`] or
/// [`EventPricer::finish_remove`] with the governing record's shape. The
/// internal per-donor scratch is reused across events, so a replay loop
/// prices millions of events with no per-event allocation.
#[derive(Debug, Clone)]
pub struct EventPricer {
    net: ClusterNet,
    cost: CostModel,
    // Per-event accumulators, reset by `begin`.
    transfers: u64,
    splits: u64,
    merges: u64,
    probed: bool,
    group_split: Option<GroupSplit>,
    migrated: Option<(VnodeId, VnodeId)>,
    first_to: Option<VnodeId>,
    /// Per-donor totals, sorted by donor (reused scratch).
    per_donor: Vec<(VnodeId, u64)>,
    run_from: Option<VnodeId>,
    run_len: u64,
}

impl EventPricer {
    /// A pricer over the given network and cost models.
    pub fn new(net: ClusterNet, cost: CostModel) -> Self {
        Self {
            net,
            cost,
            transfers: 0,
            splits: 0,
            merges: 0,
            probed: false,
            group_split: None,
            migrated: None,
            first_to: None,
            per_donor: Vec::new(),
            run_from: None,
            run_len: 0,
        }
    }

    /// Resets the per-event accumulators (scratch capacity is kept).
    pub fn begin(&mut self) {
        self.transfers = 0;
        self.splits = 0;
        self.merges = 0;
        self.probed = false;
        self.group_split = None;
        self.migrated = None;
        self.first_to = None;
        self.per_donor.clear();
        self.run_from = None;
        self.run_len = 0;
    }

    /// Transfers observed since [`EventPricer::begin`].
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// The first transfer's receiver — the vnode through which the
    /// governing record of a removal is visible afterwards.
    pub fn first_receiver(&self) -> Option<VnodeId> {
        self.first_to
    }

    /// The group split observed, if any (creations only).
    pub fn group_split(&self) -> Option<GroupSplit> {
        self.group_split
    }

    /// The internal vnode migration observed, if any (removals only), as
    /// `(v, v)`: a migration keeps the vnode's handle. The pair stays until
    /// the benchmark stops reading it.
    pub fn migrated(&self) -> Option<(VnodeId, VnodeId)> {
        self.migrated
    }

    fn flush_run(&mut self) {
        let Some(from) = self.run_from.take() else { return };
        let len = std::mem::take(&mut self.run_len);
        match self.per_donor.binary_search_by_key(&from, |&(d, _)| d) {
            Ok(i) => self.per_donor[i].1 += len,
            Err(i) => self.per_donor.insert(i, (from, len)),
        }
    }

    fn worst_donor(&mut self) -> u64 {
        self.flush_run();
        self.per_donor.iter().map(|&(_, n)| n).max().unwrap_or(0)
    }

    /// Prices the accumulated creation against the governing record's
    /// shape (`record_len` entries over `participants` snodes).
    pub fn finish_create(&mut self, record_len: u64, participants: u64) -> EventCost {
        let worst = self.worst_donor();
        let shape = (record_len, participants);
        self.cost.price_parts(&self.net, shape, self.probed, self.splits, self.transfers, worst)
    }

    /// Prices the accumulated removal. Harmonisation `PartitionSplit`s
    /// are ignored (the legacy report never carried them).
    pub fn finish_remove(&mut self, record_len: u64, participants: u64) -> EventCost {
        let worst = self.worst_donor();
        let (shape, migrated) = ((record_len, participants), self.migrated.is_some());
        self.cost.price_parts(&self.net, shape, migrated, self.merges, self.transfers, worst)
    }
}

impl RebalanceSink for EventPricer {
    fn event(&mut self, e: RebalanceEvent) {
        match e {
            RebalanceEvent::Transfer(t) => {
                self.transfers += 1;
                if self.first_to.is_none() {
                    self.first_to = Some(t.to);
                }
                if self.run_from == Some(t.from) {
                    self.run_len += 1;
                } else {
                    self.flush_run();
                    self.run_from = Some(t.from);
                    self.run_len = 1;
                }
            }
            RebalanceEvent::PartitionSplit { count } => self.splits += count,
            RebalanceEvent::PartitionMerge { pairs } => self.merges += pairs,
            RebalanceEvent::GroupSplit(s) => self.group_split = Some(s),
            RebalanceEvent::GroupMerge { .. } => {}
            RebalanceEvent::VnodeMigrated { old, new } => self.migrated = Some((old, new)),
            RebalanceEvent::LookupProbe { .. } => self.probed = true,
        }
    }
}

/// The priced outcome of one maintenance event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventCost {
    /// Messages exchanged.
    pub messages: u64,
    /// Total bytes on the wire (payloads + framing overhead).
    pub bytes: u64,
    /// Wall-clock duration of the event on its resource.
    pub duration: SimTime,
    /// Distinct snodes that had to participate.
    pub participants: u64,
}

/// One scheduled event in the trace.
#[derive(Debug, Clone, Copy)]
pub struct ScheduledEvent {
    /// The vnode created.
    pub vnode: VnodeId,
    /// The record/group resource the event occupied.
    pub resource: GroupId,
    /// Start of service (every event is released at time 0).
    pub start: SimTime,
    /// Completion.
    pub done: SimTime,
    /// The priced cost.
    pub cost: EventCost,
}

/// Aggregate results of a simulated maintenance workload.
#[derive(Debug, Clone, Default)]
pub struct SimTrace {
    /// Per-event records, in creation order.
    pub events: Vec<ScheduledEvent>,
}

impl SimTrace {
    /// Completion time of the last event.
    pub fn makespan(&self) -> SimTime {
        self.events.iter().map(|e| e.done).max().unwrap_or(SimTime::ZERO)
    }

    /// Sum of service times — the serial-execution lower bound.
    pub fn total_service(&self) -> SimTime {
        SimTime(self.events.iter().map(|e| e.cost.duration.nanos()).sum())
    }

    /// Achieved concurrency: total service time over makespan (1.0 =
    /// fully serial).
    pub fn parallelism(&self) -> f64 {
        let m = self.makespan().nanos();
        if m == 0 {
            return 1.0;
        }
        self.total_service().nanos() as f64 / m as f64
    }

    /// Total messages.
    pub fn messages(&self) -> u64 {
        self.events.iter().map(|e| e.cost.messages).sum()
    }

    /// Total bytes.
    pub fn bytes(&self) -> u64 {
        self.events.iter().map(|e| e.cost.bytes).sum()
    }

    /// Mean participants per event.
    pub fn mean_participants(&self) -> f64 {
        if self.events.is_empty() {
            return 0.0;
        }
        self.events.iter().map(|e| e.cost.participants as f64).sum::<f64>()
            / self.events.len() as f64
    }
}

/// Drives a real engine while pricing and scheduling every creation.
///
/// Pricing is streamed: the driver *is* wired to the engine through an
/// [`EventPricer`] sink, so no report is materialised per event.
pub struct SimDriver<E: DhtEngine> {
    engine: E,
    pricer: EventPricer,
    /// Per-resource next-free time.
    busy: BTreeMap<GroupId, SimTime>,
    trace: SimTrace,
}

impl<E: DhtEngine> SimDriver<E> {
    /// Wraps `engine` with the default network/cost models. Every event is
    /// released at time 0 — maximal pressure on the resources.
    pub fn new(engine: E) -> Self {
        Self {
            engine,
            pricer: EventPricer::new(ClusterNet::default(), CostModel::default()),
            busy: BTreeMap::new(),
            trace: SimTrace::default(),
        }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// The accumulated trace.
    pub fn trace(&self) -> &SimTrace {
        &self.trace
    }

    /// Creates one vnode, pricing (in-stream) and scheduling the event.
    pub fn create_vnode(&mut self, snode: SnodeId) -> Result<VnodeId, domus_core::DhtError> {
        self.pricer.begin();
        let outcome = self.engine.create_vnode_with(snode, &mut self.pricer)?;
        let vnode = outcome.vnode;
        let (record_len, participants) =
            self.engine.record_shape_of(vnode).expect("fresh vnode has a record");
        let cost = self.pricer.finish_create(record_len, participants);

        // The resource occupied: the container group — or the parent group
        // when this event split it (the split itself is part of the event).
        let container = outcome.group.expect("creation reports its group");
        let group_split = self.pricer.group_split();
        let resource = group_split.map(|s| s.parent).unwrap_or(container);

        let start = self.busy.get(&resource).copied().unwrap_or(SimTime::ZERO);
        let done = start + cost.duration;
        self.busy.insert(resource, done);
        if let Some(split) = group_split {
            // Both halves come into existence busy until the event ends.
            self.busy.insert(split.child0, done);
            self.busy.insert(split.child1, done);
        }
        self.trace.events.push(ScheduledEvent { vnode, resource, start, done, cost });
        Ok(vnode)
    }

    /// Creates `n` vnodes hosted round-robin over `snodes` cluster nodes.
    pub fn grow(&mut self, n: usize, snodes: u32) -> Result<(), domus_core::DhtError> {
        for i in 0..n {
            self.create_vnode(SnodeId(i as u32 % snodes))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domus_core::{CountOnly, DhtConfig, GlobalDht, LocalDht, NullSink};
    use domus_hashspace::HashSpace;

    fn local(vmin: u64) -> LocalDht {
        let cfg = DhtConfig::new(HashSpace::new(32), 4, vmin).unwrap();
        LocalDht::with_seed(cfg, 42)
    }

    fn global() -> GlobalDht {
        let cfg = DhtConfig::new(HashSpace::new(32), 4, 1).unwrap();
        GlobalDht::with_seed(cfg, 42)
    }

    #[test]
    fn global_approach_is_fully_serial() {
        let mut sim = SimDriver::new(global());
        sim.grow(64, 8).unwrap();
        let t = sim.trace();
        assert_eq!(t.events.len(), 64);
        // One resource ⇒ no overlap ⇒ parallelism exactly 1.
        assert!((t.parallelism() - 1.0).abs() < 1e-9, "parallelism {}", t.parallelism());
        assert_eq!(t.makespan(), t.total_service());
    }

    #[test]
    fn local_approach_overlaps_events() {
        let mut sim = SimDriver::new(local(4));
        sim.grow(128, 8).unwrap();
        let t = sim.trace();
        assert!(
            t.parallelism() > 1.5,
            "many small groups must overlap creations, got {}",
            t.parallelism()
        );
        assert!(t.makespan() < t.total_service());
    }

    #[test]
    fn global_sync_cost_grows_with_v_local_stays_bounded() {
        let mut g = SimDriver::new(global());
        g.grow(128, 16).unwrap();
        let g_first = g.trace().events[2].cost.messages;
        let g_last = g.trace().events[127].cost.messages;
        assert!(g_last > g_first, "GPDR sync must grow with V");

        let mut l = SimDriver::new(local(4));
        l.grow(128, 16).unwrap();
        let l_last = l.trace().events[127].cost.messages;
        // Group-bounded: participants ≤ Vmax ⇒ messages stay small.
        assert!(l_last < g_last, "local sync ({l_last} msgs) must undercut global ({g_last} msgs)");
    }

    #[test]
    fn deterministic_trace() {
        let run = || {
            let mut sim = SimDriver::new(local(4));
            sim.grow(50, 4).unwrap();
            (sim.trace().makespan(), sim.trace().messages(), sim.trace().bytes())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn remove_pricing_mirrors_create_pricing() {
        let mut dht = local(4);
        for i in 0..24u32 {
            dht.create_vnode_with(SnodeId(i % 6), &mut NullSink).unwrap();
        }
        let cost = CostModel::default();
        let net = ClusterNet::default();
        let victim = dht.vnodes()[7];
        let mut counts = CountOnly::default();
        dht.remove_vnode_with(victim, &mut counts).unwrap();
        let transfers = counts.transfers;
        let price = |participants| {
            let migrated = counts.migrations > 0;
            let merges = counts.partition_merges;
            cost.price_parts(&net, (8, participants), migrated, merges, transfers, transfers)
        };
        let priced = price(4);
        // A removal with transfers must price messages, bytes and time.
        assert!(transfers > 0);
        assert!(priced.messages > 0 && priced.bytes > 0);
        assert!(priced.duration > SimTime::ZERO);
        assert_eq!(priced.participants, 4);
        // Deterministic: identical inputs price identically.
        assert_eq!(priced, price(4));
        // More participants cost strictly more sync traffic.
        let wider = price(9);
        assert!(wider.messages > priced.messages && wider.duration > priced.duration);
    }

    /// Pins creation and removal pricing over a grid of event shapes. The
    /// digest was captured against the two pre-merge pricers
    /// (`price_create_parts` / `price_remove_parts`), one pass each; both
    /// now resolve to the one kernel.
    #[test]
    fn pricing_kernel_digest() {
        let net = ClusterNet::default();
        let costs = [
            CostModel::default(),
            CostModel {
                per_split: SimTime(7),
                payload_per_partition: 4096,
                ..CostModel::default()
            },
        ];
        let mut digest = 0u64;
        let mut fold = |x: u64| digest = domus_util::SplitMix64::mix(digest ^ x);
        for cost in &costs {
            for _pricer in ["create", "remove"] {
                for record_len in [0u64, 1, 2, 7, 64, 1000] {
                    for participants in [0u64, 1, 2, 5, 33] {
                        for extra in [false, true] {
                            for cascade in [0u64, 1, 16] {
                                for (transfers, worst) in [(0u64, 0u64), (1, 1), (5, 2), (40, 40)] {
                                    let shape = (record_len, participants);
                                    let c = cost
                                        .price_parts(&net, shape, extra, cascade, transfers, worst);
                                    fold(c.messages);
                                    fold(c.bytes);
                                    fold(c.duration.nanos());
                                    fold(c.participants);
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(digest, 0x2e82_4a29_5f40_b7c6);
    }

    #[test]
    fn split_events_occupy_the_parent() {
        let mut sim = SimDriver::new(local(2));
        sim.grow(20, 4).unwrap();
        let split_events: Vec<&ScheduledEvent> = sim
            .trace()
            .events
            .iter()
            .filter(|e| {
                // A split event's resource is a gid shorter than its final
                // container group's gid.
                e.resource.len() < sim.engine().group_of(e.vnode).map(|g| g.len()).unwrap_or(0)
            })
            .collect();
        assert!(!split_events.is_empty(), "growing 20 vnodes with Vmin=2 must split groups");
    }
}
