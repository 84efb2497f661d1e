//! The balanced engine, and the **local approach** (§3 of the paper — its
//! primary contribution) as its group policy.
//!
//! [`BalancedDht`] is the one engine of both approaches: the shared kernel
//! of [`crate::balance`] run per region, with a [`RegionPolicy`] choosing
//! the container of each creation and whether the group laws bind.
//! [`crate::GlobalDht`] keeps one region (§2); [`LocalDht`] runs groups.
//! Every engine starts with one empty root group.
//!
//! The vnode set is fully divided into *groups* (invariant L1) whose sizes
//! are bounded by `Vmin ≤ V_g ≤ Vmax = 2·Vmin` (L2). Each group balances
//! independently with the same greedy algorithm as the global approach,
//! over its own LPDR; balancement events in different groups may run
//! simultaneously (the simulator in `domus-sim` prices exactly that).
//!
//! Creation of a vnode (§3.6): draw a random point `r ∈ R_h`, look up the
//! vnode owning the partition containing `r` (the *victim vnode*), and use
//! its group (the *victim group*) as the container. A full victim group
//! (`V_g = Vmax`) first splits into two groups of `Vmin` randomly-selected
//! members (§3.7); the split assigns identifiers by the binary-prefix
//! scheme of §3.7.1 and one of the two halves is chosen at random as the
//! container.
//!
//! A law this implementation leans on (checked by the invariant suite): a
//! group's quota of `R_h` is exactly `2^-depth(gid)`. It holds because a
//! full group is perfectly balanced internally (G5' at `Vmax`, a power of
//! two), so splitting its membership in equal halves also splits its quota
//! in equal halves, and nothing else ever moves quota across group borders.

use crate::balance;
use crate::config::{ContainerChoice, DhtConfig};
use crate::engine::{CreateOutcome, DhtEngine, GroupSplit, RemoveOutcome};
use crate::errors::DhtError;
use crate::group_id::GroupId;
use crate::ids::{CanonicalName, SnodeId, VnodeId};
use crate::invariants::{self, InvariantViolation};
use crate::ledger::SnodeLedger;
use crate::record::{Pdr, PdrEntry};
use crate::sink::{LedgeredSink, RebalanceEvent, RebalanceSink};
use crate::state::{count, GroupState, VnodeStore};
use crate::stats::BalanceSnapshot;
use domus_hashspace::{OwnerMap, Partition, Quota};
use domus_util::{DomusRng, Xoshiro256pp};
use std::marker::PhantomData;

/// How a [`BalancedDht`] divides its vnodes into balancement regions —
/// the only thing the global and local approaches do differently.
pub trait RegionPolicy: Sized {
    /// Whether the paper's group laws bind: L2, the group quota law and
    /// prefix-free group identifiers.
    const GROUP_LAWS: bool;

    /// Picks the live group slot that admits a new vnode into a non-empty
    /// DHT, streaming any victim probe or group split into `sink`.
    fn container<R: DomusRng>(dht: &mut BalancedDht<Self, R>, sink: &mut dyn RebalanceSink) -> u32;
}

/// The local approach's policy: the §3.6 victim probe picks the container
/// group, and a full one splits first (§3.7).
#[derive(Debug, Clone)]
pub struct Groups;

/// The one balanced engine, over the region policy `P`.
#[derive(Debug, Clone)]
pub struct BalancedDht<P, R: DomusRng = Xoshiro256pp> {
    pub(crate) cfg: DhtConfig,
    pub(crate) vs: VnodeStore,
    pub(crate) groups: Vec<GroupState>,
    pub(crate) routing: OwnerMap<VnodeId>,
    pub(crate) ledger: SnodeLedger,
    pub(crate) rng: R,
    /// Slots of the live groups, ascending (fresh slots are always
    /// appended at the end of the arena, so pushes preserve the order).
    /// Retired slots stay in `groups` as tombstones; every hot iteration
    /// walks this list instead of the ever-growing arena.
    pub(crate) live_slots: Vec<u32>,
    policy: PhantomData<P>,
}

/// A DHT balanced with the local approach.
///
/// ```
/// use domus_core::{DhtConfig, LocalDht, DhtEngine, NullSink, SnodeId};
/// use domus_hashspace::HashSpace;
///
/// // Pmin = Vmin = 4 on a 32-bit space.
/// let cfg = DhtConfig::new(HashSpace::new(32), 4, 4).unwrap();
/// let mut dht = LocalDht::with_seed(cfg, 7);
/// for s in 0..32 {
///     dht.create_vnode_with(SnodeId(s), &mut NullSink).unwrap();
/// }
/// assert!(dht.group_count() >= 2, "32 vnodes exceed one group's Vmax = 8");
/// assert!(dht.vnode_quota_relstd_pct() < 50.0);
/// ```
pub type LocalDht<R = Xoshiro256pp> = BalancedDht<Groups, R>;

/// The ideal number of groups for `v` vnodes (figure 7's `G_ideal`):
/// doubles every time `V` crosses a power-of-two multiple of `Vmax` —
/// `2^⌈log2(V/Vmax)⌉`, and 1 while a single group suffices.
pub fn ideal_group_count(v: u64, vmax: u64) -> u64 {
    if v <= vmax {
        1
    } else {
        let groups = v.div_ceil(vmax);
        domus_util::bits::next_power_of_two(groups)
    }
}

impl<P: RegionPolicy> BalancedDht<P, Xoshiro256pp> {
    /// A DHT seeded from a single `u64` (deterministic).
    pub fn with_seed(cfg: DhtConfig, seed: u64) -> Self {
        Self::with_rng(cfg, Xoshiro256pp::seed_from_u64(seed))
    }
}

impl<P: RegionPolicy, R: DomusRng> BalancedDht<P, R> {
    /// A DHT using the supplied RNG stream.
    pub fn with_rng(cfg: DhtConfig, rng: R) -> Self {
        let space = cfg.hash_space();
        Self {
            cfg,
            vs: VnodeStore::new(),
            groups: vec![GroupState::new(GroupId::FIRST, cfg.initial_level())],
            routing: OwnerMap::new(space),
            ledger: SnodeLedger::new(),
            rng,
            live_slots: vec![0],
            policy: PhantomData,
        }
    }

    /// The per-snode table: each snode's vnodes and exact quota.
    pub fn ledger(&self) -> &SnodeLedger {
        &self.ledger
    }

    /// `σ̄(Qg, Q̄g)` in percent — figure 8's quality of balancement *between
    /// groups*, measured against the ideal average quota `Q̄g = 1/G`.
    pub fn group_quota_relstd_pct(&self) -> f64 {
        let g = self.live_slots.len() as f64;
        let ideal = 1.0 / g;
        let sum_sq_dev: f64 = self
            .live_groups()
            .map(|gr| {
                let d = gr.quota_f64() - ideal;
                d * d
            })
            .sum();
        // σ̄ = σ/Q̄g = G·sqrt(Σd²/G) = sqrt(G·Σd²).
        100.0 * (g * sum_sq_dev).sqrt()
    }

    /// The live groups, in ascending slot order.
    pub(crate) fn live_groups(&self) -> impl Iterator<Item = &GroupState> {
        self.live_slots.iter().map(|&s| &self.groups[s as usize])
    }

    /// Retires a group slot from the live list.
    pub(crate) fn retire_slot(&mut self, slot: u32) {
        let at = self.live_slots.binary_search(&slot).expect("retired slot was live");
        self.live_slots.remove(at);
    }

    /// The partition-distribution record of one region (§2.1.4, §3.2).
    pub(crate) fn record_of(&self, g: &GroupState) -> Pdr {
        Pdr::new(
            g.members
                .iter()
                .map(|&m| PdrEntry {
                    vnode: self.vs.get(m).name,
                    partitions: count(&self.routing, m),
                })
                .collect(),
        )
    }

    pub(crate) fn ensure_alive(&self, v: VnodeId) -> Result<(), DhtError> {
        self.vs.is_alive(v).then_some(()).ok_or(DhtError::UnknownVnode(v))
    }

    /// A fresh, partition-less vnode on `snode` in group `slot`: its
    /// handle from the arena, its name and index entry from the ledger.
    fn new_vnode(&mut self, snode: SnodeId, slot: u32) -> VnodeId {
        let name = self.ledger.vnode_created(snode, self.vs.next_handle());
        self.vs.create(name, slot)
    }

    /// Runs the paper's balancement (§2.5) for one vnode entering group
    /// `slot` with nothing held: the split cascade when every member sits
    /// at `Pmin`, then the greedy handover, streaming every step into
    /// `sink`. `enter` names the vnode once the cascade has succeeded — a
    /// fresh one on creation, the drained survivor on the deletion
    /// extension's internal migration — so a refused cascade creates
    /// nothing.
    pub(crate) fn admit_into_group(
        &mut self,
        slot: u32,
        sink: &mut dyn RebalanceSink,
        enter: impl FnOnce(&mut Self) -> VnodeId,
    ) -> Result<VnodeId, DhtError> {
        // §2.5: when the region's count is a power of two every member
        // holds Pmin (G5'), and the handover would drop one below Pmin —
        // so every member binary-splits its partitions first.
        if balance::all_at_pmin(&self.groups[slot as usize], &self.cfg) {
            let count = balance::split_all(&mut self.routing, &mut self.groups[slot as usize])?;
            sink.event(RebalanceEvent::PartitionSplit { count });
        }
        let v = enter(self);
        self.vs.get_mut(v).group = slot;
        self.groups[slot as usize].admit(v, 0);
        let Self { vs, groups, routing, ledger, rng, cfg, .. } = self;
        let mut ls = LedgeredSink::new(sink, ledger);
        balance::greedy_add(vs, routing, &mut groups[slot as usize], v, cfg, rng, &mut ls);
        Ok(v)
    }

    /// Runs the full invariant suite after every mutation in debug builds.
    pub(crate) fn debug_check(&self) {
        if cfg!(debug_assertions) {
            if let Err(e) = self.check_invariants() {
                panic!("invariant violated after a DHT operation: {e}");
            }
        }
    }
}

impl RegionPolicy for Groups {
    const GROUP_LAWS: bool = true;

    fn container<R: DomusRng>(dht: &mut LocalDht<R>, sink: &mut dyn RebalanceSink) -> u32 {
        // §3.6: random point → victim vnode → victim group.
        let r = dht.cfg.hash_space().random_point(&mut dht.rng);
        let (_, &victim) = dht.routing.lookup(r).expect("R_h is fully covered");
        let victim_slot = dht.vs.get(victim).group;
        sink.event(RebalanceEvent::LookupProbe { point: r, victim });

        // §3.7 case b: a full victim group splits before admitting.
        if dht.groups[victim_slot as usize].len() as u64 != dht.cfg.vmax() {
            return victim_slot;
        }
        let parent_gid = dht.groups[victim_slot as usize].gid;
        let (slot0, slot1) = dht.split_group(victim_slot);
        sink.event(RebalanceEvent::GroupSplit(GroupSplit {
            parent: parent_gid,
            child0: dht.groups[slot0 as usize].gid,
            child1: dht.groups[slot1 as usize].gid,
        }));
        match dht.cfg.container_choice {
            // "One of these two groups will then be randomly chosen to
            // be the container of the new vnode."
            ContainerChoice::RandomHalf => {
                if dht.rng.coin() {
                    slot1
                } else {
                    slot0
                }
            }
            // Ablation: the half that kept the victim vnode.
            ContainerChoice::OwningHalf => dht.vs.get(victim).group,
        }
    }
}

impl<R: DomusRng> LocalDht<R> {
    /// Live groups as `(identifier, member count, splitlevel)` in slot
    /// order.
    pub fn group_table(&self) -> Vec<(GroupId, usize, u32)> {
        self.live_groups().map(|g| (g.gid, g.len(), g.level)).collect()
    }

    /// The LPDR (§3.2) of the group identified by `gid`.
    pub fn lpdr(&self, gid: GroupId) -> Option<Pdr> {
        Some(self.record_of(self.live_groups().find(|g| g.gid == gid)?))
    }

    /// The group a vnode currently belongs to.
    pub fn group_of(&self, v: VnodeId) -> Result<GroupId, DhtError> {
        self.ensure_alive(v)?;
        Ok(self.groups[self.vs.get(v).group as usize].gid)
    }

    /// Quotas of the live groups, in slot order (Σ = 1).
    pub fn group_quotas(&self) -> Vec<f64> {
        self.live_groups().map(|g| g.quota_f64()).collect()
    }

    /// Splits the full group in `slot` into two `Vmin`-member halves with
    /// identifiers inherited per §3.7.1. Returns the two child slots.
    ///
    /// No partition changes hands, so neither vnode quotas nor the snode
    /// ledger move.
    fn split_group(&mut self, slot: u32) -> (u32, u32) {
        let parent = &mut self.groups[slot as usize];
        debug_assert_eq!(parent.len() as u64, self.cfg.vmax(), "only full groups split");
        parent.alive = false;
        let level = parent.level;
        let (gid0, gid1) = parent.gid.split();
        let mut members = std::mem::take(&mut parent.members);
        parent.clear_accumulators();

        // "two groups, each one with Vmin vnodes, randomly selected from the
        // original victim group" (§3.7) — or admission-order halves under
        // the ABL-SPLITSEL ablation policy.
        if self.cfg.split_selection == crate::config::SplitSelection::RandomHalves {
            self.rng.shuffle(&mut members);
        }
        let half = self.cfg.vmin as usize;

        let slot0 = self.groups.len() as u32;
        let slot1 = slot0 + 1;
        let mut child0 = GroupState::new(gid0, level);
        let mut child1 = GroupState::new(gid1, level);
        for (i, &m) in members.iter().enumerate() {
            let pv = count(&self.routing, m);
            if i < half {
                self.vs.get_mut(m).group = slot0;
                child0.admit(m, pv);
            } else {
                self.vs.get_mut(m).group = slot1;
                child1.admit(m, pv);
            }
        }
        self.groups.push(child0);
        self.groups.push(child1);
        self.retire_slot(slot);
        self.live_slots.push(slot0);
        self.live_slots.push(slot1);
        (slot0, slot1)
    }
}

impl<P: RegionPolicy, R: DomusRng> DhtEngine for BalancedDht<P, R> {
    fn config(&self) -> &DhtConfig {
        &self.cfg
    }

    fn vnode_count(&self) -> usize {
        self.vs.alive_count()
    }

    fn group_count(&self) -> usize {
        self.live_slots.len()
    }

    fn create_vnode_with(
        &mut self,
        snode: SnodeId,
        sink: &mut dyn RebalanceSink,
    ) -> Result<CreateOutcome, DhtError> {
        // First vnode: seed the root group (§3.7 case a).
        if self.vs.alive_count() == 0 {
            let slot = self.live_slots[0];
            let v = self.new_vnode(snode, slot);
            balance::seed_first(&mut self.routing, &mut self.groups[slot as usize], v, &self.cfg);
            self.ledger.gain(snode, Quota::ONE);
            self.debug_check();
            return Ok(CreateOutcome {
                vnode: v,
                group: Some(GroupId::FIRST),
                group_size_after: 1,
            });
        }

        let slot = P::container(self, sink);
        let vnode = self.admit_into_group(slot, sink, |dht| dht.new_vnode(snode, slot))?;
        self.debug_check();
        let g = &self.groups[slot as usize];
        Ok(CreateOutcome { vnode, group: Some(g.gid), group_size_after: g.len() })
    }

    fn remove_vnode_with(
        &mut self,
        v: VnodeId,
        sink: &mut dyn RebalanceSink,
    ) -> Result<RemoveOutcome, DhtError> {
        crate::deletion::remove(self, v, sink)
    }

    fn lookup(&self, point: u64) -> Option<(Partition, VnodeId)> {
        self.routing.lookup(point).map(|(p, &v)| (p, v))
    }

    fn for_each_span(&self, point: u64, f: &mut dyn FnMut(u64, u128, VnodeId) -> bool) {
        let space = self.cfg.hash_space();
        for (p, &v) in self.routing.successors(point) {
            if !f(p.start(space), p.end(space), v) {
                return;
            }
        }
    }

    fn for_each_vnode(&self, f: &mut dyn FnMut(VnodeId)) {
        self.vs.iter_alive().for_each(f);
    }

    fn name_of(&self, v: VnodeId) -> Result<CanonicalName, DhtError> {
        self.ensure_alive(v)?;
        Ok(self.vs.get(v).name)
    }

    fn snode_of(&self, v: VnodeId) -> Result<SnodeId, DhtError> {
        self.ensure_alive(v)?;
        Ok(self.vs.get(v).name.snode)
    }

    fn vnodes_of_snode(&self, s: SnodeId) -> &[VnodeId] {
        self.ledger.vnodes_of(s)
    }

    fn snode_count(&self) -> usize {
        self.ledger.snode_count()
    }

    fn partitions_of(&self, v: VnodeId) -> Result<Vec<Partition>, DhtError> {
        self.ensure_alive(v)?;
        Ok(self.routing.holdings(&v).flat_map(|(p, depth)| p.descendants(depth)).collect())
    }

    fn partition_count(&self, v: VnodeId) -> Result<u64, DhtError> {
        self.ensure_alive(v)?;
        Ok(count(&self.routing, v))
    }

    fn quota_of(&self, v: VnodeId) -> Result<f64, DhtError> {
        self.ensure_alive(v)?;
        let level = self.groups[self.vs.get(v).group as usize].level;
        Ok(count(&self.routing, v) as f64 / (level as f64).exp2())
    }

    fn for_each_quota(&self, f: &mut dyn FnMut(f64)) {
        self.vs.iter_alive().for_each(|v| {
            let level = self.groups[self.vs.get(v).group as usize].level;
            f(count(&self.routing, v) as f64 / (level as f64).exp2())
        });
    }

    fn vnode_quota_relstd_pct(&self) -> f64 {
        let v = self.vs.alive_count() as f64;
        if v == 0.0 {
            return 0.0;
        }
        // σ̄² = V·ΣQv² − 1 with Qv = Pv/2^l (module docs of `state`).
        let sum_sq_q: f64 = self.live_groups().map(GroupState::sumsq_quota_f64).sum();
        100.0 * (v * sum_sq_q - 1.0).max(0.0).sqrt()
    }

    fn pdr_of(&self, v: VnodeId) -> Result<Pdr, DhtError> {
        self.ensure_alive(v)?;
        Ok(self.record_of(&self.groups[self.vs.get(v).group as usize]))
    }

    fn record_shape_of(&self, v: VnodeId) -> Result<(u64, u64), DhtError> {
        self.ensure_alive(v)?;
        // One entry per group member, one participant per distinct hosting
        // snode. With one live group the ledger counts exactly those
        // snodes, O(1); otherwise `V_g ≤ Vmax`, so the snode dedup over a
        // small sorted scratch vector beats building the record.
        let g = &self.groups[self.vs.get(v).group as usize];
        if self.live_slots.len() == 1 {
            return Ok((g.len() as u64, self.ledger.snode_count() as u64));
        }
        let mut snodes: Vec<SnodeId> =
            g.members.iter().map(|&m| self.vs.get(m).name.snode).collect();
        snodes.sort_unstable();
        snodes.dedup();
        Ok((g.len() as u64, snodes.len() as u64))
    }

    fn balance_snapshot(&self) -> BalanceSnapshot {
        let v = self.vs.alive_count();
        let max_quota = self
            .live_groups()
            .map(|g| g.max_count() as f64 / (g.level as f64).exp2())
            .fold(0.0f64, f64::max);
        BalanceSnapshot {
            vnodes: v,
            groups: self.live_slots.len(),
            snodes: self.ledger.snode_count(),
            vnode_relstd_pct: self.vnode_quota_relstd_pct(),
            snode_relstd_pct: self.ledger.relstd_pct(),
            max_quota_over_ideal: max_quota * v as f64,
        }
    }

    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        invariants::check(
            &self.cfg,
            &self.vs,
            &self.groups,
            &self.routing,
            &self.ledger,
            P::GROUP_LAWS,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CollectReport, NullSink};
    use domus_hashspace::HashSpace;
    use domus_metrics::rel_std_dev_pct;

    fn cfg(pmin: u64, vmin: u64) -> DhtConfig {
        DhtConfig::new(HashSpace::new(32), pmin, vmin).unwrap()
    }

    fn grow(c: DhtConfig, n: usize, seed: u64) -> LocalDht {
        let mut dht = LocalDht::with_seed(c, seed);
        for i in 0..n {
            dht.create_vnode_with(SnodeId(i as u32), &mut NullSink).unwrap();
        }
        dht
    }

    #[test]
    fn single_group_until_vmax() {
        let mut dht = LocalDht::with_seed(cfg(4, 4), 1);
        for i in 0..8u32 {
            dht.create_vnode_with(SnodeId(i), &mut NullSink).unwrap();
            assert_eq!(dht.group_count(), 1, "one group while V ≤ Vmax");
        }
        // The 9th vnode forces the first split (victim group full).
        let mut collect = CollectReport::new();
        let created = dht.create_vnode_with(SnodeId(8), &mut collect).unwrap();
        assert_eq!(dht.group_count(), 2);
        let split =
            collect.into_create_report(&created).group_split.expect("split must be reported");
        assert_eq!(split.parent, GroupId::FIRST);
    }

    #[test]
    fn group_sizes_respect_l2() {
        let dht = grow(cfg(4, 4), 100, 3);
        for (gid, size, _) in dht.group_table() {
            assert!((4..=8).contains(&size), "{gid} has {size} members");
        }
    }

    #[test]
    fn group_quota_law() {
        // Q_g = 2^-depth — the invariant checker verifies it, but assert
        // the observable too.
        let dht = grow(cfg(4, 4), 64, 5);
        for (i, (gid, _, _)) in dht.group_table().iter().enumerate() {
            let q = dht.group_quotas()[i];
            let expected = 0.5f64.powi(gid.depth_quota_log2() as i32);
            assert!((q - expected).abs() < 1e-12, "{gid}: quota {q} vs {expected}");
        }
    }

    #[test]
    fn invariants_hold_through_growth() {
        let mut dht = LocalDht::with_seed(cfg(4, 2), 7);
        for i in 0..120u32 {
            dht.create_vnode_with(SnodeId(i), &mut NullSink).unwrap();
            dht.check_invariants().unwrap_or_else(|e| panic!("after vnode {i}: {e}"));
        }
        assert!(dht.group_count() > 1);
    }

    #[test]
    fn incremental_metric_matches_direct() {
        let dht = grow(cfg(8, 4), 75, 11);
        let direct = rel_std_dev_pct(dht.quotas());
        let inc = dht.vnode_quota_relstd_pct();
        assert!((direct - inc).abs() < 1e-9, "direct {direct} incremental {inc}");
    }

    #[test]
    fn lookup_routes_every_point() {
        let dht = grow(cfg(4, 4), 30, 13);
        let space = dht.config().hash_space();
        for point in (0..space.max_point()).step_by((space.size() / 128) as usize) {
            let (p, v) = dht.lookup(point).expect("full coverage");
            assert!(p.contains(point, space));
            assert!(dht.partitions_of(v).unwrap().contains(&p));
        }
    }

    #[test]
    fn lpdr_covers_only_the_group() {
        let dht = grow(cfg(4, 4), 40, 17);
        for (gid, size, level) in dht.group_table() {
            let lpdr = dht.lpdr(gid).unwrap();
            assert_eq!(lpdr.len(), size);
            // G2': the group's partition total is a power of two, and it
            // matches quota·2^level.
            let total = lpdr.total_partitions();
            assert!(total.is_power_of_two());
            let _ = level;
        }
    }

    #[test]
    fn vmin_512_behaves_like_global_until_huge() {
        // With Vmin = 512 and 100 vnodes there is exactly one group, so the
        // quality must match the global approach step for step (§4.2).
        use crate::global::GlobalDht;
        let c_local = cfg(32, 512);
        let c_global = cfg(32, 1);
        let mut local = LocalDht::with_seed(c_local, 23);
        let mut global = GlobalDht::with_seed(c_global, 23);
        for i in 0..100u32 {
            local.create_vnode_with(SnodeId(i), &mut NullSink).unwrap();
            global.create_vnode_with(SnodeId(i), &mut NullSink).unwrap();
            let a = local.vnode_quota_relstd_pct();
            let b = global.vnode_quota_relstd_pct();
            assert!((a - b).abs() < 1e-9, "V={}: local {a} vs global {b}", i + 1);
        }
        assert_eq!(local.group_count(), 1);
    }

    #[test]
    fn ideal_group_count_doubles_at_power_boundaries() {
        let vmax = 64;
        assert_eq!(ideal_group_count(1, vmax), 1);
        assert_eq!(ideal_group_count(64, vmax), 1);
        assert_eq!(ideal_group_count(65, vmax), 2);
        assert_eq!(ideal_group_count(128, vmax), 2);
        assert_eq!(ideal_group_count(129, vmax), 4);
        assert_eq!(ideal_group_count(1024, vmax), 16);
        assert_eq!(ideal_group_count(1025, vmax), 32);
    }

    #[test]
    fn report_carries_victim_and_point() {
        let mut dht = grow(cfg(4, 4), 5, 29);
        let mut collect = CollectReport::new();
        let created = dht.create_vnode_with(SnodeId(99), &mut collect).unwrap();
        let report = collect.into_create_report(&created);
        let r = report.lookup_point.expect("victim point drawn");
        let victim = report.victim.expect("victim vnode identified");
        // The victim owned the point at selection time; it may have handed
        // that very partition over since, but it must still exist.
        assert!(dht.config().hash_space().contains(r));
        assert!(dht.vnodes().contains(&victim) || !dht.vnodes().is_empty());
    }

    #[test]
    fn deterministic_under_seed() {
        let a = grow(cfg(4, 4), 60, 77);
        let b = grow(cfg(4, 4), 60, 77);
        assert_eq!(a.quotas(), b.quotas());
        assert_eq!(
            a.group_table().iter().map(|t| t.0).collect::<Vec<_>>(),
            b.group_table().iter().map(|t| t.0).collect::<Vec<_>>()
        );
        let c = grow(cfg(4, 4), 60, 78);
        // A different seed virtually surely yields a different trajectory.
        assert_ne!(a.group_quotas(), c.group_quotas());
    }

    #[test]
    fn owning_half_policy_keeps_victims_group() {
        let c = cfg(4, 2).with_container_choice(ContainerChoice::OwningHalf);
        let mut dht = LocalDht::with_seed(c, 31);
        for i in 0..50u32 {
            dht.create_vnode_with(SnodeId(i), &mut NullSink).unwrap();
        }
        dht.check_invariants().unwrap();
        // Behavioural check happens in the ablation experiment; here we
        // assert the policy runs and preserves the invariants.
        assert!(dht.group_count() > 1);
    }
}
