//! Internal state arenas: vnodes and groups/regions.
//!
//! The balanced engine's representation, for both approaches:
//!
//! * [`VnodeStore`] — a dense arena of [`VnodeState`]s: name, group and
//!   liveness. Handles are never reused; deleted vnodes leave tombstones so
//!   stale handles fail loudly. Names are allocated by the snode ledger
//!   ([`crate::SnodeLedger`]), which also lists each snode's vnodes. What a vnode holds is not here: the routing
//!   map's owner index ([`OwnerMap::holdings`]) is the one list of each
//!   vnode's partitions, in the donor order the balance kernel indexes
//!   into, and [`count`] reads `Pv` off it.
//! * [`GroupState`] — one balancement *region*: the whole DHT for the
//!   global approach, one group for the local approach. It carries the
//!   paper's per-group facts (identifier, common splitlevel `l_g`, member
//!   list) plus two integer accumulators (`Σ Pv`, `Σ Pv²`) that make the
//!   quality metric `σ̄(Qv)` O(G) to sample instead of O(V) — the paper
//!   measures after *every* creation, so this is the hot path.

use crate::group_id::GroupId;
use crate::ids::{CanonicalName, VnodeId};
use domus_hashspace::OwnerMap;

/// Partition count `Pv` of `v`, off the routing map's owner index.
#[inline]
pub fn count(routing: &OwnerMap<VnodeId>, v: VnodeId) -> u64 {
    routing.partition_count_of(&v) as u64
}

/// State of one virtual node.
#[derive(Debug, Clone)]
pub struct VnodeState {
    /// Canonical name `snode_id.vnode_id` (paper, footnote 2).
    pub name: CanonicalName,
    /// Slot of the owning group in the engine's group arena.
    pub group: u32,
    /// `false` once deleted (tombstone).
    pub alive: bool,
}

/// Dense vnode arena.
#[derive(Debug, Clone, Default)]
pub struct VnodeStore {
    slots: Vec<VnodeState>,
    alive: usize,
}

impl VnodeStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The handle the next [`VnodeStore::create`] returns.
    pub fn next_handle(&self) -> VnodeId {
        VnodeId(self.slots.len() as u32)
    }

    /// Creates a vnode named `name`, assigned to group slot `group`, with
    /// no partitions yet.
    pub fn create(&mut self, name: CanonicalName, group: u32) -> VnodeId {
        let id = self.next_handle();
        self.slots.push(VnodeState { name, group, alive: true });
        self.alive += 1;
        id
    }

    /// Immutable access.
    ///
    /// # Panics
    /// Panics on an out-of-range handle.
    #[inline]
    pub fn get(&self, v: VnodeId) -> &VnodeState {
        &self.slots[v.index()]
    }

    /// Mutable access.
    #[inline]
    pub fn get_mut(&mut self, v: VnodeId) -> &mut VnodeState {
        &mut self.slots[v.index()]
    }

    /// `true` iff the handle refers to a live vnode.
    pub fn is_alive(&self, v: VnodeId) -> bool {
        v.index() < self.slots.len() && self.slots[v.index()].alive
    }

    /// Tombstones a vnode (its partitions must already be redistributed).
    ///
    /// # Panics
    /// Panics if the vnode is already dead.
    pub fn kill(&mut self, v: VnodeId) {
        let s = &mut self.slots[v.index()];
        assert!(s.alive, "double-kill of {v}");
        s.alive = false;
        self.alive -= 1;
    }

    /// Number of live vnodes.
    #[inline]
    pub fn alive_count(&self) -> usize {
        self.alive
    }

    /// Total slots ever allocated (live + tombstones).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Iterates live vnode handles in creation order.
    pub fn iter_alive(&self) -> impl Iterator<Item = VnodeId> + '_ {
        self.slots.iter().enumerate().filter(|(_, s)| s.alive).map(|(i, _)| VnodeId(i as u32))
    }
}

/// One balancement region: a *group* in the local approach, the entire DHT
/// in the global approach.
#[derive(Debug, Clone)]
pub struct GroupState {
    /// Group identifier (the root id for the global approach's single region).
    pub gid: GroupId,
    /// Common splitlevel `l_g` of every partition in the region (G3').
    pub level: u32,
    /// The splitlevel the region was born at; binary merges (deletion
    /// extension) never descend below it — below the birth level the
    /// region's partition set is not guaranteed to be sibling-closed.
    pub birth_level: u32,
    /// Member vnodes (order = admission order; used for deterministic
    /// tie-breaking).
    pub members: Vec<VnodeId>,
    /// `Σ Pv` over members — the region's partition count `P_g` (G2': a
    /// power of two).
    pub sum: u64,
    /// `Σ Pv²` over members — the σ̄(Qv) accumulator.
    pub sumsq: u64,
    /// Count histogram: `hist[c]` = members currently holding `c`
    /// partitions. Bounded by `Pmax + 1` slots at rest (counts live in
    /// `[Pmin, Pmax]`); kept exact through every accounting event so
    /// `max_count` — and thus the peak-quota metric — is O(Pmax) instead
    /// of an O(V_g) member rescan.
    pub hist: Vec<u32>,
    /// `false` once the group has split or merged away.
    pub alive: bool,
}

impl GroupState {
    /// A fresh region at `level` with identifier `gid` and no members.
    pub fn new(gid: GroupId, level: u32) -> Self {
        Self {
            gid,
            level,
            birth_level: level,
            members: Vec::new(),
            sum: 0,
            sumsq: 0,
            hist: Vec::new(),
            alive: true,
        }
    }

    #[inline]
    fn hist_slot(&mut self, count: u64) -> &mut u32 {
        let idx = count as usize;
        if self.hist.len() <= idx {
            self.hist.resize(idx + 1, 0);
        }
        &mut self.hist[idx]
    }

    /// The largest member partition count, off the histogram — O(Pmax).
    pub fn max_count(&self) -> u64 {
        self.hist.iter().rposition(|&n| n > 0).unwrap_or(0) as u64
    }

    /// Number of member vnodes `V_g`.
    #[inline]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` when the region has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Registers a member with current partition count `count` in the
    /// accumulators.
    pub fn admit(&mut self, v: VnodeId, count: u64) {
        self.members.push(v);
        self.sum += count;
        self.sumsq += count * count;
        *self.hist_slot(count) += 1;
    }

    /// Removes a member with current partition count `count` from the
    /// accumulators.
    ///
    /// # Panics
    /// Panics if `v` is not a member.
    pub fn expel(&mut self, v: VnodeId, count: u64) {
        let pos = self.members.iter().position(|&m| m == v).expect("expel: not a member");
        self.members.remove(pos);
        self.sum -= count;
        self.sumsq -= count * count;
        self.hist[count as usize] -= 1;
    }

    /// Accounts for one partition moving from a member with count `from`
    /// (pre-move) to a member with count `to` (pre-move).
    #[inline]
    pub fn account_move(&mut self, from: u64, to: u64) {
        // Σ is unchanged; ΣPv² changes by (from−1)²−from² + (to+1)²−to².
        self.sumsq = self.sumsq + 2 * to + 1 - (2 * from - 1);
        self.hist[from as usize] -= 1;
        self.hist[from as usize - 1] += 1;
        self.hist[to as usize] -= 1;
        *self.hist_slot(to + 1) += 1;
    }

    /// Accounts for one partition arriving at a member with pre-move count
    /// `to` from *outside* the accumulators (the donor was already expelled).
    #[inline]
    pub fn account_gain(&mut self, to: u64) {
        self.sum += 1;
        self.sumsq += 2 * to + 1;
        self.hist[to as usize] -= 1;
        *self.hist_slot(to + 1) += 1;
    }

    /// Accounts for a binary split of every partition (counts double).
    pub fn account_split_all(&mut self) {
        self.level += 1;
        self.sum *= 2;
        self.sumsq *= 4;
        let old = std::mem::take(&mut self.hist);
        self.hist = vec![0; old.len() * 2];
        for (c, n) in old.into_iter().enumerate() {
            self.hist[c * 2] = n;
        }
    }

    /// Accounts for a binary merge of every partition pair (counts halve).
    pub fn account_merge_all(&mut self) {
        self.level -= 1;
        self.sum /= 2;
        self.sumsq /= 4;
        let old = std::mem::take(&mut self.hist);
        self.hist = vec![0; old.len() / 2 + 1];
        for (c, &n) in old.iter().enumerate() {
            debug_assert!(c % 2 == 0 || n == 0, "merge cascade requires even counts");
            self.hist[c / 2] += n;
        }
    }

    /// Empties the accumulators of a retired (split/merged-away) group.
    pub fn clear_accumulators(&mut self) {
        self.sum = 0;
        self.sumsq = 0;
        self.hist.clear();
    }

    /// The region's quota of `R_h` as `P_g / 2^l` (exact in f64 for the
    /// levels any simulation reaches).
    pub fn quota_f64(&self) -> f64 {
        self.sum as f64 / (self.level as f64).exp2()
    }

    /// Contribution of this region to `Σ_v Qv²`: `Σ Pv² / 4^l`.
    pub fn sumsq_quota_f64(&self) -> f64 {
        self.sumsq as f64 / (2.0 * self.level as f64).exp2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SnodeId;
    use crate::ledger::SnodeLedger;

    /// A vnode on `snode` in group 0, named as the engines name it.
    fn create(vs: &mut VnodeStore, ledger: &mut SnodeLedger, snode: u32) -> VnodeId {
        let name = ledger.vnode_created(SnodeId(snode), vs.next_handle());
        vs.create(name, 0)
    }

    #[test]
    fn create_assigns_canonical_names_per_snode() {
        let (mut vs, mut ledger) = (VnodeStore::new(), SnodeLedger::new());
        let a = create(&mut vs, &mut ledger, 0);
        let b = create(&mut vs, &mut ledger, 0);
        let c = create(&mut vs, &mut ledger, 1);
        assert_eq!(vs.get(a).name.to_string(), "0.0");
        assert_eq!(vs.get(b).name.to_string(), "0.1");
        assert_eq!(vs.get(c).name.to_string(), "1.0");
        assert_eq!(vs.alive_count(), 3);
        assert_eq!(ledger.vnodes_of(SnodeId(0)), [a, b]);
    }

    #[test]
    fn kill_tombstones_without_reuse() {
        let (mut vs, mut ledger) = (VnodeStore::new(), SnodeLedger::new());
        let a = create(&mut vs, &mut ledger, 0);
        vs.kill(a);
        assert!(!vs.is_alive(a));
        let b = create(&mut vs, &mut ledger, 0);
        assert_ne!(a, b, "handles are never reused");
        assert_eq!(vs.alive_count(), 1);
        assert_eq!(vs.capacity(), 2);
        assert_eq!(vs.iter_alive().collect::<Vec<_>>(), vec![b]);
    }

    #[test]
    fn accumulators_track_moves() {
        let (mut vs, mut ledger) = (VnodeStore::new(), SnodeLedger::new());
        let mut g = GroupState::new(GroupId::FIRST, 3);
        let a = create(&mut vs, &mut ledger, 0);
        let b = create(&mut vs, &mut ledger, 0);
        // a holds 5, b holds 3 (synthetic counts: the accumulators are
        // driven by the caller).
        g.admit(a, 5);
        g.admit(b, 3);
        assert_eq!(g.sum, 8);
        assert_eq!(g.sumsq, 34);
        g.account_move(5, 3); // a→b: counts become 4 and 4
        assert_eq!(g.sum, 8);
        assert_eq!(g.sumsq, 32);
        g.account_split_all();
        assert_eq!(g.level, 4);
        assert_eq!(g.sum, 16);
        assert_eq!(g.sumsq, 128);
        g.account_merge_all();
        assert_eq!(g.level, 3);
        assert_eq!(g.sum, 8);
        assert_eq!(g.sumsq, 32);
    }

    #[test]
    fn expel_updates_accumulators() {
        let mut g = GroupState::new(GroupId::FIRST, 3);
        g.admit(VnodeId(0), 4);
        g.admit(VnodeId(1), 6);
        g.expel(VnodeId(0), 4);
        assert_eq!(g.members, vec![VnodeId(1)]);
        assert_eq!(g.sum, 6);
        assert_eq!(g.sumsq, 36);
    }

    #[test]
    fn quota_f64_is_count_over_two_to_level() {
        let mut g = GroupState::new(GroupId::FIRST, 5);
        g.admit(VnodeId(0), 16);
        assert_eq!(g.quota_f64(), 0.5);
        assert_eq!(g.sumsq_quota_f64(), 256.0 / 1024.0);
    }
}
