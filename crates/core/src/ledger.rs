//! The per-snode table: who hosts what, and each snode's exact quota.
//!
//! The paper makes a physical node's share a function of how many vnodes
//! it enrolls (§1, §2.1.2), so "which vnodes does snode `s` host" is a
//! model fact. The ledger is where both engines keep it: each snode's
//! live vnode handles in creation order, its next canonical-name index,
//! and its exact [`Quota`].
//!
//! The figure-9 metric `σ̄(Qn)` and the churn driver's per-window
//! [`crate::BalanceSnapshot`] both need the quota handled by each
//! *physical* node. Recomputing that means a pass over every live vnode —
//! O(V) per sample. The ledger instead tracks each snode's exact quota
//! incrementally: every partition [`crate::Transfer`] moves `1/2^l`
//! between two snodes (one map probe each side), split/merge cascades
//! and group splits move nothing (per-vnode quotas are unchanged), and
//! creations/removals only seed or drain whole shares. Sampling then
//! costs O(S) over the snodes, with the same exact dyadic arithmetic the
//! invariant checker uses — no float drift to accumulate.

use crate::ids::{CanonicalName, SnodeId, VnodeId};
use domus_hashspace::Quota;
use domus_util::FxHashMap;

/// One snode's aggregate: its exact quota and its live vnodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnodeShare {
    /// Sum of the snode's vnode quotas (exact).
    pub quota: Quota,
    /// Live vnodes hosted by the snode, in creation order (a vnode keeps
    /// its handle and its place through a group migration).
    pub vnodes: Vec<VnodeId>,
}

/// Incremental per-snode table. Entries exist exactly for the snodes
/// hosting at least one live vnode.
///
/// Mutations go through a flat hash map (snode ids are sparse, so a
/// dense arena is out; the deterministic `Fx` hasher keeps each update
/// to one multiply-mix probe). Read-side iteration sorts by snode id, so
/// everything user-visible remains reproducible and in the same order a
/// from-scratch `BTreeMap` aggregation would yield.
#[derive(Debug, Clone, Default)]
pub struct SnodeLedger {
    map: FxHashMap<SnodeId, SnodeShare>,
    /// Vnodes ever created per snode index: the `local` part of the next
    /// canonical name. It outlives the snode's entry, so a snode that
    /// rejoins after losing every vnode keeps counting.
    named: Vec<u32>,
}

impl SnodeLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the new (partition-less) vnode `v` on `snode`, last in
    /// the snode's creation order, and returns its canonical name.
    pub fn vnode_created(&mut self, snode: SnodeId, v: VnodeId) -> CanonicalName {
        if self.named.len() <= snode.index() {
            self.named.resize(snode.index() + 1, 0);
        }
        let local = self.named[snode.index()];
        self.named[snode.index()] += 1;
        let share =
            self.map.entry(snode).or_insert(SnodeShare { quota: Quota::ZERO, vnodes: Vec::new() });
        debug_assert!(share.vnodes.last() < Some(&v), "handles grow in creation order");
        share.vnodes.push(v);
        CanonicalName { snode, local }
    }

    /// Unregisters the (drained) vnode `v` of `snode`, keeping the rest in
    /// creation order, and evicts the entry when it was the snode's last.
    pub fn vnode_killed(&mut self, snode: SnodeId, v: VnodeId) {
        let share = self.map.get_mut(&snode).expect("killed vnode's snode is ledgered");
        let pos = share.vnodes.iter().position(|&w| w == v).expect("killed vnode is ledgered");
        share.vnodes.remove(pos);
        if share.vnodes.is_empty() {
            debug_assert!(share.quota.is_zero(), "last vnode of {snode} died owning quota");
            self.map.remove(&snode);
        }
    }

    /// The live vnodes hosted by `snode`, in creation order (empty when it
    /// hosts none) — O(1).
    pub fn vnodes_of(&self, snode: SnodeId) -> &[VnodeId] {
        self.map.get(&snode).map_or(&[], |share| &share.vnodes)
    }

    /// Credits `q` to `snode`.
    pub fn gain(&mut self, snode: SnodeId, q: Quota) {
        let share = self.map.get_mut(&snode).expect("gaining snode is ledgered");
        share.quota = share.quota + q;
    }

    /// Debits `q` from `snode`.
    pub fn lose(&mut self, snode: SnodeId, q: Quota) {
        let share = self.map.get_mut(&snode).expect("losing snode is ledgered");
        share.quota = share.quota.checked_sub(q).expect("snode quota underflow");
    }

    /// Moves `q` from one snode to another (no-op when they coincide —
    /// an intra-snode partition transfer does not change `Qn`).
    pub fn move_quota(&mut self, from: SnodeId, to: SnodeId, q: Quota) {
        if from == to {
            return;
        }
        self.lose(from, q);
        self.gain(to, q);
    }

    /// Number of snodes hosting at least one live vnode — O(1).
    pub fn snode_count(&self) -> usize {
        self.map.len()
    }

    /// `(snode, share)` pairs in snode order (sorted on demand).
    pub fn iter(&self) -> impl Iterator<Item = (SnodeId, &SnodeShare)> + '_ {
        let mut out: Vec<(SnodeId, &SnodeShare)> =
            self.map.iter().map(|(&s, share)| (s, share)).collect();
        out.sort_unstable_by_key(|&(s, _)| s);
        out.into_iter()
    }

    /// Per-snode quotas as `f64`, in snode order (the same order the
    /// from-scratch [`crate::stats::snode_quotas`] map yields).
    pub fn quotas_f64(&self) -> impl Iterator<Item = f64> + '_ {
        self.iter().map(|(_, s)| s.quota.to_f64())
    }

    /// `σ̄(Qn, Q̄n)` in percent over the ledgered snodes — O(S log S)
    /// (one sort, so the float accumulation order is reproducible).
    pub fn relstd_pct(&self) -> f64 {
        domus_metrics::rel_std_dev_pct(self.quotas_f64())
    }

    /// Exact total of all shares (1 whenever the DHT is non-empty).
    pub fn total(&self) -> Quota {
        self.map.values().map(|s| s.quota).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_move_kill_lifecycle() {
        let mut l = SnodeLedger::new();
        l.vnode_created(SnodeId(0), VnodeId(0));
        l.gain(SnodeId(0), Quota::ONE);
        assert_eq!(l.snode_count(), 1);
        assert!(l.total().is_one());

        l.vnode_created(SnodeId(1), VnodeId(1));
        l.move_quota(SnodeId(0), SnodeId(1), Quota::new(1, 1));
        assert!(l.total().is_one());
        let shares: Vec<_> = l.iter().collect();
        assert_eq!(shares[0].1.quota, Quota::new(1, 1));
        assert_eq!(shares[1].1.quota, Quota::new(1, 1));
        assert_eq!(l.relstd_pct(), 0.0);

        l.move_quota(SnodeId(1), SnodeId(0), Quota::new(1, 1));
        l.vnode_killed(SnodeId(1), VnodeId(1));
        assert_eq!(l.snode_count(), 1);
        assert!(l.vnodes_of(SnodeId(1)).is_empty(), "the emptied snode is evicted");
        assert!(l.total().is_one());
    }

    #[test]
    fn intra_snode_moves_are_free() {
        let mut l = SnodeLedger::new();
        l.vnode_created(SnodeId(3), VnodeId(0));
        l.vnode_created(SnodeId(3), VnodeId(1));
        l.gain(SnodeId(3), Quota::ONE);
        l.move_quota(SnodeId(3), SnodeId(3), Quota::new(1, 2));
        assert!(l.total().is_one());
        l.vnode_killed(SnodeId(3), VnodeId(0));
        assert_eq!(l.snode_count(), 1, "one vnode left on the snode");
    }

    #[test]
    fn handle_lists_keep_creation_order_and_names_outlive_eviction() {
        let mut l = SnodeLedger::new();
        for v in 0..4 {
            l.vnode_created(SnodeId(7), VnodeId(v));
        }
        l.vnode_killed(SnodeId(7), VnodeId(1));
        assert_eq!(l.vnodes_of(SnodeId(7)), [0, 2, 3].map(VnodeId));
        for v in [0, 2, 3] {
            l.vnode_killed(SnodeId(7), VnodeId(v));
        }
        assert_eq!(l.snode_count(), 0);
        let back = l.vnode_created(SnodeId(7), VnodeId(9));
        assert_eq!(back.to_string(), "7.4", "a rejoined snode keeps counting");
        assert_eq!(l.vnodes_of(SnodeId(7)), [VnodeId(9)]);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn overdraining_panics() {
        let mut l = SnodeLedger::new();
        l.vnode_created(SnodeId(0), VnodeId(0));
        l.gain(SnodeId(0), Quota::new(1, 2));
        l.lose(SnodeId(0), Quota::ONE);
    }

    #[test]
    fn relstd_matches_direct_computation() {
        let mut l = SnodeLedger::new();
        for (s, num) in [(0u32, 1u128), (1, 2), (2, 1)] {
            l.vnode_created(SnodeId(s), VnodeId(s));
            l.gain(SnodeId(s), Quota::new(num, 2));
        }
        let direct = domus_metrics::rel_std_dev_pct([0.25, 0.5, 0.25]);
        assert!((l.relstd_pct() - direct).abs() < 1e-12);
    }
}
