//! Engine-independent statistics helpers.

use crate::engine::DhtEngine;
use crate::ids::SnodeId;
use domus_metrics::rel_std_dev_pct;
use std::collections::BTreeMap;

/// Per-snode quotas: the sum of each snode's vnode quotas, keyed by snode.
pub fn snode_quotas<E: DhtEngine + ?Sized>(dht: &E) -> BTreeMap<SnodeId, f64> {
    let mut out: BTreeMap<SnodeId, f64> = BTreeMap::new();
    dht.for_each_vnode(&mut |v| {
        let s = dht.snode_of(v).expect("live vnode has an snode");
        *out.entry(s).or_insert(0.0) += dht.quota_of(v).expect("live vnode has a quota");
    });
    out
}

/// `σ̄(Qn, Q̄n)` in percent over physical nodes — the figure-9 comparison
/// metric ("we define Qn as the quota of R_h handled by each physical node").
pub fn snode_quota_relstd_pct<E: DhtEngine + ?Sized>(dht: &E) -> f64 {
    rel_std_dev_pct(snode_quotas(dht).into_values())
}

/// A point-in-time balance/shape sample of an engine — everything the
/// churn driver records per observation window, gathered in **one pass**
/// over the live vnodes (cheap enough to sample at a high cadence).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BalanceSnapshot {
    /// Live vnodes `V`.
    pub vnodes: usize,
    /// Live groups `G` (1 for the global approach and CH).
    pub groups: usize,
    /// Distinct physical nodes hosting at least one vnode.
    pub snodes: usize,
    /// The paper's quality metric `σ̄(Qv, Q̄v)` in percent.
    pub vnode_relstd_pct: f64,
    /// `σ̄(Qn, Q̄n)` in percent over physical nodes.
    pub snode_relstd_pct: f64,
    /// Peak-to-ideal ratio `max(Qv) · V`: the worst vnode's load relative
    /// to a perfectly balanced DHT (1.0 = perfect). This is the quantity a
    /// capacity planner provisions for.
    pub max_quota_over_ideal: f64,
}

impl BalanceSnapshot {
    /// Captures the snapshot from a live engine with one generic pass
    /// over the vnodes — the O(V) *oracle*. Hot-cadence callers (the
    /// churn driver's window sampling) should use
    /// [`DhtEngine::balance_snapshot`], which the engines override with
    /// their incremental accumulators; the property suite asserts the two
    /// agree.
    pub fn capture<E: DhtEngine + ?Sized>(dht: &E) -> Self {
        let mut per_snode: BTreeMap<SnodeId, f64> = BTreeMap::new();
        let mut quotas = Vec::with_capacity(dht.vnode_count());
        let mut max_q = 0.0f64;
        dht.for_each_vnode(&mut |v| {
            let q = dht.quota_of(v).expect("live vnode has a quota");
            let s = dht.snode_of(v).expect("live vnode has an snode");
            *per_snode.entry(s).or_insert(0.0) += q;
            if q > max_q {
                max_q = q;
            }
            quotas.push(q);
        });
        Self {
            vnodes: quotas.len(),
            groups: dht.group_count(),
            snodes: per_snode.len(),
            vnode_relstd_pct: rel_std_dev_pct(quotas.iter().copied()),
            snode_relstd_pct: rel_std_dev_pct(per_snode.into_values()),
            max_quota_over_ideal: max_q * quotas.len() as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DhtConfig;
    use crate::global::GlobalDht;
    use crate::local::LocalDht;
    use crate::sink::NullSink;
    use domus_hashspace::HashSpace;

    #[test]
    fn snode_quotas_sum_to_one() {
        let cfg = DhtConfig::new(HashSpace::new(32), 4, 4).unwrap();
        let mut dht = LocalDht::with_seed(cfg, 3);
        for i in 0..20u32 {
            dht.create_vnode_with(SnodeId(i % 5), &mut NullSink).unwrap();
        }
        let q = snode_quotas(&dht);
        assert_eq!(q.len(), 5);
        let total: f64 = q.values().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn balance_snapshot_agrees_with_piecewise_metrics() {
        let cfg = DhtConfig::new(HashSpace::new(32), 4, 4).unwrap();
        let mut dht = LocalDht::with_seed(cfg, 7);
        for i in 0..24u32 {
            dht.create_vnode_with(SnodeId(i % 6), &mut NullSink).unwrap();
        }
        let snap = BalanceSnapshot::capture(&dht);
        assert_eq!(snap.vnodes, 24);
        assert_eq!(snap.groups, dht.group_count());
        assert_eq!(snap.snodes, 6);
        assert!((snap.vnode_relstd_pct - dht.vnode_quota_relstd_pct()).abs() < 1e-9);
        assert!((snap.snode_relstd_pct - snode_quota_relstd_pct(&dht)).abs() < 1e-9);
        let max_q = dht.quotas().into_iter().fold(0.0f64, f64::max);
        assert!((snap.max_quota_over_ideal - max_q * 24.0).abs() < 1e-9);
        assert!(snap.max_quota_over_ideal >= 1.0 - 1e-9, "peak load is never below ideal");
        assert_eq!(dht.snode_count(), 6);
    }

    #[test]
    fn one_vnode_per_snode_matches_vnode_metric() {
        // The figure-9 setup: homogeneous nodes, one vnode per snode —
        // σ̄(Qn) coincides with σ̄(Qv).
        let cfg = DhtConfig::new(HashSpace::new(32), 8, 1).unwrap();
        let mut dht = GlobalDht::with_seed(cfg, 5);
        for i in 0..17u32 {
            dht.create_vnode_with(SnodeId(i), &mut NullSink).unwrap();
        }
        let a = snode_quota_relstd_pct(&dht);
        let b = dht.vnode_quota_relstd_pct();
        assert!((a - b).abs() < 1e-9, "σ̄(Qn)={a} σ̄(Qv)={b}");
    }
}
