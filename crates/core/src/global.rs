//! The **global approach** (§2 of the paper; the base model of ref. \[7\])
//! as the one-region policy of [`BalancedDht`].
//!
//! One replicated GPDR covers every vnode; every snode participates in
//! every creation, so creations are serial and require global knowledge.
//! The engine is the local approach's, run over a single region that
//! spans the entire DHT and never splits: a creation draws no victim
//! probe, and a removal always takes the deletion extension's intra-group
//! case, which is exactly the global approach's drain and merge cascade.
//!
//! Because all partitions share one size `S = 2^Bh / P` (invariant G3),
//! `σ̄(Qv) = σ̄(Pv)` here (§2.4) — the engine exposes both, and the test
//! suite confirms they coincide.

use crate::local::{BalancedDht, RegionPolicy};
use crate::record::Pdr;
use crate::sink::RebalanceSink;
use crate::state::{count, GroupState};
use domus_metrics::relstd::rel_std_dev_counts_pct;
use domus_util::{DomusRng, Xoshiro256pp};

/// The global approach's policy: every vnode joins the one region.
#[derive(Debug, Clone)]
pub struct OneRegion;

/// A DHT balanced with the global approach.
///
/// ```
/// use domus_core::{DhtConfig, GlobalDht, DhtEngine, NullSink, SnodeId};
/// use domus_hashspace::HashSpace;
///
/// let cfg = DhtConfig::new(HashSpace::new(32), 4, 1).unwrap();
/// let mut dht = GlobalDht::with_seed(cfg, 42);
/// for s in 0..8 {
///     dht.create_vnode_with(SnodeId(s), &mut NullSink).unwrap();
/// }
/// // V = 8 is a power of two: invariant G5 says perfect balance.
/// assert_eq!(dht.vnode_quota_relstd_pct(), 0.0);
/// ```
pub type GlobalDht<R = Xoshiro256pp> = BalancedDht<OneRegion, R>;

impl RegionPolicy for OneRegion {
    const GROUP_LAWS: bool = false;

    fn container<R: DomusRng>(dht: &mut GlobalDht<R>, _: &mut dyn RebalanceSink) -> u32 {
        dht.live_slots[0]
    }
}

impl<R: DomusRng> GlobalDht<R> {
    /// The one region spanning the whole DHT.
    fn region(&self) -> &GroupState {
        &self.groups[self.live_slots[0] as usize]
    }

    /// `σ̄(Pv, P̄v)` in percent — the count-based shortcut metric of §2.4,
    /// valid only in the global approach.
    pub fn partition_count_relstd_pct(&self) -> f64 {
        let counts: Vec<u64> =
            self.region().members.iter().map(|&m| count(&self.routing, m)).collect();
        rel_std_dev_counts_pct(&counts)
    }

    /// The common splitlevel `l` of all partitions.
    pub fn splitlevel(&self) -> u32 {
        self.region().level
    }

    /// The replicated GPDR (§2.1.4) as every snode would see it.
    pub fn gpdr(&self) -> Pdr {
        self.record_of(self.region())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CollectReport, NullSink};
    use crate::{DhtConfig, DhtEngine, DhtError, SnodeId, VnodeId};
    use domus_hashspace::HashSpace;
    use domus_metrics::rel_std_dev_pct;

    fn cfg(pmin: u64) -> DhtConfig {
        DhtConfig::new(HashSpace::new(32), pmin, 1).unwrap()
    }

    fn grow(pmin: u64, n: usize, seed: u64) -> GlobalDht {
        let mut dht = GlobalDht::with_seed(cfg(pmin), seed);
        for i in 0..n {
            dht.create_vnode_with(SnodeId(i as u32), &mut NullSink).unwrap();
        }
        dht
    }

    #[test]
    fn first_vnode_owns_everything() {
        let dht = grow(8, 1, 1);
        assert_eq!(dht.vnode_count(), 1);
        assert_eq!(dht.splitlevel(), 3);
        let v = dht.vnodes()[0];
        assert_eq!(dht.partition_count(v).unwrap() as usize, 8);
        assert_eq!(dht.quota_of(v).unwrap(), 1.0);
        dht.check_invariants().unwrap();
    }

    #[test]
    fn powers_of_two_are_perfectly_balanced() {
        // Invariant G5: at V ∈ {1, 2, 4, 8, ...} every vnode holds Pmin.
        let mut dht = GlobalDht::with_seed(cfg(8), 7);
        for i in 0..64u32 {
            dht.create_vnode_with(SnodeId(i), &mut NullSink).unwrap();
            let v = dht.vnode_count() as u64;
            if v.is_power_of_two() {
                for &m in &dht.vnodes() {
                    assert_eq!(
                        dht.partition_count(m).unwrap(),
                        8,
                        "V={v}: all vnodes must hold Pmin"
                    );
                }
                assert_eq!(dht.vnode_quota_relstd_pct(), 0.0, "V={v}");
            }
        }
    }

    #[test]
    fn quota_metric_equals_count_metric() {
        // §2.4: in the global approach σ̄(Qv) = σ̄(Pv).
        for n in [3usize, 5, 7, 11, 150] {
            let dht = grow(16, n, 3);
            let a = dht.vnode_quota_relstd_pct();
            let b = dht.partition_count_relstd_pct();
            assert!((a - b).abs() < 1e-9, "V={n}: σ̄(Qv)={a} σ̄(Pv)={b}");
        }
    }

    #[test]
    fn incremental_metric_matches_direct_computation() {
        let dht = grow(32, 37, 5);
        let direct = rel_std_dev_pct(dht.quotas());
        let inc = dht.vnode_quota_relstd_pct();
        assert!((direct - inc).abs() < 1e-9, "direct {direct} vs incremental {inc}");
    }

    #[test]
    fn invariants_hold_through_growth() {
        let mut dht = GlobalDht::with_seed(cfg(4), 11);
        for i in 0..100u32 {
            dht.create_vnode_with(SnodeId(i), &mut NullSink).unwrap();
            dht.check_invariants().unwrap_or_else(|e| panic!("after vnode {i}: {e}"));
        }
    }

    #[test]
    fn lookup_total_and_consistent() {
        let dht = grow(8, 13, 17);
        let space = dht.config().hash_space();
        for point in (0..space.max_point()).step_by((space.size() / 64) as usize) {
            let (p, v) = dht.lookup(point).expect("space fully covered");
            assert!(p.contains(point, space));
            assert!(dht.partitions_of(v).unwrap().contains(&p));
        }
    }

    #[test]
    fn remove_restores_balance_and_invariants() {
        let mut dht = grow(8, 9, 23);
        let victims = dht.vnodes();
        // Delete back down to 1 vnode, checking invariants at each size.
        for &v in victims.iter().take(8) {
            dht.remove_vnode_with(v, &mut NullSink).unwrap();
            dht.check_invariants().unwrap_or_else(|e| panic!("after removing {v}: {e}"));
        }
        assert_eq!(dht.vnode_count(), 1);
        // The lone survivor owns everything again at the initial level.
        let survivor = dht.vnodes()[0];
        assert_eq!(dht.quota_of(survivor).unwrap(), 1.0);
        assert_eq!(dht.splitlevel(), dht.config().initial_level());
    }

    #[test]
    fn removing_last_vnode_is_refused() {
        let mut dht = grow(8, 1, 1);
        let v = dht.vnodes()[0];
        assert_eq!(dht.remove_vnode_with(v, &mut NullSink), Err(DhtError::LastVnode));
    }

    #[test]
    fn removing_unknown_vnode_is_refused() {
        let mut dht = grow(8, 2, 1);
        assert_eq!(
            dht.remove_vnode_with(VnodeId(999), &mut NullSink),
            Err(DhtError::UnknownVnode(VnodeId(999)))
        );
        let v = dht.vnodes()[0];
        dht.remove_vnode_with(v, &mut NullSink).unwrap();
        assert_eq!(dht.remove_vnode_with(v, &mut NullSink), Err(DhtError::UnknownVnode(v)));
    }

    #[test]
    fn create_delete_churn_preserves_invariants() {
        let mut dht = GlobalDht::with_seed(cfg(4), 99);
        let mut live = Vec::new();
        for i in 0..40u32 {
            let v = dht.create_vnode_with(SnodeId(i % 5), &mut NullSink).unwrap().vnode;
            live.push(v);
            if i % 3 == 2 {
                let victim = live.remove((i as usize * 7) % live.len());
                dht.remove_vnode_with(victim, &mut NullSink).unwrap();
            }
            dht.check_invariants().unwrap_or_else(|e| panic!("step {i}: {e}"));
        }
    }

    #[test]
    fn gpdr_reflects_distribution() {
        let dht = grow(8, 5, 31);
        let gpdr = dht.gpdr();
        assert_eq!(gpdr.len(), 5);
        assert_eq!(gpdr.total_partitions(), 1 << dht.splitlevel());
        let victim = gpdr.victim().unwrap();
        let max = gpdr.entries().iter().map(|e| e.partitions).max().unwrap();
        assert_eq!(victim.partitions, max);
    }

    #[test]
    fn sawtooth_between_powers_of_two() {
        // σ̄ rises right after a power of two and returns to 0 at the next.
        let mut dht = GlobalDht::with_seed(cfg(32), 2);
        dht.create_vnode_with(SnodeId(0), &mut NullSink).unwrap();
        let mut prev = 0.0;
        for i in 1..16u32 {
            dht.create_vnode_with(SnodeId(i), &mut NullSink).unwrap();
            let v = dht.vnode_count() as u64;
            let m = dht.vnode_quota_relstd_pct();
            if v.is_power_of_two() {
                assert_eq!(m, 0.0, "V={v}");
            } else {
                assert!(m > 0.0, "V={v} should be imbalanced, got {m}");
            }
            prev = m;
        }
        let _ = prev;
    }

    #[test]
    fn transfers_reported_match_quota_motion() {
        let mut dht = grow(8, 4, 41);
        let mut collect = CollectReport::new();
        let created = dht.create_vnode_with(SnodeId(9), &mut collect).unwrap();
        let report = collect.into_create_report(&created);
        // V went 4 → 5 through a power of two: a split cascade must have run
        // and the new vnode received everything it owns via transfers.
        assert!(report.partition_splits > 0);
        let new = *dht.vnodes().last().unwrap();
        assert_eq!(
            report.transfers.iter().filter(|t| t.to == new).count(),
            dht.partition_count(new).unwrap() as usize
        );
        assert!(report.transfers.iter().all(|t| t.to == new));
    }
}
