//! The **global approach** (§2 of the paper; the base model of ref. \[7\]).
//!
//! One replicated GPDR covers every vnode; every snode participates in
//! every creation, so creations are serial and require global knowledge.
//! The balancement algorithm itself is the shared kernel in
//! [`crate::balance`], run over a single region that spans the entire DHT.
//!
//! Because all partitions share one size `S = 2^Bh / P` (invariant G3),
//! `σ̄(Qv) = σ̄(Pv)` here (§2.4) — the engine exposes both, and the test
//! suite confirms they coincide.

use crate::balance;
use crate::config::DhtConfig;
use crate::engine::{CreateOutcome, DhtEngine, RemoveOutcome};
use crate::errors::DhtError;
use crate::group_id::GroupId;
use crate::ids::{CanonicalName, SnodeId, VnodeId};
use crate::invariants::{self, InvariantViolation};
use crate::ledger::SnodeLedger;
use crate::record::{Pdr, PdrEntry};
use crate::sink::{LedgeredSink, RebalanceEvent, RebalanceSink};
use crate::state::{GroupState, VnodeStore};
use crate::stats::BalanceSnapshot;
use domus_hashspace::{OwnerMap, Partition, Quota};
use domus_metrics::relstd::rel_std_dev_counts_pct;
use domus_util::{DomusRng, Xoshiro256pp};

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
#[derive(Debug, Clone)]
pub struct GlobalDht<R: DomusRng = Xoshiro256pp> {
    cfg: DhtConfig,
    vs: VnodeStore,
    region: GroupState,
    routing: OwnerMap<VnodeId>,
    ledger: SnodeLedger,
    rng: R,
}

impl GlobalDht<Xoshiro256pp> {
    /// A DHT seeded from a single `u64` (deterministic).
    pub fn with_seed(cfg: DhtConfig, seed: u64) -> Self {
        Self::with_rng(cfg, Xoshiro256pp::seed_from_u64(seed))
    }
}

impl<R: DomusRng> GlobalDht<R> {
    /// A DHT using the supplied RNG stream.
    pub fn with_rng(cfg: DhtConfig, rng: R) -> Self {
        let space = cfg.hash_space();
        Self {
            cfg,
            vs: VnodeStore::new(),
            region: GroupState::new(GroupId::FIRST, cfg.initial_level()),
            routing: OwnerMap::new(space),
            ledger: SnodeLedger::new(),
            rng,
        }
    }

    /// The incremental per-snode quota ledger.
    pub fn ledger(&self) -> &SnodeLedger {
        &self.ledger
    }

    /// `σ̄(Pv, P̄v)` in percent — the count-based shortcut metric of §2.4,
    /// valid only in the global approach.
    pub fn partition_count_relstd_pct(&self) -> f64 {
        let counts: Vec<u64> =
            self.region.members.iter().map(|&m| self.vs.get(m).count()).collect();
        rel_std_dev_counts_pct(&counts)
    }

    /// The common splitlevel `l` of all partitions.
    pub fn splitlevel(&self) -> u32 {
        self.region.level
    }

    /// The replicated GPDR (§2.1.4) as every snode would see it.
    pub fn gpdr(&self) -> Pdr {
        Pdr::new(
            self.region
                .members
                .iter()
                .map(|&m| PdrEntry {
                    vnode: self.vs.get(m).name,
                    partitions: self.vs.get(m).count(),
                })
                .collect(),
        )
    }

    fn ensure_alive(&self, v: VnodeId) -> Result<(), DhtError> {
        if self.vs.is_alive(v) {
            Ok(())
        } else {
            Err(DhtError::UnknownVnode(v))
        }
    }

    #[cfg(debug_assertions)]
    fn debug_check(&self) {
        if let Err(e) = self.check_invariants() {
            panic!("invariant violated after GlobalDht operation: {e}");
        }
    }

    #[cfg(not(debug_assertions))]
    fn debug_check(&self) {}
}

impl<R: DomusRng> DhtEngine for GlobalDht<R> {
    fn config(&self) -> &DhtConfig {
        &self.cfg
    }

    fn vnode_count(&self) -> usize {
        self.vs.alive_count()
    }

    fn group_count(&self) -> usize {
        1
    }

    fn create_vnode_with(
        &mut self,
        snode: SnodeId,
        sink: &mut dyn RebalanceSink,
    ) -> Result<CreateOutcome, DhtError> {
        if self.vs.alive_count() == 0 {
            let v = self.vs.create(snode, 0);
            balance::seed_first(&mut self.vs, &mut self.routing, &mut self.region, v, &self.cfg);
            self.ledger.vnode_created(snode);
            self.ledger.gain(snode, Quota::ONE);
            self.debug_check();
            return Ok(CreateOutcome {
                vnode: v,
                group: Some(self.region.gid),
                group_size_after: 1,
            });
        }

        // §2.5: when V is a power of two every vnode holds Pmin (G5), and
        // the handover would drop a vnode below Pmin — so every older vnode
        // binary-splits its partitions first.
        if balance::all_at_pmin(&self.vs, &self.region, &self.cfg) {
            let count = balance::split_all(&mut self.vs, &mut self.routing, &mut self.region)?;
            sink.event(RebalanceEvent::PartitionSplit { count });
        }
        let v = self.vs.create(snode, 0);
        self.region.admit(v, 0);
        self.ledger.vnode_created(snode);
        {
            let mut ls = LedgeredSink::new(sink, &mut self.ledger);
            balance::greedy_add(
                &mut self.vs,
                &mut self.routing,
                &mut self.region,
                v,
                &self.cfg,
                &mut self.rng,
                &mut ls,
            );
        }
        self.debug_check();
        Ok(CreateOutcome {
            vnode: v,
            group: Some(self.region.gid),
            group_size_after: self.region.len(),
        })
    }

    fn remove_vnode_with(
        &mut self,
        v: VnodeId,
        sink: &mut dyn RebalanceSink,
    ) -> Result<RemoveOutcome, DhtError> {
        self.ensure_alive(v)?;
        if self.vs.alive_count() == 1 {
            return Err(DhtError::LastVnode);
        }
        {
            let mut ls = LedgeredSink::new(sink, &mut self.ledger);
            balance::greedy_remove(
                &mut self.vs,
                &mut self.routing,
                &mut self.region,
                v,
                &self.cfg,
                &mut self.rng,
                &mut ls,
            );
        }
        self.vs.kill(v);
        // If redistribution saturated everyone at Pmax, the member count is
        // a power of two (capacity arithmetic — DESIGN.md §3) and G5
        // requires the merge cascade back to Pmin.
        if balance::all_at_pmax(&self.region, &self.cfg) {
            let pairs = {
                let mut ls = LedgeredSink::new(sink, &mut self.ledger);
                balance::merge_all(
                    &mut self.vs,
                    &mut self.routing,
                    &mut self.region,
                    &self.cfg,
                    &mut self.rng,
                    &mut ls,
                )
                .expect("the global region spans R_h and is sibling-closed at every level")
            };
            sink.event(RebalanceEvent::PartitionMerge { pairs });
        }
        self.ledger.vnode_killed(self.vs.get(v).name.snode);
        self.debug_check();
        Ok(RemoveOutcome { group: Some(self.region.gid) })
    }

    fn lookup(&self, point: u64) -> Option<(Partition, VnodeId)> {
        self.routing.lookup(point).map(|(p, &v)| (p, v))
    }

    fn for_each_successor(&self, point: u64, f: &mut dyn FnMut(VnodeId) -> bool) {
        for (_, &v) in self.routing.successors(point) {
            if !f(v) {
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

    fn partitions_of(&self, v: VnodeId) -> Result<Vec<Partition>, DhtError> {
        self.ensure_alive(v)?;
        Ok(self.vs.get(v).partitions.clone())
    }

    fn partition_count(&self, v: VnodeId) -> Result<u64, DhtError> {
        self.ensure_alive(v)?;
        Ok(self.vs.get(v).count())
    }

    fn quota_of(&self, v: VnodeId) -> Result<f64, DhtError> {
        self.ensure_alive(v)?;
        Ok(self.vs.get(v).count() as f64 / (self.region.level as f64).exp2())
    }

    fn for_each_quota(&self, f: &mut dyn FnMut(f64)) {
        let denom = (self.region.level as f64).exp2();
        self.vs.iter_alive().for_each(|v| f(self.vs.get(v).count() as f64 / denom));
    }

    fn vnode_quota_relstd_pct(&self) -> f64 {
        let v = self.vs.alive_count() as f64;
        if v == 0.0 {
            return 0.0;
        }
        // σ̄² = V·ΣQv² − 1 with Qv = Pv/2^l (module docs of `state`).
        let sum_sq_q = self.region.sumsq_quota_f64();
        100.0 * (v * sum_sq_q - 1.0).max(0.0).sqrt()
    }

    fn pdr_of(&self, v: VnodeId) -> Result<Pdr, DhtError> {
        self.ensure_alive(v)?;
        Ok(self.gpdr())
    }

    fn record_shape_of(&self, v: VnodeId) -> Result<(u64, u64), DhtError> {
        self.ensure_alive(v)?;
        // GPDR shape: every live vnode is an entry, every hosting snode a
        // participant — both maintained incrementally, O(1).
        Ok((self.region.len() as u64, self.ledger.snode_count() as u64))
    }

    fn balance_snapshot(&self) -> BalanceSnapshot {
        let v = self.vs.alive_count();
        let max_quota = self.region.max_count() as f64 / (self.region.level as f64).exp2();
        BalanceSnapshot {
            vnodes: v,
            groups: 1,
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
            std::slice::from_ref(&self.region),
            &self.routing,
            &self.ledger,
            true,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CollectReport, NullSink};
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
