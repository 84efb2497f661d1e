//! Heterogeneous cluster management on top of a DHT engine.
//!
//! The motivating feature of the model (§1): "the share of a DHT handled by
//! each cluster node is a function of the amount of the computational
//! resources it enrolls in the DHT", and that enrollment "is allowed to
//! change dynamically". A node's *enrollment level* (§2.1.2) maps to the
//! number of vnodes its snode hosts; quota then follows enrollment because
//! every vnode converges to `≈ 1/V` of `R_h`.
//!
//! [`Cluster`] wraps any [`DhtEngine`] and exposes node-level operations:
//! join with a weight, change weight (grow/shrink enrollment), leave — all
//! implemented with the engine's create/remove primitives. It keeps only
//! each node's weight; which vnodes a node hosts is the engine's
//! [`DhtEngine::vnodes_of_snode`].

use crate::engine::DhtEngine;
use crate::errors::DhtError;
use crate::ids::{SnodeId, VnodeId};
use crate::sink::NullSink;
use domus_metrics::rel_std_dev_pct;
use std::collections::BTreeMap;

/// Maps an enrollment weight to a vnode count.
///
/// `vnodes = max(1, round(weight × unit))` where `unit` is the vnode count
/// of a weight-1.0 node. The paper leaves the mapping abstract ("a function
/// of the amount of the computational resources"); a linear map with a
/// configurable unit is the natural instantiation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnrollmentPolicy {
    /// vnodes hosted by a weight-1.0 node.
    pub unit: u32,
}

impl Default for EnrollmentPolicy {
    fn default() -> Self {
        Self { unit: 4 }
    }
}

impl EnrollmentPolicy {
    /// The vnode count for `weight`.
    pub fn vnodes_for(&self, weight: f64) -> u32 {
        assert!(weight > 0.0 && weight.is_finite(), "enrollment weight must be positive");
        ((weight * self.unit as f64).round() as u32).max(1)
    }
}

/// A heterogeneous cluster driving a DHT engine.
#[derive(Debug, Clone)]
pub struct Cluster<E: DhtEngine> {
    engine: E,
    policy: EnrollmentPolicy,
    /// Enrollment weight per node.
    weights: BTreeMap<SnodeId, f64>,
    next_snode: u32,
}

impl<E: DhtEngine> Cluster<E> {
    /// Wraps an engine with the default enrollment policy.
    pub fn new(engine: E) -> Self {
        Self::with_policy(engine, EnrollmentPolicy::default())
    }

    /// Wraps an engine with an explicit policy.
    pub fn with_policy(engine: E, policy: EnrollmentPolicy) -> Self {
        Self { engine, policy, weights: BTreeMap::new(), next_snode: 0 }
    }

    /// Immutable access to the underlying engine.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// The enrollment policy.
    pub fn policy(&self) -> EnrollmentPolicy {
        self.policy
    }

    /// Number of cluster nodes currently enrolled.
    pub fn node_count(&self) -> usize {
        self.weights.len()
    }

    /// The snodes currently enrolled, in id order.
    pub fn nodes(&self) -> Vec<SnodeId> {
        self.weights.keys().copied().collect()
    }

    /// A node's enrollment weight.
    pub fn weight_of(&self, s: SnodeId) -> Option<f64> {
        self.weights.get(&s).copied()
    }

    /// A node's current vnode handles, in creation order.
    pub fn vnodes_of(&self, s: SnodeId) -> Option<&[VnodeId]> {
        self.weights.contains_key(&s).then(|| self.engine.vnodes_of_snode(s))
    }

    /// Enrolls a new node with `weight`, creating its vnodes one at a time
    /// (each creation is a full model balancement event).
    pub fn join(&mut self, weight: f64) -> Result<SnodeId, DhtError> {
        let s = SnodeId(self.next_snode);
        self.next_snode += 1;
        for _ in 0..self.policy.vnodes_for(weight) {
            self.engine.create_vnode_with(s, &mut NullSink)?;
        }
        self.weights.insert(s, weight);
        Ok(s)
    }

    /// Changes a node's enrollment (on-line re-enrollment, §2.1.2: "that
    /// amount may change in result of on-line disk repartitioning or
    /// hot-swapping mechanisms"). Creates or removes vnodes to match.
    pub fn set_weight(&mut self, s: SnodeId, weight: f64) -> Result<(), DhtError> {
        *self.weights.get_mut(&s).ok_or(DhtError::EmptySnode(s))? = weight;
        let target = self.policy.vnodes_for(weight) as usize;
        while self.engine.vnodes_of_snode(s).len() < target {
            self.engine.create_vnode_with(s, &mut NullSink)?;
        }
        while self.engine.vnodes_of_snode(s).len() > target {
            let v = *self.engine.vnodes_of_snode(s).last().expect("more than target");
            self.engine.remove_vnode_with(v, &mut NullSink)?;
        }
        Ok(())
    }

    /// Withdraws a node entirely, removing all its vnodes.
    ///
    /// Fails with [`DhtError::LastVnode`] when the node hosts every live
    /// vnode — checked before anything mutates, as
    /// [`DhtEngine::fail_snode`] does.
    pub fn leave(&mut self, s: SnodeId) -> Result<(), DhtError> {
        let hosted = self.vnodes_of(s).ok_or(DhtError::EmptySnode(s))?.to_vec();
        if hosted.len() == self.engine.vnode_count() {
            return Err(DhtError::LastVnode);
        }
        self.weights.remove(&s);
        for &v in hosted.iter().rev() {
            self.engine.remove_vnode_with(v, &mut NullSink)?;
        }
        Ok(())
    }

    /// Per-node quotas `(snode, Qn)` in id order — `Qn` is the sum of the
    /// node's vnode quotas (the figure-9 abstraction over both models).
    pub fn node_quotas(&self) -> Vec<(SnodeId, f64)> {
        self.weights
            .keys()
            .map(|&s| {
                let q = self
                    .engine
                    .vnodes_of_snode(s)
                    .iter()
                    .map(|&v| self.engine.quota_of(v).expect("a listed vnode is alive"))
                    .sum();
                (s, q)
            })
            .collect()
    }

    /// `σ̄(Qn, Q̄n)` in percent: the node-level balancement quality.
    pub fn node_quota_relstd_pct(&self) -> f64 {
        rel_std_dev_pct(self.node_quotas().into_iter().map(|(_, q)| q))
    }

    /// Quota per unit of weight, for heterogeneity verification: a
    /// well-balanced heterogeneous cluster has nearly equal values here.
    pub fn quota_per_weight(&self) -> Vec<(SnodeId, f64)> {
        self.node_quotas().into_iter().map(|(s, q)| (s, q / self.weights[&s])).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DhtConfig;
    use crate::local::LocalDht;
    use domus_hashspace::HashSpace;

    fn cluster() -> Cluster<LocalDht> {
        let cfg = DhtConfig::new(HashSpace::new(32), 4, 4).unwrap();
        Cluster::with_policy(LocalDht::with_seed(cfg, 9), EnrollmentPolicy { unit: 4 })
    }

    #[test]
    fn enrollment_policy_rounds_and_floors() {
        let p = EnrollmentPolicy { unit: 4 };
        assert_eq!(p.vnodes_for(1.0), 4);
        assert_eq!(p.vnodes_for(2.0), 8);
        assert_eq!(p.vnodes_for(0.1), 1, "at least one vnode");
        assert_eq!(p.vnodes_for(1.6), 6);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn negative_weight_rejected() {
        EnrollmentPolicy::default().vnodes_for(-1.0);
    }

    #[test]
    fn quota_follows_weight() {
        let mut c = cluster();
        for _ in 0..6 {
            c.join(1.0).unwrap();
        }
        let big = c.join(3.0).unwrap();
        // The weight-3 node hosts 3× the vnodes and so ~3× the quota.
        let quotas = c.node_quotas();
        let big_q = quotas.iter().find(|(s, _)| *s == big).unwrap().1;
        let small_q: f64 =
            quotas.iter().filter(|(s, _)| *s != big).map(|(_, q)| q).sum::<f64>() / 6.0;
        let ratio = big_q / small_q;
        assert!((2.0..=4.5).contains(&ratio), "quota ratio {ratio}, want ≈3");
        c.engine().check_invariants().unwrap();
    }

    #[test]
    fn quota_per_weight_is_flat() {
        let mut c = cluster();
        for w in [1.0, 2.0, 1.0, 4.0, 1.0, 2.0, 1.0, 1.0] {
            c.join(w).unwrap();
        }
        let qpw: Vec<f64> = c.quota_per_weight().into_iter().map(|(_, q)| q).collect();
        let spread = rel_std_dev_pct(qpw.iter().copied());
        assert!(spread < 35.0, "quota-per-weight relative spread {spread}% too wide");
    }

    #[test]
    fn set_weight_grows_and_shrinks() {
        let mut c = cluster();
        let s = c.join(1.0).unwrap();
        c.join(1.0).unwrap();
        assert_eq!(c.vnodes_of(s).unwrap().len(), 4);
        c.set_weight(s, 2.0).unwrap();
        assert_eq!(c.vnodes_of(s).unwrap().len(), 8);
        c.set_weight(s, 0.5).unwrap();
        assert_eq!(c.vnodes_of(s).unwrap().len(), 2);
        c.engine().check_invariants().unwrap();
    }

    #[test]
    fn leave_removes_all_vnodes() {
        let mut c = cluster();
        let a = c.join(1.0).unwrap();
        let b = c.join(2.0).unwrap();
        let before = c.engine().vnode_count();
        assert_eq!(before, 12);
        c.leave(b).unwrap();
        assert_eq!(c.engine().vnode_count(), 4);
        assert_eq!(c.node_count(), 1);
        assert!(c.vnodes_of(a).is_some());
        c.engine().check_invariants().unwrap();
    }

    #[test]
    fn last_node_cannot_leave_and_nothing_mutates() {
        let mut c = cluster();
        let s = c.join(1.0).unwrap();
        let vnodes = c.vnodes_of(s).unwrap().to_vec();
        let quotas = c.engine().quotas();
        assert_eq!(c.leave(s), Err(DhtError::LastVnode));
        assert_eq!(c.node_count(), 1);
        assert_eq!(c.vnodes_of(s), Some(vnodes.as_slice()));
        assert_eq!(c.engine().vnodes(), vnodes);
        assert_eq!(c.engine().quotas(), quotas);
        assert_eq!(c.node_quotas(), vec![(s, 1.0)]);
        // The node is still reachable through the cluster.
        assert_eq!(c.leave(s), Err(DhtError::LastVnode));
        c.engine().check_invariants().unwrap();
    }

    #[test]
    fn unknown_snode_is_reported_by_its_own_id() {
        let mut c = cluster();
        c.join(1.0).unwrap();
        let stranger = SnodeId(7);
        assert_eq!(c.set_weight(stranger, 2.0), Err(DhtError::EmptySnode(stranger)));
        assert_eq!(c.leave(stranger), Err(DhtError::EmptySnode(stranger)));
        assert_eq!(c.engine().vnode_count(), 4, "nothing mutated");
    }

    #[test]
    fn homogeneous_cluster_balances_nodes() {
        let mut c = cluster();
        for _ in 0..12 {
            c.join(1.0).unwrap();
        }
        let spread = c.node_quota_relstd_pct();
        assert!(spread < 30.0, "homogeneous node spread {spread}%");
    }
}
