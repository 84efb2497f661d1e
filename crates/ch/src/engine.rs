//! [`ChEngine`]: Consistent Hashing behind the model's [`DhtEngine`]
//! interface.
//!
//! The paper compares its model against CH (§4.3) but the two speak
//! different languages: the model reasons in split-tree *partitions*,
//! CH in arbitrary ring *arcs*. This adapter translates — every arc is
//! expressed exactly as a set of dyadic partitions
//! ([`Partition::cover_range`]), so the downstream layers that are
//! generic over `DhtEngine` (`KvStore`'s transfer replay, `SimDriver`'s
//! event pricing, the experiment harness) drive a CH ring through the
//! *same* code paths as the global and local approaches:
//!
//! * `create_vnode_with(snode, sink)` joins one physical node with the
//!   configured number of virtual servers and streams one `Transfer`
//!   event per partition piece the newcomer pulled from its previous
//!   owners (a `CollectReport` sink materialises the same list).
//! * `remove_vnode_with` leaves the ring and streams the pieces
//!   inherited by the surviving successors the same way.
//! * `lookup`/`partitions_of` expose the current arc set as partitions,
//!   so the routing invariant ("a key lives exactly where lookup
//!   points") is checkable — and checked — identically across backends.
//!
//! The partition view is **derived, not stored**: the ring's point set is
//! the single source of truth, and every partition-oriented query tiles
//! the relevant arc with its *minimal* dyadic cover on demand (`lookup`
//! resolves its piece in O(Bh) arithmetic, `partitions_of` materialises
//! one node's arcs in O(k·Bh)). Hand-overs therefore synthesize their
//! transfer lists straight from the claimed intervals — no per-node
//! piece maps to split, rebalance or rescan, and the reported pieces are
//! always the coarsest exact tiling of what actually moved.
//!
//! CH has no groups; the whole ring is one region. Reports therefore
//! carry `GroupId::FIRST` as their container, which also makes the
//! simulator price CH like the global approach: one record, fully
//! serial — exactly the comparison the paper draws.

use crate::ring::{ArcClaim, ChNodeId, ChRing};
use domus_core::{
    BalanceSnapshot, CanonicalName, CreateOutcome, DhtConfig, DhtEngine, DhtError, GroupId,
    InvariantViolation, LedgeredSink, Pdr, PdrEntry, RebalanceSink, RemoveOutcome, SnodeId,
    SnodeLedger, Transfer, VnodeId,
};
use domus_hashspace::{HashSpace, Partition, Quota};
use std::collections::BTreeMap;

/// Consistent Hashing as a [`DhtEngine`] backend.
///
/// ```
/// use domus_ch::ChEngine;
/// use domus_core::{DhtConfig, DhtEngine, NullSink, SnodeId};
/// use domus_hashspace::HashSpace;
///
/// let cfg = DhtConfig::new(HashSpace::new(32), 32, 1).unwrap();
/// let mut dht = ChEngine::with_seed(cfg, 8, 7);
/// for s in 0..4u32 {
///     dht.create_vnode_with(SnodeId(s), &mut NullSink).unwrap();
/// }
/// let (partition, owner) = dht.lookup(0xBEEF).unwrap();
/// assert!(dht.partitions_of(owner).unwrap().contains(&partition));
/// assert!(dht.check_invariants().is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct ChEngine {
    ring: ChRing,
    cfg: DhtConfig,
    /// Canonical name per node slot (slot = `ChNodeId` index = `VnodeId`
    /// index; slots are never reused, mirroring the engines' tombstones).
    hosts: Vec<CanonicalName>,
    /// The per-snode table: each snode's vnodes, names and exact quota
    /// (fed by the same transfers the reports carry, so it is exact).
    ledger: SnodeLedger,
}

/// Up to two half-open integer segments `[start, end)` — an arc's key
/// interval, split in two when it wraps through 0. Stack-allocated so
/// the per-event hot paths never build a `Vec` per claim.
#[derive(Debug, Clone, Copy)]
struct Segments {
    buf: [(u64, u128); 2],
    len: usize,
}

impl Segments {
    fn one(start: u64, end: u128) -> Self {
        Self { buf: [(start, end), (0, 0)], len: 1 }
    }

    fn two(a: (u64, u128), b: (u64, u128)) -> Self {
        Self { buf: [a, b], len: 2 }
    }

    fn as_slice(&self) -> &[(u64, u128)] {
        &self.buf[..self.len]
    }
}

impl ChEngine {
    /// A CH engine over `cfg`'s hash space with `virtual_servers` points
    /// per node, deterministically seeded.
    ///
    /// `cfg.pmin`/`cfg.vmin` do not constrain a ring; they are carried
    /// for the downstream layers that read the configuration.
    pub fn with_seed(cfg: DhtConfig, virtual_servers: u32, seed: u64) -> Self {
        Self {
            ring: ChRing::with_seed(cfg.hash_space(), virtual_servers, seed),
            cfg,
            hosts: Vec::new(),
            ledger: SnodeLedger::new(),
        }
    }

    /// The per-snode table: each snode's vnodes and exact quota.
    pub fn ledger(&self) -> &SnodeLedger {
        &self.ledger
    }

    /// The underlying ring (read-only; mutate through the engine so the
    /// names and the ledger stay consistent).
    pub fn ring(&self) -> &ChRing {
        &self.ring
    }

    fn space(&self) -> HashSpace {
        self.ring.space()
    }

    /// The key interval of an arc `(from_excl, to_incl]` as half-open
    /// integer segments `[start, end)` (two when the arc wraps through 0).
    fn segments(space: HashSpace, from_excl: u64, to_incl: u64) -> Segments {
        if from_excl == to_incl {
            // A point's arc to itself is the whole circle.
            return Segments::one(0, space.size());
        }
        let end = to_incl as u128 + 1;
        if to_incl > from_excl {
            Segments::one(from_excl + 1, end)
        } else if from_excl == space.max_point() {
            Segments::one(0, end)
        } else {
            Segments::two((from_excl + 1, space.size()), (0, end))
        }
    }

    /// The run `[start, end)` holding `point` — the segment of its arc
    /// that contains it — and the arc's owner.
    fn run_containing(&self, point: u64) -> Option<(u64, u128, VnodeId)> {
        let (from_excl, to_incl, owner) = self.ring.arc_containing(point)?;
        let segments = Self::segments(self.space(), from_excl, to_incl);
        let &(s, e) = segments
            .as_slice()
            .iter()
            .find(|&&(s, e)| s <= point && (point as u128) < e)
            .expect("the arc containing a point covers it");
        Some((s, e, VnodeId(owner.0)))
    }

    /// Streams the transfers of a batch of claims: every claimed interval
    /// changes hands as its minimal dyadic cover, piece by piece, with the
    /// ledger updated in the same pass. `join` moves peer → target; leave
    /// moves target → peer.
    fn emit_claims(
        space: HashSpace,
        hosts: &[CanonicalName],
        claims: &[ArcClaim],
        target: VnodeId,
        join: bool,
        sink: &mut LedgeredSink<'_>,
    ) {
        for claim in claims {
            let Some(peer_node) = claim.peer else {
                // No counterparty: the first point of an empty ring claims
                // the whole circle from nobody (no transfer — exactly like
                // the first vnode of the other engines).
                debug_assert!(join, "leaving the last node is rejected upstream");
                continue;
            };
            let peer = VnodeId(peer_node.0);
            let (from, to) = if join { (peer, target) } else { (target, peer) };
            let (from_snode, to_snode) = (hosts[from.index()].snode, hosts[to.index()].snode);
            for &(s, e) in Self::segments(space, claim.from_excl, claim.to_incl).as_slice() {
                Partition::for_each_cover(space, s, e, &mut |partition| {
                    sink.transfer(Transfer { partition, from, to }, from_snode, to_snode);
                });
            }
        }
    }

    /// The minimal dyadic tiling of one node's current arcs, in
    /// hash-space order — O(k·Bh), derived from the ring.
    fn tiles_of(&self, node: ChNodeId) -> Vec<Partition> {
        let space = self.space();
        let mut out = Vec::new();
        for &p in self.ring.points_of(node) {
            let (from_excl, to_incl, owner) =
                self.ring.arc_containing(p).expect("a live node's point resolves");
            debug_assert_eq!(owner, node, "a point's arc belongs to its node");
            debug_assert_eq!(to_incl, p);
            for &(s, e) in Self::segments(space, from_excl, to_incl).as_slice() {
                out.extend(Partition::cover_range(space, s, e));
            }
        }
        out.sort_unstable_by_key(|p| p.start(space));
        out
    }

    fn ensure_live(&self, v: VnodeId) -> Result<ChNodeId, DhtError> {
        let node = ChNodeId(v.0);
        if self.ring.is_live(node) {
            Ok(node)
        } else {
            Err(DhtError::UnknownVnode(v))
        }
    }
}

impl DhtEngine for ChEngine {
    fn config(&self) -> &DhtConfig {
        &self.cfg
    }

    fn vnode_count(&self) -> usize {
        self.ring.node_count()
    }

    fn group_count(&self) -> usize {
        1
    }

    fn create_vnode_with(
        &mut self,
        snode: SnodeId,
        sink: &mut dyn RebalanceSink,
    ) -> Result<CreateOutcome, DhtError> {
        let k = self.ring.virtual_servers_per_node();
        let (node, claims) = self.ring.join_with_points_reporting(k);
        let v = VnodeId(node.0);
        debug_assert_eq!(v.index(), self.hosts.len(), "ring slots are dense");
        let name = self.ledger.vnode_created(snode, v);
        self.hosts.push(name);
        if self.ring.node_count() == 1 {
            // The first node claimed the whole circle from nobody.
            self.ledger.gain(snode, Quota::ONE);
        }
        {
            let mut ls = LedgeredSink::new(sink, &mut self.ledger);
            Self::emit_claims(self.ring.space(), &self.hosts, &claims, v, true, &mut ls);
        }
        Ok(CreateOutcome {
            vnode: v,
            group: Some(GroupId::FIRST),
            group_size_after: self.ring.node_count(),
        })
    }

    fn remove_vnode_with(
        &mut self,
        v: VnodeId,
        sink: &mut dyn RebalanceSink,
    ) -> Result<RemoveOutcome, DhtError> {
        let node = self.ensure_live(v)?;
        if self.ring.node_count() == 1 {
            return Err(DhtError::LastVnode);
        }
        let claims = self.ring.leave_reporting(node);
        {
            let mut ls = LedgeredSink::new(sink, &mut self.ledger);
            Self::emit_claims(self.ring.space(), &self.hosts, &claims, v, false, &mut ls);
        }
        self.ledger.vnode_killed(self.hosts[v.index()].snode, v);
        Ok(RemoveOutcome { group: Some(GroupId::FIRST) })
    }

    fn lookup(&self, point: u64) -> Option<(Partition, VnodeId)> {
        // The piece is resolved within the run holding the point — pure
        // arithmetic over the minimal cover, no stored view.
        let (s, e, v) = self.run_containing(point)?;
        Some((Partition::cover_piece_containing(self.space(), s, e, point), v))
    }

    fn for_each_span(&self, point: u64, f: &mut dyn FnMut(u64, u128, VnodeId) -> bool) {
        // One run per arc, split at 0 when it wraps — straight off the
        // ring, never one visit per derived dyadic piece.
        let size = self.space().size();
        let Some((first, mut end, v)) = self.run_containing(point) else { return };
        if !f(first, end, v) {
            return;
        }
        loop {
            let next = if end == size { 0 } else { end as u64 };
            if next == first {
                return; // wrapped to the starting run
            }
            let (s, e, v) = self.run_containing(next).expect("a live ring covers the circle");
            if !f(s, e, v) {
                return;
            }
            end = e;
        }
    }

    fn for_each_vnode(&self, f: &mut dyn FnMut(VnodeId)) {
        self.ring.for_each_node(&mut |n| f(VnodeId(n.0)));
    }

    fn name_of(&self, v: VnodeId) -> Result<CanonicalName, DhtError> {
        self.ensure_live(v)?;
        Ok(self.hosts[v.index()])
    }

    fn snode_of(&self, v: VnodeId) -> Result<SnodeId, DhtError> {
        Ok(self.name_of(v)?.snode)
    }

    fn vnodes_of_snode(&self, s: SnodeId) -> &[VnodeId] {
        self.ledger.vnodes_of(s)
    }

    fn snode_count(&self) -> usize {
        self.ledger.snode_count()
    }

    fn partitions_of(&self, v: VnodeId) -> Result<Vec<Partition>, DhtError> {
        let node = self.ensure_live(v)?;
        Ok(self.tiles_of(node))
    }

    fn quota_of(&self, v: VnodeId) -> Result<f64, DhtError> {
        let node = self.ensure_live(v)?;
        Ok(self.ring.quota_of(node))
    }

    fn for_each_quota(&self, f: &mut dyn FnMut(f64)) {
        self.ring.for_each_node(&mut |n| f(self.ring.quota_of(n)));
    }

    fn vnode_quota_relstd_pct(&self) -> f64 {
        self.ring.node_quota_relstd_pct()
    }

    fn pdr_of(&self, v: VnodeId) -> Result<Pdr, DhtError> {
        self.ensure_live(v)?;
        // One region: the record visible anywhere covers every node, like
        // the global approach's GPDR.
        let entries = self
            .vnodes()
            .into_iter()
            .map(|v| PdrEntry {
                vnode: self.hosts[v.index()],
                partitions: self.tiles_of(ChNodeId(v.0)).len() as u64,
            })
            .collect();
        Ok(Pdr::new(entries))
    }

    fn record_shape_of(&self, v: VnodeId) -> Result<(u64, u64), DhtError> {
        self.ensure_live(v)?;
        // One region spanning every node; participants are the distinct
        // hosting snodes — both maintained incrementally, O(1).
        Ok((self.ring.node_count() as u64, self.ledger.snode_count() as u64))
    }

    fn balance_snapshot(&self) -> BalanceSnapshot {
        let v = self.ring.node_count();
        let space = self.space();
        BalanceSnapshot {
            vnodes: v,
            groups: 1,
            snodes: self.ledger.snode_count(),
            vnode_relstd_pct: self.ring.node_quota_relstd_pct(),
            snode_relstd_pct: self.ledger.relstd_pct(),
            max_quota_over_ideal: self.ring.max_arc() as f64 / space.size() as f64 * v as f64,
        }
    }

    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        // Incremental arc bookkeeping vs recomputation, and exact circle
        // coverage (the ring's own G1 analogue).
        self.ring.verify().map_err(InvariantViolation::Coverage)?;
        let space = self.space();
        if self.ring.node_count() == 0 {
            return Ok(());
        }
        // The derived partition view must tile R_h exactly…
        let mut total: u128 = 0;
        for v in self.vnodes() {
            let tiles = self.tiles_of(ChNodeId(v.0));
            let from_tiles: u128 = tiles.iter().map(|p| p.size(space)).sum();
            total += from_tiles;
            // …agree with the ring's exact arc quotas, vnode by vnode…
            let from_arcs = self.ring.arc_of(ChNodeId(v.0));
            if from_tiles != from_arcs {
                return Err(InvariantViolation::RoutingMismatch {
                    vnode: v,
                    detail: format!(
                        "partition view holds {from_tiles} points, arc quota says {from_arcs}"
                    ),
                });
            }
            // …and route every piece back to its holder.
            for piece in &tiles {
                match self.lookup(piece.start(space)) {
                    Some((q, owner)) if owner == v && q == *piece => {}
                    other => {
                        return Err(InvariantViolation::RoutingMismatch {
                            vnode: v,
                            detail: format!("piece {piece} routed to {other:?}"),
                        });
                    }
                }
            }
        }
        if total != space.size() {
            return Err(InvariantViolation::Coverage(format!(
                "partition view covers {total} of {} points",
                space.size()
            )));
        }
        // The incremental snode ledger matches a per-arc recomputation,
        // and each snode's handle list a creation-order filter of the ring.
        let mut fresh: BTreeMap<SnodeId, (Quota, Vec<VnodeId>)> = BTreeMap::new();
        for v in self.vnodes() {
            let e = fresh.entry(self.hosts[v.index()].snode).or_insert((Quota::ZERO, Vec::new()));
            for piece in self.tiles_of(ChNodeId(v.0)) {
                e.0 = e.0 + piece.quota();
            }
            e.1.push(v);
        }
        if fresh.len() != self.ledger.snode_count()
            || self.ledger.iter().any(|(s, share)| {
                !matches!(fresh.get(&s), Some((q, vs)) if *q == share.quota && *vs == share.vnodes)
            })
        {
            return Err(InvariantViolation::Coverage(
                "snode ledger drifted from the partition view".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domus_core::{CollectReport, CountOnly, NullSink};

    fn engine(seed: u64) -> ChEngine {
        let cfg = DhtConfig::new(HashSpace::new(32), 32, 1).unwrap();
        ChEngine::with_seed(cfg, 8, seed)
    }

    #[test]
    fn first_vnode_owns_everything_with_no_transfers() {
        let mut e = engine(1);
        let mut counts = CountOnly::default();
        let created = e.create_vnode_with(SnodeId(0), &mut counts).unwrap();
        let v = created.vnode;
        assert_eq!(counts.transfers, 0, "nobody to take from");
        assert_eq!(created.group, Some(GroupId::FIRST));
        assert_eq!(e.quota_of(v).unwrap(), 1.0);
        let total: u128 = e.partitions_of(v).unwrap().iter().map(|p| p.size(e.space())).sum();
        assert_eq!(total, e.space().size());
        e.check_invariants().unwrap();
    }

    #[test]
    fn transfers_move_exactly_the_claimed_quota() {
        let mut e = engine(2);
        e.create_vnode_with(SnodeId(0), &mut NullSink).unwrap();
        let before = e.quotas();
        let mut rep = CollectReport::new();
        let v = e.create_vnode_with(SnodeId(1), &mut rep).unwrap().vnode;
        assert!(!rep.transfers().is_empty(), "a second node must claim arcs");
        let space = e.space();
        let moved: u128 = rep.transfers().iter().map(|t| t.partition.size(space)).sum();
        assert_eq!(moved, e.ring().arc_of(ChNodeId(v.0)), "transfer volume == quota claimed");
        assert!(rep.transfers().iter().all(|t| t.to == v));
        assert_eq!(before.iter().sum::<f64>(), 1.0);
        e.check_invariants().unwrap();
    }

    #[test]
    fn lookup_agrees_with_partition_lists() {
        let mut e = engine(3);
        for s in 0..6u32 {
            e.create_vnode_with(SnodeId(s), &mut NullSink).unwrap();
        }
        let space = e.space();
        for key in (0..space.max_point()).step_by(1 << 24) {
            let (p, v) = e.lookup(key).expect("covered");
            assert!(p.contains(key, space));
            assert!(e.partitions_of(v).unwrap().contains(&p), "{p} missing from {v}");
        }
    }

    #[test]
    fn removal_reports_draining_transfers() {
        let mut e = engine(4);
        let mut vs = Vec::new();
        for s in 0..5u32 {
            vs.push(e.create_vnode_with(SnodeId(s), &mut NullSink).unwrap().vnode);
        }
        let victim = vs[2];
        let arc = e.ring().arc_of(ChNodeId(victim.0));
        let mut rep = CollectReport::new();
        e.remove_vnode_with(victim, &mut rep).unwrap();
        let space = e.space();
        let moved: u128 = rep.transfers().iter().map(|t| t.partition.size(space)).sum();
        assert_eq!(moved, arc, "everything the victim held must move out");
        assert!(rep.transfers().iter().all(|t| t.from == victim && t.to != victim));
        assert_eq!(e.lookup(0).map(|(_, v)| v == victim), Some(false));
        assert!(matches!(e.quota_of(victim), Err(DhtError::UnknownVnode(_))));
        e.check_invariants().unwrap();
    }

    #[test]
    fn churn_preserves_the_view() {
        let mut e = engine(12);
        let mut live = Vec::new();
        for s in 0..10u32 {
            live.push(e.create_vnode_with(SnodeId(s), &mut NullSink).unwrap().vnode);
        }
        for round in 0..6usize {
            let v = live.remove(round % live.len());
            e.remove_vnode_with(v, &mut NullSink).unwrap();
            e.check_invariants().unwrap_or_else(|err| panic!("round {round}: {err}"));
            live.push(
                e.create_vnode_with(SnodeId(90 + round as u32), &mut NullSink).unwrap().vnode,
            );
            e.check_invariants().unwrap_or_else(|err| panic!("round {round}: {err}"));
        }
    }

    #[test]
    fn last_vnode_cannot_leave() {
        let mut e = engine(5);
        let v = e.create_vnode_with(SnodeId(0), &mut NullSink).unwrap().vnode;
        assert_eq!(e.remove_vnode_with(v, &mut NullSink), Err(DhtError::LastVnode));
        assert!(matches!(
            e.remove_vnode_with(VnodeId(99), &mut NullSink),
            Err(DhtError::UnknownVnode(_))
        ));
    }

    #[test]
    fn canonical_names_count_per_snode() {
        let mut e = engine(6);
        let a = e.create_vnode_with(SnodeId(7), &mut NullSink).unwrap().vnode;
        let b = e.create_vnode_with(SnodeId(7), &mut NullSink).unwrap().vnode;
        let c = e.create_vnode_with(SnodeId(2), &mut NullSink).unwrap().vnode;
        assert_eq!(e.name_of(a).unwrap().to_string(), "7.0");
        assert_eq!(e.name_of(b).unwrap().to_string(), "7.1");
        assert_eq!(e.name_of(c).unwrap().to_string(), "2.0");
        assert_eq!(e.snode_of(b).unwrap(), SnodeId(7));
    }

    #[test]
    fn pdr_covers_every_live_node() {
        let mut e = engine(7);
        for s in 0..4u32 {
            e.create_vnode_with(SnodeId(s), &mut NullSink).unwrap();
        }
        let v = e.vnodes()[1];
        let pdr = e.pdr_of(v).unwrap();
        assert_eq!(pdr.len(), 4);
        let total_parts: u64 = pdr.entries().iter().map(|r| r.partitions).sum();
        let listed: u64 = e.vnodes().iter().map(|&v| e.partition_count(v).unwrap()).sum();
        assert_eq!(total_parts, listed);
    }

    #[test]
    fn full_64bit_space_engine_works() {
        let cfg = DhtConfig::paper_default();
        let mut e = ChEngine::with_seed(cfg, 32, 11);
        for s in 0..8u32 {
            e.create_vnode_with(SnodeId(s), &mut NullSink).unwrap();
        }
        e.check_invariants().unwrap();
        let sum: f64 = e.quotas().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn derived_view_is_minimal_per_arc() {
        // Each arc's tiling is the minimal dyadic cover: re-deriving it
        // straight from the ring's arc endpoints yields the same pieces.
        let mut e = engine(21);
        for s in 0..8u32 {
            e.create_vnode_with(SnodeId(s), &mut NullSink).unwrap();
        }
        let space = e.space();
        for v in e.vnodes() {
            let tiles = e.partitions_of(v).unwrap();
            let mut expected = Vec::new();
            for &p in e.ring().points_of(ChNodeId(v.0)) {
                let (from, to, _) = e.ring().arc_containing(p).unwrap();
                for &(s, en) in ChEngine::segments(space, from, to).as_slice() {
                    expected.extend(Partition::cover_range(space, s, en));
                }
            }
            expected.sort_unstable_by_key(|p| p.start(space));
            assert_eq!(tiles, expected);
        }
    }
}
