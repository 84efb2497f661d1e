//! The model's invariant checker.
//!
//! Verifies every invariant of §2.2 (G1–G5) and §3.3 (L1, L2, G1'–G5') of
//! the paper, plus the structural consistency of the engine internals: the
//! routing map's owner index ↔ its entries, every routed partition held by
//! a live vnode, and counts ↔ accumulators ↔ group membership. A vnode's
//! holdings are read straight off the owner index, the engine's one list
//! of them. Used by unit, integration and property tests, and — behind
//! `debug_assertions` — after every mutating engine operation.
//!
//! The checks are deliberately exhaustive (O(V·P)); production callers
//! sample them, tests run them after every step.

use crate::config::DhtConfig;
use crate::group_id::GroupId;
use crate::ids::{SnodeId, VnodeId};
use crate::ledger::SnodeLedger;
use crate::state::{count, GroupState, VnodeStore};
use domus_hashspace::{OwnerMap, Quota};
use domus_util::bits::is_power_of_two;
use std::collections::BTreeMap;

/// A violated invariant, with enough context to debug it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantViolation {
    /// G1/G1': the partitions do not tile `R_h` (gap/overlap/size mismatch).
    Coverage(String),
    /// A partition is routed to a vnode that is not live.
    RoutingMismatch {
        /// The vnode involved.
        vnode: VnodeId,
        /// Human-readable detail.
        detail: String,
    },
    /// G2': a region's total partition count is not a power of two.
    TotalNotPowerOfTwo {
        /// The group.
        gid: GroupId,
        /// The offending total.
        total: u64,
    },
    /// G3': a member holds a partition not at the group's splitlevel.
    WrongLevel {
        /// The group.
        gid: GroupId,
        /// The vnode holding the partition.
        vnode: VnodeId,
        /// Expected splitlevel.
        expected: u32,
        /// Found splitlevel.
        found: u32,
    },
    /// G4': a vnode's partition count is outside `[Pmin, Pmax]`.
    CountOutOfBounds {
        /// The vnode.
        vnode: VnodeId,
        /// Its count.
        count: u64,
        /// Allowed bounds.
        bounds: (u64, u64),
    },
    /// G5': member count is a power of two but not every member holds Pmin.
    PowerOfTwoNotUniform {
        /// The group.
        gid: GroupId,
        /// Its member count.
        members: usize,
    },
    /// L2: a group's member count is outside `[Vmin, Vmax]`.
    GroupSizeOutOfBounds {
        /// The group.
        gid: GroupId,
        /// Its member count.
        members: usize,
        /// Allowed bounds.
        bounds: (u64, u64),
    },
    /// L1 (structural): a vnode is claimed by zero or multiple groups, or
    /// its back-pointer disagrees.
    MembershipMismatch {
        /// The vnode.
        vnode: VnodeId,
        /// Detail.
        detail: String,
    },
    /// Group identifiers are not prefix-free (uniqueness scheme broken).
    GroupIdsNotPrefixFree {
        /// A group whose id is an ancestor of another live id.
        ancestor: GroupId,
        /// The descendant id.
        descendant: GroupId,
    },
    /// A group's quota differs from `2^-depth(gid)` (the split-in-halves
    /// law the deletion extension relies on).
    GroupQuotaDrift {
        /// The group.
        gid: GroupId,
        /// Detail.
        detail: String,
    },
    /// The `Σ Pv` / `Σ Pv²` accumulators disagree with recomputation.
    AccumulatorDrift {
        /// The group.
        gid: GroupId,
        /// Detail.
        detail: String,
    },
    /// The incremental snode ledger (a quota or a handle list) disagrees
    /// with a per-vnode recomputation.
    LedgerDrift {
        /// Detail.
        detail: String,
    },
    /// The vnode quotas do not sum exactly to 1.
    QuotaSumNotOne {
        /// The exact sum found, rendered.
        found: String,
    },
    /// Derived theorem (see `balance` module docs): between operations,
    /// partition counts within a region differ by at most one. Not a paper
    /// invariant, but every algorithm in the model preserves it, and the
    /// G5' argument depends on it.
    SpreadTooWide {
        /// The group.
        gid: GroupId,
        /// Smallest and largest member counts found.
        min_max: (u64, u64),
    },
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Coverage(d) => write!(f, "G1 coverage violated: {d}"),
            Self::RoutingMismatch { vnode, detail } => {
                write!(f, "routing mismatch at {vnode}: {detail}")
            }
            Self::TotalNotPowerOfTwo { gid, total } => {
                write!(f, "G2' violated in {gid}: P_g = {total} is not a power of two")
            }
            Self::WrongLevel { gid, vnode, expected, found } => write!(
                f,
                "G3' violated in {gid}: {vnode} holds a level-{found} partition, expected {expected}"
            ),
            Self::CountOutOfBounds { vnode, count, bounds } => write!(
                f,
                "G4' violated: {vnode} holds {count} partitions, outside [{}, {}]",
                bounds.0, bounds.1
            ),
            Self::PowerOfTwoNotUniform { gid, members } => write!(
                f,
                "G5' violated in {gid}: {members} members (a power of two) but counts not all Pmin"
            ),
            Self::GroupSizeOutOfBounds { gid, members, bounds } => write!(
                f,
                "L2 violated: {gid} has {members} members, outside [{}, {}]",
                bounds.0, bounds.1
            ),
            Self::MembershipMismatch { vnode, detail } => {
                write!(f, "L1 violated at {vnode}: {detail}")
            }
            Self::GroupIdsNotPrefixFree { ancestor, descendant } => {
                write!(f, "group ids not prefix-free: {ancestor} is an ancestor of {descendant}")
            }
            Self::GroupQuotaDrift { gid, detail } => {
                write!(f, "group quota law violated in {gid}: {detail}")
            }
            Self::AccumulatorDrift { gid, detail } => {
                write!(f, "accumulator drift in {gid}: {detail}")
            }
            Self::LedgerDrift { detail } => write!(f, "snode ledger drift: {detail}"),
            Self::QuotaSumNotOne { found } => write!(f, "vnode quotas sum to {found}, not 1"),
            Self::SpreadTooWide { gid, min_max } => write!(
                f,
                "count spread in {gid} exceeds 1: min {} max {}",
                min_max.0, min_max.1
            ),
        }
    }
}

impl std::error::Error for InvariantViolation {}

/// Runs the full invariant suite over engine internals.
///
/// `groups` is the group arena (dead slots included — they are skipped);
/// `group_laws` ([`crate::local::RegionPolicy::GROUP_LAWS`]) says whether
/// L2, the quota law and prefix-freeness bind (the global approach's one
/// region is not a paper "group").
pub fn check(
    cfg: &DhtConfig,
    vs: &VnodeStore,
    groups: &[GroupState],
    routing: &OwnerMap<VnodeId>,
    ledger: &SnodeLedger,
    group_laws: bool,
) -> Result<(), InvariantViolation> {
    let live: Vec<&GroupState> = groups.iter().filter(|g| g.alive).collect();

    // An empty DHT (no vnodes ever created) is trivially healthy; the
    // coverage invariant only binds once R_h has an owner.
    if vs.alive_count() == 0 {
        return if routing.is_empty() {
            Ok(())
        } else {
            Err(InvariantViolation::Coverage("routing entries without live vnodes".into()))
        };
    }

    // --- G1/G1': exact tiling of R_h.
    routing.verify_coverage().map_err(|e| InvariantViolation::Coverage(e.to_string()))?;

    // --- The routing map's owner index agrees with its entries.
    routing.verify_index().map_err(|e| InvariantViolation::Coverage(e.to_string()))?;

    // --- Every routed partition is held by a live vnode: the live counts
    //     sum to the routed total.
    let held: u64 = vs.iter_alive().map(|v| count(routing, v)).sum();
    if held != routing.len() as u64 {
        let (p, &vnode) = routing
            .iter()
            .find(|(_, o)| !vs.is_alive(**o))
            .expect("a partition the live vnodes do not hold has a dead owner");
        return Err(InvariantViolation::RoutingMismatch {
            vnode,
            detail: format!(
                "partition {p} routed to a dead vnode ({held} of {} held)",
                routing.len()
            ),
        });
    }

    // --- L1 structural: each live vnode in exactly one live group, with a
    //     consistent back-pointer.
    let mut seen = vec![0u32; vs.capacity()];
    for (slot, g) in groups.iter().enumerate() {
        if !g.alive {
            continue;
        }
        for &m in &g.members {
            if !vs.is_alive(m) {
                return Err(InvariantViolation::MembershipMismatch {
                    vnode: m,
                    detail: format!("dead vnode listed in {}", g.gid),
                });
            }
            seen[m.index()] += 1;
            if vs.get(m).group != slot as u32 {
                return Err(InvariantViolation::MembershipMismatch {
                    vnode: m,
                    detail: format!("back-pointer {} but listed in slot {slot}", vs.get(m).group),
                });
            }
        }
    }
    for v in vs.iter_alive() {
        if seen[v.index()] != 1 {
            return Err(InvariantViolation::MembershipMismatch {
                vnode: v,
                detail: format!("member of {} groups", seen[v.index()]),
            });
        }
    }

    // --- Per-group invariants.
    for g in &live {
        // G3': every partition at the group's level — every block of a
        //      member's holdings sits at or above it and stands for its
        //      descendants at it. (`verify_index` checked that the blocks
        //      tile the member's entries and weigh its count.)
        for &m in &g.members {
            for (p, depth) in routing.holdings(&m) {
                if p.level() + depth != g.level {
                    return Err(InvariantViolation::WrongLevel {
                        gid: g.gid,
                        vnode: m,
                        expected: g.level,
                        found: p.level() + depth,
                    });
                }
            }
        }
        // G4': counts within [Pmin, Pmax] (trivially relaxed for a
        // single-vnode DHT, where V = 1 forces Pv = Pmin anyway).
        for &m in &g.members {
            let c = count(routing, m);
            if c < cfg.pmin || c > cfg.pmax() {
                return Err(InvariantViolation::CountOutOfBounds {
                    vnode: m,
                    count: c,
                    bounds: (cfg.pmin, cfg.pmax()),
                });
            }
        }
        // G2': P_g a power of two.
        let total: u64 = g.members.iter().map(|&m| count(routing, m)).sum();
        if !is_power_of_two(total) {
            return Err(InvariantViolation::TotalNotPowerOfTwo { gid: g.gid, total });
        }
        // G5': power-of-two member count ⇒ all counts = Pmin.
        if is_power_of_two(g.members.len() as u64)
            && g.members.iter().any(|&m| count(routing, m) != cfg.pmin)
        {
            return Err(InvariantViolation::PowerOfTwoNotUniform {
                gid: g.gid,
                members: g.members.len(),
            });
        }
        // Spread theorem: counts within the region differ by at most 1.
        let min = g.members.iter().map(|&m| count(routing, m)).min().unwrap_or(0);
        let max = g.members.iter().map(|&m| count(routing, m)).max().unwrap_or(0);
        if max - min > 1 {
            return Err(InvariantViolation::SpreadTooWide { gid: g.gid, min_max: (min, max) });
        }
        // Accumulators.
        let sum: u64 = total;
        let sumsq: u64 = g.members.iter().map(|&m| count(routing, m).pow(2)).sum();
        if g.sum != sum || g.sumsq != sumsq {
            return Err(InvariantViolation::AccumulatorDrift {
                gid: g.gid,
                detail: format!(
                    "stored (Σ={}, Σ²={}) recomputed (Σ={sum}, Σ²={sumsq})",
                    g.sum, g.sumsq
                ),
            });
        }
        // Count histogram.
        let mut hist: Vec<u32> = Vec::new();
        for &m in &g.members {
            let c = count(routing, m) as usize;
            if hist.len() <= c {
                hist.resize(c + 1, 0);
            }
            hist[c] += 1;
        }
        let stored_trim = g.hist.iter().rposition(|&n| n > 0).map(|i| &g.hist[..=i]).unwrap_or(&[]);
        let fresh_trim = hist.iter().rposition(|&n| n > 0).map(|i| &hist[..=i]).unwrap_or(&[]);
        if stored_trim != fresh_trim {
            return Err(InvariantViolation::AccumulatorDrift {
                gid: g.gid,
                detail: format!("histogram stored {stored_trim:?} recomputed {fresh_trim:?}"),
            });
        }
        // L2 and the quota law are local-approach specific.
        if group_laws {
            let (vmin, vmax) = (cfg.vmin, cfg.vmax());
            let n = g.members.len() as u64;
            let exempt_first_group = live.len() == 1 && g.gid == GroupId::FIRST;
            if exempt_first_group {
                // §3.7: "1 ≤ V0 ≤ Vmax … the sole exception to invariant L2".
                if n == 0 || n > vmax {
                    return Err(InvariantViolation::GroupSizeOutOfBounds {
                        gid: g.gid,
                        members: g.members.len(),
                        bounds: (1, vmax),
                    });
                }
            } else if n < vmin || n > vmax {
                return Err(InvariantViolation::GroupSizeOutOfBounds {
                    gid: g.gid,
                    members: g.members.len(),
                    bounds: (vmin, vmax),
                });
            }
            // Quota law: Q_g = 2^-(len(gid)-1), i.e. P_g · 2^depth = 2^level.
            let depth = g.gid.depth_quota_log2();
            let lhs = (total as u128) << depth;
            if g.level > 127 || lhs != (1u128 << g.level) {
                return Err(InvariantViolation::GroupQuotaDrift {
                    gid: g.gid,
                    detail: format!(
                        "P_g = {total}, depth = {depth}, level = {} (expected P_g·2^depth = 2^level)",
                        g.level
                    ),
                });
            }
        }
    }

    // --- Prefix-freeness of live group ids.
    if group_laws {
        for a in &live {
            for b in &live {
                if a.gid != b.gid && a.gid.is_ancestor_of(&b.gid) {
                    return Err(InvariantViolation::GroupIdsNotPrefixFree {
                        ancestor: a.gid,
                        descendant: b.gid,
                    });
                }
            }
        }
    }

    // --- Exact quota sum: Σ_v Qv = 1.
    if vs.alive_count() > 0 {
        let mut sum = Quota::ZERO;
        for g in &live {
            // Members' quotas: count / 2^level each.
            let counts: u64 = g.members.iter().map(|&m| count(routing, m)).sum();
            sum = sum + Quota::of_partitions(counts, g.level);
        }
        if !sum.is_one() {
            return Err(InvariantViolation::QuotaSumNotOne { found: sum.to_string() });
        }
    }

    // --- The incremental snode ledger matches a per-vnode recomputation:
    //     each snode's quota, and its handle list as a creation-order
    //     filter of the live vnodes.
    let mut fresh: BTreeMap<SnodeId, (Quota, Vec<VnodeId>)> = BTreeMap::new();
    for v in vs.iter_alive() {
        let state = vs.get(v);
        let e = fresh.entry(state.name.snode).or_insert((Quota::ZERO, Vec::new()));
        e.0 = e.0 + Quota::of_partitions(count(routing, v), groups[state.group as usize].level);
        e.1.push(v);
    }
    if ledger.snode_count() != fresh.len() {
        return Err(InvariantViolation::LedgerDrift {
            detail: format!("{} snodes ledgered, {} found", ledger.snode_count(), fresh.len()),
        });
    }
    for (s, share) in ledger.iter() {
        match fresh.get(&s) {
            Some((q, vnodes)) if *q == share.quota && *vnodes == share.vnodes => {}
            found => {
                return Err(InvariantViolation::LedgerDrift {
                    detail: format!("snode {s}: ledgered {share:?}, recomputed {found:?}"),
                });
            }
        }
    }
    if !ledger.total().is_one() {
        return Err(InvariantViolation::LedgerDrift {
            detail: format!("shares total {} ≠ 1", ledger.total()),
        });
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DhtEngine;
    use crate::local::LocalDht;
    use crate::sink::NullSink;
    use domus_hashspace::HashSpace;

    #[test]
    fn a_partition_stranded_on_a_removed_vnode_is_a_routing_mismatch() {
        let cfg = DhtConfig::new(HashSpace::new(32), 4, 2).unwrap();
        let mut dht = LocalDht::with_seed(cfg, 3);
        for s in 0..6 {
            dht.create_vnode_with(SnodeId(s), &mut NullSink).unwrap();
        }
        let gone = dht.vnodes()[2];
        dht.remove_vnode_with(gone, &mut NullSink).unwrap();
        dht.check_invariants().unwrap();

        let (p, _) = dht.lookup(0).unwrap();
        dht.routing.transfer(p, gone).unwrap();
        match dht.check_invariants() {
            Err(InvariantViolation::RoutingMismatch { vnode, .. }) => assert_eq!(vnode, gone),
            other => panic!("expected a routing mismatch, got {other:?}"),
        }
    }
}
