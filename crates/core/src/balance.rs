//! The balancement kernel shared by both approaches.
//!
//! This module implements the paper's creation algorithm (§2.5) and its
//! supporting cascades over one *region* (= the whole DHT for the global
//! approach, one group for the local approach):
//!
//! * [`seed_first`] — the first vnode of a DHT receives all `Pmin`
//!   partitions of the initial splitlevel `log2(Pmin)` (invariant G5 with
//!   `V = 1`).
//! * [`split_all`] — the split cascade: "all the older vnodes binary split
//!   their own partitions, doubling its number to `Pv = Pmax`" (§2.5). Runs
//!   when every member holds exactly `Pmin` partitions — which, by G5/G5',
//!   is exactly when the member count is a power of two.
//! * [`greedy_add`] — steps 1–4 of the printed algorithm: repeatedly take
//!   one partition from the most-loaded vnode and give it to the new vnode
//!   while that strictly decreases `σ(Pv)`.
//! * [`greedy_remove`] / [`merge_all`] / [`rebalance_spread`] — the inverse
//!   operations used by the deletion extension (the paper admits deletion,
//!   §1 and §2.1.3, but details only creation).
//!
//! ## The O(1) σ-decrease test
//!
//! Step 4 of the paper's algorithm re-evaluates `σ(Pv, P̄v)` after a
//! hypothetical move. Moving one partition from a donor with count `m` to
//! the new vnode with count `c` changes `Σ(Pv − P̄)²` by
//! `((m−1)−P̄)² − (m−P̄)² + ((c+1)−P̄)² − (c−P̄)² = 2(c − m + 1)`
//! (the mean `P̄` is unchanged). The move strictly decreases σ iff this is
//! negative, i.e. **iff `c + 1 < m`**. `greedy_add` uses that test; the
//! equivalence is cross-checked against a literal σ recomputation in the
//! tests (and the ablation ABL-VICTIM exercises both phrasings).
//!
//! ## Why the greedy respects G4
//!
//! The donor is always a current maximum. The mean count during an addition
//! is `P_g/(V_g+1) ≥ Pmin`: if the cascade ran, `P_g = 2·V_g·Pmin` and
//! `2·V_g ≥ V_g + 1`; if it did not, some member held `> Pmin`, and since
//! every member held `≥ Pmin` with `P_g` a power of two, `P_g ≥ (V_g+1)·Pmin`
//! already. A maximum can only be drained to `⌈mean⌉ − 1 ≥ Pmin` before the
//! stop test fires, so no donor ever drops below `Pmin`, and the new vnode
//! stops at `≤ ⌈mean⌉ ≤ Pmax`. Debug assertions enforce both bounds.

use crate::config::{DhtConfig, VictimPartitionPolicy};
use crate::engine::Transfer;
use crate::errors::DhtError;
use crate::ids::VnodeId;
use crate::sink::LedgeredSink;
use crate::state::{count, GroupState, VnodeStore};
use domus_hashspace::{OwnerMap, Partition};
use domus_util::DomusRng;

/// Hands one of `donor`'s holdings, picked per policy, to `recv`, and
/// emits the transfer (which also streams the ledger move).
fn move_one<R: DomusRng>(
    vs: &VnodeStore,
    routing: &mut OwnerMap<VnodeId>,
    donor: VnodeId,
    recv: VnodeId,
    policy: VictimPartitionPolicy,
    rng: &mut R,
    sink: &mut LedgeredSink<'_>,
) {
    let held = count(routing, donor) as usize;
    let at = match policy {
        VictimPartitionPolicy::Random => rng.index(held),
        VictimPartitionPolicy::Last => held - 1,
        VictimPartitionPolicy::First => 0,
    };
    let p = routing.nth_holding(&donor, at).expect("the pick lies within the donor's count");
    // `First` is FIFO, so the donor's later holdings shift up one place;
    // the other policies fill the hole with its last partition.
    let moved = if policy == VictimPartitionPolicy::First {
        routing.transfer_shifting(p, recv)
    } else {
        routing.transfer(p, recv)
    };
    moved.expect("donor's partition must be routed to it");
    sink.transfer(
        Transfer { partition: p, from: donor, to: recv },
        vs.get(donor).name.snode,
        vs.get(recv).name.snode,
    );
}

/// Seeds the first vnode of a DHT: all `Pmin` partitions of splitlevel
/// `log2(Pmin)`, covering `R_h` exactly.
///
/// # Panics
/// Panics if the region already has members or the routing map is not empty.
pub fn seed_first(
    routing: &mut OwnerMap<VnodeId>,
    region: &mut GroupState,
    v: VnodeId,
    cfg: &DhtConfig,
) {
    assert!(region.is_empty(), "seed_first on a non-empty region");
    assert!(routing.is_empty(), "seed_first on a non-empty routing map");
    let level = cfg.initial_level();
    region.level = level;
    region.birth_level = level;
    for p in Partition::all_at_level(level) {
        routing.insert(p, v).expect("tiling a fresh map cannot overlap");
    }
    region.admit(v, cfg.pmin);
}

/// `true` iff every member of the region holds exactly `Pmin` partitions —
/// the split-cascade trigger (equivalently, by G5/G5': the member count is
/// a power of two).
pub fn all_at_pmin(region: &GroupState, cfg: &DhtConfig) -> bool {
    // O(1) via the accumulators: all counts equal Pmin ⟺ Σ = V·Pmin and
    // Σ² = V·Pmin² (equal-sum with equal-sum-of-squares forces equality).
    let v = region.members.len() as u64;
    v > 0 && region.sum == v * cfg.pmin && region.sumsq == v * cfg.pmin * cfg.pmin
}

/// `true` iff every member of the region holds exactly `Pmax` partitions —
/// the merge-cascade trigger after a removal's redistribution. O(1), by
/// the same accumulator argument as [`all_at_pmin`].
pub fn all_at_pmax(region: &GroupState, cfg: &DhtConfig) -> bool {
    let v = region.members.len() as u64;
    let pmax = cfg.pmax();
    v > 0 && region.sum == v * pmax && region.sumsq == v * pmax * pmax
}

/// The split cascade: binary-splits every partition of the region, doubling
/// every member's count from `Pmin` to `Pmax` (§2.5). Returns the number of
/// partitions split.
///
/// A split changes no owner, so the cascade is one level raise per member
/// — `O(V_g)`, whatever the partition count: each routing entry comes to
/// stand for its two halves, and only a later transfer cuts one out.
pub fn split_all(
    routing: &mut OwnerMap<VnodeId>,
    region: &mut GroupState,
) -> Result<u64, DhtError> {
    let space = routing.space();
    if region.level >= space.bits() {
        return Err(DhtError::LevelOverflow { level: region.level, bits: space.bits() });
    }
    for m in &region.members {
        routing.raise(m);
    }
    let split_count = region.sum;
    region.account_split_all();
    Ok(split_count)
}

/// Steps 1–4 of the paper's creation algorithm: `new` (already admitted to
/// the region with zero partitions) receives partitions one at a time from
/// the most-loaded member while `σ(Pv)` strictly decreases. Every handover
/// streams through `sink`.
///
/// Ties among equally-loaded donors are broken LIFO over admission order
/// (the paper's step-3 sort leaves ties unspecified).
pub fn greedy_add<R: DomusRng>(
    vs: &VnodeStore,
    routing: &mut OwnerMap<VnodeId>,
    region: &mut GroupState,
    new: VnodeId,
    cfg: &DhtConfig,
    rng: &mut R,
    sink: &mut LedgeredSink<'_>,
) {
    debug_assert_eq!(count(routing, new), 0, "greedy_add expects a fresh vnode");
    debug_assert!(region.members.contains(&new), "new vnode must be admitted first");

    // Bucket queue over partition counts: donors only ever step down one
    // bucket, so a single downward cursor visits each maximum in O(1).
    let max_count = region.members.iter().map(|&m| count(routing, m)).max().unwrap_or(0) as usize;
    let mut buckets: Vec<Vec<VnodeId>> = vec![Vec::new(); max_count + 1];
    for &m in &region.members {
        if m != new {
            buckets[count(routing, m) as usize].push(m);
        }
    }
    let mut cur = max_count;
    let mut new_count = 0u64;
    loop {
        while cur > 0 && buckets[cur].is_empty() {
            cur -= 1;
        }
        if cur == 0 {
            break; // no donor holds a partition (single-member region)
        }
        // The σ-decrease test: move helps iff new_count + 1 < donor count.
        if new_count + 1 >= cur as u64 {
            break;
        }
        let donor = buckets[cur].pop().expect("cursor sits on a non-empty bucket");
        debug_assert!(
            cur as u64 > cfg.pmin,
            "greedy would drag a donor below Pmin: donor at {cur}, Pmin {}",
            cfg.pmin
        );
        move_one(vs, routing, donor, new, cfg.victim_partition, rng, sink);
        region.account_move(cur as u64, new_count);
        buckets[cur - 1].push(donor);
        new_count += 1;
    }
    debug_assert!(
        new_count <= cfg.pmax(),
        "new vnode overfilled: {new_count} > Pmax {}",
        cfg.pmax()
    );
}

/// Inverse of [`greedy_add`]: drains every partition of `victim` to the
/// least-loaded remaining members (each move is the σ-minimising choice),
/// then expels the victim from the region.
///
/// The caller guarantees at least one other member exists, and the
/// remaining members can absorb everything within `Pmax` by the
/// power-of-two capacity argument: `P_g/Pmin` is a power of two in
/// `[V_g, 2·V_g)` (all members at `Pmax` would make `V_g` a power of two,
/// which G5' forbids), so `P_g ≤ (V_g − 1)·Pmax`.
pub fn greedy_remove<R: DomusRng>(
    vs: &VnodeStore,
    routing: &mut OwnerMap<VnodeId>,
    region: &mut GroupState,
    victim: VnodeId,
    cfg: &DhtConfig,
    rng: &mut R,
    sink: &mut LedgeredSink<'_>,
) {
    debug_assert!(region.members.len() >= 2, "greedy_remove needs a surviving member");
    let victim_count = count(routing, victim);
    region.expel(victim, victim_count);

    let max_possible = cfg.pmax() as usize + 1;
    let mut buckets: Vec<Vec<VnodeId>> = vec![Vec::new(); max_possible + 1];
    let mut cur = usize::MAX;
    for &m in &region.members {
        let c = count(routing, m) as usize;
        debug_assert!(c <= max_possible);
        buckets[c].push(m);
        cur = cur.min(c);
    }
    for _ in 0..victim_count {
        while buckets[cur].is_empty() {
            cur += 1;
        }
        let recv = buckets[cur].pop().expect("cursor sits on a non-empty bucket");
        move_one(vs, routing, victim, recv, cfg.victim_partition, rng, sink);
        region.account_gain(cur as u64);
        debug_assert!(
            (cur as u64) < cfg.pmax(),
            "redistribution overflowed Pmax — capacity argument violated"
        );
        buckets[cur + 1].push(recv);
    }
}

/// Error from [`merge_all`]: the region's partition set is not closed under
/// siblings at the current level, so a binary merge is impossible. Merges
/// only run above a region's birth level, where its partitions came from
/// its own binary splits, so this is unreachable from any legal operation
/// sequence; it exists to fail loudly instead of corrupting state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotSiblingClosed {
    /// A parent index with only one present child.
    pub parent_index: u64,
}

/// The merge cascade (inverse of [`split_all`]): re-pairs sibling
/// partitions onto common owners with the fewest possible transfers
/// (streamed through `sink`), then binary-merges every pair, halving
/// every member's count. Returns the number of pairs merged.
///
/// A holding that stands for two or more partitions (a block of the owner
/// index) holds whole sibling pairs of one owner, so only the blocks of
/// weight one — the *fine* partitions — are gathered, paired and possibly
/// moved; each member's level lower then merges its pairs. The cost is
/// `O(V_g)` plus the fine partitions, not the region's partition count.
///
/// Precondition: every member's count is even (callers invoke this at the
/// all-`Pmax` state) and the region sits above its birth level.
pub fn merge_all<R: DomusRng>(
    vs: &VnodeStore,
    routing: &mut OwnerMap<VnodeId>,
    region: &mut GroupState,
    _cfg: &DhtConfig,
    _rng: &mut R,
    sink: &mut LedgeredSink<'_>,
) -> Result<u64, NotSiblingClosed> {
    // Note on the closure floor: a region created by a membership split is
    // only guaranteed sibling-closed above the level it was born at
    // (`birth_level`). The capacity arithmetic in the module docs shows
    // every *required* merge happens above that floor; the structural
    // validation below is the authoritative guard.
    //
    // Capacity: each member keeps count/2 parents, less the pairs its
    // coarser blocks already hold. Sorted by handle so the any-member
    // fallback scan below is deterministic.
    let mut fine: Vec<(Partition, VnodeId)> = Vec::new();
    let mut capacity: Vec<(VnodeId, u64)> = Vec::with_capacity(region.members.len());
    for &m in &region.members {
        let c = count(routing, m);
        debug_assert!(c % 2 == 0, "merge_all requires even counts, {m} has {c}");
        let mut cap = c / 2;
        for (p, depth) in routing.holdings(&m) {
            if depth == 0 {
                fine.push((p, m));
            } else {
                cap -= 1 << (depth - 1);
            }
        }
        capacity.push((m, cap));
    }
    capacity.sort_unstable_by_key(|&(m, _)| m);
    let cap_slot = |capacity: &[(VnodeId, u64)], m: VnodeId| -> usize {
        capacity.binary_search_by_key(&m, |&(v, _)| v).expect("member has a capacity slot")
    };
    // Fine partitions share the region's level, so index order puts
    // siblings side by side, left child first, and the pairs in hash-space
    // order. The set is sibling-closed iff each left child is followed by
    // its sibling.
    fine.sort_unstable_by_key(|&(p, _)| p.index());
    for pair in fine.chunks(2) {
        if pair.len() < 2 || pair[0].0.index() >> 1 != pair[1].0.index() >> 1 {
            return Err(NotSiblingClosed { parent_index: pair[0].0.index() >> 1 });
        }
    }

    // Assignment passes over the fine pairs (the pairs inside coarser
    // blocks are already counted out of the capacities): (1) both children same
    // owner → free; (2) one child's owner has capacity → one transfer;
    // (3) any member with capacity → two transfers.
    let mut assignment: Vec<Option<VnodeId>> = vec![None; fine.len() / 2];
    for (i, pair) in fine.chunks_exact(2).enumerate() {
        let (a, b) = (pair[0].1, pair[1].1);
        if a == b {
            assignment[i] = Some(a);
            let slot = cap_slot(&capacity, a);
            capacity[slot].1 -= 1;
        }
    }
    for (i, pair) in fine.chunks_exact(2).enumerate() {
        if assignment[i].is_some() {
            continue;
        }
        let (a, b) = (pair[0].1, pair[1].1);
        let sa = cap_slot(&capacity, a);
        if capacity[sa].1 > 0 {
            assignment[i] = Some(a);
            capacity[sa].1 -= 1;
        } else {
            let sb = cap_slot(&capacity, b);
            if capacity[sb].1 > 0 {
                assignment[i] = Some(b);
                capacity[sb].1 -= 1;
            }
        }
    }
    for slot in assignment.iter_mut().filter(|a| a.is_none()) {
        let any = capacity
            .iter_mut()
            .find(|(_, cap)| *cap > 0)
            .expect("total capacity equals total parents");
        *slot = Some(any.0);
        any.1 -= 1;
    }

    // Apply: route both children to the assignee and record the moves.
    // The lowers below sort every member's holdings into hash-space order,
    // so the donors' order in between is immaterial.
    for (pair, owner) in fine.chunks_exact(2).zip(assignment) {
        let owner = owner.expect("every pair was assigned");
        for &(p, old_owner) in pair {
            if old_owner != owner {
                routing.transfer_shifting(p, owner).expect("child partition is routed");
                sink.transfer(
                    Transfer { partition: p, from: old_owner, to: owner },
                    vs.get(old_owner).name.snode,
                    vs.get(owner).name.snode,
                );
            }
        }
    }
    for m in &region.members {
        routing.lower(m).expect("every fine partition sits beside its sibling");
    }
    let pairs = region.sum / 2;
    region.account_merge_all();
    Ok(pairs)
}

/// Moves partitions from maxima to minima until the region's counts differ
/// by at most one (each move strictly decreases σ), streaming every move
/// through `sink`. Used after a group merge (deletion extension) to
/// re-legalise counts.
pub fn rebalance_spread<R: DomusRng>(
    vs: &VnodeStore,
    routing: &mut OwnerMap<VnodeId>,
    region: &mut GroupState,
    cfg: &DhtConfig,
    rng: &mut R,
    sink: &mut LedgeredSink<'_>,
) {
    // Each move from a current maximum to a current minimum strictly
    // reduces Σ(Pv)², so this terminates; the group-merge path that calls
    // this is rare enough that the O(V_g) scan per move is irrelevant.
    loop {
        let (mut cmin, mut vmin, mut cmax, mut vmax) = (u64::MAX, None, 0u64, None);
        for &m in &region.members {
            let c = count(routing, m);
            if c < cmin {
                cmin = c;
                vmin = Some(m);
            }
            if c > cmax {
                cmax = c;
                vmax = Some(m);
            }
        }
        if cmax.saturating_sub(cmin) <= 1 {
            break;
        }
        let (vmin, vmax) = (vmin.expect("non-empty"), vmax.expect("non-empty"));
        move_one(vs, routing, vmax, vmin, cfg.victim_partition, rng, sink);
        region.account_move(cmax, cmin);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DhtEngine;
    use crate::group_id::GroupId;
    use crate::ledger::SnodeLedger;
    use crate::local::BalancedDht;
    use crate::sink::{CollectReport, NullSink};
    use domus_hashspace::{HashSpace, Quota};
    use domus_util::Xoshiro256pp;

    fn setup(pmin: u64) -> (VnodeStore, OwnerMap<VnodeId>, GroupState, DhtConfig, Xoshiro256pp) {
        let cfg = DhtConfig::new(HashSpace::new(16), pmin, 1).unwrap();
        let vs = VnodeStore::new();
        let routing = OwnerMap::new(cfg.hash_space());
        let region = GroupState::new(GroupId::FIRST, cfg.initial_level());
        (vs, routing, region, cfg, Xoshiro256pp::seed_from_u64(1))
    }

    /// A fresh vnode on snode `s` in group slot `group` (names are not
    /// under test here).
    fn vnode(vs: &mut VnodeStore, s: u32, group: u32) -> VnodeId {
        vs.create(crate::ids::CanonicalName { snode: crate::ids::SnodeId(s), local: 0 }, group)
    }

    /// A ledger seeded from the region's current distribution, so the
    /// streamed moves have registered snodes to debit and credit.
    fn seeded_ledger(
        vs: &VnodeStore,
        routing: &OwnerMap<VnodeId>,
        region: &GroupState,
    ) -> SnodeLedger {
        let mut l = SnodeLedger::new();
        for &m in &region.members {
            let s = vs.get(m).name.snode;
            l.vnode_created(s, m);
            if count(routing, m) > 0 {
                l.gain(s, Quota::new(count(routing, m) as u128, region.level));
            }
        }
        l
    }

    #[test]
    fn seed_first_tiles_the_space_with_pmin_partitions() {
        let (mut vs, mut routing, mut region, cfg, _) = setup(8);
        let v = vnode(&mut vs, 0, 0);
        seed_first(&mut routing, &mut region, v, &cfg);
        assert_eq!(count(&routing, v), 8);
        assert_eq!(region.level, 3);
        assert_eq!(region.sum, 8);
        routing.verify_coverage().unwrap();
    }

    #[test]
    fn split_all_doubles_counts_and_advances_level() {
        let (mut vs, mut routing, mut region, cfg, _) = setup(4);
        let v = vnode(&mut vs, 0, 0);
        seed_first(&mut routing, &mut region, v, &cfg);
        let splits = split_all(&mut routing, &mut region).unwrap();
        assert_eq!(splits, 4);
        assert_eq!(count(&routing, v), 8);
        assert_eq!(region.level, 3);
        routing.verify_coverage().unwrap();
        // The halves sit side by side in the owner's holdings.
        let halves: Vec<Partition> = Partition::all_at_level(2)
            .flat_map(|p| {
                let (a, b) = p.split();
                [a, b]
            })
            .collect();
        let held: Vec<Partition> =
            routing.holdings(&v).flat_map(|(p, depth)| p.descendants(depth)).collect();
        assert_eq!(held, halves);
    }

    #[test]
    fn split_all_errors_at_space_resolution() {
        let cfg = DhtConfig::new(HashSpace::new(4), 16, 1).unwrap();
        let mut vs = VnodeStore::new();
        let mut routing = OwnerMap::new(cfg.hash_space());
        let mut region = GroupState::new(GroupId::FIRST, cfg.initial_level());
        let v = vnode(&mut vs, 0, 0);
        seed_first(&mut routing, &mut region, v, &cfg);
        // Level 4 on a 4-bit space: no further splits possible.
        assert!(matches!(
            split_all(&mut routing, &mut region),
            Err(DhtError::LevelOverflow { .. })
        ));
    }

    #[test]
    fn greedy_add_stops_at_spread_one() {
        let (mut vs, mut routing, mut region, cfg, mut rng) = setup(4);
        let a = vnode(&mut vs, 0, 0);
        seed_first(&mut routing, &mut region, a, &cfg);
        split_all(&mut routing, &mut region).unwrap();
        let b = vnode(&mut vs, 1, 0);
        region.admit(b, 0);
        let mut ledger = seeded_ledger(&vs, &routing, &region);
        let mut collect = CollectReport::new();
        {
            let mut sink = LedgeredSink::new(&mut collect, &mut ledger);
            greedy_add(&vs, &mut routing, &mut region, b, &cfg, &mut rng, &mut sink);
        }
        let transfers = collect.transfers();
        assert_eq!(transfers.len(), 4, "[8,0] → [4,4]");
        assert_eq!(count(&routing, a), 4);
        assert_eq!(count(&routing, b), 4);
        assert!(transfers.iter().all(|t| t.from == a && t.to == b));
        assert!(ledger.total().is_one(), "streamed ledger moves conserve quota");
        assert_eq!(ledger.relstd_pct(), 0.0, "[4,4] over two snodes is perfectly even");
        routing.verify_coverage().unwrap();
    }

    #[test]
    fn all_at_pmin_uses_accumulators_correctly() {
        let (mut vs, mut routing, mut region, cfg, mut rng) = setup(4);
        let a = vnode(&mut vs, 0, 0);
        seed_first(&mut routing, &mut region, a, &cfg);
        assert!(all_at_pmin(&region, &cfg));
        split_all(&mut routing, &mut region).unwrap();
        assert!(!all_at_pmin(&region, &cfg), "counts are at Pmax now");
        let b = vnode(&mut vs, 1, 0);
        region.admit(b, 0);
        let mut ledger = seeded_ledger(&vs, &routing, &region);
        let mut null = NullSink;
        let mut sink = LedgeredSink::new(&mut null, &mut ledger);
        greedy_add(&vs, &mut routing, &mut region, b, &cfg, &mut rng, &mut sink);
        drop(sink);
        assert!(all_at_pmin(&region, &cfg), "[4,4] is all-at-Pmin again");
    }

    #[test]
    fn greedy_remove_then_merge_all_restores_seed_state() {
        let (mut vs, mut routing, mut region, cfg, mut rng) = setup(4);
        let a = vnode(&mut vs, 0, 0);
        seed_first(&mut routing, &mut region, a, &cfg);
        split_all(&mut routing, &mut region).unwrap();
        let b = vnode(&mut vs, 1, 0);
        region.admit(b, 0);
        let mut ledger = seeded_ledger(&vs, &routing, &region);
        let mut collect = CollectReport::new();
        {
            let mut sink = LedgeredSink::new(&mut collect, &mut ledger);
            greedy_add(&vs, &mut routing, &mut region, b, &cfg, &mut rng, &mut sink);
        }
        collect.clear();
        // Remove b: a absorbs everything → all at Pmax → merge cascade.
        {
            let mut sink = LedgeredSink::new(&mut collect, &mut ledger);
            greedy_remove(&vs, &mut routing, &mut region, b, &cfg, &mut rng, &mut sink);
        }
        assert_eq!(collect.transfers().len(), 4);
        vs.kill(b);
        assert_eq!(count(&routing, a), 8);
        collect.clear();
        let merges = {
            let mut sink = LedgeredSink::new(&mut collect, &mut ledger);
            merge_all(&vs, &mut routing, &mut region, &cfg, &mut rng, &mut sink).unwrap()
        };
        assert_eq!(merges, 4);
        assert!(collect.transfers().is_empty(), "single owner ⇒ all pairs co-located");
        assert_eq!(count(&routing, a), 4);
        assert_eq!(region.level, cfg.initial_level());
        assert!(ledger.total().is_one());
        routing.verify_coverage().unwrap();
    }

    #[test]
    fn merge_all_colocates_scattered_siblings() {
        // Hand-build a region where sibling partitions live on different
        // vnodes: merge_all must transfer to pair them up.
        let cfg = DhtConfig::new(HashSpace::new(8), 2, 1).unwrap();
        let mut vs = VnodeStore::new();
        let mut routing = OwnerMap::new(cfg.hash_space());
        let mut region = GroupState::new(GroupId::FIRST, 2);
        region.birth_level = 1;
        let a = vnode(&mut vs, 0, 0);
        let b = vnode(&mut vs, 1, 0);
        // Level-2 partitions 0..4: a gets {0, 2}, b gets {1, 3} — fully
        // interleaved, no co-located pair.
        for (i, owner) in [(0u64, a), (1, b), (2, a), (3, b)] {
            let p = Partition::new(2, i);
            routing.insert(p, owner).unwrap();
        }
        region.admit(a, 2);
        region.admit(b, 2);
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let mut ledger = seeded_ledger(&vs, &routing, &region);
        let mut collect = CollectReport::new();
        let merges = {
            let mut sink = LedgeredSink::new(&mut collect, &mut ledger);
            merge_all(&vs, &mut routing, &mut region, &cfg, &mut rng, &mut sink).unwrap()
        };
        assert_eq!(merges, 2);
        assert_eq!(collect.transfers().len(), 2, "each pair needs one co-location transfer");
        assert_eq!(count(&routing, a), 1);
        assert_eq!(count(&routing, b), 1);
        assert_eq!(region.level, 1);
        assert!(ledger.total().is_one(), "co-location moves conserve snode quota");
        routing.verify_coverage().unwrap();
    }

    #[test]
    fn merge_all_detects_unclosed_regions() {
        // A region holding only ONE child of a sibling pair cannot merge.
        let cfg = DhtConfig::new(HashSpace::new(8), 2, 1).unwrap();
        let mut vs = VnodeStore::new();
        let mut routing = OwnerMap::new(cfg.hash_space());
        let mut region = GroupState::new(GroupId::FIRST, 2);
        region.birth_level = 1;
        let a = vnode(&mut vs, 0, 0);
        // Partitions {0, 2}: siblings 1 and 3 are missing (owned by a
        // different region in a real structure). Pad coverage with a
        // stand-alone vnode outside the region so the map stays total.
        let outside = vnode(&mut vs, 9, 1);
        for (i, owner) in [(0u64, a), (1, outside), (2, a), (3, outside)] {
            let p = Partition::new(2, i);
            routing.insert(p, owner).unwrap();
        }
        region.admit(a, 2);
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        let mut ledger = seeded_ledger(&vs, &routing, &region);
        let mut null = NullSink;
        let mut sink = LedgeredSink::new(&mut null, &mut ledger);
        let err = merge_all(&vs, &mut routing, &mut region, &cfg, &mut rng, &mut sink).unwrap_err();
        assert!(matches!(err, NotSiblingClosed { .. }));
    }

    #[test]
    fn rebalance_spread_levels_any_distribution() {
        let cfg = DhtConfig::new(HashSpace::new(10), 2, 1).unwrap();
        let mut vs = VnodeStore::new();
        let mut routing = OwnerMap::new(cfg.hash_space());
        let mut region = GroupState::new(GroupId::FIRST, 4);
        // Three vnodes with counts 10 / 4 / 2 at level 4 (16 partitions).
        let vels = [
            (vnode(&mut vs, 0, 0), 0u64..10),
            (vnode(&mut vs, 1, 0), 10..14),
            (vnode(&mut vs, 2, 0), 14..16),
        ];
        for (v, range) in vels {
            for i in range.clone() {
                let p = Partition::new(4, i);
                routing.insert(p, v).unwrap();
            }
            region.admit(v, range.end - range.start);
        }
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let mut ledger = seeded_ledger(&vs, &routing, &region);
        {
            let mut null = NullSink;
            let mut sink = LedgeredSink::new(&mut null, &mut ledger);
            rebalance_spread(&vs, &mut routing, &mut region, &cfg, &mut rng, &mut sink);
        }
        let counts: Vec<u64> = region.members.iter().map(|&m| count(&routing, m)).collect();
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        assert!(max - min <= 1, "counts {counts:?}");
        assert_eq!(counts.iter().sum::<u64>(), 16);
        routing.verify_coverage().unwrap();
    }

    /// A 32-member region at `Pmin = 32` on level 10, each member holding
    /// every 32nd partition, one routing entry apiece.
    fn region_at_pmin() -> (VnodeStore, OwnerMap<VnodeId>, GroupState, DhtConfig) {
        let cfg = DhtConfig::new(HashSpace::new(16), 32, 1).unwrap();
        let mut vs = VnodeStore::new();
        let mut routing = OwnerMap::new(cfg.hash_space());
        let mut region = GroupState::new(GroupId::FIRST, 10);
        region.birth_level = cfg.initial_level();
        let members: Vec<VnodeId> = (0..32).map(|s| vnode(&mut vs, s, 0)).collect();
        for (i, p) in Partition::all_at_level(10).enumerate() {
            routing.insert(p, members[i % 32]).unwrap();
        }
        for &m in &members {
            region.admit(m, 32);
        }
        (vs, routing, region, cfg)
    }

    #[test]
    fn cascades_cost_members_not_partitions() {
        let (mut vs, mut routing, mut region, cfg) = region_at_pmin();
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        let entries = routing.entry_count();
        assert_eq!(entries, 1024);
        assert_eq!(split_all(&mut routing, &mut region).unwrap(), 1024);
        assert_eq!((routing.len(), routing.entry_count()), (2048, entries));
        // The merge cascade right after the split moves nothing and stores
        // nothing new.
        let mut ledger = seeded_ledger(&vs, &routing, &region);
        let mut collect = CollectReport::new();
        let pairs = {
            let mut sink = LedgeredSink::new(&mut collect, &mut ledger);
            merge_all(&vs, &mut routing, &mut region, &cfg, &mut rng, &mut sink).unwrap()
        };
        assert_eq!(pairs, 1024);
        assert!(collect.transfers().is_empty());
        assert_eq!((routing.len(), routing.entry_count()), (1024, entries));
        // A handover cuts its entry down to the partition it moves; the
        // hole's fill cuts only the index. One level deep, that is at most
        // one new entry per transfer.
        split_all(&mut routing, &mut region).unwrap();
        let new = vnode(&mut vs, 32, 0);
        region.admit(new, 0);
        let mut ledger = seeded_ledger(&vs, &routing, &region);
        {
            let mut sink = LedgeredSink::new(&mut collect, &mut ledger);
            greedy_add(&vs, &mut routing, &mut region, new, &cfg, &mut rng, &mut sink);
        }
        let moved = collect.transfers().len();
        assert!(moved > 0);
        assert!(routing.entry_count() <= entries + moved, "{} entries", routing.entry_count());
        routing.verify_coverage().unwrap();
        routing.verify_index().unwrap();
    }

    #[test]
    fn successor_walks_keep_their_owner_sequence_through_cascades() {
        let cfg = DhtConfig::new(HashSpace::new(32), 8, 1).unwrap();
        let mut dht = crate::global::GlobalDht::with_seed(cfg, 21);
        for s in 0..16 {
            dht.create_vnode_with(crate::ids::SnodeId(s % 5), &mut NullSink).unwrap();
        }
        let space = cfg.hash_space();
        let points: Vec<u64> =
            (0..256u64).map(|i| space.fold(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))).collect();
        // The distinct owners of the engine's walk, in first-visit order,
        // checked against the same walk over every partition.
        let distinct = |dht: &crate::global::GlobalDht| -> Vec<Vec<VnodeId>> {
            let all: Vec<(Partition, VnodeId)> = dht.routing.iter().map(|(p, &v)| (p, v)).collect();
            points
                .iter()
                .map(|&point| {
                    let mut walk = Vec::new();
                    dht.for_each_successor(point, &mut |v| {
                        if !walk.contains(&v) {
                            walk.push(v);
                        }
                        true
                    });
                    let first = all.iter().position(|(p, _)| p.contains(point, space)).unwrap();
                    let mut per_partition: Vec<VnodeId> = Vec::new();
                    for &(_, v) in all[first..].iter().chain(&all[..first]) {
                        if !per_partition.contains(&v) {
                            per_partition.push(v);
                        }
                    }
                    assert_eq!(walk, per_partition, "point {point}");
                    walk
                })
                .collect()
        };
        let before = distinct(&dht);
        let entries = dht.routing.entry_count();
        split_all(&mut dht.routing, &mut dht.groups[0]).unwrap();
        assert_eq!(distinct(&dht), before, "after the split cascade");
        let mut collect = CollectReport::new();
        {
            let BalancedDht { vs, groups, routing, ledger, rng, cfg, .. } = &mut dht;
            let mut sink = LedgeredSink::new(&mut collect, ledger);
            merge_all(vs, routing, &mut groups[0], cfg, rng, &mut sink).unwrap();
        }
        assert!(collect.transfers().is_empty());
        assert_eq!(distinct(&dht), before, "after the merge cascade");
        assert_eq!(dht.routing.entry_count(), entries);
        dht.check_invariants().unwrap();
    }
}
