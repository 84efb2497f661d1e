//! vnode deletion (extension), for both approaches.
//!
//! The paper's base model admits deletion ("cluster nodes may dynamically
//! join *or leave* the DHT", §1; partition counts fluctuate "during the
//! creation *or deletion* of vnodes", §2.1.3) but this paper only details
//! creation. This module implements the inverse operations such that every
//! invariant of §2.2/§3.3 — including the derived spread-≤-1 theorem —
//! still holds after every removal. Policy, in order of preference:
//!
//! 1. **Intra-group removal** (`V_g > Vmin`, or the single-group case —
//!    always, in the global approach's one region):
//!    drain the victim's partitions to the least-loaded members; if that
//!    saturates everyone at `Pmax` (which the power-of-two arithmetic shows
//!    happens exactly when the surviving count is a power of two), run the
//!    merge cascade back to `Pmin` — the exact inverse of §2.5's split
//!    cascade.
//! 2. **Sibling group merge** (`V_g = Vmin` and the trie sibling is a live
//!    leaf with `Vmin` members): re-fuse the two halves into their parent
//!    identifier. Trie siblings always carry equal quotas (`2^-depth`), so
//!    the merged partition total stays a power of two (G2'); levels are
//!    harmonised upward and counts re-levelled.
//! 3. **Internal vnode migration** (`V_g = Vmin`, sibling unavailable, but
//!    some group exceeds `Vmin`): move one vnode from the largest group
//!    into the victim's group (drained there as a removal would, admitted
//!    here as a creation would), restoring headroom; then case 1 applies.
//!    The vnode keeps its handle and canonical name: a vnode is
//!    `snode_id.vnode_id` for as long as it lives (§2.1, footnote 2).
//! 4. **Deepest-pair merge** (every group sits at exactly `Vmin`): merge
//!    the deepest leaf with its sibling — which the trie structure
//!    guarantees is also a leaf — producing a `Vmax` group that either
//!    contains the victim (case 1) or can donate a vnode (case 3).

use crate::balance;
use crate::engine::RemoveOutcome;
use crate::errors::DhtError;
use crate::group_id::GroupId;
use crate::ids::VnodeId;
use crate::local::{BalancedDht, RegionPolicy};
use crate::sink::{LedgeredSink, RebalanceEvent, RebalanceSink};
use crate::state::count;
use domus_util::DomusRng;

/// Entry point used by [`BalancedDht::remove_vnode_with`]. Every quota
/// motion (drain, cascades, migration) streams through `sink` in
/// chronological order, ledgered as it happens.
pub(crate) fn remove<P: RegionPolicy, R: DomusRng>(
    dht: &mut BalancedDht<P, R>,
    v: VnodeId,
    sink: &mut dyn RebalanceSink,
) -> Result<RemoveOutcome, DhtError> {
    dht.ensure_alive(v)?;
    if dht.vs.alive_count() == 1 {
        return Err(DhtError::LastVnode);
    }
    let snode = dht.vs.get(v).name.snode;
    let outcome = RemoveOutcome { group: Some(dht.groups[dht.vs.get(v).group as usize].gid) };
    make_room(dht, v, sink)?;
    drain(dht, dht.vs.get(v).group, v, sink);
    dht.vs.kill(v);
    dht.ledger.vnode_killed(snode, v);
    dht.debug_check();
    Ok(outcome)
}

/// Cases 2–4: when `v`'s group sits at `Vmin` beside other groups, merge
/// or migrate until `v`'s group can lose a member (case 1).
fn make_room<P: RegionPolicy, R: DomusRng>(
    dht: &mut BalancedDht<P, R>,
    v: VnodeId,
    sink: &mut dyn RebalanceSink,
) -> Result<(), DhtError> {
    let slot = dht.vs.get(v).group;
    if dht.live_slots.len() == 1 || dht.groups[slot as usize].len() as u64 > dht.cfg.vmin {
        return Ok(());
    }
    let gid = dht.groups[slot as usize].gid;
    let sibling_slot = gid.sibling().and_then(|sib| find_live_group(dht, sib));
    if let Some(sib) = sibling_slot {
        if dht.groups[sib as usize].len() as u64 == dht.cfg.vmin {
            merge_groups(dht, slot, sib, sink)?;
            return Ok(());
        }
    }
    if let Some(donor) = find_donor_group(dht, slot) {
        return migrate_one(dht, donor, slot, sink);
    }

    // Every live group is at Vmin: merge the deepest sibling pair.
    let (a, b) = deepest_sibling_pair(dht);
    let merged = merge_groups(dht, a, b, sink)?;
    let v_slot = dht.vs.get(v).group;
    if v_slot != merged {
        migrate_one(dht, merged, v_slot, sink)?;
    }
    Ok(())
}

/// Case 1: drains `v` out of its region and runs the merge cascade if that
/// saturated `Pmax`. `v` leaves the region holding nothing, still alive.
fn drain<P, R: DomusRng>(
    dht: &mut BalancedDht<P, R>,
    slot: u32,
    v: VnodeId,
    sink: &mut dyn RebalanceSink,
) {
    {
        let BalancedDht { vs, groups, routing, ledger, rng, cfg, .. } = dht;
        let mut ls = LedgeredSink::new(sink, ledger);
        balance::greedy_remove(vs, routing, &mut groups[slot as usize], v, cfg, rng, &mut ls);
    }
    assert_eq!(count(&dht.routing, v), 0, "{v} still owns partitions after its drain");
    let saturated = balance::all_at_pmax(&dht.groups[slot as usize], &dht.cfg);
    if saturated {
        let pairs = {
            let BalancedDht { vs, groups, routing, ledger, rng, cfg, .. } = dht;
            let mut ls = LedgeredSink::new(sink, ledger);
            balance::merge_all(vs, routing, &mut groups[slot as usize], cfg, rng, &mut ls)
                .expect("at its birth level a region all at Pmax would hold Vmin/2 members")
        };
        sink.event(RebalanceEvent::PartitionMerge { pairs });
    }
}

/// Finds the live-group slot with identifier `gid`, if any.
fn find_live_group<P, R: DomusRng>(dht: &BalancedDht<P, R>, gid: GroupId) -> Option<u32> {
    dht.live_slots.iter().copied().find(|&s| dht.groups[s as usize].gid == gid)
}

/// Picks the largest group (ties: smallest identifier value, then slot)
/// that can legally lose a member — excluding `except`.
fn find_donor_group<P, R: DomusRng>(dht: &BalancedDht<P, R>, except: u32) -> Option<u32> {
    let mut best: Option<(usize, u64, u32)> = None; // (len, gid value, slot)
    for &i in &dht.live_slots {
        let g = &dht.groups[i as usize];
        if i == except || g.len() as u64 <= dht.cfg.vmin {
            continue;
        }
        let cand = (g.len(), g.gid.value(), i);
        best = match best {
            None => Some(cand),
            Some(b) if cand.0 > b.0 || (cand.0 == b.0 && cand.1 < b.1) => Some(cand),
            keep => keep,
        };
    }
    best.map(|(_, _, slot)| slot)
}

/// When every group sits at `Vmin`, the deepest leaf's sibling must itself
/// be a live leaf (a deeper descendant would contradict depth maximality).
fn deepest_sibling_pair<P, R: DomusRng>(dht: &BalancedDht<P, R>) -> (u32, u32) {
    let deepest = dht
        .live_slots
        .iter()
        .map(|&i| (i, &dht.groups[i as usize]))
        .max_by_key(|(i, g)| (g.gid.len(), u32::MAX - i))
        .map(|(i, _)| i)
        .expect("at least one live group");
    let gid = dht.groups[deepest as usize].gid;
    let sib = gid.sibling().expect("a deepest group below the root has a sibling");
    let sib_slot = find_live_group(dht, sib)
        .expect("the sibling of a deepest leaf is a leaf (prefix-freeness)");
    (deepest, sib_slot)
}

/// Case 2/4: fuse two sibling groups back into their parent identifier.
///
/// Returns the merged group's slot. Levels are harmonised to the higher of
/// the two (splitting the lower side's partitions by one level raise per
/// member and level — streamed as `PartitionSplit` events, which the
/// legacy report never recorded),
/// members are pooled, and counts are re-levelled to spread ≤ 1 — which
/// the equal-quota law places inside `[Pmin, Pmax]`.
fn merge_groups<P: RegionPolicy, R: DomusRng>(
    dht: &mut BalancedDht<P, R>,
    a: u32,
    b: u32,
    sink: &mut dyn RebalanceSink,
) -> Result<u32, DhtError> {
    let gid_a = dht.groups[a as usize].gid;
    let gid_b = dht.groups[b as usize].gid;
    debug_assert_eq!(gid_a.sibling(), Some(gid_b), "only trie siblings merge");
    let parent_gid = gid_a.parent().expect("sibling implies a parent");

    let target = dht.groups[a as usize].level.max(dht.groups[b as usize].level);
    for slot in [a, b] {
        while dht.groups[slot as usize].level < target {
            let count = balance::split_all(&mut dht.routing, &mut dht.groups[slot as usize])?;
            sink.event(RebalanceEvent::PartitionSplit { count });
        }
    }

    let merged_slot = dht.groups.len() as u32;
    let birth = dht.groups[a as usize].birth_level.min(dht.groups[b as usize].birth_level);
    let mut merged = crate::state::GroupState::new(parent_gid, target);
    merged.birth_level = birth;
    for slot in [a, b] {
        let members = std::mem::take(&mut dht.groups[slot as usize].members);
        dht.groups[slot as usize].alive = false;
        dht.groups[slot as usize].clear_accumulators();
        for m in members {
            dht.vs.get_mut(m).group = merged_slot;
            merged.admit(m, count(&dht.routing, m));
        }
    }
    dht.groups.push(merged);
    dht.retire_slot(a);
    dht.retire_slot(b);
    dht.live_slots.push(merged_slot);
    sink.event(RebalanceEvent::GroupMerge { left: gid_a, right: gid_b, parent: parent_gid });

    // Harmonisation may have pushed the raised side past Pmax; re-level.
    {
        let BalancedDht { vs, groups, routing, ledger, rng, cfg, .. } = dht;
        let mut ls = LedgeredSink::new(sink, ledger);
        balance::rebalance_spread(
            vs,
            routing,
            &mut groups[merged_slot as usize],
            cfg,
            rng,
            &mut ls,
        );
    }
    Ok(merged_slot)
}

/// Case 3: migrates one vnode from `donor` into `dest` under its own
/// handle, announced as a `VnodeMigrated` event whose `old` and `new` are
/// both that handle.
fn migrate_one<P: RegionPolicy, R: DomusRng>(
    dht: &mut BalancedDht<P, R>,
    donor: u32,
    dest: u32,
    sink: &mut dyn RebalanceSink,
) -> Result<(), DhtError> {
    let w = *dht.groups[donor as usize].members.last().expect("donor group is non-empty");
    drain(dht, donor, w, sink);
    dht.admit_into_group(dest, sink, |_| w)?;
    sink.event(RebalanceEvent::VnodeMigrated { old: w, new: w });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DhtConfig;
    use crate::engine::DhtEngine;
    use crate::ids::SnodeId;
    use crate::local::LocalDht;
    use crate::sink::{CountOnly, NullSink};
    use domus_hashspace::HashSpace;

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
    fn grow_then_shrink_to_one() {
        let mut dht = grow(cfg(4, 2), 40, 3);
        while dht.vnode_count() > 1 {
            let victims = dht.vnodes();
            let v = victims[victims.len() / 2];
            dht.remove_vnode_with(v, &mut NullSink).unwrap_or_else(|e| panic!("removing {v}: {e}"));
            dht.check_invariants().unwrap_or_else(|e| panic!("V={} : {e}", dht.vnode_count()));
        }
        assert_eq!(dht.vnode_count(), 1);
        assert_eq!(dht.group_count(), 1);
        let survivor = dht.vnodes()[0];
        assert_eq!(dht.quota_of(survivor).unwrap(), 1.0);
    }

    #[test]
    fn removal_reports_group_merge_when_forced() {
        // Vmin = 2: groups split early; shrinking forces sibling merges.
        let mut dht = grow(cfg(4, 2), 30, 5);
        assert!(dht.group_count() >= 4);
        let mut counts = CountOnly::default();
        while dht.vnode_count() > 2 {
            let v = dht.vnodes()[0];
            dht.remove_vnode_with(v, &mut counts).unwrap();
        }
        assert!(counts.group_merges > 0, "shrinking this far must merge groups");
    }

    #[test]
    fn churn_preserves_invariants() {
        let mut dht = LocalDht::with_seed(cfg(4, 2), 11);
        let mut step = 0u32;
        for round in 0..6 {
            for i in 0..20u32 {
                dht.create_vnode_with(SnodeId(i % 7), &mut NullSink).unwrap();
                step += 1;
                dht.check_invariants().unwrap_or_else(|e| panic!("create step {step}: {e}"));
            }
            for _ in 0..15 {
                let vnodes = dht.vnodes();
                let v = vnodes[(step as usize * 13) % vnodes.len()];
                dht.remove_vnode_with(v, &mut NullSink).unwrap();
                step += 1;
                dht.check_invariants().unwrap_or_else(|e| panic!("remove step {step}: {e}"));
            }
            let _ = round;
        }
        assert!(dht.vnode_count() >= 30);
    }

    #[test]
    fn migration_is_reported_when_it_happens() {
        // Drive a configuration into the migration path: many equal groups,
        // then delete from one group repeatedly so its sibling disappears.
        let mut dht = grow(cfg(4, 2), 64, 17);
        let mut counts = CountOnly::default();
        while dht.vnode_count() > 4 {
            let v = *dht.vnodes().last().unwrap();
            dht.remove_vnode_with(v, &mut counts).unwrap();
        }
        // Both mechanisms exist; at least merges must fire on a shrink this
        // deep, and the combined machinery must keep the structure legal.
        assert!(counts.group_merges > 0);
        dht.check_invariants().unwrap();
    }

    #[test]
    fn partition_merges_reverse_split_cascades() {
        let mut dht = grow(cfg(8, 1), 8, 23);
        let mut counts = CountOnly::default();
        while dht.vnode_count() > 1 {
            let v = dht.vnodes()[0];
            dht.remove_vnode_with(v, &mut counts).unwrap();
        }
        assert!(counts.partition_merges > 0, "shrinking to 1 vnode must merge partitions back");
        // Survivor ends at the initial level with Pmin partitions.
        let v = dht.vnodes()[0];
        assert_eq!(dht.partition_count(v).unwrap(), 8);
    }

    #[test]
    fn remove_unknown_and_last_errors() {
        let mut dht = grow(cfg(4, 2), 1, 29);
        let v = dht.vnodes()[0];
        assert_eq!(dht.remove_vnode_with(v, &mut NullSink), Err(DhtError::LastVnode));
        assert!(matches!(
            dht.remove_vnode_with(VnodeId(404), &mut NullSink),
            Err(DhtError::UnknownVnode(_))
        ));
    }

    #[test]
    fn deterministic_shrink() {
        let shrink = |seed| {
            let mut dht = grow(cfg(4, 2), 50, seed);
            for _ in 0..30 {
                let v = dht.vnodes()[0];
                dht.remove_vnode_with(v, &mut NullSink).unwrap();
            }
            dht.quotas()
        };
        assert_eq!(shrink(41), shrink(41));
    }
}
