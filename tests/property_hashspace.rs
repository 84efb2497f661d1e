//! Property-based tests over the hash-space algebra: the substrate every
//! invariant of the model ultimately rests on.

use domus::hashspace::{HashSpace, OwnerMap, Partition, Quota};
use proptest::prelude::*;

/// A valid (level, index) pair for a small space.
fn partitions(max_level: u32) -> impl Strategy<Value = Partition> {
    (0..=max_level).prop_flat_map(|l| {
        let max_index = if l == 0 { 1 } else { 1u64 << l };
        (Just(l), 0..max_index).prop_map(|(l, i)| Partition::new(l, i))
    })
}

proptest! {
    /// Split then merge is the identity; children never overlap and tile
    /// the parent exactly.
    #[test]
    fn split_merge_roundtrip(p in partitions(20)) {
        let space = HashSpace::new(32);
        let (a, b) = p.split();
        prop_assert_eq!(Partition::merge(a, b), Some(p));
        prop_assert!(!a.overlaps(&b));
        prop_assert!(p.is_ancestor_of(&a) && p.is_ancestor_of(&b));
        prop_assert_eq!(a.size(space) + b.size(space), p.size(space));
        prop_assert_eq!(a.start(space), p.start(space));
        prop_assert_eq!(b.end(space), p.end(space));
    }

    /// Two partitions overlap iff one is an ancestor-or-self of the other —
    /// and that matches interval intersection exactly.
    #[test]
    fn overlap_matches_interval_intersection(a in partitions(10), b in partitions(10)) {
        let space = HashSpace::new(16);
        let (sa, ea) = (a.start(space) as u128, a.end(space));
        let (sb, eb) = (b.start(space) as u128, b.end(space));
        let intervals_intersect = sa < eb && sb < ea;
        prop_assert_eq!(a.overlaps(&b), intervals_intersect);
    }

    /// `containing` always returns a partition of the requested level that
    /// contains the point.
    #[test]
    fn containing_is_correct(level in 0u32..16, point in any::<u64>()) {
        let space = HashSpace::new(16);
        let point = point & space.max_point();
        let p = Partition::containing(level, point, space);
        prop_assert_eq!(p.level(), level);
        prop_assert!(p.contains(point, space));
    }

    /// Quota arithmetic is exact: summing the quotas of any split tree's
    /// leaves yields exactly 1.
    #[test]
    fn quota_sums_are_exact(splits in prop::collection::vec(any::<prop::sample::Index>(), 0..64)) {
        let mut leaves = vec![Partition::ROOT];
        for idx in splits {
            let i = idx.index(leaves.len());
            if leaves[i].level() < 40 {
                let (a, b) = leaves.swap_remove(i).split();
                leaves.push(a);
                leaves.push(b);
            }
        }
        let total: Quota = leaves.iter().map(Partition::quota).sum();
        prop_assert!(total.is_one(), "leaves sum to {total}");
    }

    /// An OwnerMap driven by random split / transfer / raise / lower
    /// sequences always verifies coverage (and an exact owner index), keeps
    /// every owner's partitions in the order a flat per-owner list gets
    /// from the same operations, and every point lookup agrees with the
    /// entry set. Owners are drawn from a small range — the `OwnerKey`
    /// contract requires dense arena indices.
    #[test]
    fn owner_map_coverage_under_churn(
        script in prop::collection::vec((any::<prop::sample::Index>(), 0u32..64), 1..80),
        probes in prop::collection::vec(any::<u64>(), 8),
    ) {
        let space = HashSpace::new(16);
        let mut map = OwnerMap::whole(space, 0u32);
        let mut flat: Vec<Vec<Partition>> = vec![Vec::new(); 64];
        flat[0].push(Partition::ROOT);
        for (idx, owner) in script {
            let parts: Vec<(Partition, u32)> = map.iter().map(|(p, &o)| (p, o)).collect();
            let (p, held_by) = parts[idx.index(parts.len())];
            let held = &mut flat[held_by as usize];
            match owner & 3 {
                0 if p.level() < space.bits() => {
                    let (a, b) = map.split(p).unwrap();
                    let at = held.iter().position(|&q| q == p).unwrap();
                    held[at] = a;
                    held.insert(at + 1, b);
                }
                2 if held.len() < 64 && held.iter().all(|q| q.level() < space.bits()) => {
                    map.raise(&held_by);
                    *held = held.iter().flat_map(|q| <[_; 2]>::from(q.split())).collect();
                }
                3 => {
                    let pairs = held.iter().all(|q| q.level() > 0 && held.contains(&q.sibling()));
                    prop_assert_eq!(map.lower(&held_by).is_ok(), pairs);
                    if pairs {
                        held.retain(|q| q.index() % 2 == 0);
                        *held = held.iter().map(|q| q.parent().unwrap()).collect();
                        held.sort_by_key(|q| q.start(space));
                    }
                }
                _ => {
                    map.transfer(p, owner).unwrap();
                    let at = held.iter().position(|&q| q == p).unwrap();
                    held.swap_remove(at);
                    flat[owner as usize].push(p);
                }
            }
            map.verify_coverage().map_err(|e| TestCaseError::fail(e.to_string()))?;
            map.verify_index().map_err(|e| TestCaseError::fail(e.to_string()))?;
            for (o, held) in flat.iter().enumerate() {
                let listed: Vec<Partition> =
                    map.holdings(&(o as u32)).flat_map(|(q, depth)| q.descendants(depth)).collect();
                prop_assert_eq!(&listed, held);
            }
        }
        for probe in probes {
            let point = probe & space.max_point();
            let (p, &o) = map.lookup(point).expect("covered");
            prop_assert!(p.contains(point, space));
            prop_assert!(flat[o as usize].contains(&p));
        }
    }

    /// Quota ordering is total and consistent with f64 conversion.
    #[test]
    fn quota_ordering_consistent(an in 0u128..1000, ad in 0u32..30, bn in 0u128..1000, bd in 0u32..30) {
        let a = Quota::new(an, ad);
        let b = Quota::new(bn, bd);
        let cmp = a.cmp(&b);
        let fcmp = a.to_f64().partial_cmp(&b.to_f64()).unwrap();
        // f64 is exact for these magnitudes, so orders must agree.
        prop_assert_eq!(cmp, fcmp);
        // And addition commutes.
        prop_assert_eq!(a + b, b + a);
    }
}
