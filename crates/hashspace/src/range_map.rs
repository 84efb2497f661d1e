//! `OwnerMap`: the partition → owner routing structure.
//!
//! The local approach needs one global lookup primitive: given a point
//! `r ∈ R_h`, find the partition containing `r` and its owner (§3.6 — the
//! victim-vnode selection; also the data path of any DHT lookup). Because
//! partition sizes differ *across* groups, the map cannot assume one global
//! splitlevel; it stores heterogeneous-level partitions keyed by start
//! point and relies on the split-tree structure for non-overlap.
//!
//! Alongside the point-ordered entry map the structure maintains a
//! **per-owner reverse index**: owner → its *holdings*, stored in a dense
//! arena addressed by [`OwnerKey::dense`] so the per-mutation upkeep is an
//! array access and a short vector scan — not tree surgery. The holdings
//! are the engines' one per-owner partition list, and their order is a
//! contract that the balanced engine's donor policies index into:
//!
//! * an owner appends what it receives (`insert`, `transfer`,
//!   `replace_all` in input order);
//! * `transfer` and `remove` fill the old owner's hole with its last
//!   partition; `transfer_shifting` shifts its later partitions up instead;
//! * `split` and `split_all` put the left half in the parent's place and
//!   the right half directly after it; `merge` puts the parent in the left
//!   child's place; `sort_holdings` restores hash-space order.
//!
//! | operation            | complexity                                      |
//! |----------------------|-------------------------------------------------|
//! | `lookup`             | `O(log P)`                                      |
//! | `insert` / `remove`  | `O(log P + Pv)`                                 |
//! | `transfer`           | `O(log P + Pv)`                                 |
//! | `split` / `merge`    | `O(log P + Pv)` (in place, no re-validation)    |
//! | `split_all`          | `O(P)` (bulk rebuild)                           |
//! | `replace_all`        | `O(P)` (bulk rebuild)                           |
//! | `holdings`           | `O(1)` (a slice of the index)                   |
//!
//! (`P` partitions, `V` owners, `Pv` partitions of one owner — bounded by
//! `Pmax` in the model, so the `Pv` terms are small constants.)

use crate::partition::Partition;
use crate::space::HashSpace;
use std::collections::BTreeMap;

/// Errors from [`OwnerMap`] mutation and verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// The partition (or an overlapping one) is already present.
    Overlap(Partition),
    /// The partition is not present.
    Missing(Partition),
    /// Coverage verification failed: a gap starts at this point.
    Gap(u64),
    /// Coverage verification failed: total covered size is wrong.
    BadTotal {
        /// Sum of partition sizes found.
        covered: u128,
        /// Expected `2^Bh`.
        expected: u128,
    },
    /// The owner index disagrees with the entry map.
    IndexDrift(String),
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::Overlap(p) => write!(f, "partition {p} overlaps an existing entry"),
            MapError::Missing(p) => write!(f, "partition {p} not present"),
            MapError::Gap(at) => write!(f, "coverage gap starting at {at}"),
            MapError::BadTotal { covered, expected } => {
                write!(f, "covered {covered} of {expected} points")
            }
            MapError::IndexDrift(d) => write!(f, "owner index drifted: {d}"),
        }
    }
}

impl std::error::Error for MapError {}

/// An owner type usable as the key of the [`OwnerMap`] reverse index:
/// every owner exposes a small, stable, dense arena index (the engines'
/// vnode handles are dense by construction; the unsigned primitives are
/// their own index).
pub trait OwnerKey: Clone + Eq + std::fmt::Debug {
    /// The owner's dense arena index. Must be stable for the owner's
    /// lifetime and small (the index allocates `max(dense) + 1` slots).
    fn dense(&self) -> usize;
}

macro_rules! impl_owner_key {
    ($($t:ty),*) => {$(
        impl OwnerKey for $t {
            #[inline]
            fn dense(&self) -> usize {
                *self as usize
            }
        }
    )*};
}
impl_owner_key!(u8, u16, u32, usize);

/// One owner's slice of the index: its holdings, in the order the module
/// docs state (owners hold few partitions, so a flat vector beats tree
/// surgery on the transfer hot path).
#[derive(Debug, Clone)]
struct OwnerEntry<T> {
    owner: T,
    parts: Vec<Partition>,
}

impl<T> OwnerEntry<T> {
    #[inline]
    fn slot_of(&self, p: Partition) -> usize {
        self.parts.iter().position(|&q| q == p).expect("partition is indexed under its owner")
    }
}

/// Maps every point of a [`HashSpace`] to an owner `T` through a set of
/// non-overlapping [`Partition`]s, with a per-owner reverse index.
#[derive(Debug, Clone)]
pub struct OwnerMap<T> {
    space: HashSpace,
    // start point → (partition, owner). Starts are unique because entries
    // never overlap; the partition carries its level (and thus its end).
    entries: BTreeMap<u64, (Partition, T)>,
    // Dense arena over OwnerKey::dense: owner → holdings. Slots of owners
    // with no partitions are vacated, so the index never keeps an owner
    // alive past its last hand-over.
    owners: Vec<Option<OwnerEntry<T>>>,
    owner_count: usize,
}

impl<T: OwnerKey> OwnerMap<T> {
    /// An empty map over `space`.
    pub fn new(space: HashSpace) -> Self {
        Self { space, entries: BTreeMap::new(), owners: Vec::new(), owner_count: 0 }
    }

    /// A map with the whole space owned by `owner` (the first-vnode state).
    pub fn whole(space: HashSpace, owner: T) -> Self {
        let mut m = Self::new(space);
        m.insert(Partition::ROOT, owner).expect("empty map accepts the root");
        m
    }

    /// The space this map routes.
    pub fn space(&self) -> HashSpace {
        self.space
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no partitions are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of distinct owners currently holding partitions.
    pub fn owner_count(&self) -> usize {
        self.owner_count
    }

    /// Registers `p` under `owner` in the index.
    fn index_add(&mut self, owner: &T, p: Partition) {
        let count = &mut self.owner_count;
        let slot = {
            let slot = owner.dense();
            if self.owners.len() <= slot {
                self.owners.resize_with(slot + 1, || None);
            }
            &mut self.owners[slot]
        };
        match slot {
            Some(e) => {
                debug_assert!(!e.parts.contains(&p), "index already held {p}");
                debug_assert!(e.owner == *owner, "dense index collision");
                e.parts.push(p);
            }
            None => {
                *slot = Some(OwnerEntry { owner: owner.clone(), parts: vec![p] });
                *count += 1;
            }
        }
    }

    /// Unregisters `p` from `owner` in the index, vacating empty owners.
    /// The owner's last partition fills the hole, or with `shift` its later
    /// partitions move up one place.
    fn index_remove(&mut self, owner: &T, p: Partition, shift: bool) {
        let count = &mut self.owner_count;
        let slot = &mut self.owners[owner.dense()];
        let e = slot.as_mut().expect("mutated owner is indexed");
        let at = e.slot_of(p);
        if shift {
            e.parts.remove(at);
        } else {
            e.parts.swap_remove(at);
        }
        if e.parts.is_empty() {
            *slot = None;
            *count -= 1;
        }
    }

    /// Inserts a partition with its owner.
    ///
    /// Rejects any insertion that would overlap an existing entry.
    pub fn insert(&mut self, p: Partition, owner: T) -> Result<(), MapError> {
        let start = p.start(self.space);
        // Any overlapping entry either starts within [start, end) or starts
        // before `start` and extends past it; check both neighbours.
        if let Some((&s, (q, _))) = self.entries.range(..=start).next_back() {
            if (s as u128) + q.size(self.space) > start as u128 {
                return Err(MapError::Overlap(p));
            }
        }
        if let Some((&s, _)) = self.entries.range(start..).next() {
            if (s as u128) < p.end(self.space) {
                return Err(MapError::Overlap(p));
            }
        }
        self.index_add(&owner, p);
        self.entries.insert(start, (p, owner));
        Ok(())
    }

    /// Removes a partition, returning its owner.
    pub fn remove(&mut self, p: Partition) -> Result<T, MapError> {
        let start = p.start(self.space);
        match self.entries.get(&start) {
            Some((q, _)) if *q == p => {
                let (_, owner) = self.entries.remove(&start).expect("checked");
                self.index_remove(&owner, p, false);
                Ok(owner)
            }
            _ => Err(MapError::Missing(p)),
        }
    }

    /// Reassigns an existing partition to a new owner, returning the old one.
    /// The old owner's last partition fills the hole.
    pub fn transfer(&mut self, p: Partition, new_owner: T) -> Result<T, MapError> {
        self.reassign(p, new_owner, false)
    }

    /// [`OwnerMap::transfer`], but the old owner's later partitions shift up
    /// one place, so its holdings keep their order.
    pub fn transfer_shifting(&mut self, p: Partition, new_owner: T) -> Result<T, MapError> {
        self.reassign(p, new_owner, true)
    }

    fn reassign(&mut self, p: Partition, new_owner: T, shift: bool) -> Result<T, MapError> {
        let start = p.start(self.space);
        let old = match self.entries.get_mut(&start) {
            Some((q, owner)) if *q == p => std::mem::replace(owner, new_owner.clone()),
            _ => return Err(MapError::Missing(p)),
        };
        self.index_remove(&old, p, shift);
        self.index_add(&new_owner, p);
        Ok(old)
    }

    /// Splits an existing partition in place; both halves keep the owner.
    ///
    /// The halves replace the parent structurally (the left half reuses
    /// the parent's slot), so no overlap re-validation — and exactly one
    /// owner clone, for the new right-half entry — is needed.
    pub fn split(&mut self, p: Partition) -> Result<(Partition, Partition), MapError> {
        let start = p.start(self.space);
        let (a, b) = p.split();
        let owner = match self.entries.get_mut(&start) {
            Some((q, owner)) if *q == p => {
                *q = a; // the left half starts where the parent did
                owner.clone()
            }
            _ => return Err(MapError::Missing(p)),
        };
        let mid = b.start(self.space);
        let prev = self.entries.insert(mid, (b, owner.clone()));
        debug_assert!(prev.is_none(), "the parent covered its own right half");
        let e = self.owners[owner.dense()].as_mut().expect("split owner is indexed");
        let at = e.slot_of(p);
        e.parts[at] = a;
        e.parts.insert(at + 1, b);
        Ok((a, b))
    }

    /// Merges two sibling partitions owned by the same owner into their
    /// parent. Returns the parent.
    ///
    /// The parent replaces the left child's slot in place; no owner is
    /// cloned.
    pub fn merge(&mut self, a: Partition, b: Partition) -> Result<Partition, MapError> {
        let parent = Partition::merge(a, b).ok_or(MapError::Missing(b))?;
        let (sa, sb) = (a.start(self.space), b.start(self.space));
        // Optimistically detach the right child; the error paths restore it.
        let Some((pb, owner_b)) = self.entries.remove(&sb) else {
            return Err(MapError::Missing(b));
        };
        if pb != b {
            self.entries.insert(sb, (pb, owner_b));
            return Err(MapError::Missing(b));
        }
        match self.entries.get_mut(&sa) {
            Some((q, owner)) if *q == a && *owner == owner_b => {
                *q = parent;
            }
            Some((q, _)) if *q == a => {
                self.entries.insert(sb, (pb, owner_b));
                return Err(MapError::Overlap(parent)); // owners differ: refuse
            }
            _ => {
                self.entries.insert(sb, (pb, owner_b));
                return Err(MapError::Missing(a));
            }
        }
        let e = self.owners[owner_b.dense()].as_mut().expect("merge owner is indexed");
        let at = e.slot_of(b);
        e.parts.swap_remove(at);
        let at = e.slot_of(a);
        e.parts[at] = parent;
        Ok(parent)
    }

    /// Binary-splits **every** entry of the map in one bulk rebuild —
    /// `O(P)`, against `O(P log P)` for `P` individual [`OwnerMap::split`]
    /// calls. This is the split cascade of a region that spans the whole
    /// map (the global approach; the local approach while one group
    /// remains). Returns the number of partitions split.
    ///
    /// The caller guarantees every entry sits above the space's resolution
    /// floor (level < `Bh`), exactly as for [`OwnerMap::split`].
    pub fn split_all(&mut self) -> u64 {
        let space = self.space;
        let old = std::mem::take(&mut self.entries);
        let n = old.len() as u64;
        // The input is in ascending start order and children preserve it,
        // so `collect` bulk-builds the tree bottom-up without rebalancing.
        self.entries = old
            .into_values()
            .flat_map(|(p, o)| {
                debug_assert!(p.level() < space.bits(), "split below the space's resolution");
                let (a, b) = p.split();
                [(a.start(space), (a, o.clone())), (b.start(space), (b, o))]
            })
            .collect();
        for e in self.owners.iter_mut().flatten() {
            let parts = std::mem::take(&mut e.parts);
            e.parts = parts
                .into_iter()
                .flat_map(|p| {
                    let (a, b) = p.split();
                    [a, b]
                })
                .collect();
        }
        n
    }

    /// Sorts `owner`'s holdings into hash-space order — `O(Pv log Pv)`.
    pub fn sort_holdings(&mut self, owner: &T) {
        let space = self.space;
        if let Some(e) = self.owners.get_mut(owner.dense()).and_then(Option::as_mut) {
            e.parts.sort_unstable_by_key(|p| p.start(space));
        }
    }

    /// Replaces the entire map with `new`, given in ascending hash-space
    /// order — the bulk form of a whole-map merge cascade (`O(P)`).
    ///
    /// # Panics
    /// Debug-asserts that `new` is sorted and non-overlapping; release
    /// builds trust the caller (the balance kernel, which constructs the
    /// parent list in entry order).
    pub fn replace_all(&mut self, new: Vec<(Partition, T)>) {
        let space = self.space;
        self.owners.clear();
        self.owner_count = 0;
        // Index first (borrowing `new`), then move the same vector into
        // the entry map — no intermediate copy of the whole tiling.
        for (p, o) in &new {
            self.index_add(o, *p);
        }
        let mut last_end = 0u128;
        self.entries = new
            .into_iter()
            .map(|(p, o)| {
                let start = p.start(space);
                debug_assert!(
                    (start as u128) >= last_end,
                    "replace_all input must be sorted and non-overlapping"
                );
                last_end = p.end(space);
                (start, (p, o))
            })
            .collect();
    }

    /// The partition containing `point` and its owner, if any entry covers
    /// the point.
    pub fn lookup(&self, point: u64) -> Option<(Partition, &T)> {
        debug_assert!(self.space.contains(point));
        let (_, (p, owner)) = self.entries.range(..=point).next_back()?;
        if p.contains(point, self.space) {
            Some((*p, owner))
        } else {
            None
        }
    }

    /// The owner of exactly this partition, if present.
    pub fn owner_of(&self, p: Partition) -> Option<&T> {
        match self.entries.get(&p.start(self.space)) {
            Some((q, owner)) if *q == p => Some(owner),
            _ => None,
        }
    }

    /// Iterates `(partition, owner)` in hash-space order.
    pub fn iter(&self) -> impl Iterator<Item = (Partition, &T)> {
        self.entries.values().map(|(p, o)| (*p, o))
    }

    /// Iterates `(partition, owner)` in hash-space order **starting at the
    /// partition containing `point`**, wrapping past the top of the space —
    /// the replica-successor walk of a cluster-aware replication policy:
    /// the first item is the point's owner (the primary), the following
    /// items are the successive partitions a replica placer probes for
    /// followers hosted on distinct snodes. Visits every partition exactly
    /// once; empty when the map is empty.
    pub fn successors(&self, point: u64) -> impl Iterator<Item = (Partition, &T)> {
        debug_assert!(self.space.contains(point));
        let pivot = match self.entries.range(..=point).next_back() {
            Some((&s, _)) => s,
            // No entry at or below the point: the wrap begins at the first
            // entry (only reachable on a non-covering map).
            None => 0,
        };
        self.entries.range(pivot..).chain(self.entries.range(..pivot)).map(|(_, (p, o))| (*p, o))
    }

    /// The partitions `owner` holds, in the order the module docs state.
    pub fn holdings(&self, owner: &T) -> &[Partition] {
        self.owners.get(owner.dense()).and_then(Option::as_ref).map_or(&[], |e| &e.parts)
    }

    /// Number of partitions held by `owner` — `O(1)`.
    pub fn partition_count_of(&self, owner: &T) -> usize {
        self.holdings(owner).len()
    }

    /// Verifies invariant G1: the entries tile `R_h` exactly — no gaps, no
    /// overlaps, total size `2^Bh`.
    pub fn verify_coverage(&self) -> Result<(), MapError> {
        let mut cursor: u128 = 0;
        for (&start, (p, _)) in &self.entries {
            if (start as u128) != cursor {
                return Err(MapError::Gap(cursor as u64));
            }
            cursor = start as u128 + p.size(self.space);
        }
        if cursor != self.space.size() {
            return Err(MapError::BadTotal { covered: cursor, expected: self.space.size() });
        }
        Ok(())
    }

    /// Verifies the owner index against a from-scratch recomputation over
    /// the entry map (O(P log P); test/debug oracle).
    pub fn verify_index(&self) -> Result<(), MapError> {
        let mut fresh: BTreeMap<usize, Vec<Partition>> = BTreeMap::new();
        for (p, o) in self.iter() {
            fresh.entry(o.dense()).or_default().push(p);
        }
        if fresh.len() != self.owner_count {
            return Err(MapError::IndexDrift(format!(
                "{} owners indexed, {} found in entries",
                self.owner_count,
                fresh.len()
            )));
        }
        for (slot, parts) in fresh {
            let Some(e) = self.owners.get(slot).and_then(Option::as_ref) else {
                return Err(MapError::IndexDrift(format!("owner slot {slot} missing")));
            };
            if e.owner.dense() != slot {
                return Err(MapError::IndexDrift(format!("owner slot {slot} holds {:?}", e.owner)));
            }
            let mut indexed = e.parts.clone();
            indexed.sort_unstable_by_key(|p| p.start(self.space));
            if indexed != parts {
                return Err(MapError::IndexDrift(format!(
                    "owner {:?}: partition sets differ",
                    e.owner
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> HashSpace {
        HashSpace::new(8)
    }

    #[test]
    fn whole_map_routes_everything_to_one_owner() {
        let m = OwnerMap::whole(space(), 0u32);
        for point in 0..=255u64 {
            let (p, owner) = m.lookup(point).expect("covered");
            assert_eq!(p, Partition::ROOT);
            assert_eq!(*owner, 0);
        }
        m.verify_coverage().unwrap();
        m.verify_index().unwrap();
        assert_eq!(m.owner_count(), 1);
        assert_eq!(m.holdings(&0), [Partition::ROOT]);
    }

    #[test]
    fn split_preserves_coverage_and_owner() {
        let mut m = OwnerMap::whole(space(), 0u32);
        let (a, b) = m.split(Partition::ROOT).unwrap();
        m.verify_coverage().unwrap();
        m.verify_index().unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.owner_of(a), Some(&0));
        assert_eq!(m.owner_of(b), Some(&0));
        assert_eq!(m.holdings(&0), [a, b]);
    }

    #[test]
    fn transfer_changes_routing() {
        let mut m = OwnerMap::whole(space(), 0u32);
        let (a, b) = m.split(Partition::ROOT).unwrap();
        let old = m.transfer(b, 1).unwrap();
        assert_eq!(old, 0);
        assert_eq!(m.lookup(0).unwrap().1, &0);
        assert_eq!(m.lookup(255).unwrap().1, &1);
        assert_eq!(m.holdings(&0), [a]);
        assert_eq!(m.holdings(&1), [b]);
        assert_eq!(m.partition_count_of(&0), 1);
        m.verify_index().unwrap();
    }

    #[test]
    fn overlapping_insert_rejected() {
        let mut m = OwnerMap::whole(space(), 0u32);
        let (l, _r) = Partition::ROOT.split();
        assert_eq!(m.insert(l, 1), Err(MapError::Overlap(l)));
        // Also a *smaller* partition inside an existing one:
        let (ll, _) = l.split();
        assert_eq!(m.insert(ll, 1), Err(MapError::Overlap(ll)));
        // Rejected inserts must leave the index untouched.
        m.verify_index().unwrap();
        assert_eq!(m.owner_count(), 1);
    }

    #[test]
    fn insert_overlap_detected_from_the_right() {
        // Existing entry starts *after* the candidate but inside it.
        let mut m = OwnerMap::new(space());
        let (l, r) = Partition::ROOT.split();
        let (_rl, rr) = r.split();
        m.insert(rr, 7u32).unwrap();
        assert_eq!(m.insert(r, 8), Err(MapError::Overlap(r)));
        m.insert(l, 9).unwrap();
        assert_eq!(m.len(), 2);
        m.verify_index().unwrap();
    }

    #[test]
    fn remove_missing_is_an_error() {
        let mut m: OwnerMap<u32> = OwnerMap::new(space());
        let p = Partition::new(1, 0);
        assert_eq!(m.remove(p), Err(MapError::Missing(p)));
        // Present start but different level also counts as missing:
        m.insert(Partition::new(2, 0), 1).unwrap();
        assert_eq!(m.remove(p), Err(MapError::Missing(p)));
        m.verify_index().unwrap();
    }

    #[test]
    fn remove_evicts_empty_owners_from_the_index() {
        let mut m = OwnerMap::whole(space(), 3u32);
        assert_eq!(m.owner_count(), 1);
        m.remove(Partition::ROOT).unwrap();
        assert_eq!(m.owner_count(), 0);
        assert!(m.holdings(&3).is_empty());
        m.verify_index().unwrap();
    }

    #[test]
    fn merge_requires_same_owner() {
        let mut m = OwnerMap::new(space());
        let (l, r) = Partition::ROOT.split();
        m.insert(l, 1u32).unwrap();
        m.insert(r, 2u32).unwrap();
        assert!(m.merge(l, r).is_err());
        // The refused merge must leave both entries routed.
        assert_eq!(m.owner_of(l), Some(&1));
        assert_eq!(m.owner_of(r), Some(&2));
        m.verify_index().unwrap();
        m.transfer(r, 1).unwrap();
        let parent = m.merge(l, r).unwrap();
        assert_eq!(parent, Partition::ROOT);
        assert_eq!(m.len(), 1);
        m.verify_coverage().unwrap();
        m.verify_index().unwrap();
        assert_eq!(m.owner_count(), 1);
    }

    #[test]
    fn merge_of_missing_children_restores_state() {
        let mut m = OwnerMap::new(space());
        let (l, r) = Partition::ROOT.split();
        let (rl, rr) = r.split();
        m.insert(l, 1u32).unwrap();
        m.insert(rl, 1u32).unwrap();
        m.insert(rr, 1u32).unwrap();
        // (l, r): r itself is not an entry (its children are).
        assert_eq!(m.merge(l, r), Err(MapError::Missing(r)));
        m.verify_coverage().unwrap();
        m.verify_index().unwrap();
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn coverage_detects_gap() {
        let mut m = OwnerMap::new(space());
        let (l, r) = Partition::ROOT.split();
        m.insert(r, 1u32).unwrap();
        assert_eq!(m.verify_coverage(), Err(MapError::Gap(0)));
        m.insert(l, 1).unwrap();
        m.verify_coverage().unwrap();
    }

    #[test]
    fn holdings_keep_the_documented_order() {
        let mut m = OwnerMap::new(space());
        for i in 0..4u64 {
            m.insert(Partition::new(2, i), 0u32).unwrap();
        }
        let p = |l, i| Partition::new(l, i);
        // A split leaves the left half in place and the right half after it.
        m.split(p(2, 1)).unwrap();
        assert_eq!(m.holdings(&0), [p(2, 0), p(3, 2), p(3, 3), p(2, 2), p(2, 3)]);
        // A transfer fills the donor's hole with its last partition and
        // appends at the receiver.
        m.transfer(p(3, 2), 1).unwrap();
        m.transfer(p(2, 0), 1).unwrap();
        assert_eq!(m.holdings(&0), [p(2, 2), p(2, 3), p(3, 3)]);
        assert_eq!(m.holdings(&1), [p(3, 2), p(2, 0)]);
        // The shifting transfer keeps the donor's order.
        m.transfer_shifting(p(2, 3), 1).unwrap();
        assert_eq!(m.holdings(&0), [p(2, 2), p(3, 3)]);
        assert_eq!(m.holdings(&1), [p(3, 2), p(2, 0), p(2, 3)]);
        m.sort_holdings(&1);
        assert_eq!(m.holdings(&1), [p(2, 0), p(3, 2), p(2, 3)]);
        m.verify_index().unwrap();
    }

    #[test]
    fn heterogeneous_levels_route_correctly() {
        // Simulates two groups at different splitlevels sharing the space:
        // left half at level 3, right half at level 1.
        let mut m = OwnerMap::new(space());
        for i in 0..4u64 {
            m.insert(Partition::new(3, i), i as u32).unwrap();
        }
        m.insert(Partition::new(1, 1), 99u32).unwrap();
        m.verify_coverage().unwrap();
        m.verify_index().unwrap();
        assert_eq!(*m.lookup(0).unwrap().1, 0);
        assert_eq!(*m.lookup(32).unwrap().1, 1);
        assert_eq!(*m.lookup(127).unwrap().1, 3);
        assert_eq!(*m.lookup(128).unwrap().1, 99);
        assert_eq!(*m.lookup(255).unwrap().1, 99);
        assert_eq!(m.owner_count(), 5);
    }

    #[test]
    fn successors_wrap_and_cover_every_partition_once() {
        let mut m = OwnerMap::new(space());
        for i in 0..4u64 {
            m.insert(Partition::new(2, i), i as u32).unwrap();
        }
        // Starting inside the third quarter: 2, 3, then wrap to 0, 1.
        let walk: Vec<u32> = m.successors(130).map(|(_, &o)| o).collect();
        assert_eq!(walk, vec![2, 3, 0, 1]);
        // Starting at point 0 is plain hash-space order.
        let walk: Vec<u32> = m.successors(0).map(|(_, &o)| o).collect();
        assert_eq!(walk, vec![0, 1, 2, 3]);
        // The first item always matches lookup.
        for point in [0u64, 77, 128, 255] {
            let (p, o) = m.successors(point).next().unwrap();
            let (lp, lo) = m.lookup(point).unwrap();
            assert_eq!((p, o), (lp, lo));
        }
        assert_eq!(OwnerMap::<u32>::new(space()).successors(9).count(), 0);
    }

    #[test]
    fn lookup_on_empty_is_none() {
        let m: OwnerMap<u32> = OwnerMap::new(space());
        assert!(m.lookup(10).is_none());
        assert!(m.is_empty());
        assert_eq!(m.owner_count(), 0);
    }

    #[test]
    fn split_all_doubles_every_entry() {
        let mut m = OwnerMap::new(space());
        for i in 0..4u64 {
            m.insert(Partition::new(2, i), (i % 2) as u32).unwrap();
        }
        let n = m.split_all();
        assert_eq!(n, 4);
        assert_eq!(m.len(), 8);
        m.verify_coverage().unwrap();
        m.verify_index().unwrap();
        for i in 0..8u64 {
            assert_eq!(m.owner_of(Partition::new(3, i)), Some(&(((i / 2) % 2) as u32)));
        }
        // Every owner's holdings interleave the halves, in place.
        let at3 = |is: [u64; 4]| is.map(|i| Partition::new(3, i));
        assert_eq!(m.holdings(&0), at3([0, 1, 4, 5]));
        assert_eq!(m.holdings(&1), at3([2, 3, 6, 7]));
    }

    #[test]
    fn replace_all_rebuilds_entries_and_index() {
        let mut m = OwnerMap::whole(space(), 0u32);
        m.replace_all(vec![
            (Partition::new(1, 0), 4u32),
            (Partition::new(2, 2), 5),
            (Partition::new(2, 3), 4),
        ]);
        m.verify_coverage().unwrap();
        m.verify_index().unwrap();
        assert_eq!(m.owner_count(), 2);
        assert_eq!(m.holdings(&4), [Partition::new(1, 0), Partition::new(2, 3)]);
        assert_eq!(m.holdings(&5), [Partition::new(2, 2)]);
    }

    #[test]
    fn randomized_interleaving_keeps_index_exact() {
        // A deterministic pseudo-random walk over every mutation kind; the
        // index must match a from-scratch recomputation at every step.
        let mut m = OwnerMap::whole(space(), 0u32);
        let mut x = 0x2545F4914F6CDD1Du64;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for step in 0..600 {
            let parts: Vec<Partition> = m.iter().map(|(p, _)| p).collect();
            let p = parts[(rng() % parts.len() as u64) as usize];
            match rng() % 3 {
                0 if p.level() < 8 => {
                    m.split(p).unwrap();
                }
                1 => {
                    m.transfer(p, (rng() % 5) as u32).unwrap();
                }
                _ => {
                    if p.level() > 0 {
                        let sib = p.sibling();
                        if m.owner_of(sib).is_some() && m.owner_of(sib) != m.owner_of(p) {
                            let o = m.owner_of(p).copied().unwrap();
                            m.transfer(sib, o).unwrap();
                        }
                        if m.owner_of(sib) == m.owner_of(p) && m.owner_of(sib).is_some() {
                            let (l, r) = if p.index() % 2 == 0 { (p, sib) } else { (sib, p) };
                            m.merge(l, r).unwrap();
                        }
                    }
                }
            }
            m.verify_coverage().unwrap_or_else(|e| panic!("step {step}: {e}"));
            m.verify_index().unwrap_or_else(|e| panic!("step {step}: {e}"));
        }
    }
}
