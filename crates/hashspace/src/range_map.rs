//! `OwnerMap`: the partition → owner routing structure.
//!
//! The local approach needs one global lookup primitive: given a point
//! `r ∈ R_h`, find the partition containing `r` and its owner (§3.6 — the
//! victim-vnode selection; also the data path of any DHT lookup). Because
//! partition sizes differ *across* groups, the map cannot assume one global
//! splitlevel; it stores heterogeneous-level entries keyed by start point
//! and relies on the split-tree structure for non-overlap.
//!
//! Alongside the point-ordered entry map the structure maintains a
//! **per-owner reverse index**: owner → its *holdings*, stored in a dense
//! arena addressed by [`OwnerKey::dense`] so the per-mutation upkeep is an
//! array access and a short vector scan.
//!
//! ## Entries stand for their descendants
//!
//! The balance kernel splits and merges an owner's partitions wholesale
//! (§2.5: "all the older vnodes binary split their own partitions"). The
//! map makes that a change of *level*, not of entries. Each owner carries
//! a lift count that [`OwnerMap::raise`] and [`OwnerMap::lower`] move by
//! one, and each stored entry records the lift it was written at. An entry
//! written `d` lifts ago stands for its `2^d` descendants `d` levels down
//! (its *weight*): these are the owner's partitions, the ones `len`,
//! `lookup`, `owner_of`, `iter` and the counts speak of. An entry is cut
//! up only where a partition changes hands: the partition becomes an
//! entry of its own, and the subtrees beside the path down to it become
//! entries of the old owner. A map whose levels are never raised stores
//! one entry per partition.
//!
//! The owner index lists the same partitions as *blocks*, each a partition
//! standing for its descendants in the same way, cut at least as finely as
//! the entries: a hole's fill (below) cuts a block, never an entry.
//!
//! ## The order contract
//!
//! The holdings are the engines' one per-owner partition list, and their
//! order is a contract that the balanced engine's donor policies index
//! into ([`OwnerMap::nth_holding`]). Read over partitions, with each
//! block's descendants in hash-space order at the block's place:
//!
//! * an owner appends what it receives (`insert`, `transfer`);
//! * `transfer` and `remove` fill the old owner's hole with its last
//!   partition; `transfer_shifting` shifts its later partitions up instead;
//! * `split` and `raise` put the left half in the parent's place and the
//!   right half directly after it; `merge` puts the parent in the left
//!   child's place; `lower` leaves the owner's holdings in hash-space
//!   order.
//!
//! | operation                 | complexity                          |
//! |---------------------------|-------------------------------------|
//! | `lookup` / `owner_of`     | `O(log E)`                          |
//! | `insert`                  | `O(log E)`                          |
//! | `remove` / `transfer`     | `O((1 + d)·log E + Bv)`             |
//! | `split` / `merge`         | `O((1 + d)·log E + Bv)`             |
//! | `raise`                   | `O(1)`                              |
//! | `lower`                   | `O(Bv log Bv + f·log E)`            |
//! | `nth_holding`             | `O(Bv)`                             |
//! | `holdings`                | `O(Bv)` (a walk of the index)       |
//!
//! (`E` stored entries, at most the `P` partitions; `Bv` blocks of one
//! owner, at most its `Pv ≤ Pmax` partitions; `d` the depth of the entry
//! a hand-over cuts, 0 for an entry of weight one; `f` the owner's blocks
//! of weight one.) A split or merge cascade over a region is one `raise`
//! per member, or one `lower` per member plus the transfers that pair
//! siblings up — `O(V_g)` plus the partitions that move, never `O(P_g)`.

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

/// A block of one owner's partitions as its index lists it: the partition
/// `index`@`level`, standing for its descendants `lift − mark` levels
/// down (packed into 16 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Held {
    index: u64,
    level: u32,
    mark: u32,
}

impl Held {
    fn new(part: Partition, mark: u32) -> Self {
        Self { index: part.index(), level: part.level(), mark }
    }

    fn part(self) -> Partition {
        Partition::new(self.level, self.index)
    }

    /// `true` iff `q` is this block's partition or lies inside it.
    #[inline]
    fn covers(self, q: Partition) -> bool {
        self.level <= q.level() && q.index() >> (q.level() - self.level) == self.index
    }

    fn start(self, space: HashSpace) -> u64 {
        ((self.index as u128) << (space.bits() - self.level)) as u64
    }
}

/// One owner's slice of the index: its blocks, in the order the module
/// docs state (owners hold few blocks, so a flat vector beats tree
/// surgery on the transfer hot path). 32 bytes: the engines scan the
/// counts of a whole region per membership event.
#[derive(Debug, Clone)]
struct OwnerEntry {
    parts: Vec<Held>,
    /// Partitions held: `Σ 2^depth` over `parts`.
    count: u32,
    /// Raises minus lowers, modulo `2^32`: an entry or block written at
    /// `mark` stands for its descendants `lift − mark` levels down.
    lift: u32,
}

impl OwnerEntry {
    #[inline]
    fn depth(&self, mark: u32) -> u32 {
        self.lift.wrapping_sub(mark)
    }

    /// Cuts the block at `at` down to its sub-block `q`, in place; returns
    /// `q`'s position.
    fn cut_block(&mut self, at: usize, q: Partition) -> usize {
        let h = self.parts[at];
        if h.level == q.level() {
            return at;
        }
        let lift = self.lift;
        let pieces = cut(h.part(), self.depth(h.mark), q);
        self.parts.splice(at..=at, pieces.map(|(p, d)| Held::new(p, lift.wrapping_sub(d))));
        at + cut_position(h.part(), q)
    }

    /// Cuts `q` out as a block of its own; returns its position.
    fn isolate(&mut self, q: Partition) -> usize {
        let at = self.parts.iter().position(|h| h.covers(q)).expect("routed partition is indexed");
        self.cut_block(at, q)
    }
}

/// The per-owner reverse index: a dense arena over [`OwnerKey::dense`].
/// Slots of owners with no partitions are vacated, so the index never
/// keeps an owner alive past its last hand-over.
#[derive(Debug, Clone)]
struct Index {
    slots: Vec<Option<OwnerEntry>>,
    owners: usize,
}

impl Index {
    fn get<T: OwnerKey>(&self, owner: &T) -> Option<&OwnerEntry> {
        self.slots.get(owner.dense()).and_then(Option::as_ref)
    }

    fn of(&self, slot: usize) -> &OwnerEntry {
        self.slots[slot].as_ref().expect("routed owner is indexed")
    }

    fn of_mut(&mut self, slot: usize) -> &mut OwnerEntry {
        self.slots[slot].as_mut().expect("routed owner is indexed")
    }

    /// Appends the partition `p` to slot `slot`'s holdings as a block of
    /// weight one; returns the mark it is written at.
    fn attach(&mut self, slot: usize, p: Partition) -> u32 {
        if self.slots.len() <= slot {
            self.slots.resize_with(slot + 1, || None);
        }
        let e = match &mut self.slots[slot] {
            Some(e) => e,
            vacant => {
                self.owners += 1;
                vacant.insert(OwnerEntry { parts: vec![], count: 0, lift: 0 })
            }
        };
        e.parts.push(Held::new(p, e.lift));
        e.count += 1;
        e.lift
    }

    /// Takes the partition `p` out of slot `slot`'s holdings, vacating the
    /// owner if it empties. Its last partition fills the hole — cut out of
    /// its block, which only the index sees — or with `shift` its later
    /// blocks move up one place.
    fn detach(&mut self, slot: usize, p: Partition, shift: bool) {
        let e = self.of_mut(slot);
        let at = e.isolate(p);
        if shift {
            e.parts.remove(at);
        } else {
            let last = e.parts.len() - 1;
            let h = e.parts[last];
            let depth = e.depth(h.mark);
            if at != last && depth > 0 {
                let tail = (h.index << depth) | ((1u64 << depth) - 1);
                e.cut_block(last, Partition::new(h.level + depth, tail));
            }
            e.parts.swap_remove(at);
        }
        e.count -= 1;
        if e.count == 0 {
            self.slots[slot] = None;
            self.owners -= 1;
        }
    }
}

/// A stored entry as the point-ordered map keeps it.
#[derive(Debug, Clone)]
struct Entry<T> {
    part: Partition,
    owner: T,
    mark: u32,
}

/// The pieces that `block`, standing `depth` levels deep, falls into
/// around its sub-block `q`: the subtrees beside the path down to `q`,
/// and `q`, in hash-space order, each with the depth it stands at.
fn cut(block: Partition, depth: u32, q: Partition) -> Cut<impl Iterator<Item = (Partition, u32)>> {
    debug_assert!(block == q || block.is_ancestor_of(&q));
    let steps = q.level() - block.level();
    // A path that turns right leaves its left sibling before `q`; one
    // that turns left leaves its right sibling after it, nearest first.
    let beside = move |t: u32, right: bool| {
        let on_path = Partition::new(block.level() + t, q.index() >> (steps - t));
        (on_path.index() & 1 == right as u64).then(|| (on_path.sibling(), depth - t))
    };
    let pieces = (1..=steps)
        .filter_map(move |t| beside(t, true))
        .chain(std::iter::once((q, depth - steps)))
        .chain((1..=steps).rev().filter_map(move |t| beside(t, false)));
    Cut { pieces, left: steps as usize + 1 }
}

/// `q`'s position among the pieces of [`cut`]: one per right turn.
fn cut_position(block: Partition, q: Partition) -> usize {
    let steps = q.level() - block.level();
    (q.index() & ((1u64 << steps) - 1)).count_ones() as usize
}

/// The pieces of [`cut`], with their exact number, so that a splice
/// moves the tail of a holdings vector once.
struct Cut<I> {
    pieces: I,
    left: usize,
}

impl<I: Iterator<Item = (Partition, u32)>> Iterator for Cut<I> {
    type Item = (Partition, u32);

    fn next(&mut self) -> Option<Self::Item> {
        let piece = self.pieces.next()?;
        self.left -= 1;
        Some(piece)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<I: Iterator<Item = (Partition, u32)>> ExactSizeIterator for Cut<I> {}

/// Cuts the entry `e`, whose owner's lift is `lift`, down to its
/// sub-block `q`: `e` keeps the first piece, which starts where it did,
/// and the other pieces are returned keyed for insertion. `q`'s piece
/// goes to `new` (owner and mark) when given. Returns the owner before
/// the cut.
fn carve<T: OwnerKey>(
    e: &mut Entry<T>,
    lift: u32,
    q: Partition,
    new: Option<(T, u32)>,
    space: HashSpace,
) -> (T, impl Iterator<Item = (u64, Entry<T>)>) {
    let old = e.owner.clone();
    let entry = {
        let old = old.clone();
        move |(part, depth): (Partition, u32)| match &new {
            Some((owner, mark)) if part == q => Entry { part, owner: owner.clone(), mark: *mark },
            _ => Entry { part, owner: old.clone(), mark: lift.wrapping_sub(depth) },
        }
    };
    let mut pieces = cut(e.part, lift.wrapping_sub(e.mark), q);
    *e = entry(pieces.next().expect("a cut has a first piece"));
    (old, pieces.map(move |piece| (piece.0.start(space), entry(piece))))
}

/// Maps every point of a [`HashSpace`] to an owner `T` through a set of
/// non-overlapping [`Partition`]s, with a per-owner reverse index.
#[derive(Debug, Clone)]
pub struct OwnerMap<T> {
    space: HashSpace,
    // start point → entry. Starts are unique because entries never
    // overlap; the partition carries its level (and thus its end).
    entries: BTreeMap<u64, Entry<T>>,
    index: Index,
    // Σ of the owners' partition counts.
    partitions: usize,
}

impl<T: OwnerKey> OwnerMap<T> {
    /// An empty map over `space`.
    pub fn new(space: HashSpace) -> Self {
        Self {
            space,
            entries: BTreeMap::new(),
            index: Index { slots: Vec::new(), owners: 0 },
            partitions: 0,
        }
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

    /// Number of partitions (an entry counts as its weight).
    pub fn len(&self) -> usize {
        self.partitions
    }

    /// Number of stored entries — at most [`OwnerMap::len`], and equal to
    /// it while no level is raised.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no partitions are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of distinct owners currently holding partitions.
    pub fn owner_count(&self) -> usize {
        self.index.owners
    }

    /// How many levels below its stored partition an entry stands.
    #[inline]
    fn depth_of(&self, e: &Entry<T>) -> u32 {
        self.index.of(e.owner.dense()).depth(e.mark)
    }

    /// The entry standing for `p`, when `p` is one of the partitions the
    /// map routes.
    fn route(&self, p: Partition) -> Option<&Entry<T>> {
        let (_, e) = self.entries.range(..=p.start(self.space)).next_back()?;
        let covers = e.part == p || e.part.is_ancestor_of(&p);
        (covers && e.part.level() + self.depth_of(e) == p.level()).then_some(e)
    }

    /// Cuts the stored entry holding the block `q` down to `q`, the
    /// subtrees beside the path becoming entries of the same owner, and
    /// hands `q`'s entry to `new` (owner and mark) when given.
    fn cut_entry(&mut self, q: Partition, new: Option<(T, u32)>) {
        let (_, e) =
            self.entries.range_mut(..=q.start(self.space)).next_back().expect("q is routed");
        let lift = self.index.of(e.owner.dense()).lift;
        let (_, rest) = carve(e, lift, q, new, self.space);
        self.entries.extend(rest);
    }

    /// Inserts a partition with its owner.
    ///
    /// Rejects any insertion that would overlap an existing entry.
    pub fn insert(&mut self, p: Partition, owner: T) -> Result<(), MapError> {
        let start = p.start(self.space);
        // Any overlapping entry either starts within [start, end) or starts
        // before `start` and extends past it; check both neighbours.
        if let Some((&s, e)) = self.entries.range(..=start).next_back() {
            if (s as u128) + e.part.size(self.space) > start as u128 {
                return Err(MapError::Overlap(p));
            }
        }
        if let Some((&s, _)) = self.entries.range(start..).next() {
            if (s as u128) < p.end(self.space) {
                return Err(MapError::Overlap(p));
            }
        }
        let mark = self.index.attach(owner.dense(), p);
        self.entries.insert(start, Entry { part: p, owner, mark });
        self.partitions += 1;
        Ok(())
    }

    /// Removes a partition, returning its owner. The owner's last
    /// partition fills the hole.
    pub fn remove(&mut self, p: Partition) -> Result<T, MapError> {
        let slot = self.route(p).ok_or(MapError::Missing(p))?.owner.dense();
        self.cut_entry(p, None);
        self.index.detach(slot, p, false);
        self.partitions -= 1;
        Ok(self.entries.remove(&p.start(self.space)).expect("p was cut out").owner)
    }

    /// Reassigns a partition to a new owner, returning the old one. The old
    /// owner's last partition fills the hole.
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
        // Most hand-overs move an entry of weight one: one exact probe.
        let e = match self.entries.get_mut(&start) {
            Some(e) if e.part.level() <= p.level() => e,
            _ => self.entries.range_mut(..start).next_back().ok_or(MapError::Missing(p))?.1,
        };
        let slot = e.owner.dense();
        let lift = self.index.of(slot).lift;
        let depth = lift.wrapping_sub(e.mark);
        if (e.part != p && !e.part.is_ancestor_of(&p)) || e.part.level() + depth != p.level() {
            return Err(MapError::Missing(p));
        }
        self.index.detach(slot, p, shift);
        let mark = self.index.attach(new_owner.dense(), p);
        if e.part == p {
            e.mark = mark;
            return Ok(std::mem::replace(&mut e.owner, new_owner));
        }
        // A larger entry keeps its other partitions with the old owner.
        let (old, rest) = carve(e, lift, p, Some((new_owner, mark)), self.space);
        self.entries.extend(rest);
        Ok(old)
    }

    /// Splits a partition in place; both halves keep the owner.
    ///
    /// The partition's entry comes to stand for both halves, so no entry
    /// is added and no overlap re-validation is needed.
    pub fn split(&mut self, p: Partition) -> Result<(Partition, Partition), MapError> {
        let owner = self.route(p).ok_or(MapError::Missing(p))?.owner.clone();
        debug_assert!(p.level() < self.space.bits(), "split below the space's resolution");
        let e = self.index.of_mut(owner.dense());
        let mark = e.lift.wrapping_sub(1);
        let at = e.isolate(p);
        e.parts[at].mark = mark;
        e.count += 1;
        self.cut_entry(p, Some((owner, mark)));
        self.partitions += 1;
        Ok(p.split())
    }

    /// Merges two sibling partitions owned by the same owner into their
    /// parent. Returns the parent.
    pub fn merge(&mut self, a: Partition, b: Partition) -> Result<Partition, MapError> {
        let parent = Partition::merge(a, b).ok_or(MapError::Missing(b))?;
        let owner_b = self.route(b).ok_or(MapError::Missing(b))?.owner.clone();
        let owner = self.route(a).ok_or(MapError::Missing(a))?.owner.clone();
        if owner != owner_b {
            return Err(MapError::Overlap(parent)); // owners differ: refuse
        }
        let (space, slot) = (self.space, owner.dense());
        // The index: b's place is filled, then the parent takes a's place.
        self.index.detach(slot, b, false);
        let e = self.index.of_mut(slot);
        let mark = e.lift;
        let at = e.isolate(a);
        e.parts[at] = Held::new(parent, mark);
        // The entry map: one entry for the parent, standing for itself.
        if self.route(a).is_some_and(|e| e.part == a) {
            // Each child is an entry of its own.
            self.entries.remove(&b.start(space));
            let e = self.entries.remove(&a.start(space)).expect("a is an entry");
            self.entries.insert(parent.start(space), Entry { part: parent, ..e });
        }
        self.cut_entry(parent, Some((owner, mark)));
        self.partitions -= 1;
        Ok(parent)
    }

    /// Binary-splits every partition `owner` holds, in place — `O(1)`:
    /// every entry and block comes to stand one level deeper. A no-op for
    /// an owner with no holdings.
    ///
    /// The caller guarantees every partition sits above the space's
    /// resolution floor (level < `Bh`), exactly as for [`OwnerMap::split`].
    pub fn raise(&mut self, owner: &T) {
        let bits = self.space.bits();
        if let Some(e) = self.index.slots.get_mut(owner.dense()).and_then(Option::as_mut) {
            debug_assert!(
                e.parts.iter().all(|h| h.level + e.depth(h.mark) < bits),
                "raise below the space's resolution"
            );
            e.lift = e.lift.wrapping_add(1);
            self.partitions += e.count as usize;
            e.count = e.count.checked_mul(2).expect("an owner holds fewer than 2^32 partitions");
        }
    }

    /// Binary-merges every sibling pair of partitions `owner` holds — the
    /// inverse of [`OwnerMap::raise`] — and leaves its holdings in
    /// hash-space order. Only blocks and entries of weight one are
    /// touched: each sibling pair of them becomes one for the parent. A
    /// no-op for an owner with no holdings.
    ///
    /// Fails with [`MapError::Missing`] (naming the absent sibling), and
    /// changes nothing, unless `owner` holds the sibling of each of its
    /// partitions.
    pub fn lower(&mut self, owner: &T) -> Result<(), MapError> {
        let space = self.space;
        let Self { entries, index, partitions, .. } = self;
        let Some(e) = index.slots.get_mut(owner.dense()).and_then(Option::as_mut) else {
            return Ok(());
        };
        let mut parts = e.parts.clone();
        parts.sort_unstable_by_key(|h| h.start(space));
        // In hash order a weight-one left child is followed by its sibling,
        // when the owner holds it.
        let mut fine = parts.iter().filter(|h| e.depth(h.mark) == 0).map(|h| h.part());
        while let Some(p) = fine.next() {
            if p.level() == 0 {
                return Err(MapError::Missing(p));
            }
            if p.index() & 1 == 1 || fine.next() != Some(p.sibling()) {
                return Err(MapError::Missing(p.sibling()));
            }
        }
        // When a child is an entry of its own, so is its sibling.
        let merged = e.lift.wrapping_sub(1);
        let (mut kept, mut i) = (0, 0);
        while i < parts.len() {
            let h = parts[i];
            if e.depth(h.mark) == 0 {
                let (child, parent) = (h.part(), h.part().parent().expect("checked above"));
                if let Some(entry) =
                    entries.get_mut(&child.start(space)).filter(|x| x.part == child)
                {
                    (entry.part, entry.mark) = (parent, merged);
                    entries.remove(&child.sibling().start(space));
                }
                parts[kept] = Held::new(parent, merged);
                i += 2;
            } else {
                parts[kept] = h;
                i += 1;
            }
            kept += 1;
        }
        parts.truncate(kept);
        e.parts = parts;
        e.lift = merged;
        e.count /= 2;
        *partitions -= e.count as usize;
        Ok(())
    }

    /// The partition containing `point` and its owner, if any entry covers
    /// the point.
    pub fn lookup(&self, point: u64) -> Option<(Partition, &T)> {
        debug_assert!(self.space.contains(point));
        let (_, e) = self.entries.range(..=point).next_back()?;
        if !e.part.contains(point, self.space) {
            return None;
        }
        let p = match self.depth_of(e) {
            0 => e.part,
            depth => Partition::containing(e.part.level() + depth, point, self.space),
        };
        Some((p, &e.owner))
    }

    /// The owner of exactly this partition, if present.
    pub fn owner_of(&self, p: Partition) -> Option<&T> {
        self.route(p).map(|e| &e.owner)
    }

    /// Iterates `(partition, owner)` in hash-space order.
    pub fn iter(&self) -> impl Iterator<Item = (Partition, &T)> {
        self.entries
            .values()
            .flat_map(move |e| e.part.descendants(self.depth_of(e)).map(move |p| (p, &e.owner)))
    }

    /// Iterates the stored entries as `(block, owner)` in hash-space
    /// order, **starting at the entry containing `point`**, wrapping past
    /// the top of the space, each entry once — the routing walk that
    /// snapshots and replica placers read. The first item is the point's
    /// owner (the primary). A block stands for its descendants (it may be
    /// coarser than [`OwnerMap::lookup`]'s partition), so the blocks tile
    /// the space exactly when the map covers it. Empty when the map is
    /// empty.
    pub fn successors(&self, point: u64) -> impl Iterator<Item = (Partition, &T)> {
        debug_assert!(self.space.contains(point));
        let pivot = match self.entries.range(..=point).next_back() {
            Some((&s, _)) => s,
            // No entry at or below the point: the wrap begins at the first
            // entry (only reachable on a non-covering map).
            None => 0,
        };
        self.entries
            .range(pivot..)
            .chain(self.entries.range(..pivot))
            .map(|(_, e)| (e.part, &e.owner))
    }

    /// `owner`'s blocks in holdings order, each with its depth: the block
    /// stands for its `2^depth` descendants `depth` levels down
    /// ([`Partition::descendants`]), which are `owner`'s partitions in the
    /// order the module docs state.
    pub fn holdings(&self, owner: &T) -> impl Iterator<Item = (Partition, u32)> + '_ {
        self.index
            .get(owner)
            .into_iter()
            .flat_map(|e| e.parts.iter().map(move |h| (h.part(), e.depth(h.mark))))
    }

    /// The `n`-th of `owner`'s partitions in holdings order (`None` past
    /// its count) — `O(Bv)`.
    pub fn nth_holding(&self, owner: &T, mut n: usize) -> Option<Partition> {
        let e = self.index.get(owner)?;
        if e.count as usize == e.parts.len() {
            // Every block has weight one.
            return e.parts.get(n).map(|h| h.part());
        }
        for h in &e.parts {
            let depth = e.depth(h.mark);
            if n >> depth == 0 {
                return Some(Partition::new(h.level + depth, (h.index << depth) | n as u64));
            }
            n -= 1 << depth;
        }
        None
    }

    /// Number of partitions held by `owner` — `O(1)`.
    pub fn partition_count_of(&self, owner: &T) -> usize {
        self.index.get(owner).map_or(0, |e| e.count as usize)
    }

    /// Verifies invariant G1: the entries tile `R_h` exactly — no gaps, no
    /// overlaps, total size `2^Bh`.
    pub fn verify_coverage(&self) -> Result<(), MapError> {
        let mut cursor: u128 = 0;
        for (&start, e) in &self.entries {
            if (start as u128) != cursor {
                return Err(MapError::Gap(cursor as u64));
            }
            cursor = start as u128 + e.part.size(self.space);
        }
        if cursor != self.space.size() {
            return Err(MapError::BadTotal { covered: cursor, expected: self.space.size() });
        }
        Ok(())
    }

    /// Verifies the owner index against a from-scratch recomputation over
    /// the entry map: each owner's blocks tile exactly its entries, at
    /// their depth; its count is the weights they sum; `len` is the counts'
    /// sum (O(E log E); test/debug oracle).
    pub fn verify_index(&self) -> Result<(), MapError> {
        let drift = |d: String| Err(MapError::IndexDrift(d));
        let mut fresh: BTreeMap<usize, Vec<&Entry<T>>> = BTreeMap::new();
        for (&start, e) in &self.entries {
            if start != e.part.start(self.space) {
                return drift(format!("entry {} keyed at {start}", e.part));
            }
            fresh.entry(e.owner.dense()).or_default().push(e);
        }
        let indexed = self.index.slots.iter().flatten().count();
        if fresh.len() != indexed || indexed != self.index.owners {
            return drift(format!(
                "{} owners counted, {indexed} indexed, {} found in entries",
                self.index.owners,
                fresh.len()
            ));
        }
        let mut total = 0;
        for (slot, entries) in fresh {
            let owner = &entries[0].owner;
            let Some(o) = self.index.slots.get(slot).and_then(Option::as_ref) else {
                return drift(format!("owner {owner:?} missing"));
            };
            if let Some(e) = entries.iter().find(|e| e.owner != *owner) {
                return drift(format!("owners {owner:?} and {:?} share slot {slot}", e.owner));
            }
            let mut blocks = o.parts.clone();
            blocks.sort_unstable_by_key(|h| h.start(self.space));
            let mut blocks = blocks.into_iter();
            for e in entries {
                let level = e.part.level() + o.depth(e.mark);
                let mut cursor = e.part.start(self.space) as u128;
                while cursor < e.part.end(self.space) {
                    let tiles = blocks.next().is_some_and(|h| {
                        h.start(self.space) as u128 == cursor
                            && (e.part == h.part() || e.part.is_ancestor_of(&h.part()))
                            && h.level + o.depth(h.mark) == level
                            && {
                                cursor += h.part().size(self.space);
                                true
                            }
                    });
                    if !tiles {
                        return drift(format!("owner {owner:?}: blocks do not tile {}", e.part));
                    }
                }
            }
            if blocks.next().is_some() {
                return drift(format!("owner {owner:?}: blocks outside its entries"));
            }
            let weight: usize = o.parts.iter().map(|h| 1usize << o.depth(h.mark)).sum();
            if weight != o.count as usize {
                return drift(format!("owner {owner:?}: count {} of weight {weight}", o.count));
            }
            total += weight;
        }
        if total != self.partitions {
            return drift(format!("{} partitions counted, {total} held", self.partitions));
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

    /// `owner`'s partitions in holdings order.
    fn held(m: &OwnerMap<u32>, owner: u32) -> Vec<Partition> {
        m.holdings(&owner).flat_map(|(p, depth)| p.descendants(depth)).collect()
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
        assert_eq!(held(&m, 0), [Partition::ROOT]);
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
        assert_eq!(m.owner_of(Partition::ROOT), None, "the parent is no longer routed");
        assert_eq!(held(&m, 0), [a, b]);
    }

    #[test]
    fn transfer_changes_routing() {
        let mut m = OwnerMap::whole(space(), 0u32);
        let (a, b) = m.split(Partition::ROOT).unwrap();
        let old = m.transfer(b, 1).unwrap();
        assert_eq!(old, 0);
        assert_eq!(m.lookup(0).unwrap().1, &0);
        assert_eq!(m.lookup(255).unwrap().1, &1);
        assert_eq!(held(&m, 0), [a]);
        assert_eq!(held(&m, 1), [b]);
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
        assert!(held(&m, 3).is_empty());
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
        assert_eq!(held(&m, 0), [p(2, 0), p(3, 2), p(3, 3), p(2, 2), p(2, 3)]);
        // A transfer fills the donor's hole with its last partition and
        // appends at the receiver.
        m.transfer(p(3, 2), 1).unwrap();
        m.transfer(p(2, 0), 1).unwrap();
        assert_eq!(held(&m, 0), [p(2, 2), p(2, 3), p(3, 3)]);
        assert_eq!(held(&m, 1), [p(3, 2), p(2, 0)]);
        // The shifting transfer keeps the donor's order.
        m.transfer_shifting(p(2, 3), 1).unwrap();
        assert_eq!(held(&m, 0), [p(2, 2), p(3, 3)]);
        assert_eq!(held(&m, 1), [p(3, 2), p(2, 0), p(2, 3)]);
        // A merge puts the parent in the left child's place; lowering
        // merges every pair and leaves hash-space order.
        m.transfer(p(2, 2), 1).unwrap();
        m.transfer(p(3, 3), 1).unwrap();
        m.merge(p(3, 2), p(3, 3)).unwrap();
        assert_eq!(held(&m, 1), [p(2, 1), p(2, 0), p(2, 3), p(2, 2)]);
        m.lower(&1).unwrap();
        assert_eq!(held(&m, 1), [p(1, 0), p(1, 1)]);
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
        let owners = |m: &OwnerMap<u32>, point| m.successors(point).map(|(_, &o)| o).collect();
        let walk: Vec<u32> = owners(&m, 130);
        assert_eq!(walk, vec![2, 3, 0, 1]);
        // Starting at point 0 is plain hash-space order.
        let walk: Vec<u32> = owners(&m, 0);
        assert_eq!(walk, vec![0, 1, 2, 3]);
        // The first item always matches lookup.
        for point in [0u64, 77, 128, 255] {
            assert_eq!(m.successors(point).next(), m.lookup(point));
        }
        // A raised owner's entry stands for several partitions but is
        // walked once, as its block: the blocks still tile the space.
        m.raise(&2);
        assert_eq!(m.len(), 5);
        assert_eq!(owners(&m, 130), vec![2, 3, 0, 1]);
        let blocks: Vec<Partition> = m.successors(0).map(|(p, _)| p).collect();
        assert_eq!(blocks, (0..4).map(|i| Partition::new(2, i)).collect::<Vec<_>>());
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
    fn raise_doubles_every_holding() {
        let mut m = OwnerMap::new(space());
        for i in 0..4u64 {
            m.insert(Partition::new(2, i), (i % 2) as u32).unwrap();
        }
        m.raise(&0);
        m.raise(&1);
        assert_eq!(m.len(), 8);
        assert_eq!(m.entry_count(), 4, "a raise stores nothing new");
        m.verify_coverage().unwrap();
        m.verify_index().unwrap();
        for i in 0..8u64 {
            assert_eq!(m.owner_of(Partition::new(3, i)), Some(&(((i / 2) % 2) as u32)));
            assert_eq!(m.lookup(i * 32 + 5).unwrap().0, Partition::new(3, i));
        }
        assert_eq!(m.owner_of(Partition::new(2, 0)), None, "level-2 partitions are gone");
        // Every owner's holdings interleave the halves, in place.
        let at3 = |is: [u64; 4]| is.map(|i| Partition::new(3, i));
        assert_eq!(held(&m, 0), at3([0, 1, 4, 5]));
        assert_eq!(held(&m, 1), at3([2, 3, 6, 7]));
        assert_eq!(m.nth_holding(&1, 2), Some(Partition::new(3, 6)));
        assert_eq!(m.nth_holding(&1, 4), None);
    }

    #[test]
    fn lower_merges_sibling_pairs_or_changes_nothing() {
        let p = |l, i| Partition::new(l, i);
        let mut m = OwnerMap::whole(space(), 0u32);
        m.raise(&0);
        m.raise(&0);
        // Four level-2 partitions in one entry; moving the second one out
        // cuts the entry along the path to it. The donor's last partition
        // fills the hole in its index only.
        m.transfer(p(2, 1), 1).unwrap();
        assert_eq!(held(&m, 0), [p(2, 0), p(2, 3), p(2, 2)]);
        assert_eq!(m.entry_count(), 3);
        m.verify_index().unwrap();
        // Owner 0 lacks p(2, 1): nothing changes.
        assert_eq!(m.lower(&0), Err(MapError::Missing(p(2, 1))));
        assert_eq!(held(&m, 0), [p(2, 0), p(2, 3), p(2, 2)]);
        m.transfer(p(2, 1), 0).unwrap();
        m.lower(&0).unwrap();
        assert_eq!(held(&m, 0), [p(1, 0), p(1, 1)]);
        assert_eq!(m.entry_count(), 2);
        // A raised owner lowers without touching its entries.
        m.raise(&0);
        m.lower(&0).unwrap();
        assert_eq!(m.entry_count(), 2);
        assert_eq!(m.len(), 2);
        m.verify_coverage().unwrap();
        m.verify_index().unwrap();
    }

    /// The order contract, spelled out over one flat list of partitions
    /// per owner — the representation before entries stood for their
    /// descendants.
    #[derive(Default)]
    struct Flat {
        held: Vec<Vec<Partition>>,
    }

    impl Flat {
        fn owner_of(&self, p: Partition) -> Option<(usize, usize)> {
            self.held
                .iter()
                .enumerate()
                .find_map(|(o, h)| Some((o, h.iter().position(|&q| q == p)?)))
        }
        fn give(&mut self, p: Partition, to: usize, shift: bool) {
            let (o, at) = self.owner_of(p).unwrap();
            if shift {
                self.held[o].remove(at);
            } else {
                self.held[o].swap_remove(at);
            }
            self.held[to].push(p);
        }
        fn split(&mut self, p: Partition) {
            let (o, at) = self.owner_of(p).unwrap();
            let (a, b) = p.split();
            self.held[o][at] = a;
            self.held[o].insert(at + 1, b);
        }
        fn merge(&mut self, a: Partition, b: Partition) {
            let (o, at) = self.owner_of(b).unwrap();
            self.held[o].swap_remove(at);
            let (_, at) = self.owner_of(a).unwrap();
            self.held[o][at] = a.parent().unwrap();
        }
        fn raise(&mut self, o: usize) {
            self.held[o] = self.held[o].iter().flat_map(|p| <[_; 2]>::from(p.split())).collect();
        }
        /// `false` (changing nothing) unless `o` holds every sibling.
        fn lower(&mut self, o: usize) -> bool {
            let h = &self.held[o];
            if !h.iter().all(|p| p.level() > 0 && h.contains(&p.sibling())) {
                return false;
            }
            let mut parents: Vec<Partition> = h.iter().filter_map(|p| p.parent()).collect();
            parents.sort_by_key(|p| p.start(space()));
            parents.dedup();
            self.held[o] = parents;
            true
        }
        fn lookup(&self, point: u64) -> Option<(Partition, u32)> {
            self.held.iter().enumerate().find_map(|(o, h)| {
                h.iter().find(|p| p.contains(point, space())).map(|&p| (p, o as u32))
            })
        }
    }

    #[test]
    fn randomized_walk_matches_the_flat_order_contract() {
        const OWNERS: usize = 6;
        let mut m = OwnerMap::whole(space(), 0u32);
        let mut flat = Flat { held: vec![Vec::new(); OWNERS] };
        flat.held[0].push(Partition::ROOT);
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut rng = move |n: usize| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as usize
        };
        let mut lowered = 0;
        for step in 0..3000 {
            let o = rng(OWNERS);
            let count = flat.held[o].len();
            match rng(8) {
                // Raise an owner while its partitions stay coarse enough.
                0 if count > 0 && count < 16 && flat.held[o].iter().all(|p| p.level() < 7) => {
                    flat.raise(o);
                    m.raise(&(o as u32));
                }
                1 => {
                    let ok = flat.lower(o);
                    assert_eq!(m.lower(&(o as u32)).is_ok(), ok, "step {step}: lower({o})");
                    lowered += ok as usize;
                }
                // Gather the siblings of an owner's holdings, so lowers
                // succeed.
                2 => {
                    for p in flat.held[o].clone() {
                        let sibling = if p.level() > 0 { p.sibling() } else { continue };
                        if flat.owner_of(sibling).is_some_and(|(s, _)| s != o) {
                            flat.give(sibling, o, false);
                            m.transfer(sibling, o as u32).unwrap();
                        }
                    }
                }
                // Hand one partition on, picked as the donor policies pick.
                3..=5 if count > 0 => {
                    let (n, shift) = match rng(3) {
                        0 => (rng(count), false),
                        1 => (count - 1, false),
                        _ => (0, true),
                    };
                    let p = m.nth_holding(&(o as u32), n).unwrap();
                    assert_eq!(p, flat.held[o][n], "step {step}: pick {n} of owner {o}");
                    let to = rng(OWNERS);
                    flat.give(p, to, shift);
                    let old = if shift {
                        m.transfer_shifting(p, to as u32)
                    } else {
                        m.transfer(p, to as u32)
                    };
                    assert_eq!(old, Ok(o as u32));
                }
                6 if count > 0 => {
                    let p = flat.held[o][rng(count)];
                    if p.level() < 8 {
                        flat.split(p);
                        assert_eq!(m.split(p), Ok(p.split()));
                    }
                }
                7 if count > 0 => {
                    let p = flat.held[o][rng(count)];
                    if p.level() > 0 && flat.owner_of(p.sibling()).is_some_and(|(s, _)| s == o) {
                        let (a, b) =
                            if p.index() % 2 == 0 { (p, p.sibling()) } else { (p.sibling(), p) };
                        flat.merge(a, b);
                        assert_eq!(m.merge(a, b), Ok(a.parent().unwrap()));
                    }
                }
                _ => {}
            }
            for owner in 0..OWNERS {
                assert_eq!(held(&m, owner as u32), flat.held[owner], "step {step}: owner {owner}");
                assert_eq!(m.partition_count_of(&(owner as u32)), flat.held[owner].len());
            }
            for point in (0..256).step_by(7) {
                assert_eq!(
                    m.lookup(point).map(|(p, &o)| (p, o)),
                    flat.lookup(point),
                    "step {step}"
                );
            }
            assert_eq!(m.len(), flat.held.iter().map(Vec::len).sum::<usize>());
            m.verify_coverage().unwrap_or_else(|e| panic!("step {step}: {e}"));
            m.verify_index().unwrap_or_else(|e| panic!("step {step}: {e}"));
        }
        assert!(lowered > 50, "the walk exercised lower only {lowered} times");
        assert!(m.entry_count() < m.len(), "the walk ends with entries standing for several");
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
