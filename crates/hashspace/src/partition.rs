//! Partitions and the splitlevel algebra (§2.1.3, §3.4 of the paper).
//!
//! "Every partition of `R_h` results from the binary split (division, in two
//! equal parts) of another partition; the splitlevel of a partition may be
//! defined as the number of binary splits needed, departing from `R_h`, to
//! reach the current size of the partition. Thus, a partition in splitlevel
//! `l` will have `1/2^l` the size of `R_h`."
//!
//! A partition is represented as `(level, index)` — the `index`-th interval
//! of size `2^(Bh−level)`. Bounds are always *derived*, never stored, which
//! makes the non-overlap invariant (G1) structural: two partitions overlap
//! iff one is an ancestor of the other in the binary-split tree.

use crate::quota::Quota;
use crate::space::HashSpace;

/// A contiguous subset of the hash range produced by binary splits:
/// `[index · 2^(Bh−level), (index+1) · 2^(Bh−level))`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Partition {
    level: u32,
    index: u64,
}

impl Partition {
    /// The whole hash range (splitlevel 0).
    pub const ROOT: Partition = Partition { level: 0, index: 0 };

    /// The partition at `(level, index)`.
    ///
    /// # Panics
    /// Panics if `level > 64` or `index` is not below `2^level`.
    pub fn new(level: u32, index: u64) -> Self {
        assert!(level <= 64, "splitlevel {level} exceeds 64");
        if level < 64 {
            assert!(
                index < (1u64 << level),
                "partition index {index} out of range for level {level}"
            );
        }
        Self { level, index }
    }

    /// The splitlevel `l`.
    #[inline]
    pub fn level(&self) -> u32 {
        self.level
    }

    /// The index within the level (0-based, left to right).
    #[inline]
    pub fn index(&self) -> u64 {
        self.index
    }

    /// First point of the partition in `space`.
    ///
    /// # Panics
    /// Panics (debug) if the level is deeper than the space has bits.
    #[inline]
    pub fn start(&self, space: HashSpace) -> u64 {
        debug_assert!(self.level <= space.bits(), "partition deeper than the space");
        if self.level == 0 {
            0
        } else {
            self.index << (space.bits() - self.level)
        }
    }

    /// Size in points: `2^(Bh − l)`.
    #[inline]
    pub fn size(&self, space: HashSpace) -> u128 {
        debug_assert!(self.level <= space.bits());
        1u128 << (space.bits() - self.level)
    }

    /// One-past-the-end point (u128: the last partition ends at `2^Bh`).
    #[inline]
    pub fn end(&self, space: HashSpace) -> u128 {
        self.start(space) as u128 + self.size(space)
    }

    /// `true` iff `point` lies inside this partition.
    #[inline]
    pub fn contains(&self, point: u64, space: HashSpace) -> bool {
        let s = self.start(space);
        (point as u128) >= (s as u128) && (point as u128) < self.end(space)
    }

    /// The exact fraction of the hash range this partition covers: `1/2^l`.
    #[inline]
    pub fn quota(&self) -> Quota {
        Quota::new(1, self.level)
    }

    /// Binary split into the (left, right) halves at `level + 1` (§3.4).
    ///
    /// # Panics
    /// Panics if the partition is already at the maximum splitlevel (64).
    pub fn split(&self) -> (Partition, Partition) {
        assert!(self.level < 64, "cannot split a level-64 partition");
        let l = self.level + 1;
        (
            Partition { level: l, index: self.index << 1 },
            Partition { level: l, index: (self.index << 1) | 1 },
        )
    }

    /// The `2^levels` descendants `levels` splits below this partition,
    /// left to right — the partition itself for `levels == 0`.
    ///
    /// # Panics
    /// Panics if the descendants would sit below splitlevel 64.
    pub fn descendants(&self, levels: u32) -> impl Iterator<Item = Partition> {
        assert!(levels < 64 && self.level + levels <= 64, "descendants below splitlevel 64");
        let (level, first) = (self.level + levels, self.index << levels);
        (0..1u64 << levels).map(move |k| Partition { level, index: first | k })
    }

    /// The sibling under the same parent (the other half of the split).
    ///
    /// # Panics
    /// Panics for the root (it has no sibling).
    pub fn sibling(&self) -> Partition {
        assert!(self.level > 0, "the root partition has no sibling");
        Partition { level: self.level, index: self.index ^ 1 }
    }

    /// The parent partition (one binary merge up), or `None` for the root.
    pub fn parent(&self) -> Option<Partition> {
        if self.level == 0 {
            None
        } else {
            Some(Partition { level: self.level - 1, index: self.index >> 1 })
        }
    }

    /// Merges two sibling partitions back into their parent.
    ///
    /// Returns `None` when the partitions are not siblings.
    pub fn merge(a: Partition, b: Partition) -> Option<Partition> {
        if a.level == b.level && a.level > 0 && a.index ^ 1 == b.index {
            a.parent()
        } else {
            None
        }
    }

    /// `true` iff `self` is a strict ancestor of `other` in the split tree.
    pub fn is_ancestor_of(&self, other: &Partition) -> bool {
        self.level < other.level && (other.index >> (other.level - self.level)) == self.index
    }

    /// `true` iff the two partitions share any point — by the split-tree
    /// structure, iff one is an ancestor of (or equal to) the other.
    pub fn overlaps(&self, other: &Partition) -> bool {
        self == other || self.is_ancestor_of(other) || other.is_ancestor_of(self)
    }

    /// The partition at splitlevel `level` that contains `point`.
    pub fn containing(level: u32, point: u64, space: HashSpace) -> Partition {
        assert!(level <= space.bits(), "level {level} deeper than space ({} bits)", space.bits());
        let index = if level == 0 { 0 } else { point >> (space.bits() - level) };
        Partition { level, index }
    }

    /// All `2^level` partitions of a level, left to right (test/debug aid —
    /// O(2^level), only sensible for small levels).
    pub fn all_at_level(level: u32) -> impl Iterator<Item = Partition> {
        assert!(level < 63, "all_at_level is a small-level debug aid");
        (0..(1u64 << level)).map(move |index| Partition { level, index })
    }

    /// The minimal sequence of non-overlapping partitions tiling the
    /// half-open interval `[start, end)` exactly, in ascending point order
    /// (the greedy dyadic decomposition; at most `2·Bh` pieces).
    ///
    /// This is how an *arbitrary* interval — e.g. a consistent-hashing arc
    /// — is expressed in the model's partition algebra: each piece is the
    /// largest split-tree block that starts at the current offset and fits
    /// in the remaining span.
    ///
    /// # Panics
    /// Panics if `end` exceeds the space size or `start as u128 > end`.
    pub fn cover_range(space: HashSpace, start: u64, end: u128) -> Vec<Partition> {
        let mut out = Vec::new();
        Self::for_each_cover(space, start, end, &mut |p| out.push(p));
        out
    }

    /// Visits [`Partition::cover_range`]`(space, start, end)` piece by
    /// piece without materialising the cover — the allocation-free form
    /// the streaming transfer paths use.
    ///
    /// # Panics
    /// Panics if `end` exceeds the space size or `start as u128 > end`.
    pub fn for_each_cover(space: HashSpace, start: u64, end: u128, f: &mut dyn FnMut(Partition)) {
        assert!(end <= space.size(), "range end beyond the space");
        assert!((start as u128) <= end, "inverted range");
        let mut at = start as u128;
        while at < end {
            // Largest block aligned at `at`…
            let align =
                if at == 0 { space.bits() } else { (at.trailing_zeros()).min(space.bits()) };
            // …capped by the largest power of two fitting the remainder.
            let fit = 127 - (end - at).leading_zeros();
            let k = align.min(fit);
            let level = space.bits() - k;
            f(Partition { level, index: (at >> k) as u64 });
            at += 1u128 << k;
        }
    }

    /// The piece of [`Partition::cover_range`]`(space, start, end)` that
    /// contains `point`, without materialising the cover — the same greedy
    /// walk, O(Bh) arithmetic and no allocation.
    ///
    /// # Panics
    /// Panics if `point` lies outside `[start, end)` (debug) or the range
    /// is invalid.
    pub fn cover_piece_containing(
        space: HashSpace,
        start: u64,
        end: u128,
        point: u64,
    ) -> Partition {
        debug_assert!(
            (point as u128) >= (start as u128) && (point as u128) < end,
            "point outside the covered range"
        );
        assert!(end <= space.size(), "range end beyond the space");
        let mut at = start as u128;
        loop {
            let align = if at == 0 {
                space.bits()
            } else {
                ((at as u64).trailing_zeros()).min(space.bits())
            };
            let fit = 127 - (end - at).leading_zeros();
            let k = align.min(fit);
            if (point as u128) < at + (1u128 << k) {
                return Partition { level: space.bits() - k, index: (at >> k) as u64 };
            }
            at += 1u128 << k;
        }
    }
}

impl std::fmt::Display for Partition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}:{}", self.level, self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s8() -> HashSpace {
        HashSpace::new(8)
    }

    #[test]
    fn root_covers_everything() {
        let s = s8();
        assert_eq!(Partition::ROOT.start(s), 0);
        assert_eq!(Partition::ROOT.size(s), 256);
        assert!(Partition::ROOT.contains(0, s));
        assert!(Partition::ROOT.contains(255, s));
    }

    #[test]
    fn split_halves_exactly() {
        let s = s8();
        let (l, r) = Partition::ROOT.split();
        assert_eq!(l.start(s), 0);
        assert_eq!(l.size(s), 128);
        assert_eq!(r.start(s), 128);
        assert_eq!(r.size(s), 128);
        assert_eq!(l.end(s), r.start(s) as u128);
        assert_eq!(r.end(s), 256);
    }

    #[test]
    fn split_then_merge_roundtrips() {
        let p = Partition::new(3, 5);
        let (a, b) = p.split();
        assert_eq!(Partition::merge(a, b), Some(p));
        assert_eq!(Partition::merge(b, a), Some(p));
        assert_eq!(a.sibling(), b);
        assert_eq!(b.sibling(), a);
        assert_eq!(a.parent(), Some(p));
    }

    #[test]
    fn merge_rejects_non_siblings() {
        let a = Partition::new(3, 0);
        let b = Partition::new(3, 2);
        assert_eq!(Partition::merge(a, b), None);
        let c = Partition::new(2, 1);
        assert_eq!(Partition::merge(a, c), None);
        assert_eq!(Partition::merge(Partition::ROOT, Partition::ROOT), None);
    }

    #[test]
    fn quota_is_one_over_two_to_level() {
        assert_eq!(Partition::ROOT.quota().to_f64(), 1.0);
        assert_eq!(Partition::new(3, 7).quota().to_f64(), 0.125);
    }

    #[test]
    fn ancestor_and_overlap() {
        let p = Partition::new(2, 1); // [64, 128) in an 8-bit space
        let (a, b) = p.split();
        assert!(p.is_ancestor_of(&a));
        assert!(p.is_ancestor_of(&b));
        assert!(!a.is_ancestor_of(&p));
        assert!(p.overlaps(&a));
        assert!(a.overlaps(&p));
        assert!(!a.overlaps(&b));
        let unrelated = Partition::new(2, 3);
        assert!(!p.overlaps(&unrelated));
    }

    #[test]
    fn containing_finds_the_right_partition() {
        let s = s8();
        for level in 0..=8 {
            for point in [0u64, 1, 63, 64, 127, 128, 200, 255] {
                let p = Partition::containing(level, point, s);
                assert!(p.contains(point, s), "level {level} point {point} → {p}");
            }
        }
    }

    #[test]
    fn level_partitions_tile_the_space() {
        let s = s8();
        for level in 0..=4u32 {
            let parts: Vec<Partition> = Partition::all_at_level(level).collect();
            assert_eq!(parts.len(), 1 << level);
            let total: u128 = parts.iter().map(|p| p.size(s)).sum();
            assert_eq!(total, s.size(), "G1+G3: level {level} must tile R_h");
            for w in parts.windows(2) {
                assert_eq!(w[0].end(s), w[1].start(s) as u128, "partitions must abut");
            }
        }
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Partition::new(4, 9).to_string(), "p4:9");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_out_of_range_panics() {
        let _ = Partition::new(2, 4);
    }

    #[test]
    fn full_space_level64_partitions_work() {
        let s = HashSpace::full();
        let p = Partition::new(64, u64::MAX);
        assert_eq!(p.size(s), 1);
        assert_eq!(p.start(s), u64::MAX);
        assert!(p.contains(u64::MAX, s));
    }

    #[test]
    fn cover_range_tiles_exactly() {
        let s = s8();
        for (start, end) in
            [(0u64, 256u128), (0, 0), (3, 3), (0, 1), (255, 256), (3, 200), (64, 192), (1, 255)]
        {
            let cover = Partition::cover_range(s, start, end);
            // Pieces abut, stay inside [start, end), and sum to the span.
            let mut at = start as u128;
            for p in &cover {
                assert_eq!(p.start(s) as u128, at, "[{start}, {end}) piece {p}");
                at = p.end(s);
            }
            assert_eq!(at.max(start as u128), (end).max(start as u128), "[{start}, {end}) covered");
            let total: u128 = cover.iter().map(|p| p.size(s)).sum();
            assert_eq!(total, end - start as u128);
        }
    }

    #[test]
    fn cover_range_is_minimal_on_aligned_blocks() {
        let s = s8();
        assert_eq!(Partition::cover_range(s, 0, 256), vec![Partition::ROOT]);
        assert_eq!(Partition::cover_range(s, 128, 256), vec![Partition::new(1, 1)]);
        assert_eq!(Partition::cover_range(s, 64, 128), vec![Partition::new(2, 1)]);
        // [1, 255): forced to fine levels at the ragged edges.
        let c = Partition::cover_range(s, 1, 255);
        assert!(c.len() <= 2 * 8, "at most 2·Bh pieces, got {}", c.len());
    }

    #[test]
    fn cover_piece_containing_matches_materialised_cover() {
        let s = s8();
        for (start, end) in [(0u64, 256u128), (3, 200), (64, 192), (1, 255), (255, 256)] {
            let cover = Partition::cover_range(s, start, end);
            for point in start..end as u64 {
                let expect = cover.iter().find(|p| p.contains(point, s)).copied().unwrap();
                assert_eq!(
                    Partition::cover_piece_containing(s, start, end, point),
                    expect,
                    "[{start},{end}) point {point}"
                );
            }
        }
        let full = HashSpace::full();
        let p = Partition::cover_piece_containing(full, 1, full.size() - 1, u64::MAX - 1);
        assert!(p.contains(u64::MAX - 1, full));
    }

    #[test]
    fn cover_range_full_64bit_space() {
        let s = HashSpace::full();
        assert_eq!(Partition::cover_range(s, 0, s.size()), vec![Partition::ROOT]);
        let c = Partition::cover_range(s, u64::MAX, s.size());
        assert_eq!(c, vec![Partition::new(64, u64::MAX)]);
        let c = Partition::cover_range(s, 1, s.size() - 1);
        assert!(c.len() <= 128);
        let total: u128 = c.iter().map(|p| p.size(s)).sum();
        assert_eq!(total, s.size() - 2);
    }
}
