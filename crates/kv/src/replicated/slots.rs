//! The copy arena: every replica copy and its anti-entropy digest, kept
//! behind one type.
//!
//! Each vnode slot maps a hash point to a [`Cell`] — the sorted bucket of
//! entries at that point plus the XOR of their [`entry_hash`]es (a slot
//! holds each entry at most once, so XOR is an exact toggle), the leaf
//! input of the repair-time Merkle comparison. Nothing outside this
//! module mutates a bucket or a digest, so *digest ≡ XOR of the bucket's
//! entry hashes* and *no digest without a (non-empty) bucket* are
//! properties of the type.

use crate::bucket::{
    bucket_bytes, bucket_get, bucket_take, bucket_upsert, detach_span, slot_of, Bucket,
};
use bytes::Bytes;
use domus_core::VnodeId;
use domus_wal::entry_hash;
use std::collections::BTreeMap;
use std::ops::Bound;

/// One populated hash point of one slot.
#[derive(Debug, Clone, Default)]
struct Cell {
    digest: u64,
    entries: Bucket,
}

/// Copy maps indexed by vnode arena slot (grown on demand); a point may
/// appear in up to `R` slots (one copy per replica).
#[derive(Debug, Clone, Default)]
pub(super) struct Slots {
    slots: Vec<BTreeMap<u64, Cell>>,
}

impl Slots {
    /// Inserts or replaces `v`'s copy of an entry, returning the previous
    /// value.
    pub fn upsert(&mut self, v: VnodeId, point: u64, key: &Bytes, value: &Bytes) -> Option<Bytes> {
        let cell = slot_of(&mut self.slots, v).entry(point).or_default();
        let prev = bucket_upsert(&mut cell.entries, key.clone(), value.clone());
        cell.digest ^= entry_hash(key, value) ^ prev.as_ref().map_or(0, |old| entry_hash(key, old));
        prev
    }

    /// `v`'s copy of `key`, if it holds one.
    pub fn probe(&self, v: VnodeId, point: u64, key: &[u8]) -> Option<&Bytes> {
        bucket_get(&self.slots.get(v.index())?.get(&point)?.entries, key)
    }

    /// Removes `v`'s copy of `key`; an emptied bucket goes with its digest.
    pub fn take(&mut self, v: VnodeId, point: u64, key: &[u8]) -> Option<Bytes> {
        let map = self.slots.get_mut(v.index())?;
        let cell = map.get_mut(&point)?;
        let value = bucket_take(&mut cell.entries, key)?;
        if cell.entries.is_empty() {
            map.remove(&point);
        } else {
            cell.digest ^= entry_hash(key, &value);
        }
        Some(value)
    }

    /// Destroys everything `v` holds, yielding the `(point, key)` of each
    /// lost copy.
    pub fn drain_slot(&mut self, v: VnodeId) -> impl Iterator<Item = (u64, Bytes)> {
        let map = self.slots.get_mut(v.index()).map(std::mem::take).unwrap_or_default();
        map.into_iter()
            .flat_map(|(point, cell)| cell.entries.into_iter().map(move |(k, _)| (point, k)))
    }

    /// Detaches `[start, end)` from every slot, merging the copies per
    /// point into key-sorted `(key, value, survivors)` — each key once,
    /// with the number of slots that held it.
    pub fn detach(&mut self, start: u64, end: u128) -> BTreeMap<u64, Vec<(Bytes, Bytes, usize)>> {
        let mut union: BTreeMap<u64, Vec<(Bytes, Bytes, usize)>> = BTreeMap::new();
        for map in self.slots.iter_mut().filter(|m| !m.is_empty()) {
            for (point, cell) in detach_span(map, start, end) {
                let merged = union.entry(point).or_default();
                for (k, v) in cell.entries {
                    match merged.binary_search_by(|(mk, _, _)| mk.as_ref().cmp(k.as_ref())) {
                        Ok(i) => {
                            debug_assert_eq!(merged[i].1, v, "replica copies diverged");
                            merged[i].2 += 1;
                        }
                        Err(i) => merged.insert(i, (k, v, 1)),
                    }
                }
            }
        }
        union
    }

    /// Overwrites `to`'s bucket at `point` with a copy of `from`'s (digest
    /// included) and returns the installed entries.
    pub fn install(&mut self, from: VnodeId, to: VnodeId, point: u64) -> &[(Bytes, Bytes)] {
        let Some(cell) = self.slots.get(from.index()).and_then(|m| m.get(&point)).cloned() else {
            return &[];
        };
        let slot = slot_of(&mut self.slots, to);
        slot.insert(point, cell);
        &slot[&point].entries
    }

    /// Drops `v`'s whole bucket at `point`.
    pub fn drop_bucket(&mut self, v: VnodeId, point: u64) {
        if let Some(map) = self.slots.get_mut(v.index()) {
            map.remove(&point);
        }
    }

    /// `v`'s cells in the half-open span `[start, end)`, ascending.
    fn span(&self, v: VnodeId, start: u64, end: u128) -> impl Iterator<Item = (u64, &Cell)> {
        let upper =
            if end > u64::MAX as u128 { Bound::Unbounded } else { Bound::Excluded(end as u64) };
        let map = self.slots.get(v.index()).into_iter();
        map.flat_map(move |m| m.range((Bound::Included(start), upper))).map(|(&p, c)| (p, c))
    }

    /// Entry bytes `v` holds in `[start, end)`.
    pub fn span_bytes(&self, v: VnodeId, start: u64, end: u128) -> u64 {
        self.span(v, start, end).map(|(_, c)| bucket_bytes(&c.entries)).sum()
    }

    /// `v`'s `(point, bucket digest)` pairs in `[start, end)`, ascending.
    pub fn span_digests(&self, v: VnodeId, start: u64, end: u128) -> Vec<(u64, u64)> {
        self.span(v, start, end).map(|(p, c)| (p, c.digest)).collect()
    }

    /// Every populated bucket as `(slot, point, entries)`, slot-major.
    pub fn buckets(&self) -> impl Iterator<Item = (usize, u64, &Bucket)> {
        self.slots.iter().enumerate().flat_map(|(slot, map)| {
            map.iter().map(move |(&point, cell)| (slot, point, &cell.entries))
        })
    }

    /// Total copies stored.
    pub fn copies(&self) -> u64 {
        self.buckets().map(|(_, _, b)| b.len() as u64).sum()
    }

    /// Recomputes every digest from its bucket — the anti-entropy
    /// comparison is only as sound as its inputs.
    pub fn verify(&self) -> Result<(), String> {
        for (slot, map) in self.slots.iter().enumerate() {
            for (&point, cell) in map {
                let want = cell.entries.iter().fold(0u64, |acc, (k, v)| acc ^ entry_hash(k, v));
                let got = cell.digest;
                if cell.entries.is_empty() || got != want {
                    return Err(format!("slot {slot} point {point}: digest {got:#x} != {want:#x}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn v(i: u32) -> VnodeId {
        VnodeId(i)
    }

    #[test]
    fn upsert_overwrite_and_take_toggle_the_digest_exactly() {
        let mut s = Slots::default();
        assert_eq!(s.upsert(v(0), 9, &b("a"), &b("1")), None);
        assert_eq!(s.span_digests(v(0), 0, 1 << 64), vec![(9, entry_hash(b"a", b"1"))]);
        assert_eq!(s.upsert(v(0), 9, &b("b"), &b("2")), None);
        assert_eq!(s.upsert(v(0), 9, &b("a"), &b("1b")), Some(b("1")));
        let both = entry_hash(b"a", b"1b") ^ entry_hash(b"b", b"2");
        assert_eq!(s.span_digests(v(0), 9, 10), vec![(9, both)]);
        assert_eq!(s.probe(v(0), 9, b"a"), Some(&b("1b")));
        assert_eq!(s.take(v(0), 9, b"a"), Some(b("1b")));
        assert_eq!(s.take(v(0), 9, b"a"), None);
        assert_eq!(s.span_digests(v(0), 9, 10), vec![(9, entry_hash(b"b", b"2"))]);
        assert_eq!((s.copies(), s.span_bytes(v(0), 0, 10)), (1, 2));
        s.verify().unwrap();
    }

    #[test]
    fn an_emptied_bucket_and_its_digest_vanish_together() {
        let mut s = Slots::default();
        s.upsert(v(3), 5, &b("k"), &b("x"));
        assert_eq!(s.buckets().count(), 1);
        assert_eq!(s.take(v(3), 5, b"k"), Some(b("x")));
        assert!(s.span_digests(v(3), 0, 1 << 64).is_empty());
        assert_eq!(s.buckets().count(), 0);
        s.verify().unwrap();
    }

    #[test]
    fn detach_returns_each_key_once_with_its_survivor_count() {
        let mut s = Slots::default();
        for slot in 0..3 {
            s.upsert(v(slot), 10, &b("shared"), &b("x"));
        }
        s.upsert(v(1), 10, &b("lonely"), &b("y"));
        s.upsert(v(2), 19, &b("edge"), &b("z"));
        s.upsert(v(0), 20, &b("outside"), &b("w"));
        s.upsert(v(2), 3, &b("below"), &b("w"));
        let union = s.detach(10, 20);
        assert_eq!(union[&10], vec![(b("lonely"), b("y"), 1), (b("shared"), b("x"), 3)]);
        assert_eq!(union[&19], vec![(b("edge"), b("z"), 1)]);
        assert_eq!(union.len(), 2);
        // Other ranges are untouched, digests included.
        assert_eq!(s.copies(), 2);
        assert_eq!(s.probe(v(0), 20, b"outside"), Some(&b("w")));
        assert_eq!(s.probe(v(2), 3, b"below"), Some(&b("w")));
        assert!(s.buckets().all(|(slot, _, _)| slot != 1));
        s.verify().unwrap();
        // The top of the space exceeds u64: an unbounded detach takes the rest.
        assert_eq!(s.detach(0, 1 << 64).len(), 2);
        assert_eq!(s.copies(), 0);
    }

    #[test]
    fn install_copies_bucket_and_digest_and_drop_removes_both() {
        let mut s = Slots::default();
        s.upsert(v(0), 7, &b("a"), &b("1"));
        s.upsert(v(0), 7, &b("b"), &b("2"));
        s.upsert(v(4), 7, &b("stale"), &b("0"));
        assert_eq!(s.install(v(0), v(4), 7).len(), 2);
        assert_eq!(s.span_digests(v(4), 7, 8), s.span_digests(v(0), 7, 8));
        assert!(s.install(v(0), v(4), 8).is_empty(), "nothing to copy");
        let drained: Vec<_> = s.drain_slot(v(0)).collect();
        assert_eq!(drained, vec![(7, b("a")), (7, b("b"))]);
        s.drop_bucket(v(4), 7);
        assert_eq!(s.copies(), 0);
        s.verify().unwrap();
    }
}
