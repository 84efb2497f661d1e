//! Sorted per-point buckets and the point-keyed range surgery both
//! stores are built from.

use bytes::Bytes;
use domus_core::VnodeId;
use std::collections::BTreeMap;

/// Per-point bucket: distinct keys hashing to the same point (rare but
/// legal) are chained, **sorted by key** so probes are binary searches
/// instead of linear scans.
pub(crate) type Bucket = Vec<(Bytes, Bytes)>;

/// Position of `key` in a sorted bucket (`Ok` = present).
#[inline]
fn bucket_search(bucket: &Bucket, key: &[u8]) -> Result<usize, usize> {
    bucket.binary_search_by(|(k, _)| k.as_ref().cmp(key))
}

/// The value stored under `key`.
#[inline]
pub(crate) fn bucket_get<'a>(bucket: &'a Bucket, key: &[u8]) -> Option<&'a Bytes> {
    bucket_search(bucket, key).ok().map(|i| &bucket[i].1)
}

/// Inserts or replaces an entry, returning the previous value.
pub(crate) fn bucket_upsert(bucket: &mut Bucket, key: Bytes, value: Bytes) -> Option<Bytes> {
    match bucket_search(bucket, &key) {
        Ok(i) => Some(std::mem::replace(&mut bucket[i].1, value)),
        Err(i) => {
            bucket.insert(i, (key, value));
            None
        }
    }
}

/// Removes an entry, returning its value.
pub(crate) fn bucket_take(bucket: &mut Bucket, key: &[u8]) -> Option<Bytes> {
    bucket_search(bucket, key).ok().map(|i| bucket.remove(i).1)
}

/// Entry bytes (keys + values) of a bucket.
pub(crate) fn bucket_bytes(bucket: &[(Bytes, Bytes)]) -> u64 {
    bucket.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum()
}

/// A vnode's slot in a per-vnode arena, growing the arena on demand.
pub(crate) fn slot_of<T: Default>(arena: &mut Vec<T>, v: VnodeId) -> &mut T {
    if arena.len() <= v.index() {
        arena.resize_with(v.index() + 1, T::default);
    }
    &mut arena[v.index()]
}

/// Detaches the half-open span `[start, end)` from a point-keyed map
/// (`end` is `u128` because the full space's top is `2^Bh`) — pure range
/// surgery (`split_off`/`append`), never a per-key rescan.
pub(crate) fn detach_span<V>(
    map: &mut BTreeMap<u64, V>,
    start: u64,
    end: u128,
) -> BTreeMap<u64, V> {
    let mut mid = map.split_off(&start);
    if end <= u64::MAX as u128 {
        // Every key in `keep` (≥ end) exceeds every remaining key
        // (< start), so this is an O(keep) ordered append, not
        // re-insertion.
        let mut keep = mid.split_off(&(end as u64));
        map.append(&mut keep);
    }
    mid
}
