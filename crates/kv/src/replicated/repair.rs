//! Anti-entropy: digest-driven re-replication of crash-touched ranges.

use super::placement::{merge_ranges, replicas_for};
use super::ReplicatedStore;
use crate::bucket::bucket_bytes;
use domus_core::DhtEngine;
use domus_wal::{DigestTree, WalRecord};

/// What one repair pass ([`ReplicatedStore::repair`] or the in-line
/// repair of a graceful membership change) did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Disjoint hash-space ranges rebuilt.
    pub ranges: usize,
    /// Replica copies placed (moves + newly minted replicas).
    pub copies_placed: u64,
    /// Entry bytes actually shipped between replicas (digest-driven
    /// repair ships only divergent buckets; in-line rebuilds of graceful
    /// changes count everything they re-place).
    pub bytes_shipped: u64,
    /// Entry bytes a digest-less full rebuild of the same ranges would
    /// have shipped (every entry to every chain slot) — the baseline
    /// [`RepairReport::bytes_shipped`] is measured against.
    pub bytes_full: u64,
}

impl<E: DhtEngine> ReplicatedStore<E> {
    /// Re-replicates every pending (crash-touched) range back to full
    /// strength, **digest-driven**: per partition, a Merkle
    /// [`DigestTree`] is built over the primary's and each follower's
    /// incrementally maintained bucket digests, and only the buckets in
    /// divergent leaves are shipped. A follower already in sync costs
    /// hash comparisons, never data movement — the full-rebuild byte
    /// cost the old eager walk would have paid is reported alongside in
    /// [`RepairReport::bytes_full`]. Idempotent; a no-op when nothing is
    /// pending.
    pub fn repair(&mut self) -> RepairReport {
        let ranges = merge_ranges(std::mem::take(&mut self.pending));
        let mut report = RepairReport { ranges: ranges.len(), ..RepairReport::default() };
        let space = self.space();
        for &(start, end) in &ranges {
            let mut cursor = start as u128;
            while cursor < end {
                let Some((p, _)) = self.engine.lookup(cursor as u64) else { break };
                let pe = p.end(space);
                self.repair_partition(cursor as u64, pe.min(end), &mut report);
                if pe <= cursor {
                    break; // no forward progress: malformed routing
                }
                cursor = pe;
            }
        }
        report
    }

    /// Anti-entropy over one partition-aligned span `[start, end)`:
    /// Merkle-compare each follower of the span's replica chain against
    /// the primary and ship only divergent buckets (plus drop follower
    /// buckets the primary does not hold). Accounts shipped bytes and
    /// the full-rebuild baseline into `report`.
    fn repair_partition(&mut self, start: u64, end: u128, report: &mut RepairReport) {
        let chain = replicas_for(&self.engine, self.r, start);
        if chain.is_empty() {
            return;
        }
        let primary = chain[0].0;
        // The eager rebuild gathered every copy and re-placed every entry
        // onto every chain slot — that is the baseline being beaten.
        report.bytes_full += self.slots.span_bytes(primary, start, end) * chain.len() as u64;
        if chain.len() < 2 {
            return; // a thin cluster has nobody to anti-entropy against
        }

        // Normalize span positions onto the digest tree's 64-bit domain
        // (monotone, collision-free for partition-aligned spans).
        let span = end - start as u128;
        let bits = 128 - (span.saturating_sub(1)).leading_zeros();
        let shift = 64u32.saturating_sub(bits.min(64));
        let norm = |p: u64| -> u64 { (p - start) << shift };
        let tree_of = |buckets: &[(u64, u64)]| {
            let mut tree = DigestTree::new(4);
            for &(p, d) in buckets {
                tree.toggle(norm(p), d);
            }
            tree
        };

        let pbuckets = self.slots.span_digests(primary, start, end);
        let ptree = tree_of(&pbuckets);
        let in_leaf = |p: u64, leaf: usize| -> bool {
            let (lo, hi) = ptree.leaf_range(leaf);
            let np = norm(p);
            np >= lo && hi.map_or(true, |h| np < h)
        };

        // Per follower: the primary buckets to ship and the follower
        // buckets the primary does not hold.
        for (rank, &(fv, fs)) in chain.iter().enumerate().skip(1) {
            let fbuckets = self.slots.span_digests(fv, start, end);
            let (mut ship, mut drop): (Vec<u64>, Vec<u64>) = (Vec::new(), Vec::new());
            // An in-sync follower's Merkle root match costs zero bytes.
            for leaf in ptree.diff(&tree_of(&fbuckets)) {
                for &(p, d) in &pbuckets {
                    if in_leaf(p, leaf) && fbuckets.binary_search(&(p, d)).is_err() {
                        ship.push(p);
                    }
                }
                for &(p, _) in &fbuckets {
                    if in_leaf(p, leaf) && pbuckets.binary_search_by_key(&p, |&(bp, _)| bp).is_err()
                    {
                        drop.push(p);
                    }
                }
            }
            // One placement record per repaired follower span: the chain
            // decision is durable on the receiving snode.
            if !ship.is_empty() {
                self.wals.entry(fs).or_default().append(&WalRecord::Placement {
                    partition: start,
                    snode: fs,
                    rank: rank.min(u8::MAX as usize) as u8,
                });
            }
            for point in ship {
                let bucket = self.slots.install(primary, fv, point);
                report.bytes_shipped += bucket_bytes(bucket);
                report.copies_placed += bucket.len() as u64;
                // Re-log each shipped copy on the receiving snode: the
                // repaired follower must be able to replay what it holds.
                let wal = self.wals.entry(fs).or_default();
                for (k, v) in bucket {
                    wal.append(&WalRecord::Put { key: k.clone(), value: v.clone() });
                }
            }
            for point in drop {
                self.slots.drop_bucket(fv, point);
            }
        }
    }
}
