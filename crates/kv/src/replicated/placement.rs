//! Placement: replica chains, and the one tail every membership
//! operation ends in — run the engine call under a range tap
//! ([`ReplicatedStore::drive`]), then rebuild replica placement for
//! exactly the ranges it touched ([`ReplicatedStore::replace`]).

use super::{RepairReport, ReplicatedStore};
use domus_core::{
    CreateOutcome, DhtEngine, DhtError, NullSink, RebalanceEvent, RebalanceSink, RemoveOutcome,
    SnodeId, Tee, VnodeId,
};
use domus_hashspace::{HashSpace, Partition};
use domus_wal::WalRecord;

/// A half-open hash-space range `[start, end)` (`end` is `u128` because
/// the full space's top is `2^Bh`).
pub(super) type Range = (u64, u128);

/// Collects the hash-space ranges an operation touched (one per streamed
/// transfer).
struct RangeTap {
    space: HashSpace,
    touched: Vec<Range>,
}

impl RangeTap {
    fn new(space: HashSpace) -> Self {
        Self { space, touched: Vec::new() }
    }
}

impl RebalanceSink for RangeTap {
    fn event(&mut self, e: RebalanceEvent) {
        if let RebalanceEvent::Transfer(t) = e {
            self.touched.push((t.partition.start(self.space), t.partition.end(self.space)));
        }
    }
}

/// The replica chain of `point` as `(vnode, hosting snode)`: the owner,
/// then the first vnode of each subsequent distinct snode along the
/// successor walk, up to `r` entries.
pub(super) fn replicas_for<E: DhtEngine>(
    engine: &E,
    r: usize,
    point: u64,
) -> Vec<(VnodeId, SnodeId)> {
    let mut out: Vec<(VnodeId, SnodeId)> = Vec::with_capacity(r);
    engine.for_each_successor(point, &mut |v| {
        // A vnode the walk visits mid-teardown may briefly have no
        // hosting snode; skip it rather than panic — on a thin cluster
        // (fewer than R distinct snodes) the walk simply ends with a
        // shorter chain, which every caller treats as the effective
        // replication factor.
        if let Ok(s) = engine.snode_of(v) {
            if !out.iter().any(|&(_, seen)| seen == s) {
                out.push((v, s));
            }
        }
        out.len() < r
    });
    out
}

/// Sorts and coalesces overlapping/adjacent ranges.
pub(super) fn merge_ranges(mut ranges: Vec<Range>) -> Vec<Range> {
    ranges.sort_unstable();
    let mut out: Vec<Range> = Vec::with_capacity(ranges.len());
    for (start, end) in ranges {
        match out.last_mut() {
            Some((_, prev_end)) if (start as u128) <= *prev_end => {
                *prev_end = (*prev_end).max(end);
            }
            _ => out.push((start, end)),
        }
    }
    out
}

impl<E: DhtEngine> ReplicatedStore<E> {
    /// Creates a vnode on `snode`, then re-replicates exactly the ranges
    /// the streamed transfers touched (plus their backward horizons).
    pub fn join(&mut self, snode: SnodeId) -> Result<(VnodeId, RepairReport), DhtError> {
        self.join_with(snode, &mut NullSink).map(|(out, rep)| (out.vnode, rep))
    }

    /// [`ReplicatedStore::join`], forwarding every rebalance event to
    /// `sink` while the touched ranges are collected for repair.
    pub fn join_with(
        &mut self,
        snode: SnodeId,
        sink: &mut dyn RebalanceSink,
    ) -> Result<(CreateOutcome, RepairReport), DhtError> {
        let (outcome, touched) = self.drive(sink, |e, tap| e.create_vnode_with(snode, tap))?;
        Ok((outcome, self.replace(touched, true)))
    }

    /// Gracefully removes a vnode: its data (primary *and* follower
    /// copies) is re-placed on the surviving replica chains in the same
    /// pass that repairs the touched ranges — nothing is lost.
    pub fn leave(&mut self, v: VnodeId) -> Result<RepairReport, DhtError> {
        self.leave_with(v, &mut NullSink).map(|(_, rep)| rep)
    }

    /// [`ReplicatedStore::leave`], forwarding every rebalance event to
    /// `sink`.
    pub fn leave_with(
        &mut self,
        v: VnodeId,
        sink: &mut dyn RebalanceSink,
    ) -> Result<(RemoveOutcome, RepairReport), DhtError> {
        let (outcome, touched) = self.drive(sink, |e, tap| e.remove_vnode_with(v, tap))?;
        let report = self.replace(touched, true);
        debug_assert!(
            self.slots.buckets().all(|(slot, _, _)| slot != v.index()),
            "a graceful leave must drain every copy off the departing vnode"
        );
        Ok((outcome, report))
    }

    /// Runs one engine membership operation with a [`RangeTap`] tee'd
    /// before `sink`; returns its outcome and the ranges it touched. An
    /// operation that fails *midway* has still moved partitions: what the
    /// tap collected is re-placed before the error propagates, so
    /// placement never falls behind routing.
    pub(super) fn drive<T>(
        &mut self,
        sink: &mut dyn RebalanceSink,
        op: impl FnOnce(&mut E, &mut dyn RebalanceSink) -> Result<T, DhtError>,
    ) -> Result<(T, Vec<Range>), DhtError> {
        let mut tap = RangeTap::new(self.space());
        let res = op(&mut self.engine, &mut Tee(&mut tap, sink));
        if res.is_err() {
            self.replace(std::mem::take(&mut tap.touched), true);
        }
        res.map(|out| (out, tap.touched))
    }

    /// The membership tail: extends `touched` to every range whose
    /// replica chains may have shifted and rebuilds placement there —
    /// onto full chains when `full`, else relocating survivors only and
    /// leaving the ranges **pending** for [`ReplicatedStore::repair`].
    pub(super) fn replace(&mut self, touched: Vec<Range>, full: bool) -> RepairReport {
        let ranges = self.extend_and_merge(touched);
        let (copies_placed, bytes) = self.rebuild_ranges(&ranges, full);
        if !full {
            self.pending.extend(ranges.iter().copied());
        }
        RepairReport {
            ranges: ranges.len(),
            copies_placed,
            bytes_shipped: bytes,
            bytes_full: bytes,
        }
    }

    /// Extends every touched range backwards across up to `R` distinct
    /// predecessor snodes and merges the result into disjoint ranges.
    ///
    /// Why backwards: the follower set of a range `X` is determined by the
    /// successor walk starting at `X`; a placement change at partition `Q`
    /// can only affect `X` if the walk from `X` reaches `Q` before
    /// collecting `R` distinct snodes. Walking back from `Q` until `R`
    /// distinct snodes have been seen therefore over-approximates every
    /// affected range — conservative and cheap (`O(R log P)` per range).
    fn extend_and_merge(&self, touched: Vec<Range>) -> Vec<Range> {
        let space = self.space();
        // Coalesce first: transfers overlap heavily (cascades re-touch the
        // same partitions), and every surviving range costs one backward
        // walk of engine lookups.
        let touched = merge_ranges(touched);
        if touched.is_empty() {
            return touched;
        }
        // Thin cluster (< R distinct snodes): asking the backward walk for
        // R distinct snodes would visit every partition of the space *per
        // range* without ever finding them (the pathological walk), and a
        // shorter walk can miss ranges holding follower copies placed
        // under an earlier, wider membership. Cover the whole space in one
        // range instead — the honest repair scope at this size, and O(1)
        // to decide off the engine's snode count.
        if self.engine.snode_count() < self.r {
            return vec![(0, space.size())];
        }
        let mut out: Vec<Range> = Vec::with_capacity(touched.len() + 2);
        for (start, end) in touched {
            let mut snodes: Vec<SnodeId> = Vec::with_capacity(self.r);
            let mut cur = start;
            let mut wrapped = false;
            let mut walked = end - start as u128;
            while snodes.len() < self.r && walked < space.size() {
                let prev_point = if cur == 0 {
                    wrapped = true;
                    space.max_point()
                } else {
                    cur - 1
                };
                let Some((p, v)) = self.engine.lookup(prev_point) else { break };
                let s = self.engine.snode_of(v).expect("routed vnode is live");
                if !snodes.contains(&s) {
                    snodes.push(s);
                }
                walked += p.size(space);
                cur = p.start(space);
                if wrapped && cur == 0 {
                    break; // walked the whole top segment
                }
            }
            if walked >= space.size() {
                out.push((0, space.size()));
            } else if wrapped {
                out.push((0, end));
                out.push((cur, space.size()));
            } else {
                out.push((cur, end));
            }
        }
        merge_ranges(out)
    }

    /// Rebuilds replica placement for `ranges` (disjoint, ascending):
    /// detaches every copy stored anywhere in each range and re-places
    /// each key on a placement-order prefix of its current replica chain
    /// — the full chain when `full`, else as many replicas as copies
    /// survived (relocation without re-replication). Each partition's
    /// chain decision is logged to the holders' WALs as a placement
    /// record. Returns `(copies placed, entry bytes shipped)`.
    fn rebuild_ranges(&mut self, ranges: &[Range], full: bool) -> (u64, u64) {
        let space = self.space();
        let (mut placed, mut bytes) = (0u64, 0u64);
        for &(start, end) in ranges {
            // Re-place, memoizing the replica chain per partition (every
            // point of one partition shares it).
            let mut memo: Option<(Partition, Vec<(VnodeId, SnodeId)>)> = None;
            for (point, bucket) in self.slots.detach(start, end) {
                if !matches!(&memo, Some((p, _)) if p.contains(point, space)) {
                    let (p, _) = self.engine.lookup(point).expect("routing is total");
                    let chain = replicas_for(&self.engine, self.r, point);
                    // Durable placement note on every holder's log: this
                    // partition's copies now live on this chain.
                    for (rank, &(_, s)) in chain.iter().enumerate() {
                        self.wals.entry(s).or_default().append(&WalRecord::Placement {
                            partition: p.start(space),
                            snode: s,
                            rank: rank.min(u8::MAX as usize) as u8,
                        });
                    }
                    memo = Some((p, chain));
                }
                let (_, chain) = memo.as_ref().expect("memoized above");
                for (k, v, survivors) in bucket {
                    let n = if full { chain.len() } else { survivors.min(chain.len()) };
                    placed += n as u64;
                    bytes += (k.len() + v.len()) as u64 * n as u64;
                    // Every migrated copy is re-logged on its new home as
                    // it is applied: the write-ahead discipline must follow
                    // the data, or a key whose copies all moved since their
                    // original `put` would have no replayable record on any
                    // of the snodes that actually hold it when they crash.
                    let record = WalRecord::Put { key: k.clone(), value: v.clone() };
                    for &(rv, home) in &chain[..n] {
                        self.wals.entry(home).or_default().append(&record);
                        self.slots.upsert(rv, point, &k, &v);
                    }
                }
            }
        }
        (placed, bytes)
    }
}
