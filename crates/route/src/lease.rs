//! Lease-based liveness, one lease per snode.
//!
//! Liveness belongs to the physical host, not its vnodes, so the table
//! keeps one record per snode; which vnodes a lease covers is the
//! engine's per-snode index, never a copy here. On a deterministic sim
//! clock, a **grant** keeps the earlier of the current expiry and `now +
//! ttl` (no lease yet counts as never expiring), so a snode lapses
//! exactly when its earliest-granted vnode would; a **renewal** (each
//! healthy tick) sets `now + ttl`; a silent holder stops renewing and,
//! one TTL later, the router fails it over. The record also carries the
//! router's other per-snode state, so a departed snode is forgotten
//! with one [`LeaseTable::release`].

use domus_core::{SnodeId, SnodeLoad};
use domus_sim::SimTime;
use std::collections::BTreeMap;

/// One snode's lease and the control plane's per-snode state.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Lease {
    /// The instant the snode lapses unless renewed first; `None` until
    /// its first vnode is granted (a record that only holds capacity or
    /// fault state).
    pub expires_at: Option<SimTime>,
    /// Capacity declared when the snode joined (its initial vnode
    /// enrollment) — the fixed basis hot-spot decisions are weighted by.
    pub(crate) declared: Option<f64>,
    /// Effective-capacity factor (`None` = healthy; a degraded node
    /// serves the same quota on less machine, inflating its overload).
    pub(crate) factor: Option<f64>,
    /// Injected as silently stalled: the snode stops renewing.
    pub(crate) stalled: bool,
    /// Consecutive hot ticks.
    pub(crate) streak: u32,
}

/// One record per snode, keyed by snode.
///
/// The key structure *is* the uniqueness invariant: a snode holds at
/// most one lease, and [`LeaseTable::grant`] tightens rather than
/// duplicates.
#[derive(Debug, Clone)]
pub struct LeaseTable {
    ttl: SimTime,
    snodes: BTreeMap<SnodeId, Lease>,
}

impl LeaseTable {
    /// An empty table granting leases of `ttl`.
    ///
    /// # Panics
    /// Panics when `ttl` is zero — a lease that expires the instant it
    /// is granted can never be renewed in time.
    pub fn new(ttl: SimTime) -> Self {
        assert!(ttl > SimTime::ZERO, "lease TTL must be positive");
        Self { ttl, snodes: BTreeMap::new() }
    }

    /// Snodes holding a lease.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// `true` when no snode holds a lease.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }

    /// Iterates `(snode, expiry)` over the leased snodes, in snode order.
    pub fn iter(&self) -> impl Iterator<Item = (SnodeId, SimTime)> + '_ {
        self.snodes.iter().filter_map(|(s, l)| Some((*s, l.expires_at?)))
    }

    /// A vnode came up on `s` at `now`: `s`'s lease expires no later
    /// than one TTL from `now`.
    pub fn grant(&mut self, s: SnodeId, now: SimTime) {
        let lapse = now + self.ttl;
        let at = &mut self.record(s).expires_at;
        *at = Some(at.map_or(lapse, |t| t.min(lapse)));
    }

    /// Renews `s`'s lease to one TTL past `now` (a no-op for a snode
    /// holding none). A silent snode is exactly one that stops calling
    /// this.
    pub fn renew(&mut self, s: SnodeId, now: SimTime) {
        if let Some(at) = self.snodes.get_mut(&s).and_then(|l| l.expires_at.as_mut()) {
            *at = now + self.ttl;
        }
    }

    /// Forgets `s` entirely: its lease and every per-snode record.
    pub fn release(&mut self, s: SnodeId) -> Option<Lease> {
        self.snodes.remove(&s)
    }

    /// Checks the table against the engine's per-snode index in O(S):
    /// every leased snode hosts a vnode (`hosted(s)` counts them), and as
    /// many snodes hold a lease as host vnodes (`snode_count`) — so every
    /// live vnode is covered by its host's one lease.
    pub fn verify(
        &self,
        snode_count: usize,
        hosted: impl Fn(SnodeId) -> usize,
    ) -> Result<(), String> {
        let mut leased = 0usize;
        for (s, _) in self.iter() {
            if hosted(s) == 0 {
                return Err(format!("{s:?} holds a lease but hosts no vnode"));
            }
            leased += 1;
        }
        if leased != snode_count {
            return Err(format!("{leased} snodes hold a lease but {snode_count} host vnodes"));
        }
        Ok(())
    }

    /// `s`'s record, if any.
    pub(crate) fn get(&self, s: SnodeId) -> Option<&Lease> {
        self.snodes.get(&s)
    }

    /// `s`'s record, created empty (no lease) when absent.
    pub(crate) fn record(&mut self, s: SnodeId) -> &mut Lease {
        self.snodes.entry(s).or_default()
    }

    /// Pairs every load with its snode's record, if any, in one merge
    /// walk — `loads` must be in snode order.
    pub(crate) fn joined<'a>(
        &'a self,
        loads: &'a [SnodeLoad],
    ) -> impl Iterator<Item = (&'a SnodeLoad, Option<&'a Lease>)> {
        let mut records = self.snodes.iter().peekable();
        loads.iter().map(move |l| {
            while records.next_if(|(s, _)| **s < l.snode).is_some() {}
            (l, records.peek().filter(|(s, _)| **s == l.snode).map(|(_, r)| *r))
        })
    }

    /// Every record, leased or not, in snode order.
    pub(crate) fn records_mut(&mut self) -> impl Iterator<Item = (SnodeId, &mut Lease)> {
        self.snodes.iter_mut().map(|(s, l)| (*s, l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::millis(v)
    }

    #[test]
    fn grant_renew_expire_lifecycle() {
        let mut t = LeaseTable::new(ms(100));
        t.grant(SnodeId(0), ms(0));
        t.grant(SnodeId(1), ms(0));
        assert_eq!(t.len(), 2);
        // Holder 0 renews at 80ms, holder 1 goes silent: it lapses at
        // 100ms, the renewed lease lives on to 180ms.
        t.renew(SnodeId(0), ms(80));
        assert_eq!(t.iter().collect::<Vec<_>>(), [(SnodeId(0), ms(180)), (SnodeId(1), ms(100))]);
    }

    #[test]
    fn a_regrant_replaces_never_duplicates() {
        let mut t = LeaseTable::new(ms(50));
        t.grant(SnodeId(7), ms(10));
        t.grant(SnodeId(7), ms(0));
        t.grant(SnodeId(7), ms(30));
        assert_eq!(t.len(), 1, "the map key is the uniqueness invariant");
        // A grant never extends the lease: the earliest one governs.
        assert_eq!(t.iter().next(), Some((SnodeId(7), ms(50))));
    }

    #[test]
    fn a_record_without_a_grant_holds_no_lease() {
        let mut t = LeaseTable::new(ms(50));
        t.record(SnodeId(2)).stalled = true;
        t.renew(SnodeId(2), ms(10));
        assert!(t.is_empty(), "renewal never creates a lease");
        t.grant(SnodeId(2), ms(20));
        assert_eq!(t.iter().next(), Some((SnodeId(2), ms(70))));
        assert!(t.get(SnodeId(2)).is_some_and(|l| l.stalled));
    }

    #[test]
    fn verify_matches_roster() {
        let mut t = LeaseTable::new(ms(50));
        t.grant(SnodeId(0), ms(0));
        t.grant(SnodeId(1), ms(0));
        t.verify(2, |_| 1).unwrap();
        // A hosting snode without a lease is caught...
        assert!(t.verify(3, |_| 1).is_err());
        // ...as is a lease that outlived its snode's vnodes.
        assert!(t.verify(1, |s| usize::from(s == SnodeId(0))).is_err());
    }

    #[test]
    fn release_holder_sweeps_only_that_snode() {
        let mut t = LeaseTable::new(ms(50));
        for s in 0..3 {
            t.grant(SnodeId(s), ms(0));
        }
        t.record(SnodeId(0)).streak = 2;
        assert_eq!(t.release(SnodeId(0)).map(|l| l.streak), Some(2));
        assert_eq!(t.iter().map(|(s, _)| s).collect::<Vec<_>>(), [SnodeId(1), SnodeId(2)]);
    }
}
