//! Lease-based vnode ownership.
//!
//! Every live vnode is covered by exactly **one** lease naming the snode
//! that serves it — the map from vnode to lease is the table's key
//! structure, so "no two live leases on one vnode" holds by
//! construction, not by convention (`tests/property_route.rs` hammers
//! this). Leases expire on a deterministic sim clock: a holder that
//! keeps renewing (the healthy case) pushes its expiry forward every
//! tick; a holder that goes silent — a crash the cluster never heard
//! about, a stalled process — simply stops renewing, and after the TTL
//! its leases surface in [`LeaseTable::expired`] for the control plane
//! to fail over.

use domus_core::{SnodeId, VnodeId};
use domus_sim::SimTime;
use std::collections::BTreeMap;

/// One snode's claim on one vnode, valid until `expires_at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    /// The snode serving the vnode.
    pub holder: SnodeId,
    /// The instant the claim lapses unless renewed first.
    pub expires_at: SimTime,
    /// Renewals granted so far (0 = freshly granted).
    pub renewals: u64,
}

/// All live leases, keyed by vnode.
///
/// The key structure *is* the uniqueness invariant: a vnode maps to at
/// most one lease, and [`LeaseTable::grant`] replaces rather than
/// duplicates.
#[derive(Debug, Clone)]
pub struct LeaseTable {
    ttl: SimTime,
    leases: BTreeMap<VnodeId, Lease>,
}

impl LeaseTable {
    /// An empty table granting leases of `ttl`.
    ///
    /// # Panics
    /// Panics when `ttl` is zero — a lease that expires the instant it
    /// is granted can never be renewed in time.
    pub fn new(ttl: SimTime) -> Self {
        assert!(ttl > SimTime::ZERO, "lease TTL must be positive");
        Self { ttl, leases: BTreeMap::new() }
    }

    /// The TTL every grant and renewal extends to.
    pub fn ttl(&self) -> SimTime {
        self.ttl
    }

    /// Live leases held.
    pub fn len(&self) -> usize {
        self.leases.len()
    }

    /// `true` when no lease is held.
    pub fn is_empty(&self) -> bool {
        self.leases.is_empty()
    }

    /// The lease covering `v`, if any.
    pub fn holder_of(&self, v: VnodeId) -> Option<&Lease> {
        self.leases.get(&v)
    }

    /// Iterates `(vnode, lease)` in vnode order.
    pub fn iter(&self) -> impl Iterator<Item = (VnodeId, &Lease)> {
        self.leases.iter().map(|(v, l)| (*v, l))
    }

    /// Grants (or re-grants) the lease on `v` to `snode`, valid for one
    /// TTL from `now`. Replaces any previous lease on `v` — the table
    /// never holds two.
    pub fn grant(&mut self, v: VnodeId, snode: SnodeId, now: SimTime) {
        self.leases.insert(v, Lease { holder: snode, expires_at: now + self.ttl, renewals: 0 });
    }

    /// Releases the lease on `v` (vnode removed or failed over).
    pub fn release(&mut self, v: VnodeId) -> Option<Lease> {
        self.leases.remove(&v)
    }

    /// Releases every lease held by `s` (snode gone), returning how many.
    pub fn release_holder(&mut self, s: SnodeId) -> usize {
        let before = self.leases.len();
        self.leases.retain(|_, l| l.holder != s);
        before - self.leases.len()
    }

    /// Renews every lease held by `s` to one TTL past `now`, returning
    /// how many. A silent snode is exactly one that stops calling this.
    pub fn renew_holder(&mut self, s: SnodeId, now: SimTime) -> usize {
        let mut renewed = 0;
        for lease in self.leases.values_mut().filter(|l| l.holder == s) {
            lease.expires_at = now + self.ttl;
            lease.renewals += 1;
            renewed += 1;
        }
        renewed
    }

    /// The leases that have lapsed at `now` (expiry ≤ now), in vnode
    /// order — the failover worklist.
    pub fn expired(&self, now: SimTime) -> Vec<(VnodeId, Lease)> {
        self.iter().filter(|(_, l)| l.expires_at <= now).map(|(v, l)| (v, *l)).collect()
    }

    /// Distinct holders with at least one lapsed lease at `now`.
    pub fn expired_holders(&self, now: SimTime) -> Vec<SnodeId> {
        let mut out: Vec<SnodeId> = Vec::new();
        for (_, l) in self.iter() {
            if l.expires_at <= now && !out.contains(&l.holder) {
                out.push(l.holder);
            }
        }
        out
    }

    /// Checks the table against the authoritative roster: every live
    /// vnode carries exactly one lease held by its hosting snode, and no
    /// lease covers a dead vnode. (Pairwise uniqueness needs no check —
    /// the map key guarantees it.)
    pub fn verify<I>(&self, roster: I) -> Result<(), String>
    where
        I: IntoIterator<Item = (VnodeId, SnodeId)>,
    {
        let mut live = 0usize;
        for (v, s) in roster {
            live += 1;
            match self.leases.get(&v) {
                None => return Err(format!("live vnode {v:?} has no lease")),
                Some(l) if l.holder != s => {
                    return Err(format!(
                        "lease on {v:?} held by {:?} but hosted by {s:?}",
                        l.holder
                    ))
                }
                Some(_) => {}
            }
        }
        if live != self.leases.len() {
            return Err(format!(
                "{} leases cover {live} live vnodes — some lease outlived its vnode",
                self.leases.len()
            ));
        }
        Ok(())
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
        t.grant(VnodeId(1), SnodeId(0), ms(0));
        t.grant(VnodeId(2), SnodeId(1), ms(0));
        assert_eq!(t.len(), 2);
        assert!(t.expired(ms(99)).is_empty());
        // Holder 0 renews at 80ms, holder 1 goes silent.
        assert_eq!(t.renew_holder(SnodeId(0), ms(80)), 1);
        let lapsed = t.expired(ms(100));
        assert_eq!(lapsed.len(), 1);
        assert_eq!(lapsed[0].0, VnodeId(2));
        assert_eq!(t.expired_holders(ms(100)), vec![SnodeId(1)]);
        // The renewed lease lives on to 180ms.
        assert!(t.holder_of(VnodeId(1)).unwrap().expires_at == ms(180));
        assert_eq!(t.holder_of(VnodeId(1)).unwrap().renewals, 1);
    }

    #[test]
    fn a_regrant_replaces_never_duplicates() {
        let mut t = LeaseTable::new(ms(50));
        t.grant(VnodeId(7), SnodeId(0), ms(0));
        t.grant(VnodeId(7), SnodeId(3), ms(10));
        assert_eq!(t.len(), 1, "the map key is the uniqueness invariant");
        assert_eq!(t.holder_of(VnodeId(7)).unwrap().holder, SnodeId(3));
    }

    #[test]
    fn verify_matches_roster() {
        let mut t = LeaseTable::new(ms(50));
        t.grant(VnodeId(1), SnodeId(0), ms(0));
        t.grant(VnodeId(2), SnodeId(1), ms(0));
        let roster = vec![(VnodeId(1), SnodeId(0)), (VnodeId(2), SnodeId(1))];
        t.verify(roster.clone()).unwrap();
        // A vnode without a lease is caught...
        t.release(VnodeId(2));
        assert!(t.verify(roster.clone()).is_err());
        // ...as is a lease that outlived its vnode...
        t.grant(VnodeId(2), SnodeId(1), ms(0));
        t.grant(VnodeId(3), SnodeId(2), ms(0));
        assert!(t.verify(roster.clone()).is_err());
        // ...and a holder mismatch.
        t.release(VnodeId(3));
        t.grant(VnodeId(2), SnodeId(5), ms(0));
        assert!(t.verify(roster).is_err());
    }

    #[test]
    fn release_holder_sweeps_only_that_snode() {
        let mut t = LeaseTable::new(ms(50));
        for i in 0..6u32 {
            t.grant(VnodeId(i), SnodeId(i % 2), ms(0));
        }
        assert_eq!(t.release_holder(SnodeId(0)), 3);
        assert_eq!(t.len(), 3);
        assert!(t.iter().all(|(_, l)| l.holder == SnodeId(1)));
    }
}
