//! The engine-agnostic churn event vocabulary.
//!
//! A scenario compiles to a flat, time-sorted [`EventStream`] **before**
//! any engine is involved: events reference cluster nodes by an abstract
//! [`NodeTag`] (the arrival's identity) or by rank in the live vnodes'
//! creation order, never by engine-specific handles. The same stream therefore
//! replays bit-identically into the global approach, the local approach
//! and Consistent Hashing — which is what makes cross-backend churn
//! comparisons fair, and what [`EventStream::fingerprint`] asserts.

use domus_sim::SimTime;
use domus_util::SplitMix64;

/// Identity of one physical-node arrival in a scenario.
///
/// Tags double as [`domus_core::SnodeId`] values during replay (the tag
/// *is* the snode id), so the vnode→snode assignment is a property of the
/// stream, identical across engines. The high bits carry the generating
/// process index, the low bits its arrival sequence number, so concurrent
/// processes never collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeTag(pub u32);

impl NodeTag {
    /// Bits reserved for the per-process arrival sequence number.
    pub const SEQ_BITS: u32 = 22;

    /// The tag of arrival `seq` of process `process`.
    ///
    /// # Panics
    /// Panics if `seq` overflows the sequence field (4M arrivals per
    /// process) or `process` the process field (1024 processes).
    pub fn new(process: u32, seq: u32) -> Self {
        assert!(seq < 1 << Self::SEQ_BITS, "arrival sequence overflow");
        assert!(process < 1 << (32 - Self::SEQ_BITS), "process index overflow");
        NodeTag(process << Self::SEQ_BITS | seq)
    }
}

/// What happens at one instant of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A physical node arrives and enrolls `vnodes` vnodes (its capacity —
    /// heterogeneous scenarios draw different counts per arrival).
    Join {
        /// The arrival's identity (also its snode id).
        node: NodeTag,
        /// Enrolled capacity in vnodes, ≥ 1.
        vnodes: u32,
    },
    /// A previously joined node departs with **all** its vnodes.
    /// A no-op if the node's vnodes are already gone (e.g. a preceding
    /// correlated failure took them).
    Leave {
        /// The departing arrival.
        node: NodeTag,
    },
    /// Correlated mass failure: a contiguous slice of the live vnodes, in
    /// creation order, departs at once (a rack or sub-cluster dying). The
    /// slice is `max(1, fraction_ppm·live/10⁶)` vnodes starting at rank
    /// `draw mod live` — rank-based, so the selection is identical on
    /// every engine.
    FailSlice {
        /// Failed fraction of the live vnodes, in parts per million.
        fraction_ppm: u32,
        /// Pre-drawn randomness locating the slice.
        draw: u64,
    },
    /// An **ungraceful** departure: the node crashes with all its vnodes.
    /// Unlike [`EventKind::Leave`], whatever data the node held is *not*
    /// migrated out — it is lost unless the overlay replicated it. A
    /// no-op if the node's vnodes are already gone.
    Crash {
        /// The crashing arrival.
        node: NodeTag,
    },
    /// An ungraceful crash of a rank-selected node: the snode owning the
    /// live vnode at rank `draw mod live` crashes with **all** its
    /// vnodes — rank-based, so the victim is identical on every engine.
    CrashRank {
        /// Pre-drawn randomness locating the victim.
        draw: u64,
    },
    /// A **silent** stall of a rank-selected node: its data plane stops
    /// answering but no crash notification ever reaches the cluster —
    /// the only observable signal is that the node stops renewing its
    /// leases. The event itself performs **no engine operation**;
    /// recovery happens later, via lease expiry, when a router is
    /// attached (`ChurnDriver::with_router`) — without one the event is
    /// skipped, like a `Leave` for a node never seen.
    StallRank {
        /// Pre-drawn randomness locating the victim.
        draw: u64,
    },
    /// A previously **crashed** node comes back with the vnode count it
    /// held at crash time, replaying its write-ahead log instead of
    /// being rebuilt from replicas. The victim is the crashed-roster
    /// entry at rank `draw mod crashed` — rank-based over the (shared,
    /// deterministic) crashed set, so the pick is identical on every
    /// engine. A no-op while nothing is crashed, and on overlays
    /// without a durability tier.
    RejoinRank {
        /// Pre-drawn randomness locating the returning node.
        draw: u64,
    },
    /// A rank-selected node degrades: its *effective* capacity drops to
    /// `factor_ppm` parts-per-million of what it declared (disks dying,
    /// a noisy neighbour), while its quota share stays put — the
    /// deterministic hot-spot injection. Observable only to an attached
    /// router's capacity-weighted detector; skipped without one.
    DegradeRank {
        /// Pre-drawn randomness locating the victim.
        draw: u64,
        /// Remaining effective capacity, in parts per million.
        factor_ppm: u32,
    },
}

/// One timestamped event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// When the event fires (simulated wall clock).
    pub at: SimTime,
    /// What fires.
    pub kind: EventKind,
}

/// A compiled, time-sorted scenario: the unit of replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventStream {
    events: Vec<ChurnEvent>,
    horizon: SimTime,
}

impl EventStream {
    /// Wraps pre-sorted events (callers: [`crate::Scenario::build`]).
    ///
    /// # Panics
    /// Panics if the events are not sorted by time.
    pub fn new(events: Vec<ChurnEvent>, horizon: SimTime) -> Self {
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at), "event stream must be time-sorted");
        Self { events, horizon }
    }

    /// The events, in time order.
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when the stream has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// End of the observation period (≥ the last event time).
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Keeps only the first `n` events — smoke-test mode. The horizon
    /// shrinks to the last surviving event so windowing stays sensible.
    pub fn truncate(&mut self, n: usize) {
        if n < self.events.len() {
            self.events.truncate(n);
            self.horizon = self.events.last().map(|e| e.at).unwrap_or(SimTime::ZERO);
        }
    }

    /// An order- and content-sensitive 64-bit digest of the stream.
    ///
    /// Two streams fingerprint equal iff every event matches field-for-
    /// field in order — the cheap way to assert "same seed ⇒ identical
    /// stream" across backends without serialising anything.
    pub fn fingerprint(&self) -> u64 {
        let mut h = SplitMix64::mix(self.horizon.nanos() ^ self.events.len() as u64);
        for e in &self.events {
            h = SplitMix64::mix(h ^ e.at.nanos());
            let (disc, a, b) = match e.kind {
                EventKind::Join { node, vnodes } => (1u64, node.0 as u64, vnodes as u64),
                EventKind::Leave { node } => (2, node.0 as u64, 0),
                EventKind::FailSlice { fraction_ppm, draw } => (3, fraction_ppm as u64, draw),
                EventKind::Crash { node } => (4, node.0 as u64, 0),
                EventKind::CrashRank { draw } => (5, draw, 0),
                EventKind::StallRank { draw } => (6, draw, 0),
                EventKind::DegradeRank { draw, factor_ppm } => (7, draw, factor_ppm as u64),
                EventKind::RejoinRank { draw } => (8, draw, 0),
            };
            h = SplitMix64::mix(h ^ disc);
            h = SplitMix64::mix(h ^ a);
            h = SplitMix64::mix(h ^ b);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn join(at_ms: u64, tag: u32) -> ChurnEvent {
        ChurnEvent {
            at: SimTime::millis(at_ms),
            kind: EventKind::Join { node: NodeTag(tag), vnodes: 1 },
        }
    }

    #[test]
    fn tags_partition_by_process() {
        let a = NodeTag::new(0, 5);
        let b = NodeTag::new(1, 5);
        assert_ne!(a, b);
        assert_eq!(NodeTag::new(0, 5), NodeTag(5));
    }

    #[test]
    #[should_panic(expected = "sequence overflow")]
    fn tag_overflow_panics() {
        let _ = NodeTag::new(0, 1 << NodeTag::SEQ_BITS);
    }

    #[test]
    fn fingerprint_is_order_and_content_sensitive() {
        let horizon = SimTime::millis(100);
        let a = EventStream::new(vec![join(1, 0), join(2, 1)], horizon);
        let b = EventStream::new(vec![join(1, 0), join(2, 1)], horizon);
        let c = EventStream::new(vec![join(1, 1), join(2, 0)], horizon);
        let d = EventStream::new(vec![join(1, 0), join(2, 2)], horizon);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn truncate_shrinks_horizon() {
        let mut s = EventStream::new(vec![join(1, 0), join(2, 1), join(9, 2)], SimTime::millis(50));
        s.truncate(2);
        assert_eq!(s.len(), 2);
        assert_eq!(s.horizon(), SimTime::millis(2));
        // Truncating to more than the length is a no-op.
        s.truncate(10);
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "time-sorted")]
    fn unsorted_events_rejected() {
        let _ = EventStream::new(vec![join(5, 0), join(1, 1)], SimTime::millis(9));
    }
}
