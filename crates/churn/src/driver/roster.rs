//! Who is in the DHT, as the replay sees it: live vnodes in creation
//! order, tagged by the arrival that enrolled them, plus the crashed
//! snodes eligible to rejoin.
//!
//! Events name victims by *tag* or by *rank* into this order, never by
//! engine handle, so the roster is what makes one stream drive every
//! backend through the same decisions. Every selection rule is written
//! here once. A vnode keeps its handle for life (a migration between
//! groups included), so this order is also the engine's `vnodes()`
//! order. Lookups scan the `Vec`: the order is part of the replay
//! contract, and an index over it is a change for whoever can show a
//! gain from it.

use crate::event::NodeTag;
use domus_core::{SnodeId, VnodeId};

/// The replay roster (shared across engines: same stream ⇒ same roster).
#[derive(Debug, Default)]
pub(crate) struct Roster {
    live: Vec<(NodeTag, VnodeId)>,
    /// Crashed snodes with the vnode count each held at crash time.
    crashed: Vec<(NodeTag, u32)>,
}

impl Roster {
    /// Live vnodes.
    pub(crate) fn len(&self) -> usize {
        self.live.len()
    }

    /// Enrolls `v` under `tag`, last in creation order.
    pub(crate) fn push(&mut self, tag: NodeTag, v: VnodeId) {
        self.live.push((tag, v));
    }

    /// The tag hosting the vnode at rank `draw` modulo the live count
    /// (`None` on an empty roster).
    pub(crate) fn tag_at(&self, draw: u64) -> Option<NodeTag> {
        let live = self.live.len() as u64;
        (live > 0).then(|| self.live[(draw % live) as usize].0)
    }

    /// A contiguous slice of `fraction_ppm` of the live vnodes (at least
    /// one), starting at rank `draw` and wrapping around the end.
    pub(crate) fn slice(&self, fraction_ppm: u32, draw: u64) -> Vec<VnodeId> {
        let live = self.live.len();
        if live == 0 {
            return Vec::new();
        }
        let n = ((live as u64 * u64::from(fraction_ppm)) / 1_000_000).max(1) as usize;
        let start = (draw % live as u64) as usize;
        (0..n.min(live)).map(|i| self.live[(start + i) % live].1).collect()
    }

    /// `tag`'s vnodes, in creation order.
    pub(crate) fn vnodes_of(&self, tag: NodeTag) -> Vec<VnodeId> {
        self.live.iter().filter(|(t, _)| *t == tag).map(|&(_, v)| v).collect()
    }

    /// How many vnodes `tag` hosts.
    pub(crate) fn count_of(&self, tag: NodeTag) -> usize {
        self.live.iter().filter(|(t, _)| *t == tag).count()
    }

    /// `tag`'s first-enrolled vnode.
    pub(crate) fn first_of(&self, tag: NodeTag) -> Option<VnodeId> {
        self.live.iter().find(|(t, _)| *t == tag).map(|&(_, v)| v)
    }

    /// The longest-lived vnode of all.
    pub(crate) fn first(&self) -> Option<VnodeId> {
        self.live.first().map(|&(_, v)| v)
    }

    /// Drops `v`.
    pub(crate) fn remove(&mut self, v: VnodeId) {
        self.live.retain(|&(_, rv)| rv != v);
    }

    /// Drops every vnode of `tag`.
    pub(crate) fn remove_tag(&mut self, tag: NodeTag) {
        self.live.retain(|&(t, _)| t != tag);
    }

    /// Records that `tag` crashed while hosting `vnodes` vnodes.
    pub(crate) fn note_crashed(&mut self, tag: NodeTag, vnodes: u32) {
        self.crashed.push((tag, vnodes));
    }

    /// Takes the crashed snode at rank `draw` modulo the crashed count
    /// off the list (`None` while nothing is crashed).
    pub(crate) fn take_crashed(&mut self, draw: u64) -> Option<(NodeTag, u32)> {
        let down = self.crashed.len() as u64;
        (down > 0).then(|| self.crashed.remove((draw % down) as usize))
    }

    /// `(vnode, hosting snode)` for every live vnode — the authoritative
    /// view lease safety is verified against.
    pub(crate) fn hosting(&self) -> impl Iterator<Item = (VnodeId, SnodeId)> + '_ {
        self.live.iter().map(|&(t, v)| (v, SnodeId(t.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tags 0,1,1,2,0 hosting vnodes 10..15.
    fn roster() -> Roster {
        let mut r = Roster::default();
        for (tag, v) in [(0, 10), (1, 11), (1, 12), (2, 13), (0, 14)] {
            r.push(NodeTag(tag), VnodeId(v));
        }
        r
    }

    #[test]
    fn rank_selection_is_modulo_the_live_count() {
        let r = roster();
        assert_eq!(r.tag_at(0), Some(NodeTag(0)));
        assert_eq!(r.tag_at(3), Some(NodeTag(2)));
        assert_eq!(r.tag_at(5), Some(NodeTag(0)), "rank 5 of 5 wraps to rank 0");
        assert_eq!(r.tag_at(u64::MAX), Some(r.live[(u64::MAX % 5) as usize].0));
        assert_eq!(Roster::default().tag_at(7), None, "nothing to select on an empty roster");
    }

    #[test]
    fn fail_slice_wraps_around_and_takes_at_least_one() {
        let r = roster();
        // 40% of 5 = 2 vnodes, starting at rank 4: wraps to rank 0.
        assert_eq!(r.slice(400_000, 4), vec![VnodeId(14), VnodeId(10)]);
        // A fraction that rounds to zero still fails one vnode.
        assert_eq!(r.slice(1, 7), vec![VnodeId(12)]);
        // A full slice visits every vnode exactly once, from the draw.
        assert_eq!(
            r.slice(1_000_000, 3),
            [13, 14, 10, 11, 12].map(VnodeId).to_vec(),
            "the whole roster, rotated"
        );
        assert!(Roster::default().slice(500_000, 3).is_empty());
    }

    #[test]
    fn tag_queries_keep_creation_order() {
        let r = roster();
        assert_eq!(r.vnodes_of(NodeTag(0)), vec![VnodeId(10), VnodeId(14)]);
        assert_eq!(r.count_of(NodeTag(1)), 2);
        assert_eq!(r.count_of(NodeTag(9)), 0);
        assert_eq!(r.first_of(NodeTag(1)), Some(VnodeId(11)));
        assert_eq!(r.first_of(NodeTag(9)), None);
        assert_eq!(r.first(), Some(VnodeId(10)));
    }

    #[test]
    fn removals_keep_the_rest_in_creation_order() {
        let mut r = roster();
        r.remove(VnodeId(10));
        assert_eq!(r.vnodes_of(NodeTag(1)), vec![VnodeId(11), VnodeId(12)]);
        assert_eq!(r.len(), 4);
        // Removing a handle nobody holds is a no-op.
        r.remove(VnodeId(500));
        assert_eq!(r.hosting().count(), 4);
        r.remove_tag(NodeTag(1));
        assert_eq!(
            r.hosting().collect::<Vec<_>>(),
            vec![(VnodeId(13), SnodeId(2)), (VnodeId(14), SnodeId(0))]
        );
    }

    #[test]
    fn crashed_snodes_leave_the_list_by_rank() {
        let mut r = Roster::default();
        assert_eq!(r.take_crashed(3), None);
        for (tag, n) in [(4, 1), (5, 2), (6, 3)] {
            r.note_crashed(NodeTag(tag), n);
        }
        assert_eq!(r.take_crashed(4), Some((NodeTag(5), 2)), "rank 4 of 3 is rank 1");
        assert_eq!(r.take_crashed(4), Some((NodeTag(4), 1)), "rank 4 of 2 is rank 0");
        assert_eq!(r.take_crashed(0), Some((NodeTag(6), 3)));
        assert_eq!(r.take_crashed(0), None);
    }
}
