//! Who the replay picks: the crashed snodes eligible to rejoin, and the
//! rank and slice selection rules over the engine's creation order.
//!
//! Events name victims by *tag* or by *rank* into the live vnodes'
//! creation order, never by engine handle, so one stream drives every
//! backend through the same decisions. Who is live is the engine's
//! answer, not a copy kept here: `DhtEngine::vnodes()` is the creation
//! order (a vnode keeps its handle and its place through a group
//! migration), and `DhtEngine::vnodes_of_snode` answers every tag query
//! off the engine's per-snode index. Every selection rule is written
//! here once, over a slice of that order.

use crate::event::NodeTag;
use domus_core::VnodeId;

/// The vnode at rank `draw` modulo the live count (`None` when nothing
/// is live).
pub(crate) fn at_rank(live: &[VnodeId], draw: u64) -> Option<VnodeId> {
    (!live.is_empty()).then(|| live[(draw % live.len() as u64) as usize])
}

/// A contiguous slice of `fraction_ppm` of the live vnodes (at least
/// one), starting at rank `draw` and wrapping around the end.
pub(crate) fn slice(live: &[VnodeId], fraction_ppm: u32, draw: u64) -> Vec<VnodeId> {
    let n = live.len();
    if n == 0 {
        return Vec::new();
    }
    let take = ((n as u64 * u64::from(fraction_ppm)) / 1_000_000).max(1) as usize;
    let start = (draw % n as u64) as usize;
    (0..take.min(n)).map(|i| live[(start + i) % n]).collect()
}

/// The replay's own state: the crashed snodes, with the vnode count each
/// held at crash time (shared across engines: same stream ⇒ same list).
#[derive(Debug, Default)]
pub(crate) struct Roster {
    crashed: Vec<(NodeTag, u32)>,
}

impl Roster {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Vnodes 10..15 in creation order.
    fn live() -> Vec<VnodeId> {
        (10..15).map(VnodeId).collect()
    }

    #[test]
    fn rank_selection_is_modulo_the_live_count() {
        let live = live();
        assert_eq!(at_rank(&live, 0), Some(VnodeId(10)));
        assert_eq!(at_rank(&live, 3), Some(VnodeId(13)));
        assert_eq!(at_rank(&live, 5), Some(VnodeId(10)), "rank 5 of 5 wraps to rank 0");
        assert_eq!(at_rank(&live, u64::MAX), Some(live[(u64::MAX % 5) as usize]));
        assert_eq!(at_rank(&[], 7), None, "nothing to select when nothing is live");
    }

    #[test]
    fn fail_slice_wraps_around_and_takes_at_least_one() {
        let live = live();
        // 40% of 5 = 2 vnodes, starting at rank 4: wraps to rank 0.
        assert_eq!(slice(&live, 400_000, 4), vec![VnodeId(14), VnodeId(10)]);
        // A fraction that rounds to zero still fails one vnode.
        assert_eq!(slice(&live, 1, 7), vec![VnodeId(12)]);
        // A full slice visits every vnode exactly once, from the draw.
        assert_eq!(
            slice(&live, 1_000_000, 3),
            [13, 14, 10, 11, 12].map(VnodeId).to_vec(),
            "the whole order, rotated"
        );
        assert!(slice(&[], 500_000, 3).is_empty());
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
