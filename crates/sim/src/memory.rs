//! Record-memory accounting (SIM-MEM).
//!
//! §1 of the paper promises the local approach will "globally reduce
//! memory utilization": every snode replicates the *global* record under
//! the global approach (`V` entries × `S` snodes), while under the local
//! approach an snode only replicates the LPDRs of groups it actually
//! hosts vnodes of.

use domus_core::{DhtEngine, GroupId, LocalDht, SnodeId};
use domus_util::DomusRng;
use std::collections::{BTreeMap, BTreeSet};

/// Per-snode record footprints.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordFootprint {
    /// Record entries replicated at each snode.
    pub per_snode_entries: BTreeMap<SnodeId, u64>,
    /// Number of distinct records (LPDRs/GPDR copies) each snode holds.
    pub per_snode_records: BTreeMap<SnodeId, u64>,
}

impl RecordFootprint {
    /// Total replicated entries across the cluster.
    pub fn total_entries(&self) -> u64 {
        self.per_snode_entries.values().sum()
    }

    /// Largest per-snode entry count.
    pub fn max_entries(&self) -> u64 {
        self.per_snode_entries.values().max().copied().unwrap_or(0)
    }

    /// Mean entries per snode.
    pub fn mean_entries(&self) -> f64 {
        if self.per_snode_entries.is_empty() {
            return 0.0;
        }
        self.total_entries() as f64 / self.per_snode_entries.len() as f64
    }
}

/// GPDR footprint under the global approach: every snode hosting vnodes
/// keeps a full `V`-entry copy (§2.1.4: "every snode hosts a copy").
pub fn global_footprint<E: DhtEngine>(dht: &E) -> RecordFootprint {
    let v = dht.vnode_count() as u64;
    let mut snodes: BTreeSet<SnodeId> = BTreeSet::new();
    dht.for_each_vnode(&mut |vn| {
        snodes.insert(dht.snode_of(vn).expect("alive"));
    });
    let mut fp = RecordFootprint::default();
    for s in snodes {
        fp.per_snode_entries.insert(s, v);
        fp.per_snode_records.insert(s, 1);
    }
    fp
}

/// LPDR footprint under the local approach: each snode keeps "an instance
/// of the LPDR of each group in which participate local vnodes" (§3.2).
pub fn local_footprint<R: DomusRng>(dht: &LocalDht<R>) -> RecordFootprint {
    // Group sizes by gid.
    let group_size: BTreeMap<GroupId, u64> =
        dht.group_table().into_iter().map(|(gid, len, _)| (gid, len as u64)).collect();
    // Which groups does each snode participate in?
    let mut membership: BTreeMap<SnodeId, BTreeSet<GroupId>> = BTreeMap::new();
    dht.for_each_vnode(&mut |v| {
        let s = dht.snode_of(v).expect("alive");
        let g = dht.group_of(v).expect("alive");
        membership.entry(s).or_default().insert(g);
    });
    let mut fp = RecordFootprint::default();
    for (s, groups) in membership {
        let entries = groups.iter().map(|g| group_size[g]).sum();
        fp.per_snode_records.insert(s, groups.len() as u64);
        fp.per_snode_entries.insert(s, entries);
    }
    fp
}

#[cfg(test)]
mod tests {
    use super::*;
    use domus_core::{DhtConfig, GlobalDht, NullSink, SnodeId};
    use domus_hashspace::HashSpace;

    #[test]
    fn global_footprint_is_s_times_v() {
        let cfg = DhtConfig::new(HashSpace::new(32), 4, 1).unwrap();
        let mut dht = GlobalDht::with_seed(cfg, 1);
        for i in 0..40u32 {
            dht.create_vnode_with(SnodeId(i % 8), &mut NullSink).unwrap();
        }
        let fp = global_footprint(&dht);
        assert_eq!(fp.total_entries(), 8 * 40);
        assert_eq!(fp.max_entries(), 40);
        assert_eq!(fp.per_snode_records.values().sum::<u64>(), 8);
    }

    #[test]
    fn local_footprint_undercuts_global() {
        let cfg = DhtConfig::new(HashSpace::new(32), 4, 4).unwrap();
        let mut dht = domus_core::LocalDht::with_seed(cfg, 1);
        for i in 0..200u32 {
            dht.create_vnode_with(SnodeId(i % 16), &mut NullSink).unwrap();
        }
        let local = local_footprint(&dht);
        let global_equiv = global_footprint(&dht);
        assert!(
            local.total_entries() < global_equiv.total_entries() / 2,
            "local {} entries vs global {}",
            local.total_entries(),
            global_equiv.total_entries()
        );
    }

    #[test]
    fn local_entries_count_each_hosted_group_once() {
        let cfg = DhtConfig::new(HashSpace::new(32), 4, 2).unwrap();
        let mut dht = domus_core::LocalDht::with_seed(cfg, 7);
        // One snode hosts everything: it participates in every group, so
        // its entries equal V and its record count equals G.
        for _ in 0..32 {
            dht.create_vnode_with(SnodeId(0), &mut NullSink).unwrap();
        }
        let fp = local_footprint(&dht);
        assert_eq!(fp.per_snode_entries[&SnodeId(0)], 32);
        assert_eq!(fp.per_snode_records[&SnodeId(0)], dht.group_count() as u64);
    }
}
