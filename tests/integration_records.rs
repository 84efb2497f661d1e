//! Integration tests of the protocol-visible record views (GPDR/LPDR):
//! the tables the paper's snodes replicate and sort must agree with the
//! engines' internal state at every step.

use domus::prelude::*;

#[test]
fn gpdr_registers_every_vnode_with_true_counts() {
    let cfg = DhtConfig::new(HashSpace::new(32), 8, 1).unwrap();
    let mut dht = GlobalDht::with_seed(cfg, 3);
    for i in 0..25u32 {
        dht.create_vnode_with(SnodeId(i % 4), &mut NullSink).unwrap();
        let gpdr = dht.gpdr();
        assert_eq!(gpdr.len(), dht.vnode_count());
        // Row counts equal the actual partition lists.
        let mut by_name = std::collections::HashMap::new();
        for v in dht.vnodes() {
            by_name.insert(dht.name_of(v).unwrap(), dht.partition_count(v).unwrap());
        }
        for e in gpdr.entries() {
            assert_eq!(by_name[&e.vnode], e.partitions);
        }
        // G2: the registered total is a power of two.
        assert!(gpdr.total_partitions().is_power_of_two());
    }
}

#[test]
fn lpdr_is_the_downsized_gpdr_of_one_group() {
    // §3.2: "a LPDR is a table that may be viewed as a downsized version
    // of the GPDR, having its same basic structure".
    let cfg = DhtConfig::new(HashSpace::new(32), 4, 4).unwrap();
    let mut dht = LocalDht::with_seed(cfg, 9);
    for i in 0..40u32 {
        dht.create_vnode_with(SnodeId(i % 6), &mut NullSink).unwrap();
    }
    assert!(dht.group_count() > 1);
    let mut total_rows = 0;
    let mut total_parts = 0u64;
    for (gid, size, level) in dht.group_table() {
        let lpdr = dht.lpdr(gid).expect("live group");
        assert_eq!(lpdr.len(), size);
        total_rows += lpdr.len();
        total_parts += lpdr.total_partitions();
        // G2': per-group totals are powers of two; the quota law ties the
        // total to the group's depth and level.
        assert!(lpdr.total_partitions().is_power_of_two());
        let quota = lpdr.total_partitions() as f64 / (level as f64).exp2();
        let expected = 0.5f64.powi(gid.depth_quota_log2() as i32);
        assert!((quota - expected).abs() < 1e-12);
    }
    // L1: the LPDRs partition the vnode set.
    assert_eq!(total_rows, dht.vnode_count());
    let _ = total_parts;
}

#[test]
fn pdr_victim_is_what_the_greedy_would_drain() {
    // The paper's step-3 "victim vnode" (most partitions, by sorted
    // record) is whom the next creation takes from first — verify through
    // the reported transfers.
    let cfg = DhtConfig::new(HashSpace::new(32), 8, 1).unwrap();
    let mut dht = GlobalDht::with_seed(cfg, 31);
    for i in 0..11u32 {
        dht.create_vnode_with(SnodeId(i), &mut NullSink).unwrap();
    }
    let victim_count = dht.gpdr().victim().unwrap().partitions;
    let max_count = dht.gpdr().entries().iter().map(|e| e.partitions).max().unwrap();
    assert_eq!(victim_count, max_count);
    let mut report = CollectReport::new();
    dht.create_vnode_with(SnodeId(99), &mut report).unwrap();
    if let Some(first) = report.transfers().first() {
        // The first donor held the maximum at the moment of the transfer
        // (post-cascade if one ran).
        let donor_count_now = dht.partition_count(first.from).unwrap();
        assert!(donor_count_now >= dht.config().pmin);
    }
}

#[test]
fn pdr_of_returns_group_scoped_views_locally() {
    let cfg = DhtConfig::new(HashSpace::new(32), 4, 2).unwrap();
    let mut dht = LocalDht::with_seed(cfg, 17);
    for i in 0..24u32 {
        dht.create_vnode_with(SnodeId(i % 3), &mut NullSink).unwrap();
    }
    for v in dht.vnodes() {
        let pdr = dht.pdr_of(v).unwrap();
        let gid = dht.group_of(v).unwrap();
        assert_eq!(pdr, dht.lpdr(gid).unwrap(), "pdr_of must be the vnode's LPDR");
        // The vnode itself appears in its own record.
        let name = dht.name_of(v).unwrap();
        assert!(pdr.entries().iter().any(|e| e.vnode == name));
    }
}

#[test]
fn wire_size_tracks_row_count() {
    let cfg = DhtConfig::new(HashSpace::new(32), 4, 4).unwrap();
    let mut dht = LocalDht::with_seed(cfg, 23);
    dht.create_vnode_with(SnodeId(0), &mut NullSink).unwrap();
    let one = dht.pdr_of(dht.vnodes()[0]).unwrap().wire_size_bytes();
    for i in 1..8u32 {
        dht.create_vnode_with(SnodeId(i), &mut NullSink).unwrap();
    }
    let eight = dht.pdr_of(dht.vnodes()[0]).unwrap().wire_size_bytes();
    assert_eq!(eight, 8 * one, "record wire size is linear in rows");
}
