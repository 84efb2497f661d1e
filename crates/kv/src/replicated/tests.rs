use super::placement::merge_ranges;
use super::*;
use domus_core::{DhtConfig, DhtError, LocalDht};

fn store(r: usize, snodes: u32) -> ReplicatedStore<LocalDht> {
    let cfg = DhtConfig::new(HashSpace::new(32), 4, 2).unwrap();
    let mut kv = ReplicatedStore::new(LocalDht::with_seed(cfg, 7), r);
    for s in 0..snodes {
        kv.join(SnodeId(s)).unwrap();
    }
    kv
}

#[test]
fn put_get_remove_roundtrip_with_full_replication() {
    let mut kv = store(3, 5);
    assert_eq!(kv.put("k1", "v1"), None);
    assert_eq!(kv.put("k1", "v1b").unwrap().as_ref(), b"v1");
    assert_eq!(kv.get(b"k1").unwrap().as_ref(), b"v1b");
    let q = kv.get_quorum(b"k1");
    assert_eq!(q.hits, 3);
    assert_eq!(q.needed, 2);
    assert!(q.available());
    assert_eq!(kv.len(), 1);
    assert_eq!(kv.copies(), 3);
    kv.verify_replication().unwrap();
    assert_eq!(kv.remove(b"k1").unwrap().as_ref(), b"v1b");
    assert_eq!(kv.get(b"k1"), None);
    assert!(kv.is_empty());
    assert_eq!(kv.copies(), 0);
}

#[test]
fn replicas_live_on_distinct_snodes() {
    let kv = store(3, 6);
    for i in 0..200u32 {
        let key = format!("key:{i}");
        let replicas = kv.replicas_of(key.as_bytes());
        assert_eq!(replicas.len(), 3);
        let mut snodes: Vec<SnodeId> =
            replicas.iter().map(|&v| kv.engine().snode_of(v).unwrap()).collect();
        snodes.sort_unstable();
        snodes.dedup();
        assert_eq!(snodes.len(), 3, "{key}: replicas co-located");
        assert_eq!(replicas[0], kv.route(key.as_bytes()).unwrap(), "primary is the owner");
    }
}

#[test]
fn effective_factor_is_capped_by_the_cluster_size() {
    let mut kv = store(3, 2); // only two distinct snodes
    kv.put("a", "1");
    assert_eq!(kv.replicas_of(b"a").len(), 2);
    assert_eq!(kv.get_quorum(b"a").hits, 2);
    kv.verify_replication().unwrap();
    // A third snode arrives: the in-line repair mints the third copy
    // for ranges it touched; a full repair isn't needed for puts.
    kv.join(SnodeId(9)).unwrap();
    kv.put("b", "2");
    assert_eq!(kv.replicas_of(b"b").len(), 3);
}

#[test]
fn graceful_membership_keeps_everything_fully_replicated() {
    let mut kv = store(2, 4);
    for i in 0..300u32 {
        kv.put(format!("key:{i}"), format!("value-{i}"));
    }
    for s in 4..9u32 {
        kv.join(SnodeId(s)).unwrap();
        kv.verify_replication().unwrap_or_else(|e| panic!("after join {s}: {e}"));
    }
    let vnodes = kv.engine().vnodes();
    for v in vnodes.into_iter().take(4) {
        kv.leave(v).unwrap();
        kv.verify_replication().unwrap_or_else(|e| panic!("after leave {v}: {e}"));
    }
    assert_eq!(kv.len(), 300);
    for i in 0..300u32 {
        let q = kv.get_quorum(format!("key:{i}").as_bytes());
        assert!(q.available(), "key:{i} lost quorum after graceful churn");
    }
}

#[test]
fn crash_loses_nothing_at_r2_and_repair_restores_quorum() {
    let mut kv = store(2, 5);
    for i in 0..400u32 {
        kv.put(format!("key:{i}"), format!("value-{i}"));
    }
    let report = kv.fail_snode(SnodeId(2)).unwrap();
    assert!(report.vnodes_failed > 0);
    assert!(report.copies_destroyed > 0, "the snode held copies");
    assert_eq!(report.keys_lost, 0, "R=2 survives one crash");
    assert!(kv.has_pending_repair());
    // Every key still readable via fallback; quorum may be degraded.
    let mut degraded = 0;
    for i in 0..400u32 {
        let key = format!("key:{i}");
        assert!(kv.get(key.as_bytes()).is_some(), "{key} unreadable after crash");
        if !kv.get_quorum(key.as_bytes()).available() {
            degraded += 1;
        }
    }
    assert!(degraded > 0, "a crash must dent quorum availability before repair");
    let rep = kv.repair();
    assert!(rep.copies_placed > 0);
    assert!(!kv.has_pending_repair());
    kv.verify_replication().unwrap();
    for i in 0..400u32 {
        assert!(kv.get_quorum(format!("key:{i}").as_bytes()).available(), "key:{i}");
    }
}

#[test]
fn crash_at_r1_loses_exactly_the_failed_snodes_keys() {
    let mut kv = store(1, 5);
    for i in 0..500u32 {
        kv.put(format!("key:{i}"), "x");
    }
    // Predict the loss: keys whose primary snode is the victim.
    let victim = SnodeId(3);
    let expected: u64 = (0..500u32)
        .filter(|i| {
            let key = format!("key:{i}");
            let owner = kv.route(key.as_bytes()).unwrap();
            kv.engine().snode_of(owner).unwrap() == victim
        })
        .count() as u64;
    assert!(expected > 0, "the victim must own something");
    let report = kv.fail_snode(victim).unwrap();
    assert_eq!(report.keys_lost, expected, "exact loss accounting");
    assert_eq!(kv.len(), 500 - expected);
    let alive = (0..500u32).filter(|i| kv.get(format!("key:{i}").as_bytes()).is_some()).count();
    assert_eq!(alive as u64, 500 - expected);
    kv.repair();
    kv.verify_replication().unwrap();
}

#[test]
fn crash_preconditions_destroy_nothing() {
    let mut kv = store(2, 3);
    kv.put("a", "1");
    assert_eq!(kv.fail_snode(SnodeId(99)), Err(DhtError::EmptySnode(SnodeId(99))));
    // Crashing every snode one by one (with repair in between, so the
    // lone copy always re-replicates before the next hit) stops at the
    // last snode, which is refused before anything is destroyed.
    kv.fail_snode(SnodeId(0)).unwrap();
    kv.repair();
    kv.fail_snode(SnodeId(1)).unwrap();
    kv.repair();
    assert_eq!(kv.fail_snode(SnodeId(2)), Err(DhtError::LastVnode));
    assert_eq!(kv.get(b"a").unwrap().as_ref(), b"1", "refused crash must not touch data");
}

#[test]
fn repeated_crash_repair_cycles_preserve_all_keys_at_r2() {
    let mut kv = store(2, 8);
    for i in 0..300u32 {
        kv.put(format!("key:{i}"), format!("value-{i}"));
    }
    for victim in 0..5u32 {
        let report = kv.fail_snode(SnodeId(victim)).unwrap();
        assert_eq!(report.keys_lost, 0, "crash of s{victim} lost keys");
        kv.repair();
        kv.verify_replication().unwrap_or_else(|e| panic!("after s{victim}: {e}"));
    }
    assert_eq!(kv.len(), 300);
    for i in 0..300u32 {
        assert_eq!(
            kv.get(format!("key:{i}").as_bytes()).unwrap().as_ref(),
            format!("value-{i}").as_bytes()
        );
    }
}

#[test]
fn merge_ranges_coalesces() {
    assert_eq!(merge_ranges(vec![(10, 20), (15, 30), (40, 50), (30, 40)]), vec![(10, 50)]);
    assert_eq!(merge_ranges(vec![(5, 6)]), vec![(5, 6)]);
    assert!(merge_ranges(Vec::new()).is_empty());
}

#[test]
fn crash_then_rejoin_replays_the_wal_at_r1() {
    let mut kv = store(1, 5);
    for i in 0..400u32 {
        kv.put(format!("key:{i}"), format!("value-{i}"));
    }
    let victim = SnodeId(2);
    let report = kv.fail_snode(victim).unwrap();
    assert!(report.keys_lost > 0, "R=1 must lose the victim's primaries");
    let lost = report.keys_lost;
    assert_eq!(kv.crashed_snodes(), vec![(victim, report.vnodes_failed)]);

    let rejoin = kv.rejoin_snode(victim).unwrap();
    assert_eq!(rejoin.vnodes, report.vnodes_failed, "re-enrolled at crash-time size");
    assert!(rejoin.wal_records > 0, "the log held the victim's writes");
    assert_eq!(rejoin.torn, 0);
    assert_eq!(rejoin.recovered, lost, "replay restores exactly the lost keys");
    assert!(kv.crashed_snodes().is_empty());
    assert_eq!(kv.len(), 400, "nothing stays lost after replay");
    for i in 0..400u32 {
        assert_eq!(
            kv.get(format!("key:{i}").as_bytes()).unwrap().as_ref(),
            format!("value-{i}").as_bytes(),
            "key:{i} after rejoin"
        );
    }
    kv.repair();
    kv.verify_replication().unwrap();
}

#[test]
fn rejoin_checkpoint_truncates_the_replayed_log() {
    let mut kv = store(2, 5);
    // Values big enough that the victim's share of the log spans
    // several 64 KiB segments, so the checkpoint can retire whole ones.
    let blob = "v".repeat(1024);
    for i in 0..400u32 {
        kv.put(format!("key:{i}"), blob.clone());
    }
    let victim = SnodeId(1);
    let before = kv.wal_of(victim).expect("the victim logged writes").pending();
    assert!(before > 0);
    kv.fail_snode(victim).unwrap();
    let rejoin = kv.rejoin_snode(victim).unwrap();
    // The rebuild that precedes replay logs fresh `Placement` records,
    // so the scan covers at least the pre-crash backlog.
    assert!(rejoin.wal_records >= before, "replay scans the whole un-checkpointed log");
    let wal = kv.wal_of(victim).unwrap();
    assert!(
        wal.pending() < before,
        "the checkpoint must retire the replayed records ({} -> {})",
        before,
        wal.pending()
    );
    assert!(wal.stats().truncated_segments > 0, "whole segments must truncate");
    kv.repair();
    kv.verify_replication().unwrap();
}

#[test]
fn replay_never_resurrects_a_removed_key() {
    let mut kv = store(1, 4);
    for i in 0..200u32 {
        kv.put(format!("key:{i}"), "x");
    }
    // Remove half, then crash + rejoin every snode's primary range
    // would be overkill — one victim suffices: its log holds both the
    // puts and the removes.
    for i in 0..200u32 {
        if i % 2 == 0 {
            kv.remove(format!("key:{i}").as_bytes());
        }
    }
    let victim = SnodeId(0);
    kv.fail_snode(victim).unwrap();
    kv.rejoin_snode(victim).unwrap();
    for i in (0..200u32).step_by(2) {
        assert_eq!(kv.get(format!("key:{i}").as_bytes()), None, "key:{i} resurrected");
    }
    kv.repair();
    kv.verify_replication().unwrap();
}

#[test]
fn migrated_copies_stay_replayable_after_their_new_holders_crash() {
    // Regression: copies shipped by rebalance used to land with only a
    // `Placement` note in the recipient's log. A key whose copies all
    // migrated away from their original put-time holders then had no
    // replayable `Put` on any snode that actually held it — crash the
    // new holder and the key was gone for good, because the snodes
    // whose logs *did* hold it stayed alive and never replayed.
    let mut kv = store(1, 3);
    for i in 0..200u32 {
        kv.put(format!("key:{i}"), format!("value-{i}"));
    }
    // Joins pull ranges onto snodes that never saw the original puts.
    for s in 3..7u32 {
        kv.join(SnodeId(s)).unwrap();
    }
    let victim = SnodeId(5);
    let report = kv.fail_snode(victim).unwrap();
    assert!(report.keys_lost > 0, "R=1 must lose the victim's migrated primaries");
    let rejoin = kv.rejoin_snode(victim).unwrap();
    assert_eq!(rejoin.recovered, report.keys_lost, "replay restores the migrated keys");
    assert_eq!(kv.len(), 200, "no key stays lost after the holder rejoins");
    for i in 0..200u32 {
        assert_eq!(
            kv.get(format!("key:{i}").as_bytes()).unwrap().as_ref(),
            format!("value-{i}").as_bytes(),
            "key:{i} after migrate-crash-rejoin"
        );
    }
    kv.repair();
    kv.verify_replication().unwrap();
}

#[test]
fn removing_a_crash_destroyed_key_outranks_its_crashed_log() {
    // Regression: removing a key whose copies were all crash-destroyed
    // returns `None`, and the tombstone used to be skipped — yet the
    // crashed holder's log still carried the key's `Put`, so the
    // rejoin replay resurrected a key the caller had deleted.
    let mut kv = store(1, 4);
    for i in 0..200u32 {
        kv.put(format!("key:{i}"), "x");
    }
    let victim = SnodeId(1);
    let report = kv.fail_snode(victim).unwrap();
    assert!(report.keys_lost > 0);
    let dead: Vec<String> = (0..200u32)
        .map(|i| format!("key:{i}"))
        .filter(|k| kv.get(k.as_bytes()).is_none())
        .collect();
    assert!(!dead.is_empty());
    for k in &dead {
        assert_eq!(kv.remove(k.as_bytes()), None, "{k} is crash-destroyed, nothing to remove");
    }
    kv.rejoin_snode(victim).unwrap();
    for k in &dead {
        assert_eq!(kv.get(k.as_bytes()), None, "{k} resurrected past its removal");
    }
    kv.repair();
    kv.verify_replication().unwrap();
}

#[test]
fn removal_while_crashed_is_not_resurrected_by_replay() {
    let mut kv = store(2, 4);
    for i in 0..200u32 {
        kv.put(format!("key:{i}"), "x");
    }
    let victim = SnodeId(2);
    kv.fail_snode(victim).unwrap();
    kv.repair();
    // Remove every key *while the victim is down*: its WAL still
    // carries the pre-crash puts, so replay must see the tombstones.
    for i in 0..200u32 {
        assert!(kv.remove(format!("key:{i}").as_bytes()).is_some(), "R=2 shields key:{i}");
    }
    kv.rejoin_snode(victim).unwrap();
    assert_eq!(kv.len(), 0);
    for i in 0..200u32 {
        assert_eq!(kv.get(format!("key:{i}").as_bytes()), None, "key:{i} resurrected");
    }
    kv.repair();
    kv.verify_replication().unwrap();
}

#[test]
fn rejoin_of_a_never_crashed_snode_is_refused() {
    let mut kv = store(2, 3);
    kv.put("a", "1");
    assert_eq!(kv.rejoin_snode(SnodeId(0)), Err(DhtError::EmptySnode(SnodeId(0))));
    assert_eq!(kv.rejoin_snode(SnodeId(99)), Err(DhtError::EmptySnode(SnodeId(99))));
    assert_eq!(kv.get(b"a").unwrap().as_ref(), b"1");
}

#[test]
fn digest_repair_ships_strictly_less_than_a_full_rebuild() {
    let mut kv = store(2, 6);
    for i in 0..500u32 {
        kv.put(format!("key:{i}"), format!("value-{i}"));
    }
    let report = kv.fail_snode(SnodeId(3)).unwrap();
    assert_eq!(report.keys_lost, 0);
    let rep = kv.repair();
    assert!(rep.copies_placed > 0, "the crash left under-replicated buckets");
    assert!(rep.bytes_shipped > 0);
    assert!(
        rep.bytes_shipped < rep.bytes_full,
        "digest repair must beat the full rebuild: shipped {} vs full {}",
        rep.bytes_shipped,
        rep.bytes_full
    );
    kv.verify_replication().unwrap();
    for i in 0..500u32 {
        assert!(kv.get_quorum(format!("key:{i}").as_bytes()).available(), "key:{i}");
    }
}

#[test]
fn thin_cluster_crash_and_repair_stay_clean() {
    // R = 3 on two snodes: the effective factor is 2; one crash
    // leaves a single-snode cluster, where the repair successor walk
    // and the backward horizon walk must terminate without panicking
    // and leave a clean partial-replication state.
    let mut kv = store(3, 2);
    for i in 0..150u32 {
        kv.put(format!("key:{i}"), format!("value-{i}"));
    }
    let report = kv.fail_snode(SnodeId(0)).unwrap();
    assert_eq!(report.keys_lost, 0, "the second copy survives");
    let rep = kv.repair();
    assert_eq!(rep.bytes_shipped, 0, "one snode left: nobody to ship to");
    kv.verify_replication().unwrap();
    assert_eq!(kv.len(), 150);
    for i in 0..150u32 {
        let key = format!("key:{i}");
        assert!(kv.get(key.as_bytes()).is_some(), "{key} lost on the thin cluster");
        assert_eq!(kv.replicas_of(key.as_bytes()).len(), 1, "single-snode chain");
    }
    // The cluster thickens again: in-line join repair re-replicates.
    kv.join(SnodeId(7)).unwrap();
    kv.join(SnodeId(8)).unwrap();
    kv.verify_replication().unwrap();
    for i in 0..150u32 {
        assert_eq!(kv.replicas_of(format!("key:{i}").as_bytes()).len(), 3);
    }
}

#[test]
fn routed_quorum_reads_settle_and_tally() {
    use domus_core::{SnapshotBuilder, SnapshotCell};
    // R = 1 so a moved key genuinely misses on the stale chain (at
    // R ≥ 2 a surviving replica answers even through a stale route —
    // the whole point of replication).
    let mut kv = store(1, 6);
    for i in 0..200u32 {
        kv.put(format!("k{i}"), format!("v{i}"));
    }
    let mut builder = SnapshotBuilder::from_engine(kv.engine());
    let cell = SnapshotCell::new(builder.snapshot());
    let mut pin = cell.load();
    // Rebalance past the pin: a join tee'd into the builder, published.
    let (out, _) = kv.join_with(SnodeId(9), &mut builder).unwrap();
    builder.note_create(out.vnode, SnodeId(9));
    builder.publish(&cell);
    let mut retried = 0u32;
    for i in 0..200u32 {
        let got = kv.get_quorum_routed(&cell, &mut pin, format!("k{i}").as_bytes());
        assert!(got.read.value.is_some(), "routed quorum read must converge on k{i}");
        assert!(got.retries <= 1, "one epoch of churn needs at most one retry");
        retried += got.retries;
    }
    assert!(retried > 0, "the join must have re-routed at least one probe key");
    assert_eq!(pin.epoch(), cell.epoch(), "the pin settles on the published epoch");
    // At the settled (current) epoch every read meets its quorum.
    for i in 0..200u32 {
        assert!(kv.get_quorum_at(&pin, format!("k{i}").as_bytes()).available());
    }
    let c = kv.read_stats().counters();
    assert_eq!(c.reads, 200);
    assert_eq!(c.stale_retries, u64::from(retried));
    assert_eq!(c.misses, 0);
}

#[test]
fn a_rejoin_that_fails_midway_still_places_what_it_moved() {
    use domus_core::GlobalDht;
    // Regression: `engine.rejoin_snode` re-enrols vnode by vnode; when
    // the space runs out after the first creation the `?` used to
    // drop the ranges the tap had already collected, leaving
    // placement behind routing.
    for bits in [5u32, 6] {
        let cfg = DhtConfig::new(HashSpace::new(bits), 1, 1).unwrap();
        let mut kv = ReplicatedStore::new(GlobalDht::with_seed(cfg, 7), 2);
        for s in [0, 0, 0, 1, 2, 3u32] {
            kv.join(SnodeId(s)).unwrap();
        }
        for i in 0..64u32 {
            kv.put(format!("key:{i}"), format!("value-{i}"));
        }
        kv.fail_snode(SnodeId(0)).unwrap();
        kv.repair();
        // Fill the space until exactly one more creation fits.
        let full = 1usize << bits;
        let mut fresh = 4u32;
        while kv.engine().vnode_count() < full - 1 {
            kv.join(SnodeId(fresh)).unwrap();
            fresh += 1;
        }
        let err = kv.rejoin_snode(SnodeId(0)).unwrap_err();
        assert!(matches!(err, DhtError::LevelOverflow { .. }), "{bits} bits: {err:?}");
        assert_eq!(kv.engine().vnode_count(), full, "{bits} bits: one vnode was re-enrolled");
        assert_eq!(kv.crashed_snodes(), vec![(SnodeId(0), 3)], "the snode stays owed");
        assert!(!kv.has_pending_repair());
        kv.verify_replication().unwrap_or_else(|e| panic!("{bits} bits: {e}"));
        assert_eq!(kv.len(), 64);
        // The space is full now: a refused join leaves placement clean too.
        assert!(kv.join(SnodeId(fresh)).is_err());
        kv.verify_replication().unwrap_or_else(|e| panic!("{bits} bits, refused join: {e}"));
    }
}
