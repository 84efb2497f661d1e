//! Golden store transcripts: one fixed membership + write script on
//! every backend × R ∈ {1, 2, 3}, pinned by digest.
//!
//! The nine digests below were captured from the single-file
//! `replicated.rs` (parallel `data` + `digests` maps, the membership
//! tail pasted into four operations) immediately before it was split
//! into `replicated/{read, placement, repair, recovery, slots}`. The
//! transcript folds in every field of every report, every snode's WAL
//! counters *and* un-checkpointed records, the primary key order and
//! the copy count — a copy placed, logged or dropped differently shows
//! up here before it shows up in a churn CSV.
//!
//! The local digests were re-captured once a group migration came to
//! keep the vnode's handle: each local run migrates twice; no global or
//! CH run ever does.

use domus_ch::ChEngine;
use domus_core::{DhtConfig, DhtEngine, GlobalDht, LocalDht, SnodeId};
use domus_hashspace::{hasher::Fnv1aHasher, HashSpace};
use domus_kv::ReplicatedStore;
use std::fmt::Write;

const SEED: u64 = 7;
const SNODES: u32 = 6;

/// Runs the script at replication factor `r` and digests its transcript.
fn transcript<E: DhtEngine>(engine: E, r: usize) -> u64 {
    let mut kv = ReplicatedStore::new(engine, r);
    let mut t = String::new();
    let check = |kv: &ReplicatedStore<E>, step: &str| {
        kv.verify_replication().unwrap_or_else(|e| panic!("R={r} after {step}: {e}"));
    };

    // Joins: snode s enrols 1 + s % 3 vnodes.
    for s in 0..SNODES {
        for _ in 0..=s % 3 {
            let (v, rep) = kv.join(SnodeId(s)).unwrap();
            writeln!(t, "join {s} {v:?} {rep:?}").unwrap();
        }
    }
    for i in 0..512u32 {
        let prev = kv.put(format!("key:{i}"), format!("value-{i}"));
        assert_eq!(prev, None);
    }
    writeln!(t, "overwrite {:?}", kv.put("key:7", "overwritten")).unwrap();
    check(&kv, "puts");

    let leaver = kv.engine().vnodes()[3];
    writeln!(t, "leave {leaver:?} {:?}", kv.leave(leaver).unwrap()).unwrap();
    check(&kv, "leave");

    let victim = SnodeId(2);
    writeln!(t, "crash {:?}", kv.fail_snode(victim).unwrap()).unwrap();
    check(&kv, "crash");
    writeln!(t, "repair {:?} pending {}", kv.repair(), kv.has_pending_repair()).unwrap();
    check(&kv, "repair");

    // A write and a removal while the victim is down.
    writeln!(t, "late put {:?}", kv.put("late:1", "arrived-while-down")).unwrap();
    writeln!(t, "late remove {:?}", kv.remove(b"key:11")).unwrap();
    writeln!(t, "crashed {:?}", kv.crashed_snodes()).unwrap();

    writeln!(t, "rejoin {:?}", kv.rejoin_snode(victim).unwrap()).unwrap();
    check(&kv, "rejoin");
    for i in (0..512u32).step_by(9) {
        writeln!(t, "remove {i} {:?}", kv.remove(format!("key:{i}").as_bytes())).unwrap();
    }
    writeln!(t, "final repair {:?}", kv.repair()).unwrap();
    check(&kv, "removes");

    for s in 0..SNODES {
        let Some(wal) = kv.wal_of(SnodeId(s)) else {
            writeln!(t, "wal {s} none").unwrap();
            continue;
        };
        let st = wal.stats();
        writeln!(
            t,
            "wal {s} records {} bytes {} rotations {} truncated {} next_seq {} live {}",
            st.appended,
            st.appended_bytes,
            st.rotations,
            st.truncated_segments,
            wal.next_seq(),
            wal.bytes()
        )
        .unwrap();
        for item in wal.replay() {
            writeln!(t, "  {item:?}").unwrap();
        }
    }
    writeln!(t, "len {} copies {} keys {:?}", kv.len(), kv.copies(), kv.snapshot_keys()).unwrap();
    Fnv1aHasher::raw(t.as_bytes())
}

fn cfg(vmin: u64) -> DhtConfig {
    DhtConfig::new(HashSpace::new(32), 4, vmin).expect("powers of two")
}

fn at_each_r<E: DhtEngine>(engine: impl Fn() -> E) -> [u64; 3] {
    [1, 2, 3].map(|r| transcript(engine(), r))
}

#[test]
fn local_transcripts_match_the_golden_digests() {
    assert_eq!(
        at_each_r(|| LocalDht::with_seed(cfg(2), SEED)),
        [0x50f2970c04369af4, 0xf6feb4775b6ca70e, 0x916675be08827a84]
    );
}

#[test]
fn global_transcripts_match_the_golden_digests() {
    assert_eq!(
        at_each_r(|| GlobalDht::with_seed(cfg(1), SEED)),
        [0xa504d38e37823bd4, 0x8046e3928d38f3e2, 0x51c214df9736b891]
    );
}

#[test]
fn ch_transcripts_match_the_golden_digests() {
    assert_eq!(
        at_each_r(|| ChEngine::with_seed(cfg(1), 16, SEED)),
        [0x62c6fd3eadbec8a5, 0x9380e8e9d8f3ba21, 0x9bf017575afadce3]
    );
}
