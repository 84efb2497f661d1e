//! Micro-probes: direct calls into one layer's public functions on state
//! of the workload's size, run once per traced repetition.

use crate::Rep;
use bytes::Bytes;
use domus_core::{DhtEngine, EngineSnapshot, LocalDht, SnapshotBuilder, SnapshotCell};
use domus_hashspace::{HashSpace, OwnerMap, Partition};
use domus_kv::workload::value_of;
use domus_kv::ReplicatedStore;
use domus_route::{RouteCache, Router, RouterConfig};
use domus_sim::SimTime;
use domus_util::{DomusRng, Xoshiro256pp};
use domus_wal::{entry_hash, DigestTree, SegmentedWal, WalRecord};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Calls per nanosecond-scale probe.
const CALLS: usize = 1_000_000;
/// The largest index the `hashspace` probe builds (partitions).
const MAX_INDEX_LEVEL: u32 = 20;

/// Mean nanoseconds per call of `f` over `n` calls.
fn ns_per_call(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        f(i);
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

/// Runs every micro-probe and records the results as timings of `rep`.
pub fn run(
    rep: &mut Rep,
    engine: &LocalDht,
    store: Option<&mut ReplicatedStore<LocalDht>>,
    seed: u64,
) {
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ 0x9_20BE);
    let space = engine.config().hash_space();
    let points: Vec<u64> = (0..1 << 16).map(|_| space.random_point(&mut rng)).collect();
    let point = |i: usize| points[i % points.len()];

    core_probes(rep, engine, &point);
    hashspace_probes(rep, engine, &point);
    route_probes(rep, engine, &point);
    wal_probes(rep, &mut rng);
    if let Some(store) = store {
        kv_probes(rep, store);
    }
}

fn core_probes(rep: &mut Rep, engine: &LocalDht, point: &dyn Fn(usize) -> u64) {
    let t = &mut rep.timings;
    t.insert(
        "core.lookup_ns",
        ns_per_call(CALLS, |i| {
            black_box(engine.lookup(point(i)));
        }),
    );
    t.insert(
        "core.balance_snapshot_us",
        ns_per_call(200, |_| {
            black_box(engine.balance_snapshot());
        }) / 1e3,
    );
    let snap = EngineSnapshot::from_engine(engine, 1);
    t.insert(
        "core.serve.lookup_ns",
        ns_per_call(CALLS, |i| {
            black_box(snap.lookup(point(i)));
        }),
    );
    t.insert(
        "core.serve.replicas_ns",
        ns_per_call(CALLS / 4, |i| {
            black_box(snap.replicas(point(i), 2));
        }),
    );
}

/// An `OwnerMap<u32>` with about as many partitions as the engine holds,
/// spread over as many owners as it has vnodes.
fn hashspace_probes(rep: &mut Rep, engine: &LocalDht, point: &dyn Fn(usize) -> u64) {
    let mut partitions = 0u64;
    engine.for_each_vnode(&mut |v| partitions += engine.partition_count(v).unwrap_or(0));
    let level = (63 - partitions.max(2).leading_zeros()).min(MAX_INDEX_LEVEL);
    let owners = engine.vnode_count().max(2) as u32;
    let mut map: OwnerMap<u32> = OwnerMap::new(HashSpace::full());
    let all: Vec<Partition> = Partition::all_at_level(level).collect();
    for (i, p) in all.iter().enumerate() {
        map.insert(*p, i as u32 % owners).expect("partitions of one level never overlap");
    }

    let t = &mut rep.timings;
    t.insert(
        "hashspace.lookup_ns",
        ns_per_call(CALLS, |i| {
            black_box(map.lookup(point(i)));
        }),
    );
    // Distinct partitions, so a split never meets its own earlier half.
    let n = (all.len() / 2).min(100_000);
    let picked: Vec<_> = all.iter().step_by(all.len() / n).take(n).copied().collect();
    let mut halves = Vec::with_capacity(n);
    t.insert(
        "hashspace.split_ns",
        ns_per_call(n, |i| halves.push(map.split(picked[i]).expect("split"))),
    );
    t.insert(
        "hashspace.merge_ns",
        ns_per_call(n, |i| {
            let (a, b) = halves[i];
            black_box(map.merge(a, b).expect("merge"));
        }),
    );
    t.insert(
        "hashspace.transfer_ns",
        ns_per_call(n, |i| {
            black_box(map.transfer(picked[i], (i as u32 + 1) % owners).expect("transfer"));
        }),
    );
}

/// The client cache over a cell that republishes eight times during the
/// probe (a publish rebuilds the whole snapshot, so it is kept rare), and
/// the control plane's tick over the engine's final loads.
fn route_probes(rep: &mut Rep, engine: &LocalDht, point: &dyn Fn(usize) -> u64) {
    const CHUNK: usize = CALLS / 8;
    let mut builder = SnapshotBuilder::from_engine(engine);
    let cell = Arc::new(SnapshotCell::new(builder.snapshot()));
    let mut cache = RouteCache::new(Arc::clone(&cell));
    let mut lookup_ns = 0.0;
    for chunk in 0..CALLS / CHUNK {
        lookup_ns += ns_per_call(CHUNK, |i| {
            black_box(cache.lookup(point(chunk * CHUNK + i)));
        });
        builder.publish(&cell);
    }
    rep.timings.insert("route.cache_lookup_ns", lookup_ns / (CALLS / CHUNK) as f64);
    rep.timings.insert("route.hit_rate", cache.stats().counters().hit_rate());

    let mut router = Router::new(RouterConfig::default());
    let window = SimTime::millis(30_000);
    engine.for_each_vnode(&mut |v| {
        router.note_join(v, engine.snode_of(v).expect("live vnode"), SimTime::ZERO);
    });
    let snap = cell.load();
    rep.timings.insert(
        "route.tick_us",
        ns_per_call(5, |i| {
            black_box(router.tick(SimTime(window.nanos() * (i as u64 + 1)), snap.loads()));
        }) / 1e3,
    );
}

/// `SegmentedWal` and `DigestTree` with the workloads' record size
/// (a 16-byte key, a 64-byte value).
fn wal_probes(rep: &mut Rep, rng: &mut Xoshiro256pp) {
    const RECORDS: usize = 100_000;
    let records: Vec<WalRecord> = (0..256u64)
        .map(|i| WalRecord::Put {
            key: Bytes::from(format!("key:{i:012}")),
            value: Bytes::from(value_of(64, i)),
        })
        .collect();
    let mut wal = SegmentedWal::default();
    let t = &mut rep.timings;
    t.insert(
        "wal.append_ns",
        ns_per_call(RECORDS, |i| {
            black_box(wal.append(&records[i % records.len()]));
        }),
    );
    let start = Instant::now();
    let replayed = wal.replay().filter(|r| r.is_ok()).count();
    t.insert("wal.replay_ns_per_record", start.elapsed().as_nanos() as f64 / replayed as f64);
    assert_eq!(replayed, RECORDS, "the in-process log replays every record");
    let start = Instant::now();
    black_box(wal.checkpoint(wal.next_seq()));
    t.insert("wal.checkpoint_us", start.elapsed().as_nanos() as f64 / 1e3);

    let entries: Vec<(u64, u64)> = (0..1 << 12)
        .map(|i: u64| (rng.next_u64(), entry_hash(&i.to_le_bytes(), b"value")))
        .collect();
    let mut tree = DigestTree::default();
    t.insert(
        "wal.digest_toggle_ns",
        ns_per_call(CALLS, |i| {
            let (pos, hash) = entries[i % entries.len()];
            tree.toggle(pos, hash);
        }),
    );
    // A follower that diverges in sixteen leaves.
    let mut other = tree.clone();
    for &(pos, hash) in &entries[..16] {
        other.toggle(pos, hash);
    }
    t.insert(
        "wal.digest_diff_us",
        ns_per_call(10_000, |_| {
            black_box(tree.diff(&other));
        }) / 1e3,
    );
}

/// Foreground calls on the twin store: fresh keys put, read at quorum,
/// removed.
fn kv_probes(rep: &mut Rep, store: &mut ReplicatedStore<LocalDht>) {
    const KEYS: usize = 2000;
    let keys: Vec<Bytes> = (0..KEYS).map(|i| Bytes::from(format!("probe:{i:010}"))).collect();
    let value = Bytes::from(value_of(64, 7));
    let before = store.len();
    let t = &mut rep.timings;
    t.insert(
        "kv.put_us",
        ns_per_call(KEYS, |i| {
            black_box(store.put(keys[i].clone(), value.clone()));
        }) / 1e3,
    );
    t.insert(
        "kv.get_quorum_us",
        ns_per_call(10 * KEYS, |i| {
            black_box(store.get_quorum(&keys[i % KEYS]));
        }) / 1e3,
    );
    t.insert(
        "kv.remove_us",
        ns_per_call(KEYS, |i| {
            black_box(store.remove(&keys[i]));
        }) / 1e3,
    );
    assert_eq!(store.len(), before, "the probe leaves the store as it found it");
}
