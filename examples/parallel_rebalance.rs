//! The concurrent serving plane: lock-free epoch-snapshot reads under a
//! live rebalance.
//!
//! The paper's maintenance plane (§3) serialises vnode creations; the
//! data plane must not. This example runs both at once on one
//! [`KvService`]: a churn thread joins and retires vnodes (each
//! maintenance op migrates real data and publishes the next routing
//! epoch while it still holds the write lock), while N reader threads
//! each hold a [`RouteCache`] — the control plane's client-side pin of a
//! published routing epoch — and resolve every key through it,
//! re-pinning exactly when the published version moved under them. All
//! caches tally into the service's shared [`RouteStats`] block. The
//! invariant on display: **no read ever fails**, no matter how the
//! routes move, and a stale pin converges in at most one retry per
//! published version.
//!
//! ```text
//! cargo run --release --example parallel_rebalance
//! ```

use domus::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const KEYS: u32 = 2_000;
const READERS: usize = 4;
const JOINS: u32 = 12;

fn main() {
    // A small cluster with one seed vnode, loaded with the key population.
    let cfg = DhtConfig::new(HashSpace::full(), 8, 4).expect("valid config");
    let mut store = KvStore::new(LocalDht::with_seed(cfg, 42));
    store.join(SnodeId(0)).expect("seed join");
    let svc = KvService::new(store);
    for i in 0..KEYS {
        svc.put(format!("key-{i}"), format!("value-{i}"));
    }
    println!(
        "{KEYS} keys loaded; {READERS} reader threads vs one churn thread ({JOINS} joins + leaves)\n"
    );

    let stop = Arc::new(AtomicBool::new(false));
    let misses = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        for t in 0..READERS {
            let svc = svc.clone();
            let (stop, misses) = (Arc::clone(&stop), Arc::clone(&misses));
            s.spawn(move || {
                // Each reader holds a route cache pinned to the serving
                // cell, tallying into the service's shared stat block;
                // the cache re-pins only when the version moved past it.
                let mut cache =
                    RouteCache::with_stats(Arc::clone(svc.serve()), Arc::clone(svc.read_stats()));
                let mut i = (t as u32 * 7919) % KEYS;
                while !stop.load(Ordering::Relaxed) {
                    if cache.get(&svc, format!("key-{i}").as_bytes()).is_none() {
                        misses.fetch_add(1, Ordering::Relaxed);
                    }
                    i = (i + 1) % KEYS;
                }
            });
        }

        // The churn thread: grow the cluster, then retire what it added.
        // Every op migrates data and publishes a new epoch mid-flight.
        let mut added = Vec::new();
        for n in 1..=JOINS {
            let (v, mig) = svc.join(SnodeId(n)).expect("join");
            added.push(v);
            println!(
                "route {}: snode {n} joined as {v} — {} entries migrated",
                RouteVersion(svc.serve().epoch()),
                mig.entries
            );
        }
        for v in added.drain(..).rev().take(JOINS as usize / 2) {
            let mig = svc.leave(v).expect("leave");
            println!(
                "route {}: {v} retired — {} entries migrated back",
                RouteVersion(svc.serve().epoch()),
                mig.entries
            );
        }
        stop.store(true, Ordering::Relaxed);
    });

    let c = svc.read_stats().counters();
    let misses = misses.load(Ordering::Relaxed);
    println!(
        "\nserving plane: {} reads, {} stale-route retries (hit rate {:.4}), {misses} misses",
        c.reads,
        c.stale_reads,
        c.hit_rate()
    );
    println!(
        "final route {} at {} vnodes; every read served through live rebalance",
        RouteVersion(svc.serve().epoch()),
        svc.with_read(|s| s.engine().balance_snapshot().vnodes)
    );
    assert!(c.reads > 0, "readers must observe the rebalance");
    assert_eq!(c.misses, 0, "no read may fail while routes move");
    assert_eq!(misses, 0, "no read may fail while routes move");
    println!("OK: zero failed reads under live rebalance");
}
