//! Elastic scaling under churn: vnodes join and leave while the quality
//! of balancement stays bounded and every invariant holds.
//!
//! The base model promises that "cluster nodes may dynamically join or
//! leave the DHT" (§1); this example drives the deletion extension hard —
//! group splits on the way up, sibling merges / vnode migration on the
//! way down.
//!
//! ```text
//! cargo run --release --example elastic_scaling
//! ```

use domus::prelude::*;

fn main() {
    let cfg = DhtConfig::new(HashSpace::full(), 16, 8).expect("valid config");
    let mut dht = LocalDht::with_seed(cfg, 99);
    let mut rng = Xoshiro256pp::seed_from_u64(1234);

    println!("phase 1: scale out to 160 vnodes");
    for i in 0..160u32 {
        dht.create_vnode_with(SnodeId(i % 20), &mut NullSink).expect("create");
    }
    report(&dht, "after scale-out");

    println!("\nphase 2: scale in to 40 vnodes (watch groups merge)");
    let mut counts = CountOnly::default();
    while dht.vnode_count() > 40 {
        let vnodes = dht.vnodes();
        let victim = vnodes[rng.index(vnodes.len())];
        dht.remove_vnode_with(victim, &mut counts).expect("remove");
    }
    println!(
        "  group merges: {}, internal vnode migrations: {}",
        counts.group_merges, counts.migrations
    );
    report(&dht, "after scale-in");

    println!("\nphase 3: sustained churn (40 rounds of join+leave)");
    for round in 0..40u32 {
        dht.create_vnode_with(SnodeId(round % 20), &mut NullSink).expect("create");
        let vnodes = dht.vnodes();
        let victim = vnodes[rng.index(vnodes.len())];
        dht.remove_vnode_with(victim, &mut NullSink).expect("remove");
        dht.check_invariants().expect("invariants under churn");
    }
    report(&dht, "after churn");

    println!("\nall invariants verified after every churn round ✓");
}

fn report(dht: &LocalDht, label: &str) {
    println!(
        "  {label}: V = {}, groups = {}, σ̄(Qv) = {:.2}%, σ̄(Qg) = {:.2}%",
        dht.vnode_count(),
        dht.group_count(),
        dht.vnode_quota_relstd_pct(),
        dht.group_quota_relstd_pct()
    );
}
