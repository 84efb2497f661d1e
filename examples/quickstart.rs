//! Quickstart: build a local-approach DHT, watch it balance, route keys.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use domus::prelude::*;

fn main() {
    // The paper's reference parameterization: Pmin = Vmin = 32 over the
    // full 64-bit hash space (§4.1.2 derives 32 from the θ functional).
    let cfg = DhtConfig::paper_default();
    let mut dht = LocalDht::with_seed(cfg, 2004);

    // A 16-node cluster enrolls 8 vnodes per node, one at a time — every
    // creation is a full balancement event of §3.6.
    println!("growing a DHT over 16 cluster nodes, 8 vnodes each…\n");
    for round in 0..8 {
        for snode in 0..16u32 {
            dht.create_vnode_with(SnodeId(snode), &mut NullSink).expect("creation");
        }
        println!(
            "after round {}: V = {:>3}, groups = {:>2}, σ̄(Qv) = {:>5.2}%",
            round + 1,
            dht.vnode_count(),
            dht.group_count(),
            dht.vnode_quota_relstd_pct()
        );
    }

    // Routing: any point of the hash range resolves to exactly one vnode.
    println!("\nrouting samples:");
    for key in ["users/alice", "users/bob", "builds/42", "metrics/cpu"] {
        let point = domus::hashspace::hasher::Fnv1aHasher::hash(key.as_bytes());
        let (partition, vnode) = dht.lookup(point).expect("full coverage");
        println!(
            "  {key:<12} → point {point:#018x} → {} (partition {partition}, group {})",
            dht.name_of(vnode).unwrap(),
            dht.group_of(vnode).unwrap(),
        );
    }

    // The records every snode would hold (LPDRs, §3.2).
    println!("\ngroup table (gid, members, splitlevel):");
    for (gid, members, level) in dht.group_table() {
        println!("  {gid:<12} members = {members:>2}  l_g = {level}");
    }

    // Every invariant of §2.2/§3.3 holds.
    dht.check_invariants().expect("invariants");
    println!("\nall invariants verified ✓");
}
