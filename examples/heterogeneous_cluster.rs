//! Heterogeneous cluster: quota follows enrollment weight.
//!
//! The paper's motivating scenario (§1): machines from different
//! generations coexist in one cluster; each node's share of the DHT should
//! track the resources it enrolls, and enrollment may change on-line
//! (§2.1.2).
//!
//! ```text
//! cargo run --release --example heterogeneous_cluster
//! ```

use domus::prelude::*;

fn main() {
    let cfg = DhtConfig::new(HashSpace::full(), 16, 16).expect("valid config");
    let engine = LocalDht::with_seed(cfg, 7);
    // A weight-1.0 node hosts 8 vnodes.
    let mut cluster = Cluster::with_policy(engine, EnrollmentPolicy { unit: 8 });

    // Three hardware generations join: old 1×, mid 2×, new 4×.
    println!("enrolling a three-generation cluster…");
    let mut nodes = Vec::new();
    for &(gen, weight, count) in &[("old", 1.0, 6), ("mid", 2.0, 4), ("new", 4.0, 2)] {
        for _ in 0..count {
            let s = cluster.join(weight).expect("join");
            nodes.push((s, gen, weight));
        }
    }

    println!(
        "\n{:<8} {:<5} {:>6} {:>8} {:>9} {:>14}",
        "snode", "gen", "weight", "vnodes", "quota %", "quota/weight %"
    );
    for &(s, gen, w) in &nodes {
        let q = cluster.node_quotas().iter().find(|(n, _)| *n == s).map(|(_, q)| *q).unwrap();
        let v = cluster.vnodes_of(s).unwrap().len();
        println!(
            "{:<8} {:<5} {:>6.1} {:>8} {:>9.3} {:>14.3}",
            s.to_string(),
            gen,
            w,
            v,
            100.0 * q,
            100.0 * q / w
        );
    }
    println!(
        "\nquota-per-weight spread: {:.2}% relative — flat ⇒ share tracks enrollment",
        domus::metrics::rel_std_dev_pct(cluster.quota_per_weight().into_iter().map(|(_, q)| q))
    );

    // One old machine gets a disk upgrade: on-line re-enrollment.
    let (upgraded, _, _) = nodes[0];
    let before =
        cluster.node_quotas().iter().find(|(n, _)| *n == upgraded).map(|(_, q)| *q).unwrap();
    cluster.set_weight(upgraded, 3.0).expect("re-enroll");
    let after =
        cluster.node_quotas().iter().find(|(n, _)| *n == upgraded).map(|(_, q)| *q).unwrap();
    println!(
        "\n{} re-enrolls 1.0 → 3.0: quota {:.3}% → {:.3}% (×{:.2})",
        upgraded,
        100.0 * before,
        100.0 * after,
        after / before
    );

    // A new machine is decommissioned; the DHT absorbs its share.
    let (leaving, _, _) = nodes[nodes.len() - 1];
    cluster.leave(leaving).expect("leave");
    let total: f64 = cluster.node_quotas().iter().map(|(_, q)| q).sum();
    println!("{leaving} leaves: remaining quota total = {total:.6} (exactly 1 ⇒ nothing lost)");

    cluster.engine().check_invariants().expect("invariants");
    println!("\nall invariants verified ✓");
}
