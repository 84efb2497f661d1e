//! Cross-crate integration: both engines, the facade prelude, invariants
//! through realistic lifecycles, and the literal paper algorithm as a
//! test oracle for the engine's optimized greedy.

use domus::prelude::*;

/// The creation algorithm exactly as printed in §2.5 of the paper, run on
/// a bare count vector: compute σ(Pv), find the most-loaded vnode, move
/// one partition to the new vnode whenever that decreases σ, else stop.
/// Used as an oracle for the engines' O(1)-test bucket-queue greedy.
fn paper_greedy_reference(mut counts: Vec<u64>) -> Vec<u64> {
    counts.push(0); // step 1: new entry with zero partitions
    let sigma = |cs: &[u64]| {
        let n = cs.len() as f64;
        let mean = cs.iter().sum::<u64>() as f64 / n;
        (cs.iter().map(|&c| (c as f64 - mean).powi(2)).sum::<f64>() / n).sqrt()
    };
    loop {
        // step 3: sort by count, take the most loaded (the victim vnode).
        let victim = (0..counts.len() - 1).max_by_key(|&i| counts[i]).expect("at least one donor");
        // step 4: move only if σ strictly decreases.
        let before = sigma(&counts);
        let mut trial = counts.clone();
        trial[victim] -= 1;
        *trial.last_mut().expect("new vnode present") += 1;
        if sigma(&trial) < before - 1e-12 {
            counts = trial;
        } else {
            break;
        }
    }
    counts
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

#[test]
fn engine_greedy_matches_literal_paper_algorithm() {
    // Grow a global DHT; before each creation, predict the post-creation
    // count multiset with the literal algorithm and compare.
    let cfg = DhtConfig::new(HashSpace::new(32), 8, 1).unwrap();
    let mut dht = GlobalDht::with_seed(cfg, 77);
    dht.create_vnode_with(SnodeId(0), &mut NullSink).unwrap();
    for i in 1..80u32 {
        let mut counts: Vec<u64> =
            dht.vnodes().iter().map(|&v| dht.partition_count(v).unwrap()).collect();
        // The engine's split cascade: all at Pmin ⇒ everything doubles.
        if counts.iter().all(|&c| c == 8) {
            for c in &mut counts {
                *c *= 2;
            }
        }
        let expected = sorted(paper_greedy_reference(counts));
        dht.create_vnode_with(SnodeId(i), &mut NullSink).unwrap();
        let actual: Vec<u64> =
            sorted(dht.vnodes().iter().map(|&v| dht.partition_count(v).unwrap()).collect());
        assert_eq!(actual, expected, "count multiset diverged at V={}", i + 1);
    }
}

#[test]
fn both_engines_satisfy_the_same_generic_contract() {
    fn exercise<E: DhtEngine>(mut dht: E, n: u32) {
        for i in 0..n {
            dht.create_vnode_with(SnodeId(i % 7), &mut NullSink).unwrap();
        }
        // Full coverage, exact quota sum, invariants.
        let quotas = dht.quotas();
        assert_eq!(quotas.len(), n as usize);
        let total: f64 = quotas.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        dht.check_invariants().unwrap();
        // Round-trip through lookup.
        for point in [0u64, 1 << 20, u32::MAX as u64] {
            let (p, v) = dht.lookup(point).expect("covered");
            assert!(dht.partitions_of(v).unwrap().contains(&p));
        }
        // Shrink to one vnode and verify again.
        while dht.vnode_count() > 1 {
            let v = dht.vnodes()[0];
            dht.remove_vnode_with(v, &mut NullSink).unwrap();
        }
        dht.check_invariants().unwrap();
        assert!((dht.quotas()[0] - 1.0).abs() < 1e-12);
    }
    let cfg = DhtConfig::new(HashSpace::new(32), 4, 2).unwrap();
    exercise(GlobalDht::with_seed(cfg, 3), 40);
    exercise(LocalDht::with_seed(cfg, 3), 40);
}

#[test]
fn facade_prelude_covers_the_workflow() {
    // One pass through each major subsystem via the prelude types only.
    let cfg = DhtConfig::new(HashSpace::new(32), 4, 4).unwrap();
    let mut dht = LocalDht::with_seed(cfg, 1);
    for i in 0..16u32 {
        dht.create_vnode_with(SnodeId(i), &mut NullSink).unwrap();
    }
    let _sigma = dht.vnode_quota_relstd_pct();

    let mut ring = ChRing::with_seed(HashSpace::new(32), 8, 1);
    for _ in 0..16 {
        ring.join();
    }
    ring.verify().unwrap();

    let mut sim = SimDriver::new(LocalDht::with_seed(cfg, 2));
    sim.grow(32, 4).unwrap();
    assert!(sim.trace().makespan() > SimTime::ZERO);

    let mut kv = KvStore::new(LocalDht::with_seed(cfg, 3));
    kv.join(SnodeId(0)).unwrap();
    kv.put("k", "v");
    assert_eq!(kv.get(b"k").unwrap().as_ref(), b"v");

    let w: Welford = [1.0, 2.0, 3.0].into_iter().collect();
    assert_eq!(w.mean(), 2.0);
}

#[test]
fn global_and_local_zone1_equality_is_exact_per_run() {
    // §4.1.1: while V ≤ Vmax there is one group running the identical
    // algorithm — σ̄ traces agree exactly even with different RNG streams.
    let local_cfg = DhtConfig::new(HashSpace::full(), 32, 16).unwrap();
    let global_cfg = DhtConfig::new(HashSpace::full(), 32, 1).unwrap();
    let mut local = LocalDht::with_seed(local_cfg, 1111);
    let mut global = GlobalDht::with_seed(global_cfg, 2222);
    for i in 0..32u32 {
        local.create_vnode_with(SnodeId(i), &mut NullSink).unwrap();
        global.create_vnode_with(SnodeId(i), &mut NullSink).unwrap();
        assert!(
            (local.vnode_quota_relstd_pct() - global.vnode_quota_relstd_pct()).abs() < 1e-9,
            "diverged at V={}",
            i + 1
        );
    }
}

#[test]
fn heterogeneous_cluster_end_to_end() {
    let cfg = DhtConfig::new(HashSpace::full(), 8, 8).unwrap();
    let mut cluster =
        Cluster::with_policy(LocalDht::with_seed(cfg, 5), EnrollmentPolicy { unit: 4 });
    let mut ids = Vec::new();
    for w in [1.0, 1.0, 2.0, 4.0, 1.0, 2.0] {
        ids.push(cluster.join(w).unwrap());
    }
    // Quota per weight is flat-ish; total is exactly 1.
    let total: f64 = cluster.node_quotas().iter().map(|(_, q)| q).sum();
    assert!((total - 1.0).abs() < 1e-9);
    // Dynamic enrollment + departure keep everything consistent.
    cluster.set_weight(ids[0], 3.0).unwrap();
    cluster.leave(ids[3]).unwrap();
    cluster.engine().check_invariants().unwrap();
    let total: f64 = cluster.node_quotas().iter().map(|(_, q)| q).sum();
    assert!((total - 1.0).abs() < 1e-9);
}
