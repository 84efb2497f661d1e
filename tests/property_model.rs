//! Property-based tests over the model: arbitrary configurations and
//! operation sequences must preserve every invariant of §2.2/§3.3, the
//! exact quota sum, and the derived structural theorems.

use domus::prelude::*;
use proptest::prelude::*;

/// Power-of-two values in a small range.
fn pow2(max_log: u32) -> impl Strategy<Value = u64> {
    (0..=max_log).prop_map(|k| 1u64 << k)
}

/// An operation against the DHT.
#[derive(Debug, Clone, Copy)]
enum Op {
    Create(u32),
    /// Remove the live vnode at this (modular) position.
    Remove(u16),
}

fn ops(max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            3 => (0u32..8).prop_map(Op::Create),
            1 => any::<u16>().prop_map(Op::Remove),
        ],
        1..max_len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Invariants survive any create/remove interleaving on the local
    /// approach, across configurations.
    #[test]
    fn local_invariants_hold_under_arbitrary_churn(
        pmin in pow2(5),
        vmin in pow2(4),
        seed in any::<u64>(),
        script in ops(60),
    ) {
        let cfg = DhtConfig::new(HashSpace::new(32), pmin, vmin).unwrap();
        let mut dht = LocalDht::with_seed(cfg, seed);
        for op in script {
            match op {
                Op::Create(s) => {
                    dht.create_vnode_with(SnodeId(s), &mut NullSink).unwrap();
                }
                Op::Remove(pos) => {
                    let live = dht.vnodes();
                    if live.len() > 1 {
                        let v = live[pos as usize % live.len()];
                        dht.remove_vnode_with(v, &mut NullSink).unwrap();
                    }
                }
            }
            dht.check_invariants().map_err(|e| TestCaseError::fail(e.to_string()))?;
            // Exact quota conservation at every step (once populated).
            if dht.vnode_count() > 0 {
                let total: f64 = dht.quotas().iter().sum();
                prop_assert!((total - 1.0).abs() < 1e-9);
            }
        }
    }

    /// Same property for the global approach.
    #[test]
    fn global_invariants_hold_under_arbitrary_churn(
        pmin in pow2(5),
        seed in any::<u64>(),
        script in ops(60),
    ) {
        let cfg = DhtConfig::new(HashSpace::new(32), pmin, 1).unwrap();
        let mut dht = GlobalDht::with_seed(cfg, seed);
        for op in script {
            match op {
                Op::Create(s) => {
                    dht.create_vnode_with(SnodeId(s), &mut NullSink).unwrap();
                }
                Op::Remove(pos) => {
                    let live = dht.vnodes();
                    if live.len() > 1 {
                        let v = live[pos as usize % live.len()];
                        dht.remove_vnode_with(v, &mut NullSink).unwrap();
                    }
                }
            }
            dht.check_invariants().map_err(|e| TestCaseError::fail(e.to_string()))?;
        }
    }

    /// G5/G5': at any power-of-two population every vnode holds exactly
    /// Pmin partitions, hence σ̄ = 0 — under pure growth, any seed, any
    /// configuration.
    #[test]
    fn perfect_balance_at_powers_of_two(
        pmin in pow2(4),
        vmin in pow2(3),
        seed in any::<u64>(),
    ) {
        let cfg = DhtConfig::new(HashSpace::new(32), pmin, vmin).unwrap();
        let mut dht = LocalDht::with_seed(cfg, seed);
        for i in 0..64u32 {
            dht.create_vnode_with(SnodeId(i % 4), &mut NullSink).unwrap();
            let v = dht.vnode_count() as u64;
            if v.is_power_of_two() && dht.group_count() == 1 {
                // Single-group case: G5' applies to the whole DHT.
                prop_assert!(dht.vnode_quota_relstd_pct() < 1e-9, "V={v}");
            }
        }
    }

    /// Lookup is total and consistent: every probed point routes to a
    /// vnode that lists the containing partition.
    #[test]
    fn lookup_total_and_consistent(
        pmin in pow2(4),
        vmin in pow2(3),
        seed in any::<u64>(),
        n in 1usize..50,
        probes in prop::collection::vec(any::<u64>(), 16),
    ) {
        let space = HashSpace::new(32);
        let cfg = DhtConfig::new(space, pmin, vmin).unwrap();
        let mut dht = LocalDht::with_seed(cfg, seed);
        for i in 0..n {
            dht.create_vnode_with(SnodeId(i as u32 % 5), &mut NullSink).unwrap();
        }
        for p in probes {
            let point = p & space.max_point();
            let (partition, v) = dht.lookup(point).expect("covered");
            prop_assert!(partition.contains(point, space));
            prop_assert!(dht.partitions_of(v).unwrap().contains(&partition));
        }
    }

    /// The spread theorem: after any operation, partition counts within a
    /// group differ by at most one (checked by check_invariants, asserted
    /// here through the public PDR view for independence).
    #[test]
    fn per_group_count_spread_is_at_most_one(
        vmin in pow2(3),
        seed in any::<u64>(),
        n in 2usize..80,
    ) {
        let cfg = DhtConfig::new(HashSpace::new(32), 8, vmin).unwrap();
        let mut dht = LocalDht::with_seed(cfg, seed);
        for i in 0..n {
            dht.create_vnode_with(SnodeId(i as u32 % 6), &mut NullSink).unwrap();
        }
        for v in dht.vnodes() {
            let pdr = dht.pdr_of(v).unwrap();
            let counts: Vec<u64> = pdr.entries().iter().map(|e| e.partitions).collect();
            let min = counts.iter().min().unwrap();
            let max = counts.iter().max().unwrap();
            prop_assert!(max - min <= 1, "spread {min}..{max}");
        }
    }

    /// Determinism: identical seeds and scripts produce identical states.
    #[test]
    fn growth_is_deterministic(seed in any::<u64>(), n in 1usize..60) {
        let cfg = DhtConfig::new(HashSpace::new(32), 4, 2).unwrap();
        let build = || {
            let mut dht = LocalDht::with_seed(cfg, seed);
            for i in 0..n {
                dht.create_vnode_with(SnodeId(i as u32), &mut NullSink).unwrap();
            }
            (dht.quotas(), dht.group_count())
        };
        prop_assert_eq!(build(), build());
    }
}
