//! Indexed-vs-full-scan parity: after arbitrary interleaved churn, the
//! owner-oriented accessors (`partitions_of`, `quota_of`, `quotas`,
//! `partition_count`) of every backend must equal a from-scratch
//! reconstruction obtained by **walking the whole hash space through
//! `lookup`** — the one primitive whose correctness the coverage
//! invariant pins down independently of any index or accumulator.
//!
//! Create/remove sequences drive every incremental structure this
//! workspace maintains: the hashspace owner index (split/merge cascades,
//! transfers), the engines' group accumulators and snode ledgers, and
//! the CH adapter's derived arc tiling.

use domus::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// An operation against a DHT engine.
#[derive(Debug, Clone, Copy)]
enum Op {
    Create(u32),
    /// Remove the live vnode at this (modular) position.
    Remove(u16),
}

fn ops(max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            3 => (0u32..12).prop_map(Op::Create),
            2 => any::<u16>().prop_map(Op::Remove),
        ],
        4..max_len,
    )
}

/// Rebuilds owner → (partitions, exact quota) by walking `lookup` across
/// the entire space, partition by partition (O(P) lookups, no engine
/// internals involved).
fn full_scan<E: DhtEngine>(dht: &E) -> BTreeMap<VnodeId, (Vec<Partition>, Quota)> {
    let space = dht.config().hash_space();
    let mut out: BTreeMap<VnodeId, (Vec<Partition>, Quota)> = BTreeMap::new();
    let mut at: u128 = 0;
    while at < space.size() {
        let (p, v) = dht.lookup(at as u64).expect("R_h is fully covered");
        assert_eq!(p.start(space) as u128, at, "partitions must tile without overlap");
        let e = out.entry(v).or_insert_with(|| (Vec::new(), Quota::ZERO));
        e.0.push(p);
        e.1 = e.1 + p.quota();
        at = p.end(space);
    }
    out
}

/// Runs the script and checks indexed accessors against the walk after
/// every step.
fn churn_and_compare<E: DhtEngine>(mut dht: E, script: &[Op]) -> Result<(), TestCaseError> {
    let space = dht.config().hash_space();
    for (step, op) in script.iter().enumerate() {
        match *op {
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
        if dht.vnode_count() == 0 {
            continue; // nothing created yet: no coverage to walk
        }
        let fresh = full_scan(&dht);
        let live = dht.vnodes();
        prop_assert_eq!(fresh.len(), live.len(), "step {}: every vnode owns something", step);
        let mut total = Quota::ZERO;
        for &v in &live {
            let (parts, quota) = fresh.get(&v).expect("live vnode found by the walk");
            // partitions_of must equal the walk's tiling as a set (the
            // trait leaves the order unspecified; the walk is hash-ordered).
            let mut listed = dht.partitions_of(v).unwrap();
            listed.sort_unstable_by_key(|p| p.start(space));
            prop_assert_eq!(&listed, parts, "step {}: {} partition list", step, v);
            prop_assert_eq!(
                dht.partition_count(v).unwrap(),
                parts.len() as u64,
                "step {}: {} partition count",
                step,
                v
            );
            // quota_of must equal the exact recomputed quota.
            let got = dht.quota_of(v).unwrap();
            prop_assert!(
                (got - quota.to_f64()).abs() < 1e-12,
                "step {step}: {v} quota {got} vs recomputed {quota}"
            );
            total = total + *quota;
        }
        prop_assert!(total.is_one(), "step {}: quotas sum to {}", step, total);
        // quotas() is the same data in creation order.
        let quotas = dht.quotas();
        prop_assert_eq!(quotas.len(), live.len());
        for (&v, q) in live.iter().zip(&quotas) {
            prop_assert!((q - fresh[&v].1.to_f64()).abs() < 1e-12);
        }
        dht.check_invariants().map_err(|e| TestCaseError::fail(e.to_string()))?;
    }
    Ok(())
}

/// The engines' accumulator-based `balance_snapshot` overrides must agree
/// with the generic one-pass `BalanceSnapshot::capture` oracle.
fn snapshot_parity<E: DhtEngine>(dht: &E) {
    let fast = dht.balance_snapshot();
    let slow = BalanceSnapshot::capture(dht);
    assert_eq!(fast.vnodes, slow.vnodes);
    assert_eq!(fast.groups, slow.groups);
    assert_eq!(fast.snodes, slow.snodes);
    assert!((fast.vnode_relstd_pct - slow.vnode_relstd_pct).abs() < 1e-9, "{fast:?} {slow:?}");
    assert!((fast.snode_relstd_pct - slow.snode_relstd_pct).abs() < 1e-9, "{fast:?} {slow:?}");
    assert!(
        (fast.max_quota_over_ideal - slow.max_quota_over_ideal).abs() < 1e-9,
        "{fast:?} {slow:?}"
    );
}

#[test]
fn balance_snapshot_overrides_agree_with_capture() {
    let space = HashSpace::full();
    let mut local = LocalDht::with_seed(DhtConfig::new(space, 8, 4).unwrap(), 11);
    let mut global = GlobalDht::with_seed(DhtConfig::new(space, 8, 1).unwrap(), 11);
    let mut ch = ChEngine::with_seed(DhtConfig::new(space, 8, 1).unwrap(), 8, 11);
    for i in 0..60u32 {
        local.create_vnode_with(SnodeId(i % 17), &mut NullSink).unwrap();
        global.create_vnode_with(SnodeId(i % 17), &mut NullSink).unwrap();
        ch.create_vnode_with(SnodeId(i % 17), &mut NullSink).unwrap();
        if i % 5 == 4 {
            let v = local.vnodes()[(i as usize * 7) % local.vnode_count()];
            local.remove_vnode_with(v, &mut NullSink).unwrap();
            let v = global.vnodes()[(i as usize * 7) % global.vnode_count()];
            global.remove_vnode_with(v, &mut NullSink).unwrap();
            let v = ch.vnodes()[(i as usize * 7) % ch.vnode_count()];
            ch.remove_vnode_with(v, &mut NullSink).unwrap();
        }
        snapshot_parity(&local);
        snapshot_parity(&global);
        snapshot_parity(&ch);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Local approach: indexed accessors == full-scan reconstruction.
    #[test]
    fn local_indexed_accessors_match_full_scan(
        seed in any::<u64>(),
        script in ops(36),
    ) {
        let cfg = DhtConfig::new(HashSpace::new(24), 8, 4).unwrap();
        churn_and_compare(LocalDht::with_seed(cfg, seed), &script)?;
    }

    /// Global approach: indexed accessors == full-scan reconstruction.
    #[test]
    fn global_indexed_accessors_match_full_scan(
        seed in any::<u64>(),
        script in ops(36),
    ) {
        let cfg = DhtConfig::new(HashSpace::new(24), 8, 1).unwrap();
        churn_and_compare(GlobalDht::with_seed(cfg, seed), &script)?;
    }

    /// Consistent hashing: the derived arc tiling == full-scan
    /// reconstruction (few virtual servers keep the walk short).
    #[test]
    fn ch_indexed_accessors_match_full_scan(
        seed in any::<u64>(),
        script in ops(24),
    ) {
        let cfg = DhtConfig::new(HashSpace::new(24), 8, 1).unwrap();
        churn_and_compare(ChEngine::with_seed(cfg, 4, seed), &script)?;
    }
}
