//! Backend parity: the same join/leave/lookup script must uphold the same
//! routing invariants on every [`DhtEngine`] — the paper's global approach
//! (§2), its local approach (§3), and the Consistent-Hashing reference
//! (§4.3) behind the `ChEngine` adapter. The quality of balancement
//! *differs* by design (that is the paper's whole point); what must agree
//! is the contract: total lookup, routing ↔ partition-list consistency,
//! exact quota conservation, transfer-driven data migration.

use domus::prelude::*;
use domus_core::DhtEngine;
use std::collections::BTreeSet;

const BITS: u32 = 32;

fn space() -> HashSpace {
    HashSpace::new(BITS)
}

fn global() -> GlobalDht {
    GlobalDht::with_seed(DhtConfig::new(space(), 4, 1).unwrap(), 0xA1)
}

fn local() -> LocalDht {
    LocalDht::with_seed(DhtConfig::new(space(), 4, 2).unwrap(), 0xA2)
}

fn ch() -> ChEngine {
    ChEngine::with_seed(DhtConfig::new(space(), 4, 1).unwrap(), 8, 0xA3)
}

/// Deterministic probe points spread over the space.
fn probes() -> Vec<u64> {
    let mut rng = Xoshiro256pp::seed_from_u64(2004);
    (0..64).map(|_| space().random_point(&mut rng)).collect()
}

/// The shared script: grow, probe, shrink, probe — asserting the engine
/// contract after every phase.
fn run_script<E: DhtEngine>(label: &str, mut dht: E) {
    // Phase 1: sixteen vnodes round-robin over five snodes.
    let mut report = CollectReport::new();
    for i in 0..16u32 {
        report.clear();
        let created = dht.create_vnode_with(SnodeId(i % 5), &mut report).unwrap();
        // Creations must name the created vnode's container group and only
        // move partitions *to* somewhere (joins pull, never push).
        assert!(created.group.is_some(), "{label}: creation must report a group");
        for t in report.transfers() {
            assert_ne!(t.from, t.to, "{label}: self-transfer in report");
        }
        assert!(dht.vnodes().contains(&created.vnode), "{label}: fresh vnode listed");
    }
    assert_contract(label, &dht, 16);

    // Phase 2: remove five vnodes (every third), re-assert.
    let victims: Vec<VnodeId> = dht.vnodes().into_iter().step_by(3).take(5).collect();
    for v in victims {
        report.clear();
        dht.remove_vnode_with(v, &mut report).unwrap();
        // A removal may also carry merge co-location moves between other
        // vnodes (local approach), but never hands anything *to* the
        // departing vnode.
        for t in report.transfers() {
            assert_ne!(t.to, v, "{label}: leave transfer back to the departing vnode");
            assert_ne!(t.from, t.to, "{label}: self-transfer in report");
        }
        // The handle is dead immediately.
        assert!(dht.quota_of(v).is_err(), "{label}: dead vnode still answers");
    }
    assert_contract(label, &dht, 11);
}

/// The DhtEngine contract every backend must satisfy.
fn assert_contract<E: DhtEngine>(label: &str, dht: &E, expect_vnodes: usize) {
    assert_eq!(dht.vnode_count(), expect_vnodes, "{label}");
    assert_eq!(dht.vnodes().len(), expect_vnodes, "{label}");
    dht.check_invariants().unwrap_or_else(|e| panic!("{label}: {e}"));

    // Exact quota conservation, and agreement between the two quota views.
    let quotas = dht.quotas();
    assert_eq!(quotas.len(), expect_vnodes, "{label}");
    let total: f64 = quotas.iter().sum();
    assert!((total - 1.0).abs() < 1e-9, "{label}: quotas sum to {total}");
    for (&v, &q) in dht.vnodes().iter().zip(&quotas) {
        assert_eq!(dht.quota_of(v).unwrap(), q, "{label}: quota views disagree at {v}");
    }

    // Every key lands where lookup points.
    for point in probes() {
        let (partition, owner) = dht.lookup(point).unwrap_or_else(|| panic!("{label}: lookup gap"));
        assert!(partition.contains(point, space()), "{label}: wrong partition at {point}");
        assert!(
            dht.partitions_of(owner).unwrap().contains(&partition),
            "{label}: {owner} does not list its routed partition"
        );
    }

    // Names resolve and are unique.
    let mut names: Vec<String> =
        dht.vnodes().iter().map(|&v| dht.name_of(v).unwrap().to_string()).collect();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), expect_vnodes, "{label}: canonical names must be unique");

    // The PDR view agrees with the partition lists.
    let v0 = dht.vnodes()[0];
    let pdr = dht.pdr_of(v0).unwrap();
    assert!(!pdr.is_empty(), "{label}: empty record");
    let listed: u64 = pdr.entries().iter().map(|e| e.partitions).sum();
    assert!(listed > 0, "{label}");
    assert_eq!(dht.snode_of(v0).unwrap(), dht.name_of(v0).unwrap().snode, "{label}");
}

#[test]
fn engine_contract_parity_across_backends() {
    run_script("global", global());
    run_script("local", local());
    run_script("ch", ch());
}

/// Interleaved join/remove churn — the event shapes `domus-churn`
/// produces. The original script is joins-then-removes; churn interleaves
/// them, which exercises different paths (removals from partially grown
/// groups, merges racing splits), so parity is asserted after **every**
/// event, not per phase.
fn run_interleaved<E: DhtEngine>(label: &str, mut dht: E) {
    // A deterministic interleaving: net growth with a removal every third
    // step once enough vnodes exist, plus a mid-script mass failure.
    let mut live = 0usize;
    let mut next_snode = 0u32;
    let mut report = CollectReport::new();
    for round in 0..30u32 {
        if round % 3 == 2 && live > 4 {
            // Remove a rank-selected victim, like a churn Leave event.
            let victims = dht.vnodes();
            let v = victims[(round as usize * 7) % victims.len()];
            report.clear();
            dht.remove_vnode_with(v, &mut report).unwrap();
            for t in report.transfers() {
                assert_ne!(t.to, v, "{label}: transfer back to the departing vnode");
                assert_ne!(t.from, t.to, "{label}: self-transfer");
            }
            live -= 1;
        } else {
            let created = dht.create_vnode_with(SnodeId(next_snode % 7), &mut NullSink).unwrap();
            next_snode += 1;
            assert!(created.group.is_some(), "{label}: creation must report a group");
            assert!(dht.vnodes().contains(&created.vnode), "{label}: fresh vnode listed");
            live += 1;
        }
        assert_contract(label, &dht, live);
    }
    // Correlated failure: a contiguous slice of the roster leaves at once.
    // A migration keeps the vnode's handle, so handles collected up front
    // stay live until removed.
    for v in dht.vnodes()[2..6].to_vec() {
        dht.remove_vnode_with(v, &mut NullSink).unwrap();
        live -= 1;
        assert_contract(label, &dht, live);
    }
}

#[test]
fn interleaved_churn_parity_across_backends() {
    run_interleaved("global", global());
    run_interleaved("local", local());
    run_interleaved("ch", ch());
}

/// The trait is dyn-compatible: one `&mut dyn DhtEngine` handle drives
/// any backend through the streaming membership calls and the default
/// `balance_snapshot` — the satellite fix for the old `where Self: Sized`
/// bound that made trait objects unusable.
fn drive_dyn(label: &str, dht: &mut dyn DhtEngine) {
    let mut counts = CountOnly::default();
    for s in 0..12u32 {
        dht.create_vnode_with(SnodeId(s % 4), &mut counts).unwrap();
    }
    assert_eq!(dht.vnode_count(), 12, "{label}");
    assert!(counts.transfers > 0, "{label}: growth must move partitions");

    // Removals through the same dyn handle. Victims come from the live
    // roster.
    for i in 0..4 {
        let live = dht.vnodes();
        dht.remove_vnode_with(live[(3 * i) % live.len()], &mut NullSink).unwrap();
    }
    assert_eq!(dht.vnode_count(), 8, "{label}");

    let snap = dht.balance_snapshot();
    assert_eq!(snap.vnodes, 8, "{label}");
    let created = dht.create_vnode_with(SnodeId(9), &mut NullSink).unwrap();
    assert!(created.group.is_some(), "{label}");
    let victim = dht.vnodes()[0];
    dht.remove_vnode_with(victim, &mut NullSink).unwrap();
    dht.check_invariants().unwrap_or_else(|e| panic!("{label}: {e}"));
}

/// Counts internal migrations, checking that each keeps its handle.
#[derive(Default)]
struct Migrations(u64);

impl RebalanceSink for Migrations {
    fn event(&mut self, e: RebalanceEvent) {
        if let RebalanceEvent::VnodeMigrated { old, new } = e {
            assert_eq!(old, new, "a migration must keep the vnode's handle");
            self.0 += 1;
        }
    }
}

/// A deep shrink with `Vmin = 2` forces group merges and internal
/// migrations, with fresh creations interleaved. The victims come from
/// one list of handles taken before the shrink: a migrated vnode keeps its
/// handle, so every held handle not yet removed stays live on its snode.
#[test]
fn deep_shrink_keeps_every_held_handle_live() {
    let mut migrations = Migrations::default();
    for seed in 0..20u64 {
        let cfg = DhtConfig::new(HashSpace::new(32), 4, 2).unwrap();
        let mut dht = LocalDht::with_seed(cfg, seed);
        for s in 0..32u32 {
            dht.create_vnode_with(SnodeId(s % 6), &mut NullSink).unwrap();
        }

        // Decommission most of the fleet with fresh creates interleaved.
        let held = dht.vnodes();
        for (i, &v) in held[..28].iter().enumerate() {
            dht.remove_vnode_with(v, &mut migrations)
                .unwrap_or_else(|e| panic!("seed {seed}: removing {v}: {e}"));
            if i % 5 == 0 {
                dht.create_vnode_with(SnodeId(100 + i as u32), &mut migrations).unwrap();
            }
            dht.check_invariants().unwrap_or_else(|e| panic!("seed {seed}, step {i}: {e}"));
            for (j, &w) in held.iter().enumerate().skip(i + 1) {
                assert_eq!(
                    dht.snode_of(w),
                    Ok(SnodeId(j as u32 % 6)),
                    "seed {seed}: {w} went dead"
                );
                assert!(dht.quota_of(w).is_ok(), "seed {seed}: {w} lost its quota");
            }
        }
        assert_eq!(dht.vnode_count(), 32 - 28 + 6, "seed {seed}");
    }
    assert!(migrations.0 > 0, "the scenario must migrate vnodes");
}

#[test]
fn dyn_engine_objects_drive_all_backends() {
    let mut g = global();
    let mut l = local();
    let mut c = ch();
    let engines: [(&str, &mut dyn DhtEngine); 3] =
        [("global", &mut g), ("local", &mut l), ("ch", &mut c)];
    for (label, dht) in engines {
        drive_dyn(label, dht);
    }
}

/// `vnodes()`, every `vnodes_of_snode(s)` and `snode_count()` against a
/// reference list of `(snode, vnode)` in creation order.
fn assert_index<E: DhtEngine>(label: &str, dht: &E, reference: &[(SnodeId, VnodeId)]) {
    let order: Vec<VnodeId> = reference.iter().map(|&(_, v)| v).collect();
    assert_eq!(dht.vnodes(), order, "{label}: creation order");
    let snodes: BTreeSet<SnodeId> = reference.iter().map(|&(s, _)| s).collect();
    assert_eq!(dht.snode_count(), snodes.len(), "{label}: snode count");
    for s in (0..INDEX_SNODES).map(SnodeId) {
        let hosted: Vec<VnodeId> =
            reference.iter().filter(|&&(h, _)| h == s).map(|&(_, v)| v).collect();
        assert_eq!(dht.vnodes_of_snode(s), hosted.as_slice(), "{label}: vnodes of {s}");
    }
}

/// Snodes the index script draws from.
const INDEX_SNODES: u32 = 5;

/// A seeded script of creations, removals, a crash and a rejoin, checking
/// the engine's per-snode index against a reference list after every
/// step: push on create, order-preserving delete on remove or fail, no
/// change on a migration (the vnode keeps its handle and its place).
/// Returns the migrations seen.
fn run_index_script<E: DhtEngine>(label: &str, mut dht: E, seed: u64) -> u64 {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut migrations = Migrations::default();
    let mut reference: Vec<(SnodeId, VnodeId)> = Vec::new();
    fn create<E: DhtEngine>(
        dht: &mut E,
        reference: &mut Vec<(SnodeId, VnodeId)>,
        rng: &mut Xoshiro256pp,
        sink: &mut Migrations,
    ) {
        let s = SnodeId(rng.next_below(u64::from(INDEX_SNODES)) as u32);
        reference.push((s, dht.create_vnode_with(s, sink).unwrap().vnode));
    }
    for _ in 0..30 {
        create(&mut dht, &mut reference, &mut rng, &mut migrations);
        assert_index(label, &dht, &reference);
    }
    // Shrink deep (merges and, on the local approach, migrations), with
    // creations interleaved; one snode crashes half-way and rejoins.
    for step in 0..26 {
        let (_, v) = reference.remove(rng.index(reference.len()));
        dht.remove_vnode_with(v, &mut migrations).unwrap();
        assert_index(label, &dht, &reference);
        if step % 4 == 0 {
            create(&mut dht, &mut reference, &mut rng, &mut migrations);
            assert_index(label, &dht, &reference);
        }
        if step == 12 {
            let (s, _) = reference[rng.index(reference.len())];
            let outcome = dht.fail_snode(s, &mut migrations).unwrap();
            let hosted: Vec<VnodeId> =
                reference.iter().filter(|&&(h, _)| h == s).map(|&(_, v)| v).collect();
            assert_eq!(outcome.vnodes, hosted, "{label}: a crash takes the snode's list");
            reference.retain(|&(h, _)| h != s);
            assert_index(label, &dht, &reference);
            let back = dht.rejoin_snode(s, hosted.len(), &mut migrations).unwrap();
            reference.extend(back.vnodes.iter().map(|&v| (s, v)));
            assert_index(label, &dht, &reference);
        }
    }
    dht.check_invariants().unwrap_or_else(|e| panic!("{label}: {e}"));
    migrations.0
}

#[test]
fn vnode_index_matches_a_reference_list_through_migrations() {
    let mut local_migrations = 0;
    for seed in 0..8u64 {
        let cfg = DhtConfig::new(space(), 4, 2).unwrap();
        local_migrations += run_index_script("local", LocalDht::with_seed(cfg, seed), seed);
        run_index_script("global", global(), seed);
        run_index_script("ch", ch(), seed);
    }
    assert!(local_migrations > 0, "the script must migrate vnodes");
}

/// The crash path: `fail_snode` tears down every vnode of one snode at
/// once on any backend, leaving the engine passing `invariants::check`
/// (via `check_invariants`) with the snode gone and routing still total.
fn run_fail_snode<E: DhtEngine>(label: &str, mut dht: E) {
    // Eighteen vnodes round-robin over six snodes: every snode hosts 3.
    for i in 0..18u32 {
        dht.create_vnode_with(SnodeId(i % 6), &mut NullSink).unwrap();
    }
    let mut live = 18usize;
    for victim in [2u32, 4, 0] {
        let s = SnodeId(victim);
        let hosted = dht.vnodes_of_snode(s).to_vec();
        assert!(!hosted.is_empty(), "{label}: s{victim} must host vnodes");
        let mut counts = domus_core::CountOnly::default();
        let outcome = dht.fail_snode(s, &mut counts).unwrap();
        assert_eq!(outcome.vnodes, hosted, "{label}: crash must take every vnode, in order");
        assert!(counts.transfers > 0, "{label}: the crash must redistribute partitions");
        live -= hosted.len();
        assert!(dht.vnodes_of_snode(s).is_empty(), "{label}: s{victim} still hosts vnodes");
        // Dead handles answer nothing.
        for v in &outcome.vnodes {
            assert!(dht.quota_of(*v).is_err(), "{label}: failed vnode {v} still live");
        }
        assert_contract(label, &dht, live);
    }
    // Error surface: an unknown snode is refused, and so is crashing the
    // entire remaining fleet.
    assert!(matches!(
        dht.fail_snode(SnodeId(77), &mut NullSink),
        Err(DhtError::EmptySnode(SnodeId(77)))
    ));
    for s in [1u32, 3] {
        dht.fail_snode(SnodeId(s), &mut NullSink).unwrap();
    }
    assert_eq!(dht.fail_snode(SnodeId(5), &mut NullSink), Err(DhtError::LastVnode));
    dht.check_invariants().unwrap_or_else(|e| panic!("{label}: {e}"));
}

#[test]
fn fail_snode_parity_across_backends() {
    run_fail_snode("global", global());
    run_fail_snode("local", local());
    run_fail_snode("ch", ch());
}

/// Crashes are as deterministic as everything else: for each seed, two
/// engines fed the identical grow + `fail_snode` script end in
/// byte-identical balance snapshots, per backend.
#[test]
fn fail_snode_is_deterministic_per_seed() {
    fn crash_script<E: DhtEngine>(mut dht: E) -> String {
        for i in 0..20u32 {
            dht.create_vnode_with(SnodeId(i % 7), &mut NullSink).unwrap();
        }
        for s in [3u32, 0, 5] {
            dht.fail_snode(SnodeId(s), &mut NullSink).unwrap();
        }
        dht.check_invariants().unwrap();
        // Debug formatting covers every field bit-for-bit.
        format!("{:?}|{:?}", dht.balance_snapshot(), dht.quotas())
    }
    for seed in [1u64, 7, 2004] {
        let cfg = || DhtConfig::new(space(), 4, 2).unwrap();
        assert_eq!(
            crash_script(LocalDht::with_seed(cfg(), seed)),
            crash_script(LocalDht::with_seed(cfg(), seed)),
            "local, seed {seed}"
        );
        let gcfg = || DhtConfig::new(space(), 4, 1).unwrap();
        assert_eq!(
            crash_script(GlobalDht::with_seed(gcfg(), seed)),
            crash_script(GlobalDht::with_seed(gcfg(), seed)),
            "global, seed {seed}"
        );
        assert_eq!(
            crash_script(ChEngine::with_seed(gcfg(), 8, seed)),
            crash_script(ChEngine::with_seed(gcfg(), 8, seed)),
            "ch, seed {seed}"
        );
    }
}

/// The replica-successor walk agrees with `lookup` on its first visit and
/// yields enough distinct snodes for placement on every backend.
#[test]
fn successor_walk_parity_across_backends() {
    fn walk<E: DhtEngine>(label: &str, mut dht: E) {
        for i in 0..12u32 {
            dht.create_vnode_with(SnodeId(i % 5), &mut NullSink).unwrap();
        }
        for point in probes() {
            let (_, primary) = dht.lookup(point).unwrap();
            let mut first = None;
            let mut snodes = Vec::new();
            dht.for_each_successor(point, &mut |v| {
                first.get_or_insert(v);
                let s = dht.snode_of(v).unwrap();
                if !snodes.contains(&s) {
                    snodes.push(s);
                }
                snodes.len() < 3
            });
            assert_eq!(first, Some(primary), "{label}: walk must start at the owner");
            assert_eq!(snodes.len(), 3, "{label}: five snodes must yield three distinct");
        }
    }
    walk("global", global());
    walk("local", local());
    walk("ch", ch());
}

/// The KV store is generic over the engine: the identical workload loses
/// no data on any backend, with migration driven purely by the streamed
/// transfer events.
fn run_kv<E: DhtEngine>(label: &str, engine: E) {
    let mut kv = KvStore::new(engine);
    kv.join(SnodeId(0)).unwrap();
    for i in 0..400u32 {
        kv.put(format!("key:{i}"), format!("value-{i}"));
    }
    for s in 1..10u32 {
        kv.join(SnodeId(s)).unwrap();
        kv.verify_placement().unwrap_or_else(|e| panic!("{label}: after join {s}: {e}"));
    }
    let vnodes = kv.engine().vnodes();
    for v in vnodes.into_iter().take(4) {
        kv.leave(v).unwrap();
        kv.verify_placement().unwrap_or_else(|e| panic!("{label}: after leave {v}: {e}"));
    }
    assert_eq!(kv.len(), 400, "{label}: entries lost");
    for i in 0..400u32 {
        assert_eq!(
            kv.get(format!("key:{i}").as_bytes()).unwrap().as_ref(),
            format!("value-{i}").as_bytes(),
            "{label}: key:{i}"
        );
    }
}

#[test]
fn kv_store_runs_generically_over_all_backends() {
    run_kv("global", global());
    run_kv("local", local());
    run_kv("ch", ch());
}

/// The simulator is generic over the engine: it prices whatever reports
/// the backend emits. CH and the global approach share one record (fully
/// serial); the local approach must overlap events on disjoint groups.
#[test]
fn sim_driver_runs_generically_over_all_backends() {
    let mut g = SimDriver::new(global());
    g.grow(48, 6).unwrap();
    let mut l = SimDriver::new(local());
    l.grow(48, 6).unwrap();
    let mut c = SimDriver::new(ch());
    c.grow(48, 6).unwrap();

    for (label, trace) in [("global", g.trace()), ("local", l.trace()), ("ch", c.trace())] {
        assert_eq!(trace.events.len(), 48, "{label}");
        assert!(trace.makespan() > SimTime::ZERO, "{label}");
        assert!(trace.messages() > 0, "{label}");
    }
    // Single-record backends are exactly serial; the local approach is not.
    assert!((g.trace().parallelism() - 1.0).abs() < 1e-9);
    assert!((c.trace().parallelism() - 1.0).abs() < 1e-9);
    assert!(l.trace().parallelism() > 1.0);
}
