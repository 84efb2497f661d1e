//! Silent-stall failover, end to end: a replicated store under the
//! routing control plane loses one snode *without telling anyone* — it
//! simply stops renewing its lease — and the [`Router`] turns that
//! silence into a confirmed failover with zero lost keys.
//!
//! The narrative is the control loop from the CHURN-ROUTE experiment,
//! unrolled so every phase is visible:
//!
//! 1. eight snodes join an `R = 2` [`ReplicatedStore`]; each snode
//!    holds one [`Lease`], covering every vnode it hosts;
//! 2. healthy windows tick by — every holder renews, nothing happens;
//! 3. one snode stalls silently ([`Router::inject_stall`]): it keeps
//!    its data but stops renewing;
//! 4. once the lease TTL lapses, a tick emits
//!    [`RouteAction::Failover`]; the executor crashes the snode out of
//!    the store and confirms with [`Router::note_fail`];
//! 5. repair re-mints the lost replica copies and **every key is still
//!    readable** — `R = 2` kept a live copy of everything the stalled
//!    snode held.
//!
//! ```text
//! cargo run --release --example failover
//! ```

use domus::prelude::*;

const FLEET: u32 = 8;
const KEYS: u32 = 400;

fn main() {
    let cfg = DhtConfig::new(HashSpace::full(), 8, 4).expect("valid config");
    let mut kv = ReplicatedStore::new(LocalDht::with_seed(cfg, 2004), 2);
    let mut router = Router::new(RouterConfig::default());
    let window = SimTime::millis(30_000);
    let ttl = router.config().lease_ttl;
    let mut now = SimTime::ZERO;

    // Phase 1: the fleet joins; every vnode gets a lease.
    for s in 0..FLEET {
        let snode = SnodeId(s);
        let (v, _) = kv.join(snode).expect("join");
        router.note_join(v, snode, now);
    }
    for i in 0..KEYS {
        kv.put(format!("key-{i}"), format!("value-{i}"));
    }
    kv.verify_replication().expect("every key starts fully replicated");
    println!(
        "{FLEET} snodes up, {} keys at R=2, {} leases granted (ttl {}s, window {}s)\n",
        kv.len(),
        router.leases().len(),
        ttl.nanos() / 1_000_000_000,
        window.nanos() / 1_000_000_000,
    );

    // Phase 2: healthy windows — everyone renews, no action.
    for _ in 0..2 {
        now += window;
        let loads = snapshot_loads(&kv);
        let report = router.tick(now, &loads);
        println!(
            "t={:>3}s  tick: {} leases renewed, {} expired — healthy",
            now.nanos() / 1_000_000_000,
            report.renewed,
            report.expired,
        );
        assert!(report.actions.is_empty(), "a healthy fleet must not fail over");
    }

    // Phase 3: one snode goes silent. It still holds its data — it just
    // stops renewing. Nobody reports the failure.
    let victim = SnodeId(3);
    router.inject_stall(victim);
    println!("\n*** {victim} stalls silently — no crash report, renewals just stop ***\n");

    // Phase 4: tick until the TTL lapses and the failover surfaces. The
    // lease was last renewed at the stall tick, so it must lapse within
    // ⌈ttl/window⌉ + 1 more windows.
    let bound = ttl.nanos().div_ceil(window.nanos()) + 1;
    let mut crash: Option<CrashReport> = None;
    for _ in 0..bound {
        now += window;
        let loads = snapshot_loads(&kv);
        let report = router.tick(now, &loads);
        println!(
            "t={:>3}s  tick: {} renewed, {} expired",
            now.nanos() / 1_000_000_000,
            report.renewed,
            report.expired,
        );
        for action in report.actions {
            let RouteAction::Failover { snode } = action else {
                continue;
            };
            assert_eq!(snode, victim, "only the stalled holder may lapse");
            let vnodes = kv.engine().vnodes_of_snode(snode).len();
            println!("        -> failover ordered for {snode} ({vnodes} vnode(s))");

            // The executor: crash the snode out of the store, confirm,
            // repair.
            let report = kv.fail_snode(snode).expect("failover executes");
            router.note_fail(snode);
            let repair = kv.repair();
            println!(
                "        -> {} vnode(s) torn down, {} copies destroyed, {} keys lost; \
                 repair re-minted {} copies",
                report.vnodes_failed,
                report.copies_destroyed,
                report.keys_lost,
                repair.copies_placed,
            );
            crash = Some(report);
        }
        if crash.is_some() {
            break;
        }
    }

    // Phase 5: the contract. The stall was detected, the failover ran,
    // and R=2 means not one key went missing.
    let crash = crash.expect("the stall must fail over within ttl/window + 1 ticks");
    assert_eq!(crash.keys_lost, 0, "R=2 must survive one silent stall");
    let engine = kv.engine();
    router
        .verify(engine.snode_count(), |s| engine.vnodes_of_snode(s).len())
        .expect("leases cover exactly the survivors");
    kv.verify_replication().expect("repair restored full replication");
    for i in 0..KEYS {
        assert!(
            kv.get(format!("key-{i}").as_bytes()).is_some(),
            "key-{i} unreadable after failover"
        );
    }
    println!(
        "\nsurvivors: {} snodes, {} leases, {} keys all readable — totals: {} failover(s), {} lease(s) expired",
        kv.engine().snode_count(),
        router.leases().len(),
        kv.len(),
        router.totals().failovers,
        router.totals().leases_expired,
    );
    println!("OK: silent stall failed over via lease expiry with zero lost keys at R=2");
}

/// The per-snode load vector the scheduler ticks against, read off a
/// fresh serving-plane snapshot of the store's engine.
fn snapshot_loads(kv: &ReplicatedStore<LocalDht>) -> Vec<SnodeLoad> {
    EngineSnapshot::from_engine(kv.engine(), 0).loads().to_vec()
}
