//! Golden engine transcripts: seeded grow / shrink / interleave / crash /
//! rejoin scripts on the global and local approaches, pinned by digest.
//!
//! The transcript records, after every operation, the full event stream
//! the operation emitted (every `CollectReport` field, including the
//! victim probe, group splits and merges and migrations), its outcome or
//! error, the `balance_snapshot()` fields as f64 bits, the group count,
//! the record shape of the first and last live vnode and every vnode's
//! quota bits — plus, for the global approach, its GPDR, splitlevel and
//! count-based metric. A changed RNG draw, event, ordering or float
//! reduction shows up here before it reaches a CSV.
//!
//! The 6-bit spaces run the scripts into `LevelOverflow`, so the error
//! paths (and whatever state they leave behind) are pinned too.
//!
//! The local digests were re-captured once a group migration came to
//! keep the vnode's handle: the four local scripts migrate 17, 14, 1 and
//! 8 times; the global ones never do.

use domus_core::{CollectReport, DhtConfig, DhtEngine, GlobalDht, LocalDht, SnodeId, VnodeId};
use domus_hashspace::{hasher::Fnv1aHasher, HashSpace};
use std::fmt::{Debug, Write};

const SEED: u64 = 7;

/// Records one operation's events and result, then the engine's state.
fn record<E: DhtEngine, T: Debug>(
    t: &mut String,
    dht: &E,
    extra: &dyn Fn(&E, &mut String),
    op: &str,
    events: &CollectReport,
    result: T,
) {
    writeln!(t, "{op} -> {result:?} {events:?}").unwrap();
    dht.check_invariants().unwrap_or_else(|e| panic!("after {op}: {e}"));
    let s = dht.balance_snapshot();
    writeln!(
        t,
        "  snap {} {} {} {:x} {:x} {:x} groups {}",
        s.vnodes,
        s.groups,
        s.snodes,
        s.vnode_relstd_pct.to_bits(),
        s.snode_relstd_pct.to_bits(),
        s.max_quota_over_ideal.to_bits(),
        dht.group_count()
    )
    .unwrap();
    let vnodes = dht.vnodes();
    for v in [vnodes.first(), vnodes.last()].into_iter().flatten() {
        writeln!(t, "  shape {v:?} {:?}", dht.record_shape_of(*v)).unwrap();
    }
    for v in vnodes {
        write!(t, " {}:{:x}", v.0, dht.quota_of(v).unwrap().to_bits()).unwrap();
    }
    t.push('\n');
    extra(dht, t);
}

/// Runs the script on `dht` and digests its transcript.
fn transcript<E: DhtEngine>(mut dht: E, extra: &dyn Fn(&E, &mut String)) -> u64 {
    let mut t = String::new();
    let mut events = CollectReport::new();
    macro_rules! op {
        ($name:expr, $call:expr) => {{
            events.clear();
            let result = $call;
            record(&mut t, &dht, extra, &$name, &events, &result);
            result
        }};
    }
    // Victim order rotates first / middle / last.
    let pick = |vnodes: &[VnodeId], k: usize| match k % 3 {
        0 => vnodes[0],
        1 => vnodes[vnodes.len() / 2],
        _ => vnodes[vnodes.len() - 1],
    };

    for i in 0..40u32 {
        let _ = op!(format!("grow {i}"), dht.create_vnode_with(SnodeId(i % 5), &mut events));
    }
    for k in 0..12 {
        let v = pick(&dht.vnodes(), k);
        let _ = op!(format!("shrink {v:?}"), dht.remove_vnode_with(v, &mut events));
    }
    for i in 0..24u32 {
        if i % 2 == 0 {
            let s = SnodeId((i * 3) % 7);
            let _ = op!(format!("join {s:?}"), dht.create_vnode_with(s, &mut events));
        } else {
            let vnodes = dht.vnodes();
            let v = vnodes[(i as usize * 7) % vnodes.len()];
            let _ = op!(format!("leave {v:?}"), dht.remove_vnode_with(v, &mut events));
        }
    }

    let crashed = op!("fail 2", dht.fail_snode(SnodeId(2), &mut events));
    let _ = op!("fail 99", dht.fail_snode(SnodeId(99), &mut events));
    let lost = crashed.map_or(0, |o| o.vnodes.len());
    let _ = op!("rejoin 2", dht.rejoin_snode(SnodeId(2), lost, &mut events));
    let _ = op!("rejoin 3 empty", dht.rejoin_snode(SnodeId(3), 0, &mut events));
    let _ = op!("remove unknown", dht.remove_vnode_with(VnodeId(9999), &mut events));

    let mut k = 0;
    while dht.vnode_count() > 1 {
        let v = pick(&dht.vnodes(), k);
        let _ = op!(format!("drain {v:?}"), dht.remove_vnode_with(v, &mut events));
        k += 1;
    }
    let last = dht.vnodes()[0];
    let _ = op!("remove last", dht.remove_vnode_with(last, &mut events));
    let host = dht.snode_of(last).unwrap();
    let _ = op!("fail last host", dht.fail_snode(host, &mut events));
    for i in 0..10u32 {
        let _ = op!(format!("regrow {i}"), dht.create_vnode_with(SnodeId(i % 3), &mut events));
    }
    Fnv1aHasher::raw(t.as_bytes())
}

fn cfg(bits: u32, pmin: u64, vmin: u64) -> DhtConfig {
    DhtConfig::new(HashSpace::new(bits), pmin, vmin).expect("powers of two")
}

fn global(bits: u32, pmin: u64) -> u64 {
    transcript(GlobalDht::with_seed(cfg(bits, pmin, 1), SEED), &|dht, t| {
        writeln!(
            t,
            "  gpdr {:?} level {} counts {:x}",
            dht.gpdr().entries(),
            dht.splitlevel(),
            dht.partition_count_relstd_pct().to_bits()
        )
        .unwrap();
    })
}

fn local(bits: u32, pmin: u64, vmin: u64) -> u64 {
    transcript(LocalDht::with_seed(cfg(bits, pmin, vmin), SEED), &|_, _| {})
}

#[test]
fn global_transcripts_match_the_golden_digests() {
    assert_eq!(
        [global(32, 4), global(32, 8), global(6, 4), global(6, 8)],
        [0x7ca4cb0cc4a6187a, 0x7faeeaef9e407f38, 0x07cc30085e3ed6c6, 0x50cd670982a4b127]
    );
}

#[test]
fn local_transcripts_match_the_golden_digests() {
    assert_eq!(
        [local(32, 4, 4), local(32, 4, 2), local(6, 4, 4), local(6, 4, 2)],
        [0x497e6505846dedbd, 0x0ec4197d163f99af, 0x30f36e5b0171a1ce, 0x2e29dd6e1192f06f]
    );
}
