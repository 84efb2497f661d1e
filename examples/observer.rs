//! Observer: consume rebalance events live, while the operations run.
//!
//! ```text
//! cargo run --release --example observer
//! ```
//!
//! The engines stream every rebalancement step — partition transfers,
//! split/merge cascades, group splits and merges, internal migrations —
//! into a [`RebalanceSink`] *during* `create_vnode_with` /
//! `remove_vnode_with`. Nothing is materialised:
//! an observer reacts to each event as it happens, exactly like the
//! simulator's pricing sink and the KV store's in-line migration do.

use domus::prelude::*;

/// A custom observer: narrates events and keeps a transfer histogram of
/// the receiving vnodes.
#[derive(Default)]
struct Narrator {
    verbose: bool,
    received: Vec<(VnodeId, u32)>,
}

impl RebalanceSink for Narrator {
    fn event(&mut self, e: RebalanceEvent) {
        match e {
            RebalanceEvent::Transfer(t) => {
                match self.received.iter_mut().find(|(v, _)| *v == t.to) {
                    Some((_, n)) => *n += 1,
                    None => self.received.push((t.to, 1)),
                }
                if self.verbose {
                    println!("    transfer  {} : {} → {}", t.partition, t.from, t.to);
                }
            }
            RebalanceEvent::PartitionSplit { count } => {
                println!("    cascade   {count} partitions binary-split (all at Pmin)");
            }
            RebalanceEvent::PartitionMerge { pairs } => {
                println!("    cascade   {pairs} sibling pairs merged back (all at Pmax)");
            }
            RebalanceEvent::GroupSplit(s) => {
                println!("    group     {} split into {} + {}", s.parent, s.child0, s.child1);
            }
            RebalanceEvent::GroupMerge { left, right, parent } => {
                println!("    group     {left} + {right} re-fused into {parent}");
            }
            RebalanceEvent::VnodeMigrated { old, .. } => {
                println!("    migrate   {old} moved to another group, keeping its handle");
            }
            RebalanceEvent::LookupProbe { point, victim } => {
                if self.verbose {
                    println!("    probe     r = {point:#010x} → victim {victim}");
                }
            }
        }
    }
}

fn main() {
    let cfg = DhtConfig::new(HashSpace::new(32), 8, 4).expect("powers of two");
    let mut dht = LocalDht::with_seed(cfg, 2004);

    // Watch the first creations in full detail.
    println!("first creations, event by event:");
    let mut narrator = Narrator { verbose: true, ..Default::default() };
    for snode in 0..4u32 {
        println!("  create on snode {snode}:");
        dht.create_vnode_with(SnodeId(snode), &mut narrator).expect("creation");
    }
    println!("  receivers so far (vnode: transfers received):");
    for (v, n) in &narrator.received {
        println!("    {v}: {n}");
    }

    // Grow through one sink for many ops. Tee fans the stream out —
    // tallies on one side, the narrator (cascade and group events only)
    // on the other.
    println!("\ngrowth to 40 vnodes (cascades and group events shown):");
    let mut tee = Tee(CountOnly::default(), Narrator::default());
    for i in 0..36u32 {
        dht.create_vnode_with(SnodeId(i % 8), &mut tee).expect("creation");
    }
    let counts = tee.0;
    println!(
        "  {} transfers, {} partitions split, {} group splits across 36 creations",
        counts.transfers, counts.partition_splits, counts.group_splits
    );

    // Shrink through the same surface; removals narrate merges/migrations.
    // Each victim comes from the live roster; a migrated vnode keeps its
    // handle and its place in it.
    println!("\ndecommission of 12 vnodes:");
    let mut tee = Tee(CountOnly::default(), Narrator::default());
    for i in 0..12 {
        let live = dht.vnodes();
        dht.remove_vnode_with(live[(3 * i) % live.len()], &mut tee).expect("removal");
    }
    println!(
        "  {} transfers, {} pairs merged, {} group merges, {} migrations across 12 removals",
        tee.0.transfers, tee.0.partition_merges, tee.0.group_merges, tee.0.migrations
    );

    // The pricing sink from domus-sim consumes the same stream: price one
    // creation in-line, no report materialised.
    let mut pricer = EventPricer::new(ClusterNet::default(), CostModel::default());
    pricer.begin();
    let outcome = dht.create_vnode_with(SnodeId(99), &mut pricer).expect("creation");
    let (record_len, participants) =
        dht.record_shape_of(outcome.vnode).expect("fresh vnode has a record");
    let cost = pricer.finish_create(record_len, participants);
    println!(
        "\npriced one creation in-stream: {} messages, {} wire bytes, {} priced time",
        cost.messages, cost.bytes, cost.duration
    );

    dht.check_invariants().expect("invariants");
    println!(
        "\nall invariants verified ✓  (V = {}, groups = {})",
        dht.vnode_count(),
        dht.group_count()
    );
}
