//! Integration tests of the simulator substrate against both engines:
//! the paper's qualitative scalability claims must hold as orderings in
//! the priced model, robustly across seeds.

use domus::prelude::*;
use domus::sim::{global_footprint, local_footprint};

fn grow_global(n: usize, snodes: u32, seed: u64) -> SimDriver<GlobalDht> {
    let cfg = DhtConfig::new(HashSpace::full(), 32, 1).unwrap();
    let mut sim = SimDriver::new(GlobalDht::with_seed(cfg, seed));
    sim.grow(n, snodes).unwrap();
    sim
}

fn grow_local(n: usize, snodes: u32, vmin: u64, seed: u64) -> SimDriver<LocalDht> {
    let cfg = DhtConfig::new(HashSpace::full(), 32, vmin).unwrap();
    let mut sim = SimDriver::new(LocalDht::with_seed(cfg, seed));
    sim.grow(n, snodes).unwrap();
    sim
}

#[test]
fn local_beats_global_on_makespan_across_seeds() {
    for seed in [1u64, 7, 42] {
        let g = grow_global(256, 32, seed);
        let l = grow_local(256, 32, 16, seed);
        assert!(
            l.trace().makespan() < g.trace().makespan(),
            "seed {seed}: local {} !< global {}",
            l.trace().makespan(),
            g.trace().makespan()
        );
    }
}

#[test]
fn smaller_groups_buy_more_parallelism() {
    let coarse = grow_local(256, 32, 64, 3);
    let fine = grow_local(256, 32, 8, 3);
    assert!(
        fine.trace().parallelism() > coarse.trace().parallelism(),
        "Vmin=8 parallelism {} !> Vmin=64 {}",
        fine.trace().parallelism(),
        coarse.trace().parallelism()
    );
}

#[test]
fn global_message_cost_scales_with_population() {
    let sim = grow_global(256, 32, 5);
    let early: u64 = sim.trace().events[8..16].iter().map(|e| e.cost.messages).sum();
    let late: u64 = sim.trace().events[248..256].iter().map(|e| e.cost.messages).sum();
    assert!(late > early, "GPDR rounds must grow: early {early}, late {late}");
}

#[test]
fn local_message_cost_is_group_bounded() {
    let sim = grow_local(512, 32, 16, 5);
    let max_msgs = sim.trace().events.iter().map(|e| e.cost.messages).max().unwrap();
    // Participants ≤ Vmax(=32) snodes; each contributes a couple of
    // messages plus transfers bounded by Pmax.
    assert!(max_msgs < 300, "local events must stay group-bounded, saw {max_msgs}");
}

#[test]
fn memory_footprint_ordering_holds_across_scales() {
    for n in [128usize, 512] {
        let cfg_g = DhtConfig::new(HashSpace::full(), 32, 1).unwrap();
        let mut g = GlobalDht::with_seed(cfg_g, 1);
        let cfg_l = DhtConfig::new(HashSpace::full(), 32, 16).unwrap();
        let mut l = LocalDht::with_seed(cfg_l, 1);
        for i in 0..n {
            g.create_vnode_with(SnodeId(i as u32 % 16), &mut NullSink).unwrap();
            l.create_vnode_with(SnodeId(i as u32 % 16), &mut NullSink).unwrap();
        }
        let gf = global_footprint(&g);
        let lf = local_footprint(&l);
        assert!(
            lf.total_entries() < gf.total_entries(),
            "n={n}: local {} !< global {}",
            lf.total_entries(),
            gf.total_entries()
        );
        // Exact global law: S × V entries.
        assert_eq!(gf.total_entries(), 16 * n as u64);
    }
}

#[test]
fn simulated_time_is_reproducible_and_monotone() {
    let a = grow_local(128, 16, 8, 9);
    let b = grow_local(128, 16, 8, 9);
    assert_eq!(a.trace().makespan(), b.trace().makespan());
    assert_eq!(a.trace().bytes(), b.trace().bytes());
    // Events never finish before they start.
    for e in &a.trace().events {
        assert!(e.done >= e.start);
    }
}

#[test]
fn parallelism_is_bounded_by_group_count() {
    let sim = grow_local(256, 32, 8, 11);
    let groups = sim.engine().group_count() as f64;
    assert!(
        sim.trace().parallelism() <= groups,
        "parallelism {} cannot exceed final group count {groups}",
        sim.trace().parallelism()
    );
}
