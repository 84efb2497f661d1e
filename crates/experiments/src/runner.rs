//! Multi-run growth simulations, parallelised over runs.
//!
//! §4 of the paper: "In all simulations performed, 1024 vnodes were
//! consecutively created and, after the creation of each vnode, the metric
//! under analysis was measured. All the results presented are averages of
//! 100 runs of the same test, in order to account for the random choice of
//! a victim group." This module is that harness: one seeded engine per
//! `(experiment, run)` pair, per-creation sampling, Welford aggregation
//! across runs on worker threads.

use domus_ch::ChRing;
use domus_core::{DhtConfig, DhtEngine, GlobalDht, LocalDht, NullSink, SnodeId};
use domus_hashspace::HashSpace;
use domus_metrics::series::MultiRunSeries;
use domus_util::SeedSequence;

/// Everything sampled after one creation in a local-approach run.
#[derive(Debug, Clone, Copy, Default)]
pub struct GrowthSample {
    /// `σ̄(Qv)` percent.
    pub vnode_relstd: f64,
    /// Live group count `G_real`.
    pub groups: f64,
    /// `σ̄(Qg)` percent (against ideal `1/G`).
    pub group_relstd: f64,
}

/// Grows a local-approach DHT to `n` vnodes, sampling after each creation.
pub fn local_growth(cfg: DhtConfig, n: usize, seed: u64) -> Vec<GrowthSample> {
    let mut dht = LocalDht::with_seed(cfg, seed);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        dht.create_vnode_with(SnodeId(i as u32), &mut NullSink)
            .expect("growth cannot fail at these scales");
        out.push(GrowthSample {
            vnode_relstd: dht.vnode_quota_relstd_pct(),
            groups: dht.group_count() as f64,
            group_relstd: dht.group_quota_relstd_pct(),
        });
    }
    out
}

/// Grows a global-approach DHT to `n` vnodes, sampling `σ̄(Qv)`.
pub fn global_growth(cfg: DhtConfig, n: usize, seed: u64) -> Vec<f64> {
    let mut dht = GlobalDht::with_seed(cfg, seed);
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        dht.create_vnode_with(SnodeId(i as u32), &mut NullSink)
            .expect("growth cannot fail at these scales");
        out.push(dht.vnode_quota_relstd_pct());
    }
    out
}

/// Grows a consistent-hashing ring to `n` nodes with `k` virtual servers
/// each, sampling `σ̄(Qn)` after each join.
pub fn ch_growth(space: HashSpace, k: u32, n: usize, seed: u64) -> Vec<f64> {
    let mut ring = ChRing::with_seed(space, k, seed);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        ring.join();
        out.push(ring.node_quota_relstd_pct());
    }
    out
}

/// Averages `runs` seeded executions of `one_run` over an x grid of
/// `1..=n`, fanning runs out across worker threads (run `r` uses the
/// deterministic stream `seeds.stream(label, r)` — results are independent
/// of the thread count).
pub fn average_runs<F>(
    name: &str,
    label: &str,
    seeds: &SeedSequence,
    runs: u64,
    n: usize,
    one_run: F,
) -> MultiRunSeries
where
    F: Fn(u64) -> Vec<f64> + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(runs as usize)
        .max(1);
    let next = std::sync::atomic::AtomicU64::new(0);
    let mut partials: Vec<MultiRunSeries> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let one_run = &one_run;
                scope.spawn(move || {
                    let mut acc = MultiRunSeries::over_counts(name, n);
                    loop {
                        let r = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if r >= runs {
                            break;
                        }
                        let seed = derive_seed(seeds, label, r);
                        acc.record_run(&one_run(seed));
                    }
                    acc
                })
            })
            .collect();
        for h in handles {
            partials.push(h.join().expect("runner thread panicked"));
        }
    });
    let mut total = MultiRunSeries::over_counts(name, n);
    for p in &partials {
        total.merge(p);
    }
    total
}

/// Derives the run seed for `(label, run_index)` from the experiment master
/// seed — one u64 drawn from the dedicated stream.
pub fn derive_seed(seeds: &SeedSequence, label: &str, run: u64) -> u64 {
    use domus_util::DomusRng;
    seeds.stream(label, run).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> DhtConfig {
        DhtConfig::new(HashSpace::new(32), 4, 4).unwrap()
    }

    #[test]
    fn local_growth_samples_every_step() {
        let s = local_growth(small_cfg(), 50, 1);
        assert_eq!(s.len(), 50);
        assert_eq!(s[0].vnode_relstd, 0.0, "a single vnode is perfectly balanced");
        assert_eq!(s[0].groups, 1.0);
        assert!(s.iter().all(|x| x.vnode_relstd.is_finite()));
    }

    #[test]
    fn global_growth_is_zero_at_powers_of_two() {
        let s = global_growth(small_cfg(), 64, 2);
        for v in [1usize, 2, 4, 8, 16, 32, 64] {
            assert_eq!(s[v - 1], 0.0, "V={v}");
        }
    }

    #[test]
    fn averaging_is_thread_schedule_stable() {
        // Per-run results are seed-determined; only the Welford merge order
        // varies with scheduling, so repeated means agree to ~1 ulp.
        let seeds = SeedSequence::new(42);
        let cfg = small_cfg();
        let a = average_runs("t", "x", &seeds, 8, 30, |s| {
            local_growth(cfg, 30, s).iter().map(|g| g.vnode_relstd).collect()
        });
        let b = average_runs("t", "x", &seeds, 8, 30, |s| {
            local_growth(cfg, 30, s).iter().map(|g| g.vnode_relstd).collect()
        });
        for (x, y) in a.mean_series().y.iter().zip(&b.mean_series().y) {
            assert!((x - y).abs() <= 1e-9 * x.abs().max(1.0), "{x} vs {y}");
        }
        assert_eq!(a.runs(), 8);
    }

    #[test]
    fn ch_growth_shrinks_with_more_points() {
        let space = HashSpace::full();
        let rough = ch_growth(space, 8, 64, 5);
        let fine = ch_growth(space, 64, 64, 5);
        assert!(fine.last().unwrap() < rough.last().unwrap());
    }
}
