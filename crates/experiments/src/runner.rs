//! The growth-curve harness, written once.
//!
//! §4 of the paper: "In all simulations performed, 1024 vnodes were
//! consecutively created and, after the creation of each vnode, the metric
//! under analysis was measured. All the results presented are averages of
//! 100 runs of the same test, in order to account for the random choice of
//! a victim group." This module is that protocol: one growth loop
//! ([`grow`]) that samples after every creation, a [`Model`] that says
//! what a run grows, and [`average`], which grows one seeded engine per run
//! on worker threads and folds the runs in run order, so every mean has
//! the same bits on any core count. Figures, claims and ablations declare
//! their [`Runs`] and read the averaged [`Growth`] through
//! [`Ctx::growth`](crate::Ctx::growth), which grows each declaration once.

use domus_ch::ChRing;
use domus_core::local::{BalancedDht, RegionPolicy};
use domus_core::{CountOnly, DhtConfig, DhtEngine, GlobalDht, LocalDht, SnodeId};
use domus_hashspace::HashSpace;
use domus_metrics::{Series, Welford};
use domus_util::SeedSequence;
use std::sync::atomic::{AtomicU64, Ordering};

/// Everything sampled after one creation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GrowthSample {
    /// `σ̄(Qv)` percent (`σ̄(Qn)` on a CH ring).
    pub vnode_relstd: f64,
    /// Live group count `G_real` (0 on a CH ring).
    pub groups: f64,
    /// `σ̄(Qg)` percent (against ideal `1/G`).
    pub group_relstd: f64,
    /// Partition transfers since the first creation (0 on a CH ring).
    pub transfers: f64,
}

/// What one run grows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Model {
    /// The local approach; vnode `i` is hosted by snode `i % snodes`.
    Local {
        /// Engine parameters.
        cfg: DhtConfig,
        /// Snodes the vnodes are dealt over, round-robin.
        snodes: u32,
    },
    /// The global approach, one snode per vnode.
    Global(DhtConfig),
    /// A Consistent-Hashing ring with `k` virtual servers per node, one
    /// node joining per step.
    Ch(u32),
}

impl Model {
    /// The local approach with one snode per vnode, so each creation is a
    /// node join.
    pub fn local(cfg: DhtConfig) -> Self {
        Model::Local { cfg, snodes: u32::MAX }
    }

    /// One seeded run of `n` creations, sampled after each.
    pub fn run(self, n: usize, seed: u64) -> Vec<GrowthSample> {
        match self {
            Model::Local { cfg, snodes } => grow(&mut LocalDht::with_seed(cfg, seed), n, snodes),
            Model::Global(cfg) => grow(&mut GlobalDht::with_seed(cfg, seed), n, u32::MAX),
            Model::Ch(k) => {
                let mut ring = ChRing::with_seed(HashSpace::full(), k, seed);
                (0..n)
                    .map(|_| {
                        ring.join();
                        let relstd = ring.node_quota_relstd_pct();
                        GrowthSample { vnode_relstd: relstd, ..Default::default() }
                    })
                    .collect()
            }
        }
    }
}

/// The growth loop: creates `n` vnodes in `dht`, vnode `i` on snode
/// `i % snodes`, sampling after each creation. The transfer count comes
/// from a counting sink, which never feeds back into the engine.
pub fn grow<P: RegionPolicy>(dht: &mut BalancedDht<P>, n: usize, snodes: u32) -> Vec<GrowthSample> {
    let mut counts = CountOnly::default();
    (0..n as u32)
        .map(|i| {
            dht.create_vnode_with(SnodeId(i % snodes), &mut counts)
                .expect("growth cannot fail at these scales");
            GrowthSample {
                vnode_relstd: dht.vnode_quota_relstd_pct(),
                groups: dht.group_count() as f64,
                group_relstd: dht.group_quota_relstd_pct(),
                transfers: counts.transfers as f64,
            }
        })
        .collect()
}

/// One declared family of seeded growth runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Runs {
    /// Seed label: run `r` grows from `derive_seed(seeds, label, r)`.
    pub label: String,
    /// What each run grows.
    pub model: Model,
    /// How many runs are averaged.
    pub runs: u64,
    /// Creations per run.
    pub n: usize,
}

impl Runs {
    /// The paper's protocol at the context's scale: `ctx.runs` runs of
    /// `ctx.n` creations.
    pub fn of(ctx: &crate::Ctx, label: impl Into<String>, model: Model) -> Self {
        Self { label: label.into(), model, runs: ctx.runs, n: ctx.n }
    }
}

/// A run-averaged growth.
#[derive(Debug, Clone)]
pub struct Growth {
    /// Every metric's mean over the runs, after each creation.
    pub mean: Vec<GrowthSample>,
    /// Run 0's own samples (empty when no run was grown).
    pub first: Vec<GrowthSample>,
}

impl Growth {
    /// `metric` of the run-averaged growth, over `V = 1..=n`.
    pub fn curve(&self, name: &str, metric: fn(&GrowthSample) -> f64) -> Series {
        curve(name, &self.mean, metric)
    }

    /// `metric` of run 0 alone, over `V = 1..=n`.
    pub fn trace(&self, name: &str, metric: fn(&GrowthSample) -> f64) -> Series {
        curve(name, &self.first, metric)
    }
}

fn curve(name: &str, samples: &[GrowthSample], metric: fn(&GrowthSample) -> f64) -> Series {
    let x = (1..=samples.len()).map(|v| v as f64).collect();
    Series::new(name, x, samples.iter().map(metric).collect())
}

/// Grows every run of `spec`, fanning runs out over worker threads, and
/// folds them with [`Welford::push`] in run order.
pub fn average(seeds: &SeedSequence, spec: &Runs) -> Growth {
    let runs =
        in_run_order(spec.runs, |r| spec.model.run(spec.n, derive_seed(seeds, &spec.label, r)));
    let mean_at = |i: usize, metric: fn(&GrowthSample) -> f64| {
        runs.iter().map(|run| metric(&run[i])).collect::<Welford>().mean()
    };
    let mean = (0..spec.n)
        .map(|i| GrowthSample {
            vnode_relstd: mean_at(i, |s| s.vnode_relstd),
            groups: mean_at(i, |s| s.groups),
            group_relstd: mean_at(i, |s| s.group_relstd),
            transfers: mean_at(i, |s| s.transfers),
        })
        .collect();
    Growth { mean, first: runs.into_iter().next().unwrap_or_default() }
}

/// `one_run(r)` for every `r < runs`, computed on worker threads that pull
/// run indices from a shared counter, returned in run order.
fn in_run_order<T: Send>(runs: u64, one_run: impl Fn(u64) -> T + Sync) -> Vec<T> {
    let workers =
        std::thread::available_parallelism().map_or(4, |p| p.get()).min(runs as usize).max(1);
    let next = AtomicU64::new(0);
    let mut done: Vec<(u64, T)> = std::thread::scope(|scope| {
        let worker = || {
            let mut mine = Vec::new();
            loop {
                let r = next.fetch_add(1, Ordering::Relaxed);
                if r >= runs {
                    return mine;
                }
                mine.push((r, one_run(r)));
            }
        };
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        handles.into_iter().flat_map(|h| h.join().expect("runner thread panicked")).collect()
    });
    done.sort_unstable_by_key(|&(r, _)| r);
    done.into_iter().map(|(_, t)| t).collect()
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
        let s = Model::local(small_cfg()).run(50, 1);
        assert_eq!(s.len(), 50);
        assert_eq!(s[0].vnode_relstd, 0.0, "a single vnode is perfectly balanced");
        assert_eq!(s[0].groups, 1.0);
        assert!(s.iter().all(|x| x.vnode_relstd.is_finite()));
    }

    #[test]
    fn global_growth_is_zero_at_powers_of_two() {
        let s = Model::Global(small_cfg()).run(64, 2);
        for v in [1usize, 2, 4, 8, 16, 32, 64] {
            assert_eq!(s[v - 1].vnode_relstd, 0.0, "V={v}");
        }
    }

    #[test]
    fn averaging_is_thread_schedule_stable() {
        // Runs fan out over workers but fold in run order: the means are
        // the one-worker fold's, bit for bit, on any core count.
        let seeds = SeedSequence::new(42);
        let spec = Runs { label: "x".into(), model: Model::local(small_cfg()), runs: 8, n: 30 };
        let got = average(&seeds, &spec);
        let one_worker: Vec<Vec<GrowthSample>> =
            (0..8).map(|r| spec.model.run(30, derive_seed(&seeds, "x", r))).collect();
        let mut fold = vec![[Welford::new(); 2]; 30];
        for run in &one_worker {
            for (w, s) in fold.iter_mut().zip(run) {
                w[0].push(s.vnode_relstd);
                w[1].push(s.group_relstd);
            }
        }
        for (m, w) in got.mean.iter().zip(&fold) {
            assert_eq!(m.vnode_relstd.to_bits(), w[0].mean().to_bits());
            assert_eq!(m.group_relstd.to_bits(), w[1].mean().to_bits());
        }
        assert_eq!(got.first, one_worker[0], "run 0 is kept whole");
    }

    #[test]
    fn ch_growth_shrinks_with_more_points() {
        let rough = Model::Ch(8).run(64, 5);
        let fine = Model::Ch(64).run(64, 5);
        assert!(fine.last().unwrap().vnode_relstd < rough.last().unwrap().vnode_relstd);
    }
}
