//! The comparison protocol, written once.
//!
//! The paper's evaluation (§4: "the same test", identical parameters, one
//! curve per approach) and every comparison this crate adds to it rest on
//! one rule: a single seeded event stream, replayed *identically* into the
//! local approach `(Pmin, Vmin)`, the global approach `(Pmin, 1)` and
//! Consistent Hashing `(Pmin, 1, k = 32)`. This module owns that rule —
//! the backend table, the paper-vs-quick scale, the stream build with
//! `--events` truncation and the per-backend fingerprint assertion, the
//! `window = horizon / 20` driver config, the replay loop, and the
//! per-backend CSV writer. `churnx`, `replx` and `routex` are
//! declarations over it: a [`Spec`] plus an [`OnEngine`] that builds
//! their driver around a [`Run`]; `kvx` runs its sweep over the same
//! table and `simx` takes its CH reference from it.
//!
//! A new backend is one [`Backend`] variant (its names and its engine
//! constructor); every comparison, table and summary line built here
//! then includes it.

use crate::output::create_csv;
use crate::runner::derive_seed;
use crate::Ctx;
use domus_ch::ChEngine;
use domus_churn::{ChurnOutcome, DriverConfig, EventKind, EventStream, Scenario};
use domus_core::{DhtConfig, DhtEngine, GlobalDht, LocalDht};
use domus_hashspace::HashSpace;
use domus_metrics::table::Table;
use domus_sim::SimTime;

/// Picks the paper-scale value from `n = 512` up, else the `--quick` one.
pub fn scaled<T>(ctx: &Ctx, paper: T, quick: T) -> T {
    if ctx.n >= 512 {
        paper
    } else {
        quick
    }
}

/// The local approach's reference `(Pmin, Vmin)`: the paper's `(32, 32)`,
/// scaled to `(8, 8)` under `--quick`.
pub fn params(ctx: &Ctx) -> (u64, u64) {
    scaled(ctx, (32, 32), (8, 8))
}

/// The Consistent-Hashing reference: `k = 32` virtual servers per node
/// (figure 9's stronger baseline).
pub fn ch_engine(pmin: u64, seed: u64) -> ChEngine {
    ChEngine::with_seed(config(pmin, 1), 32, seed)
}

fn config(pmin: u64, vmin: u64) -> DhtConfig {
    DhtConfig::new(HashSpace::full(), pmin, vmin).expect("powers of two")
}

/// A computation generic over the engine type — what a closure would be
/// if closures could be generic.
pub trait OnEngine {
    /// What the computation returns.
    type Out;
    /// Runs it on one backend's engine.
    fn on<E: DhtEngine + Send + Sync>(self, engine: E) -> Self::Out;
}

/// The three balancing backends every comparison runs, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The paper's local approach at `(Pmin, Vmin)`.
    Local,
    /// The paper's global approach at `(Pmin, 1)`.
    Global,
    /// Consistent Hashing at `(Pmin, 1)`, `k = 32`.
    Ch,
}

impl Backend {
    /// Every backend, in report (and declaration) order.
    pub const ALL: [Backend; 3] = [Backend::Local, Backend::Global, Backend::Ch];

    /// `(CSV file name, summary-line name, table label)`.
    const fn names(self) -> (&'static str, &'static str, &'static str) {
        match self {
            Backend::Local => ("local", "local", "model (local approach)"),
            Backend::Global => ("global", "global", "model (global approach)"),
            Backend::Ch => ("ch", "CH", "Consistent Hashing k=32"),
        }
    }

    /// The name used in CSV file names and assertion messages.
    pub fn name(self) -> &'static str {
        self.names().0
    }

    /// The display label used in tables.
    pub fn label(self) -> &'static str {
        self.names().2
    }

    /// Builds this backend's engine at `(pmin, vmin)` and hands it to `f`.
    /// Only the local approach groups vnodes, so the others run at
    /// `Vmin = 1`; CH draws its ring from a decorrelated seed.
    pub fn with_engine<F: OnEngine>(self, (pmin, vmin): (u64, u64), seed: u64, f: F) -> F::Out {
        match self {
            Backend::Local => f.on(LocalDht::with_seed(config(pmin, vmin), seed)),
            Backend::Global => f.on(GlobalDht::with_seed(config(pmin, 1), seed)),
            Backend::Ch => f.on(ch_engine(pmin, seed ^ 0xCC)),
        }
    }
}

/// One figure per backend as a summary line writes them:
/// `local <f(Local)><sep>global <f(Global)><sep>CH <f(Ch)>`.
pub fn per_backend(sep: &str, f: impl Fn(Backend) -> String) -> String {
    Backend::ALL.map(|b| format!("{} {}", b.names().1, f(b))).join(sep)
}

/// What one comparison declares: the workload and its size.
pub struct Spec {
    /// The scenario compiled into the one stream every run replays.
    pub scenario: Scenario,
    /// Label of the seed stream (`derive_seed(ctx.seeds, label, 0)`).
    pub seed_label: &'static str,
    /// Keys loaded at the first join.
    pub entries: u64,
    /// Replication factors to run per backend (plain KV counts as 1).
    pub factors: &'static [usize],
    /// `--events`: replay only the first `n` events.
    pub events: Option<usize>,
}

/// One replay's inputs: what a comparison's [`OnEngine`] builds its
/// driver from (`with_kv` + readers / `with_replication(r)` /
/// `+ with_router` — the one line the comparisons differ in).
pub struct Run {
    /// Driver config with `window = horizon / 20`.
    pub cfg: DriverConfig,
    /// Keys loaded at the first join.
    pub entries: u64,
    /// This run's replication factor.
    pub r: usize,
    /// The stream to replay (fingerprint already checked).
    pub stream: EventStream,
}

/// One `(backend, R)` replay.
pub struct Cell {
    /// The backend replayed into.
    pub backend: Backend,
    /// Replication factor.
    pub r: usize,
    /// The replay outcome.
    pub outcome: ChurnOutcome,
}

impl Cell {
    /// Keys the store held in the last window.
    pub fn final_keys(&self) -> u64 {
        self.outcome.samples.last().map(|s| s.keys_total).unwrap_or(0)
    }
}

/// One table column: its header and the cell it shows for a replay.
pub type Column = (&'static str, fn(&Comparison, &Cell) -> String);

/// All backends' outcomes on one stream.
pub struct Comparison {
    /// Events replayed per run.
    pub events: usize,
    /// The stream fingerprint every run replayed.
    pub fingerprint: u64,
    /// Keys loaded at the first join.
    pub entries: u64,
    /// Crash events in the (possibly truncated) stream.
    pub crashes: usize,
    /// Rejoin events (every crash the horizon still covers pairs with one).
    pub rejoins: usize,
    /// Silent-stall events — zero when `--events` cut them off, which
    /// makes the failover contract vacuous.
    pub stalls: usize,
    /// Capacity-degradation events.
    pub degrades: usize,
    /// All `(backend, R)` cells, backend-major.
    pub cells: Vec<Cell>,
}

impl Comparison {
    /// The outcome of `backend` at replication factor `r`.
    pub fn at(&self, backend: Backend, r: usize) -> &ChurnOutcome {
        &self.cells.iter().find(|c| c.backend == backend && c.r == r).expect("cell ran").outcome
    }

    /// Prints one row per cell: the backend's label, then `columns`.
    pub fn print_table(&self, columns: &[Column]) {
        let headers: Vec<&str> =
            std::iter::once("system").chain(columns.iter().map(|c| c.0)).collect();
        let mut t = Table::new(&headers);
        for cell in &self.cells {
            let mut row = vec![cell.backend.label().to_string()];
            row.extend(columns.iter().map(|(_, show)| show(self, cell)));
            t.row(&row);
        }
        println!("{}", t.render());
    }

    /// Writes `<out_dir>/<stem>_<backend>.csv` for the cells at factor `r`.
    pub fn write_csvs(&self, ctx: &Ctx, stem: &str, r: usize) {
        for cell in self.cells.iter().filter(|c| c.r == r) {
            let (_, file) = create_csv(ctx, &format!("{stem}_{}", cell.backend.name()));
            cell.outcome.write_csv(file).expect("write comparison csv");
        }
    }
}

/// Compiles `spec`'s stream and replays it per backend × factor, through
/// the driver `plant` builds around each [`Run`].
///
/// The stream is rebuilt from the same seed for every run and the
/// fingerprints are asserted equal — "same seed ⇒ byte-identical stream
/// across engines" is enforced at run time, not assumed.
pub fn replay<P>(ctx: &Ctx, spec: &Spec, plant: impl Fn(Run) -> P) -> Comparison
where
    P: OnEngine<Out = ChurnOutcome>,
{
    let seed = derive_seed(&ctx.seeds, spec.seed_label, 0);
    let build_stream = || {
        let mut s = spec.scenario.build(seed);
        if let Some(n) = spec.events {
            s.truncate(n);
        }
        s
    };
    let reference = build_stream();
    let cfg = DriverConfig {
        window: SimTime((reference.horizon().nanos() / 20).max(1)),
        ..DriverConfig::default()
    };

    let mut cells = Vec::new();
    for backend in Backend::ALL {
        for &r in spec.factors {
            let stream = build_stream();
            assert_eq!(
                stream.fingerprint(),
                reference.fingerprint(),
                "seeded stream must be identical for every backend and R"
            );
            let run = Run { cfg, entries: spec.entries, r, stream };
            let outcome = backend.with_engine(params(ctx), seed, plant(run));
            cells.push(Cell { backend, r, outcome });
        }
    }
    let count =
        |is: fn(&EventKind) -> bool| reference.events().iter().filter(|e| is(&e.kind)).count();
    Comparison {
        events: reference.len(),
        fingerprint: reference.fingerprint(),
        entries: spec.entries,
        crashes: count(|k| matches!(k, EventKind::CrashRank { .. })),
        rejoins: count(|k| matches!(k, EventKind::RejoinRank { .. })),
        stalls: count(|k| matches!(k, EventKind::StallRank { .. })),
        degrades: count(|k| matches!(k, EventKind::DegradeRank { .. })),
        cells,
    }
}
