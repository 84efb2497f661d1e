//! The three churn workloads: one `EventStream` replayed through
//! `ChurnDriver::step`, timed per step from outside.

use crate::mirror::{EngineSpans, Mirror};
use crate::stats::mean;
use crate::trace::Tracer;
use crate::{Rep, Scale};
use domus_ch::ChEngine;
use domus_churn::{
    Capacity, ChurnDriver, ChurnEvent, ChurnOutcome, DriverConfig, EventKind, EventStream,
    Lifetime, Process, Scenario,
};
use domus_core::{DhtConfig, DhtEngine, GlobalDht, LocalDht, SnodeId};
use domus_hashspace::HashSpace;
use domus_kv::ReplicatedStore;
use domus_sim::SimTime;
use std::time::{Duration, Instant};

/// `Pmin` of every engine (and `Vmin` of the local approach): the
/// paper's evaluation setting.
const PMIN: u64 = 32;
/// Consistent-Hashing points per node.
const CH_POINTS: u32 = 32;
/// When `churn-durable` crashes a snode, in thousandths of the horizon:
/// 34.5 s, 64.5 s, 94.5 s and 124.5 s of the 150 s horizon, against
/// sampling windows that close every 30 s.
const CRASH_AT_PERMILLE: [u64; 4] = [230, 430, 630, 830];
/// Length of a `UniformKeys` key (`key:` plus twelve digits), for the
/// user-byte count of the overlay's preload.
const UNIFORM_KEY_LEN: usize = 16;

/// A balancing backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The paper's local approach (`LocalDht`).
    Local,
    /// The paper's global approach (`GlobalDht`).
    Global,
    /// Consistent Hashing (`ChEngine`).
    Ch,
}

impl Backend {
    fn spans(self) -> EngineSpans {
        match self {
            Backend::Local => EngineSpans {
                create: "core.local.create",
                remove: "core.local.remove",
                fail: "core.local.fail",
                rejoin: "core.local.rejoin",
            },
            Backend::Global => EngineSpans {
                create: "core.global.create",
                remove: "core.global.remove",
                fail: "core.global.fail",
                rejoin: "core.global.rejoin",
            },
            Backend::Ch => EngineSpans {
                create: "ch.create",
                remove: "ch.remove",
                fail: "ch.fail",
                rejoin: "ch.rejoin",
            },
        }
    }

    /// Names of the backend's per-layer split of a pooled workload:
    /// `(events per second, mean windowed relstd)`.
    fn split_metrics(self) -> (&'static str, &'static str) {
        match self {
            Backend::Local => ("core.local.events_per_s", "core.local.relstd_pct"),
            Backend::Global => ("core.global.events_per_s", "core.global.relstd_pct"),
            Backend::Ch => ("ch.events_per_s", "ch.relstd_pct"),
        }
    }
}

/// The replicated overlay of `churn-durable`.
#[derive(Debug, Clone, Copy)]
pub struct Overlay {
    /// Keys preloaded at the first join.
    pub keys: u64,
    /// Value length in bytes.
    pub value_len: usize,
    /// Replication factor.
    pub replication: usize,
}

/// One churn workload: frozen sizes, see `BENCHMARK.json` for why each
/// exists.
#[derive(Debug, Clone, Copy)]
pub struct ChurnSpec {
    /// Workload name.
    pub name: &'static str,
    /// Backends replayed back to back, events pooled.
    pub backends: &'static [Backend],
    /// Initial fleet, nodes of two vnodes each.
    pub fleet: u32,
    /// Simulated horizon in seconds at full scale.
    pub horizon_s: u64,
    /// Share of the live vnodes the one `GroupFailure` removes.
    pub fail_fraction: f64,
    /// The tail `op_tail_us` reports, per-mille: the highest percentile
    /// that sits in a dense part of this workload's step-time
    /// distribution (see `README.md`, *The tail percentile*).
    pub tail_permille: u32,
    /// `Some` runs `ChurnDriver::with_replication`.
    pub overlay: Option<Overlay>,
}

/// Bare control plane at 2048 vnodes, all three backends.
pub const BARE_2K: ChurnSpec = ChurnSpec {
    name: "churn-bare-2k",
    backends: &[Backend::Local, Backend::Global, Backend::Ch],
    fleet: 1024,
    horizon_s: 2000,
    fail_fraction: 0.1,
    tail_permille: 998,
    overlay: None,
};

/// The ladder rung: local approach at 16384 vnodes.
pub const LOCAL_16K: ChurnSpec = ChurnSpec {
    name: "churn-local-16k",
    backends: &[Backend::Local],
    fleet: 8192,
    horizon_s: 750,
    fail_fraction: 0.01,
    tail_permille: 990,
    overlay: None,
};

/// Replicated overlay with WAL, crash and rejoin.
pub const DURABLE: ChurnSpec = ChurnSpec {
    name: "churn-durable",
    backends: &[Backend::Local],
    fleet: 64,
    horizon_s: 300,
    fail_fraction: 0.0,
    tail_permille: 900,
    overlay: Some(Overlay { keys: 512, value_len: 64, replication: 2 }),
};

impl ChurnSpec {
    /// The workload's scenario. Full scale is the frozen size; quick
    /// scale keeps the fleet and cuts the horizon to a tenth.
    pub fn scenario(&self, scale: Scale) -> Scenario {
        let horizon_ms = match scale {
            Scale::Full => self.horizon_s * 1000,
            Scale::Quick => self.horizon_s * 100,
        };
        let horizon = SimTime::millis(horizon_ms);
        let base = Scenario::new(horizon)
            .with(Process::InitialFleet { nodes: self.fleet, capacity: Capacity::Fixed(2) });
        if self.overlay.is_some() {
            let mut s = base.with(Process::Poisson {
                rate_per_s: 2.0,
                lifetime: Lifetime::Exponential { mean: SimTime::millis(120_000) },
                capacity: Capacity::Fixed(1),
            });
            // One crash-then-rejoin cycle per process, each crash a few
            // seconds after a window boundary: the window-close repair
            // always runs between two crashes, so at R = 2 no seed can
            // lose a key. The quick horizon has no window close inside
            // it and keeps a single cycle.
            let cycles = match scale {
                Scale::Full => CRASH_AT_PERMILLE.len(),
                Scale::Quick => 1,
            };
            for permille in &CRASH_AT_PERMILLE[..cycles] {
                s = s.with(Process::CrashRejoin {
                    at: SimTime::millis(horizon_ms * permille / 1000),
                    cycles: 1,
                    spread: SimTime::ZERO,
                    downtime: SimTime::millis(horizon_ms * 3 / 10),
                });
            }
            s
        } else {
            base.with(Process::Poisson {
                rate_per_s: 4.0,
                lifetime: Lifetime::Pareto { min: SimTime::millis(30_000), alpha: 1.5 },
                capacity: Capacity::Uniform { lo: 1, hi: 2 },
            })
            .with(Process::GroupFailure {
                at: SimTime::millis(horizon_ms * 7 / 10),
                fraction: self.fail_fraction,
            })
        }
    }
}

/// What a measured step was, for the per-kind means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Join,
    Leave,
    FailSlice,
    Crash,
    Rejoin,
    Other,
}

impl Kind {
    fn of(e: &ChurnEvent) -> Self {
        match e.kind {
            EventKind::Join { .. } => Kind::Join,
            EventKind::Leave { .. } => Kind::Leave,
            EventKind::FailSlice { .. } => Kind::FailSlice,
            EventKind::Crash { .. } | EventKind::CrashRank { .. } => Kind::Crash,
            EventKind::RejoinRank { .. } => Kind::Rejoin,
            EventKind::StallRank { .. } | EventKind::DegradeRank { .. } => Kind::Other,
        }
    }
}

/// One timed `ChurnDriver::step`.
#[derive(Debug, Clone, Copy)]
struct StepSample {
    ns: u64,
    kind: Kind,
    /// The step closed at least one sampling window first.
    crossed: bool,
}

/// One backend's replay.
struct Replay {
    setup: Duration,
    pass: Duration,
    steps: Vec<StepSample>,
    outcome: ChurnOutcome,
    failed: u64,
    checks: u64,
    wal: WalTotals,
}

/// Lifetime WAL counters summed over every snode's log.
#[derive(Debug, Clone, Copy, Default)]
struct WalTotals {
    records: u64,
    bytes: u64,
    rotations: u64,
    truncated_segments: u64,
}

fn cfg_for(vmin: u64) -> DhtConfig {
    DhtConfig::new(HashSpace::full(), PMIN, vmin).expect("benchmark engine config")
}

/// Index of the first event after time zero: everything before it is the
/// initial fleet, enrolled as set-up.
fn first_measured(stream: &EventStream) -> usize {
    stream.events().iter().position(|e| e.at > SimTime::ZERO).unwrap_or(stream.len())
}

/// One backend's share of a repetition.
#[derive(Clone, Copy)]
struct Job<'a> {
    spec: &'a ChurnSpec,
    stream: &'a EventStream,
    /// Op id of the job's first measured event in the trace.
    op_base: u32,
    /// Run the full-state oracles (`check_invariants`,
    /// `verify_replication`) on the final state.
    verify: bool,
}

/// Replays the stream into a driver over `engine`: fleet enrolment as
/// set-up, then one timed `step` per remaining event, then the output
/// checks.
fn replay<E: DhtEngine>(engine: E, job: Job, mut tracer: Option<&mut Tracer>) -> Replay {
    let Job { spec, stream, op_base, verify } = job;
    let cfg = DriverConfig::default();
    let t0 = Instant::now();
    let mut driver = match spec.overlay {
        Some(o) => ChurnDriver::with_replication(engine, cfg, o.keys, o.value_len, o.replication),
        None => ChurnDriver::new(engine, cfg),
    };
    let (fleet, measured) = stream.events().split_at(first_measured(stream));
    for e in fleet {
        driver.step(e);
    }
    let setup = t0.elapsed();

    let mut steps = Vec::with_capacity(measured.len());
    let mut next_window_end = cfg.window;
    let pass_start = Instant::now();
    for (i, e) in measured.iter().enumerate() {
        let crossed = e.at > next_window_end;
        while e.at > next_window_end {
            next_window_end += cfg.window;
        }
        let start = Instant::now();
        driver.step(e);
        let end = Instant::now();
        steps.push(StepSample {
            ns: end.duration_since(start).as_nanos() as u64,
            kind: Kind::of(e),
            crossed,
        });
        if let Some(t) = tracer.as_deref_mut() {
            t.record("churn.step", op_base + i as u32, start, end);
        }
    }
    let pass = pass_start.elapsed();

    // Output checks, on the state the last step left.
    let mut failed = 0u64;
    let mut checks = 1u64;
    if verify && driver.with_engine(|e| e.check_invariants()).is_err() {
        eprintln!("{}: check_invariants failed", spec.name);
        failed += 1;
    }
    let mut wal = WalTotals::default();
    if let Some(o) = spec.overlay {
        checks += 2;
        let tags = stream.events().iter().filter_map(|e| match e.kind {
            EventKind::Join { node, .. } => Some(SnodeId(node.0)),
            _ => None,
        });
        let (keys, verified) = driver
            .with_replicated(|s| {
                for tag in tags {
                    if let Some(w) = s.wal_of(tag) {
                        let st = w.stats();
                        wal.records += st.appended;
                        wal.bytes += st.appended_bytes;
                        wal.rotations += st.rotations;
                        wal.truncated_segments += st.truncated_segments;
                    }
                }
                (s.len(), if verify { s.verify_replication() } else { Ok(()) })
            })
            .expect("overlay workload has a replicated store");
        if keys != o.keys {
            eprintln!("{}: {keys} keys at the end, expected {}", spec.name, o.keys);
            failed += 1;
        }
        if let Err(e) = verified {
            eprintln!("{}: verify_replication: {e}", spec.name);
            failed += 1;
        }
    }
    assert_eq!(driver.live(), driver.with_engine(|e| e.vnode_count()), "roster ≡ engine census");
    let outcome = driver.finish(stream.horizon());
    failed += outcome.totals.keys_lost + outcome.totals.lost_lookups;
    Replay { setup, pass, steps, outcome, failed, checks, wal }
}

/// Runs the probe chain over the whole stream on twin state and checks
/// its totals against the driver's. Returns the twin for the
/// micro-probes.
fn mirror_replay<E: DhtEngine>(
    spans: EngineSpans,
    make: impl Fn() -> E,
    job: Job,
    tracer: &mut Tracer,
    driver: &Replay,
    rep: &mut Rep,
) -> Mirror<E> {
    let Job { spec, stream, op_base, .. } = job;
    let (store, load) = match spec.overlay {
        Some(o) => (Some(ReplicatedStore::new(make(), o.replication)), Some((o.keys, o.value_len))),
        None => (None, None),
    };
    let mut m = Mirror::new(spans, make(), store, load, spec.overlay.is_some());
    let split = first_measured(stream);
    tracer.enabled = false;
    for e in &stream.events()[..split] {
        m.step(tracer, 0, e);
    }
    tracer.enabled = true;
    for (i, e) in stream.events()[split..].iter().enumerate() {
        m.step(tracer, op_base + i as u32, e);
    }
    // The chain is valid only if it did exactly what the driver did.
    let name = spec.name;
    let totals = &driver.outcome.totals;
    assert_eq!(m.transfers, totals.transfers, "{name}: probe-chain transfers ≠ driver's");
    assert_eq!(m.messages, totals.messages, "{name}: probe-chain messages ≠ driver's");
    assert_eq!(m.bytes, totals.bytes, "{name}: probe-chain priced bytes ≠ driver's");
    assert_eq!(
        m.engine.vnode_count(),
        driver.outcome.final_balance.vnodes,
        "{name}: probe-chain population ≠ driver's"
    );
    if let (Some(store), Some(o)) = (&m.store, spec.overlay) {
        assert_eq!(store.len(), o.keys, "{name}: probe-chain key count ≠ driver's");
        assert_eq!(m.keys_lost, totals.keys_lost, "{name}: probe-chain keys lost ≠ driver's");
    }
    m.report_counts(rep);
    m
}

/// One repetition of a churn workload: fresh state, the frozen stream
/// for `seed`, every backend back to back. `verify` adds the full-state
/// oracles, which cost more than the pass itself on some backends (a
/// run asks for them once: its repetitions are bit-identical, which the
/// exact counters assert). With a tracer the probe chain
/// runs after each backend's real replay, and the micro-probes run on
/// the local backend's twin.
pub fn run_rep(
    spec: &ChurnSpec,
    seed: u64,
    scale: Scale,
    verify: bool,
    mut tracer: Option<&mut Tracer>,
) -> Rep {
    let mut rep = Rep::default();
    let engine_seed = crate::ENGINE_SEED;

    let t0 = Instant::now();
    let stream = spec.scenario(scale).build(seed);
    let build = t0.elapsed();
    rep.fingerprint = stream.fingerprint();
    rep.timings.insert("churn.stream_build_ms", build.as_secs_f64() * 1e3);

    let mut setup = build;
    let mut pass = Duration::ZERO;
    let mut steps: Vec<StepSample> = Vec::new();
    let mut relstd: Vec<f64> = Vec::new();
    let (mut events, mut transfers) = (0u64, 0u64);
    for &b in spec.backends {
        let job = Job { spec, stream: &stream, op_base: steps.len() as u32, verify };
        let local = || LocalDht::with_seed(cfg_for(PMIN), engine_seed);
        let global = || GlobalDht::with_seed(cfg_for(1), engine_seed);
        let ch = || ChEngine::with_seed(cfg_for(1), CH_POINTS, engine_seed);
        let r = match b {
            Backend::Local => replay(local(), job, tracer.as_deref_mut()),
            Backend::Global => replay(global(), job, tracer.as_deref_mut()),
            // Consistent Hashing's `check_invariants` re-derives every
            // node's partition view: 8 s on this stream, against a 20 s
            // run. It runs with the trace only.
            Backend::Ch => {
                let job = Job { verify: verify && tracer.is_some(), ..job };
                replay(ch(), job, tracer.as_deref_mut())
            }
        };
        setup += r.setup;
        pass += r.pass;
        rep.attempted += r.steps.len() as u64 + r.checks;
        rep.failed += r.failed;
        let own: Vec<f64> = r.outcome.samples.iter().map(|s| s.balance.vnode_relstd_pct).collect();
        let t = &r.outcome.totals;
        events += t.events;
        transfers += t.transfers;
        if spec.backends.len() > 1 {
            let (rate, quality) = b.split_metrics();
            rep.timings.insert(rate, r.steps.len() as f64 / r.pass.as_secs_f64());
            rep.exact.insert(quality, mean(&own));
        }
        relstd.extend(own);
        rep.add_exact("sim.messages", t.messages as f64);
        rep.add_exact("sim.bytes_priced", t.bytes as f64);
        if let Some(o) = spec.overlay {
            let user_bytes = o.keys * (UNIFORM_KEY_LEN + o.value_len) as u64;
            rep.exact.insert("wal.amp", r.wal.bytes as f64 / user_bytes as f64);
            rep.exact.insert("wal.records", r.wal.records as f64);
            rep.exact.insert("wal.bytes", r.wal.bytes as f64);
            rep.exact.insert("wal.rotations", r.wal.rotations as f64);
            rep.exact.insert("wal.truncated_segments", r.wal.truncated_segments as f64);
            rep.exact.insert("kv.repair_bytes", t.repair_bytes as f64);
            rep.exact.insert("kv.repair_bytes_full", t.repair_bytes_full as f64);
            rep.exact.insert("kv.keys_lost", t.keys_lost as f64);
            rep.exact.insert("kv.read_misses", t.lost_lookups as f64);
        }

        if let Some(tr) = tracer.as_deref_mut() {
            match b {
                Backend::Local => {
                    let mut m = mirror_replay(b.spans(), local, job, tr, &r, &mut rep);
                    crate::probes::run(&mut rep, &m.engine, m.store.as_mut(), seed);
                }
                Backend::Global => {
                    mirror_replay(b.spans(), global, job, tr, &r, &mut rep);
                }
                Backend::Ch => {
                    mirror_replay(b.spans(), ch, job, tr, &r, &mut rep);
                }
            }
        }
        steps.extend(r.steps);
    }

    rep.lat_ns = steps.iter().map(|s| s.ns).collect();
    rep.work_ns = rep.lat_ns.clone();
    rep.timings.insert("setup_s", setup.as_secs_f64());
    rep.timings.insert("ops_per_s", steps.len() as f64 / pass.as_secs_f64());
    rep.exact.insert("core.balance_relstd_pct", mean(&relstd));
    rep.exact.insert("xfer_per_event", transfers as f64 / events as f64);
    step_breakdown(&steps, &mut rep);
    rep
}

/// Per-kind step means and the window-close excess, from the root
/// timings alone.
fn step_breakdown(steps: &[StepSample], rep: &mut Rep) {
    let kinds = [
        (Kind::Join, "churn.step_join_us"),
        (Kind::Leave, "churn.step_leave_us"),
        (Kind::FailSlice, "churn.step_failslice_us"),
        (Kind::Crash, "churn.step_crash_us"),
        (Kind::Rejoin, "churn.step_rejoin_us"),
    ];
    let mean_us = |pick: &dyn Fn(&StepSample) -> bool| {
        let v: Vec<f64> = steps.iter().filter(|s| pick(s)).map(|s| s.ns as f64 / 1e3).collect();
        (!v.is_empty()).then(|| mean(&v))
    };
    let mut excess = Vec::new();
    for (kind, name) in kinds {
        if let Some(m) = mean_us(&|s| s.kind == kind) {
            rep.timings.insert(name, m);
        }
        // A crossing step pays the window close on top of its own kind's
        // usual cost.
        if let Some(base) = mean_us(&|s| s.kind == kind && !s.crossed) {
            excess.extend(
                steps
                    .iter()
                    .filter(|s| s.kind == kind && s.crossed)
                    .map(|s| s.ns as f64 / 1e3 - base),
            );
        }
    }
    rep.timings.insert("churn.window_close_us", mean(&excess));
}
