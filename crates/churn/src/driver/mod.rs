//! The replay engine: an [`EventStream`] driven into any [`DhtEngine`].
//!
//! [`ChurnDriver`] replays membership events through the streaming
//! operation surface: every engine operation runs with `domus-sim`'s
//! [`EventPricer`] as its sink (tapped through the KV store's in-line
//! migration when an overlay is active), so pricing, transfer counting
//! and data migration all happen *while the event executes* — no
//! per-event report is ever materialised. Per fixed simulated-time
//! window the driver closes one [`WindowSample`] row.
//!
//! Replay is rank- and tag-based (see [`crate::event`]): one stream
//! drives every backend through the same decisions, so cross-backend
//! outputs differ only by what the engines themselves do.
//!
//! ## Layout
//!
//! This file is the replay protocol and nothing else: config, the clock
//! and its windows, and `step` — event → victim choice → plant
//! operation → price → accumulate. Who is live, and which vnodes a tag
//! hosts, is asked of the engine (`DhtEngine::vnodes` and
//! `DhtEngine::vnodes_of_snode`, through `Plant::with_engine`); the
//! driver keeps no copy. What it composes has one home each:
//!
//! * `plant` — what is driven: the engine, bare or under a KV overlay,
//!   one method per membership operation; probe set; repair pass.
//! * `roster` — who is crashed, and the rank / slice selection rules
//!   over the engine's creation order.
//! * `sample` — the output rows, the run totals, the CSV schema.
//! * `readers` — [`ChurnDriver::with_readers`]: paced reader threads (a
//!   64-read burst per pinned snapshot, then a 1 ms pause — constants).
//! * `route` — [`ChurnDriver::with_router`]: the control plane, ticked
//!   once per window on the sim clock.
//!
//! A window closes in a fixed order: route tick (its failovers and moves
//! land in the closing window) → balance → probe → reads → repair.
//!
//! ## Two rules, both enforced in `plant`, in one place each
//!
//! * **Publish before unlock.** With readers or a router attached, every
//!   membership operation publishes the next routing epoch *before* the
//!   store's write lock is released, so a reader that settles at the
//!   current epoch can trust a miss.
//! * **No per-operation publish otherwise.** Building a snapshot costs
//!   several times the operation it follows; a replay nobody watches
//!   publishes nothing (the probe takes one snapshot per window).

mod plant;
mod readers;
mod roster;
mod route;
mod sample;
#[cfg(test)]
mod tests;

pub use sample::{ChurnOutcome, RunTotals, WindowSample};

use crate::event::{ChurnEvent, EventKind, EventStream, NodeTag};
use domus_core::{DhtEngine, SnodeId, VnodeId};
use domus_sim::{ClusterNet, CostModel, EventCost, EventPricer, SimTime};
use plant::Plant;
use readers::ReadPlane;
use roster::Roster;
use route::RoutePlane;
use std::time::Instant;

/// Replay configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriverConfig {
    /// Network model used to price protocol traffic.
    pub net: ClusterNet,
    /// CPU/transfer cost model.
    pub cost: CostModel,
    /// Sampling cadence: one [`WindowSample`] per `window` of simulated
    /// time.
    pub window: SimTime,
    /// Maximum number of probe keys the KV overlay tracks for
    /// availability/correctness (ignored without the overlay).
    pub probes: usize,
}

impl Default for DriverConfig {
    fn default() -> Self {
        Self {
            net: ClusterNet::default(),
            cost: CostModel::default(),
            window: SimTime::millis(30_000),
            probes: 256,
        }
    }
}

/// Replays an [`EventStream`] into one engine, pricing and sampling.
pub struct ChurnDriver<E: DhtEngine> {
    plant: Plant<E>,
    cfg: DriverConfig,
    /// The streaming pricing sink every operation runs through (scratch
    /// reused across events — the hot path allocates nothing per event).
    pricer: EventPricer,
    /// The crashed snodes awaiting a rejoin.
    roster: Roster,
    clock: SimTime,
    next_window_end: SimTime,
    /// The window being accumulated.
    open: WindowSample,
    samples: Vec<WindowSample>,
    /// Entry bytes a digest-less full rebuild would have shipped, run
    /// total (the denominator of the anti-entropy savings figure).
    repair_bytes_full: u64,
    route: Option<RoutePlane>,
    reads: ReadPlane,
}

impl<E: DhtEngine> ChurnDriver<E> {
    /// A control-plane-only driver (no data moves, pricing + balance
    /// sampling only) — the bench hot path.
    pub fn new(engine: E, cfg: DriverConfig) -> Self {
        Self::build(Plant::bare(engine), cfg)
    }

    /// A driver with the KV overlay: `entries` uniform keys with
    /// `value_len`-byte values are loaded at the first join, then every
    /// event migrates real data and the probe set measures availability.
    pub fn with_kv(engine: E, cfg: DriverConfig, entries: u64, value_len: usize) -> Self {
        assert!(entries > 0, "KV overlay needs a key population");
        Self::build(Plant::kv(engine, (entries, value_len), cfg.probes), cfg)
    }

    /// A driver with the **replicated** overlay at factor `replication`:
    /// crashes ([`EventKind::Crash`]/[`EventKind::CrashRank`]) destroy the
    /// failed snode's replicas instead of migrating them, each window
    /// samples durability (`keys_lost` / `keys_total`) and quorum-read
    /// availability, and an anti-entropy repair pass closes every window.
    pub fn with_replication(
        engine: E,
        cfg: DriverConfig,
        entries: u64,
        value_len: usize,
        replication: usize,
    ) -> Self {
        assert!(entries > 0, "replicated overlay needs a key population");
        Self::build(Plant::replicated(engine, replication, (entries, value_len), cfg.probes), cfg)
    }

    fn build(plant: Plant<E>, cfg: DriverConfig) -> Self {
        assert!(cfg.window > SimTime::ZERO, "sampling window must be positive");
        Self {
            plant,
            cfg,
            pricer: EventPricer::new(cfg.net, cfg.cost),
            roster: Roster::default(),
            clock: SimTime::ZERO,
            next_window_end: cfg.window,
            open: WindowSample::default(),
            samples: Vec::new(),
            repair_bytes_full: 0,
            route: None,
            reads: ReadPlane::new(),
        }
    }

    /// Live vnodes in the engine.
    pub fn live(&self) -> usize {
        self.plant.with_engine(|e| e.vnode_count())
    }

    /// The tag hosting the live vnode at rank `draw` of the engine's
    /// creation order (`None` when nothing is live).
    fn tag_at(&self, draw: u64) -> Option<NodeTag> {
        self.plant.with_engine(|e| {
            let v = roster::at_rank(&e.vnodes(), draw)?;
            Some(NodeTag(e.snode_of(v).expect("a listed vnode is live").0))
        })
    }

    /// The live vnodes `tag` hosts, in creation order.
    fn hosted_by(&self, tag: NodeTag) -> Vec<VnodeId> {
        self.plant.with_engine(|e| e.vnodes_of_snode(SnodeId(tag.0)).to_vec())
    }

    /// Replays one event (time must be nondecreasing across calls).
    pub fn step(&mut self, event: &ChurnEvent) {
        self.advance_to(event.at);
        match event.kind {
            EventKind::Join { node, vnodes } => self.enroll(node, vnodes),
            EventKind::Leave { node } => self.remove_all(self.hosted_by(node)),
            EventKind::FailSlice { fraction_ppm, draw } => {
                let victims =
                    self.plant.with_engine(|e| roster::slice(&e.vnodes(), fraction_ppm, draw));
                self.remove_all(victims);
            }
            EventKind::Crash { node } => self.crash_tag(node, false),
            EventKind::CrashRank { draw } => match self.tag_at(draw) {
                Some(tag) => self.crash_tag(tag, false),
                None => self.open.skipped += 1,
            },
            EventKind::StallRank { draw } => self.fault(draw, |r, s| r.inject_stall(s)),
            EventKind::DegradeRank { draw, factor_ppm } => {
                self.fault(draw, |r, s| r.degrade(s, f64::from(factor_ppm) / 1e6))
            }
            EventKind::RejoinRank { draw } => match self.roster.take_crashed(draw) {
                Some((tag, vnodes)) => self.rejoin_tag(tag, vnodes),
                None => self.open.skipped += 1,
            },
        }
        self.open.events += 1;
    }

    /// Closes the remaining windows through `horizon` and aggregates.
    pub fn finish(mut self, horizon: SimTime) -> ChurnOutcome {
        let horizon = horizon.max(self.clock);
        while self.next_window_end < horizon {
            self.close_next_window();
        }
        // When the last event sat exactly on a window boundary,
        // advance_to already closed a window ending at `horizon`; only
        // emit another (same-timestamp) row if events landed after it.
        let closed_at_horizon = self.samples.last().is_some_and(|s| s.end == horizon);
        if !closed_at_horizon || self.open.events > 0 {
            self.close_window(horizon);
        }
        let mut totals = RunTotals::fold(&self.samples);
        totals.repair_bytes_full = self.repair_bytes_full;
        self.reads.totals_into(&mut totals);
        if let Some(plane) = &self.route {
            plane.totals_into(&mut totals);
        }
        let final_balance = self.with_engine(|e| e.balance_snapshot());
        ChurnOutcome { samples: self.samples, final_balance, totals }
    }

    /// Rolls the clock forward, closing any windows the gap crosses.
    /// Windows are left-open, right-closed `(prev, end]`: an event landing
    /// exactly on a boundary belongs to the window ending there, so a
    /// truncated stream (horizon = last event time) never produces two
    /// samples with the same timestamp.
    fn advance_to(&mut self, t: SimTime) {
        debug_assert!(t >= self.clock, "events must be replayed in time order");
        while t > self.next_window_end {
            self.close_next_window();
        }
        self.clock = t;
    }

    fn close_next_window(&mut self) {
        let end = self.next_window_end;
        self.close_window(end);
        self.next_window_end = end + self.cfg.window;
    }

    fn close_window(&mut self, end: SimTime) {
        // The control plane ticks first: its failovers and moves execute
        // inside the closing window, so the balance/probe samples below
        // see the post-action state the next window starts from.
        self.route_window(end);
        let mut s = std::mem::take(&mut self.open);
        s.index = self.samples.len();
        s.end = end;
        s.balance = self.with_engine(|e| e.balance_snapshot());
        (s.availability, s.lost_lookups, s.quorum_availability) =
            self.plant.probe(s.index as u64 + 1);
        self.reads.sample_into(&mut s);
        // Anti-entropy runs at window cadence: sample the damage first
        // (the quorum figure above sees the pre-repair state), then heal.
        let (keys_total, repair) = self.plant.repair();
        s.keys_total = keys_total;
        s.repaired = repair.copies_placed;
        s.repair_bytes += repair.bytes_shipped;
        self.repair_bytes_full += repair.bytes_full;
        // A window below full quorum availability extends the running
        // gap; a fully-quorate window closes the episode.
        let gap = self.samples.last().map_or(0, |prev| prev.quorum_gap_windows);
        s.quorum_gap_windows = if s.quorum_availability < 1.0 { gap + 1 } else { 0 };
        self.samples.push(s);
    }

    /// Prices the operation the pricer just watched into the open window.
    fn absorb(&mut self, cost: EventCost, entries_moved: u64) {
        self.open.messages += cost.messages;
        self.open.bytes += cost.bytes;
        self.open.service += cost.duration;
        self.open.transfers += self.pricer.transfers();
        self.open.entries_migrated += entries_moved;
    }

    /// Enrolls `node` with `vnodes` vnodes (at least one).
    fn enroll(&mut self, node: NodeTag, vnodes: u32) {
        // The arrival's enrollment is its *declared capacity* — the
        // fixed basis hot-spot decisions weigh against (later moves
        // shrink its quota, not its capacity).
        self.lease(|r, _| r.note_capacity(SnodeId(node.0), vnodes.max(1)));
        for _ in 0..vnodes.max(1) {
            self.create_one(node);
        }
    }

    fn create_one(&mut self, node: NodeTag) {
        self.pricer.begin();
        let (v, entries_moved) = self.plant.create(SnodeId(node.0), &mut self.pricer);
        self.enrolled(node, &[v], entries_moved);
    }

    /// Accounts the creation event the pricer just watched: it enrolled
    /// `handles` under `tag` and moved `entries_moved` entries.
    fn enrolled(&mut self, tag: NodeTag, handles: &[VnodeId], entries_moved: u64) {
        let (record_len, participants) =
            handles.first().map_or((1, 1), |&v| self.plant.record_shape_of(v));
        let cost = self.pricer.finish_create(record_len, participants);
        self.absorb(cost, entries_moved);
        self.open.joins += handles.len() as u64;
        let (snode, now) = (SnodeId(tag.0), self.clock);
        self.lease(|r, _| handles.iter().for_each(|&v| r.note_join(v, snode, now)));
    }

    /// Removes `victims` in order. An empty list (the node is already
    /// gone — a failure took it — or nobody is live) counts one skipped
    /// operation.
    fn remove_all(&mut self, victims: Vec<VnodeId>) {
        if victims.is_empty() {
            self.open.skipped += 1;
        }
        victims.into_iter().for_each(|v| self.remove_one(v));
    }

    /// Removes one vnode.
    fn remove_one(&mut self, v: VnodeId) {
        if self.live() <= 1 {
            // The model has no representation for an empty DHT; a real
            // deployment would be down. Count it instead of crashing —
            // the guard is state-parallel, so every engine skips alike.
            self.open.skipped += 1;
            return;
        }
        // The holder is read while `v` still resolves to it.
        let holder = self.lease(|_, e| e.snode_of(v).expect("a removed vnode is live"));
        self.pricer.begin();
        let entries_moved = self.plant.remove(v, &mut self.pricer);
        // The governing record after the event is visible through any
        // receiver of the redistribution transfers.
        let (record_len, participants) =
            self.pricer.first_receiver().map_or((1, 1), |to| self.plant.record_shape_of(to));
        let cost = self.pricer.finish_remove(record_len, participants);
        self.absorb(cost, entries_moved);
        self.open.leaves += 1;
        if let Some(s) = holder {
            self.lease(|r, e| r.note_remove(s, e.vnodes_of_snode(s).len()));
        }
    }

    /// Crashes the snode identified by `tag` ungracefully (see
    /// `Plant::fail`), priced as one composite removal event: one
    /// synchronisation round over the post-crash record plus all streamed
    /// transfers — a deliberate approximation (a crash is detected and
    /// absorbed as a unit, not as per-vnode goodbyes). With `failover`
    /// set the teardown was ordered by the control plane (a lapsed lease,
    /// not a crash notification): same mechanics, different accounting.
    fn crash_tag(&mut self, tag: NodeTag, failover: bool) {
        let count = self.hosted_by(tag).len();
        if count == 0 || count == self.live() {
            // Already gone, or crashing the whole fleet would empty the
            // DHT — skip, state-parallel across engines.
            self.open.skipped += 1;
            return;
        }
        if failover {
            self.open.failovers += 1;
        } else {
            self.open.crashes += 1;
        }
        self.roster.note_crashed(tag, count as u32);
        let snode = SnodeId(tag.0);
        self.pricer.begin();
        let Some(crash) = self.plant.fail(snode, &mut self.pricer) else {
            // The plant cannot represent loss: degrade to graceful
            // removals — identical membership trajectory, data migrates.
            // The last removal forgets the holder's lease and records.
            return self.remove_all(self.hosted_by(tag));
        };
        // The dead holder's lease is released (the confirmation a tick's
        // failover asks for).
        self.lease(|r, _| r.note_fail(snode));
        // The governing record after the event: the first transfer
        // receiver when it survived the whole crash, else any survivor.
        let (record_len, participants) = self
            .pricer
            .first_receiver()
            .filter(|&v| self.with_engine(|e| e.snode_of(v).is_ok()))
            .or_else(|| self.plant.with_engine(|e| e.vnodes().first().copied()))
            .map_or((1, 1), |v| self.plant.record_shape_of(v));
        let cost = self.pricer.finish_remove(record_len, participants);
        self.absorb(cost, crash.copies_relocated);
        self.open.leaves += crash.vnodes_failed as u64;
        self.open.keys_lost += crash.keys_lost;
        if crash.keys_lost > 0 {
            self.plant.prune_lost_probes();
        }
    }

    /// Brings a crashed snode back with the capacity it held at crash
    /// time. The replicated overlay replays its write-ahead log (timed
    /// into `wal_replay_ms`) as one composite creation event, priced like
    /// a join of the whole returning node; a plant with no log re-enrolls
    /// the tag through ordinary joins.
    fn rejoin_tag(&mut self, tag: NodeTag, vnodes: u32) {
        if !self.hosted_by(tag).is_empty() {
            // The tag re-enrolled through the event stream while down —
            // there is nothing to bring back.
            self.open.skipped += 1;
            return;
        }
        let snode = SnodeId(tag.0);
        self.pricer.begin();
        let started = Instant::now();
        let report = match self.plant.rejoin(snode, &mut self.pricer) {
            None => {
                self.enroll(tag, vnodes);
                self.open.rejoins += 1;
                return;
            }
            // The store no longer remembers the crash (e.g. the event
            // stream shrank the fleet past it) — state-parallel skip.
            Some(Err(_)) => {
                self.open.skipped += 1;
                return;
            }
            Some(Ok(report)) => report,
        };
        self.open.wal_replay_ns += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.open.repair_bytes += report.repair.bytes_shipped;
        self.repair_bytes_full += report.repair.bytes_full;
        self.open.rejoins += 1;
        self.lease(|r, _| r.note_capacity(snode, report.handles.len().max(1) as u32));
        self.enrolled(tag, &report.handles, report.repair.copies_placed + report.recovered);
    }
}

impl<E: DhtEngine + Send + Sync> ChurnDriver<E> {
    /// Replays a whole stream and finishes the run. With
    /// [`ChurnDriver::with_readers`] the serving plane runs concurrently
    /// for the duration of the replay.
    pub fn run(mut self, stream: &EventStream) -> ChurnOutcome {
        if self.reads.threads > 0 {
            return self.run_threaded(stream);
        }
        for e in stream.events() {
            self.step(e);
        }
        self.finish(stream.horizon())
    }
}
